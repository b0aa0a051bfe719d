import gc
import hashlib
import json
import os
import random
import shutil
import struct
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from measure_oracles import chain_couple, counter_of_sets_vocabulary
import xling
from xling import cli, errors
from xling.bidict import dict_cosine, dict_cosines, load_dictionary, matching_rate
from xling.cli import main
from xling.corpus import (
    Document,
    load_aligned_corpus,
    save_aligned_corpus,
    save_documents,
    split_corpus,
)
from xling import lsi
from xling.lsi import fold_in_many, load_model
from xling.retrieval import Embeddings, retrieve_many, write_ranked_lists_json
from xling.synthetic import SyntheticSpec, cipher_word, make_parallel_corpus, source_vocabulary
from xling.textprep import (
    PipelineConfig,
    ReducerKind,
    load_stopwords,
    make_reducer,
    pipeline_ids,
    run_pipeline,
    tokenize,
)
from xling.vsm import build_vocabulary

SPEC = SyntheticSpec(n_topics=4, words_per_topic=20, common_words=5,
                     doc_length=(30, 50), topic_alpha=0.1)


@pytest.fixture
def corpus_file(tmp_path) -> Path:
    corpus = make_parallel_corpus(30, SPEC, seed=12)
    path = tmp_path / "corpus.jsonl"
    save_aligned_corpus(corpus, path)
    return path


@pytest.fixture
def dictionary_file(tmp_path) -> Path:
    path = tmp_path / "dict.tsv"
    lines = [f"{w}\t{cipher_word(w)}" for w in source_vocabulary(SPEC)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _train(tmp_path, corpus_file, *extra) -> Path:
    model_path = tmp_path / "model.xlsm"
    rc = main(
        [
            "train",
            "--corpus", str(corpus_file),
            "--kind", "cross",
            "--k", "8",
            "--seed", "42",
            "--output", str(model_path),
            *extra,
        ]
    )
    assert rc == 0
    return model_path


def _ingest_inputs(tmp_path) -> dict[str, Path]:
    """One couple in each ingest format; the pairdirs tree holds ar/ and en/."""
    jsonl = tmp_path / "pairs.jsonl"
    jsonl.write_text(json.dumps({"src_id": "e1", "tgt_id": "a1", "src_text": "hello world",
                                 "tgt_text": "marhaba dunya"}) + "\n", encoding="utf-8")
    root = tmp_path / "raw"
    for lang, text in (("en", "hello world"), ("ar", "marhaba dunya")):
        (root / lang).mkdir(parents=True)
        (root / lang / "001.txt").write_text(text, encoding="utf-8")
    dump = tmp_path / "dump.xml"
    dump.write_text(
        "<mediawiki><page><title>A</title><revision><text>Body of A. [[ar:A-ar]]</text>"
        "</revision></page><page><title>A-ar</title><revision><text>نص</text>"
        "</revision></page></mediawiki>",
        encoding="utf-8",
    )
    return {"jsonl": jsonl, "pairdirs": root, "wikidump": dump}


def _unexpected_read(*_args, **_kwargs):
    raise AssertionError("the command read its input before checking its flags")


class TestIngest:
    def test_pairdirs_fixture(self, tmp_path, capsys):
        root = tmp_path / "raw"
        for lang, text in (("en", "hello world"), ("ar", "marhaba dunya")):
            (root / lang).mkdir(parents=True)
            for i in range(3):
                (root / lang / f"{i:03d}.txt").write_text(f"{text} {i}", encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        rc = main(
            [
                "ingest", "--input", str(root), "--format", "pairdirs",
                "--src-lang", "en", "--tgt-lang", "ar", "--output", str(out),
            ]
        )
        assert rc == 0
        stats = json.loads(out.with_suffix(".stats.json").read_text(encoding="utf-8"))
        assert stats["pairs"] == 3
        assert stats["source"]["documents"] == 3
        assert len(load_aligned_corpus(out)) == 3

    def test_wikidump_fixture(self, tmp_path):
        pages = []
        for name in ("A", "C"):
            pages.append(
                f"<page><title>{name}</title><revision><text>"
                f"Body of {name}. [[ar:{name}-ar]]</text></revision></page>"
            )
            pages.append(
                f"<page><title>{name}-ar</title><revision><text>"
                f"نص {name}</text></revision></page>"
            )
        pages.append(
            "<page><title>B</title><revision><text>"
            "[[ar:B-ar]] link target missing</text></revision></page>"
        )
        dump = tmp_path / "dump.xml"
        dump.write_text("<mediawiki>" + "".join(pages) + "</mediawiki>", encoding="utf-8")
        out = tmp_path / "wiki.jsonl"
        rc = main(
            [
                "ingest", "--input", str(dump), "--format", "wikidump",
                "--pivot-lang", "en", "--tgt-lang", "ar", "--output", str(out),
            ]
        )
        assert rc == 0
        corpus = load_aligned_corpus(out)
        assert len(corpus) == 2
        assert [d.id for d in corpus.source_docs] == ["A", "C"]
        stats = json.loads(out.with_suffix(".stats.json").read_text(encoding="utf-8"))
        assert stats["skipped_unresolved"] == 1

    def test_wikidump_linked_page_serves_only_the_first_pivot(self, tmp_path):
        pages = [("Olive oil", "[[ar:زيت]]"), ("Oil (food)", "[[ar:زيت]]"), ("زيت", "نص")]
        dump = tmp_path / "dump.xml"
        dump.write_text(
            "<mediawiki>" + "".join(
                f"<page><title>{t}</title><revision><text>{x}</text></revision></page>"
                for t, x in pages
            ) + "</mediawiki>",
            encoding="utf-8",
        )
        out = tmp_path / "wiki.jsonl"
        rc = main(
            [
                "ingest", "--input", str(dump), "--format", "wikidump",
                "--pivot-lang", "en", "--tgt-lang", "ar", "--output", str(out),
            ]
        )
        assert rc == 0
        corpus = load_aligned_corpus(out)
        assert [(s.id, t.id) for s, t in corpus.pairs()] == [("Olive oil", "زيت")]
        stats = json.loads(out.with_suffix(".stats.json").read_text(encoding="utf-8"))
        assert (stats["skipped_unresolved"], stats["skipped_duplicate"]) == (0, 1)

    @pytest.mark.parametrize(
        "fmt, flags, message",
        [
            ("jsonl", ["--src-lang", "en"],
             "--format jsonl reads no language: drop --src-lang/--tgt-lang/--pivot-lang"),
            ("jsonl", ["--tgt-lang", "ar"],
             "--format jsonl reads no language: drop --src-lang/--tgt-lang/--pivot-lang"),
            ("jsonl", ["--pivot-lang", "en"],
             "--format jsonl reads no language: drop --src-lang/--tgt-lang/--pivot-lang"),
            ("pairdirs", ["--src-lang", "en", "--tgt-lang", "ar", "--pivot-lang", "en"],
             "--format pairdirs reads --src-lang and --tgt-lang: drop --pivot-lang"),
            ("wikidump", ["--pivot-lang", "en", "--tgt-lang", "ar", "--src-lang", "en"],
             "--format wikidump reads --pivot-lang and --tgt-lang: drop --src-lang"),
            ("wikidump", ["--pivot-lang", "en", "--tgt-lang", "en"],
             "--tgt-lang must differ from --pivot-lang"),
        ],
        ids=["jsonl_src", "jsonl_tgt", "jsonl_pivot", "pairdirs_pivot", "wikidump_src",
             "wikidump_tgt_is_pivot"],
    )
    def test_language_flag_the_format_does_not_read_exits_two(
        self, tmp_path, capsys, monkeypatch, fmt, flags, message
    ):
        inputs = _ingest_inputs(tmp_path)
        monkeypatch.setattr(cli.corpus_io, "load_aligned_corpus", _unexpected_read)
        monkeypatch.setattr(cli.wikitext, "extract_comparable_articles", _unexpected_read)
        rc = main(["ingest", "--input", str(inputs[fmt]), "--format", fmt, *flags,
                   "--output", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert _one_json_error(capsys) == {"error": "ValueError", "message": message}
        assert not list(tmp_path.glob("out.*"))

    @pytest.mark.parametrize("flag", ["--src-lang", "--tgt-lang"])
    def test_pairdirs_with_one_language_exits_two(self, tmp_path, capsys, flag):
        # Filled in from the sorted subdirectories, the missing language
        # used to put the Arabic pages on the source side.
        inputs = _ingest_inputs(tmp_path)
        rc = main(["ingest", "--input", str(inputs["pairdirs"]), "--format", "pairdirs",
                   flag, "en", "--output", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError", "message": "give both src_lang and tgt_lang, or neither",
        }
        assert not list(tmp_path.glob("out.*"))

    def test_pairdirs_with_equal_languages_exits_two(self, tmp_path, capsys):
        # Both sides used to read en/, so each document was paired with itself.
        inputs = _ingest_inputs(tmp_path)
        rc = main(["ingest", "--input", str(inputs["pairdirs"]), "--format", "pairdirs",
                   "--src-lang", "en", "--tgt-lang", "en", "--output", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError", "message": "src_lang and tgt_lang must differ, both are 'en'",
        }
        assert not list(tmp_path.glob("out.*"))

    def test_undecodable_pairdirs_document_exits_two(self, tmp_path, capsys):
        # The message used to be the codec's alone, naming no file.
        inputs = _ingest_inputs(tmp_path)
        (inputs["pairdirs"] / "en" / "001.txt").write_bytes(b"\xffhello")
        rc = main(["ingest", "--input", str(inputs["pairdirs"]), "--format", "pairdirs",
                   "--src-lang", "en", "--tgt-lang", "ar", "--output", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "CorpusError",
            "message": "en/001.txt: not UTF-8 at byte 0 (invalid start byte)",
        }
        assert not list(tmp_path.glob("out.*"))

    def test_jsonl_with_a_byte_order_mark(self, tmp_path):
        # It used to exit 2 with "line 1: invalid JSON: Unexpected UTF-8 BOM".
        plain = _ingest_inputs(tmp_path)["jsonl"]
        marked = tmp_path / "marked.jsonl"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for name, path in (("plain", plain), ("marked", marked)):
            assert main(["ingest", "--input", str(path), "--format", "jsonl",
                         "--output", str(tmp_path / f"out-{name}.jsonl")]) == 0
        out = (tmp_path / "out-marked.jsonl").read_bytes()
        assert out == (tmp_path / "out-plain.jsonl").read_bytes()
        assert json.loads(out)["src_id"] == "e1"

    def test_bad_path_exits_two_with_stderr_message(self, tmp_path, capsys):
        rc = main(
            [
                "ingest", "--input", str(tmp_path / "missing"), "--format", "jsonl",
                "--output", str(tmp_path / "o.jsonl"),
            ]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"


class TestPaths:
    """An OS error on any path, here a directory where a file belongs, exits
    2 with one JSON line. Directories, not permissions: root reads anything."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--corpus", "{dir}", "--output", "{tmp}/m.xlsm"],
            ["train", "--corpus", "{corpus}", "--stopwords", "{dir}", "--output", "{tmp}/m.xlsm"],
            ["score", "--corpus", "{corpus}", "--dictionary", "{dir}", "--measure", "bin",
             "--output", "{tmp}/s.tsv"],
            ["retrieve", "--model", "{dir}", "--corpus", "{corpus}", "--output", "{tmp}/r.json"],
            ["align", "--model", "{model}", "--source-docs", "{dir}", "--target-docs", "{dir}",
             "--output", "{tmp}/a.tsv"],
            ["ingest", "--input", "{dir}", "--format", "jsonl", "--output", "{tmp}/i.jsonl"],
            ["retrieve", "--model", "{model}", "--corpus", "{corpus}", "--output", "{dir}"],
        ],
        ids=["train-corpus", "train-stopwords", "score-dictionary", "retrieve-model",
             "align-source-docs", "ingest-input", "retrieve-output"],
    )
    def test_directory_as_file_exits_two(self, tmp_path, corpus_file, capsys, argv):
        model = _train(tmp_path, corpus_file)
        (tmp_path / "adir").mkdir()
        capsys.readouterr()
        fill = {"dir": tmp_path / "adir", "tmp": tmp_path, "corpus": corpus_file, "model": model}
        assert main([a.format(**fill) for a in argv]) == 2
        assert _one_json_error(capsys)["error"] == "IsADirectoryError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--input", "{corpus}", "--format", "jsonl", "--output", "{tmp}/c.jsonl",
             "--stats", "{missing}/s.json"],
            ["retrieve", "--model", "{model}", "--corpus", "{corpus}", "--output", "{tmp}/r.json",
             "--tsv", "{missing}/r.tsv"],
            ["align", "--model", "{model}", "--corpus", "{corpus}", "--output", "{tmp}/a.tsv",
             "--report", "{missing}/r.json"],
            ["eval", "--model", "{model}", "--corpus", "{corpus}", "--output", "{missing}/e.json"],
            ["score", "--corpus", "{corpus}", "--dictionary", "{dictionary}", "--measure", "match",
             "--output", "{missing}/s.tsv"],
        ],
        ids=["ingest-stats", "retrieve-tsv", "align-report", "eval-output", "score-output"],
    )
    def test_missing_output_directory_exits_two_and_writes_nothing(
        self, tmp_path, corpus_file, dictionary_file, capsys, argv
    ):
        model = _train(tmp_path, corpus_file)
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        missing = tmp_path / "no" / "such"
        fill = {"missing": missing, "tmp": tmp_path, "corpus": corpus_file, "model": model,
                "dictionary": dictionary_file}
        assert main([a.format(**fill) for a in argv]) == 2
        assert _one_json_error(capsys) == {
            "error": "FileNotFoundError",
            "message": f"output directory does not exist: {missing}",
        }
        assert sorted(tmp_path.rglob("*")) == before


class TestTrain:
    def test_no_split_without_couples_exits_two(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("", encoding="utf-8")
        rc = main(["train", "--corpus", str(corpus), "--no-split",
                   "--output", str(tmp_path / "m.xlsm")])
        assert rc == 2
        assert _one_json_error(capsys) == {"error": "EmptyCorpusError",
                                           "message": "no couples to train on"}

    @pytest.mark.parametrize(
        "flags",
        [["--train-fraction", "5"], ["--train-fraction", "0.9"], ["--test-output", "t.jsonl"]],
        ids=["bad_fraction", "default_fraction", "test_output"],
    )
    def test_no_split_with_a_split_flag_exits_two(self, tmp_path, corpus_file, capsys, flags):
        model_path = tmp_path / "m.xlsm"
        rc = main(["--data-dir", str(tmp_path), "train", "--corpus", str(corpus_file),
                   "--no-split", *flags, "--output", str(model_path)])
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError",
            "message": "--no-split trains on every couple: drop --train-fraction/--test-output",
        }
        assert not model_path.exists() and not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dictionary", "{dictionary}"],
             "train reads --dictionary only for a morphar reducer: drop --dictionary"),
            (["--dictionary", "{dictionary}", "--reducer-source", "suffix_stemmer",
              "--reducer-target", "light_stemmer"],
             "train reads --dictionary only for a morphar reducer: drop --dictionary"),
            (["--kind", "mono", "--reducer-source", "suffix_stemmer"],
             "a mono model is built from the target side alone: drop --reducer-source"),
            (["--kind", "mono", "--reducer-source", "morphar", "--dictionary", "{dictionary}"],
             "a mono model is built from the target side alone: drop --reducer-source"),
        ],
        ids=["dictionary_identity", "dictionary_stemmers", "mono_stemmer", "mono_morphar"],
    )
    def test_flag_the_model_does_not_read_exits_two(
        self, tmp_path, corpus_file, dictionary_file, capsys, monkeypatch, flags, message
    ):
        monkeypatch.setattr(cli.corpus_io, "load_aligned_corpus", _unexpected_read)
        model_path = tmp_path / "m.xlsm"
        rc = main(["train", "--corpus", str(corpus_file), "--output", str(model_path),
                   *(f.format(dictionary=dictionary_file) for f in flags)])
        assert rc == 2
        assert _one_json_error(capsys) == {"error": "ValueError", "message": message}
        assert not list(tmp_path.glob("m.xlsm*"))

    def test_mono_model_with_an_identity_source_reducer(self, tmp_path, corpus_file):
        model_path = tmp_path / "mono.xlsm"
        rc = main(["train", "--corpus", str(corpus_file), "--kind", "mono", "--k", "6",
                   "--reducer-source", "identity", "--reducer-target", "light_stemmer",
                   "--output", str(model_path)])
        assert rc == 0
        assert load_model(model_path).kind == "monolingual"

    @pytest.mark.parametrize(
        "flags",
        [["--output", "{missing}/m.xlsm"],
         ["--output", "{tmp}/m.xlsm", "--test-output", "{missing}/t.jsonl"]],
        ids=["output", "test_output"],
    )
    def test_missing_output_directory_exits_two_before_reading(
        self, tmp_path, corpus_file, capsys, monkeypatch, flags
    ):
        def unexpected(*_args, **_kwargs):
            raise AssertionError("train read its corpus before checking its outputs")

        monkeypatch.setattr(cli.corpus_io, "load_aligned_corpus", unexpected)
        missing = tmp_path / "no" / "such"
        fill = {"missing": missing, "tmp": tmp_path}
        rc = main(["train", "--corpus", str(corpus_file), *(f.format(**fill) for f in flags)])
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "FileNotFoundError",
            "message": f"output directory does not exist: {missing}",
        }
        assert not (tmp_path / "m.xlsm").exists()

    def test_non_string_pair_text_exits_two(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            json.dumps({"src_id": "e1", "tgt_id": "a1", "src_text": "a b", "tgt_text": "x y"})
            + "\n"
            + json.dumps({"src_id": "e2", "tgt_id": "a2", "src_text": 5, "tgt_text": "x"})
            + "\n",
            encoding="utf-8",
        )
        rc = main(["train", "--corpus", str(corpus), "--output", str(tmp_path / "m.xlsm")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "MalformedRecordError"
        assert payload["message"].startswith("line 2:")

    def test_cross_model_and_test_split_written(self, tmp_path, corpus_file):
        model_path = _train(tmp_path, corpus_file)
        model = load_model(model_path)
        assert model.kind == "crosslingual"
        assert model.k == 8
        test_corpus = load_aligned_corpus(Path(str(model_path) + ".test.jsonl"))
        assert len(test_corpus) == 3  # 10% of 30
        manifest = json.loads(
            model_path.with_suffix(".xlsm.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["command"] == "train"
        assert manifest["inputs"]
        assert len(manifest["config_hash"]) == 64

    def test_k_fifty_on_hundred_couples(self, tmp_path):
        corpus = make_parallel_corpus(100, SPEC, seed=8)
        corpus_path = tmp_path / "hundred.jsonl"
        save_aligned_corpus(corpus, corpus_path)
        model_path = tmp_path / "m50.xlsm"
        rc = main(
            [
                "train", "--corpus", str(corpus_path), "--kind", "cross",
                "--k", "50", "--output", str(model_path),
            ]
        )
        assert rc == 0
        assert load_model(model_path).k == 50

    def test_mono_model(self, tmp_path, corpus_file):
        model_path = tmp_path / "mono.xlsm"
        rc = main(
            [
                "train", "--corpus", str(corpus_file), "--kind", "mono",
                "--k", "6", "--output", str(model_path),
            ]
        )
        assert rc == 0
        assert load_model(model_path).kind == "monolingual"

    @pytest.mark.parametrize("kind", ["mono", "cross"])
    def test_pipeline_runs_once_per_side_the_model_reads(
        self, tmp_path, corpus_file, monkeypatch, kind
    ):
        texts_seen = []

        def pipeline(texts, *args):
            texts_seen.append(list(texts))
            return pipeline_ids(texts, *args)

        monkeypatch.setattr(cli, "pipeline_ids", pipeline)
        model_path = tmp_path / "m.xlsm"
        assert main(["train", "--corpus", str(corpus_file), "--kind", kind, "--k", "6",
                     "--output", str(model_path)]) == 0

        train_part, _ = split_corpus(load_aligned_corpus(corpus_file), 0.9, 42)
        src = [d.text for d in train_part.source_docs]
        tgt = [d.text for d in train_part.target_docs]
        assert texts_seen == ([tgt] if kind == "mono" else [src, tgt])
        # The model is the one the library builds from the sides it reads.
        config = PipelineConfig()
        tgt_tokens = run_pipeline(tgt, config, "target")
        if kind == "mono":
            matrix = lsi.build_mono_matrix(tgt_tokens)
        else:
            src_tokens = run_pipeline(src, config, "source")
            matrix = lsi.build_cross_matrix(src_tokens, tgt_tokens)
        expected = tmp_path / "library.xlsm"
        lsi.save_model(lsi.train(matrix, 6, seed=42), expected)
        assert model_path.read_bytes() == expected.read_bytes()

    def test_min_count_flag_equals_library_model(self, tmp_path, corpus_file):
        model_path = _train(tmp_path, corpus_file, "--no-split", "--min-count", "2")
        config = PipelineConfig(min_corpus_frequency=2)
        pairs = load_aligned_corpus(corpus_file)
        src, tgt = ([d.text for d in docs] for docs in (pairs.source_docs, pairs.target_docs))
        src_tokens = run_pipeline(src, config, "source")
        tgt_tokens = run_pipeline(tgt, config, "target")
        # Words seen once on a side are dropped, so the flag changes the model.
        assert src_tokens != run_pipeline(src) and tgt_tokens != run_pipeline(tgt)
        matrix = lsi.build_cross_matrix(src_tokens, tgt_tokens)
        expected = tmp_path / "library.xlsm"
        lsi.save_model(lsi.train(matrix, 8, seed=42), expected)
        assert model_path.read_bytes() == expected.read_bytes()

    def test_oversized_k_clamped_with_warning(self, tmp_path, corpus_file):
        model_path = tmp_path / "model.xlsm"
        with pytest.warns(UserWarning, match="clamped"):
            rc = main(
                [
                    "train", "--corpus", str(corpus_file), "--kind", "cross",
                    "--k", "500", "--output", str(model_path),
                ]
            )
        assert rc == 0
        assert load_model(model_path).k <= 26  # d-1 after the 27-pair split

    def test_rerun_same_seed_byte_identical_model(self, tmp_path, corpus_file):
        a = _train(tmp_path / "a", corpus_file) if (tmp_path / "a").mkdir() is None else None
        b = _train(tmp_path / "b", corpus_file) if (tmp_path / "b").mkdir() is None else None
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("reducers", [("suffix_stemmer", "morphar"),
                                          ("morphar", "suffix_stemmer")])
    def test_morphar_model_equals_library_model(self, tmp_path, reducers):
        # The suffix stemmer reduces its side of the dictionary as it loads;
        # morphar reads only its own side's terms, as written, so the model
        # equals one built from the dictionary loaded as written.
        couples = [
            ("e1", "a1", "The offices and libraries", "المكتبة والمكاتب"),
            ("e2", "a2", "Travelers travel to the libraries", "المسافرون يسافرون الى المكتبات"),
            ("e3", "a3", "writers wrote books", "الكتاب كتبوا الكتب"),
            ("e4", "a4", "The writer travels with books", "الكاتب يسافر مع الكتب"),
            ("e5", "a5", "offices of writers", "مكاتب الكتاب"),
        ]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            "".join(
                json.dumps({"src_id": s, "tgt_id": t, "src_text": st, "tgt_text": tt}) + "\n"
                for s, t, st, tt in couples
            ),
            encoding="utf-8",
        )
        dictionary = tmp_path / "d.tsv"
        dictionary.write_text(
            "office|offices\tمكتب|مكاتب\nlibrary|libraries\tمكتبة\ntravel|travels\tسفر|مسافر\n"
            "book|books\tكتاب|كتب\nwriter|writers\tكاتب\n",
            encoding="utf-8",
        )
        reducer_source, reducer_target = reducers
        model_path = _train(
            tmp_path, corpus, "--k", "3", "--no-split", "--dictionary", str(dictionary),
            "--reducer-source", reducer_source, "--reducer-target", reducer_target,
        )

        config = PipelineConfig(reducer_source=ReducerKind(reducer_source),
                                reducer_target=ReducerKind(reducer_target))
        as_written = load_dictionary(dictionary)
        pairs = load_aligned_corpus(corpus)
        matrix = lsi.build_cross_matrix(
            run_pipeline([d.text for d in pairs.source_docs], config, "source", as_written),
            run_pipeline([d.text for d in pairs.target_docs], config, "target", as_written),
        )
        expected = tmp_path / "library.xlsm"
        lsi.save_model(lsi.train(matrix, 3, seed=42), expected)
        assert model_path.read_bytes() == expected.read_bytes()


# Inflected English and Arabic couples with degenerate documents: an empty
# text, a stopword-only one, and one whose every word is seen once a side.
_EDGE_COUPLES = [
    ("e1", "a1", "The offices and libraries", "المكتبة والمكاتب"),
    ("e2", "a2", "Travelers travel to the libraries", "المسافرون يسافرون الى المكتبات"),
    ("e3", "a3", "", "الكتاب كتبوا الكتب"),
    ("e4", "a4", "The writer travels with books books", "الكاتب يسافر مع الكتب"),
    ("e5", "a5", "the THE and", "في"),
    ("e6", "a6", "Zebras quietly yawned", "زرافة نامت"),
    ("e7", "a7", "offices of writers", "مكاتب الكتاب"),
]
_EDGE_DICTIONARY = (
    "office|offices\tمكتب|مكاتب\nlibrary|libraries\tمكتبة\ntravel|travels\tسفر|مسافر\n"
    "book|books\tكتاب|كتب\nwriter|writers\tكاتب\n"
)


def _couples_file(path: Path, couples) -> Path:
    path.write_text(
        "".join(json.dumps(dict(zip(("src_id", "tgt_id", "src_text", "tgt_text"), couple)))
                + "\n" for couple in couples),
        encoding="utf-8",
    )
    return path


class TestTrainEdges:
    """What train did when it built its matrix from token lists, pinned
    through the CLI: its refusals, and models with the bytes of the
    library's token-list path."""

    @pytest.mark.parametrize(
        "flags, message",
        [(["--seed", "-1"], "--seed must be >= 0, got -1"),
         (["--k", "0"], "--k must be >= 1, got 0"),
         (["--k", "-3", "--kind", "mono"], "--k must be >= 1, got -3")],
        ids=["seed", "k", "negative_k"],
    )
    def test_bad_seed_or_k_exits_two_before_reading(self, tmp_path, capsys, flags, message):
        rc = main(["train", "--corpus", str(tmp_path / "missing.jsonl"), *flags,
                   "--output", str(tmp_path / "m.xlsm")])
        assert rc == 2
        assert _one_json_error(capsys) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("kind, warning", [("cross", "single-couple corpus"),
                                               ("mono", "single-document corpus")])
    def test_single_couple_warns_and_exits_two(self, tmp_path, capsys, kind, warning):
        corpus = _couples_file(tmp_path / "c.jsonl", _EDGE_COUPLES[:1])
        with pytest.warns(UserWarning, match=warning):
            rc = main(["train", "--corpus", str(corpus), "--kind", kind, "--no-split",
                       "--output", str(tmp_path / "m.xlsm")])
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError", "message": "matrix has no nonzero entries (degenerate corpus?)"}
        assert not list(tmp_path.glob("m.xlsm*"))

    @pytest.mark.parametrize("kind", ["cross", "mono"])
    def test_all_zero_matrix_exits_two(self, tmp_path, capsys, kind):
        # Every term is in every document, so every idf is 0.
        couples = [(f"e{i}", f"a{i}", "olive oil Olive", "زيت زيتون") for i in range(4)]
        corpus = _couples_file(tmp_path / "c.jsonl", couples)
        rc = main(["train", "--corpus", str(corpus), "--kind", kind, "--no-split",
                   "--output", str(tmp_path / "m.xlsm")])
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError", "message": "matrix has no nonzero entries (degenerate corpus?)"}

    @pytest.mark.parametrize("kind, message", [("cross", "no couples to train on"),
                                               ("mono", "no documents")])
    def test_no_couples_exits_two(self, tmp_path, capsys, kind, message):
        corpus = _couples_file(tmp_path / "c.jsonl", [])
        rc = main(["train", "--corpus", str(corpus), "--kind", kind, "--no-split",
                   "--output", str(tmp_path / "m.xlsm")])
        assert rc == 2
        assert _one_json_error(capsys) == {"error": "EmptyCorpusError", "message": message}

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("cross", []),
            ("mono", []),
            ("cross", ["--reducer-source", "suffix_stemmer", "--reducer-target", "light_stemmer",
                       "--stopwords", "{stopwords}", "--min-count", "2"]),
            ("mono", ["--reducer-target", "rooter", "--stopwords", "{stopwords}"]),
            ("cross", ["--reducer-source", "lemma_table", "--reducer-target", "morphar",
                       "--dictionary", "{dictionary}", "--min-count", "2"]),
            ("mono", ["--reducer-target", "morphar", "--dictionary", "{dictionary}",
                      "--stopwords", "{stopwords}"]),
        ],
        ids=["cross", "mono", "cross_stemmers", "mono_rooter", "cross_morphar", "mono_morphar"],
    )
    def test_model_equals_library_token_list_model(self, tmp_path, kind, flags):
        corpus = _couples_file(tmp_path / "c.jsonl", _EDGE_COUPLES)
        dictionary = tmp_path / "d.tsv"
        dictionary.write_text(_EDGE_DICTIONARY, encoding="utf-8")
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("The\nand\nالى\nفي\n", encoding="utf-8")
        fill = {"dictionary": dictionary, "stopwords": stopwords}
        model_path = tmp_path / "m.xlsm"
        assert main(["train", "--corpus", str(corpus), "--kind", kind, "--k", "3", "--no-split",
                     "--output", str(model_path), *(f.format(**fill) for f in flags)]) == 0

        # The library's route: token lists from run_pipeline, the dictionary as written
        # (only a morphar side reads it, and reads its own terms as written).
        options = dict(zip(flags[::2], flags[1::2]))
        config = PipelineConfig(
            stopwords=load_stopwords(stopwords) if "--stopwords" in options else frozenset(),
            min_corpus_frequency=int(options.get("--min-count", 1)),
            reducer_source=ReducerKind(options.get("--reducer-source", "identity")),
            reducer_target=ReducerKind(options.get("--reducer-target", "identity")),
        )
        as_written = load_dictionary(dictionary) if "--dictionary" in options else None
        pairs = load_aligned_corpus(corpus)
        tokens = {side: run_pipeline([d.text for d in getattr(pairs, f"{side}_docs")], config,
                                     side, as_written) for side in ("source", "target")}
        matrix = (lsi.build_cross_matrix(tokens["source"], tokens["target"]) if kind == "cross"
                  else lsi.build_mono_matrix(tokens["target"]))
        expected = tmp_path / "library.xlsm"
        lsi.save_model(lsi.train(matrix, 3, seed=42), expected)
        assert model_path.read_bytes() == expected.read_bytes()


class TestModelFormatV1:
    """A cross model's vocabulary block keeps format v1's two language keys,
    and their values change nothing that is loaded."""

    def test_trained_model_block_carries_the_v1_language_keys(self, tmp_path, corpus_file):
        blob = _train(tmp_path, corpus_file).read_bytes()
        *_, size = lsi._MODEL_HEADER.unpack_from(blob)
        block = json.loads(blob[lsi._MODEL_HEADER.size:lsi._MODEL_HEADER.size + size])
        assert block["cross"]["source_language"] == "src"
        assert block["cross"]["target_language"] == "tgt"

    def test_other_language_values_load_the_same_model(self, tmp_path, corpus_file):
        path = _train(tmp_path, corpus_file)
        blob = path.read_bytes()
        *fields, size = lsi._MODEL_HEADER.unpack_from(blob)
        start = lsi._MODEL_HEADER.size
        block = json.loads(blob[start:start + size])
        block["cross"].update(source_language="en", target_language="ar")
        edited = json.dumps(block, sort_keys=True, ensure_ascii=False).encode("utf-8")
        other = tmp_path / "en-ar.xlsm"
        other.write_bytes(
            lsi._MODEL_HEADER.pack(*fields, len(edited)) + edited + blob[start + size:]
        )
        a, b = load_model(path), load_model(other)
        for name in ("u", "s", "v"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for side in ("source", "target"):
            assert a.vocabulary.vocab_for(side).to_dict() == b.vocabulary.vocab_for(side).to_dict()


class TestRetrieveEvalAlign:
    def test_retrieve_writes_ranked_lists(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        out = tmp_path / "ranked.json"
        tsv = tmp_path / "ranked.tsv"
        rc = main(
            [
                "retrieve", "--model", str(model_path),
                "--corpus", str(model_path) + ".test.jsonl",
                "--n", "3", "--output", str(out), "--tsv", str(tsv),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["queries"]) == 3
        assert all(len(q["entries"]) == 3 for q in payload["queries"])
        assert len(tsv.read_text(encoding="utf-8").splitlines()) == 9

    def test_eval_oracle_prints_one(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        rc = main(
            ["eval", "--model", str(model_path), "--corpus", str(corpus_file), "--oracle"]
        )
        assert rc == 0
        assert "R@1 1.0" in capsys.readouterr().out

    def test_eval_oracle_output_file(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        capsys.readouterr()
        out = tmp_path / "oracle.json"
        assert main(["eval", "--model", str(model_path), "--corpus", str(corpus_file),
                     "--oracle", "--output", str(out)]) == 0
        assert capsys.readouterr().out == "R@1 1.0\n"
        assert out.read_bytes() == b'{"oracle_r_at_1": 1.0}\n'

    def test_eval_recall_lines(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        report = tmp_path / "report.json"
        rc = main(
            [
                "eval", "--model", str(model_path),
                "--corpus", str(model_path) + ".test.jsonl",
                "--ks", "1,5", "--output", str(report),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "R@1" in out and "R@5" in out
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert set(payload["recall"]) == {"1", "5"}

    @pytest.mark.parametrize("ks", ["-1", "0", "1,0"])
    def test_eval_depth_below_one_exits_two(self, tmp_path, corpus_file, capsys, ks):
        model_path = _train(tmp_path, corpus_file)
        rc = main(
            [
                "eval", "--model", str(model_path),
                "--corpus", str(model_path) + ".test.jsonl", f"--ks={ks}",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "R@" not in captured.out
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "k must be >= 1" in err["message"]

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_retrieve_depth_below_one_exits_two_before_reading(self, tmp_path, capsys, n):
        # An empty corpus has no query to rank, and the model is not there.
        corpus = _couples_file(tmp_path / "c.jsonl", [])
        out = tmp_path / "ranked.json"
        rc = main(["retrieve", "--model", str(tmp_path / "missing.xlsm"), "--corpus", str(corpus),
                   "--n", n, "--output", str(out)])
        assert rc == 2
        assert _one_json_error(capsys) == {"error": "ValueError",
                                           "message": f"--n must be >= 1, got {n}"}
        assert not out.exists()

    @pytest.mark.parametrize("top_n", ["0", "-3"])
    def test_align_top_n_below_one_exits_two_before_reading(
        self, tmp_path, corpus_file, capsys, top_n
    ):
        out = tmp_path / "pairs.tsv"
        rc = main(["align", "--model", str(tmp_path / "missing.xlsm"), "--corpus",
                   str(corpus_file), "--top-n", top_n, "--output", str(out)])
        assert rc == 2
        assert _one_json_error(capsys) == {"error": "ValueError",
                                           "message": f"--top-n must be >= 1, got {top_n}"}
        assert not out.exists()

    def test_eval_empty_query_set_exits_two(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        rc = main(["eval", "--model", str(model_path), "--corpus", str(empty)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "R@" not in captured.out
        assert "no ranked lists" in json.loads(captured.err)["message"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--corpus", "{corpus}", "--source-docs", "missing.jsonl"],
            ["--corpus", "{corpus}", "--target-docs", "missing.jsonl"],
            ["--source-docs", "{corpus}"],
            [],
        ],
        ids=["corpus_and_source_docs", "corpus_and_target_docs", "one_docs_file", "no_input"],
    )
    def test_align_inputs_one_way_or_exit_two(self, tmp_path, corpus_file, capsys, flags):
        model_path = _train(tmp_path, corpus_file)
        out = tmp_path / "pairs.tsv"
        capsys.readouterr()
        rc = main(
            ["--data-dir", str(tmp_path), "align", "--model", str(model_path),
             *(f.format(corpus=corpus_file) for f in flags), "--output", str(out)]
        )
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError",
            "message": "align takes either --corpus or both --source-docs and --target-docs",
        }
        assert not out.exists()

    def test_align_duplicate_document_id_exits_two(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        corpus = load_aligned_corpus(corpus_file)
        sources = tmp_path / "src.jsonl"
        targets = tmp_path / "tgt.jsonl"
        save_documents(corpus.source_docs[:3], sources)
        save_documents([corpus.target_docs[0], corpus.target_docs[1], corpus.target_docs[0]],
                       targets)
        rc = main(
            [
                "align", "--model", str(model_path), "--source-docs", str(sources),
                "--target-docs", str(targets), "--output", str(tmp_path / "pairs.tsv"),
            ]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MalformedRecordError"
        assert err["message"].startswith("line 3:")

    def test_align_non_string_text_exits_two(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        corpus = load_aligned_corpus(corpus_file)
        sources = tmp_path / "src.jsonl"
        targets = tmp_path / "tgt.jsonl"
        save_documents(corpus.target_docs[:2], targets)
        sources.write_text(
            json.dumps({"id": "s1", "text": "one two"}) + "\n"
            + json.dumps({"id": "x", "text": 5}) + "\n",
            encoding="utf-8",
        )
        rc = main(
            [
                "align", "--model", str(model_path), "--source-docs", str(sources),
                "--target-docs", str(targets), "--output", str(tmp_path / "pairs.tsv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "MalformedRecordError"
        assert payload["message"].startswith("line 2:") and "string" in payload["message"]

    def test_align_non_string_group_key_exits_two(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        corpus = load_aligned_corpus(corpus_file)
        sources = tmp_path / "src.jsonl"
        targets = tmp_path / "tgt.jsonl"
        save_documents(corpus.target_docs[:2], targets)
        sources.write_text(
            json.dumps({"id": "s0", "text": "one two", "group_key": "2012-01"}) + "\n"
            + json.dumps({"id": "s1", "text": "one two", "group_key": 3}) + "\n",
            encoding="utf-8",
        )
        rc = main(
            [
                "align", "--model", str(model_path), "--source-docs", str(sources),
                "--target-docs", str(targets), "--group-by", "month",
                "--output", str(tmp_path / "pairs.tsv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "MalformedRecordError"
        assert payload["message"].startswith("line 2:") and "group_key" in payload["message"]

    def test_align_non_string_language_exits_two(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        corpus = load_aligned_corpus(corpus_file)
        sources = tmp_path / "src.jsonl"
        targets = tmp_path / "tgt.jsonl"
        save_documents(corpus.target_docs[:2], targets)
        sources.write_text(
            json.dumps({"id": "s0", "text": "one two"}) + "\n"
            + json.dumps({"id": "s1", "text": "one two", "language": [1]}) + "\n",
            encoding="utf-8",
        )
        rc = main(
            [
                "align", "--model", str(model_path), "--source-docs", str(sources),
                "--target-docs", str(targets), "--output", str(tmp_path / "pairs.tsv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "MalformedRecordError"
        assert payload["message"].startswith("line 2:") and "language" in payload["message"]

    def test_align_with_no_pairs_to_report_writes_no_file(self, tmp_path, corpus_file, capsys):
        # The one document has no term the model knows, so no pair is left
        # for the report; the aligned TSV used to be written (empty) first.
        model_path = _train(tmp_path, corpus_file)
        docs = tmp_path / "docs.jsonl"
        docs.write_text(json.dumps({"id": "a", "text": "zzzz"}) + "\n", encoding="utf-8")
        out, report = tmp_path / "pairs.tsv", tmp_path / "report.json"
        capsys.readouterr()
        with pytest.warns(UserWarning, match="no in-vocabulary term"):
            rc = main(["align", "--model", str(model_path), "--source-docs", str(docs),
                       "--target-docs", str(docs), "--output", str(out), "--report", str(report)])
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError", "message": "no alignment pairs to report on",
        }
        assert not out.exists() and not report.exists()
        assert not out.with_suffix(".manifest.json").exists()

    @pytest.mark.parametrize(
        "line, reason",
        [('{"id": "x"}', "needs 'id' and 'text'"), ("[1, 2]", "needs 'id' and 'text'"),
         ('{"id": "x", "text": 5}', "must be a string"), ("{oops", "invalid JSON"),
         ('{"id": "e0000", "text": "again"}', "duplicate id 'e0000' (first on line 1)")],
    )
    def test_retrieve_malformed_cache_line_exits_two(
        self, tmp_path, corpus_file, capsys, line, reason
    ):
        model_path = tmp_path / "mono.xlsm"
        assert main(
            ["train", "--corpus", str(corpus_file), "--kind", "mono", "--k", "6",
             "--output", str(model_path)]
        ) == 0
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps({"id": "e0000", "text": "ok"}) + "\n" + line + "\n",
                         encoding="utf-8")
        capsys.readouterr()
        rc = main(
            [
                "retrieve", "--model", str(model_path), "--corpus", str(corpus_file),
                "--cache", str(cache),
                "--output", str(tmp_path / "ranked.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "MalformedRecordError"
        assert payload["message"].startswith("line 2:") and reason in payload["message"]

    def test_eval_oracle_self_test_failure_exits_three(self, tmp_path, capsys):
        corpus = make_parallel_corpus(12, SPEC, seed=12)
        dup = corpus.target_docs[0]
        records = []
        for i, (s, t) in enumerate(corpus.pairs()):
            text = dup.text if i < 2 else t.text  # two identical targets
            records.append(
                {"src_id": s.id, "tgt_id": t.id, "src_text": s.text, "tgt_text": text}
            )
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
        model_path = _train(tmp_path, path)
        rc = main(["eval", "--model", str(model_path), "--corpus", str(path), "--oracle"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SelfTestError"

    def test_corrupt_model_exits_three(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        blob = model_path.read_bytes()
        model_path.write_bytes(blob[: len(blob) // 2])
        rc = main(
            [
                "retrieve", "--model", str(model_path), "--corpus", str(corpus_file),
                "--output", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "CorruptModelError"

    def test_corpus_integer_past_the_digit_limit_exits_two(self, tmp_path, corpus_file, capsys):
        # json raises a plain ValueError for it, which used to escape the
        # reader without the line number.
        model_path = _train(tmp_path, corpus_file)
        lines = corpus_file.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace('"src_id": ', '"src_id": 1%s, "was": ' % ("0" * 5000), 1)
        corpus_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["retrieve", "--model", str(model_path), "--corpus", str(corpus_file),
                   "--output", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "MalformedRecordError"
        assert payload["message"].startswith("line 3: invalid JSON: ")

    @pytest.mark.parametrize(
        "damage", ["kind byte 0", "kind byte 7", "empty cross", "df > n", "negative sigma",
                   "df float", "df string", "n_docs float", "terms string", "terms object",
                   "n_docs 5001 digits"]
    )
    def test_damaged_model_exits_three(self, tmp_path, corpus_file, capsys, damage):
        model_path = _train(tmp_path, corpus_file)
        blob = bytearray(model_path.read_bytes())
        header = 29  # magic, version, kind byte (offset 8), k, |V|, d
        (size,) = struct.unpack_from("<Q", blob, header)
        if damage.startswith("kind byte"):
            blob[8] = int(damage.split()[-1])
        elif damage == "negative sigma":
            _, _, _, k, n_terms, _ = struct.unpack_from("<4sIBIQQ", blob)
            at = header + 8 + size + 8 * n_terms * k  # first singular value
            blob[at : at + 8] = struct.pack("<d", -1.0)
        else:
            vocab = json.loads(blob[header + 8 : header + 8 + size])
            side = vocab["cross"]["source"]
            # Until the block's JSON types were checked, each of the last five
            # loaded, converted, as a model of the same size.
            if damage == "empty cross":
                vocab = {"cross": {}}
            elif damage == "df > n":
                side["df"][0] = side["n_docs"] + 1
            elif damage == "df float":
                side["df"][0] += 0.9
            elif damage == "df string":
                side["df"][0] = str(side["df"][0])
            elif damage == "n_docs float":
                side["n_docs"] += 0.5
            elif damage == "terms string":
                side["terms"] = "".join(chr(0x4E00 + i) for i in range(len(side["terms"])))
            elif damage == "terms object":
                side["terms"] = dict.fromkeys(side["terms"], 0)
            else:  # past Python's 4,300-digit limit, which json.dumps also keeps
                side["n_docs"] = -123456789
            payload = json.dumps(vocab).replace("-123456789", "1" + "0" * 5000).encode("utf-8")
            blob[header : header + 8 + size] = struct.pack("<Q", len(payload)) + payload
        model_path.write_bytes(bytes(blob))
        rc = main(
            [
                "retrieve", "--model", str(model_path),
                "--corpus", str(model_path) + ".test.jsonl",
                "--output", str(tmp_path / "r.json"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "CorruptModelError"

    @staticmethod
    def _grouped_corpus(tmp_path) -> Path:
        """The fixture corpus with its couples spread over two months."""
        corpus = make_parallel_corpus(30, SPEC, seed=12)
        records = []
        for i, (s, t) in enumerate(corpus.pairs()):
            records.append(
                {
                    "src_id": s.id, "tgt_id": t.id,
                    "src_text": s.text, "tgt_text": t.text,
                    "group_key": f"2012-{(i % 2) + 1:02d}",
                }
            )
        grouped = tmp_path / "grouped.jsonl"
        grouped.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
        return grouped

    def test_align_grouped_top_n(self, tmp_path):
        grouped = self._grouped_corpus(tmp_path)
        model_path = _train(tmp_path, grouped)
        out = tmp_path / "pairs.tsv"
        rc = main(
            [
                "align", "--model", str(model_path), "--corpus", str(grouped),
                "--top-n", "5", "--group-by", "month", "--output", str(out),
                "--report", str(tmp_path / "rep.json"),
                "--histogram-csv", str(tmp_path / "hist.csv"),
                "--ranges-csv", str(tmp_path / "ranges.csv"),
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10  # 2 months x top-5
        for line in lines:
            parts = line.split("\t")
            assert len(parts) == 4
            assert parts[3].startswith("2012-")
        report = json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))
        assert set(report["sim_ranges"]) == {"2012-01", "2012-02"}
        assert (tmp_path / "hist.csv").read_text(encoding="utf-8").startswith("bin,count")

    def test_align_group_by_empty_string_groups(self, tmp_path):
        # Grouping is switched on by giving --group-by at all, whatever its value.
        grouped = self._grouped_corpus(tmp_path)
        model_path = _train(tmp_path, grouped)
        outputs = {}
        for group_by in ("month", ""):
            out = tmp_path / f"pairs-{group_by}.tsv"
            rc = main(["align", "--model", str(model_path), "--corpus", str(grouped),
                       "--top-n", "5", "--group-by", group_by, "--output", str(out)])
            assert rc == 0
            outputs[group_by] = out.read_bytes()
        assert outputs[""] == outputs["month"]
        assert {line.split(b"\t")[3] for line in outputs[""].splitlines()} == {
            b"2012-01", b"2012-02",
        }


def _train_mono(tmp_path, corpus_file) -> Path:
    model_path = tmp_path / "mono.xlsm"
    assert main(
        ["train", "--corpus", str(corpus_file), "--kind", "mono", "--k", "6",
         "--no-split", "--output", str(model_path)]
    ) == 0
    return model_path


def _same_language_copy(tmp_path) -> Path:
    """The fixture corpus with each source text replaced by its target text."""
    corpus = make_parallel_corpus(30, SPEC, seed=12)
    path = tmp_path / "same.jsonl"
    path.write_text(
        "".join(
            json.dumps({"src_id": s.id, "tgt_id": t.id, "src_text": t.text, "tgt_text": t.text})
            + "\n"
            for s, t in corpus.pairs()
        ),
        encoding="utf-8",
    )
    return path


class TestMonolingualRoute:
    """``--kind mono`` models queried through each translator: none,
    ``--dictionary`` or ``--cache``."""

    def test_retrieve_identity_provider(self, tmp_path, corpus_file):
        model_path = _train_mono(tmp_path, corpus_file)
        same = _same_language_copy(tmp_path)
        out, tsv = tmp_path / "ranked.json", tmp_path / "ranked.tsv"
        rc = main(
            ["retrieve", "--model", str(model_path), "--corpus", str(same), "--n", "3",
             "--output", str(out), "--tsv", str(tsv)]
        )
        assert rc == 0

        # The same ranking composed from the library, one query at a time.
        model, corpus = load_model(model_path), load_aligned_corpus(same)
        candidates = Embeddings(
            [d.id for d in corpus.target_docs],
            fold_in_many([tokenize(d.text) for d in corpus.target_docs], model, "target"),
        )
        ranked = []
        for s in corpus.source_docs:
            query = fold_in_many([tokenize(s.text)], model, "target")
            ranked += retrieve_many(query, candidates, 3, [s.id])
        expected = tmp_path / "expected.json"
        write_ranked_lists_json(ranked, expected)
        assert out.read_bytes() == expected.read_bytes()
        assert all(rl.entries[0][0] == t.id for rl, t in zip(ranked, corpus.target_docs))
        lines = tsv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 90 and lines[0].startswith("e0000\t1\ta0000\t")

    def test_retrieve_dictionary_provider(self, tmp_path, corpus_file, dictionary_file):
        # The fixture dictionary translates each source word into its cipher,
        # so every query becomes its target text word for word.
        model_path = _train_mono(tmp_path, corpus_file)
        translated, identity = tmp_path / "dictionary.json", tmp_path / "identity.json"
        assert main(
            ["retrieve", "--model", str(model_path), "--corpus", str(corpus_file), "--n", "3",
             "--dictionary", str(dictionary_file),
             "--output", str(translated)]
        ) == 0
        assert main(
            ["retrieve", "--model", str(model_path), "--corpus",
             str(_same_language_copy(tmp_path)), "--n", "3", "--output", str(identity)]
        ) == 0
        assert translated.read_bytes() == identity.read_bytes()

    def test_eval_cache_provider(self, tmp_path, corpus_file, capsys):
        model_path = _train_mono(tmp_path, corpus_file)
        corpus = load_aligned_corpus(corpus_file)
        cache = tmp_path / "cache.jsonl"
        save_documents(
            [Document(s.id, "ar", t.text) for s, t in list(corpus.pairs())[1:]], cache
        )
        report = tmp_path / "report.json"
        capsys.readouterr()
        with pytest.warns(UserWarning, match="query e0000 skipped"):
            rc = main(
                ["eval", "--model", str(model_path), "--corpus", str(corpus_file),
                 "--ks", "1,3", "--cache", str(cache),
                 "--output", str(report)]
            )
        assert rc == 0
        assert capsys.readouterr().out == f"R@1 {29 / 30}\nR@3 {29 / 30}\n"
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["hits"]["1"] == [False] + [True] * 29

    @pytest.mark.parametrize(
        "flags",
        [
            ["--dictionary", "nonexistent.tsv"],
            ["--cache", "nope.jsonl"],
            ["--ks", "0"],
            ["--ks", "1,5"],
            ["--dictionary", "nonexistent.tsv", "--cache", "nope.jsonl", "--ks", "0"],
        ],
        ids=["dictionary", "cache", "ks", "ks_default_value", "all_three"],
    )
    def test_oracle_with_a_query_flag_exits_two(self, tmp_path, corpus_file, capsys, flags):
        model_path = _train_mono(tmp_path, corpus_file)
        capsys.readouterr()
        rc = main(
            ["--data-dir", str(tmp_path), "eval", "--model", str(model_path),
             "--corpus", str(corpus_file), "--oracle", *flags]
        )
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError",
            "message": "--oracle queries documents as written: drop --dictionary/--cache/--ks",
        }

    @pytest.mark.parametrize("command", ["retrieve", "eval"])
    def test_both_translation_files_exit_two(
        self, tmp_path, corpus_file, dictionary_file, capsys, command
    ):
        model_path = _train_mono(tmp_path, corpus_file)
        cache = tmp_path / "cache.jsonl"
        save_documents([Document("e0000", "ar", "x")], cache)
        capsys.readouterr()
        rc = main(
            [command, "--model", str(model_path), "--corpus", str(corpus_file),
             "--dictionary", str(dictionary_file), "--cache", str(cache),
             "--output", str(tmp_path / "out.json")]
        )
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError",
            "message": "--dictionary and --cache each translate queries: give one",
        }

    @pytest.mark.parametrize("command", ["retrieve", "eval"])
    @pytest.mark.parametrize("flag", ["--dictionary", "--cache"])
    def test_translation_file_with_crosslingual_model_exits_two(
        self, tmp_path, corpus_file, dictionary_file, capsys, command, flag
    ):
        model_path = _train(tmp_path, corpus_file)
        capsys.readouterr()
        rc = main(
            [command, "--model", str(model_path), "--corpus", str(corpus_file),
             flag, str(dictionary_file), "--output", str(tmp_path / "out.json")]
        )
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError",
            "message": "a crosslingual model translates no queries: drop --dictionary/--cache",
        }
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["retrieve", "eval"])
    def test_provider_flag_rejected(self, tmp_path, corpus_file, capsys, command):
        model_path = _train_mono(tmp_path, corpus_file)
        capsys.readouterr()
        rc = main(
            [command, "--model", str(model_path), "--corpus", str(corpus_file),
             "--provider", "identity", "--output", str(tmp_path / "out.json")]
        )
        assert rc == 2
        assert "--provider" in _one_json_error(capsys)["message"]


class TestScore:
    @pytest.mark.parametrize("measure", ["bin", "bincos", "oov", "match"])
    def test_measures_produce_scores(self, tmp_path, corpus_file, dictionary_file, measure):
        out = tmp_path / f"{measure}.tsv"
        rc = main(
            [
                "score", "--corpus", str(corpus_file), "--dictionary", str(dictionary_file),
                "--measure", measure, "--output", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 30
        values = [float(line.split("\t")[2]) for line in lines]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_full_coverage_dictionary_bin_is_one(self, tmp_path, corpus_file, dictionary_file):
        out = tmp_path / "bin.tsv"
        main(
            [
                "score", "--corpus", str(corpus_file), "--dictionary", str(dictionary_file),
                "--measure", "bin", "--output", str(out),
            ]
        )
        values = [float(l.split("\t")[2]) for l in out.read_text().splitlines()]
        assert all(v == 1.0 for v in values)

    def test_pooled_variant(self, tmp_path, corpus_file, dictionary_file):
        out = tmp_path / "pooled.tsv"
        rc = main(
            [
                "score", "--corpus", str(corpus_file), "--dictionary", str(dictionary_file),
                "--measure", "bin", "--bin-variant", "pooled", "--output", str(out),
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("variant", ["symmetric", "pooled"])
    @pytest.mark.parametrize("measure", ["bincos", "oov", "match"])
    def test_bin_variant_with_another_measure_exits_two(
        self, tmp_path, corpus_file, dictionary_file, capsys, monkeypatch, measure, variant
    ):
        monkeypatch.setattr(cli.corpus_io, "load_aligned_corpus", _unexpected_read)
        out = tmp_path / "s.tsv"
        rc = main(["score", "--corpus", str(corpus_file), "--dictionary", str(dictionary_file),
                   "--measure", measure, "--bin-variant", variant, "--output", str(out)])
        assert rc == 2
        assert _one_json_error(capsys) == {
            "error": "ValueError",
            "message": f"--measure {measure} has no variants: drop --bin-variant",
        }
        assert not out.exists()

    def test_bin_variant_defaults_to_symmetric(self, tmp_path, corpus_file):
        # Half the source words have an entry, so the two variants differ.
        dictionary = tmp_path / "half.tsv"
        dictionary.write_text(
            "".join(f"{w}\t{cipher_word(w)}\n" for w in source_vocabulary(SPEC)[::2]),
            encoding="utf-8",
        )
        outputs = {}
        for name, flags in (("default", []), ("symmetric", ["--bin-variant", "symmetric"]),
                            ("pooled", ["--bin-variant", "pooled"])):
            out = tmp_path / f"{name}.tsv"
            assert main(["score", "--corpus", str(corpus_file), "--dictionary", str(dictionary),
                         "--measure", "bin", *flags, "--output", str(out)]) == 0
            outputs[name] = out.read_bytes()
        assert outputs["default"] == outputs["symmetric"] != outputs["pooled"]

    def test_morphar_reducer_through_cli(self, tmp_path, corpus_file, dictionary_file):
        out = tmp_path / "morphar.tsv"
        rc = main(
            [
                "score", "--corpus", str(corpus_file), "--dictionary", str(dictionary_file),
                "--measure", "match", "--reducer-source", "morphar", "--output", str(out),
            ]
        )
        assert rc == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 30

    @pytest.mark.parametrize("reducer", ["identity", "suffix_stemmer"])
    def test_dictionary_reduced_like_the_documents(self, tmp_path, reducer):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            json.dumps({"src_id": "e1", "tgt_id": "a1", "src_text": "houses cats",
                        "tgt_text": "xhouses xcats"}) + "\n",
            encoding="utf-8",
        )
        dictionary = tmp_path / "d.tsv"
        dictionary.write_text("houses\txhouses\ncats\txcats\n", encoding="utf-8")
        out = tmp_path / "match.tsv"
        rc = main(
            [
                "score", "--corpus", str(corpus), "--dictionary", str(dictionary),
                "--measure", "match", "--reducer-source", reducer, "--output", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "e1\ta1\t0.500000\n"

    def test_morphar_looks_up_the_unreduced_side(self, tmp_path):
        # The suffix stemmer reduces the source terms as the dictionary loads;
        # morphar is built on the loaded dictionary and looks its light stems
        # up among the target terms as written. Had the target side been
        # light-stemmed too, "المكتبات" would find "مكتب" and e2 would
        # read 0.333333.
        corpus = tmp_path / "c.jsonl"
        couples = [
            ("e1", "a1", "The offices and libraries", "المكتبة والمكاتب"),
            ("e2", "a2", "Travelers travel to the libraries", "المسافرون يسافرون الى المكتبات"),
            ("e3", "a3", "writers wrote books", "الكتاب كتبوا الكتب"),
        ]
        corpus.write_text(
            "".join(
                json.dumps({"src_id": s, "tgt_id": t, "src_text": st, "tgt_text": tt}) + "\n"
                for s, t, st, tt in couples
            ),
            encoding="utf-8",
        )
        dictionary = tmp_path / "d.tsv"
        dictionary.write_text(
            "office|offices\tمكتب\nlibrary|libraries\tمكتبة\ntravel|traveler\tسفر|مسافر\n"
            "book|books\tكتاب|كتب\nwriter\tكاتب\n",
            encoding="utf-8",
        )
        out = tmp_path / "match.tsv"
        rc = main(
            [
                "score", "--corpus", str(corpus), "--dictionary", str(dictionary),
                "--measure", "match", "--reducer-source", "suffix_stemmer",
                "--reducer-target", "morphar", "--output", str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == b"e1\ta1\t0.166667\ne2\ta2\t0.222222\ne3\ta3\t0.166667\n"

    @pytest.mark.parametrize("measure", ["match", "oov"])
    def test_refused_couple_writes_no_file(self, tmp_path, capsys, measure):
        # The second couple has no words, so both rates are undefined there;
        # the first couple's row used to be written before the refusal.
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(
            json.dumps({"src_id": s, "tgt_id": t, "src_text": st, "tgt_text": tt}) + "\n"
            for s, t, st, tt in (("e1", "a1", "book", "kitab"), ("e2", "a2", "!!", "..."))
        ), encoding="utf-8")
        dictionary = tmp_path / "d.tsv"
        dictionary.write_text("book\tkitab\n", encoding="utf-8")
        out = tmp_path / "s.tsv"
        rc = main(["score", "--corpus", str(corpus), "--dictionary", str(dictionary),
                   "--measure", measure, "--output", str(out)])
        assert rc == 3
        assert _one_json_error(capsys)["error"] == "UndefinedRateError"
        assert not out.exists()

    def test_capitalized_stopword_entry_matches(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            json.dumps({"src_id": "e1", "tgt_id": "a1", "src_text": "The cat of THE hat",
                        "tgt_text": "xcat xhat"}) + "\n",
            encoding="utf-8",
        )
        dictionary = tmp_path / "d.tsv"
        dictionary.write_text("cat\txcat\nhat\txhat\nthe\txthe\n", encoding="utf-8")
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("The\nof\n", encoding="utf-8")
        out = tmp_path / "match.tsv"
        rc = main(
            [
                "score", "--corpus", str(corpus), "--dictionary", str(dictionary),
                "--measure", "match", "--stopwords", str(stopwords), "--output", str(out),
            ]
        )
        assert rc == 0
        # 2 matched pairs over 2 + 2 terms; a kept "the" would make it 2 / 6
        assert out.read_text(encoding="utf-8") == "e1\ta1\t0.500000\n"

    def test_capitalized_dictionary_entry_matches(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            json.dumps({"src_id": "e1", "tgt_id": "a1", "src_text": "Paris",
                        "tgt_text": "باريس"}, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        dictionary = tmp_path / "d.tsv"
        dictionary.write_text("Paris\tباريس\n", encoding="utf-8")
        out = tmp_path / "match.tsv"
        rc = main(
            [
                "score", "--corpus", str(corpus), "--dictionary", str(dictionary),
                "--measure", "match", "--output", str(out),
            ]
        )
        assert rc == 0
        # tokenize lowercases "Paris"; an entry kept as written would give 0.000000
        assert out.read_text(encoding="utf-8") == "e1\ta1\t0.500000\n"

    def test_bincos_equals_per_couple_dict_cosine(self, tmp_path, corpus_file, dictionary_file):
        out = tmp_path / "bincos.tsv"
        rc = main(
            [
                "score", "--corpus", str(corpus_file), "--dictionary", str(dictionary_file),
                "--measure", "bincos", "--output", str(out),
            ]
        )
        assert rc == 0
        corpus = load_aligned_corpus(corpus_file)
        src = run_pipeline([d.text for d in corpus.source_docs])
        tgt = run_pipeline([d.text for d in corpus.target_docs])
        stats_s, stats_t = build_vocabulary(src), build_vocabulary(tgt)
        dictionary = load_dictionary(dictionary_file)
        expected = "".join(
            f"{s.id}\t{t.id}\t{dict_cosine(d_s, d_t, dictionary, stats_s, stats_t):.6f}\n"
            for (s, t), d_s, d_t in zip(corpus.pairs(), src, tgt)
        )
        assert out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize(
        "flags",
        [[], ["--min-count", "2", "--reducer-source", "suffix_stemmer",
              "--reducer-target", "light_stemmer"]],
        ids=["default", "stemmers_min_count"],
    )
    def test_bincos_runs_the_pipeline_once_per_side(
        self, tmp_path, corpus_file, dictionary_file, monkeypatch, flags
    ):
        texts_seen = []

        def pipeline(texts, *args):
            texts_seen.append(list(texts))
            return pipeline_ids(texts, *args)

        monkeypatch.setattr(cli, "pipeline_ids", pipeline)
        monkeypatch.setattr(cli, "run_pipeline", _unexpected_read)
        out = tmp_path / "bincos.tsv"
        assert main(["score", "--corpus", str(corpus_file), "--dictionary", str(dictionary_file),
                     "--measure", "bincos", "--output", str(out), *flags]) == 0

        corpus = load_aligned_corpus(corpus_file)
        src = [d.text for d in corpus.source_docs]
        tgt = [d.text for d in corpus.target_docs]
        assert texts_seen == [src, tgt]
        # The scores of the token-list route, with df counted by a Counter of sets.
        options = dict(zip(flags[::2], flags[1::2]))
        kinds = [ReducerKind(options.get(f"--reducer-{side}", "identity"))
                 for side in ("source", "target")]
        config = PipelineConfig(min_corpus_frequency=int(options.get("--min-count", 1)),
                                reducer_source=kinds[0], reducer_target=kinds[1])
        src_tokens = run_pipeline(src, config, "source")
        tgt_tokens = run_pipeline(tgt, config, "target")
        scores = dict_cosines(src_tokens, tgt_tokens,
                              load_dictionary(dictionary_file, *map(make_reducer, kinds)),
                              counter_of_sets_vocabulary(src_tokens),
                              counter_of_sets_vocabulary(tgt_tokens))
        expected = "".join(f"{s.id}\t{t.id}\t{score:.6f}\n"
                           for (s, t), score in zip(corpus.pairs(), scores))
        assert out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("measure", ["bin", "bincos", "oov", "match"])
    def test_empty_corpus_exits_two_before_reading_the_dictionary(
        self, tmp_path, capsys, measure
    ):
        corpus = _couples_file(tmp_path / "c.jsonl", [])
        out = tmp_path / "s.tsv"
        rc = main(["score", "--corpus", str(corpus), "--dictionary", str(tmp_path / "missing.tsv"),
                   "--measure", measure, "--output", str(out)])
        assert rc == 2
        assert _one_json_error(capsys) == {"error": "EmptyCorpusError",
                                           "message": "no couples to score"}
        assert not out.exists()

    def test_min_count_flag_equals_library_scores(self, tmp_path, corpus_file, dictionary_file):
        out, default = tmp_path / "match.tsv", tmp_path / "default.tsv"
        for path, extra in ((out, ["--min-count", "2"]), (default, [])):
            assert main(["score", "--corpus", str(corpus_file), "--dictionary",
                         str(dictionary_file), "--measure", "match", "--output", str(path),
                         *extra]) == 0
        config = PipelineConfig(min_corpus_frequency=2)
        corpus = load_aligned_corpus(corpus_file)
        src = run_pipeline([d.text for d in corpus.source_docs], config, "source")
        tgt = run_pipeline([d.text for d in corpus.target_docs], config, "target")
        dictionary = load_dictionary(dictionary_file)
        expected = "".join(f"{s.id}\t{t.id}\t{matching_rate(d_s, d_t, dictionary):.6f}\n"
                           for (s, t), d_s, d_t in zip(corpus.pairs(), src, tgt))
        assert out.read_text(encoding="utf-8") == expected
        # Words seen once on a side are dropped, so the flag changes the scores.
        assert default.read_text(encoding="utf-8") != expected

    def test_match_on_a_long_augmenting_path(self, tmp_path):
        sources, targets, synsets = chain_couple(5000)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            json.dumps({"src_id": "e1", "tgt_id": "a1", "src_text": " ".join(sources),
                        "tgt_text": " ".join(targets)}) + "\n",
            encoding="utf-8",
        )
        dictionary = tmp_path / "d.tsv"
        dictionary.write_text(
            "".join(f"{'|'.join(s)}\t{'|'.join(t)}\n" for s, t in synsets), encoding="utf-8"
        )
        out = tmp_path / "match.tsv"
        rc = main(
            [
                "score", "--corpus", str(corpus), "--dictionary", str(dictionary),
                "--measure", "match", "--output", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "e1\ta1\t0.500000\n"

    def test_morphar_without_dictionary_exits_two(self, tmp_path, corpus_file, capsys):
        rc = main(
            [
                "train", "--corpus", str(corpus_file), "--kind", "cross",
                "--reducer-source", "morphar", "--output", str(tmp_path / "m.xlsm"),
            ]
        )
        assert rc == 2


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestManifests:
    """Each manifest holds the command, the parsed flags with their paths
    resolved against --data-dir, their hash, each input file's hash and a
    UTC creation time, and nothing else."""

    def _assert_manifest(self, path: Path, command: str, options: dict, inputs: list[Path]):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert set(manifest) == {"command", "options", "config_hash", "inputs", "created"}
        assert manifest["command"] == command
        assert manifest["options"] == options
        canonical = json.dumps(options, sort_keys=True).encode("utf-8")
        assert manifest["config_hash"] == hashlib.sha256(canonical).hexdigest()
        assert manifest["inputs"] == {str(p): _sha256(p) for p in inputs}
        assert datetime.fromisoformat(manifest["created"]).utcoffset() == timedelta(0)

    @pytest.mark.parametrize("fmt", ["jsonl", "wikidump"])
    def test_ingest(self, tmp_path, fmt):
        inputs = _ingest_inputs(tmp_path)
        langs = ["--pivot-lang", "en", "--tgt-lang", "ar"] if fmt == "wikidump" else []
        assert main(["--data-dir", str(tmp_path), "ingest", "--input", inputs[fmt].name,
                     "--format", fmt, *langs, "--output", "c.jsonl", "--stats", "c.json"]) == 0
        self._assert_manifest(tmp_path / "c.manifest.json", "ingest", {
            "command": "ingest", "data_dir": str(tmp_path), "format": fmt,
            "input": str(inputs[fmt]), "output": str(tmp_path / "c.jsonl"),
            "stats": str(tmp_path / "c.json"), "src_lang": None,
            "tgt_lang": "ar" if langs else None, "pivot_lang": "en" if langs else None,
        }, [inputs[fmt]])

    def test_ingest_pairdirs_hashes_the_documents_it_read(self, tmp_path):
        # The manifest used to record no input for a pair directory.
        root = _ingest_inputs(tmp_path)["pairdirs"]
        (root / "en" / "002.txt").write_text("good morning", encoding="utf-8")
        (root / "ar" / "002.txt").write_text("sabah al-khayr", encoding="utf-8")

        def ingested() -> dict:
            assert main(["ingest", "--input", str(root), "--format", "pairdirs",
                         "--src-lang", "en", "--tgt-lang", "ar",
                         "--output", str(tmp_path / "c.jsonl")]) == 0
            manifest = json.loads((tmp_path / "c.manifest.json").read_text(encoding="utf-8"))
            return manifest["inputs"]

        def tree_sha256() -> str:
            digest = hashlib.sha256()
            for name in sorted(p.relative_to(root).as_posix() for p in root.glob("*/*.txt")):
                data = (root / name).read_bytes()
                digest.update(name.encode("utf-8") + b"\0%d\0" % len(data) + data)
            return digest.hexdigest()

        first = ingested()
        assert first == {str(root): tree_sha256()}
        (root / "ar" / "002.txt").write_text("sabah al-khayr!", encoding="utf-8")
        changed = ingested()
        assert changed == {str(root): tree_sha256()} and changed != first
        for lang in ("en", "ar"):
            (root / lang / "002.txt").rename(root / lang / "003.txt")
        renamed = ingested()
        assert renamed == {str(root): tree_sha256()} and renamed not in (first, changed)

    def test_train(self, tmp_path, corpus_file):
        assert main(["--data-dir", str(tmp_path), "train", "--corpus", corpus_file.name,
                     "--k", "6", "--seed", "7", "--reducer-target", "light_stemmer",
                     "--output", "m.xlsm"]) == 0
        self._assert_manifest(tmp_path / "m.xlsm.manifest.json", "train", {
            "command": "train", "data_dir": str(tmp_path), "corpus": str(corpus_file),
            "kind": "cross", "k": 6, "train_fraction": None, "seed": 7, "no_split": False,
            "output": str(tmp_path / "m.xlsm"), "test_output": None, "dictionary": None,
            "min_count": 1, "stopwords": None, "reducer_source": "identity",
            "reducer_target": "light_stemmer",
        }, [corpus_file])

    @pytest.mark.parametrize("route", ["corpus", "documents"])
    def test_align(self, tmp_path, corpus_file, route, monkeypatch):
        model = _train(tmp_path, corpus_file)
        real, hashed = cli._sha256, []

        def recording(path):
            hashed.append(path)
            return real(path)

        monkeypatch.setattr(cli, "_sha256", recording)
        corpus = load_aligned_corpus(corpus_file)
        save_documents(corpus.source_docs, tmp_path / "s.jsonl")
        save_documents(corpus.target_docs, tmp_path / "t.jsonl")
        flags = (["--corpus", corpus_file.name] if route == "corpus"
                 else ["--source-docs", "s.jsonl", "--target-docs", "t.jsonl"])
        assert main(["--data-dir", str(tmp_path), "align", "--model", model.name, *flags,
                     "--top-n", "3", "--mutual-best", "--output", "a.tsv",
                     "--report", "r.json"]) == 0
        docs = [tmp_path / "s.jsonl", tmp_path / "t.jsonl"]
        self._assert_manifest(tmp_path / "a.manifest.json", "align", {
            "command": "align", "data_dir": str(tmp_path), "model": str(model),
            "corpus": str(corpus_file) if route == "corpus" else None,
            "source_docs": None if route == "corpus" else str(docs[0]),
            "target_docs": None if route == "corpus" else str(docs[1]),
            "top_n": 3, "group_by": None, "mutual_best": True,
            "output": str(tmp_path / "a.tsv"), "report": str(tmp_path / "r.json"),
            "histogram_csv": None, "ranges_csv": None,
        }, [model, *([corpus_file] if route == "corpus" else docs)])
        assert model not in hashed  # load_model hashed it as it read it


class TestDataDir:
    def test_relative_paths_resolve_against_data_dir(self, tmp_path, corpus_file):
        rc = main(
            [
                "--data-dir", str(tmp_path),
                "train", "--corpus", str(corpus_file), "--kind", "cross",
                "--k", "6", "--output", "model-rel.xlsm",
            ]
        )
        assert rc == 0
        assert (tmp_path / "model-rel.xlsm").exists()

    def test_env_var_default(self, tmp_path, corpus_file, monkeypatch):
        monkeypatch.setenv("XLING_DATA_DIR", str(tmp_path))
        rc = main(
            [
                "train", "--corpus", str(corpus_file), "--kind", "cross",
                "--k", "6", "--output", "model-env.xlsm",
            ]
        )
        assert rc == 0
        assert (tmp_path / "model-env.xlsm").exists()


def _args_file(path: Path, text: str) -> str:
    """Write an ``@file`` of arguments and return the argument naming it."""
    path.write_text(text, encoding="utf-8")
    return f"@{path}"


def _one_json_error(capsys) -> dict:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    return json.loads(captured.err)


_ERROR_CLASSES = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.XlingError)),
    key=lambda c: c.__name__,
)
_ERROR_ARGS = {
    errors.MalformedRecordError: (3, "bad record"),
    errors.MalformedLineError: (3, "bad line"),
    errors.VersionMismatchError: (9, 1),
    errors.MissingGoldError: ("q1",),
    errors.SelfTestError: (["d1"],),
}


class TestExitCodes:
    @pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_each_error_class_maps_to_its_exit_code(self, cls, monkeypatch, capsys):
        def raising(args):
            raise cls(*_ERROR_ARGS.get(cls, ("boom",)))

        monkeypatch.setattr(cli, "_cmd_eval", raising)
        rc = main(["eval", "--model", "m.xlsm", "--corpus", "c.jsonl", "--oracle"])
        if issubclass(cls, (errors.CorpusError, errors.DictionaryError)):
            assert rc == 2
        elif issubclass(cls, errors.ConvergenceError):
            assert rc == 4
        else:
            assert rc == 3
        assert _one_json_error(capsys)["error"] == cls.__name__


class TestNestedPastTheRecursionLimit:
    """Input nested past Python's recursion limit exits with its code, not a traceback."""

    def test_corpus_line_exits_two(self, tmp_path, capsys):
        corpus = tmp_path / "nested.jsonl"
        corpus.write_text("[" * 100_000 + "\n", encoding="utf-8")
        rc = main(["train", "--corpus", str(corpus), "--output", str(tmp_path / "m.xlsm")])
        assert rc == 2
        assert _one_json_error(capsys)["error"] == "MalformedRecordError"

    def test_model_vocabulary_block_exits_three(self, tmp_path, corpus_file, capsys):
        model_path = _train(tmp_path, corpus_file)
        capsys.readouterr()
        blob = model_path.read_bytes()
        header = 29  # magic, version, kind byte, k, |V|, d; then the block's length
        (size,) = struct.unpack_from("<Q", blob, header)
        payload = b"[" * 100_000
        model_path.write_bytes(
            blob[:header] + struct.pack("<Q", len(payload)) + payload + blob[header + 8 + size :]
        )
        rc = main(
            [
                "retrieve", "--model", str(model_path), "--corpus", str(corpus_file),
                "--output", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 3
        assert _one_json_error(capsys)["error"] == "CorruptModelError"

    def test_self_including_args_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "self.args"
        rc = main(["train", _args_file(path, f"@{path}\n")])
        assert rc == 2
        payload = _one_json_error(capsys)
        assert payload["error"] == "ValueError"
        assert "@file arguments nest too deeply" in payload["message"]


def _splice(rng: random.Random, blob: bytes) -> bytes:
    lines = blob.split(b"\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    head, tail = lines[i], lines[j]
    lines[i] = head[: rng.randrange(len(head) + 1)] + tail[rng.randrange(len(tail) + 1) :]
    return b"\n".join(lines)


def _insert(rng: random.Random, blob: bytes, chunk: bytes) -> bytes:
    at = rng.randrange(len(blob) + 1)
    return blob[:at] + chunk + blob[at:]


def _flip(rng: random.Random, blob: bytes) -> bytes:
    data = bytearray(blob)
    for _ in range(rng.randint(1, 8)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def _wide_side(rng: random.Random, blob: bytes) -> bytes:
    """A line whose source side holds 10,000 "|", some pieces empty, among the others."""
    lines = blob.split(b"\n")
    pieces = (rng.choice([b"", b"w", b"W "]) for _ in range(10_001))
    lines.insert(rng.randrange(len(lines) + 1), b"|".join(pieces) + b"\tx")
    return b"\n".join(lines)


def _deep_nesting(rng: random.Random, blob: bytes) -> bytes:
    """A line that opens 100,000 JSON arrays, among the others."""
    lines = blob.split(b"\n")
    lines.insert(rng.randrange(len(lines) + 1), b"[" * 100_000)
    return b"\n".join(lines)


_MUTATIONS = {
    "truncate": lambda rng, blob: blob[: rng.randrange(len(blob) + 1)],
    "flip bytes": _flip,
    "splice lines": _splice,
    "invalid UTF-8": lambda rng, blob: _insert(
        rng, blob, rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"])
    ),
    "NUL": lambda rng, blob: _insert(rng, blob, b"\x00"),
    "10,000 |": _wide_side,
}


def _entity_amplification(levels: int, blob: bytes) -> bytes:
    """A DTD of ``levels`` nested entities, each ten of the one before, that a
    page's text references: 10**levels characters."""
    entities = [b'<!ENTITY e0 "0123456789">'] + [
        b'<!ENTITY e%d "%s">' % (i, b"&e%d;" % (i - 1) * 10) for i in range(1, levels)
    ]
    dtd = b"<!DOCTYPE mediawiki [" + b"".join(entities) + b"]>"
    return dtd + blob.replace(b"</text>", b"&e%d;</text>" % (levels - 1), 1)


def _external_entity(blob: bytes) -> bytes:
    """A page's text references an external entity, which is never read."""
    dtd = b'<!DOCTYPE mediawiki [<!ENTITY ext SYSTEM "secret.txt">]>'
    return dtd + blob.replace(b"</text>", b"&ext;</text>", 1)


_XML_ATTACKS = {
    "entity amplification": lambda rng, blob: _entity_amplification(rng.randint(1, 9), blob),
    "external entity": lambda rng, blob: _external_entity(blob),
}
_NESTED = {**_MUTATIONS, "deep nesting": _deep_nesting}


def _in_one_file(mutate):
    """``mutate`` applied to one file of a directory tree ({path: bytes})."""
    def apply(rng: random.Random, tree: dict) -> dict:
        path = rng.choice(sorted(tree))
        return {**tree, path: mutate(rng, tree[path])}
    return apply


def _drop_one_file(rng: random.Random, tree: dict) -> dict:
    """One document loses its counterpart."""
    gone = rng.choice(sorted(tree))
    return {path: blob for path, blob in tree.items() if path != gone}


def _third_language(rng: random.Random, tree: dict) -> dict:
    """A third language directory holding a copy of one document."""
    path = rng.choice(sorted(tree))
    return {**tree, f"fr/{Path(path).name}": tree[path]}


_PAIRDIRS = {
    **{name: _in_one_file(mutate) for name, mutate in _MUTATIONS.items()},
    "no counterpart": _drop_one_file,
    "third language": _third_language,
}
_SCORE = ("score --measure match --corpus {corpus} --dictionary {dictionary}"
          " --stopwords {stopwords} --output {dir}/m.tsv").split()
_ALIGN = ("align --model {model} --source-docs {source_docs} --target-docs {target_docs}"
          " --output {dir}/aligned.tsv").split()
_RETRIEVE = ("retrieve --model {mono} --corpus {corpus} --cache {cache}"
             " --output {dir}/ranked.json").split()
_INGEST = ("ingest --input {wikidump} --format wikidump --pivot-lang en --tgt-lang ar"
           " --output {dir}/ingested.jsonl").split()
_INGEST_PAIRDIRS = "ingest --input {pairdirs} --format pairdirs --output {dir}/pairs.jsonl".split()

# Each reader's input file or directory, by name: the command that reads it
# (its other inputs valid), the mutations it gets and how many are drawn.
_READERS = {
    "dictionary": (_SCORE, _MUTATIONS, 100),
    "stopwords": (_SCORE, _MUTATIONS, 40),
    "corpus": (_SCORE, _NESTED, 40),
    "source_docs": (_ALIGN, _NESTED, 40),
    "cache": (_RETRIEVE, _NESTED, 30),
    "wikidump": (_INGEST, {**_MUTATIONS, **_XML_ATTACKS}, 40),
    "pairdirs": (_INGEST_PAIRDIRS, _PAIRDIRS, 40),
}
_INPUTS = ("corpus", "dictionary", "stopwords", "source_docs", "target_docs", "cache",
           "wikidump", "pairdirs", "model", "mono")


def _read_input(path: Path):
    """A file's bytes, or a directory's files as {relative path: bytes}."""
    if path.is_file():
        return path.read_bytes()
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def _write_input(path: Path, data) -> None:
    """Write what :func:`_read_input` returns, replacing a directory whole."""
    if isinstance(data, bytes):
        path.write_bytes(data)
        return
    shutil.rmtree(path, ignore_errors=True)
    for name, blob in data.items():
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_bytes(blob)


class TestReaderContract:
    """A mutated input file or directory through the command that reads it
    ends in exit 0, 2, 3 or 4, with stderr empty or one line of JSON; no
    exception escapes ``main``."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Each command's valid input files, by name, the corpus as a pair
        directory, and a cross and a mono model trained on the corpus."""
        tmp = tmp_path_factory.mktemp("contract")
        corpus = make_parallel_corpus(10, SPEC, seed=12)
        save_aligned_corpus(corpus, tmp / "corpus")
        save_documents(corpus.source_docs, tmp / "source_docs")
        save_documents(corpus.target_docs, tmp / "target_docs")
        # Each source's cached translation is its target's text.
        save_documents([Document(s.id, "ar", t.text) for s, t in corpus.pairs()], tmp / "cache")
        # Each source is an English pivot page linked to its target; a
        # redirect and a talk page are read and skipped.
        pages = [("Redirect", "0", "<redirect />", "#REDIRECT [[s0]]"), ("Talk:s0", "1", "", "")]
        for s, t in corpus.pairs():
            pages += [(s.id, "0", "", f"'''{s.text}''' [[ar:{t.id}]]"), (t.id, "0", "", t.text)]
        (tmp / "wikidump").write_text("<mediawiki>\n" + "".join(
            f"<page><title>{title}</title><ns>{ns}</ns>{extra}"
            f"<revision><text>{text}</text></revision></page>\n"
            for title, ns, extra, text in pages
        ) + "</mediawiki>\n", encoding="utf-8")
        words = source_vocabulary(SPEC)
        # Every fourth synset has two target terms, so both parser branches run.
        (tmp / "dictionary").write_text("# a comment\n\n" + "".join(
            f"{w}\t{cipher_word(w)}{'|' + w if i % 4 == 0 else ''}\n" for i, w in enumerate(words)
        ), encoding="utf-8")
        (tmp / "stopwords").write_text(
            "# a comment\n\n" + "".join(f"{w}  # inline\n" for w in words[::3]), encoding="utf-8"
        )
        # A couple's ids differ only in their first letter, which each file name drops.
        for doc in (*corpus.source_docs, *corpus.target_docs):
            (tmp / "pairdirs" / doc.language).mkdir(parents=True, exist_ok=True)
            (tmp / "pairdirs" / doc.language / f"{doc.id[1:]}.txt").write_text(
                doc.text, encoding="utf-8"
            )
        train = ["train", "--corpus", str(tmp / "corpus"), "--k", "4", "--no-split"]
        assert main([*train, "--output", str(tmp / "model")]) == 0
        assert main([*train, "--kind", "mono", "--output", str(tmp / "mono")]) == 0
        return tmp

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_exit_code_and_one_json_line(self, inputs, capsys, reader):
        command, mutations, max_examples = _READERS[reader]
        valid = _read_input(inputs / reader)
        files = {name: inputs / name for name in _INPUTS}
        files[reader] = inputs / f"mutated-{reader}"
        argv = [arg.format(dir=inputs, **files) for arg in command]

        @settings(max_examples=max_examples)
        @given(mutation=st.sampled_from(sorted(mutations)), seed=st.integers(0, 2**32 - 1))
        def check(mutation, seed):
            _write_input(files[reader], mutations[mutation](random.Random(seed), valid))
            rc = main(argv)
            assert rc in (0, 2, 3, 4)
            err = capsys.readouterr().err
            if rc:
                assert len(err.splitlines()) == 1
                assert set(json.loads(err)) == {"error", "message"}
            else:
                assert err == ""

        check()

    # Nine levels (10**9 characters) exceed expat's amplification limit.
    @pytest.mark.parametrize("attack", [lambda blob: _entity_amplification(9, blob),
                                        _external_entity],
                             ids=["entity amplification", "external entity"])
    def test_xml_entity_attack_exits_two(self, inputs, capsys, attack):
        mutated = inputs / "mutated"
        mutated.write_bytes(attack((inputs / "wikidump").read_bytes()))
        assert main([arg.format(dir=inputs, wikidump=mutated) for arg in _INGEST]) == 2
        assert _one_json_error(capsys)["error"] == "TruncatedStreamError"


class TestCollectorPause:
    """``main`` leaves the cyclic collector as it found it, on every exit path."""

    def _argv(self, case, tmp_path, corpus_file, dictionary_file):
        if case == "usage error":
            return ["score", "--no-such-flag"]
        if case == "data error":
            model = tmp_path / "junk.xlsm"
            model.write_bytes(b"junk")
            return ["eval", "--model", str(model), "--corpus", str(corpus_file), "--oracle"]
        return [
            "score", "--corpus", str(corpus_file), "--dictionary", str(dictionary_file),
            "--measure", "bin", "--output", str(tmp_path / "s.tsv"),
        ]

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "case, code", [("success", 0), ("usage error", 2), ("data error", 3)]
    )
    def test_collector_state_restored(
        self, case, code, collecting, tmp_path, corpus_file, dictionary_file, capsys
    ):
        argv = self._argv(case, tmp_path, corpus_file, dictionary_file)
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            assert main(argv) == code
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_paused_during_the_command(self, monkeypatch):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            raise RuntimeError("not caught by main")

        monkeypatch.setattr(cli, "_cmd_eval", command)
        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            main(["eval", "--model", "m.xlsm", "--corpus", "c.jsonl", "--oracle"])
        assert seen == [False] and gc.isenabled()


class TestConfigAndDeterminism:
    """Config comes from ``@file`` arguments: shell-quoted flags read in place."""

    def test_config_file_overrides_defaults(self, tmp_path, corpus_file):
        model_path = _train(tmp_path, corpus_file)
        config = _args_file(tmp_path / "run.args", "--n 2\n")
        out = tmp_path / "ranked.json"
        rc = main(
            [
                "retrieve", config, "--model", str(model_path),
                "--corpus", str(model_path) + ".test.jsonl", "--output", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert all(len(q["entries"]) == 2 for q in payload["queries"])

    def test_unknown_config_key_exits_two(self, tmp_path, corpus_file, capsys):
        config = _args_file(tmp_path / "run.args", "--bogus-knob 3\n")
        rc = main(["eval", config, "--model", "x", "--corpus", str(corpus_file), "--oracle"])
        assert rc == 2
        message = _one_json_error(capsys)["message"]
        assert "unrecognized arguments" in message and "--bogus-knob" in message

    # Only stable fragments of argparse's wording, which varies by Python version.
    @pytest.mark.parametrize(
        "line, fragments",
        [
            ("--kind crosss", ("argument --kind", "invalid choice")),
            ("--k abc", ("argument --k", "abc")),
            ("--train-fraction most", ("argument --train-fraction", "most")),
            ("--no-split maybe", ("unrecognized arguments", "maybe")),
        ],
        ids=["kind", "k", "train_fraction", "no_split"],
    )
    def test_bad_config_value_exits_two(self, tmp_path, corpus_file, capsys, line, fragments):
        config = _args_file(tmp_path / "run.args", line + "\n")
        model_path = tmp_path / "m.xlsm"
        rc = main(["train", config, "--corpus", str(corpus_file), "--output", str(model_path)])
        assert rc == 2
        payload = _one_json_error(capsys)
        assert payload["error"] == "ValueError"
        assert all(f in payload["message"] for f in fragments)
        assert not model_path.exists()

    def test_config_values_converted_like_flags(self, tmp_path, corpus_file):
        config = _args_file(tmp_path / "run.args", "--kind mono\n--k 5\n--no-split\n")
        model_path = tmp_path / "m.xlsm"
        rc = main(["train", config, "--corpus", str(corpus_file), "--output", str(model_path)])
        assert rc == 0
        model = load_model(model_path)
        assert model.kind == "monolingual" and model.k == 5 and model.n_docs == 30
        assert not Path(str(model_path) + ".test.jsonl").exists()

    @pytest.mark.parametrize(
        "order, k, n_docs",
        [
            ("file_first", 9, 24),
            ("flags_first", 5, 15),
        ],
    )
    def test_later_of_file_and_flag_wins(self, tmp_path, corpus_file, order, k, n_docs):
        config = _args_file(tmp_path / "run.args", "--train-fraction 0.5\n--k 5\n")
        flags = ["--train-frac", "0.8", "--k", "9"]  # --train-frac abbreviates --train-fraction
        model_path = tmp_path / "m.xlsm"
        middle = [config, *flags] if order == "file_first" else [*flags, config]
        rc = main(["train", *middle, "--corpus", str(corpus_file), "--output", str(model_path)])
        assert rc == 0
        model = load_model(model_path)
        assert (model.k, model.n_docs) == (k, n_docs)

    def test_data_dir_applies_to_file_paths(self, tmp_path, corpus_file):
        config = _args_file(tmp_path / "run.args", f"--corpus {corpus_file.name} --output m.xlsm\n")
        rc = main(["--data-dir", str(tmp_path), "train", config, "--k", "6"])
        assert rc == 0
        assert load_model(tmp_path / "m.xlsm").k == 6

    def test_comments_blank_lines_and_quoted_path(self, tmp_path, corpus_file):
        spaced = tmp_path / "my data"
        spaced.mkdir()
        (spaced / "corpus.jsonl").write_bytes(corpus_file.read_bytes())
        config = _args_file(
            tmp_path / "run.args",
            "# training defaults\n"
            "\n"
            f"--corpus '{spaced / 'corpus.jsonl'}'  # quoted: the path has a space\n"
            f'--k 6 --output "{spaced / "m.xlsm"}"\n',
        )
        assert main(["train", config]) == 0
        assert load_model(spaced / "m.xlsm").k == 6

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["train", "--corpus", "c.jsonl", "--output", "m.xlsm", "--k", "abc"], "argument --k"),
            (["train", "--corpus", "c.jsonl", "--output", "m.xlsm", "--bogus"], "--bogus"),
            (["train", "--corpus", "c.jsonl"], "--output"),
            (["bogus"], "invalid choice"),
            (["train", "@{dir}/missing.args"], "missing.args"),
            (["train", "@{dir}/unclosed.args"], "No closing quotation"),
        ],
        ids=[
            "bad_value", "unknown_flag", "missing_required", "unknown_command",
            "missing_file", "unclosed_quote",
        ],
    )
    def test_usage_error_is_one_json_line(self, tmp_path, capsys, argv, fragment):
        (tmp_path / "unclosed.args").write_text("--output 'm.xlsm\n", encoding="utf-8")
        rc = main([a.format(dir=tmp_path) for a in argv])
        assert rc == 2
        payload = _one_json_error(capsys)
        assert payload["error"] == "ValueError" and fragment in payload["message"]
        assert payload["message"].startswith("xling")

    def test_pipeline_outputs_byte_identical_across_reruns(self, tmp_path, corpus_file):
        outputs = []
        for name in ("run1", "run2"):
            base = tmp_path / name
            base.mkdir()
            model_path = _train(base, corpus_file)
            ranked = base / "ranked.json"
            main(
                [
                    "retrieve", "--model", str(model_path),
                    "--corpus", str(model_path) + ".test.jsonl",
                    "--n", "5", "--output", str(ranked),
                ]
            )
            pairs = base / "pairs.tsv"
            main(
                [
                    "align", "--model", str(model_path), "--corpus", str(corpus_file),
                    "--top-n", "10", "--output", str(pairs),
                ]
            )
            outputs.append(
                (
                    model_path.read_bytes(),
                    ranked.read_bytes(),
                    pairs.read_bytes(),
                    Path(str(model_path) + ".test.jsonl").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_ranked_lists_equal_at_one_and_two_blas_threads(self, tmp_path, corpus_file):
        # Each target text stands in the corpus five times, and a BLAS
        # product can score such copies unequally, or differently at another
        # thread count; ranking must tie them bit for bit all the same.
        model_path = _train(tmp_path, corpus_file, "--k", "20")
        corpus = make_parallel_corpus(30, SPEC, seed=12)
        queries = tmp_path / "queries.jsonl"
        queries.write_text("".join(
            json.dumps({"src_id": s.id, "tgt_id": f"t{i:02d}", "src_text": s.text,
                        "tgt_text": corpus.target_docs[i % 6].text}) + "\n"
            for i, s in enumerate(corpus.source_docs)
        ), encoding="utf-8")
        src = str(Path(xling.__file__).resolve().parents[1])
        ranked = []
        for threads in ("1", "2"):
            out = tmp_path / f"ranked{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run(
                [sys.executable, "-c", "import sys; from xling.cli import main; sys.exit(main())",
                 "retrieve", "--model", str(model_path), "--corpus", str(queries),
                 "--n", "12", "--output", str(out)],
                env=env, capture_output=True, check=True,
            )
            ranked.append(out.read_bytes())
        assert ranked[0] == ranked[1]
        entries = json.loads(ranked[0])["queries"][0]["entries"]
        assert len({sim for _, sim in entries}) < len(entries)  # copies tie
