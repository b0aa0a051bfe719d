import json
import random

import pytest
from hypothesis import given, strategies as st
from measure_oracles import loads_records

from xling.corpus import (
    AlignedCorpus,
    Document,
    _records,
    document_stats,
    load_aligned_corpus,
    save_aligned_corpus,
    load_documents,
    save_documents,
    split_corpus,
)
from xling.errors import (
    CorpusError,
    DegenerateSplitError,
    MalformedRecordError,
    MissingCounterpartError,
)


def _write_pairdirs(root, pairs, src="en", tgt="ar"):
    (root / src).mkdir(parents=True)
    (root / tgt).mkdir(parents=True)
    for doc_id, src_text, tgt_text in pairs:
        (root / src / f"{doc_id}.txt").write_text(src_text, encoding="utf-8")
        (root / tgt / f"{doc_id}.txt").write_text(tgt_text, encoding="utf-8")


class TestDocument:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Document("", "en", "text")

    def test_empty_text_allowed(self):
        assert Document("d1", "en", "").text == ""

    @pytest.mark.parametrize("text", [5, None, ["a"], b"bytes"])
    def test_non_string_text_rejected(self, text):
        with pytest.raises(TypeError, match="must be a string"):
            Document("d1", "en", text)

    @pytest.mark.parametrize("language", [[1], None, 3])
    def test_non_string_language_rejected(self, language):
        with pytest.raises(TypeError, match="language must be a string"):
            Document("d1", language, "text")

    @pytest.mark.parametrize("field", ["group_key", "category"])
    def test_non_string_metadata_rejected(self, field):
        with pytest.raises(TypeError, match=f"{field} must be a string"):
            Document("d1", "en", "text", **{field: 3})


class TestAlignedCorpus:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            AlignedCorpus((Document("a", "en", "x"),), ())

    def test_duplicate_ids_rejected(self):
        docs = (Document("a", "en", "x"), Document("a", "en", "y"))
        tgts = (Document("b", "ar", "x"), Document("c", "ar", "y"))
        with pytest.raises(ValueError):
            AlignedCorpus(docs, tgts)

    def test_mixed_languages_rejected(self):
        docs = (Document("a", "en", "x"), Document("b", "fr", "y"))
        tgts = (Document("c", "ar", "x"), Document("d", "ar", "y"))
        with pytest.raises(ValueError):
            AlignedCorpus(docs, tgts)


class TestPairdirs:
    def test_single_pair(self, tmp_path):
        _write_pairdirs(tmp_path, [("001", "hello", "marhaba")])
        corpus = load_aligned_corpus(tmp_path, "pairdirs", src_lang="en", tgt_lang="ar")
        assert len(corpus) == 1
        assert corpus.source_docs[0].id == "001"
        assert corpus.target_docs[0].text == "marhaba"

    def test_missing_counterpart(self, tmp_path):
        _write_pairdirs(tmp_path, [("001", "hello", "marhaba")])
        (tmp_path / "en" / "002.txt").write_text("orphan", encoding="utf-8")
        with pytest.raises(MissingCounterpartError):
            load_aligned_corpus(tmp_path, "pairdirs", src_lang="en", tgt_lang="ar")

    def test_language_inference_from_two_dirs(self, tmp_path):
        _write_pairdirs(tmp_path, [("001", "hello", "bonjour")], src="aa", tgt="bb")
        corpus = load_aligned_corpus(tmp_path, "pairdirs")
        assert corpus.source_docs[0].language == "aa"
        assert corpus.target_docs[0].language == "bb"

    @pytest.mark.parametrize("given", [{"src_lang": "en"}, {"tgt_lang": "en"}])
    def test_one_language_alone_rejected(self, tmp_path, given):
        # Sorted, the subdirectories read ar, en: filling in the missing
        # language from them would put Arabic on the source side.
        _write_pairdirs(tmp_path, [("001", "hello", "marhaba")])
        with pytest.raises(ValueError, match="give both src_lang and tgt_lang, or neither"):
            load_aligned_corpus(tmp_path, "pairdirs", **given)

    def test_equal_languages_rejected(self, tmp_path):
        # Both sides would read the same directory: each document paired
        # with itself.
        _write_pairdirs(tmp_path, [("001", "hello", "marhaba")])
        with pytest.raises(ValueError, match="src_lang and tgt_lang must differ, both are 'en'"):
            load_aligned_corpus(tmp_path, "pairdirs", src_lang="en", tgt_lang="en")

    def test_empty_text_loads(self, tmp_path):
        _write_pairdirs(tmp_path, [("001", "", "marhaba")])
        corpus = load_aligned_corpus(tmp_path, "pairdirs", src_lang="en", tgt_lang="ar")
        assert corpus.source_docs[0].text == ""

    def test_line_ends_read_as_universal_newlines(self, tmp_path):
        _write_pairdirs(tmp_path, [("001", "", "marhaba")])
        (tmp_path / "en" / "001.txt").write_bytes(b"one\r\ntwo\rthree\n")
        corpus = load_aligned_corpus(tmp_path, "pairdirs", src_lang="en", tgt_lang="ar")
        assert corpus.source_docs[0].text == "one\ntwo\nthree\n"

    def test_undecodable_document_names_file_and_byte(self, tmp_path):
        _write_pairdirs(tmp_path, [("001", "hello", "marhaba"), ("002", "world", "dunya")])
        (tmp_path / "ar" / "002.txt").write_bytes(b"ok \xff")
        with pytest.raises(CorpusError, match=r"^ar/002\.txt: not UTF-8 at byte 3 "):
            load_aligned_corpus(tmp_path, "pairdirs", src_lang="en", tgt_lang="ar")


class TestJsonl:
    def test_three_records_order_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [
            {"src_id": f"e{i}", "tgt_id": f"a{i}", "src_text": f"s{i}", "tgt_text": f"t{i}"}
            for i in (3, 1, 2)
        ]
        path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
        corpus = load_aligned_corpus(path)
        assert len(corpus) == 3
        assert [d.id for d in corpus.source_docs] == ["e3", "e1", "e2"]

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [
            json.dumps({"src_id": "e1", "tgt_id": "a1", "src_text": "x", "tgt_text": "y"}),
            json.dumps({"src_id": "e2", "src_text": "x", "tgt_text": "y"}),
        ]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(MalformedRecordError) as err:
            load_aligned_corpus(path)
        assert err.value.line_number == 2 and "'tgt_id'" in str(err.value)

    def test_empty_text_loads(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"src_id": "e1", "tgt_id": "a1", "src_text": "", "tgt_text": "y"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        corpus = load_aligned_corpus(path)
        assert corpus.source_docs[0].text == "" and corpus.target_docs[0].text == "y"

    @pytest.mark.parametrize("field", ["src_text", "tgt_text"])
    def test_non_string_text_reports_line(self, tmp_path, field):
        path = tmp_path / "c.jsonl"
        bad = {"src_id": "e2", "tgt_id": "a2", "src_text": "x", "tgt_text": "y", field: 5}
        lines = [
            json.dumps({"src_id": "e1", "tgt_id": "a1", "src_text": "x", "tgt_text": "y"}),
            json.dumps(bad),
        ]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(MalformedRecordError) as err:
            load_aligned_corpus(path)
        assert err.value.line_number == 2 and "string" in str(err.value)

    @pytest.mark.parametrize("value", [None, True, {"k": 1}, 1.5],
                             ids=["null", "true", "object", "float"])
    @pytest.mark.parametrize("field", ["src_id", "tgt_id"])
    def test_id_neither_string_nor_integer_reports_line(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        good = {"src_id": 7, "tgt_id": "a1", "src_text": "x", "tgt_text": "y"}
        path.write_text(json.dumps(good) + "\n", encoding="utf-8")
        assert load_aligned_corpus(path).source_docs[0].id == "7"
        bad = {"src_id": "e2", "tgt_id": "a2", "src_text": "x", "tgt_text": "y", field: value}
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(MalformedRecordError) as err:
            load_aligned_corpus(path)
        assert err.value.line_number == 2
        assert f"{field} must be a string or an integer" in str(err.value)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"src_id": "e1"\nnot json', encoding="utf-8")
        with pytest.raises(MalformedRecordError):
            load_aligned_corpus(path)

    def test_round_trip_byte_equal_texts(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.jsonl"
        save_aligned_corpus(tiny_corpus, path)
        loaded = load_aligned_corpus(path, src_lang="en", tgt_lang="ar")
        assert len(loaded) == len(tiny_corpus)
        for before, after in zip(tiny_corpus.source_docs, loaded.source_docs):
            assert after.id == before.id
            assert after.text.encode() == before.text.encode()
        for before, after in zip(tiny_corpus.target_docs, loaded.target_docs):
            assert after.text.encode() == before.text.encode()

    def test_group_and_category_survive(self, tmp_path):
        corpus = AlignedCorpus(
            (Document("e1", "en", "x", group_key="2012-03", category="sport"),),
            (Document("a1", "ar", "y", group_key="2012-03", category="sport"),),
        )
        path = tmp_path / "c.jsonl"
        save_aligned_corpus(corpus, path)
        loaded = load_aligned_corpus(path)
        assert loaded.source_docs[0].group_key == "2012-03"
        assert loaded.source_docs[0].category == "sport"

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            load_aligned_corpus(path, "parquet")


class TestDocumentsFile:
    def test_round_trip(self, tmp_path):
        docs = [
            Document("d1", "en", "one", group_key="g"),
            Document("d2", "en", "two"),
        ]
        path = tmp_path / "docs.jsonl"
        save_documents(docs, path)
        loaded = load_documents(path)
        assert [d.id for d in loaded] == ["d1", "d2"]
        assert loaded[0].group_key == "g"

    def test_empty_text_loads(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"id": "d1", "text": ""}) + "\n", encoding="utf-8")
        assert load_documents(path)[0].text == ""

    def test_missing_text_field(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1"}', encoding="utf-8")
        with pytest.raises(MalformedRecordError):
            load_documents(path)

    def test_non_string_text_reports_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        lines = [{"id": "d1", "text": "one"}, {"id": "x", "text": 5}]
        path.write_text("\n".join(json.dumps(r) for r in lines), encoding="utf-8")
        with pytest.raises(MalformedRecordError) as err:
            load_documents(path)
        assert err.value.line_number == 2 and "string" in str(err.value)

    @pytest.mark.parametrize("value", [None, True, {"k": 1}, 1.5],
                             ids=["null", "true", "object", "float"])
    def test_id_neither_string_nor_integer_reports_line(self, tmp_path, value):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"id": 7, "text": "one"}) + "\n", encoding="utf-8")
        assert load_documents(path)[0].id == "7"
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": value, "text": "two"}) + "\n")
        with pytest.raises(MalformedRecordError) as err:
            load_documents(path)
        assert err.value.line_number == 2
        assert "id must be a string or an integer" in str(err.value)

    def test_integer_past_the_digit_limit_reports_line(self, tmp_path):
        # Python refuses to convert an integer string of more than 4,300
        # digits, so json raises a plain ValueError, not a JSONDecodeError.
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "text": "one"}\n{"id": 1%s, "text": "two"}\n' % ("0" * 5000),
                        encoding="utf-8")
        with pytest.raises(MalformedRecordError) as err:
            load_documents(path)
        assert err.value.line_number == 2 and "invalid JSON" in str(err.value)

    def test_duplicate_id_reports_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        lines = [{"id": "d1", "text": "one"}, {"id": "d2", "text": "two"},
                 {"id": "d1", "text": "three"}]
        path.write_text("\n".join(json.dumps(r) for r in lines), encoding="utf-8")
        with pytest.raises(MalformedRecordError) as err:
            load_documents(path)
        assert err.value.line_number == 3
        assert "d1" in str(err.value)


def _corpus_of(n: int) -> AlignedCorpus:
    return AlignedCorpus(
        tuple(Document(f"e{i}", "en", f"src {i}") for i in range(n)),
        tuple(Document(f"a{i}", "ar", f"tgt {i}") for i in range(n)),
    )


_TEXTS = ["olive oil press", 'a "quoted" \\ text', "زيت الزيتون", "", "tab\there"]
_FIELDS = {"pairs": ("src_id", "tgt_id", "src_text", "tgt_text"), "documents": ("id", "text")}


def _valid_records(kind: str) -> list[dict]:
    if kind == "pairs":
        return [{"src_id": f"e{i}", "tgt_id": f"a{i}", "src_text": _TEXTS[i % 5],
                 "tgt_text": _TEXTS[(i + 2) % 5], "group_key": f"2012-0{i % 3 + 1}"}
                for i in range(12)]
    return [{"id": f"d{i}", "language": "ar", "text": _TEXTS[i % 5],
             "group_key": f"2012-0{i % 3 + 1}"} for i in range(12)]


def _encode(records: list, newline: str = "\n") -> bytes:
    """One line a record; a ``str`` entry is a line written as it is."""
    lines = (r if isinstance(r, str) else json.dumps(r, ensure_ascii=False) for r in records)
    return "".join(line + newline for line in lines).encode("utf-8")


def _edit_line(edit, first: int = 0):
    """A mutation that rewrites one line, at or after ``first``, through ``edit(rng, line)``."""
    def mutate(rng, records, fields):
        lines = [json.dumps(r, ensure_ascii=False) for r in records]
        i = rng.randrange(first, len(lines))
        lines[i] = edit(rng, lines[i])
        return _encode(lines)
    return mutate


def _in_strings(char: str):
    def mutate(rng, records, fields):
        for record in rng.sample(records, 3):
            key = rng.choice(sorted(record))
            at = rng.randint(0, len(record[key]))
            record[key] = record[key][:at] + char + record[key][at:]
        return _encode(records)
    return mutate


def _blank_lines(rng, records, fields):
    for _ in range(4):
        records.insert(rng.randint(0, len(records)), rng.choice(["", "   ", "\t \t", " \u0085 "]))
    return _encode(records)


def _missing_field(rng, records, fields):
    del rng.choice(records)[rng.choice(fields)]
    return _encode(records)


def _invalid_utf8(rng, records, fields):
    blob = _encode(records)
    at = rng.randrange(len(blob))
    return blob[:at] + rng.choice([b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82"]) + blob[at:]


# name -> (mutation of a valid file, whether the file is still valid after it)
_MUTATIONS = {
    "crlf": (lambda rng, records, fields: _encode(records, "\r\n"), True),
    "lone_cr": (lambda rng, records, fields: _encode(records, "\r"), True),
    "u2028_in_strings": (_in_strings("\u2028"), True),
    "u0085_in_strings": (_in_strings("\u0085"), True),
    "u0085_after_object": (_edit_line(lambda rng, line: line + "\u0085"), True),
    "blank_lines": (_blank_lines, True),
    "leading_bom": (lambda rng, records, fields: b"\xef\xbb\xbf" + _encode(records), True),
    "later_bom": (_edit_line(lambda rng, line: "\ufeff" + line, first=1), False),
    "trailing_data": (_edit_line(
        lambda rng, line: line + rng.choice([" x", "{}", "]", " 1", ",", ' "a"', "\u2028{}"])
    ), False),
    "non_object": (_edit_line(
        lambda rng, line: rng.choice(["[1, 2]", '"text"', "42", "null", "true", "[]"])
    ), False),
    "missing_field": (_missing_field, False),
    "deep_nesting": (_edit_line(
        lambda rng, line: rng.choice(["[" * 100_000, '{"a": ' * 100_000, "[" * 50_000 + "]" * 50_000])
    ), False),
    "invalid_utf8": (_invalid_utf8, False),
}


def _read(reader, path, fields):
    try:
        return list(reader(path, fields))
    except Exception as exc:  # the two readers must fail alike
        return type(exc), str(exc)


class TestRecordReader:
    """``_records`` decodes each line once; on seeded mutations of valid pair
    and document files it must agree with ``json.loads`` line by line."""

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    @pytest.mark.parametrize("kind", ["pairs", "documents"])
    def test_same_records_or_same_error_as_the_loads_oracle(self, tmp_path, kind, mutation):
        mutate, valid = _MUTATIONS[mutation]
        fields = _FIELDS[kind]
        for seed in range(6):
            path = tmp_path / f"{seed}.jsonl"
            path.write_bytes(mutate(random.Random(seed), _valid_records(kind), fields))
            ours = _read(_records, path, fields)
            assert ours == _read(loads_records, path, fields)
            assert isinstance(ours, list) == valid, ours


class TestSplit:
    def test_ninety_ten(self):
        train, test = split_corpus(_corpus_of(10), 0.9, seed=42)
        assert (len(train), len(test)) == (9, 1)

    def test_smallest_legal_split(self):
        train, test = split_corpus(_corpus_of(2), 0.5, seed=0)
        assert (len(train), len(test)) == (1, 1)

    def test_determinism(self):
        a = split_corpus(_corpus_of(20), 0.8, seed=7)
        b = split_corpus(_corpus_of(20), 0.8, seed=7)
        assert [d.id for d in a[0].source_docs] == [d.id for d in b[0].source_docs]
        assert [d.id for d in a[1].source_docs] == [d.id for d in b[1].source_docs]

    def test_degenerate_fraction(self):
        with pytest.raises(DegenerateSplitError):
            split_corpus(_corpus_of(3), 0.05, seed=1)

    def test_too_small(self):
        with pytest.raises(DegenerateSplitError):
            split_corpus(_corpus_of(1), 0.5, seed=1)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split_corpus(_corpus_of(4), 1.0, seed=1)

    @given(
        n=st.integers(min_value=2, max_value=40),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, n, fraction, seed):
        corpus = _corpus_of(n)
        n_train = round(fraction * n)
        if n_train in (0, n):
            with pytest.raises(DegenerateSplitError):
                split_corpus(corpus, fraction, seed)
            return
        train, test = split_corpus(corpus, fraction, seed)
        train_ids = {d.id for d in train.source_docs}
        test_ids = {d.id for d in test.source_docs}
        assert train_ids | test_ids == {d.id for d in corpus.source_docs}
        assert not train_ids & test_ids
        assert len(train) == n_train
        # couples stay intact: target ids carry matching indices
        for src, tgt in train.pairs():
            assert src.id[1:] == tgt.id[1:]


def test_document_stats(tiny_corpus):
    stats = document_stats(tiny_corpus.source_docs)
    assert stats["documents"] == 3
    assert stats["words"] == 13
    assert stats["vocabulary"] == 11  # "oil" repeats across documents
    assert stats["avg_words_per_doc"] == pytest.approx(13 / 3)
