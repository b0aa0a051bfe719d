import json

import pytest
from hypothesis import given, strategies as st

from xling.corpus import (
    AlignedCorpus,
    Document,
    document_stats,
    load_aligned_corpus,
    save_aligned_corpus,
    load_documents,
    save_documents,
    split_corpus,
)
from xling.errors import (
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

    def test_empty_text_needs_degenerate_flag(self):
        with pytest.raises(ValueError):
            Document("d1", "en", "")
        assert Document("d1", "en", "", degenerate=True).text == ""

    @pytest.mark.parametrize("text", [5, None, ["a"], b"bytes"])
    def test_non_string_text_rejected(self, text):
        with pytest.raises(TypeError, match="must be a string"):
            Document("d1", "en", text, degenerate=True)


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
        assert corpus.pair_count == 1
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


class TestJsonl:
    def test_three_records_order_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [
            {"src_id": f"e{i}", "tgt_id": f"a{i}", "src_text": f"s{i}", "tgt_text": f"t{i}"}
            for i in (3, 1, 2)
        ]
        path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
        corpus = load_aligned_corpus(path)
        assert corpus.pair_count == 3
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
        assert err.value.line_number == 2

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

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"src_id": "e1"\nnot json', encoding="utf-8")
        with pytest.raises(MalformedRecordError):
            load_aligned_corpus(path)

    def test_round_trip_byte_equal_texts(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.jsonl"
        save_aligned_corpus(tiny_corpus, path)
        loaded = load_aligned_corpus(path, src_lang="en", tgt_lang="ar")
        assert loaded.pair_count == tiny_corpus.pair_count
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


class TestSplit:
    def test_ninety_ten(self):
        train, test = split_corpus(_corpus_of(10), 0.9, seed=42)
        assert (train.pair_count, test.pair_count) == (9, 1)

    def test_smallest_legal_split(self):
        train, test = split_corpus(_corpus_of(2), 0.5, seed=0)
        assert (train.pair_count, test.pair_count) == (1, 1)

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
        assert train.pair_count == n_train
        # couples stay intact: target ids carry matching indices
        for src, tgt in train.pairs():
            assert src.id[1:] == tgt.id[1:]


def test_document_stats(tiny_corpus):
    stats = document_stats(tiny_corpus.source_docs)
    assert stats["documents"] == 3
    assert stats["words"] == 13
    assert stats["vocabulary"] == 11  # "oil" repeats across documents
    assert stats["avg_words_per_doc"] == pytest.approx(13 / 3)
