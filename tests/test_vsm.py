import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from measure_oracles import (
    brute_fold_in,
    brute_tfidf,
    counter_of_sets_vocabulary,
    loop_idf,
    token_pipeline,
)

from xling.bidict import BilingualDictionary
from xling.errors import DimensionMismatchError, EmptyCorpusError
from xling.lsi import LsiModel, build_cross_matrix, build_mono_matrix, fold_in_many
from xling.retrieval import Embeddings, _unit_rows, retrieve_many
from xling.textprep import IndexedDocuments, PipelineConfig, ReducerKind, index_words, pipeline_ids
from xling.vsm import Vocabulary, build_term_doc_matrix, build_vocabulary


def _weights(vocabulary: Vocabulary, tokens):
    """One document's row of ``weight_rows``: term indices and weights."""
    _, idx, val = vocabulary.weight_rows([tokens])
    return idx, val


def _dense(weights: dict[int, float], size: int) -> np.ndarray:
    vec = np.zeros(size)
    for i, w in weights.items():
        vec[i] = w
    return vec


class TestVocabulary:
    def test_hand_counted_example(self):
        vocab = build_vocabulary([["a", "b"], ["b"]])
        assert vocab.terms == ("a", "b")
        assert vocab.index("a") == 0 and vocab.index("b") == 1
        assert vocab.df.tolist() == [1, 2]
        assert vocab.n_docs == 2

    def test_single_empty_document_allowed(self):
        vocab = build_vocabulary([[]])
        assert len(vocab) == 0
        assert vocab.n_docs == 1

    def test_duplicates_count_once_for_df(self):
        vocab = build_vocabulary([["x", "x", "x"], ["y"]])
        assert vocab.df[vocab.index("x")] == 1

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_vocabulary([])

    def test_lexicographic_indexing_deterministic(self):
        vocab = build_vocabulary([["zeta", "alpha", "mid"]])
        assert vocab.terms == ("alpha", "mid", "zeta")


class TestIdf:
    """``Vocabulary.idf``, one log per distinct df, has the bits of one
    ``math.log`` per term."""

    @settings(max_examples=200)
    @given(n_docs=st.integers(min_value=1, max_value=10**9), data=st.data())
    def test_equals_one_log_per_term(self, n_docs, data):
        df = data.draw(st.lists(st.integers(min_value=1, max_value=n_docs), max_size=40))
        vocab = Vocabulary([f"t{i:02d}" for i in range(len(df))], df, n_docs)
        assert vocab.idf.tobytes() == loop_idf(df, n_docs).tobytes()

    @pytest.mark.parametrize(
        "df, n_docs",
        [([], 3), ([4] * 6, 9), ([7, 7, 7], 7), ([1, 7, 3, 7, 1], 7)],
        ids=["empty", "all-equal-df", "df-is-n-docs", "mixed-with-idf-0"],
    )
    def test_edge_cases(self, df, n_docs):
        vocab = Vocabulary([f"t{i}" for i in range(len(df))], df, n_docs)
        assert vocab.idf.dtype == np.float64 and vocab.idf.shape == (len(df),)
        assert vocab.idf.tobytes() == loop_idf(df, n_docs).tobytes()
        assert [vocab.index(t) for t in vocab.terms] == list(range(len(df)))


class TestTfidfWeight:
    def test_ubiquitous_term_weighs_zero(self):
        vocab = Vocabulary(["a"], [3], 3)
        assert vocab.idf[0] == 0.0
        idx, val = _weights(vocab, ["a"] * 5)
        assert idx.tolist() == [] and val.tolist() == []

    def test_zero_tf(self):
        idx, val = _weights(Vocabulary(["a", "b"], [1, 1], 4), ["b"])
        assert idx.tolist() == [1]  # "a" has tf 0 and no entry

    def test_direct_formula_value(self):
        # 2 * ln(4/1) = 2.772588722239781
        _, val = _weights(Vocabulary(["a"], [1], 4), ["a", "a"])
        assert val[0] == pytest.approx(2.772588722239781, abs=1e-15)

    def test_df_above_n_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a"], [5], 4)

    def test_df_zero_with_tf_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a"], [0], 4)


class TestVectorize:
    def _vocab(self):
        return build_vocabulary([["a", "b"], ["b", "c"], ["c", "d"]])

    def test_all_unseen_gives_zero_vector(self):
        idx, val = _weights(self._vocab(), ["zz", "qq"])
        assert len(idx) == 0 and len(val) == 0

    def test_mixed_seen_unseen(self):
        vocab = self._vocab()
        idx, _ = _weights(vocab, ["a", "zz"])
        assert idx.tolist() == [vocab.index("a")]

    def test_training_document_matches_matrix_column(self):
        docs = [["a", "b", "b"], ["b", "c"], ["a", "d"]]
        tdm = build_mono_matrix(docs)
        vocab = tdm.vocabulary
        assert vocab.terms == build_vocabulary(docs).terms
        for j, doc in enumerate(docs):
            idx, val = _weights(vocab, doc)
            col = tdm.column(j)
            assert np.flatnonzero(col).tolist() == idx.tolist()
            assert col[idx].tolist() == val.tolist()  # exact reproduction


# "same" is spelled alike on both sides; "every" is added to every source
# document, so its idf is 0; "oov" only ever appears in queries.
_SOURCE_WORDS = ["a", "b", "c", "same"]
_TARGET_WORDS = ["x", "y", "same"]


def _oracle_matrix(documents, vocabulary, offset=0, n_rows=None):
    dense = np.zeros((n_rows or len(vocabulary), len(documents)))
    for j, doc in enumerate(documents):
        for i, w in brute_tfidf(doc, vocabulary).items():
            dense[offset + i, j] = w
    return dense


class TestWeightsOracle:
    """``Vocabulary.weight_rows`` and everything built on it equal the per-term loop bit for bit."""

    @settings(max_examples=150)
    @given(
        couples=st.lists(
            st.tuples(
                st.lists(st.sampled_from(_SOURCE_WORDS), max_size=8),
                st.lists(st.sampled_from(_TARGET_WORDS), max_size=8),
            ),
            min_size=2,
            max_size=7,
        ),
        query=st.lists(st.sampled_from(_SOURCE_WORDS + _TARGET_WORDS + ["every", "oov"]),
                       max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weights_matrices_and_fold_in(self, couples, query, seed):
        src = [doc + ["every"] for doc, _ in couples]
        tgt = [doc for _, doc in couples]
        vocab = build_vocabulary(src)
        assert vocab.idf[vocab.index("every")] == 0.0

        idx, val = _weights(vocab, query)
        expected = sorted(brute_tfidf(query, vocab).items())
        assert idx.tolist() == [i for i, _ in expected]
        assert val.tolist() == [w for _, w in expected]

        mono = build_mono_matrix(src).matrix
        dense = _oracle_matrix(src, vocab)
        assert np.array_equal(mono.toarray(), dense) and mono.nnz == np.count_nonzero(dense)

        tdm = build_cross_matrix(src, tgt)
        cross = tdm.vocabulary
        n_rows, offset = len(cross), cross.offset_for("target")
        dense = _oracle_matrix(src, cross.source, 0, n_rows) + _oracle_matrix(
            tgt, cross.target, offset, n_rows
        )
        assert np.array_equal(tdm.matrix.toarray(), dense)
        assert tdm.matrix.nnz == np.count_nonzero(dense)

        rng = np.random.default_rng(seed)
        s = np.array([3.0, 2.0, 0.5])
        u = rng.standard_normal((n_rows, 3))
        model = LsiModel(u, s, np.zeros((len(src), 3)), cross)
        for side, off in (("source", 0), ("target", offset)):
            (got,) = fold_in_many([query], model, side)
            assert got.tolist() == brute_fold_in(query, cross.vocab_for(side), off, u, s).tolist()
        mono_model = LsiModel(u[: len(vocab)], s, np.zeros((len(src), 3)), vocab)
        (got,) = fold_in_many([query], mono_model, "target")
        assert got.tolist() == brute_fold_in(query, vocab, 0, u, s).tolist()


class TestWeightRowsOracle:
    """One pass over a collection equals the per-document loops bit for bit."""

    @settings(max_examples=150)
    @given(
        couples=st.lists(
            st.tuples(
                st.lists(st.sampled_from(_SOURCE_WORDS), max_size=8),
                st.lists(st.sampled_from(_TARGET_WORDS), max_size=8),
            ),
            min_size=2,
            max_size=6,
        ),
        # Empty documents, all-OOV documents, repeated tokens, the idf-0
        # "every" and the empty collection are all in range.
        queries=st.lists(
            st.lists(st.sampled_from(_SOURCE_WORDS + _TARGET_WORDS + ["every", "oov"]),
                     max_size=12),
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_and_batched_fold_in(self, couples, queries, seed):
        src = [doc + ["every"] for doc, _ in couples]
        tgt = [doc for _, doc in couples]
        cross = build_cross_matrix(src, tgt).vocabulary
        vocab = cross.source
        assert vocab.idf[vocab.index("every")] == 0.0

        for vocabulary in (cross.source, cross.target):
            indptr, idx, val = vocabulary.weight_rows(iter(queries))
            assert indptr.tolist()[0] == 0 and len(indptr) == len(queries) + 1
            for r, query in enumerate(queries):
                expected = sorted(brute_tfidf(query, vocabulary).items())
                a, b = indptr[r], indptr[r + 1]
                assert idx[a:b].tolist() == [i for i, _ in expected]
                assert val[a:b].tolist() == [w for _, w in expected]

        rng = np.random.default_rng(seed)
        s = np.array([3.0, 2.0, 0.5])
        u = rng.standard_normal((len(cross), 3))
        model = LsiModel(u, s, np.zeros((len(src), 3)), cross)
        for side in ("source", "target"):
            block = fold_in_many(iter(queries), model, side)
            assert block.shape == (len(queries), 3)
            off = cross.offset_for(side)
            for row, query in zip(block, queries):
                expected = brute_fold_in(query, cross.vocab_for(side), off, u, s)
                assert row.tolist() == expected.tolist()
        mono_model = LsiModel(u[: len(vocab)], s, np.zeros((len(src), 3)), vocab)
        block = fold_in_many(queries, mono_model, "target")
        assert block.shape == (len(queries), 3)
        for row, query in zip(block, queries):
            assert row.tolist() == brute_fold_in(query, vocab, 0, u, s).tolist()

    def test_empty_vocabulary(self):
        vocab = Vocabulary([], [], 3)
        indptr, idx, val = vocab.weight_rows([["a", "a"], []])
        assert indptr.tolist() == [0, 0, 0] and idx.size == 0 and val.size == 0
        model = LsiModel(np.zeros((0, 2)), np.array([2.0, 1.0]), np.zeros((3, 2)), vocab)
        assert fold_in_many([["a"], []], model, "target").tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert fold_in_many([], model, "target").shape == (0, 2)

    def test_rows_ascend_and_skip_zero_weights(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]])  # "b" has idf 0
        indptr, idx, val = vocab.weight_rows([["c", "b", "a", "c"], ["b"], ["zz"], ["a"]])
        assert indptr.tolist() == [0, 2, 2, 2, 3]
        assert idx.tolist() == [0, 2, 0]
        assert val.tolist() == [vocab.idf[0], 2 * vocab.idf[2], vocab.idf[0]]

    def test_one_shot_generator_equals_list(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"], ["c", "d"]])
        docs = [["d", "a", "zz", "a"], [], ["b", "c", "c"], ["zz"], ["d"]]
        expected = vocab.weight_rows(docs)
        got = vocab.weight_rows(list(doc) for doc in docs)
        for e, g in zip(expected, got):
            assert g.dtype == e.dtype and g.tolist() == e.tolist()

    def test_zero_documents(self):
        vocab = build_vocabulary([["a"], ["b"]])
        for docs in ([], iter([])):
            indptr, idx, val = vocab.weight_rows(docs)
            assert indptr.tolist() == [0]
            assert idx.size == 0 and idx.dtype == np.int64
            assert val.size == 0 and val.dtype == np.float64

    def test_all_empty_documents(self):
        vocab = build_vocabulary([["a"], ["b"]])
        indptr, idx, val = vocab.weight_rows([[], [], []])
        assert indptr.tolist() == [0, 0, 0, 0] and idx.size == 0 and val.size == 0
        model = LsiModel(np.ones((2, 1)), np.ones(1), np.zeros((2, 1)), vocab)
        assert fold_in_many(([] for _ in range(3)), model, "target").tolist() == [[0.0]] * 3

    def test_wrong_side_rejected(self):
        vocab = build_vocabulary([["a"], ["b"]])
        mono = LsiModel(np.ones((2, 1)), np.ones(1), np.zeros((2, 1)), vocab)
        with pytest.raises(ValueError):
            fold_in_many([["a"]], mono, "source")


def _cos(u, v) -> float:
    """Cosine of two dense vectors as the ranking kernel scores it."""
    (ranked,) = retrieve_many([u], Embeddings(["v"], [v]), 1, ["u"])
    return ranked.entries[0][1]


class TestCosine:
    def test_self_similarity_is_one(self):
        v = _dense({0: 1.5, 3: 2.0}, 5)
        assert _cos(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert _cos(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        u = np.array([1.0, 1.0])
        v = np.array([1.0, 0.0])
        assert _cos(u, v) == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_zero_norm_convention(self):
        assert _cos(np.zeros(3), np.ones(3)) == 0.0
        assert _cos(np.ones(3), np.zeros(3)) == 0.0
        candidates = Embeddings(["a", "b"], [np.ones(2), -np.ones(2)])
        (ranked,) = retrieve_many([np.zeros(2)], candidates, 2, ["zero"])
        assert ranked.entries == (("a", 0.0), ("b", 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            _cos(np.ones(3), np.ones(4))
        with pytest.raises(DimensionMismatchError):
            _cos(np.ones((1, 3)), np.ones(3))

    def test_sparse_matches_dense_oracle(self):
        # Dense brute-force evaluation of the similarity formula is the
        # oracle; vectors with sparse (possibly empty) supports must agree
        # to 1e-12.
        rng = np.random.default_rng(123)
        for _ in range(200):
            size = int(rng.integers(2, 60))
            u_idx = rng.choice(size, size=int(rng.integers(0, size)), replace=False)
            v_idx = rng.choice(size, size=int(rng.integers(0, size)), replace=False)
            du = _dense({int(i): float(rng.normal()) for i in u_idx}, size)
            dv = _dense({int(i): float(rng.normal()) for i in v_idx}, size)
            nu, nv = np.linalg.norm(du), np.linalg.norm(dv)
            expected = 0.0 if nu == 0 or nv == 0 else float(du @ dv) / (nu * nv)
            assert _cos(du, dv) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("tiny", [1.4684e-161, 1.49e-162, 5e-324])
    def test_tiny_vector_is_not_lost_to_underflow(self, tiny):
        # Its squares are subnormal or zero, so a plain norm would round
        # the cosine off 1.0 or call the vector zero.
        e0 = np.array([1.0, 0.0])
        assert _cos(tiny * e0, e0) == 1.0
        assert _cos(tiny * np.array([3.0, 4.0]), np.array([3.0, 4.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("huge", [1e160, 1.7e308])
    def test_huge_vector_is_not_lost_to_overflow(self, huge):
        assert _cos(huge * np.array([1.0, 1.0]), np.array([2.0, 2.0])) == pytest.approx(1.0)

    def test_unit_rows_in_range_keep_plain_division_bits(self):
        rows = np.random.default_rng(5).normal(size=(20, 7)) * np.logspace(-140, 140, 20)[:, None]
        norms = np.sqrt((rows * rows).sum(axis=1))[:, None]
        assert np.array_equal(_unit_rows(rows), rows / norms)

    @given(
        # No subnormal weight: 5e-324 * 0.5 == 0.0, so the "scaled" vector
        # would not be a scaled copy of the drawn one.
        weights=st.dictionaries(
            st.integers(min_value=0, max_value=9),
            st.floats(min_value=0.0, max_value=10.0, allow_subnormal=False),
            max_size=10,
        ),
        other=st.dictionaries(
            st.integers(min_value=0, max_value=9),
            st.floats(min_value=0.0, max_value=10.0),
            max_size=10,
        ),
        scale=st.floats(min_value=0.1, max_value=100.0),
    )
    def test_nonnegative_range_symmetry_scale_invariance(self, weights, other, scale):
        u = _dense(weights, 10)
        v = _dense(other, 10)
        sim = _cos(u, v)
        assert 0.0 <= sim <= 1.0 + 1e-12
        assert _cos(v, u) == sim
        scaled = _dense({k: w * scale for k, w in weights.items()}, 10)
        assert _cos(scaled, v) == pytest.approx(sim, abs=1e-9)


# Words a property test joins into texts: repeats, mixed case, non-ASCII,
# Arabic with clitics, inflected English, and the stopwords below.
_PIPELINE_WORDS = [
    "the", "The", "of", "books", "Books", "book", "writes", "written", "went", "v2", "42",
    "İstanbul", "straße", "café", "Σ", "الكتاب", "والمكتبة", "مكتب", "المسافرون", "سافرت", "كتب",
]
_PIPELINE_STOPWORDS = frozenset({"the", "of", "books", "write", "كتب", "كتاب"})
_PIPELINE_DICTIONARY = BilingualDictionary(
    [(("كتاب", "مكتب"), ("book", "office")), (("سفر",), ("travel",)), (("book",), ("كتاب",))]
)
_TEXTS = st.lists(st.lists(st.sampled_from(_PIPELINE_WORDS), max_size=10).map(" ".join),
                  min_size=1, max_size=6)


class TestIdPathOracle:
    """The matrix built from the pipeline's word ids has the terms, df, idf
    bits and CSR rows of the Counter-of-sets vocabulary over the pipeline's
    token lists plus ``weight_rows``, byte for byte; ``build_vocabulary``
    has that vocabulary too, from the token lists or from the word ids, and
    ``weight_rows`` gives the same rows from the word ids as from the token
    lists, over that vocabulary and over one that lacks some of the words."""

    @pytest.mark.parametrize("min_count", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(ReducerKind))
    @settings(max_examples=40)
    @given(texts=_TEXTS, stopwords=st.booleans())
    # An empty text, one of stopwords only, and one whose every word falls under the floor.
    @example(texts=["", "the of THE books", "books book written Σ", "went went went"],
             stopwords=True)
    def test_matrix_from_ids_equals_oracle(self, kind, min_count, texts, stopwords):
        config = PipelineConfig(stopwords=_PIPELINE_STOPWORDS if stopwords else frozenset(),
                                min_corpus_frequency=min_count, reducer_source=kind)
        tokens = token_pipeline(texts, config, dictionary=_PIPELINE_DICTIONARY)
        expected = counter_of_sets_vocabulary(tokens)
        indptr, indices, data = expected.weight_rows(tokens)

        ids = pipeline_ids(texts, config, "source", _PIPELINE_DICTIONARY)
        tdm = build_term_doc_matrix(ids)
        for vocabulary in (tdm.vocabulary, build_vocabulary(tokens), build_vocabulary(ids)):
            assert vocabulary.terms == expected.terms
            assert vocabulary.n_docs == len(texts)
            assert vocabulary.df.tobytes() == expected.df.tobytes()
            assert vocabulary.idf.tobytes() == expected.idf.tobytes()
        matrix = tdm.matrix
        assert matrix.shape == (len(expected), len(texts))
        assert matrix.indptr.astype(np.int64).tobytes() == indptr.tobytes()
        assert matrix.indices.astype(np.int64).tobytes() == indices.tobytes()
        assert matrix.data.tobytes() == data.tobytes()
        for vocabulary in (expected, counter_of_sets_vocabulary(tokens[::2])):
            by_tokens, by_ids = vocabulary.weight_rows(tokens), vocabulary.weight_rows(ids)
            for a, b in zip(by_tokens, by_ids):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_token_lists_and_word_ids_build_the_same_matrices(self):
        src = [["a", "b", "b"], [], ["c", "a"]]
        tgt = [["x"], ["y", "x", "y"], ["z"]]
        by_ids = build_cross_matrix(index_words(src), index_words(tgt))
        by_tokens = build_cross_matrix(src, tgt)
        assert (by_ids.matrix != by_tokens.matrix).nnz == 0
        assert by_ids.vocabulary.to_dict() == by_tokens.vocabulary.to_dict()
        mono = build_mono_matrix(index_words(tgt))
        assert (mono.matrix != build_mono_matrix(tgt).matrix).nnz == 0

    def test_dropped_words_have_no_row(self):
        indexed = IndexedDocuments([[0, 1, 2, 1], [2, 3]], ["a", None, "c", "a"])
        tdm = build_term_doc_matrix(indexed)
        assert tdm.vocabulary.terms == ("a", "c")
        assert tdm.vocabulary.df.tolist() == [2, 2]
        assert tdm.matrix.nnz == 0  # both terms are in both documents
