import numpy as np
import pytest
from hypothesis import given, strategies as st

from xling.errors import DimensionMismatchError, EmptyCorpusError, WeightDomainError
from xling.retrieval import Embeddings, retrieve
from xling.vsm import (
    DocVector,
    build_term_doc_matrix,
    build_vocabulary,
    tfidf_weight,
    vectorize,
)


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


class TestTfidfWeight:
    def test_ubiquitous_term_weighs_zero(self):
        assert tfidf_weight(5, 3, 3) == 0.0

    def test_zero_tf(self):
        assert tfidf_weight(0, 1, 4) == 0.0

    def test_direct_formula_value(self):
        # 2 * ln(4/1) = 2.772588722239781
        assert tfidf_weight(2, 1, 4) == pytest.approx(2.772588722239781, abs=1e-15)

    def test_df_above_n_rejected(self):
        with pytest.raises(WeightDomainError):
            tfidf_weight(1, 5, 4)

    def test_df_zero_with_tf_rejected(self):
        with pytest.raises(WeightDomainError):
            tfidf_weight(1, 0, 4)

    def test_negative_tf_rejected(self):
        with pytest.raises(WeightDomainError):
            tfidf_weight(-1, 1, 4)


class TestVectorize:
    def _vocab(self):
        return build_vocabulary([["a", "b"], ["b", "c"], ["c", "d"]])

    def test_all_unseen_gives_zero_vector(self):
        vec = vectorize(["zz", "qq"], self._vocab())
        assert vec.nnz == 0

    def test_mixed_seen_unseen(self):
        vocab = self._vocab()
        vec = vectorize(["a", "zz"], vocab)
        assert vec.indices.tolist() == [vocab.index("a")]

    def test_training_document_matches_matrix_column(self):
        docs = [["a", "b", "b"], ["b", "c"], ["a", "d"]]
        vocab = build_vocabulary(docs)
        tdm = build_term_doc_matrix(docs, vocab)
        for j, doc in enumerate(docs):
            vec = vectorize(doc, vocab)
            col = tdm.column(j)
            assert vec.indices.tolist() == col.indices.tolist()
            assert vec.values.tolist() == col.values.tolist()  # exact reproduction


def _cos(u, v) -> float:
    """Cosine of two dense vectors as the ranking kernel scores it."""
    return retrieve(u, Embeddings(["v"], [v]), 1).entries[0][1]


class TestCosine:
    def test_self_similarity_is_one(self):
        v = DocVector.from_mapping({0: 1.5, 3: 2.0}, 5).to_dense()
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
        ranked = retrieve(np.zeros(2), Embeddings(["a", "b"], [np.ones(2), -np.ones(2)]), 2)
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
            u = DocVector.from_mapping(
                {int(i): float(rng.normal()) for i in u_idx}, size
            )
            v = DocVector.from_mapping(
                {int(i): float(rng.normal()) for i in v_idx}, size
            )
            du, dv = u.to_dense(), v.to_dense()
            nu, nv = np.linalg.norm(du), np.linalg.norm(dv)
            expected = 0.0 if nu == 0 or nv == 0 else float(du @ dv) / (nu * nv)
            assert _cos(du, dv) == pytest.approx(expected, abs=1e-12)

    @given(
        weights=st.dictionaries(
            st.integers(min_value=0, max_value=9),
            st.floats(min_value=0.0, max_value=10.0),
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
        u = DocVector.from_mapping(weights, 10).to_dense()
        v = DocVector.from_mapping(other, 10).to_dense()
        sim = _cos(u, v)
        assert 0.0 <= sim <= 1.0 + 1e-12
        assert _cos(v, u) == sim
        scaled = DocVector.from_mapping({k: w * scale for k, w in weights.items()}, 10)
        assert _cos(scaled.to_dense(), v) == pytest.approx(sim, abs=1e-9)


class TestDocVector:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            DocVector(np.array([1, 1]), np.array([1.0, 2.0]), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DocVector(np.array([3]), np.array([1.0]), 3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DocVector(np.array([0]), np.array([np.inf]), 3)
