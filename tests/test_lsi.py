import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.linalg
import scipy.sparse as sp
from measure_oracles import fancy_index_sign_fix, lu_half_step_svd, qr_power_iteration_svd
from scipy.linalg import subspace_angles

import xling
from xling import cli
from xling.corpus import save_aligned_corpus
from xling.errors import (
    ConvergenceError,
    CorruptModelError,
    DimensionMismatchError,
    VersionMismatchError,
)
from xling.lsi import (
    _MODEL_HEADER,
    _OVERSAMPLE,
    _POWER_ITERATIONS,
    CrossVocabulary,
    LsiModel,
    _randomized_svd,
    _read_factor,
    _sparse_product,
    build_cross_matrix,
    build_mono_matrix,
    fold_in_many,
    load_model,
    project,
    save_model,
    train,
)
from xling.synthetic import SyntheticSpec, cipher_word, make_parallel_corpus, source_vocabulary
from xling.textprep import tokenize
from xling.vsm import TermDocMatrix, Vocabulary

LN2 = math.log(2.0)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def _dummy_matrix(dense: np.ndarray) -> TermDocMatrix:
    """Wrap a dense array as a TermDocMatrix with a placeholder vocabulary."""
    n_terms, n_docs = dense.shape
    vocab = Vocabulary([f"t{i:03d}" for i in range(n_terms)], [1] * n_terms, max(n_docs, 1))
    return TermDocMatrix(sp.csc_matrix(dense), vocab)


def _tokens(docs):
    return [tokenize(d.text) for d in docs]


class TestBuildMonoMatrix:
    def test_hand_computed_tfidf(self):
        tdm = build_mono_matrix([["a", "b"], ["b", "c"]])
        dense = tdm.matrix.toarray()
        expected = np.array(
            [
                [LN2, 0.0],  # a: df=1
                [0.0, 0.0],  # b: df=2 -> weight 0
                [0.0, LN2],  # c: df=1
            ]
        )
        assert np.array_equal(dense, expected)

    def test_single_document_zero_matrix_flagged(self):
        with pytest.warns(UserWarning, match="single-document"):
            tdm = build_mono_matrix([["a", "b"]])
        assert tdm.matrix.nnz == 0

    def test_disjoint_documents_block_structure(self):
        tdm = build_mono_matrix([["a", "b"], ["x", "y"]])
        dense = tdm.matrix.toarray()
        vocab = tdm.vocabulary
        for term, j in (("a", 0), ("b", 0), ("x", 1), ("y", 1)):
            row = vocab.index(term)
            assert dense[row, j] > 0
            assert dense[row, 1 - j] == 0


class TestBuildCrossMatrix:
    def test_single_couple_degenerate_flagged(self):
        with pytest.warns(UserWarning, match="single-couple"):
            tdm = build_cross_matrix([["a"]], [["x"]])
        assert tdm.matrix.nnz == 0

    def test_two_couples_disjoint_supports(self):
        tdm = build_cross_matrix([["a"], ["b"]], [["x"], ["y"]])
        dense = tdm.matrix.toarray()
        assert set(np.nonzero(dense[:, 0])[0]) .isdisjoint(np.nonzero(dense[:, 1])[0])

    def test_three_couple_toy_matches_hand_built_matrix(self):
        src = [["a", "b"], ["b"], ["c", "b"]]
        tgt = [["x"], ["y", "x"], ["y"]]
        tdm = build_cross_matrix(src, tgt)
        vocab = tdm.vocabulary
        d = 3
        # dense reference: weight = tf * ln(d / df), df over couples per side
        dense = np.zeros((len(vocab), d))
        for j in range(d):
            for side, doc in (("source", src[j]), ("target", tgt[j])):
                side_vocab = vocab.vocab_for(side)
                offset = vocab.offset_for(side)
                for term in set(doc):
                    tf = doc.count(term)
                    df = int(side_vocab.df[side_vocab.index(term)])
                    dense[offset + side_vocab.index(term), j] = tf * math.log(d / df)
        assert np.allclose(tdm.matrix.toarray(), dense, atol=0)

    def test_row_layout_source_block_first(self):
        tdm = build_cross_matrix([["a"], ["b"]], [["x"], ["y"]])
        vocab = tdm.vocabulary
        assert vocab.source.terms[0] == "a" and vocab.offset_for("source") == 0
        assert vocab.target.terms[0] == "x" and vocab.offset_for("target") == len(vocab.source)
        assert tdm.matrix[0, 0] > 0 and tdm.matrix[len(vocab.source), 0] > 0

    def test_couple_count_mismatch(self):
        with pytest.raises(ValueError):
            build_cross_matrix([["a"]], [["x"], ["y"]])


class TestTrain:
    def test_identity_matrix_unit_singular_values(self):
        with pytest.warns(UserWarning, match="clamped"):
            model = train(_dummy_matrix(np.eye(5)), k=5)
        assert model.k == 4  # clamped to min(d-1, |V|-1)
        assert np.allclose(model.s, 1.0, atol=1e-12)

    def test_rank_one_outer_product(self):
        u = np.array([3.0, 0.0, 4.0])
        v = np.array([2.0, 2.0, 1.0])
        with pytest.warns(UserWarning, match="clamped"):
            model = train(_dummy_matrix(np.outer(u, v)), k=3)
        assert model.k == 1  # trailing zero singular values are dropped
        sigma = np.linalg.norm(u) * np.linalg.norm(v)
        assert model.s[0] == pytest.approx(sigma, rel=1e-12)

    def test_sparse_factors_match_dense_svd_oracle(self):
        rng = np.random.default_rng(11)
        left = sp.random(50, 30, density=0.4, random_state=rng,
                         data_rvs=rng.standard_normal, format="csr")
        scales = sp.diags([2.0 ** (-0.5 * i) for i in range(30)])
        right = sp.random(30, 40, density=0.4, random_state=rng,
                          data_rvs=rng.standard_normal, format="csr")
        dense = (left @ scales @ right).toarray()
        model = train(_dummy_matrix(dense), k=10)
        oracle = np.linalg.svd(dense, compute_uv=False)[:10]
        assert np.max(np.abs(model.s - oracle) / oracle) < 1e-6

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            train(_dummy_matrix(np.zeros((4, 4))), k=2)

    def test_factor_invariants(self):
        rng = np.random.default_rng(3)
        model = train(_dummy_matrix(rng.random((30, 20))), k=8)
        gram = model.u.T @ model.u
        assert np.linalg.norm(gram - np.eye(model.k)) < 1e-6
        assert np.all(np.diff(model.s) <= 1e-12)
        assert np.all(model.s > 0)

    def test_determinism_for_fixed_seed(self):
        dense = np.random.default_rng(5).random((25, 15))
        a = train(_dummy_matrix(dense), k=6, seed=42)
        b = train(_dummy_matrix(dense), k=6, seed=42)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.v, b.v)

    def test_steep_spectrum_matches_dense_svd(self):
        # sigma_i = 10^(-0.45 i): sigma_22 / sigma_0 = 10^-9.9 sits above the
        # 1e-10 rank truncation and sigma_23 below it, so the kept count
        # cannot flip on rounding (a step of 10^-0.5 would put sigma_20
        # exactly on the threshold).
        rng = np.random.default_rng(12)
        left = np.linalg.qr(rng.standard_normal((300, 120)))[0]
        right = np.linalg.qr(rng.standard_normal((120, 120)))[0]
        dense = (left * 10.0 ** (-0.45 * np.arange(120))) @ right.T
        model = train(_dummy_matrix(dense), k=40)
        u_ref, s_ref, _ = np.linalg.svd(dense, full_matrices=False)
        assert model.k == 23
        assert np.max(np.abs(model.s - s_ref[:23]) / s_ref[:23]) < 1e-6
        assert np.max(subspace_angles(model.u[:, :10], u_ref[:, :10])) < 1e-9

    def test_reconstruction_error_non_increasing_in_k(self):
        rng = np.random.default_rng(9)
        dense = rng.random((40, 25))
        errors = []
        for k in (2, 5, 10, 15):
            model = train(_dummy_matrix(dense), k=k)
            approx = model.u @ np.diag(model.s) @ model.v.T
            errors.append(np.linalg.norm(dense - approx))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


def _parallel_cross_matrix() -> sp.spmatrix:
    corpus = make_parallel_corpus(200, SyntheticSpec(), seed=7)
    return build_cross_matrix(_tokens(corpus.source_docs), _tokens(corpus.target_docs)).matrix


def _random_sparse(m: int, n: int, seed: int) -> sp.spmatrix:
    return sp.random(m, n, density=0.4, random_state=np.random.default_rng(seed), format="csc")


def _rank_six() -> sp.spmatrix:
    rng = np.random.default_rng(6)
    return sp.csc_matrix(rng.standard_normal((60, 6)) @ rng.standard_normal((6, 40)))


def _pivot_entries(u: np.ndarray) -> np.ndarray:
    """Each column's largest-magnitude entry (the first, on a tie)."""
    return u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]


class TestSignConvention:
    """train's in-place sign fix gives the fancy-index flip's bits: the
    byte-identical model files rest on it."""

    @pytest.mark.parametrize(
        "make, k, kept",
        [
            (_rank_six, 10, 6),  # the rank truncation drops columns
            (lambda: _random_sparse(40, 30, 1), 29, 29),  # k = k_cap
            (_parallel_cross_matrix, 100, 100),
        ],
        ids=["truncated-rank", "k-cap", "parallel-cross"],
    )
    def test_matches_fancy_index_oracle(self, make, k, kept):
        a = make()
        factors = _randomized_svd(a, k, _OVERSAMPLE, _POWER_ITERATIONS, seed=42)
        u, s, v = fancy_index_sign_fix(*factors)
        vocab = Vocabulary([f"t{i:05d}" for i in range(a.shape[0])], [1] * a.shape[0], a.shape[1])
        model = train(TermDocMatrix(a, vocab), k, seed=42)
        assert model.k == kept
        assert np.array_equal(model.u, u) and np.array_equal(model.s, s)
        assert np.array_equal(model.v, v)
        assert np.all(_pivot_entries(model.u) > 0)
        flipped = _pivot_entries(factors[0][:, :kept]) < 0
        assert flipped.any() and not flipped.all()  # both branches taken

    def test_first_of_tied_entries_sets_the_sign(self, monkeypatch):
        # Columns 0 and 2 tie in |u| between a negative entry and a later
        # positive one, column 1 between a positive and a later negative one.
        u = np.array([[-0.5, 0.5, 0.25], [0.5, -0.5, -0.75], [0.25, 0.25, 0.75],
                      [0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        s = np.array([3.0, 2.0, 1.0])
        vt = np.arange(15.0).reshape(3, 5) - 7.0
        monkeypatch.setattr(
            "xling.lsi._randomized_svd", lambda *_: (u.copy(), s.copy(), vt.copy())
        )
        model = train(_dummy_matrix(np.eye(6, 5)), k=3)
        u_ref, s_ref, v_ref = fancy_index_sign_fix(u, s, vt)
        assert np.array_equal(model.u, u_ref) and np.array_equal(model.s, s_ref)
        assert np.array_equal(model.v, v_ref)
        assert np.array_equal(model.u[0], [0.5, 0.5, -0.25])
        assert np.array_equal(model.v[:, 0], 7.0 - np.arange(5.0))
        assert np.all(_pivot_entries(model.u) > 0)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_ties_and_zero_columns_match_the_oracle(self, data):
        # Few distinct magnitudes, so that a column's largest and most
        # negative entries often tie, and some columns are all (signed) zeros.
        k = data.draw(st.integers(min_value=1, max_value=5))
        column = st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
                          min_size=8, max_size=8)
        u = np.array(data.draw(st.lists(column, min_size=k, max_size=k))).T
        for j in data.draw(st.sets(st.integers(min_value=0, max_value=k - 1))):
            u[:, j] = np.copysign(0.0, u[:, j])
        s = np.arange(k, 0, -1.0)
        vt = np.arange(7.0 * k).reshape(k, 7) - 10.0
        fake = lambda *_: (u.copy(), s.copy(), vt.copy())  # noqa: E731
        with mock.patch("xling.lsi._randomized_svd", fake):
            model = train(_dummy_matrix(np.eye(8, 7)), k=k)
        u_ref, s_ref, v_ref = fancy_index_sign_fix(u, s, vt)
        for got, want in ((model.u, u_ref), (model.s, s_ref), (model.v, v_ref)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_train_peak_memory_stays_near_one_basis():
    # The range finder's dense m x (k + 10) block sets train's peak memory.
    # tracemalloc counts live allocations only: it cannot see whether a
    # freed block's memory is reused, which the two tests below pin.
    m, n, k = 6000, 400, 100
    a = sp.random(m, n, density=0.01, random_state=np.random.default_rng(3), format="csc")
    tdm = TermDocMatrix(a, Vocabulary([f"t{i:05d}" for i in range(m)], [1] * m, n))
    train(tdm, k)  # imports and first-call set-up are not counted
    tracemalloc.start()
    try:
        train(tdm, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    basis = 8 * m * (k + _OVERSAMPLE)
    assert peak < 1.5 * basis + a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


def test_every_term_side_product_writes_into_one_block(monkeypatch):
    # The power iterations' A @ V products, then Y, then U share one block,
    # and the model's U is the block itself, not a copy of it.
    outputs = []

    def recording(*args):
        outputs.append(_sparse_product(*args))
        return outputs[-1]

    monkeypatch.setattr("xling.lsi._sparse_product", recording)
    a = _parallel_cross_matrix()
    m = a.shape[0]
    vocab = Vocabulary([f"t{i:05d}" for i in range(m)], [1] * m, a.shape[1])
    model = train(TermDocMatrix(a, vocab), 100, seed=42)
    term_side = [out for out in outputs if out.shape[0] == m]
    assert len(term_side) == _POWER_ITERATIONS + 2
    y, u = term_side[-2:]
    assert y.shape == (m, 100 + _OVERSAMPLE) and u.shape == (m, 100)
    assert all(np.shares_memory(u, out) for out in term_side[:-1])
    assert np.shares_memory(model.u, y)


def _has_vm_hwm() -> bool:
    status = Path("/proc/self/status")
    return status.exists() and "VmHWM:" in status.read_text()


@pytest.mark.skipif(not _has_vm_hwm(), reason="needs VmHWM in /proc/self/status")
def test_train_raises_peak_rss_by_under_2_1_term_side_blocks():
    # A term-side block freed and allocated again can come from fresh heap,
    # which tracemalloc cannot see; the process's peak RSS can. Allocated
    # once for the whole SVD, the 12,000 x 310 block (under glibc's 32 MiB
    # mmap ceiling) raised VmHWM by 1.86-1.88 blocks; allocated per product,
    # by 2.40. The small train first loads the libraries.
    script = (
        "import numpy as np, scipy.sparse as sp\n"
        "from xling.lsi import train\n"
        "from xling.vsm import TermDocMatrix, Vocabulary\n"
        "def vm_hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "def matrix(m, n):\n"
        "    a = sp.random(m, n, density=0.01, random_state=np.random.default_rng(3),\n"
        "                  format='csc')\n"
        "    return TermDocMatrix(a, Vocabulary([f't{i:05d}' for i in range(m)], [1] * m, n))\n"
        "big = matrix(12000, 900)\n"
        "train(matrix(200, 60), 20)\n"
        "before = vm_hwm()\n"
        "train(big, 300)\n"
        "print(vm_hwm() - before)\n"
    )
    src = str(Path(xling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    growth_kib = int(out.stdout.split()[-1])
    block_kib = 12000 * (300 + _OVERSAMPLE) * 8 / 1024
    assert growth_kib < 2.1 * block_kib


class TestRangeFinderMatchesQrOracle:
    """One LU per power iteration spans what the all-QR loop spans."""

    oracle = staticmethod(qr_power_iteration_svd)

    @pytest.mark.parametrize(
        "make, k, oversample, power_iterations, compared",
        [
            (_parallel_cross_matrix, 100, 10, 2, 100),
            (lambda: _random_sparse(40, 30, 1), 29, 10, 2, 29),  # k = k_cap: square LU
            (lambda: _random_sparse(30, 80, 2), 10, 10, 2, 10),  # wide
            (_parallel_cross_matrix, 50, 10, 0, 50),
            (_rank_six, 10, 6, 2, 6),  # sketch 16 over a rank-6 range
        ],
        ids=["parallel-cross", "k-cap", "wide", "no-power-iterations", "rank-deficient"],
    )
    def test_factors_match(self, make, k, oversample, power_iterations, compared):
        a = make()
        u, s, _ = _randomized_svd(a, k, oversample, power_iterations, seed=42)
        u_ref, s_ref, _ = self.oracle(a, k, oversample, power_iterations, seed=42)
        assert u.shape == u_ref.shape and s.shape == s_ref.shape
        s, s_ref = s[:compared], s_ref[:compared]
        assert np.max(np.abs(s - s_ref) / s_ref) < 1e-12
        assert np.max(subspace_angles(u[:, :compared], u_ref[:, :compared])) < 1e-10


class TestRangeFinderMatchesLuHalfStepOracle(TestRangeFinderMatchesQrOracle):
    """It also spans what the loop LU-normalizing both blocks on every half step spans."""

    oracle = staticmethod(lu_half_step_svd)


class TestFinalBasisPath:
    """A well-conditioned sketch takes R from the Cholesky factor of the
    sketch-wide Gram matrix, and nothing on the term side is factored; a
    rank-deficient one, whose Gram matrix is singular, forms Q from a
    Householder QR of Y."""

    @pytest.fixture
    def lapack_calls(self, monkeypatch) -> list:
        """Each ``dgeqrt`` and ``dgemqrt`` call's name, with the shape of the
        block it factors (Y) or turns into Q (the identity)."""
        calls = []

        def counting(name, block):
            wrapped = getattr(scipy.linalg.lapack, name)

            def call(*args, **kwargs):
                calls.append((name, args[block].shape))
                return wrapped(*args, **kwargs)

            return call

        for name, block in (("dgeqrt", 1), ("dgemqrt", 2)):
            monkeypatch.setattr(scipy.linalg.lapack, name, counting(name, block))
        return calls

    def test_well_conditioned_sketch_forms_no_q(self, lapack_calls):
        u, s, _ = _randomized_svd(_parallel_cross_matrix(), 100, _OVERSAMPLE, 2, seed=42)
        assert lapack_calls == []
        assert u.shape[1] == 100 and np.all(np.diff(s) <= 0)
        assert np.max(np.abs(u.T @ u - np.eye(100))) <= 1e-12

    def test_sketch_near_the_floor_stays_orthonormal(self, lapack_calls):
        # Singular values over five decades put 1 / cond(R, 1) at about 8e-6,
        # within a decade of the floor, and every sketch column is kept.
        rng = np.random.default_rng(5)
        left = np.linalg.qr(rng.standard_normal((80, 40)))[0]
        right = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        dense = (left * np.logspace(0, -5, 40)) @ right.T
        u, s, _ = _randomized_svd(sp.csc_matrix(dense), 39, _OVERSAMPLE, 2, seed=1)
        assert lapack_calls == []
        assert np.max(np.abs(u.T @ u - np.eye(39))) <= 1e-10
        s_ref = np.linalg.svd(dense, compute_uv=False)[:39]
        assert np.max(np.abs(s - s_ref) / s_ref) < 1e-10

    def test_rank_deficient_sketch_forms_q(self, lapack_calls):
        a = _rank_six()
        u, s, vt = _randomized_svd(a, 10, 6, 2, seed=42)  # sketch 16 over a rank-6 range
        assert lapack_calls == [("dgeqrt", (60, 16)), ("dgemqrt", (60, 16))]
        u_ref, s_ref, vt_ref = np.linalg.svd(a.toarray(), full_matrices=False)
        assert np.max(np.abs(s[:6] - s_ref[:6]) / s_ref[:6]) < 1e-12
        assert np.max(subspace_angles(u[:, :6], u_ref[:, :6])) < 1e-10
        assert np.max(subspace_angles(vt[:6].T, vt_ref[:6].T)) < 1e-10


class TestCpuCountKeepsTheBits:
    """The sparse products cut their output rows into one range per CPU, and
    each row is summed by one thread: the factors' bits do not depend on the
    number of CPUs."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_product_equals_scipy_product(self, cpus, monkeypatch):
        monkeypatch.setattr("xling.lsi._available_cpus", lambda: cpus)
        kernel = sp._sparsetools.csr_matvecs
        calls = []

        def counting(*args):
            calls.append(args[0])  # the range's row count
            return kernel(*args)

        monkeypatch.setattr(sp._sparsetools, "csr_matvecs", counting)
        rng = np.random.default_rng(8)
        for a in (_parallel_cross_matrix(), _random_sparse(40, 300, 3)):
            for rows, by in ((a.tocsr(), a), (a.tocsc().T, a.T)):
                v = rng.standard_normal((rows.shape[1], 7))
                want = (by @ v).tobytes()
                calls.clear()
                assert _sparse_product(rows, v).tobytes() == want
                assert len(calls) == cpus and sum(calls) == rows.shape[0]
                # The kernel adds into its output, so a given one is zeroed first.
                buf = np.full((rows.shape[0], 7), np.nan)
                assert _sparse_product(rows, v, out=buf) is buf
                assert buf.tobytes() == want

    @pytest.mark.parametrize(
        "make, k, oversample",
        [(_parallel_cross_matrix, 100, 10), (_rank_six, 10, 6)],  # Gram path; Householder Q
        ids=["gram", "householder"],
    )
    def test_factors_equal_at_one_two_and_three_cpus(self, make, k, oversample, monkeypatch):
        a = make()
        factors = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr("xling.lsi._available_cpus", lambda: cpus)
            u, s, vt = _randomized_svd(a, k, oversample, _POWER_ITERATIONS, seed=42)
            factors.append(u.tobytes() + s.tobytes() + vt.tobytes())
        assert factors[0] == factors[1] == factors[2]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs an affinity mask of at least two CPUs",
)
def test_model_bytes_equal_on_one_cpu_and_on_every_cpu(tmp_path):
    # One BLAS thread in both processes: the BLAS thread count changes the
    # bits on its own, and OpenBLAS sizes its pool from the affinity mask.
    corpus = tmp_path / "c.jsonl"
    save_aligned_corpus(make_parallel_corpus(200, SyntheticSpec(), seed=7), corpus)
    script = (
        "import os, sys\n"
        "if sys.argv[1] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from xling import cli\n"
        "sys.exit(cli.main(['train', '--corpus', sys.argv[2], '--k', '50',"
        " '--output', sys.argv[3]]))\n"
    )
    src = str(Path(xling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for cpus in ("one", "every"):
        subprocess.run([sys.executable, "-c", script, cpus, str(corpus), str(tmp_path / cpus)],
                       env=env, capture_output=True, check=True)
    assert (tmp_path / "one").read_bytes() == (tmp_path / "every").read_bytes()


def test_householder_failure_raises_convergence_error(monkeypatch):
    def failing_dgeqrt(nb, a, overwrite_a=0):
        return a, np.zeros((nb, a.shape[1])), -2

    monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", failing_dgeqrt)
    with pytest.raises(ConvergenceError, match="LAPACK info -2"):
        _randomized_svd(_rank_six(), 10, 6, 1, seed=42)  # sketch 16 over a rank-6 range


def test_commands_other_than_train_leave_scipy_unloaded(tmp_path):
    # scipy costs every process that imports it about 18 MB and 0.25 s, and
    # only train builds a matrix, so only train loads it, and the thread pool
    # of its sparse products. A fresh process runs the other commands
    # in-process on a model trained here.
    spec = SyntheticSpec(n_topics=3, words_per_topic=10, common_words=3, doc_length=(20, 30))
    corpus, couples = tmp_path / "c.jsonl", make_parallel_corpus(20, spec, seed=4)
    save_aligned_corpus(couples, corpus)
    pairdirs = tmp_path / "raw"
    for lang, docs in (("en", couples.source_docs), ("ar", couples.target_docs)):
        (pairdirs / lang).mkdir(parents=True)
        for i, doc in enumerate(docs):
            (pairdirs / lang / f"{i:03d}.txt").write_text(doc.text, encoding="utf-8")
    dictionary = tmp_path / "d.tsv"
    dictionary.write_text(
        "".join(f"{w}\t{cipher_word(w)}\n" for w in source_vocabulary(spec)), encoding="utf-8"
    )
    model = tmp_path / "m.xlsm"
    assert cli.main(["train", "--corpus", str(corpus), "--k", "5", "--output", str(model)]) == 0
    commands = [
        *(["ingest", "--input", str(path), "--format", fmt,
           "--output", str(tmp_path / f"{fmt}.jsonl")]
          for path, fmt in ((corpus, "jsonl"), (pairdirs, "pairdirs"))),
        *(["score", "--corpus", str(corpus), "--dictionary", str(dictionary), "--measure", m,
           "--output", str(tmp_path / f"{m}.tsv")] for m in ("bin", "bincos", "oov", "match")),
        ["retrieve", "--model", str(model), "--corpus", str(corpus),
         "--output", str(tmp_path / "r.json")],
        ["eval", "--oracle", "--model", str(model), "--corpus", str(corpus)],
        ["align", "--model", str(model), "--corpus", str(corpus),
         "--output", str(tmp_path / "a.tsv")],
    ]
    train_again = ["train", "--corpus", str(corpus), "--k", "5",
                   "--output", str(tmp_path / "m2.xlsm")]
    script = (
        "import json, sys\n"
        "import xling, xling.cli\n"
        "def train_only_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent')))\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert xling.cli.main(argv) == 0, argv\n"
        "before_train = train_only_modules()\n"
        "assert xling.cli.main(json.loads(sys.argv[2])) == 0\n"
        "print(json.dumps([before_train, train_only_modules()]))\n"
    )
    src = str(Path(xling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands), json.dumps(train_again)],
        env=env, capture_output=True, text=True, check=True,
    )
    before_train, after_train = json.loads(out.stdout.splitlines()[-1])
    assert before_train == []
    assert {"scipy.sparse", "scipy.linalg"} <= set(after_train)
    assert (tmp_path / "m2.xlsm").read_bytes() == model.read_bytes()


class TestProject:
    def _model(self):
        docs = [["a", "b", "b"], ["b", "c"], ["a", "c", "d"], ["d", "e"]]
        return train(build_mono_matrix(docs), k=3)

    def test_zero_vector(self):
        model = self._model()
        out = project(np.zeros(len(model.vocabulary)), model)
        assert np.array_equal(out, np.zeros(model.k))
        assert np.array_equal(fold_in_many([[]], model, "target"), np.zeros((1, model.k)))

    def test_training_columns_reproduce_v_rows(self):
        docs = [["a", "b", "b"], ["b", "c"], ["a", "c", "d"], ["d", "e"]]
        tdm = build_mono_matrix(docs)
        model = train(tdm, k=3)
        for j in range(tdm.n_docs):
            out = project(tdm.column(j), model)
            assert np.max(np.abs(out - model.v[j])) < 1e-6

    def test_unseen_terms_only(self):
        model = self._model()
        out = fold_in_many([["zz", "qq"]], model, "target")
        assert np.array_equal(out, np.zeros((1, model.k)))

    def test_dimension_mismatch(self):
        model = self._model()
        with pytest.raises(DimensionMismatchError):
            project(np.ones(99), model)
        with pytest.raises(DimensionMismatchError):
            project(np.ones((1, len(model.vocabulary))), model)

    def test_linearity(self):
        model = self._model()
        size = len(model.vocabulary)
        rng = np.random.default_rng(1)
        u = rng.random(size)
        v = rng.random(size)
        left = project(2.5 * u + 0.5 * v, model)
        right = 2.5 * project(u, model) + 0.5 * project(v, model)
        assert np.max(np.abs(left - right)) < 1e-9


class TestEmbedCrosslingual:
    def _cross_model(self, n_pairs=40, k=10, seed=0):
        spec = SyntheticSpec(n_topics=5, words_per_topic=30, common_words=8,
                             doc_length=(60, 100), topic_alpha=0.2)
        corpus = make_parallel_corpus(n_pairs, spec, seed=seed)
        matrix = build_cross_matrix(_tokens(corpus.source_docs), _tokens(corpus.target_docs))
        return corpus, train(matrix, k=k)

    def test_wrong_language_terms_give_zero_embedding(self):
        _, model = self._cross_model()
        target_term = model.vocabulary.target.terms[0]
        out = fold_in_many([[target_term]], model, "source")
        assert np.array_equal(out, np.zeros((1, model.k)))

    def test_monolingual_model_rejected(self):
        model = train(build_mono_matrix([["a", "b"], ["b", "c"], ["a", "c"]]), k=2)
        with pytest.raises(ValueError):
            fold_in_many([["a"]], model, "source")

    def test_concatenated_couple_equals_column_projection(self):
        corpus, model = self._cross_model()
        src = _tokens(corpus.source_docs)
        tgt = _tokens(corpus.target_docs)
        vocab = model.vocabulary
        j = 7
        combined = np.zeros(len(vocab))
        for side, tokens in (("source", src[j]), ("target", tgt[j])):
            _, idx, val = vocab.vocab_for(side).weight_rows([tokens])
            combined[idx + vocab.offset_for(side)] = val
        assert np.max(np.abs(project(combined, model) - model.v[j])) < 1e-6

    def test_cipher_couples_nearly_parallel_embeddings(self):
        corpus, model = self._cross_model()
        src = fold_in_many(_tokens(corpus.source_docs), model, "source")
        tgt = fold_in_many(_tokens(corpus.target_docs), model, "target")
        sims = [_cosine(e, a) for e, a in zip(src, tgt)]
        assert min(sims) > 0.99

    def test_couple_closer_than_unrelated(self):
        spec = SyntheticSpec(n_topics=5, words_per_topic=30, common_words=5,
                             doc_length=(60, 100), topic_alpha=0.05)
        corpus = make_parallel_corpus(5, spec, seed=3)
        matrix = build_cross_matrix(_tokens(corpus.source_docs), _tokens(corpus.target_docs))
        model = train(matrix, k=4)
        src = fold_in_many(_tokens(corpus.source_docs), model, "source")
        tgt = fold_in_many(_tokens(corpus.target_docs), model, "target")
        for j in range(5):
            own = _cosine(src[j], tgt[j])
            for m in range(5):
                if m == j:
                    continue
                assert own > _cosine(src[j], tgt[m])


class TestModelPersistence:
    def _models(self):
        mono = train(build_mono_matrix([["a", "b"], ["b", "c"], ["a", "d"]]), k=2)
        spec = SyntheticSpec(n_topics=3, words_per_topic=10, common_words=4,
                             doc_length=(20, 30), topic_alpha=0.3)
        corpus = make_parallel_corpus(8, spec, seed=1)
        cross = train(
            build_cross_matrix(_tokens(corpus.source_docs), _tokens(corpus.target_docs)), k=4
        )
        return mono, cross

    @pytest.mark.parametrize("which", ["mono", "cross"])
    def test_round_trip_bit_identical(self, tmp_path, which):
        mono, cross = self._models()
        model = mono if which == "mono" else cross
        path = tmp_path / "m.xlsm"
        save_model(model, path)
        digest = hashlib.sha256()
        loaded = load_model(path, digest)
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert loaded.kind == model.kind
        assert np.array_equal(loaded.u, model.u)
        assert np.array_equal(loaded.s, model.s)
        assert np.array_equal(loaded.v, model.v)
        resaved = tmp_path / "m2.xlsm"
        save_model(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("layout", ["fortran", "column-sliced", "big-endian"])
    def test_factor_layout_does_not_change_the_bytes(self, tmp_path, layout):
        _, cross = self._models()
        u, s, v = cross.u, cross.s, cross.v
        if layout == "fortran":
            u, v = np.asfortranarray(u), np.asfortranarray(v)
        elif layout == "column-sliced":
            u = np.hstack([u, u])[:, : cross.k]
            v = np.hstack([v, v])[:, : cross.k]
        else:
            u, s, v = u.astype(">f8"), s.astype(">f8"), v.astype(">f8")
        save_model(cross, tmp_path / "c.xlsm")
        save_model(LsiModel(u, s, v, cross.vocabulary), tmp_path / "m.xlsm")
        blob = (tmp_path / "m.xlsm").read_bytes()
        assert blob == (tmp_path / "c.xlsm").read_bytes()
        factors = b"".join(f.astype("<f8").tobytes(order="C") for f in (u, s, v))
        assert blob.endswith(factors)

    def test_truncated_file(self, tmp_path):
        mono, _ = self._models()
        path = tmp_path / "m.xlsm"
        save_model(mono, path)
        path.write_bytes(path.read_bytes()[:-16])
        for digest in (None, hashlib.sha256()):
            with pytest.raises(CorruptModelError):
                load_model(path, digest)

    @pytest.mark.parametrize("cut", ["inside-u", "inside-s", "inside-v", "one-byte-appended"])
    def test_factor_block_size_checked(self, tmp_path, cut):
        _, cross = self._models()
        path = tmp_path / "c.xlsm"
        save_model(cross, path)
        blob = path.read_bytes()
        n, k, d = cross.u.shape[0], cross.k, cross.n_docs
        u_start = len(blob) - 8 * (n * k + k + d * k)
        s_start = u_start + 8 * n * k
        v_start = s_start + 8 * k
        damaged = {
            "inside-u": blob[: u_start + 8 * n * k // 2 + 3],
            "inside-s": blob[: s_start + 8 * (k // 2) + 5],
            "inside-v": blob[: v_start + 8 * d * k // 2],
            "one-byte-appended": blob + b"\0",
        }[cut]
        path.write_bytes(damaged)
        with pytest.raises(CorruptModelError, match="bytes, expected"):
            load_model(path)

    def test_short_factor_read_is_corrupt(self):
        with pytest.raises(CorruptModelError, match="ended inside a factor"):
            _read_factor(io.BytesIO(b"\0" * 20), (2, 2))

    @pytest.mark.parametrize("which", ["mono", "cross"])
    def test_loaded_factors_are_plain_float64_arrays(self, tmp_path, which):
        mono, cross = self._models()
        path = tmp_path / "m.xlsm"
        save_model(mono if which == "mono" else cross, path)
        loaded = load_model(path)
        for factor in (loaded.u, loaded.s, loaded.v):
            assert factor.dtype == np.float64 and factor.dtype.isnative
            assert factor.flags.c_contiguous and factor.flags.aligned
            assert factor.flags.writeable and factor.flags.owndata

    def test_version_mismatch_names_both_versions(self, tmp_path):
        mono, _ = self._models()
        path = tmp_path / "m.xlsm"
        save_model(mono, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError) as err:
            load_model(path)
        assert "2" in str(err.value) and "1" in str(err.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.xlsm"
        path.write_bytes(b"WHAT" + b"\0" * 100)
        with pytest.raises(CorruptModelError):
            load_model(path)

    # Each of these values once loaded, converted, as another.
    @pytest.mark.parametrize("key, value", [
        ("df", [2, 2, 1.9, 1]), ("df", ["2", 2, 1, 1]), ("df", [2, 2, True, 1]),
        ("n_docs", 3.5), ("terms", "abcd"), ("terms", {"a": 0, "b": 0, "c": 0, "d": 0}),
        ("df", [2**70, 2, 1, 1]),
    ], ids=["df float", "df string", "df bool", "n_docs float", "terms string",
            "terms object", "df past int64"])
    def test_vocabulary_block_types(self, tmp_path, key, value):
        mono, _ = self._models()
        path = tmp_path / "m.xlsm"
        save_model(mono, path)
        blob = path.read_bytes()
        *fields, size = _MODEL_HEADER.unpack_from(blob)
        start = _MODEL_HEADER.size
        block = json.loads(blob[start:start + size])
        assert block == {"mono": {"terms": ["a", "b", "c", "d"], "df": [2, 2, 1, 1], "n_docs": 3}}
        block["mono"][key] = value
        edited = json.dumps(block).encode("utf-8")
        path.write_bytes(_MODEL_HEADER.pack(*fields, len(edited)) + edited + blob[start + size:])
        with pytest.raises(CorruptModelError, match="invalid vocabulary block"):
            load_model(path)


class TestLsiModelValidation:
    def test_singular_value_order_enforced(self):
        vocab = Vocabulary(["a", "b"], [1, 1], 2)
        u = np.eye(2)
        with pytest.raises(ValueError):
            LsiModel(u, np.array([1.0, 2.0]), np.eye(2), vocab)

    def test_kind_follows_vocabulary(self):
        mono = Vocabulary(["a", "b"], [1, 1], 2)
        cross = CrossVocabulary(Vocabulary(["a"], [1], 2), Vocabulary(["b"], [1], 2))
        factors = (np.eye(2), np.array([2.0, 1.0]), np.eye(2))
        assert LsiModel(*factors, mono).kind == "monolingual"
        assert LsiModel(*factors, cross).kind == "crosslingual"
