"""Truncated-SVD latent semantic indexing over term-document matrices.

Supports a monolingual space (one language's matrix) and a cross-lingual
space whose rows stack both languages' vocabularies and whose columns are
concatenated document couples: the two languages' monolingual matrices,
one above the other, each built by ``vsm.build_term_doc_matrix`` from a
side's token lists or word ids as given. A cross-lingual space holds both
sides, ``"source"`` and ``"target"``; a monolingual one holds only
``"target"``, the language queries are translated into. Unseen documents
enter a trained space by fold-in, ``v' = v^t U S^{-1}``:
:func:`fold_in_many` weights one side's token lists with that side's
``Vocabulary.weight_rows`` (shifted to its rows in a cross space) and
multiplies each row into the matching rows of ``U``.

The factorization is a randomized range-finder (Gaussian sketch, power
iterations that normalize each ``A^T A`` product with one LU and the last
with a QR, small-matrix SVD) so large sparse vocabularies stay cheap. That
QR gives an orthonormal document-side basis ``X``; the range sketch is
``Y = A X``, and ``R``, the Cholesky factor of the sketch-wide Gram matrix
``X^T A^T Y = Y^T Y``, makes ``Y R^-1`` orthonormal. ``Y R^-1`` is never
formed: triangular solves apply ``R``, and ``U`` is one sparse product,
``A (X W)``. Nothing on the term side is factored, and every term-side
product writes into one dense block, ``U`` last, over ``Y``. Each sparse
product runs on every CPU the process may use, one row range per thread,
and each row is summed by one thread in scipy's own order: the factors'
bits do not depend on the CPU count. Only when ``R``
is singular or ill-conditioned, as for a matrix whose rank is below the
sketch width, is ``Q`` formed from a blocked Householder QR of ``Y``. A
dense SVD oracle and the two range-finders it replaced (all-QR, and LU on
every half step) pin its correctness in the test suite. Swap
``_randomized_svd`` for an iterative solver if a different accuracy
profile is ever needed.

Only the matrix builders (``scipy.sparse``) and :func:`train`
(``scipy.linalg``) load scipy, inside the function: it costs a process
about 18 MB and 0.25 s, and only training needs it.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    CorruptModelError,
    DimensionMismatchError,
    EmptyCorpusError,
    VersionMismatchError,
)
from .textprep import IndexedDocuments, by_side
from .vsm import TermDocMatrix, Vocabulary, build_term_doc_matrix
from .vsm import build_vocabulary  # noqa: F401  (wrapped by name in perfbench/tracing.py)

__all__ = [
    "CrossVocabulary",
    "LsiModel",
    "build_mono_matrix",
    "build_cross_matrix",
    "train",
    "project",
    "fold_in_many",
    "save_model",
    "load_model",
    "DEFAULT_RANK",
]

# Default latent dimension. It is not a good one for comparable corpora: on
# tests/test_paper_claims.py's set-up (500 couples, 20 topics), held-out R@1
# read 0.78-0.84 at k 20, 0.16 at k 50 and 0.00 at k 300.
DEFAULT_RANK = 300

_RANK_TRUNCATION = 1e-10  # singular values below this times s[0] are dropped
_OVERSAMPLE = 10  # sketch columns beyond k
_POWER_ITERATIONS = 2  # A^T A products before the final basis
# The final basis is Y R^-1, with R the Cholesky factor of Y^T Y, when R's
# reciprocal 1-norm condition number is above this floor, else Q is formed.
# That basis loses orthogonality like kappa(R)^2 * u at worst (Fukaya et
# al., CholeskyQR2, 2014): about 1e-4 at the floor. After the power
# iterations X nearly aligns with A's right singular vectors, so Y^T Y is
# close to diagonal, where Cholesky is far more accurate than that bound;
# on 40 spectra falling 3 to 7 decades over 30 to 60 columns, |U^T U - I|
# grew like kappa(R) * u instead, at most 3.2e-11 above the floor. Full-rank
# sketches read far above it: 0.053 on the benchmark's train-cross matrices
# (seeds 777, 2718 and 1), 1.1e-4 to 1.7e-4 on criterion 3's gapped spectra.
# A sketch wider than A's rank gives a singular Y^T Y, and its Cholesky
# factorization fails, as on criterion 3's exact-rank matrices.
_RCOND_FLOOR = 1e-6
# Threads for the SVD's sparse products: one per CPU in the process's
# affinity mask, up to this cap. Only 1 and 2 CPUs were measured.
_MAX_PRODUCT_THREADS = 8


class CrossVocabulary:
    """Combined index over the source and the target vocabulary.

    Source terms occupy rows ``[0, len(source))``; target terms follow at
    an offset, so the two languages can never collide even when they share
    surface strings.
    """

    __slots__ = ("source", "target")

    def __init__(self, source: Vocabulary, target: Vocabulary):
        if source.n_docs != target.n_docs:
            raise ValueError(
                "per-side document counts differ: %d vs %d" % (source.n_docs, target.n_docs)
            )
        self.source = source
        self.target = target

    def __len__(self) -> int:
        return len(self.source) + len(self.target)

    def vocab_for(self, side: str) -> Vocabulary:
        return by_side(side, self.source, self.target)

    def offset_for(self, side: str) -> int:
        return by_side(side, 0, len(self.source))

    def to_dict(self) -> dict:
        # Format v1 keeps its two language keys, which the loaders of earlier
        # releases read, so that they still load these files. No reader uses
        # their values; these are the ones every ``xling train`` model holds.
        # A format version 2 may drop the keys.
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "source_language": "src",
            "target_language": "tgt",
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CrossVocabulary":
        return cls(Vocabulary.from_dict(payload["source"]), Vocabulary.from_dict(payload["target"]))


def build_mono_matrix(documents: Sequence[Sequence[str]] | IndexedDocuments) -> TermDocMatrix:
    """Term-document tfidf matrix over one language's token lists, or over
    the word ids :func:`xling.textprep.pipeline_ids` gives, which build the
    same matrix without a string per token.

    With a single document every df equals N, so the matrix is all zeros;
    that degenerate case is flagged with a warning.
    """
    if not documents:
        raise EmptyCorpusError("no documents")
    if len(documents) == 1:
        warnings.warn("single-document corpus: every tfidf weight is zero", stacklevel=2)
    return build_term_doc_matrix(documents)


def build_cross_matrix(
    source_documents: Sequence[Sequence[str]] | IndexedDocuments,
    target_documents: Sequence[Sequence[str]] | IndexedDocuments,
) -> TermDocMatrix:
    """Stacked-vocabulary matrix whose columns are concatenated couples.

    Each side is token lists or word ids, as for :func:`build_mono_matrix`.
    Document frequencies are computed over the concatenated pseudo-documents
    (a term's df is the number of couples whose own side contains it), so
    the matrix is the source side's monolingual matrix above the target's.
    """
    n_source, n_target = len(source_documents), len(target_documents)
    if not n_source or not n_target:
        raise EmptyCorpusError("no documents")
    if n_source != n_target:
        raise ValueError("couple counts differ: %d source vs %d target" % (n_source, n_target))
    if n_source == 1:
        warnings.warn("single-couple corpus: every tfidf weight is zero", stacklevel=2)
    source = build_term_doc_matrix(source_documents)
    target = build_term_doc_matrix(target_documents)
    import scipy.sparse as sp

    matrix = sp.vstack([source.matrix, target.matrix], format="csc")
    return TermDocMatrix(matrix, CrossVocabulary(source.vocabulary, target.vocabulary))


@dataclass(frozen=True)
class LsiModel:
    """Truncated SVD factors plus the vocabulary needed to fold in queries.

    ``u`` is term-by-k with orthonormal columns, ``s`` the positive singular
    values in descending order, ``v`` document-by-k. A ``CrossVocabulary``
    makes the model crosslingual.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    vocabulary: Vocabulary | CrossVocabulary

    def __post_init__(self):
        k = self.s.shape[0]
        if self.u.ndim != 2 or self.u.shape[1] != k or self.v.ndim != 2 or self.v.shape[1] != k:
            raise ValueError("factor shapes are inconsistent")
        if self.u.shape[0] != len(self.vocabulary):
            raise ValueError("u rows do not match the vocabulary size")
        if k and (np.any(self.s <= 0) or np.any(np.diff(self.s) > 1e-9 * self.s[0])):
            raise ValueError("singular values must be positive and descending")

    @property
    def kind(self) -> str:
        """``"crosslingual"`` or ``"monolingual"``, read off the vocabulary."""
        return "crosslingual" if isinstance(self.vocabulary, CrossVocabulary) else "monolingual"

    @property
    def k(self) -> int:
        return int(self.s.shape[0])

    @property
    def n_docs(self) -> int:
        return int(self.v.shape[0])


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _sparse_product(rows: sp.spmatrix, v: np.ndarray, out=None) -> np.ndarray:
    """``rows @ v`` for a CSR ``rows``, into ``out`` if given, cut into output
    row ranges of about equal nonzeros, one per thread. Each range zeroes its
    rows, then runs the CSR kernel that ``rows @ v`` calls, which releases the
    GIL and adds into them: every row is summed in the same order at any
    thread count."""
    from scipy.sparse import _sparsetools

    v = np.ascontiguousarray(v)  # else the kernel copies it in every range
    (m, n), width = rows.shape, v.shape[1]
    indptr, out = rows.indptr, np.empty((m, width)) if out is None else out

    def run(lo: int, hi: int) -> None:
        out[lo:hi] = 0.0
        _sparsetools.csr_matvecs(hi - lo, n, width, indptr[lo:hi + 1], rows.indices,
                                 rows.data, v, out[lo:hi])

    threads = min(_available_cpus(), _MAX_PRODUCT_THREADS)
    if threads == 1:
        run(0, m)
    else:
        from concurrent.futures import ThreadPoolExecutor

        cuts = np.searchsorted(indptr, indptr[-1] * np.arange(1, threads) / threads).tolist()
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(run, [0, *cuts], [*cuts, m]))
    return out


def _randomized_svd(
    a: sp.spmatrix,
    k: int,
    oversample: int,
    power_iterations: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Imported here, like scipy.sparse in the matrix builders: only training
    # needs it (see the module docstring).
    import scipy.linalg

    m, n = a.shape
    # A @ V reads a CSR copy of A; A's CSC arrays are A^T in CSR form.
    rows, cols = a.tocsr(), a.tocsc().T
    sketch = min(k + oversample, min(m, n))
    # Every A @ V product writes here: a block freed and allocated again may take fresh heap.
    y = np.empty((m, sketch))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, sketch))
    # The power iterations only need a basis of the same span, so one
    # permuted LU factor (no Q to form) of the document-side block
    # normalizes each A^T A product but the last, whose QR gives the
    # orthonormal X; Y = A X then spans what the all-QR loop's Y spans.
    for i in range(power_iterations):
        z = _sparse_product(cols, _sparse_product(rows, z, y))
        if i + 1 < power_iterations:
            z = scipy.linalg.lu(z, permute_l=True, check_finite=False)[0]
    x = scipy.linalg.qr(z, mode="economic", check_finite=False)[0]
    del z
    c = _sparse_product(cols, _sparse_product(rows, x, y))
    # Any R with Y R^-1 orthonormal will do (Halko, Martinsson & Tropp 2011,
    # Alg. 5.1): the Cholesky factor of the small Gram matrix
    # G = X^T A^T A X = Y^T Y. Then Q^T A = R^-T C^T and Q Ub = A X (R^-1 Ub),
    # so nothing on the term side is factored, and U overwrites Y.
    # R's reciprocal 1-norm condition number takes R^-1 from a triangular
    # inversion: about 1.3 ms at sketch 310, against 6 ms for numpy's cond.
    try:
        r = np.linalg.cholesky(x.T @ c).T
        r_inv, info = scipy.linalg.lapack.dtrtri(r)
        rcond = 1 / (np.linalg.norm(r, 1) * np.linalg.norm(r_inv, 1)) if info == 0 else 0.0
    except np.linalg.LinAlgError:  # G is singular: A's rank is below the sketch width
        rcond = 0.0
    if rcond > _RCOND_FLOOR:
        b = scipy.linalg.solve_triangular(r, c.T, trans="T", check_finite=False)
        del c
        ub, s, vt = np.linalg.svd(b, full_matrices=False)
        w = scipy.linalg.solve_triangular(r, ub[:, :k], check_finite=False)
        # A C-contiguous view: train copies nothing, and the model keeps Y's
        # m x 10 tail alive, 0.86 MB on train-cross.
        u = y.reshape(-1)[: m * w.shape[1]].reshape(m, -1)
        return _sparse_product(rows, x @ w, u), s[:k], vt[:k, :]
    # A singular or ill-conditioned R would spoil the basis's orthogonality,
    # so a blocked Householder QR of Y forms Q from its reflectors. dgeqrt
    # factors a Fortran copy of the C-ordered Y, whose block goes next,
    # Q overwrites the identity and the reflectors go before the next
    # product: at most two term-side blocks are alive at once.
    del x, c
    reflectors, t, info = scipy.linalg.lapack.dgeqrt(min(32, sketch), y)
    del y
    if info == 0:
        q = np.eye(m, sketch, order="F")
        q, info = scipy.linalg.lapack.dgemqrt(reflectors, t, q, overwrite_c=True)
    del reflectors, t
    if info != 0:
        raise ConvergenceError(
            f"Householder QR of the {m}x{sketch} range basis failed (LAPACK info {info})"
        )
    b = _sparse_product(cols, q).T
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return q @ ub[:, :k], s[:k], vt[:k, :]


def train(
    matrix: TermDocMatrix,
    k: int = DEFAULT_RANK,
    *,
    seed: int = 42,
) -> LsiModel:
    """Factorize a term-document matrix into a rank-``k`` LSI model.

    ``k`` is clamped to ``min(k, d - 1, |V| - 1)`` with a warning, and the
    effective rank shrinks further when trailing singular values fall below
    the rank-truncation threshold (they are never inverted). Deterministic
    for a fixed seed.
    """
    a = matrix.matrix
    if a.nnz == 0:
        raise ValueError("matrix has no nonzero entries (degenerate corpus?)")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_terms, n_docs = a.shape
    k_cap = min(n_docs - 1, n_terms - 1)
    if k_cap < 1:
        raise ValueError(f"matrix of shape {a.shape} is too small to factorize")
    if k > k_cap:
        warnings.warn(f"k={k} clamped to {k_cap} for a {n_terms}x{n_docs} matrix", stacklevel=2)
        k = k_cap

    u, s, vt = _randomized_svd(a, k, _OVERSAMPLE, _POWER_ITERATIONS, seed)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(s)) and np.all(np.isfinite(vt))):
        raise ConvergenceError("factorization produced non-finite values")

    keep = s > _RANK_TRUNCATION * (s[0] if len(s) else 0.0)
    if not keep.all():
        u, s, vt = u[:, keep], s[keep], vt[keep, :]

    # Fix the sign ambiguity so equal inputs give byte-equal factors: the
    # largest-magnitude entry of each left singular vector (the first, on a
    # tie) is positive. A column whose most negative entry is larger in
    # magnitude than its largest entry flips; only a column where the two
    # tie, an all-zero one included, needs the first-occurrence argmax.
    # x * -1.0 is -x bit for bit, so the flips happen in place.
    hi, lo = u.max(axis=0), u.min(axis=0)
    sign = np.where(-lo > hi, -1.0, 1.0)
    tie = np.flatnonzero(-lo == hi)
    if len(tie):
        pivot = np.argmax(np.abs(u[:, tie]), axis=0)
        sign[tie] = np.where(u[pivot, tie] < 0, -1.0, 1.0)
    u *= sign
    vt *= sign[:, None]

    return LsiModel(
        np.ascontiguousarray(u),
        np.ascontiguousarray(s),
        np.ascontiguousarray(vt.T),
        matrix.vocabulary,
    )


def project(doc_vector: np.ndarray, model: LsiModel) -> np.ndarray:
    """Fold a dense document vector into the LSI space: ``v' = v^t U S^{-1}``.

    For a training column ``j`` the result reproduces row ``j`` of ``V``.
    """
    arr = np.asarray(doc_vector, dtype=np.float64)
    if arr.shape != (model.u.shape[0],):
        raise DimensionMismatchError(
            f"vector shape {arr.shape} does not match |V|={model.u.shape[0]}"
        )
    return (arr @ model.u) / model.s


def fold_in_many(documents: Iterable[Sequence[str]], model: LsiModel, side: str) -> np.ndarray:
    """Fold a collection of one side's token lists into the LSI space, one row each.

    Row ``r`` is document ``r``'s tfidf weights times ``U S^{-1}``. ``side``
    is ``"source"`` or ``"target"``: a crosslingual model holds both, with the
    other language's coordinates zero, and a monolingual model holds only
    ``"target"``. A document with no weighted term folds to zero.
    """
    vocab, offset = model.vocabulary, 0
    if model.kind == "crosslingual":
        vocab, offset = vocab.vocab_for(side), vocab.offset_for(side)
    elif side != "target":
        raise ValueError(f"a monolingual model holds only side 'target', got {side!r}")
    indptr, idx, val = vocab.weight_rows(documents)
    idx += offset
    u = model.u
    folded = np.empty((len(indptr) - 1, model.k))
    # One product per row, written in place: a sparse-times-dense product
    # over the whole block would sum each row in a different order.
    for r, (a, b) in enumerate(zip(indptr[:-1].tolist(), indptr[1:].tolist())):
        np.matmul(val[a:b], u.take(idx[a:b], axis=0), out=folded[r])
    folded /= model.s
    return folded


# --------------------------------------------------------------------------
# Model persistence: magic, version, kind, k, vocabulary block, then U, S, V
# as little-endian 64-bit floats. Round trips are byte-exact. The loader
# checks the file's size against its header before reading any factor, then
# reads each factor straight into its own array: no copy of the whole file.
# --------------------------------------------------------------------------

_MODEL_MAGIC = b"XLSM"
_MODEL_VERSION = 1
# magic, version, kind, k, |V|, d, vocabulary-block length
_MODEL_HEADER = struct.Struct("<4sIBIQQQ")


def save_model(model: LsiModel, path: str | Path) -> None:
    kind_byte = 1 if model.kind == "crosslingual" else 0
    vocab_payload = {"cross" if kind_byte else "mono": model.vocabulary.to_dict()}
    vocab_blob = json.dumps(vocab_payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(_MODEL_HEADER.pack(_MODEL_MAGIC, _MODEL_VERSION, kind_byte, model.k,
                                    model.u.shape[0], model.v.shape[0], len(vocab_blob)))
        fh.write(vocab_blob)
        for factor in (model.u, model.s, model.v):
            fh.write(memoryview(np.ascontiguousarray(factor, dtype="<f8")))


def _read_factor(fh, shape: tuple[int, ...]) -> np.ndarray:
    """Read one little-endian factor straight into a fresh array; a short read is corrupt."""
    arr = np.empty(shape, dtype="<f8")
    got = fh.readinto(arr)
    if got != arr.nbytes:
        raise CorruptModelError(f"model file ended inside a factor ({got} of {arr.nbytes} bytes)")
    return arr


def load_model(path: str | Path, digest=None) -> LsiModel:
    """Load a model file; a damaged one raises :class:`CorruptModelError`.

    ``digest``, a ``hashlib`` object, is updated with the header, the
    vocabulary block and each factor in file order, so that a caller gets
    the file's hash without reading it twice.
    """
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_MODEL_HEADER.size)
        if len(head) < _MODEL_HEADER.size:
            raise CorruptModelError("model file too short for its header")
        magic, version, kind_byte, k, n_terms, n_docs, vocab_len = _MODEL_HEADER.unpack(head)
        if magic != _MODEL_MAGIC:
            raise CorruptModelError("not a model file (bad magic bytes)")
        if version != _MODEL_VERSION:
            raise VersionMismatchError(found=version, supported=_MODEL_VERSION)
        offset = len(head) + vocab_len
        vocab_blob = fh.read(vocab_len) if size >= offset else b""
        if len(vocab_blob) != vocab_len:
            raise CorruptModelError("model file truncated inside the vocabulary block")
        # ValueError covers UnicodeDecodeError, JSONDecodeError and an integer
        # past Python's 4,300-digit conversion limit.
        try:
            vocab_payload = json.loads(vocab_blob.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise CorruptModelError(f"unreadable vocabulary block: {exc}") from exc

        if kind_byte not in (0, 1):
            raise CorruptModelError(f"unknown model kind byte {kind_byte}")
        key = "cross" if kind_byte == 1 else "mono"
        if not isinstance(vocab_payload, dict) or list(vocab_payload) != [key]:
            raise CorruptModelError(
                f"kind byte {kind_byte} needs a vocabulary block with one {key!r} entry"
            )
        try:
            vocabulary = (CrossVocabulary if kind_byte == 1 else Vocabulary).from_dict(
                vocab_payload[key]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # a df past int64
            raise CorruptModelError(
                f"invalid vocabulary block ({type(exc).__name__}: {exc})"
            ) from exc
        if len(vocabulary) != n_terms:
            raise CorruptModelError("vocabulary size does not match the header")

        expected = offset + 8 * (n_terms * k + k + n_docs * k)
        if size != expected:
            raise CorruptModelError(f"model file has {size} bytes, expected {expected}")
        # The size check bounds every allocation by the file's own length.
        factors = [_read_factor(fh, shape) for shape in ((n_terms, k), (k,), (n_docs, k))]
    if digest is not None:
        for block in (head, vocab_blob, *factors):
            digest.update(block)
    u, s, v = (f.astype(np.float64, copy=False) for f in factors)
    try:
        return LsiModel(u, s, v, vocabulary)
    except ValueError as exc:
        raise CorruptModelError(f"inconsistent model factors: {exc}") from exc
