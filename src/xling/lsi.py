"""Truncated-SVD latent semantic indexing over term-document matrices.

Supports a monolingual space (one language's matrix) and a cross-lingual
space whose rows stack both languages' vocabularies and whose columns are
concatenated document couples: the two languages' monolingual matrices,
one above the other. A cross-lingual space holds both sides, ``"source"``
and ``"target"``; a monolingual one holds only ``"target"``, the language
queries are translated into. Unseen documents enter a trained space by
fold-in, ``v' = v^t U S^{-1}``: :func:`fold_in_many` weights one side's
token lists with that side's ``Vocabulary.weight_rows`` (shifted to its rows
in a cross space) and multiplies each row into the matching rows of ``U``.

The factorization is a randomized range-finder (Gaussian sketch, power
iterations with one LU normalization per ``A^T A`` product, small-matrix
SVD) so large sparse vocabularies stay cheap. The final basis is
``Y R^-1``, with ``R`` from a blocked Householder QR of the range sketch
``Y``, applied by triangular solves; the orthonormal ``Q`` is formed from the
reflectors only when ``R`` is ill-conditioned, as for a matrix whose rank is
below the sketch width. A dense SVD oracle and the two range-finders it
replaced (all-QR, and LU on every half step) pin its correctness in the
test suite. Swap ``_randomized_svd`` for an iterative solver if a
different accuracy profile is ever needed.

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
from .vsm import TermDocMatrix, Vocabulary, build_term_doc_matrix, build_vocabulary

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

# Default latent dimension; retrieval quality plateaus in the low hundreds.
DEFAULT_RANK = 300

_RANK_TRUNCATION = 1e-10  # singular values below this times s[0] are dropped
_OVERSAMPLE = 10  # sketch columns beyond k
_POWER_ITERATIONS = 2  # A^T A products before the final basis
# The final basis is Y R^-1 when R's reciprocal 1-norm condition number is
# above this floor, else Q is formed. Y R^-1 loses orthogonality like
# kappa(R) * u (Fukaya et al., CholeskyQR2, 2014), so the floor keeps
# |U^T U - I| near 1e-10 at worst. Full-rank sketches read above it (about
# 1e-4 on the benchmark's train-cross matrices, 8e-6 to 2e-5 on criterion
# 3's gapped spectra); one wider than A's rank reads about 1e-17, or 0 when R
# is exactly singular.
_RCOND_FLOOR = 1e-6


class CrossVocabulary:
    """Combined index over two vocabularies with per-term language tags.

    Source terms occupy rows ``[0, len(source))``; target terms follow at
    an offset, so the two languages can never collide even when they share
    surface strings.
    """

    __slots__ = ("source", "target", "source_language", "target_language")

    def __init__(
        self,
        source: Vocabulary,
        target: Vocabulary,
        source_language: str = "src",
        target_language: str = "tgt",
    ):
        if source.n_docs != target.n_docs:
            raise ValueError(
                "per-side document counts differ: %d vs %d" % (source.n_docs, target.n_docs)
            )
        self.source = source
        self.target = target
        self.source_language = source_language
        self.target_language = target_language

    def __len__(self) -> int:
        return len(self.source) + len(self.target)

    def vocab_for(self, side: str) -> Vocabulary:
        if side == "source":
            return self.source
        if side == "target":
            return self.target
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")

    def offset_for(self, side: str) -> int:
        self.vocab_for(side)  # rejects an unknown side
        return 0 if side == "source" else len(self.source)

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "source_language": self.source_language,
            "target_language": self.target_language,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CrossVocabulary":
        return cls(
            Vocabulary.from_dict(payload["source"]),
            Vocabulary.from_dict(payload["target"]),
            payload["source_language"],
            payload["target_language"],
        )


def build_mono_matrix(documents: Sequence[Sequence[str]]) -> TermDocMatrix:
    """Term-document tfidf matrix over one language's token lists.

    With a single document every df equals N, so the matrix is all zeros;
    that degenerate case is flagged with a warning.
    """
    if not documents:
        raise EmptyCorpusError("no documents")
    if len(documents) == 1:
        warnings.warn("single-document corpus: every tfidf weight is zero", stacklevel=2)
    vocabulary = build_vocabulary(documents)
    return build_term_doc_matrix(documents, vocabulary)


def build_cross_matrix(
    source_documents: Sequence[Sequence[str]],
    target_documents: Sequence[Sequence[str]],
    source_language: str = "src",
    target_language: str = "tgt",
) -> TermDocMatrix:
    """Stacked-vocabulary matrix whose columns are concatenated couples.

    Document frequencies are computed over the concatenated pseudo-documents
    (a term's df is the number of couples whose own side contains it), so
    the matrix is the source side's monolingual matrix above the target's.
    """
    if not source_documents or not target_documents:
        raise EmptyCorpusError("no documents")
    if len(source_documents) != len(target_documents):
        raise ValueError(
            "couple counts differ: %d source vs %d target"
            % (len(source_documents), len(target_documents))
        )
    if len(source_documents) == 1:
        warnings.warn("single-couple corpus: every tfidf weight is zero", stacklevel=2)
    vocabulary = CrossVocabulary(
        build_vocabulary(source_documents),
        build_vocabulary(target_documents),
        source_language,
        target_language,
    )
    import scipy.sparse as sp

    matrix = sp.vstack(
        [
            build_term_doc_matrix(source_documents, vocabulary.source).matrix,
            build_term_doc_matrix(target_documents, vocabulary.target).matrix,
        ],
        format="csc",
    )
    return TermDocMatrix(matrix, vocabulary)


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
    sketch = min(k + oversample, min(m, n))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, sketch))
    # The power iterations only need a basis of the same span, so one
    # permuted LU factor (no Q to form) of the document-side block
    # normalizes each A^T A product; Y = A (A^T A)^q Omega then spans what
    # the all-QR loop spans.
    for _ in range(power_iterations):
        z = scipy.linalg.lu(a.T @ (a @ z), permute_l=True, check_finite=False)[0]
    y = a @ z
    del z
    # A blocked Householder QR gives Y = Q R; only R is needed when it is
    # well-conditioned: Q^T A = R^-T (A^T Y)^T and Q Ub = Y (R^-1 Ub), so the
    # m x sketch Q is never formed (Halko, Martinsson & Tropp 2011, Alg. 5.1).
    # dgeqrt factors a Fortran copy of the C-ordered Y, which stays alive.
    reflectors, t, info = scipy.linalg.lapack.dgeqrt(min(32, sketch), y)
    r = np.triu(reflectors[:sketch])
    # numpy's cond inverts R (about 8 ms at sketch 310) and reads a singular
    # R as inf, so 1 / cond is 0 there.
    if info == 0 and 1 / np.linalg.cond(r, 1) > _RCOND_FLOOR:
        # At most two m x sketch blocks are alive at once: Y with the
        # reflectors, which go before any product, then Y with U.
        del reflectors, t
        b = scipy.linalg.solve_triangular(r, (a.T @ y).T, trans="T", check_finite=False)
        ub, s, vt = np.linalg.svd(b, full_matrices=False)
        w = scipy.linalg.solve_triangular(r, ub[:, :k], check_finite=False)
        return y @ w, s[:k], vt[:k, :]
    # A singular or ill-conditioned R (an exact-rank A of rank below the
    # sketch width) would spoil Y R^-1's orthogonality, so Q is formed from
    # the reflectors. Y goes first, Q overwrites the identity and the
    # reflectors go before the next product: again at most two blocks.
    del y
    if info == 0:
        q = np.eye(m, sketch, order="F")
        q, info = scipy.linalg.lapack.dgemqrt(reflectors, t, q, overwrite_c=True)
    del reflectors, t
    if info != 0:
        raise ConvergenceError(
            f"Householder QR of the {m}x{sketch} range basis failed (LAPACK info {info})"
        )
    b = (a.T @ q).T
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
        try:
            vocab_payload = json.loads(vocab_blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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
        except (KeyError, TypeError, ValueError) as exc:
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
