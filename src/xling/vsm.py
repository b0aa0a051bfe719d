"""Vocabulary, tfidf weighting and sparse document vectors.

Weighting is ``tf * ln(N/df)`` with raw in-document counts and no
smoothing, so a term present in every document weighs zero. This function
is the single place to swap weighting variants.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EmptyCorpusError, WeightDomainError

__all__ = [
    "Vocabulary",
    "DocVector",
    "TermDocMatrix",
    "build_vocabulary",
    "tfidf_weight",
    "vectorize",
    "build_term_doc_matrix",
]


class Vocabulary:
    """Term/index bijection plus the df statistics needed for tfidf.

    Indices are dense in ``[0, len(vocab))`` and assigned in lexicographic
    term order, so builds are reproducible byte for byte.
    """

    __slots__ = ("terms", "df", "n_docs", "_index")

    def __init__(self, terms: Sequence[str], df: Sequence[int], n_docs: int):
        self.terms: tuple[str, ...] = tuple(terms)
        self.df: np.ndarray = np.asarray(df, dtype=np.int64)
        self.n_docs = int(n_docs)
        if len(self.terms) != len(self.df):
            raise ValueError("terms and df lengths differ")
        if self.n_docs < 1:
            raise ValueError("n_docs must be >= 1")
        if len(self.df) and (self.df.min() < 1 or self.df.max() > self.n_docs):
            raise ValueError("df values must lie in [1, n_docs]")
        self._index = {t: i for i, t in enumerate(self.terms)}
        if len(self._index) != len(self.terms):
            raise ValueError("duplicate terms")

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def index(self, term: str) -> int:
        return self._index[term]

    def get(self, term: str) -> int | None:
        return self._index.get(term)

    def idf(self, term_index: int) -> float:
        return math.log(self.n_docs / self.df[term_index])

    def to_dict(self) -> dict:
        return {"terms": list(self.terms), "df": self.df.tolist(), "n_docs": self.n_docs}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Vocabulary":
        return cls(payload["terms"], payload["df"], payload["n_docs"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self.terms == other.terms
            and self.n_docs == other.n_docs
            and np.array_equal(self.df, other.df)
        )


def build_vocabulary(documents: Sequence[Sequence[str]]) -> Vocabulary:
    """Build a vocabulary over tokenized documents.

    df counts the number of documents containing a term (duplicates within
    one document count once). An empty document list is an error; documents
    that are themselves empty are fine.
    """
    if not documents:
        raise EmptyCorpusError("cannot build a vocabulary from zero documents")
    df: Counter = Counter()
    for doc in documents:
        df.update(set(doc))
    terms = sorted(df)
    return Vocabulary(terms, [df[t] for t in terms], len(documents))


def tfidf_weight(tf: int, df: int, n_docs: int) -> float:
    """``tf * ln(N/df)``; zero iff tf is zero or the term is ubiquitous."""
    if tf < 0:
        raise WeightDomainError(f"tf must be >= 0, got {tf}")
    if df > n_docs:
        raise WeightDomainError(f"df {df} exceeds document count {n_docs}")
    if tf == 0:
        return 0.0
    if df == 0:
        raise WeightDomainError("df is 0 for a term with tf > 0")
    return tf * math.log(n_docs / df)


@dataclass(frozen=True)
class DocVector:
    """Sparse vector: sorted unique indices with finite weights."""

    indices: np.ndarray
    values: np.ndarray
    size: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices/values must be 1-D and equally sized")
        if len(idx) and (np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= self.size):
            raise ValueError("indices must be strictly increasing and within range")
        if not np.all(np.isfinite(val)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def empty(cls, size: int) -> "DocVector":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), size)

    @classmethod
    def from_mapping(cls, weights: Mapping[int, float], size: int) -> "DocVector":
        items = sorted(weights.items())
        idx = np.array([i for i, _ in items], dtype=np.int64)
        val = np.array([v for _, v in items], dtype=np.float64)
        return cls(idx, val, size)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.size, dtype=np.float64)
        dense[self.indices] = self.values
        return dense


def vectorize(tokens: Iterable[str], vocabulary: Vocabulary) -> DocVector:
    """tfidf vector of a token list; unseen terms are dropped."""
    counts: Counter = Counter(tokens)
    weights: dict[int, float] = {}
    for term, tf in counts.items():
        i = vocabulary.get(term)
        if i is None:
            continue
        w = tfidf_weight(tf, int(vocabulary.df[i]), vocabulary.n_docs)
        if w != 0.0:
            weights[i] = w
    return DocVector.from_mapping(weights, len(vocabulary))


@dataclass(frozen=True)
class TermDocMatrix:
    """Sparse term-by-document weight matrix over a vocabulary."""

    matrix: sp.csc_matrix
    vocabulary: object  # Vocabulary or lsi.CrossVocabulary
    weighting: str = "tf*ln(N/df)"

    @property
    def n_terms(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_docs(self) -> int:
        return self.matrix.shape[1]

    def column(self, j: int) -> DocVector:
        col = self.matrix.getcol(j).tocoo()
        order = np.argsort(col.row)
        return DocVector(col.row[order].astype(np.int64), col.data[order], self.n_terms)


def build_term_doc_matrix(
    documents: Sequence[Sequence[str]], vocabulary: Vocabulary
) -> TermDocMatrix:
    """Stack tfidf document vectors as columns of a sparse matrix."""
    if not documents:
        raise EmptyCorpusError("cannot build a matrix from zero documents")
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for j, tokens in enumerate(documents):
        vec = vectorize(tokens, vocabulary)
        rows.append(vec.indices)
        cols.append(np.full(vec.nnz, j, dtype=np.int64))
        data.append(vec.values)
    matrix = sp.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(vocabulary), len(documents)),
    )
    return TermDocMatrix(matrix, vocabulary)
