"""Vocabulary, tfidf weighting and sparse term-document matrices.

Weighting is ``tf * ln(N/df)`` with raw in-document counts and no
smoothing, so a term present in every document weighs zero. It lives in
one place, ``Vocabulary.weights``: the matrices built here, the LSI
fold-in (:func:`xling.lsi.fold_in`) and ``bidict.dict_cosine`` all take
their weights from it, so it is the single place to swap weighting
variants.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EmptyCorpusError

__all__ = [
    "Vocabulary",
    "TermDocMatrix",
    "build_vocabulary",
    "build_term_doc_matrix",
]


class Vocabulary:
    """Term/index bijection plus the df statistics needed for tfidf.

    Indices are dense in ``[0, len(vocab))`` and assigned in lexicographic
    term order, so builds are reproducible byte for byte. ``idf[i]`` is
    ``ln(n_docs / df[i])``, computed once.
    """

    __slots__ = ("terms", "df", "n_docs", "idf", "_index")

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
        self.idf: np.ndarray = np.array(
            [math.log(self.n_docs / df) for df in self.df.tolist()], dtype=np.float64
        )

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def index(self, term: str) -> int:
        return self._index[term]

    def get(self, term: str) -> int | None:
        return self._index.get(term)

    def weights(self, tokens: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        """tfidf of a token list: ascending term indices and their non-zero
        ``tf * idf`` weights. Unseen terms are dropped."""
        index = self._index
        hits = sorted((index[t], tf) for t, tf in Counter(tokens).items() if t in index)
        idx = np.array([i for i, _ in hits], dtype=np.int64)
        val = np.array([tf for _, tf in hits], dtype=np.float64) * self.idf[idx]
        nonzero = val != 0.0
        return idx[nonzero], val[nonzero]

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


@dataclass(frozen=True)
class TermDocMatrix:
    """Sparse term-by-document weight matrix over a vocabulary."""

    matrix: sp.csc_matrix
    vocabulary: object  # Vocabulary or lsi.CrossVocabulary

    @property
    def n_terms(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_docs(self) -> int:
        return self.matrix.shape[1]

    def column(self, j: int) -> np.ndarray:
        """Document ``j`` as a dense vector over the vocabulary."""
        return self.matrix[:, [j]].toarray().ravel()


def build_term_doc_matrix(
    documents: Sequence[Sequence[str]], vocabulary: Vocabulary
) -> TermDocMatrix:
    """Stack the tfidf weights of each document as the columns of a sparse matrix."""
    if not documents:
        raise EmptyCorpusError("cannot build a matrix from zero documents")
    columns = [vocabulary.weights(tokens) for tokens in documents]
    indptr = np.cumsum([0] + [len(idx) for idx, _ in columns])
    matrix = sp.csc_matrix(
        (
            np.concatenate([val for _, val in columns]),
            np.concatenate([idx for idx, _ in columns]),
            indptr,
        ),
        shape=(len(vocabulary), len(documents)),
    )
    return TermDocMatrix(matrix, vocabulary)
