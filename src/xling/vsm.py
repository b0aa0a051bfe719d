"""Vocabulary, tfidf weighting and sparse term-document matrices.

Weighting is ``tf * ln(N/df)`` with raw in-document counts and no
smoothing, so a term present in every document weighs zero. It lives in
one place, ``Vocabulary.weight_rows``, which weights a whole collection of
token lists in one pass and returns CSR arrays: the matrices built here,
the LSI fold-in (:func:`xling.lsi.fold_in_many`) and
``bidict.dict_cosines`` all take their weights from it, so it is the single
place to swap weighting variants.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
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

    def weight_rows(
        self, documents: Iterable[Iterable[str]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """tfidf rows of a collection of token lists, in CSR layout.

        Returns ``(indptr, indices, data)``: row ``r`` holds the ascending
        term indices ``indices[indptr[r]:indptr[r + 1]]`` of document ``r``
        and their non-zero ``tf * idf`` weights. Unseen terms are dropped.
        One Python pass maps each token to its term index (``-1`` when
        unseen), one document at a time; the counting and weighting are
        array operations over the whole collection.
        """
        lookup = self._index.get
        ids = array("q")
        ends = [0]
        for tokens in documents:
            ids.extend(map(lookup, tokens, repeat(-1)))
            ends.append(len(ids))
        term = np.frombuffer(ids, dtype=np.int64) if ids else np.zeros(0, dtype=np.int64)
        # One key per seen token, row * stride + term: equal keys are one
        # term's occurrences in one document, and sorted keys ascend by row,
        # then by term.
        stride = max(len(self.terms), 1)
        keys = np.repeat(np.arange(len(ends) - 1, dtype=np.int64) * stride, np.diff(ends))
        keys += term
        keys = keys[term >= 0]
        keys, tf = np.unique(keys, return_counts=True)
        term = keys % stride
        data = tf * self.idf[term]
        nonzero = data != 0.0
        keys, term, data = keys[nonzero], term[nonzero], data[nonzero]
        indptr = np.searchsorted(keys, np.arange(len(ends), dtype=np.int64) * stride)
        return indptr, term, data

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
    """Stack the tfidf rows of the documents as the columns of a sparse matrix."""
    if not documents:
        raise EmptyCorpusError("cannot build a matrix from zero documents")
    indptr, indices, data = vocabulary.weight_rows(documents)
    matrix = sp.csc_matrix(
        (data, indices, indptr), shape=(len(vocabulary), len(documents))
    )
    return TermDocMatrix(matrix, vocabulary)
