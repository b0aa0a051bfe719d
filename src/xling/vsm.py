"""Vocabulary, tfidf weighting and sparse term-document matrices.

Weighting is ``tf * ln(N/df)`` with raw in-document counts and no
smoothing, so a term present in every document weighs zero. It lives in
one place, ``Vocabulary.weight_rows``, which weights a whole collection of
token lists in one pass and returns CSR arrays: the matrices built here,
the LSI fold-in (:func:`xling.lsi.fold_in_many`) and
``bidict.dict_cosines`` all take their weights from it, so it is the single
place to swap weighting variants.

The idf of a term is ``math.log(n_docs / df)`` in double precision, the
same bits as one ``math.log`` per term, but evaluated once per distinct df:
a vocabulary has thousands of terms and few distinct dfs, and a loaded
model rebuilds its vocabularies on every query command. ``np.log`` is not
used, because its bits may differ from ``math.log``'s.

Only :func:`build_term_doc_matrix` loads ``scipy.sparse``, inside the
function: only training builds a matrix (see :mod:`xling.lsi`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

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
    ``math.log(n_docs / df[i])``, computed once per distinct df (see the
    module docstring).
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
        self._index = dict(zip(self.terms, range(len(self.terms))))
        if len(self._index) != len(self.terms):
            raise ValueError("duplicate terms")
        dfs = self.df.tolist()
        log_of = {df: math.log(self.n_docs / df) for df in set(dfs)}
        self.idf: np.ndarray = np.array([log_of[df] for df in dfs], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def index(self, term: str) -> int:
        return self._index[term]

    def get(self, term: str) -> int | None:
        return self._index.get(term)

    def weight_rows(
        self, documents: Iterable[Sequence[str]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """tfidf rows of a collection of token lists, in CSR layout.

        Returns ``(indptr, indices, data)``: row ``r`` holds the ascending
        term indices ``indices[indptr[r]:indptr[r + 1]]`` of document ``r``
        and their non-zero ``tf * idf`` weights. Unseen terms are dropped.
        ``documents`` is read once, so a generator will do. One stream maps
        every token of the collection to its term index (``-1`` when
        unseen) straight into an array, recording each document's length
        as it passes; the counting and weighting are array operations over
        the whole collection.
        """
        lookup = self._index.get
        lengths: list[int] = []

        def term_ids():
            for tokens in documents:
                lengths.append(len(tokens))
                yield map(lookup, tokens, repeat(-1))

        term = np.fromiter(chain.from_iterable(term_ids()), dtype=np.int64)
        n_docs = len(lengths)
        # One key per seen token, row * stride + term: equal keys are one
        # term's occurrences in one document, and sorted keys ascend by row,
        # then by term.
        stride = max(len(self.terms), 1)
        keys = np.repeat(np.arange(n_docs, dtype=np.int64) * stride,
                         np.array(lengths, dtype=np.int64))
        keys += term
        keys = keys[term >= 0]
        keys, tf = np.unique(keys, return_counts=True)
        term = keys % stride
        data = tf * self.idf[term]
        nonzero = data != 0.0
        keys, term, data = keys[nonzero], term[nonzero], data[nonzero]
        indptr = np.searchsorted(keys, np.arange(n_docs + 1, dtype=np.int64) * stride)
        return indptr, term, data

    def to_dict(self) -> dict:
        return {"terms": list(self.terms), "df": self.df.tolist(), "n_docs": self.n_docs}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Vocabulary":
        """The inverse of :meth:`to_dict`. ``terms`` must be a list of str,
        ``df`` a list of int and ``n_docs`` an int, as written; another type
        raises TypeError instead of being converted. The element tests map
        ``type`` over each list, with no per-term Python loop."""
        terms, df, n_docs = payload["terms"], payload["df"], payload["n_docs"]
        if not (type(terms) is list and set(map(type, terms)) <= {str}
                and type(df) is list and set(map(type, df)) <= {int} and type(n_docs) is int):
            raise TypeError("terms must be a list of strings, df a list of integers"
                            " and n_docs an integer")
        return cls(terms, df, n_docs)


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
    import scipy.sparse as sp

    indptr, indices, data = vocabulary.weight_rows(documents)
    matrix = sp.csc_matrix(
        (data, indices, indptr), shape=(len(vocabulary), len(documents))
    )
    return TermDocMatrix(matrix, vocabulary)
