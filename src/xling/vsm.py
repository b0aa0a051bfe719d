"""Vocabulary, tfidf weighting and sparse term-document matrices.

Weighting is ``tf * ln(N/df)`` with raw in-document counts and no
smoothing, so a term present in every document weighs zero. It lives in
one place, ``Vocabulary._weigh``, which turns each document's term counts
into CSR rows. The counts come from one key ``row * stride + id`` per
token and ``np.unique`` (:func:`_count_terms`). A corpus side is token
lists, numbered by :func:`xling.textprep.index_words`, or the word ids of
:func:`xling.textprep.pipeline_ids`; ``_count_side`` counts it and takes
df from the same keys, for :func:`build_vocabulary` and
:func:`build_term_doc_matrix`. ``Vocabulary.weight_rows`` looks word ids up
once per distinct word, and token lists (the LSI fold-in's) once per token.

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
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyCorpusError
from .textprep import IndexedDocuments, index_words

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
        self, documents: Iterable[Sequence[str]] | IndexedDocuments
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """tfidf rows of a collection of token lists or word ids, in CSR layout.

        Returns ``(indptr, indices, data)``: row ``r`` holds the ascending
        term indices ``indices[indptr[r]:indptr[r + 1]]`` of document ``r``
        and their non-zero ``tf * idf`` weights. Unseen terms are dropped.
        Word ids are looked up once per distinct word. Token lists are read
        once, so a generator will do: one stream maps every token to its term
        index (``-1`` when unseen) straight into an array, recording each
        document's length. Counting and weighting are array operations.
        """
        if isinstance(documents, IndexedDocuments):
            term, lengths = _word_terms(documents, self._index)
        else:
            lookup = self._index.get
            lengths = []

            def term_ids():
                for tokens in documents:
                    lengths.append(len(tokens))
                    yield map(lookup, tokens, repeat(-1))

            term = np.fromiter(chain.from_iterable(term_ids()), dtype=np.int64)
        return self._weigh(*_count_terms(term, lengths, len(self.terms)), len(lengths))

    def _weigh(self, keys: np.ndarray, tf: np.ndarray, n_docs: int):
        """CSR rows of the counts :func:`_count_terms` gives over this vocabulary."""
        stride = max(len(self.terms), 1)
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


def _count_terms(term: np.ndarray, lengths: Sequence[int], n_terms: int):
    """Each document's distinct terms and their tf, from every token's term
    id (``-1`` is skipped) and every document's token count, as ascending
    keys ``row * max(n_terms, 1) + term`` and their counts."""
    stride = max(n_terms, 1)
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64) * stride,
                     np.array(lengths, dtype=np.int64))
    keys += term
    # With return_counts numpy sorts; numpy 2's plain unique hashes, ten times slower here.
    return np.unique(keys[term >= 0], return_counts=True)


def _word_terms(documents: IndexedDocuments, index: Mapping[str, int]):
    """:func:`_count_terms`'s inputs: every token's term id in ``index`` (``-1``
    when dropped or absent), looked up once per word, and each document's length."""
    term_of_word = np.fromiter(map(index.get, documents.terms, repeat(-1)), dtype=np.int64,
                               count=len(documents.terms))
    words = np.fromiter(chain.from_iterable(documents.ids), dtype=np.int64)
    return term_of_word[words], list(map(len, documents.ids))


def _count_side(documents: Sequence[Sequence[str]] | IndexedDocuments):
    """The vocabulary of one corpus side's kept terms, and the side's
    :func:`_count_terms` keys and tf. A term's df is the number of its keys."""
    if not isinstance(documents, IndexedDocuments):
        documents = index_words(documents)
    if not documents:
        raise EmptyCorpusError("cannot build a vocabulary from zero documents")
    terms = sorted(set(documents.terms) - {None})
    index = dict(zip(terms, range(len(terms))))
    keys, tf = _count_terms(*_word_terms(documents, index), len(terms))
    df = np.bincount(keys % max(len(terms), 1), minlength=len(terms))
    return Vocabulary(terms, df, len(documents)), keys, tf


def build_vocabulary(documents: Sequence[Sequence[str]] | IndexedDocuments) -> Vocabulary:
    """Build a vocabulary over one corpus side: token lists, or the word ids
    :func:`xling.textprep.pipeline_ids` gives.

    df counts the number of documents containing a term (duplicates within
    one document count once). An empty document list is an error; documents
    that are themselves empty are fine.
    """
    return _count_side(documents)[0]


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


def build_term_doc_matrix(documents: Sequence[Sequence[str]] | IndexedDocuments) -> TermDocMatrix:
    """The tfidf matrix of one corpus side, terms by documents, over
    :func:`build_vocabulary`'s vocabulary of the side."""
    vocabulary, keys, tf = _count_side(documents)
    import scipy.sparse as sp

    indptr, indices, data = vocabulary._weigh(keys, tf, vocabulary.n_docs)
    matrix = sp.csc_matrix((data, indices, indptr), shape=(len(vocabulary), vocabulary.n_docs))
    return TermDocMatrix(matrix, vocabulary)
