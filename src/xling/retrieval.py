"""Top-n retrieval, retrieval pipelines, corpus alignment and evaluation.

Queries are independent, candidate collections are read-only, and every
ranking breaks similarity ties by ascending candidate id, so all outputs
are deterministic for fixed inputs.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bidict import BilingualDictionary
from .corpus import AlignedCorpus, Document
from .errors import (
    DimensionMismatchError,
    EmptyCandidatesError,
    MalformedRecordError,
    MissingGoldError,
    SelfTestError,
    TranslationError,
)
# The pipelines fold whole collections with fold_in_many; the per-document
# embed_crosslingual stays importable from here, where perfbench/tracing.py
# wraps it.
from .lsi import LsiModel, embed_crosslingual, fold_in_many  # noqa: F401
from .textprep import tokenize

__all__ = [
    "RankedList",
    "AlignmentPair",
    "EvalReport",
    "TranslationProvider",
    "IdentityProvider",
    "DictionaryProvider",
    "FileCacheProvider",
    "Embeddings",
    "retrieve",
    "project_documents",
    "embed_documents",
    "retrieve_ar_lsi",
    "retrieve_cl_lsi",
    "align_corpora",
    "recall_at_k",
    "evaluate_retrieval",
    "alignment_report",
    "oracle_experiment",
    "gold_mapping",
    "write_ranked_lists_json",
    "write_alignment_tsv",
    "write_report_json",
    "write_histogram_csv",
    "write_ranges_csv",
]


@dataclass(frozen=True)
class RankedList:
    """Candidates for one query, descending by similarity.

    Ties are broken by ascending candidate id. ``skipped`` marks queries the
    pipeline could not score (e.g. a translation-provider failure).
    """

    query_id: str
    entries: tuple[tuple[str, float], ...]
    skipped: bool = False

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for (id_a, sim_a), (id_b, sim_b) in zip(self.entries, self.entries[1:]):
            if sim_b > sim_a or (sim_b == sim_a and id_b <= id_a):
                raise ValueError("entries must descend by similarity, ties ascending by id")

    def candidate_ids(self) -> list[str]:
        return [cid for cid, _ in self.entries]


@dataclass(frozen=True)
class AlignmentPair:
    """One aligned couple: best target for a source within a group."""

    source_id: str
    target_id: str
    similarity: float
    group_key: str | None = None

    def __post_init__(self):
        if abs(self.similarity) > 1.0 + 1e-9:
            raise ValueError(f"similarity {self.similarity} outside [-1, 1]")
        object.__setattr__(self, "similarity", float(min(1.0, max(-1.0, self.similarity))))


@dataclass
class EvalReport:
    """Recall, hit flags, per-group similarity ranges and a histogram."""

    query_count: int
    recall: dict[int, float] = field(default_factory=dict)
    hits: dict[int, tuple[bool, ...]] = field(default_factory=dict)
    sim_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    histogram: dict[str, int] = field(default_factory=dict)
    accuracy: float | None = None
    correct_count: int | None = None


# --------------------------------------------------------------------------
# Translation providers (the monolingual pipeline needs one)
# --------------------------------------------------------------------------


class TranslationProvider:
    """Interface: deterministic document translation."""

    def translate(self, document: Document, target_language: str) -> Document:
        raise NotImplementedError


class IdentityProvider(TranslationProvider):
    """Returns the document unchanged (simulates a perfect translator when
    source and target corpora share a language)."""

    def translate(self, document: Document, target_language: str) -> Document:
        return dataclasses.replace(document, language=target_language)


class DictionaryProvider(TranslationProvider):
    """Word-for-word translation through a bilingual dictionary.

    Each token maps to the lexicographically smallest translation of its
    synsets; out-of-vocabulary tokens pass through unchanged.
    """

    def __init__(self, dictionary: BilingualDictionary):
        self.dictionary = dictionary

    def translate(self, document: Document, target_language: str) -> Document:
        words = []
        for word in tokenize(document.text):
            options = self.dictionary.translations(word, "source")
            words.append(min(options) if options else word)
        text = " ".join(words)
        return dataclasses.replace(
            document, language=target_language, text=text, degenerate=not text
        )


class FileCacheProvider(TranslationProvider):
    """Looks translations up in a JSONL cache keyed by document id."""

    def __init__(self, path: str | Path):
        self._cache: dict[str, str] = {}
        with Path(path).open("r", encoding="utf-8") as fh:
            for line_number, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecordError(line_number, f"invalid JSON: {exc}") from exc
                if not isinstance(record, dict) or "id" not in record or "text" not in record:
                    raise MalformedRecordError(line_number, "record needs 'id' and 'text'")
                if not isinstance(record["text"], str):
                    raise MalformedRecordError(line_number, "'text' must be a string")
                self._cache[str(record["id"])] = record["text"]

    def translate(self, document: Document, target_language: str) -> Document:
        text = self._cache.get(document.id)
        if text is None:
            raise TranslationError(f"no cached translation for document {document.id!r}")
        return dataclasses.replace(
            document, language=target_language, text=text, degenerate=not text
        )


# --------------------------------------------------------------------------
# Ranking
# --------------------------------------------------------------------------


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.sqrt((matrix * matrix).sum(axis=1))[:, None]
    return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)


class Embeddings:
    """Document vectors scaled to unit length, one row per id.

    ``ids`` ascend and row ``i`` of the C-contiguous float64 matrix ``unit``
    belongs to ``ids[i]``; a zero vector stays a zero row.
    """

    __slots__ = ("ids", "unit")

    def __init__(self, ids: Sequence[str], vectors: np.ndarray | Sequence[np.ndarray]):
        """``vectors`` is an n-by-k block (or n vectors of length k) whose
        row ``i`` belongs to ``ids[i]``."""
        if len(ids) != len(vectors):
            raise ValueError(f"{len(ids)} ids for {len(vectors)} vectors")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids: tuple[str, ...] = tuple(ids[i] for i in order)
        for a, b in zip(self.ids, self.ids[1:]):
            if a == b:
                raise ValueError(f"duplicate id {a!r}")
        matrix = np.asarray(vectors, dtype=np.float64) if order else np.zeros((0, 0))
        if matrix.ndim != 2:
            raise ValueError("vectors must be 1-D and of equal length")
        self.unit: np.ndarray = _unit_rows(matrix[order])

    def __len__(self) -> int:
        return len(self.ids)


def retrieve(
    query_vec: np.ndarray,
    candidates: Embeddings,
    n: int,
    *,
    query_id: str = "",
) -> RankedList:
    """Rank candidates by cosine to the query and keep the top ``n``.

    Exact brute-force search. Scores are elementwise products summed per
    row, not a BLAS product, because BLAS can round the same row differently
    at different positions in the matrix; equal rows must score bit-equal
    so that a stable sort over the id-sorted rows breaks ties by id.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not len(candidates):
        raise EmptyCandidatesError("cannot retrieve from an empty candidate collection")
    query = np.asarray(query_vec, dtype=np.float64)
    if query.shape != candidates.unit.shape[1:]:
        raise DimensionMismatchError(
            f"query shape {query.shape} does not match candidate dimension "
            f"{candidates.unit.shape[1]}"
        )
    sims = (candidates.unit * _unit_rows(query[None, :])[0]).sum(axis=1)
    top = np.argsort(-sims, kind="stable")[:n]
    return RankedList(query_id, tuple((candidates.ids[i], float(sims[i])) for i in top))


def _fold_texts(docs: Iterable[Document], model: LsiModel, side: str | None) -> np.ndarray:
    """Tokenize and fold documents into the model's space, one row each."""
    return fold_in_many((tokenize(doc.text) for doc in docs), model, side)


def project_documents(docs: Sequence[Document], model: LsiModel) -> Embeddings:
    """Fold documents into a monolingual LSI space."""
    return Embeddings([doc.id for doc in docs], _fold_texts(docs, model, None))


def embed_documents(docs: Sequence[Document], side: str, model: LsiModel) -> Embeddings:
    """Embed documents into a cross-lingual LSI space."""
    return Embeddings([doc.id for doc in docs], _fold_texts(docs, model, side))


def retrieve_ar_lsi(
    source_docs: Sequence[Document],
    target_docs: Sequence[Document],
    model: LsiModel,
    provider: TranslationProvider,
    n: int,
) -> list[RankedList]:
    """Monolingual-space retrieval: translate each query, project, rank.

    Candidate documents are projected directly (the model lives in their
    language). A provider failure marks that query skipped instead of
    aborting the batch.
    """
    if model.kind != "monolingual":
        raise ValueError("retrieve_ar_lsi needs a monolingual model")
    if not source_docs:
        return []
    target_language = target_docs[0].language if target_docs else "und"
    candidates = project_documents(target_docs, model)
    translated: list[Document | None] = []
    for doc in source_docs:
        try:
            translated.append(provider.translate(doc, target_language))
        except TranslationError as exc:
            warnings.warn(f"query {doc.id} skipped: {exc}", stacklevel=2)
            translated.append(None)
    queries = iter(_fold_texts([t for t in translated if t is not None], model, None))
    results = []
    for doc, query in zip(source_docs, translated):
        if query is None:
            results.append(RankedList(doc.id, (), skipped=True))
        else:
            results.append(retrieve(next(queries), candidates, n, query_id=doc.id))
    return results


def retrieve_cl_lsi(
    source_docs: Sequence[Document],
    target_docs: Sequence[Document],
    model: LsiModel,
    n: int,
) -> list[RankedList]:
    """Cross-lingual retrieval: embed both sides directly, no translation."""
    if model.kind != "crosslingual":
        raise ValueError("retrieve_cl_lsi needs a crosslingual model")
    if not source_docs:
        return []
    candidates = embed_documents(target_docs, "target", model)
    queries = _fold_texts(source_docs, model, "source")
    return [
        retrieve(query_vec, candidates, n, query_id=doc.id)
        for doc, query_vec in zip(source_docs, queries)
    ]


# --------------------------------------------------------------------------
# Alignment
# --------------------------------------------------------------------------


def align_corpora(
    source_docs: Sequence[Document],
    target_docs: Sequence[Document],
    model: LsiModel,
    top_n: int = 15,
    group_by: str | None = None,
    *,
    mutual_best: bool = False,
) -> list[AlignmentPair]:
    """Align each source document to its most similar target.

    With ``group_by`` set, documents are bucketed by their ``group_key``
    (e.g. publication month) and aligned within buckets; a bucket empty on
    either side is skipped with a warning. Each bucket's pairs are sorted
    descending by similarity and truncated to ``top_n``. Alignment is
    one-directional, so a target may serve several sources; ``mutual_best``
    additionally drops pairs whose target prefers a different source (an
    extension beyond the one-directional procedure).
    """
    if model.kind != "crosslingual":
        raise ValueError("align_corpora needs a crosslingual model")
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")

    buckets: dict[str | None, tuple[list[Document], list[Document]]] = {}
    if group_by is None:
        buckets[None] = (list(source_docs), list(target_docs))
    else:
        for side, docs in enumerate((source_docs, target_docs)):
            for doc in docs:
                if doc.group_key is None:
                    raise ValueError(f"document {doc.id!r} has no group_key to group by")
                buckets.setdefault(doc.group_key, ([], []))[side].append(doc)

    pairs: list[AlignmentPair] = []
    for key in sorted(buckets):
        src_bucket, tgt_bucket = buckets[key]
        if not src_bucket or not tgt_bucket:
            warnings.warn(f"group {key!r} is empty on one side; skipped", stacklevel=2)
            continue
        tgt_vecs = embed_documents(tgt_bucket, "target", model)
        src_vecs = embed_documents(src_bucket, "source", model)
        bucket_pairs = []
        for src_id, vec in zip(src_vecs.ids, src_vecs.unit):
            ((tgt_id, sim),) = retrieve(vec, tgt_vecs, 1).entries
            bucket_pairs.append(AlignmentPair(src_id, tgt_id, sim, key))
        if mutual_best:
            back = {
                tgt_id: retrieve(vec, src_vecs, 1).entries[0][0]
                for tgt_id, vec in zip(tgt_vecs.ids, tgt_vecs.unit)
            }
            bucket_pairs = [p for p in bucket_pairs if back[p.target_id] == p.source_id]
        bucket_pairs.sort(key=lambda p: (-p.similarity, p.source_id, p.target_id))
        pairs.extend(bucket_pairs[:top_n])
    return pairs


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def gold_mapping(corpus: AlignedCorpus) -> dict[str, str]:
    """Query-id to gold-target-id mapping implied by pair indices."""
    return {src.id: tgt.id for src, tgt in corpus.pairs()}


def recall_at_k(
    ranked_lists: Sequence[RankedList], gold: Mapping[str, str], k: int
) -> float:
    """Fraction of queries whose gold target appears in the top ``k``.

    Skipped queries count as misses. Every query must have a gold target.
    """
    return evaluate_retrieval(ranked_lists, gold, (k,)).recall[k]


def evaluate_retrieval(
    ranked_lists: Sequence[RankedList],
    gold: Mapping[str, str],
    ks: Sequence[int] = (1, 5),
) -> EvalReport:
    """Recall at each requested depth plus per-query hit flags.

    Every depth must be at least 1 and there must be at least one list.
    """
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    if not ranked_lists:
        raise ValueError("no ranked lists to evaluate")
    report = EvalReport(query_count=len(ranked_lists))
    for k in ks:
        flags = []
        for rl in ranked_lists:
            if rl.query_id not in gold:
                raise MissingGoldError(rl.query_id)
            flags.append(gold[rl.query_id] in rl.candidate_ids()[:k])
        report.hits[k] = tuple(flags)
        report.recall[k] = sum(flags) / len(flags)
    return report


_HISTOGRAM_EDGES = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _histogram_labels() -> list[str]:
    labels = [f"<{_HISTOGRAM_EDGES[0]}"]
    labels += [
        f"[{lo},{hi})" for lo, hi in zip(_HISTOGRAM_EDGES, _HISTOGRAM_EDGES[1:])
    ]
    labels.append(f">={_HISTOGRAM_EDGES[-1]}")
    return labels


def _histogram(similarities: Iterable[float]) -> dict[str, int]:
    labels = _histogram_labels()
    counts = dict.fromkeys(labels, 0)
    for sim in similarities:
        counts[labels[bisect.bisect_right(_HISTOGRAM_EDGES, sim)]] += 1
    return counts


def alignment_report(
    pairs: Sequence[AlignmentPair], gold: Mapping[str, str] | None = None
) -> EvalReport:
    """Per-group similarity ranges, similarity histogram and accuracy.

    Bins are half-open ``[0.3,0.4) ... [0.8,0.9)`` with open-ended under-
    and overflow bins. Accuracy (correct over total) is computed when a
    gold source-to-target mapping is supplied.
    """
    if not pairs:
        raise ValueError("no alignment pairs to report on")
    report = EvalReport(query_count=len(pairs))
    by_group: dict[str, list[float]] = {}
    for pair in pairs:
        by_group.setdefault(pair.group_key or "", []).append(pair.similarity)
    report.sim_ranges = {
        group: (min(sims), max(sims)) for group, sims in sorted(by_group.items())
    }
    report.histogram = _histogram(p.similarity for p in pairs)
    if gold is not None:
        correct = sum(1 for p in pairs if gold.get(p.source_id) == p.target_id)
        report.correct_count = correct
        report.accuracy = correct / len(pairs)
    return report


def oracle_experiment(docs: Sequence[Document], model: LsiModel, k: int = 1) -> float:
    """Self-retrieval check: each document queried against the whole corpus
    must rank itself first.

    Any correct projection/retrieval stack returns exactly 1.0; offenders
    (including degenerate zero-vector documents) raise ``SelfTestError``.
    """
    if not docs:
        raise ValueError("oracle experiment needs a non-empty corpus")
    if model.kind == "crosslingual":
        vectors = embed_documents(docs, "target", model)
    else:
        vectors = project_documents(docs, model)

    degenerate = [vectors.ids[i] for i in np.flatnonzero(~vectors.unit.any(axis=1))]
    if degenerate:
        raise SelfTestError(degenerate)

    offenders = [
        doc_id
        for doc_id, vec in zip(vectors.ids, vectors.unit)
        if retrieve(vec, vectors, max(k, 1), query_id=doc_id).entries[0][0] != doc_id
    ]
    if offenders:
        raise SelfTestError(offenders)
    return 1.0


# --------------------------------------------------------------------------
# Report writers: JSON for machines, TSV for aligned pairs, CSV for plots.
# --------------------------------------------------------------------------


def write_ranked_lists_json(ranked_lists: Sequence[RankedList], path: str | Path) -> None:
    payload = {
        "queries": [
            {
                "query_id": rl.query_id,
                "skipped": rl.skipped,
                "entries": [[cid, sim] for cid, sim in rl.entries],
            }
            for rl in ranked_lists
        ]
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


def write_alignment_tsv(pairs: Sequence[AlignmentPair], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for p in pairs:
            group = p.group_key if p.group_key is not None else ""
            fh.write(f"{p.source_id}\t{p.target_id}\t{p.similarity:.6f}\t{group}\n")


def write_report_json(report: EvalReport, path: str | Path) -> None:
    payload = {
        "query_count": report.query_count,
        "recall": {str(k): v for k, v in sorted(report.recall.items())},
        "hits": {str(k): list(v) for k, v in sorted(report.hits.items())},
        "sim_ranges": {g: [lo, hi] for g, (lo, hi) in sorted(report.sim_ranges.items())},
        "histogram": report.histogram,
        "accuracy": report.accuracy,
        "correct_count": report.correct_count,
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


def write_histogram_csv(report: EvalReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin", "count"])
        for label in _histogram_labels():
            writer.writerow([label, report.histogram.get(label, 0)])


def write_ranges_csv(report: EvalReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["group", "min", "max"])
        for group, (lo, hi) in sorted(report.sim_ranges.items()):
            writer.writerow([group, f"{lo:.6f}", f"{hi:.6f}"])
