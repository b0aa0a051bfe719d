"""Top-n retrieval, retrieval pipelines, corpus alignment and evaluation.

Queries are independent, candidate collections are read-only, and every
ranking breaks similarity ties by ascending candidate id, so all outputs
are deterministic for fixed inputs.

Every ranking, in the pipelines, in alignment and in the self-test, goes
through one kernel, ``retrieve_many``. A BLAS product of a block of queries
with the candidates only screens: it keeps, per query, each candidate that
scores within a rounding margin of the n-th best. The kept pairs are then
scored exactly, one elementwise product summed per pair, and ordered by
that score and id. The screen may round two equal rows differently, or
differently at another BLAS thread count; the exact score never does, so
equal rows tie bit for bit and ranked lists do not depend on the BLAS.

Both retrieval pipelines pass each query through a translator: a function
from a ``Document`` to its text, which raises ``TranslationError`` when it
cannot translate. A monolingual model holds the target side only, so its
queries are translated into the target language; a cross-lingual model
folds them as written (``identity_translator``) on the source side. Every
text, query or candidate, enters a model through one function,
``_fold_texts``, on a named side.
"""

from __future__ import annotations

import bisect
import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .bidict import BilingualDictionary
from .corpus import AlignedCorpus, Document, load_documents
from .errors import (
    DimensionMismatchError,
    EmptyCandidatesError,
    MissingGoldError,
    SelfTestError,
    TranslationError,
)
from .lsi import LsiModel, fold_in_many
from .textprep import tokenize

__all__ = [
    "RankedList",
    "AlignmentPair",
    "EvalReport",
    "identity_translator",
    "dictionary_translator",
    "cached_translator",
    "Embeddings",
    "retrieve_many",
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
    pipeline could not score (e.g. a failed translation).
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
# Translators: Document -> text in the language a query is folded in
# --------------------------------------------------------------------------


def identity_translator(document: Document) -> str:
    """The document's own text: a perfect translator for one shared language."""
    return document.text


def dictionary_translator(dictionary: BilingualDictionary) -> Callable[[Document], str]:
    """Word-for-word translation through a bilingual dictionary.

    Each token maps to the lexicographically smallest translation of its
    synsets; out-of-vocabulary tokens pass through unchanged.
    """

    def translate(document: Document) -> str:
        return " ".join(
            min(dictionary.translations(word, "source"), default=word)
            for word in tokenize(document.text)
        )

    return translate


def cached_translator(path: str | Path) -> Callable[[Document], str]:
    """Looks translations up by document id in a flat documents file."""
    cache = {d.id: d.text for d in load_documents(path)}

    def translate(document: Document) -> str:
        text = cache.get(document.id)
        if text is None:
            raise TranslationError(f"no cached translation for document {document.id!r}")
        return text

    return translate


# --------------------------------------------------------------------------
# Ranking
# --------------------------------------------------------------------------


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Each row divided by its Euclidean norm; a zero row stays zero.

    A row whose norm falls outside (1e-150, 1e150), where its squares
    underflow or overflow, is divided by its largest magnitude first. Every
    other row keeps the bits of one plain division by its norm.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt((matrix * matrix).sum(axis=1))[:, None]
    unit = np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)
    odd = np.flatnonzero((norms[:, 0] <= 1e-150) | (norms[:, 0] >= 1e150))
    peaks = np.abs(matrix[odd]).max(axis=1, initial=0.0)
    finite = (peaks > 0) & (peaks < np.inf)
    scaled = matrix[odd[finite]] / peaks[finite, None]
    unit[odd[finite]] = scaled / np.sqrt((scaled * scaled).sum(axis=1))[:, None]
    return unit


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


def retrieve_many(
    queries: np.ndarray | Sequence[np.ndarray],
    candidates: Embeddings,
    n: int,
    query_ids: Sequence[str],
) -> list[RankedList]:
    """Rank candidates by cosine to each query row and keep the top ``n``.

    Exact brute-force search; row ``i`` of ``queries`` is ranked as
    ``query_ids[i]``, and an empty block returns ``[]`` even with no
    candidates. The queries are cut into blocks, and each block runs:

    1. ``Qu``, the query rows scaled to unit length (already unit rows are
       scaled again, so that every caller gets the same bits);
    2. the screen ``S = Qu @ C.T``, one BLAS product with the unit
       candidate rows ``C``;
    3. per query, the ``min(n, m)``-th largest screen value ``t``; every
       candidate with ``S >= t - margin`` is kept, and all of them are kept
       for a query whose screen row has a non-finite value;
    4. the exact score of each kept pair, ``(Qu[q] * C[c]).sum(axis=1)``:
       an elementwise product summed per row, whose bits do not depend on
       where the row sits, on BLAS or on its thread count;
    5. the kept pairs ordered by descending exact score, ties by ascending
       candidate id (the id order of ``C``), and cut at ``n``.

    Why the output equals ranking every candidate by its exact score: for
    rows of norm at most 1 + O(ku), any summation order of the k products,
    with or without FMA, lies within gamma_k = ku / (1 - ku) (u the unit
    roundoff) of the true dot product d (Higham, *Accuracy and Stability
    of Numerical Algorithms*, section 3.1). So the screen score s and the
    exact score e of a pair are within 2 gamma_k of each other. At least
    ``min(n, m)`` candidates have s >= t, so their e >= t - 2 gamma_k, and
    the ``min(n, m)``-th largest exact score e* is at least t - 2 gamma_k.
    Each candidate with e >= e*, which holds every exact top-n member and
    every tie at the cut-off, then has s >= e - 2 gamma_k >= t - 4 gamma_k.
    The margin, 8 (k + 2) eps = 16 (k + 2) u, is above 4 gamma_k with room
    for the slack in the unit norms, so no such candidate is screened out.

    A block holds no more than about ``k / 2`` queries, so the screen and
    its partitioned copy take at most m x k floats, and the kept pairs are
    scored at most ``m / 2`` at a time: no step holds more than the one
    m x k temporary that scoring a single query against every candidate
    would.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(query_ids) != len(queries):
        raise ValueError(f"{len(query_ids)} query ids for {len(queries)} queries")
    if not len(queries):
        return []
    if not len(candidates):
        raise EmptyCandidatesError("cannot retrieve from an empty candidate collection")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.shape[1:] != candidates.unit.shape[1:]:
        raise DimensionMismatchError(
            f"query shape {queries.shape[1:]} does not match candidate dimension "
            f"{candidates.unit.shape[1]}"
        )
    unit = candidates.unit
    m, k = unit.shape
    keep = min(n, m)
    margin = 8 * (k + 2) * np.finfo(np.float64).eps
    block, chunk = max(1, k // 2), max(1, m // 2)
    ranked = []
    for start in range(0, len(queries), block):
        qu = _unit_rows(queries[start : start + block])
        screen = qu @ unit.T
        cutoff = np.partition(screen, m - keep, axis=1)[:, m - keep, None]
        kept = (screen >= cutoff - margin) | ~np.isfinite(screen).all(axis=1, keepdims=True)
        qi, ci = np.nonzero(kept)
        exact = np.empty(len(qi))
        for lo in range(0, len(qi), chunk):
            rows = unit[ci[lo : lo + chunk]]
            rows *= qu[qi[lo : lo + chunk]]
            exact[lo : lo + chunk] = rows.sum(axis=1)
        order = np.lexsort((ci, -exact, qi))
        qi, ci, exact = qi[order], ci[order], exact[order]
        top = np.arange(len(qi)) - np.searchsorted(qi, qi) < keep
        top_ids = ci[top].reshape(-1, keep).tolist()
        top_sims = exact[top].reshape(-1, keep).tolist()
        for query_id, row_ids, row_sims in zip(query_ids[start : start + block], top_ids, top_sims):
            entries = zip(map(candidates.ids.__getitem__, row_ids), row_sims)
            ranked.append(RankedList(query_id, tuple(entries)))
    return ranked


def retrieve(
    query_vec: np.ndarray,
    candidates: Embeddings,
    n: int,
    *,
    query_id: str = "",
) -> RankedList:
    """``retrieve_many`` of one query; kept only for ``perfbench/tracing.py`` to wrap."""
    return retrieve_many([query_vec], candidates, n, (query_id,))[0]


def embed_crosslingual(tokens: Sequence[str], side: str, model: LsiModel) -> np.ndarray:
    """``fold_in_many`` of one document; kept only for ``perfbench/tracing.py`` to wrap."""
    return fold_in_many([tokens], model, side)[0]


def _fold_texts(texts: Iterable[str], model: LsiModel, side: str) -> np.ndarray:
    """Tokenize and fold one side's texts into the model's space, one row each."""
    return fold_in_many((tokenize(text) for text in texts), model, side)


def embed_documents(docs: Sequence[Document], side: str, model: LsiModel) -> Embeddings:
    """Fold one side's documents in; a monolingual model holds only ``"target"``."""
    return Embeddings([doc.id for doc in docs], _fold_texts((d.text for d in docs), model, side))


def _retrieve_translated(
    source_docs: Sequence[Document], target_docs: Sequence[Document], model: LsiModel,
    translate: Callable[[Document], str], side: str, n: int,
) -> list[RankedList]:
    """Embed the target documents, then translate each query, fold it on
    ``side`` and rank. A ``TranslationError`` marks that query skipped."""
    if not source_docs:
        return []
    candidates = embed_documents(target_docs, "target", model)
    texts: list[str | None] = []
    for doc in source_docs:
        try:
            texts.append(translate(doc))
        except TranslationError as exc:
            warnings.warn(f"query {doc.id} skipped: {exc}", stacklevel=3)
            texts.append(None)
    queries = _fold_texts((t for t in texts if t is not None), model, side)
    ranked = iter(retrieve_many(queries, candidates, n,
                                [d.id for d, t in zip(source_docs, texts) if t is not None]))
    return [RankedList(doc.id, (), skipped=True) if text is None else next(ranked)
            for doc, text in zip(source_docs, texts)]


def retrieve_ar_lsi(
    source_docs: Sequence[Document],
    target_docs: Sequence[Document],
    model: LsiModel,
    translate: Callable[[Document], str],
    n: int,
) -> list[RankedList]:
    """Monolingual-space retrieval: translate each query into the target
    language, fold it in, rank; a ``TranslationError`` skips that query."""
    if model.kind != "monolingual":
        raise ValueError("retrieve_ar_lsi needs a monolingual model")
    return _retrieve_translated(source_docs, target_docs, model, translate, "target", n)


def retrieve_cl_lsi(
    source_docs: Sequence[Document],
    target_docs: Sequence[Document],
    model: LsiModel,
    n: int,
) -> list[RankedList]:
    """Cross-lingual retrieval: fold both sides in directly, no translation."""
    if model.kind != "crosslingual":
        raise ValueError("retrieve_cl_lsi needs a crosslingual model")
    return _retrieve_translated(source_docs, target_docs, model, identity_translator, "source", n)


# --------------------------------------------------------------------------
# Alignment
# --------------------------------------------------------------------------


def _embed_known(docs: Sequence[Document], side: str, model: LsiModel) -> Embeddings:
    """Fold documents once, leaving out with a warning each one with no
    in-vocabulary term (a zero vector), which would pair at similarity 0."""
    vectors = _fold_texts((d.text for d in docs), model, side)
    known = vectors.any(axis=1)
    if not known.all():
        blank = sorted(d.id for d, k in zip(docs, known) if not k)
        warnings.warn(f"{side}s with no in-vocabulary term left out: {blank}", stacklevel=3)
    return Embeddings([d.id for d, k in zip(docs, known) if k], vectors[known])


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
    either side is skipped with a warning, and a document on either side
    with no in-vocabulary term (a zero vector) is left out with one. Each
    bucket's pairs are sorted descending by similarity and truncated to
    ``top_n``. Alignment is one-directional, so a target may serve several
    sources; ``mutual_best`` additionally drops pairs whose target prefers a
    different source (an extension beyond the one-directional procedure).
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
        src_vecs = _embed_known(src_bucket, "source", model)
        tgt_vecs = _embed_known(tgt_bucket, "target", model)
        if not len(src_vecs) or not len(tgt_vecs):
            continue
        bucket_pairs = [
            AlignmentPair(rl.query_id, *rl.entries[0], key)
            for rl in retrieve_many(src_vecs.unit, tgt_vecs, 1, src_vecs.ids)
        ]
        if mutual_best:
            back = {rl.query_id: rl.entries[0][0]
                    for rl in retrieve_many(tgt_vecs.unit, src_vecs, 1, tgt_vecs.ids)}
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


def oracle_experiment(docs: Sequence[Document], model: LsiModel) -> float:
    """Self-retrieval check: each document queried against the whole corpus
    must rank itself first.

    Any correct projection/retrieval stack returns exactly 1.0; offenders
    (including degenerate zero-vector documents) raise ``SelfTestError``.
    """
    if not docs:
        raise ValueError("oracle experiment needs a non-empty corpus")
    vectors = embed_documents(docs, "target", model)

    degenerate = [vectors.ids[i] for i in np.flatnonzero(~vectors.unit.any(axis=1))]
    if degenerate:
        raise SelfTestError(degenerate)

    offenders = [
        rl.query_id
        for rl in retrieve_many(vectors.unit, vectors, 1, vectors.ids)
        if rl.entries[0][0] != rl.query_id
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
