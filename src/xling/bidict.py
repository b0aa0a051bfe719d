"""Bilingual dictionary storage and dictionary-based comparability measures.

Documents are treated as bags of unique reduced terms for the binary
measure, but raw token counts are the denominators for the OOV and
matching rates. Callers are responsible for reducing document tokens and
dictionary entries with the same reducers; ``BilingualDictionary.reduced``
does the dictionary side, and ``xling score`` applies it with the
``--reducer-source``/``--reducer-target`` reducers (except ``identity``,
and ``morphar``, which already maps words onto the dictionary's own terms).

A dictionary builds its translation-pair index once, on first use: the
sorted, deduplicated (source, target) pairs plus each term's sorted
partners on the other side. ``dict_cosine`` walks only the partners of the
couple's own terms instead of every pair; the binary, OOV and matching
measures never build it. ``dict_cosines`` scores many couples and weights
each side's documents in one pass (``Vocabulary.weight_rows``);
``dict_cosine`` is its one-couple case.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MalformedLineError, UndefinedRateError
from .vsm import Vocabulary

__all__ = [
    "BilingualDictionary",
    "MatchReport",
    "load_dictionary",
    "trans",
    "bin_measure",
    "bin_symmetric",
    "bin_pooled",
    "dict_cosine",
    "dict_cosines",
    "oov_rate",
    "matching_rate",
    "match_report",
]


class BilingualDictionary:
    """Synsets of mutually translatable terms, indexed from both sides."""

    __slots__ = ("synsets", "_source_index", "_target_index", "_pairs")

    def __init__(self, synsets: Iterable[tuple[Iterable[str], Iterable[str]]]):
        canonical = []
        seen = set()
        for src_terms, tgt_terms in synsets:
            synset = (frozenset(src_terms), frozenset(tgt_terms))
            if not synset[0] or not synset[1]:
                raise ValueError("synset sides must be non-empty")
            if synset in seen:
                continue
            seen.add(synset)
            canonical.append(synset)
        self.synsets: tuple[tuple[frozenset[str], frozenset[str]], ...] = tuple(canonical)
        self._source_index: dict[str, list[int]] = {}
        self._target_index: dict[str, list[int]] = {}
        for sid, (src_terms, tgt_terms) in enumerate(self.synsets):
            for t in src_terms:
                self._source_index.setdefault(t, []).append(sid)
            for t in tgt_terms:
                self._target_index.setdefault(t, []).append(sid)
        self._pairs: _PairIndex | None = None

    @classmethod
    def identity(cls, terms: Iterable[str]) -> "BilingualDictionary":
        """Dictionary mapping every term to itself (useful for self-tests)."""
        return cls([((t,), (t,)) for t in sorted(set(terms))])

    def _index_for(self, side: str) -> dict[str, list[int]]:
        if side == "source":
            return self._source_index
        if side == "target":
            return self._target_index
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")

    def contains(self, term: str, side: str = "source") -> bool:
        return term in self._index_for(side)

    def synset_ids(self, term: str, side: str = "source") -> list[int]:
        return self._index_for(side).get(term, [])

    def translations(self, term: str, side: str = "source") -> frozenset[str]:
        """All terms on the opposite side of any synset containing ``term``."""
        out: set[str] = set()
        opposite = 1 if side == "source" else 0
        for sid in self.synset_ids(term, side):
            out.update(self.synsets[sid][opposite])
        return frozenset(out)

    def _pair_index(self) -> "_PairIndex":
        if self._pairs is None:
            self._pairs = _PairIndex(self.synsets)
        return self._pairs

    def translation_pairs(self) -> tuple[tuple[str, str], ...]:
        """Deduplicated (source, target) pairs, sorted; built once per dictionary."""
        return self._pair_index().pairs

    def reduced(
        self,
        source_fn: Callable[[str], str] | None,
        target_fn: Callable[[str], str] | None,
    ) -> "BilingualDictionary":
        """This dictionary with each side's terms mapped through a reducer.

        ``None`` leaves a side as it is. Terms that reduce to the same form
        merge, and so do synsets that become equal. Returns ``self`` when no
        term changes.
        """
        src_map = {t: source_fn(t) for t in self._source_index} if source_fn is not None else {}
        tgt_map = {t: target_fn(t) for t in self._target_index} if target_fn is not None else {}
        if all(k == v for m in (src_map, tgt_map) for k, v in m.items()):
            return self
        return BilingualDictionary(
            ([src_map.get(t, t) for t in src_terms], [tgt_map.get(t, t) for t in tgt_terms])
            for src_terms, tgt_terms in self.synsets
        )

    def __len__(self) -> int:
        return len(self.synsets)


class _PairIndex:
    """Translation pairs of a synset list, sorted, with per-term partners."""

    __slots__ = ("pairs", "targets_of", "sources_of")

    def __init__(self, synsets: Iterable[tuple[frozenset[str], frozenset[str]]]):
        unique = {
            (ws, wt) for src_terms, tgt_terms in synsets for ws in src_terms for wt in tgt_terms
        }
        self.pairs: tuple[tuple[str, str], ...] = tuple(sorted(unique))
        targets_of: dict[str, list[str]] = {}
        sources_of: dict[str, list[str]] = {}
        for ws, wt in self.pairs:
            targets_of.setdefault(ws, []).append(wt)
            sources_of.setdefault(wt, []).append(ws)
        # Walking pairs in sorted order appends each term's partners sorted.
        self.targets_of = {t: tuple(p) for t, p in targets_of.items()}
        self.sources_of = {t: tuple(p) for t, p in sources_of.items()}


def load_dictionary(path: str | Path) -> BilingualDictionary:
    """Load a dictionary file: ``src1|src2<TAB>tgt1|tgt2`` per synset.

    Blank lines and ``#`` comment lines are ignored; duplicate lines merge
    into a single synset.
    """
    synsets = []
    for line_number, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLineError(line_number, "expected exactly one tab separator")
        src_terms = [t.strip() for t in parts[0].split("|") if t.strip()]
        tgt_terms = [t.strip() for t in parts[1].split("|") if t.strip()]
        if not src_terms or not tgt_terms:
            raise MalformedLineError(line_number, "both synset sides must be non-empty")
        synsets.append((src_terms, tgt_terms))
    return BilingualDictionary(synsets)


def trans(
    word: str,
    target_document: Iterable[str],
    dictionary: BilingualDictionary,
    *,
    direction: str = "forward",
) -> int:
    """1 if a translation of ``word`` occurs in the target document, else 0.

    ``direction="reverse"`` looks the word up on the dictionary's target
    side and searches the document for source terms.
    """
    side = "source" if direction == "forward" else "target"
    bag = target_document if isinstance(target_document, (set, frozenset)) else set(target_document)
    translations = dictionary.translations(word, side)
    return 1 if translations and not translations.isdisjoint(bag) else 0


def bin_measure(
    d_s: Sequence[str],
    d_t: Sequence[str],
    dictionary: BilingualDictionary,
    *,
    direction: str = "forward",
) -> float:
    """Fraction of in-vocabulary terms of ``d_s`` translated in ``d_t``.

    The document is a bag of unique terms; the denominator is the number of
    its terms known to the dictionary. Zero when no term is in vocabulary.
    """
    side = "source" if direction == "forward" else "target"
    in_vocab = [w for w in set(d_s) if dictionary.contains(w, side)]
    if not in_vocab:
        return 0.0
    bag = set(d_t)
    hits = sum(trans(w, bag, dictionary, direction=direction) for w in in_vocab)
    return hits / len(in_vocab)


def bin_symmetric(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> float:
    """Arithmetic mean of the two directed binary measures."""
    forward = bin_measure(d_s, d_t, dictionary, direction="forward")
    backward = bin_measure(d_t, d_s, dictionary, direction="reverse")
    return (forward + backward) / 2.0


def bin_pooled(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> float:
    """Pooled variant: translated tokens of both sides over total size.

    Counts tokens (with multiplicity) whose type has a translation present
    on the other side, normalized by the summed token counts.
    """
    if not d_s and not d_t:
        raise UndefinedRateError("both documents are empty")
    bag_t = set(d_t)
    bag_s = set(d_s)
    fwd = sum(1 for w in d_s if trans(w, bag_t, dictionary, direction="forward"))
    bwd = sum(1 for w in d_t if trans(w, bag_s, dictionary, direction="reverse"))
    return (fwd + bwd) / (len(d_s) + len(d_t))


@dataclass(frozen=True)
class MatchReport:
    """Pair-matching summary for one document couple."""

    matched_pairs: int
    oov_source: int
    oov_target: int
    size_source: int
    size_target: int


def _max_bipartite_matching(edges: dict[str, list[str]]) -> int:
    """Maximum matching size via augmenting paths (Kuhn's algorithm)."""
    match_of_target: dict[str, str] = {}

    def try_assign(source: str, visited: set[str]) -> bool:
        for target in edges[source]:
            if target in visited:
                continue
            visited.add(target)
            holder = match_of_target.get(target)
            if holder is None or try_assign(holder, visited):
                match_of_target[target] = source
                return True
        return False

    matched = 0
    for source in sorted(edges):
        if try_assign(source, set()):
            matched += 1
    return matched


def match_report(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> MatchReport:
    """Count matched translation pairs and OOV tokens for a couple.

    The matched count is the size of a maximum one-to-one matching between
    source and target term types connected by a dictionary translation, so
    it never exceeds min(|d_s|, |d_t|).
    """
    source_types = sorted(set(d_s))
    target_types = set(d_t)
    edges: dict[str, list[str]] = {}
    for ws in source_types:
        partners = dictionary.translations(ws, "source") & target_types
        if partners:
            edges[ws] = sorted(partners)
    matched = _max_bipartite_matching(edges) if edges else 0
    oov_s = sum(1 for w in d_s if not dictionary.contains(w, "source"))
    oov_t = sum(1 for w in d_t if not dictionary.contains(w, "target"))
    return MatchReport(matched, oov_s, oov_t, len(d_s), len(d_t))


def oov_rate(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> float:
    """Mean of the two sides' out-of-vocabulary token fractions."""
    if not d_s or not d_t:
        raise UndefinedRateError("OOV rate is undefined for an empty document")
    report = match_report(d_s, d_t, dictionary)
    return 0.5 * (report.oov_source / report.size_source + report.oov_target / report.size_target)


def matching_rate(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> float:
    """Matched translation-pair count over the summed document sizes."""
    if not d_s and not d_t:
        raise UndefinedRateError("matching rate is undefined for two empty documents")
    report = match_report(d_s, d_t, dictionary)
    return report.matched_pairs / (report.size_source + report.size_target)


def dict_cosine(
    d_s: Sequence[str],
    d_t: Sequence[str],
    dictionary: BilingualDictionary,
    source_stats: Vocabulary,
    target_stats: Vocabulary,
) -> float:
    """Cosine over paired tfidf vectors, one attribute per translation pair.

    For each dictionary pair (w_s, w_t), the source attribute is the tfidf
    of w_s in ``d_s`` and the target attribute the tfidf of w_t in ``d_t``
    (zero when the word is absent from the document or from the stats).

    Only pairs with a non-zero attribute add to a sum, so each sum walks the
    couple's own terms through the dictionary's pair index. It adds the same
    terms in the same (w_s, w_t) order as a walk over every pair would, so
    the score is bit-identical to that walk. This is :func:`dict_cosines`
    of one couple.
    """
    return dict_cosines([d_s], [d_t], dictionary, source_stats, target_stats)[0]


def dict_cosines(
    source_docs: Sequence[Sequence[str]],
    target_docs: Sequence[Sequence[str]],
    dictionary: BilingualDictionary,
    source_stats: Vocabulary,
    target_stats: Vocabulary,
) -> list[float]:
    """:func:`dict_cosine` of every couple ``(source_docs[j], target_docs[j])``.

    Each side's documents are weighted in one pass over the collection.
    """
    if len(source_docs) != len(target_docs):
        raise ValueError(
            f"{len(source_docs)} source documents for {len(target_docs)} target documents"
        )
    index = dictionary._pair_index()
    rows_s = _tfidf_rows(source_docs, source_stats, index.targets_of)
    rows_t = _tfidf_rows(target_docs, target_stats, index.sources_of)
    return [_paired_cosine(w_s, w_t, index) for w_s, w_t in zip(rows_s, rows_t)]


def _paired_cosine(
    weights_s: Mapping[str, float], weights_t: Mapping[str, float], index: _PairIndex
) -> float:
    dot = 0.0
    norm_s = 0.0
    for ws in sorted(weights_s):
        a = weights_s[ws]
        for wt in index.targets_of[ws]:
            dot += a * weights_t.get(wt, 0.0)
            norm_s += a * a
    norm_t = 0.0
    for _, wt in sorted((ws, wt) for wt in weights_t for ws in index.sources_of[wt]):
        b = weights_t[wt]
        norm_t += b * b
    if norm_s == 0.0 or norm_t == 0.0:
        return 0.0
    return dot / (norm_s**0.5 * norm_t**0.5)


def _tfidf_rows(
    docs: Sequence[Sequence[str]], stats: Vocabulary, known: Mapping[str, tuple[str, ...]]
) -> Iterator[dict[str, float]]:
    """Per document, the non-zero tfidf weight of each term in both ``stats`` and ``known``.

    The collection is weighted at the first ``next``; each document's dict
    is built only when it is reached.
    """
    indptr, idx, val = stats.weight_rows(docs)
    terms = stats.terms
    for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        pairs = zip(map(terms.__getitem__, idx[a:b].tolist()), val[a:b].tolist())
        yield {t: w for t, w in pairs if t in known}
