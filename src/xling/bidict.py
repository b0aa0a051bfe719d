"""Bilingual dictionary storage and dictionary-based comparability measures.

Documents are treated as bags of unique reduced terms for the binary
measure, but raw token counts are the denominators for the OOV and
matching rates. Callers are responsible for reducing document tokens and
dictionary entries with the same reducers; ``load_dictionary`` takes one
reducer per side and reduces each term as it reads it, and ``xling score``
passes it the ``--reducer-source``/``--reducer-target`` reducers (except
``identity``, and ``morphar``, which already maps words onto the
dictionary's own terms).

A dictionary is built in one pass: duplicate synsets are dropped, and each
side maps every term to its partners on the other side, which membership,
translations and the measures read. Partners are sorted only on request.
``dict_cosine`` walks only the partners of the couple's own terms instead
of every pair. ``dict_cosines`` scores many couples and weights each side's
documents in one pass (``Vocabulary.weight_rows``); ``dict_cosine`` is its
one-couple case.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MalformedLineError, UndefinedRateError
from .vsm import Vocabulary

__all__ = [
    "BilingualDictionary",
    "load_dictionary",
    "trans",
    "bin_measure",
    "bin_symmetric",
    "bin_pooled",
    "dict_cosine",
    "dict_cosines",
    "oov_rate",
    "matching_rate",
]


class BilingualDictionary:
    """Synsets of mutually translatable terms, indexed from both sides."""

    __slots__ = ("synsets", "_targets_of", "_sources_of", "_sorted", "_pairs")

    def __init__(self, synsets: Iterable[tuple[Iterable[str], Iterable[str]]]):
        canonical: dict[tuple[frozenset[str], frozenset[str]], None] = {}
        targets_of: dict[str, frozenset[str]] = {}
        sources_of: dict[str, frozenset[str]] = {}
        for src_terms, tgt_terms in synsets:
            synset = src, tgt = frozenset(src_terms), frozenset(tgt_terms)
            if not src or not tgt:
                raise ValueError("synset sides must be non-empty")
            if synset in canonical:
                continue
            canonical[synset] = None
            for t in src:
                known = targets_of.get(t)
                targets_of[t] = tgt if known is None else known | tgt
            for t in tgt:
                known = sources_of.get(t)
                sources_of[t] = src if known is None else known | src
        self.synsets: tuple[tuple[frozenset[str], frozenset[str]], ...] = tuple(canonical)
        self._targets_of, self._sources_of = targets_of, sources_of
        self._sorted: dict[str, dict[str, tuple[str, ...]]] = {"source": {}, "target": {}}
        self._pairs: tuple[tuple[str, str], ...] | None = None

    @classmethod
    def identity(cls, terms: Iterable[str]) -> "BilingualDictionary":
        """Dictionary mapping every term to itself (useful for self-tests)."""
        return cls([((t,), (t,)) for t in sorted(set(terms))])

    def _index_for(self, side: str) -> dict[str, frozenset[str]]:
        if side == "source":
            return self._targets_of
        if side == "target":
            return self._sources_of
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")

    def contains(self, term: str, side: str = "source") -> bool:
        return term in self._index_for(side)

    def translations(self, term: str, side: str = "source") -> frozenset[str]:
        """All terms on the opposite side of any synset containing ``term``."""
        return self._index_for(side).get(term, _NONE)

    def sorted_translations(self, term: str, side: str = "source") -> tuple[str, ...]:
        """:meth:`translations` in sorted order, sorted on first request."""
        partners = self.translations(term, side)
        ordered = self._sorted[side].get(term)
        if ordered is None:
            ordered = self._sorted[side][term] = tuple(sorted(partners))
        return ordered

    def translation_pairs(self) -> tuple[tuple[str, str], ...]:
        """Deduplicated (source, target) pairs, sorted; built once per dictionary."""
        if self._pairs is None:
            self._pairs = tuple(sorted((s, t) for s, ts in self._targets_of.items() for t in ts))
        return self._pairs

    def __len__(self) -> int:
        return len(self.synsets)


_NONE: frozenset[str] = frozenset()


def load_dictionary(
    path: str | Path,
    source_fn: Callable[[str], str] | None = None,
    target_fn: Callable[[str], str] | None = None,
) -> BilingualDictionary:
    """Load a dictionary file: ``src1|src2<TAB>tgt1|tgt2`` per synset.

    Blank lines and ``#`` comment lines are ignored; duplicate lines merge
    into a single synset. Each side's terms are mapped through its reducer
    as they are read (``None`` keeps them as written), so terms that reduce
    to the same form merge, and so do synsets that become equal.
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
        src_terms = list(filter(None, map(str.strip, parts[0].split("|"))))
        tgt_terms = list(filter(None, map(str.strip, parts[1].split("|"))))
        if not src_terms or not tgt_terms:
            raise MalformedLineError(line_number, "both synset sides must be non-empty")
        synsets.append((
            src_terms if source_fn is None else map(source_fn, src_terms),
            tgt_terms if target_fn is None else map(target_fn, tgt_terms),
        ))
    return BilingualDictionary(synsets)


def _lookup_side(direction: str) -> str:
    """The dictionary side that ``direction`` looks words up on."""
    if direction == "forward":
        return "source"
    if direction == "reverse":
        return "target"
    raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")


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
    side = _lookup_side(direction)
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
    side = _lookup_side(direction)
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


def _matched_pairs(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> int:
    """Size of a maximum one-to-one matching between the source and target
    term types that a dictionary translation connects, so at most
    min(|d_s|, |d_t|). Found by augmenting paths (Kuhn's algorithm).
    """
    targets_of, target_types = dictionary._targets_of, set(d_t)
    # A source term with no translation in d_t can never be matched.
    edges = {
        ws: sorted(hits)
        for ws in sorted(set(d_s))
        if (hits := targets_of.get(ws, _NONE) & target_types)
    }
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
    for source in edges:
        if try_assign(source, set()):
            matched += 1
    return matched


def oov_rate(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> float:
    """Mean of the two sides' out-of-vocabulary token fractions."""
    if not d_s or not d_t:
        raise UndefinedRateError("OOV rate is undefined for an empty document")
    oov_s = sum(1 for w in d_s if not dictionary.contains(w, "source"))
    oov_t = sum(1 for w in d_t if not dictionary.contains(w, "target"))
    return 0.5 * (oov_s / len(d_s) + oov_t / len(d_t))


def matching_rate(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> float:
    """Matched translation-pair count over the summed document sizes."""
    if not d_s and not d_t:
        raise UndefinedRateError("matching rate is undefined for two empty documents")
    return _matched_pairs(d_s, d_t, dictionary) / (len(d_s) + len(d_t))


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
    partners of the couple's own terms instead of every pair. It adds the same
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
    sources_of = dictionary._sources_of
    rows_s = list(_tfidf_rows(source_docs, source_stats, dictionary._targets_of))
    rows_t = _tfidf_rows(target_docs, target_stats, sources_of)
    targets_of = {ws: dictionary.sorted_translations(ws) for ws in set().union(*rows_s)}
    return [
        _paired_cosine(w_s, w_t, targets_of, sources_of) for w_s, w_t in zip(rows_s, rows_t)
    ]


def _paired_cosine(
    weights_s: Mapping[str, float],
    weights_t: Mapping[str, float],
    targets_of: Mapping[str, tuple[str, ...]],
    sources_of: Mapping[str, frozenset[str]],
) -> float:
    dot = 0.0
    norm_s = 0.0
    for ws in sorted(weights_s):
        a = weights_s[ws]
        for wt in targets_of[ws]:
            dot += a * weights_t.get(wt, 0.0)
            norm_s += a * a
    norm_t = 0.0
    for _, wt in sorted((ws, wt) for wt in weights_t for ws in sources_of[wt]):
        b = weights_t[wt]
        norm_t += b * b
    if norm_s == 0.0 or norm_t == 0.0:
        return 0.0
    return dot / (norm_s**0.5 * norm_t**0.5)


def _tfidf_rows(
    docs: Sequence[Sequence[str]], stats: Vocabulary, known: Mapping[str, frozenset[str]]
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
