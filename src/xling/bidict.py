"""Bilingual dictionary storage and dictionary-based comparability measures.

Documents are treated as bags of unique reduced terms for the binary
measure, but raw token counts are the denominators for the OOV and
matching rates. Callers are responsible for reducing document tokens and
dictionary entries with the same reducers; ``load_dictionary`` lowercases
each term, as ``tokenize`` lowercases words, then reduces it with its
side's reducer as it reads it. ``xling train`` and ``xling score`` pass it
the ``--reducer-source``/``--reducer-target`` reducers, with ``str`` for
``morphar``, which maps words onto the dictionary's terms as written.

A dictionary is built in one pass: each line's sides become frozensets
directly, a one-term side (most of them) without the split on ``|``;
duplicate synsets are dropped, and each side maps every term to its
partners on the other side, as an unordered set, which membership,
translations and the measures read.

The binary measures and the matching rate read one translation map per
couple: each type of one document that has a translation among the types of
the other, mapped to those translations. ``bin_measure`` counts its keys,
``bin_pooled`` the tokens whose type is a key, and ``matching_rate`` takes
its edges from it.

``dict_cosines`` weights each side's documents in one pass
(``Vocabulary.weight_rows``) and sums exactly (``math.fsum``) over the
partners of each couple's own terms; ``dict_cosine`` is its one-couple case.
"""

from __future__ import annotations

from math import fsum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MalformedLineError, UndefinedRateError
from .vsm import Vocabulary

__all__ = [
    "BilingualDictionary",
    "load_dictionary",
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

    __slots__ = ("synsets", "_targets_of", "_sources_of")

    def __init__(self, synsets: Iterable[tuple[Iterable[str], Iterable[str]]]):
        """``synsets`` holds (source terms, target terms) pairs; equal pairs
        merge, the first kept. A frozenset side is kept as it is."""
        self.synsets: tuple[tuple[frozenset[str], frozenset[str]], ...] = tuple(
            dict.fromkeys((frozenset(src), frozenset(tgt)) for src, tgt in synsets)
        )
        targets_of: dict[str, frozenset[str]] = {}
        sources_of: dict[str, frozenset[str]] = {}
        for src, tgt in self.synsets:
            if not src or not tgt:
                raise ValueError("synset sides must be non-empty")
            for t in src:
                known = targets_of.get(t)
                targets_of[t] = tgt if known is None else known | tgt
            for t in tgt:
                known = sources_of.get(t)
                sources_of[t] = src if known is None else known | src
        self._targets_of, self._sources_of = targets_of, sources_of

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

    def __len__(self) -> int:
        return len(self.synsets)


_NONE: frozenset[str] = frozenset()


def load_dictionary(
    path: str | Path,
    source_fn: Callable[[str], str] = str,
    target_fn: Callable[[str], str] = str,
) -> BilingualDictionary:
    """Load a dictionary file: ``src1|src2<TAB>tgt1|tgt2`` per synset.

    Lines end at LF, CR LF or CR, as JSONL lines do, not at the other breaks
    of ``str.splitlines``. Blank lines, ``#`` comment lines and a leading
    byte-order mark are ignored; duplicate lines merge into one synset. Terms
    are lowercased, as ``tokenize`` lowercases words, then mapped through
    their side's reducer (``str`` keeps them lowercased), so terms that reduce
    to the same form merge, and so do synsets that become equal. The first
    malformed line in the file raises :class:`MalformedLineError`.
    """
    # Lowering the whole text equals lowering each term: no case mapping
    # makes or removes a tab, "|", "#", whitespace or line break, and the
    # final-sigma context stops at each of them.
    text = Path(path).read_text(encoding="utf-8-sig").lower()
    synsets: list[tuple[frozenset[str], frozenset[str]]] = []
    for line_number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLineError(line_number, "expected exactly one tab separator")
        src = _synset_side(parts[0], source_fn)
        tgt = _synset_side(parts[1], target_fn)
        if not src or not tgt:
            raise MalformedLineError(line_number, "both synset sides must be non-empty")
        synsets.append((src, tgt))
    return BilingualDictionary(synsets)


def _synset_side(side: str, fn: Callable[[str], str]) -> frozenset[str]:
    """The terms of one side of a stripped line, each mapped through ``fn``;
    empty if the side has none.

    Most sides hold one term, which skips the split, strip and filter. A side
    without ``|`` is never blank: the line was stripped around its one tab.
    """
    if "|" not in side:
        term = side.strip()
        return frozenset((fn(term),))
    return frozenset(map(fn, filter(None, map(str.strip, side.split("|")))))


def _translated(
    d_s: Iterable[str], d_t: Iterable[str], dictionary: BilingualDictionary, side: str = "source"
) -> dict[str, frozenset[str]]:
    """Each type of ``d_s`` with a translation among the types of ``d_t``,
    mapped to those translations; ``d_s`` is looked up on the dictionary's
    ``side``, so with ``side="target"`` it is the target document."""
    index, types_t = dictionary._index_for(side), set(d_t)
    return {w: hits for w in set(d_s) if (hits := index.get(w, _NONE) & types_t)}


def bin_measure(
    d_s: Sequence[str],
    d_t: Sequence[str],
    dictionary: BilingualDictionary,
    *,
    side: str = "source",
) -> float:
    """Fraction of in-vocabulary terms of ``d_s`` translated in ``d_t``.

    The terms of ``d_s`` are looked up on the dictionary's ``side``, so
    ``side="target"`` measures a target document against a source one. The
    document is a bag of unique terms; the denominator is the number of its
    terms known to the dictionary. Zero when no term is in vocabulary.
    """
    known = dictionary._index_for(side)
    in_vocab = sum(w in known for w in set(d_s))
    if not in_vocab:
        return 0.0
    return len(_translated(d_s, d_t, dictionary, side)) / in_vocab


def bin_symmetric(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> float:
    """Arithmetic mean of the two directed binary measures."""
    forward = bin_measure(d_s, d_t, dictionary)
    backward = bin_measure(d_t, d_s, dictionary, side="target")
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
    fwd = _translated(d_s, d_t, dictionary)
    bwd = _translated(d_t, d_s, dictionary, "target")
    hits = sum(map(fwd.__contains__, d_s)) + sum(map(bwd.__contains__, d_t))
    return hits / (len(d_s) + len(d_t))


def _matched_pairs(
    d_s: Sequence[str], d_t: Sequence[str], dictionary: BilingualDictionary
) -> int:
    """Size of a maximum one-to-one matching between the source and target
    term types that a dictionary translation connects, so at most
    min(|d_s|, |d_t|). Found by augmenting paths (Kuhn's algorithm).
    """
    # A source term with no translation in d_t can never be matched.
    translated = _translated(d_s, d_t, dictionary)
    edges = {ws: sorted(translated[ws]) for ws in sorted(translated)}
    match_of_target: dict[str, str] = {}

    def augment(root: str) -> bool:
        # Depth-first search for a free target, on an explicit stack so that
        # a path may be longer than Python's recursion limit. path[i] is the
        # target that stack[i]'s source takes over from stack[i + 1]'s.
        visited: set[str] = set()
        stack = [(root, iter(edges[root]))]
        path: list[str] = []
        while stack:
            source, targets = stack[-1]
            for target in targets:
                if target in visited:
                    continue
                visited.add(target)
                path.append(target)
                holder = match_of_target.get(target)
                if holder is None:
                    for (s, _), t in zip(stack, path):
                        match_of_target[t] = s
                    return True
                stack.append((holder, iter(edges[holder])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    return sum(map(augment, edges))


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
    """:func:`dict_cosines` of one couple. The package exports only the
    batched call; this one stays public for the acceptance gate, and
    ``xling.cli`` imports it so that ``perfbench/tracing.py`` can wrap it."""
    return dict_cosines([d_s], [d_t], dictionary, source_stats, target_stats)[0]


def dict_cosines(
    source_docs: Sequence[Sequence[str]],
    target_docs: Sequence[Sequence[str]],
    dictionary: BilingualDictionary,
    source_stats: Vocabulary,
    target_stats: Vocabulary,
) -> list[float]:
    """Cosine over paired tfidf vectors, one attribute per translation pair,
    of every couple ``(source_docs[j], target_docs[j])``.

    For each dictionary pair (w_s, w_t), the source attribute is the tfidf
    of w_s in the source document and the target attribute the tfidf of w_t
    in the target document (zero when the word is absent from the document
    or from the stats).

    Only pairs with non-zero attributes add to a sum, which walks the partners
    of the couple's own terms; it is exact, so no hash seed changes a score.
    """
    if len(source_docs) != len(target_docs):
        raise ValueError(
            f"{len(source_docs)} source documents for {len(target_docs)} target documents"
        )
    targets_of, sources_of = dictionary._targets_of, dictionary._sources_of
    rows_s = _tfidf_rows(source_docs, source_stats, targets_of)
    rows_t = _tfidf_rows(target_docs, target_stats, sources_of)
    scores = []
    for w_s, w_t in zip(rows_s, rows_t):
        dot = fsum(a * w_t[wt] for ws, a in w_s.items() for wt in targets_of[ws] if wt in w_t)
        norm_s = fsum(a * a for ws, a in w_s.items() for _ in targets_of[ws])
        norm_t = fsum(b * b for wt, b in w_t.items() for _ in sources_of[wt])
        scores.append(dot / (norm_s**0.5 * norm_t**0.5) if norm_s and norm_t else 0.0)
    return scores


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
