"""Bilingual dictionary storage and dictionary-based comparability measures.

Documents are treated as bags of unique reduced terms for the binary
measure, but raw token counts are the denominators for the OOV and
matching rates. Callers are responsible for reducing document tokens and
dictionary entries with the same reducers; ``load_dictionary`` takes one
reducer per side and reduces each term as it reads it, and ``xling train``
and ``xling score`` pass it the ``--reducer-source``/``--reducer-target``
reducers (except ``identity``, and ``morphar``, which already maps words
onto the dictionary's own terms).

A dictionary is built in one pass: duplicate synsets are dropped, and each
side maps every term to its partners on the other side, as an unordered
set, which membership, translations and the measures read. ``dict_cosines``
scores a collection of couples: it weights each side's documents in one
pass (``Vocabulary.weight_rows``), then walks only the partners of each
couple's own terms instead of every pair, and sorts them itself.
``dict_cosine`` is its one-couple case.
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

    __slots__ = ("synsets", "_targets_of", "_sources_of")

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


def trans(
    word: str,
    target_document: Iterable[str],
    dictionary: BilingualDictionary,
    *,
    side: str = "source",
) -> int:
    """1 if a translation of ``word`` occurs in the other document, else 0.

    ``word`` is looked up on the dictionary's ``side``; with
    ``side="target"`` the document is searched for source terms.
    """
    bag = target_document if isinstance(target_document, (set, frozenset)) else set(target_document)
    translations = dictionary.translations(word, side)
    return 1 if translations and not translations.isdisjoint(bag) else 0


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
    in_vocab = [w for w in set(d_s) if w in known]
    if not in_vocab:
        return 0.0
    bag = set(d_t)
    hits = sum(trans(w, bag, dictionary, side=side) for w in in_vocab)
    return hits / len(in_vocab)


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
    bag_t = set(d_t)
    bag_s = set(d_s)
    fwd = sum(1 for w in d_s if trans(w, bag_t, dictionary))
    bwd = sum(1 for w in d_t if trans(w, bag_s, dictionary, side="target"))
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

    Only pairs with a non-zero attribute add to a sum, so each sum walks the
    partners of the couple's own terms instead of every pair. It adds the same
    terms in the same (w_s, w_t) order as a walk over every pair would, so
    each score is bit-identical to that walk.
    """
    if len(source_docs) != len(target_docs):
        raise ValueError(
            f"{len(source_docs)} source documents for {len(target_docs)} target documents"
        )
    sources_of = dictionary._sources_of
    rows_s = list(_tfidf_rows(source_docs, source_stats, dictionary._targets_of))
    rows_t = _tfidf_rows(target_docs, target_stats, sources_of)
    targets_of = {ws: sorted(dictionary._targets_of[ws]) for ws in set().union(*rows_s)}
    return [
        _paired_cosine(w_s, w_t, targets_of, sources_of) for w_s, w_t in zip(rows_s, rows_t)
    ]


def _paired_cosine(
    weights_s: Mapping[str, float],
    weights_t: Mapping[str, float],
    targets_of: Mapping[str, Sequence[str]],
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
