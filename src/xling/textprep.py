"""Tokenization, filtering and word reduction.

The word reducers shipped here are deliberately small, rule-table driven
stand-ins for the heavyweight morphological tools commonly used for Arabic
and English. Every reducer is a pure function and is idempotent on its own
output: each one re-applies its rule pass until the word stops changing, so
``reduce(reduce(w)) == reduce(w)`` holds by construction.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "Token",
    "ReducerKind",
    "PipelineConfig",
    "tokenize",
    "reduce",
    "make_reducer",
    "light_stem",
    "root_stem",
    "suffix_stem",
    "lemmatize",
    "morphar_lookup",
    "corpus_term_counts",
    "apply_filters",
    "run_pipeline",
    "load_stopwords",
    "load_affix_list",
]


class Token(NamedTuple):
    """A word occurrence: the raw surface form and its current reduced form."""

    surface: str
    reduced: str


# Word = maximal run of Unicode letters/digits. Underscore is excluded so
# that identifiers split; punctuation never survives.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str, lowercase: bool = True) -> list[Token]:
    """Split ``text`` into word tokens, dropping punctuation.

    Digits are kept as tokens; mixed runs such as ``v2`` stay in one piece.
    The ``reduced`` field starts out as the (optionally lowercased) surface.
    """
    tokens = []
    for m in _WORD_RE.finditer(text):
        surface = m.group(0)
        reduced = surface.lower() if lowercase else surface
        tokens.append(Token(surface, reduced))
    return tokens


class ReducerKind(enum.Enum):
    IDENTITY = "identity"
    SUFFIX_STEMMER = "suffix_stemmer"
    LEMMA_TABLE = "lemma_table"
    LIGHT_STEMMER = "light_stemmer"
    ROOTER = "rooter"
    MORPHAR = "morphar"


# --------------------------------------------------------------------------
# Affix tables. Ordered by priority: longest entries first so that
# longest-match wins. All lists are swappable via function arguments or
# external files (see load_affix_list).
# --------------------------------------------------------------------------

# Definite-article family, future/imperfect markers and conjunctions. Bare
# prepositions (b/k/l) are left out: they cascade badly on noun-initial
# root letters once stripping runs to fixpoint.
DEFAULT_AR_PREFIXES: tuple[str, ...] = (
    "وال",  # وال
    "بال",  # بال
    "كال",  # كال
    "فال",  # فال
    "لل",        # لل
    "ال",        # ال
    "سي",        # سي
    "و",              # و
    "ف",              # ف
    "ي",              # ي
)

# Feminine/plural/dual endings and attached pronouns.
DEFAULT_AR_SUFFIXES: tuple[str, ...] = (
    "ات",  # ات
    "ون",  # ون
    "ين",  # ين
    "ان",  # ان
    "ها",  # ها
    "نا",  # نا
    "ة",        # ة
    "ه",        # ه
    "ي",        # ي
    "ت",        # ت
)

# Letters treated as removable infixes when reducing towards a root.
_AR_WEAK_LETTERS = frozenset("اويىآأإئؤ")

# Derivational prefix stripped while rooting (e.g. noun-of-place marker).
_AR_ROOT_PREFIX = "م"  # م

# English inflectional endings, applied longest-match first. Each rule
# strictly shortens the word, which guarantees fixpoint termination; the
# vowel suffixes rewrite to a trailing "e" so a later pass cannot cascade
# into the bare-s rule.
DEFAULT_EN_SUFFIX_RULES: tuple[tuple[str, str], ...] = (
    ("sses", "ss"),
    ("ies", "y"),
    ("ied", "y"),
    ("ing", "e"),
    ("es", "e"),
    ("ed", "e"),
    ("s", ""),
)

# Exact-lookup exceptions consulted before the suffix stemmer. Values are
# stable under lemmatize() so the reducer stays idempotent.
DEFAULT_LEMMA_TABLE: Mapping[str, str] = {
    "went": "go", "gone": "go", "goes": "go",
    "was": "be", "were": "be", "is": "be", "are": "be", "been": "be", "am": "be",
    "has": "have", "had": "have",
    "did": "do", "done": "do",
    "wrote": "write", "written": "write",
    "said": "say",
    "children": "child", "men": "man", "women": "woman",
    "mice": "mouse", "feet": "foot", "teeth": "tooth",
    "better": "good", "best": "good", "worse": "bad", "worst": "bad",
    "ran": "run", "saw": "see", "seen": "see",
    "took": "take", "taken": "take", "made": "make",
    "brought": "bring", "thought": "think", "bought": "buy",
    "left": "leave", "felt": "feel", "kept": "keep", "held": "hold",
    "told": "tell", "began": "begin", "begun": "begin",
    "came": "come", "gave": "give", "given": "give",
    "knew": "know", "known": "know", "found": "find",
    "got": "get", "gotten": "get", "met": "meet",
    "paid": "pay", "sent": "send", "spent": "spend",
    "stood": "stand", "understood": "understand",
    "won": "win", "spoke": "speak", "spoken": "speak",
}

_MIN_STEM = 3  # affix strips never leave fewer than three letters


def _strip_once(word: str, prefixes: Sequence[str], suffixes: Sequence[str]) -> str:
    """One light-stemming pass: strip at most one prefix and one suffix."""
    for p in prefixes:
        if word.startswith(p) and len(word) - len(p) >= _MIN_STEM:
            word = word[len(p):]
            break
    for s in suffixes:
        if word.endswith(s) and len(word) - len(s) >= _MIN_STEM:
            word = word[: len(word) - len(s)]
            break
    return word


def _fixpoint(fn: Callable[[str], str], word: str) -> str:
    prev = None
    while word != prev:
        prev = word
        word = fn(word)
    return word


def light_stem(
    word: str,
    prefixes: Sequence[str] = DEFAULT_AR_PREFIXES,
    suffixes: Sequence[str] = DEFAULT_AR_SUFFIXES,
) -> str:
    """Strip attached prefixes and suffixes, leaving the stem intact."""
    return _fixpoint(lambda w: _strip_once(w, prefixes, suffixes), word)


def _root_pass(word: str) -> str:
    """Reduce a light stem towards a 3-4 letter root.

    Strips the derivational initial meem and removes interior weak letters,
    one per pass, while more than three letters remain.
    """
    if len(word) <= _MIN_STEM:
        return word
    if word.startswith(_AR_ROOT_PREFIX) and len(word) - 1 >= _MIN_STEM:
        return word[1:]
    for i in range(1, len(word) - 1):
        if word[i] in _AR_WEAK_LETTERS:
            return word[:i] + word[i + 1:]
    return word


def root_stem(
    word: str,
    prefixes: Sequence[str] = DEFAULT_AR_PREFIXES,
    suffixes: Sequence[str] = DEFAULT_AR_SUFFIXES,
) -> str:
    """Light-stem, then strip infix patterns down to a 3-4 letter root.

    A simplified stand-in for a real root extractor; falls back to the light
    stem when stripping would leave fewer than three letters.
    """
    stem = light_stem(word, prefixes, suffixes)
    root = _fixpoint(lambda w: _root_pass(light_stem(w, prefixes, suffixes)), stem)
    if len(root) < _MIN_STEM:
        return stem
    return root


def _suffix_pass(word: str, rules: Sequence[tuple[str, str]]) -> str:
    for suffix, replacement in rules:
        if not word.endswith(suffix):
            continue
        if suffix == "s" and (word.endswith("ss") or word.endswith("us")):
            continue
        candidate = word[: len(word) - len(suffix)] + replacement
        if len(candidate) >= _MIN_STEM:
            return candidate
    return word


def suffix_stem(word: str, rules: Sequence[tuple[str, str]] = DEFAULT_EN_SUFFIX_RULES) -> str:
    """Strip English inflectional suffixes by ordered rewrite rules."""
    return _fixpoint(lambda w: _suffix_pass(w, rules), word)


def lemmatize(word: str, table: Mapping[str, str] = DEFAULT_LEMMA_TABLE) -> str:
    """Exception-table lookup with suffix-stemmer fallback."""
    hit = table.get(word)
    if hit is not None:
        return hit
    return suffix_stem(word)


def reduce(word: str, kind: ReducerKind) -> str:
    """Apply the named reduction to one word.

    ``ReducerKind.MORPHAR`` is dictionary-directed and cannot be applied
    without one; use :func:`make_reducer` or :func:`morphar_lookup`.
    """
    if kind is ReducerKind.IDENTITY:
        return word
    if kind is ReducerKind.SUFFIX_STEMMER:
        return suffix_stem(word)
    if kind is ReducerKind.LEMMA_TABLE:
        return lemmatize(word)
    if kind is ReducerKind.LIGHT_STEMMER:
        return light_stem(word)
    if kind is ReducerKind.ROOTER:
        return root_stem(word)
    if kind is ReducerKind.MORPHAR:
        raise ValueError("morphar requires a bilingual dictionary; use make_reducer()")
    raise ValueError(f"unknown reducer kind: {kind!r}")


def make_reducer(
    kind: ReducerKind,
    *,
    dictionary=None,
    side: str = "source",
    light: Callable[[str], str] = light_stem,
    root: Callable[[str], str] = root_stem,
) -> Callable[[str], str]:
    """Build a word->word reducer for ``kind``.

    For MORPHAR the reduced form is the light stem when the dictionary knows
    it on the given side, and the root otherwise, so downstream matching can
    work on plain reduced bags.
    """
    if kind is ReducerKind.MORPHAR:
        if dictionary is None:
            raise ValueError("morphar requires a bilingual dictionary")

        def _morphar(word: str) -> str:
            stem = light(word)
            if dictionary.contains(stem, side):
                return stem
            return root(word)

        return _morphar
    return lambda w: reduce(w, kind)


def morphar_lookup(
    word: str,
    dictionary,
    *,
    side: str = "source",
    light: Callable[[str], str] = light_stem,
    root: Callable[[str], str] = root_stem,
) -> frozenset[str]:
    """Translations of ``word`` under light-stem-first, root-fallback lookup.

    Returns the translations of the light stem when the dictionary contains
    it; otherwise the translations of the root (possibly empty).
    """
    stem = light(word)
    if dictionary.contains(stem, side):
        return dictionary.translations(stem, side)
    return dictionary.translations(root(word), side)


# --------------------------------------------------------------------------
# Filtering pipeline
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the per-side preprocessing pipeline."""

    lowercase: bool = True
    stopwords: frozenset[str] = field(default_factory=frozenset)
    min_corpus_frequency: int = 1
    reducer_source: ReducerKind = ReducerKind.IDENTITY
    reducer_target: ReducerKind = ReducerKind.IDENTITY

    def __post_init__(self):
        if self.min_corpus_frequency < 1:
            raise ValueError("min_corpus_frequency must be >= 1")

    def reducer_for(self, side: str) -> ReducerKind:
        if side == "source":
            return self.reducer_source
        if side == "target":
            return self.reducer_target
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")


def corpus_term_counts(docs: Iterable[Sequence[Token]]) -> Counter:
    """Total occurrence count per reduced term over the whole corpus."""
    counts: Counter = Counter()
    for doc in docs:
        counts.update(t.reduced for t in doc)
    return counts


def apply_filters(
    docs: Sequence[Sequence[Token]],
    config: PipelineConfig,
    corpus_counts: Mapping[str, int],
) -> list[list[Token]]:
    """Drop stopwords and low-frequency terms.

    Stopwords are matched against both the lowercased surface and the
    reduced form; frequency is checked on the reduced form, against counts
    computed over the same reduction.
    """
    out = []
    for doc in docs:
        kept = [
            t
            for t in doc
            if t.surface.lower() not in config.stopwords
            and t.reduced not in config.stopwords
            and corpus_counts.get(t.reduced, 0) >= config.min_corpus_frequency
        ]
        out.append(kept)
    return out


def run_pipeline(
    texts: Sequence[str],
    config: PipelineConfig = PipelineConfig(),
    *,
    side: str = "source",
    dictionary=None,
) -> list[list[str]]:
    """Tokenize, reduce and filter one corpus side; returns reduced terms.

    Reducers are pure, so each distinct word is reduced once per call.
    """
    kind = config.reducer_for(side)
    docs = [tokenize(text, lowercase=config.lowercase) for text in texts]
    if kind is not ReducerKind.IDENTITY:
        reducer = make_reducer(kind, dictionary=dictionary, side=side)
        memo: dict[str, str] = {}
        for doc in docs:
            for i, t in enumerate(doc):
                reduced = memo.get(t.reduced)
                if reduced is None:
                    reduced = memo[t.reduced] = reducer(t.reduced)
                doc[i] = Token(t.surface, reduced)
    counts = corpus_term_counts(docs)
    filtered = apply_filters(docs, config, counts)
    return [[t.reduced for t in doc] for doc in filtered]


# --------------------------------------------------------------------------
# External list files: UTF-8, one entry per line, '#' starts a comment.
# --------------------------------------------------------------------------


def _read_list_file(path: str | Path) -> list[str]:
    entries = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append(line)
    return entries


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stopword file (one token per line, ``#`` comments)."""
    return frozenset(_read_list_file(path))


def load_affix_list(path: str | Path) -> tuple[str, ...]:
    """Load an affix file; entries keep file order (priority order)."""
    return tuple(_read_list_file(path))
