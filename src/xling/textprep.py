"""Tokenization, word reduction and per-side filtering.

Text becomes terms in one way: :func:`tokenize` splits it into lowercased
words, and a :class:`Preprocessor`, built once per corpus side from a
:class:`PipelineConfig`, maps each word to its reduced term or to None for
a stopword. :func:`run_pipeline` applies it to a whole side and then drops
terms below the corpus-frequency floor.

The word reducers shipped here are deliberately small, rule-table driven
stand-ins for the heavyweight morphological tools commonly used for Arabic
and English. Every reducer ``r`` is a pure function and is idempotent on
its own output: each one re-applies its rule pass until the word stops
changing, so ``r(r(w)) == r(w)`` holds by construction. Being pure, a
reducer runs once per distinct word; the preprocessor memoizes the rest.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping, Sequence

__all__ = [
    "ReducerKind",
    "PipelineConfig",
    "Preprocessor",
    "tokenize",
    "make_reducer",
    "light_stem",
    "root_stem",
    "suffix_stem",
    "lemmatize",
    "run_pipeline",
    "load_stopwords",
]


# Word = maximal run of Unicode letters/digits. Underscore is excluded so
# that identifiers split; punctuation never survives.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercased word tokens, dropping punctuation.

    Digits are kept as tokens; mixed runs such as ``v2`` stay in one piece.
    Each word is lowercased after the split: lowercasing the text first
    could split a word, since ``"İ".lower()`` adds a combining dot, which
    is not a word character.
    """
    return list(map(str.lower, _WORD_RE.findall(text)))


class ReducerKind(enum.Enum):
    IDENTITY = "identity"
    SUFFIX_STEMMER = "suffix_stemmer"
    LEMMA_TABLE = "lemma_table"
    LIGHT_STEMMER = "light_stemmer"
    ROOTER = "rooter"
    MORPHAR = "morphar"


# --------------------------------------------------------------------------
# Affix tables. Ordered by priority: longest entries first so that
# longest-match wins. The compiled forms below rely on this order.
# --------------------------------------------------------------------------

# Definite-article family, future/imperfect markers and conjunctions. Bare
# prepositions (b/k/l) are left out: they cascade badly on noun-initial
# root letters once stripping runs to fixpoint.
_AR_PREFIXES: tuple[str, ...] = (
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
_AR_SUFFIXES: tuple[str, ...] = (
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
_EN_SUFFIX_RULES: tuple[tuple[str, str], ...] = (
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
_LEMMA_TABLE: Mapping[str, str] = {
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

# One light-stemming pass as one match: at most one prefix, tried in table
# order, the stem, then at most one suffix. The lazy stem makes the longest
# suffix that leaves the floor win, the first in table order. A word below
# the floor does not match.
_AR_AFFIX_RE = re.compile(
    f"(?:{'|'.join(_AR_PREFIXES)})?(.{{{_MIN_STEM},}}?)(?:{'|'.join(_AR_SUFFIXES)})?",
    re.DOTALL,
)

# The English rules grouped by the word's last letter, in table order.
_EN_RULES_BY_LAST: dict[str, tuple[tuple[str, str], ...]] = {
    last: tuple(rule for rule in _EN_SUFFIX_RULES if rule[0][-1] == last)
    for last in {suffix[-1] for suffix, _ in _EN_SUFFIX_RULES}
}


def _fixpoint(fn: Callable[[str], str], word: str) -> str:
    prev = None
    while word != prev:
        prev = word
        word = fn(word)
    return word


def light_stem(word: str) -> str:
    """Strip attached prefixes and suffixes, leaving the stem intact."""
    m = _AR_AFFIX_RE.fullmatch(word)
    while m is not None and m.group(1) != word:
        word = m.group(1)
        m = _AR_AFFIX_RE.fullmatch(word)
    return word


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


def root_stem(word: str) -> str:
    """Light-stem, then strip infix patterns down to a 3-4 letter root.

    A simplified stand-in for a real root extractor; falls back to the light
    stem when stripping would leave fewer than three letters.
    """
    stem = light_stem(word)
    root = _fixpoint(lambda w: _root_pass(light_stem(w)), stem)
    if len(root) < _MIN_STEM:
        return stem
    return root


def _suffix_pass(word: str) -> str:
    for suffix, replacement in _EN_RULES_BY_LAST.get(word[-1:], ()):
        if not word.endswith(suffix):
            continue
        if suffix == "s" and (word.endswith("ss") or word.endswith("us")):
            continue
        candidate = word[: len(word) - len(suffix)] + replacement
        if len(candidate) >= _MIN_STEM:
            return candidate
    return word


def suffix_stem(word: str) -> str:
    """Strip English inflectional suffixes by ordered rewrite rules."""
    return _fixpoint(_suffix_pass, word)


def lemmatize(word: str) -> str:
    """Exception-table lookup with suffix-stemmer fallback."""
    hit = _LEMMA_TABLE.get(word)
    if hit is not None:
        return hit
    return suffix_stem(word)


# Every reducer but morphar, which needs a dictionary (see make_reducer);
# ``str`` returns a word unchanged.
_REDUCERS: dict[ReducerKind, Callable[[str], str]] = {
    ReducerKind.IDENTITY: str,
    ReducerKind.SUFFIX_STEMMER: suffix_stem,
    ReducerKind.LEMMA_TABLE: lemmatize,
    ReducerKind.LIGHT_STEMMER: light_stem,
    ReducerKind.ROOTER: root_stem,
}


def make_reducer(
    kind: ReducerKind, *, dictionary=None, side: str = "source"
) -> Callable[[str], str]:
    """Build a word->word reducer for ``kind``.

    For MORPHAR the reduced form is the light stem when the dictionary knows
    it on the given side, and the root otherwise, so downstream matching can
    work on plain reduced bags. Every kind rejects a side other than
    ``"source"`` or ``"target"``.
    """
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    if kind is not ReducerKind.MORPHAR:
        return _REDUCERS[kind]
    if dictionary is None:
        raise ValueError("morphar requires a bilingual dictionary")

    def _morphar(word: str) -> str:
        stem = light_stem(word)
        if dictionary.contains(stem, side):
            return stem
        return root_stem(word)

    return _morphar


# --------------------------------------------------------------------------
# Per-side preprocessing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the per-side preprocessing pipeline.

    Stopwords are lowercased, as tokens are, so ``"The"`` drops ``the``.
    """

    stopwords: frozenset[str] = field(default_factory=frozenset)
    min_corpus_frequency: int = 1
    reducer_source: ReducerKind = ReducerKind.IDENTITY
    reducer_target: ReducerKind = ReducerKind.IDENTITY

    def __post_init__(self):
        if self.min_corpus_frequency < 1:
            raise ValueError("min_corpus_frequency must be >= 1")
        object.__setattr__(self, "stopwords", frozenset(map(str.lower, self.stopwords)))

    def reducer_for(self, side: str) -> ReducerKind:
        if side == "source":
            return self.reducer_source
        if side == "target":
            return self.reducer_target
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")


class Preprocessor:
    """Word-to-term mapping for one corpus side, reducing each word once.

    ``dictionary`` is needed by the ``morphar`` reducer only. The memo holds
    the reduced form of every word seen, stopwords included, so that
    corpus-frequency counts and dictionary terms can use it too.
    """

    def __init__(
        self, config: PipelineConfig = PipelineConfig(), side: str = "source", dictionary=None
    ):
        self.kind = config.reducer_for(side)
        self.stopwords = config.stopwords
        self.min_count = config.min_corpus_frequency
        self._reducer = make_reducer(self.kind, dictionary=dictionary, side=side)
        self._memo: dict[str, str] = {}

    def reduce(self, word: str) -> str:
        """The reduced form of ``word``."""
        reduced = self._memo.get(word)
        if reduced is None:
            reduced = self._memo[word] = self._reducer(word)
        return reduced

    def term(self, word: str) -> str | None:
        """The term a token contributes: its reduced form, or None for a stopword.

        A token is a stopword when it or its reduced form is in the list.
        """
        reduced = self.reduce(word)
        if word in self.stopwords or reduced in self.stopwords:
            return None
        return reduced


def run_pipeline(
    texts: Sequence[str], preprocessor: Preprocessor | None = None
) -> list[list[str]]:
    """Tokenize, reduce and filter one corpus side; returns its terms.

    Stopwords are dropped, and so are terms whose count over the whole side
    (stopword occurrences included) is below ``min_corpus_frequency``. The
    default preprocessor only tokenizes.
    """
    prep = preprocessor if preprocessor is not None else Preprocessor()
    docs = [tokenize(text) for text in texts]
    term_of = {word: prep.term(word) for word in set().union(*docs)}
    if prep.min_count > 1:
        counts: Counter = Counter()
        for word, n in Counter(chain.from_iterable(docs)).items():
            counts[prep.reduce(word)] += n
        for word, term in term_of.items():
            if term is not None and counts[term] < prep.min_count:
                term_of[word] = None
    return [[t for t in map(term_of.__getitem__, doc) if t is not None] for doc in docs]


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stopword file: UTF-8, one token per line, ``#`` starts a comment.

    Entries keep their case; :class:`PipelineConfig` lowercases them.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return frozenset(filter(None, (raw.split("#", 1)[0].strip() for raw in lines)))
