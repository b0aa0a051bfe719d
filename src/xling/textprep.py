"""Tokenization, word reduction and per-side filtering.

Text becomes terms in one way, one corpus side at a time:
:func:`run_pipeline` splits each text into lowercased words with
:func:`tokenize`, maps each word to its side's reduced term as a
:class:`PipelineConfig` describes, drops stopwords, and then drops terms
below the corpus-frequency floor.

The word reducers shipped here are deliberately small, rule-table driven
stand-ins for the heavyweight morphological tools commonly used for Arabic
and English. Every reducer ``r`` is a pure function and is idempotent on
its own output: each one re-applies its rule pass until the word stops
changing, so ``r(r(w)) == r(w)`` holds by construction. Being pure, a
reducer runs once per distinct word of a side; the pipeline looks up the rest.

The two stemmers return a word unchanged, without a rule pass, when no
table entry can touch it: ``suffix_stem`` when no English rule ends with the
word's last letter, ``light_stem`` when no Arabic prefix starts with its
first letter and no suffix ends with its last. Both letter sets are derived
from the tables, so the early-outs stay exact when a table changes.
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
# ASCII fast path: each ASCII letter or digit maps to its lowercase form,
# every other byte to a space.
_ASCII_WORD_BYTES = bytes(
    ord(ch.lower()) if ch.isascii() and ch.isalnum() else ord(" ") for ch in map(chr, range(256))
)


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercased word tokens, dropping punctuation.

    Digits are kept as tokens; mixed runs such as ``v2`` stay in one piece.
    Each word is lowercased after the split: lowercasing the text first
    could split a word, since ``"İ".lower()`` adds a combining dot, which
    is not a word character, and a final ``Σ`` lowers by its context.

    ASCII text takes a fast path with the same tokens: there the word
    characters are exactly ``[A-Za-z0-9]`` and lowercasing maps ``A-Z`` to
    ``a-z`` one character to one, so a byte table that lowers letters and
    blanks everything else, followed by a split on the blanks, finds the
    same words, already lowered.
    """
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_WORD_BYTES).decode("ascii").split()
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

# The letters an affix strip can start from: a word that starts with none of
# the first and ends with none of the second has nothing to strip.
_AR_PREFIX_FIRSTS = frozenset(prefix[0] for prefix in _AR_PREFIXES)
_AR_SUFFIX_LASTS = frozenset(suffix[-1] for suffix in _AR_SUFFIXES)

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
    if word[:1] not in _AR_PREFIX_FIRSTS and word[-1:] not in _AR_SUFFIX_LASTS:
        return word
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

    A simplified stand-in for a real root extractor. No pass leaves fewer
    than three letters, so a root that short is the light stem itself.
    """
    return _fixpoint(lambda w: _root_pass(light_stem(w)), light_stem(word))


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
    if word[-1:] not in _EN_RULES_BY_LAST:
        return word
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


def run_pipeline(
    texts: Sequence[str],
    config: PipelineConfig = PipelineConfig(),
    side: str = "source",
    dictionary=None,
) -> list[list[str]]:
    """Tokenize, reduce and filter one corpus side; returns its terms.

    Each distinct word is reduced once, by the reducer ``config`` names for
    ``side``; ``dictionary`` is read by the ``morphar`` reducer only. A token
    is dropped when it or its reduced form is a stopword, and so is a term
    whose count over the whole side (stopword occurrences included) is below
    ``min_corpus_frequency``. The default config only tokenizes.
    """
    reducer = make_reducer(config.reducer_for(side), dictionary=dictionary, side=side)
    docs = [tokenize(text) for text in texts]
    reduced = {word: reducer(word) for word in set().union(*docs)}
    stopwords = config.stopwords
    term_of = {
        word: None if word in stopwords or term in stopwords else term
        for word, term in reduced.items()
    }
    if config.min_corpus_frequency > 1:
        counts: Counter = Counter()
        for word, n in Counter(chain.from_iterable(docs)).items():
            counts[reduced[word]] += n
        for word, term in term_of.items():
            if term is not None and counts[term] < config.min_corpus_frequency:
                term_of[word] = None
    return [[t for t in map(term_of.__getitem__, doc) if t is not None] for doc in docs]


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stopword file: UTF-8, one token per line, ``#`` starts a comment.

    A leading byte-order mark is ignored. Entries keep their case;
    :class:`PipelineConfig` lowercases them.
    """
    # read_text folds "\r\n" and "\r" into "\n"; no other character breaks a line.
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    return frozenset(filter(None, (raw.split("#", 1)[0].strip() for raw in lines)))
