"""Synthetic bilingual corpora with known ground truth.

Documents are drawn from a topic mixture: each document samples a Dirichlet
mixture over topics and emits Zipf-weighted words from per-topic
vocabularies plus a shared pool of common words. The "other language" is a
deterministic word substitution (a cipher), which gives perfectly known
alignments while preserving realistic frequency structure - handy for
exercising retrieval and alignment end to end without external resources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bidict import BilingualDictionary
from .corpus import AlignedCorpus, Document

__all__ = [
    "SyntheticSpec",
    "cipher_word",
    "source_vocabulary",
    "make_parallel_corpus",
    "make_comparable_corpus",
    "add_target_noise",
    "make_dictionary",
    "make_grouped_documents",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of the generative mixture.

    Topic popularity is Zipfian (the Dirichlet base measure is skewed), so
    a sample of documents contains clusters of same-topic confusables the
    way a month of news does.
    """

    n_topics: int = 20
    words_per_topic: int = 15
    common_words: int = 12
    doc_length: tuple[int, int] = (60, 100)
    topic_alpha: float = 0.4
    common_fraction: float = 0.4


def source_vocabulary(spec: SyntheticSpec) -> list[str]:
    """Every word the generator can emit on the source side: the common
    words, then each topic's words in topic order."""
    return [f"scmn{i:03d}" for i in range(spec.common_words)] + [
        f"s{t:02d}x{i:03d}" for t in range(spec.n_topics) for i in range(spec.words_per_topic)
    ]


def cipher_word(word: str) -> str:
    """Deterministic source-to-target substitution: ``sNN...`` -> ``tNN...``."""
    return "t" + word[1:]


def _zipf(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1)
    return weights / weights.sum()


class _Generator:
    """Documents drawn from the spec's topic mixture by one seeded RNG."""

    def __init__(self, spec: SyntheticSpec, seed: int):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        words = source_vocabulary(spec)
        self.words = {"source": words, "target": [cipher_word(w) for w in words]}
        self.language = {"source": "en", "target": "ar"}
        self.alpha = spec.topic_alpha * spec.n_topics * _zipf(spec.n_topics)
        self.topic_p = _zipf(spec.words_per_topic)
        self.common_p = _zipf(spec.common_words)

    def mixture(self) -> np.ndarray:
        return self.rng.dirichlet(self.alpha)

    def documents(
        self, theta: np.ndarray | None, *sides: tuple[str, str], group_key: str | None = None
    ) -> list[Document]:
        """Draw one token sequence from mixture ``theta`` (a fresh mixture
        when None) and write it as a document for each ``(side, id)``: as
        drawn on the source side, ciphered on the target side."""
        spec, rng = self.spec, self.rng
        if theta is None:
            theta = self.mixture()
        lo, hi = spec.doc_length
        length = int(rng.integers(lo, hi + 1))
        is_common = rng.random(length) < spec.common_fraction
        topics = rng.choice(spec.n_topics, size=length, p=theta)
        topic_word = rng.choice(spec.words_per_topic, size=length, p=self.topic_p)
        common_word = rng.choice(spec.common_words, size=length, p=self.common_p)
        index = np.where(
            is_common, common_word, spec.common_words + topics * spec.words_per_topic + topic_word
        ).tolist()
        return [
            Document(doc_id, self.language[side],
                     " ".join(map(self.words[side].__getitem__, index)), group_key)
            for side, doc_id in sides
        ]


def make_parallel_corpus(
    n_pairs: int, spec: SyntheticSpec = SyntheticSpec(), seed: int = 0
) -> AlignedCorpus:
    """Aligned pairs where the target is the cipher of the source tokens."""
    gen = _Generator(spec, seed)
    couples = [
        gen.documents(None, ("source", f"e{i:04d}"), ("target", f"a{i:04d}"))
        for i in range(n_pairs)
    ]
    return AlignedCorpus(tuple(s for s, _ in couples), tuple(t for _, t in couples))


def make_comparable_corpus(
    n_pairs: int, spec: SyntheticSpec = SyntheticSpec(), seed: int = 0
) -> AlignedCorpus:
    """Aligned pairs sharing a topic mixture but independently sampled.

    The two sides discuss the same topics without being translations,
    which mimics comparable (rather than parallel) documents.
    """
    gen = _Generator(spec, seed)
    source, target = [], []
    for i in range(n_pairs):
        theta = gen.mixture()
        source += gen.documents(theta, ("source", f"e{i:04d}"))
        target += gen.documents(theta, ("target", f"a{i:04d}"))
    return AlignedCorpus(tuple(source), tuple(target))


def add_target_noise(
    corpus: AlignedCorpus,
    fraction: float,
    spec: SyntheticSpec = SyntheticSpec(),
    seed: int = 0,
) -> AlignedCorpus:
    """Replace a fraction of every target document with off-topic words.

    Replacement words are drawn uniformly from the whole target vocabulary,
    so they stay in-model but point away from the document's topics.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    inventory = [cipher_word(w) for w in source_vocabulary(spec)]
    noisy = []
    for doc in corpus.target_docs:
        tokens = doc.text.split()
        n_replace = int(round(fraction * len(tokens)))
        positions = rng.choice(len(tokens), size=n_replace, replace=False)
        picks = rng.choice(len(inventory), size=n_replace)
        for pos, pick in zip(positions, picks):
            tokens[pos] = inventory[pick]
        noisy.append(
            Document(
                doc.id, doc.language, " ".join(tokens), doc.group_key, doc.category
            )
        )
    return AlignedCorpus(corpus.source_docs, tuple(noisy))


def make_dictionary(
    spec: SyntheticSpec = SyntheticSpec(), coverage: float = 1.0, seed: int = 0
) -> BilingualDictionary:
    """Word-for-word dictionary covering a seeded fraction of the vocabulary."""
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    words = source_vocabulary(spec)
    rng = np.random.default_rng(seed)
    keep = max(1, int(round(coverage * len(words))))
    chosen = sorted(rng.choice(len(words), size=keep, replace=False))
    return BilingualDictionary(
        [((words[i],), (cipher_word(words[i]),)) for i in chosen]
    )


def make_grouped_documents(
    n_groups: int,
    planted_per_group: int,
    distractors_per_side: int,
    spec: SyntheticSpec = SyntheticSpec(),
    seed: int = 0,
) -> tuple[list[Document], list[Document], dict[str, str]]:
    """Unaligned grouped corpora with planted comparable pairs.

    Each group (think: one month of news) holds ``planted_per_group``
    source/target couples that share a topic mixture, plus independent
    same-topic-pool distractor documents on both sides. Returns the two
    document lists and the gold source-to-target mapping for the planted
    pairs.
    """
    gen = _Generator(spec, seed)
    source_docs: list[Document] = []
    target_docs: list[Document] = []
    gold: dict[str, str] = {}
    for g in range(n_groups):
        year, month = divmod(g, 12)
        group = f"{2012 + year}-{month + 1:02d}"
        for p in range(planted_per_group):
            theta = gen.mixture()
            sid, tid = f"e{g:02d}p{p:03d}", f"a{g:02d}p{p:03d}"
            source_docs += gen.documents(theta, ("source", sid), group_key=group)
            target_docs += gen.documents(theta, ("target", tid), group_key=group)
            gold[sid] = tid
        for d in range(distractors_per_side):
            source_docs += gen.documents(None, ("source", f"e{g:02d}d{d:03d}"), group_key=group)
            target_docs += gen.documents(None, ("target", f"a{g:02d}d{d:03d}"), group_key=group)
    return source_docs, target_docs, gold
