"""Corpus containers and loaders.

A corpus is a pair of parallel document lists: index ``i`` on the source
side aligns with index ``i`` on the target side. Two on-disk layouts are
supported: pair directories (``<root>/<lang>/<id>.txt``) and JSONL with one
pair object per line.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .errors import (
    DegenerateSplitError,
    EmptyCorpusError,
    MalformedRecordError,
    MissingCounterpartError,
)
from .textprep import tokenize

__all__ = [
    "Document",
    "AlignedCorpus",
    "load_aligned_corpus",
    "save_aligned_corpus",
    "load_documents",
    "save_documents",
    "split_corpus",
    "document_stats",
]


@dataclass(frozen=True)
class Document:
    """One document: identifier, language, raw text and optional metadata.

    ``group_key`` buckets documents for grouped alignment (e.g. a month tag
    such as ``"2012-03"``). Empty text is allowed only when the document is
    explicitly flagged degenerate.
    """

    id: str
    language: str
    text: str
    group_key: str | None = None
    category: str | None = None
    degenerate: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        if not isinstance(self.text, str):
            raise TypeError(
                f"document {self.id!r} text must be a string, not {type(self.text).__name__}"
            )
        if not self.text and not self.degenerate:
            raise ValueError(f"document {self.id!r} has empty text and is not flagged degenerate")


@dataclass(frozen=True)
class AlignedCorpus:
    """Parallel lists of documents; pair ``i`` is (source[i], target[i])."""

    source_docs: tuple[Document, ...]
    target_docs: tuple[Document, ...]

    def __post_init__(self):
        object.__setattr__(self, "source_docs", tuple(self.source_docs))
        object.__setattr__(self, "target_docs", tuple(self.target_docs))
        if len(self.source_docs) != len(self.target_docs):
            raise ValueError(
                "side lengths differ: %d source vs %d target"
                % (len(self.source_docs), len(self.target_docs))
            )
        for side_name, side in (("source", self.source_docs), ("target", self.target_docs)):
            ids = [d.id for d in side]
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate document ids on {side_name} side")
            languages = {d.language for d in side}
            if len(languages) > 1:
                raise ValueError(f"mixed languages on {side_name} side: {sorted(languages)}")

    @property
    def pair_count(self) -> int:
        return len(self.source_docs)

    def __len__(self) -> int:
        return self.pair_count

    def pairs(self) -> Iterator[tuple[Document, Document]]:
        return zip(self.source_docs, self.target_docs)

    def subset(self, indices: Sequence[int]) -> "AlignedCorpus":
        return AlignedCorpus(
            tuple(self.source_docs[i] for i in indices),
            tuple(self.target_docs[i] for i in indices),
        )


_REQUIRED_JSONL_FIELDS = ("src_id", "tgt_id", "src_text", "tgt_text")


def _load_jsonl(path: Path, src_lang: str, tgt_lang: str) -> AlignedCorpus:
    source, target = [], []
    with path.open("r", encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(line_number, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedRecordError(line_number, "record is not an object")
            for fld in _REQUIRED_JSONL_FIELDS:
                if fld not in record:
                    raise MalformedRecordError(line_number, f"missing field {fld!r}")
            group_key = record.get("group_key")
            category = record.get("category")
            try:
                source.append(
                    Document(
                        id=str(record["src_id"]),
                        language=src_lang,
                        text=record["src_text"],
                        group_key=group_key,
                        category=category,
                        degenerate=not record["src_text"],
                    )
                )
                target.append(
                    Document(
                        id=str(record["tgt_id"]),
                        language=tgt_lang,
                        text=record["tgt_text"],
                        group_key=group_key,
                        category=category,
                        degenerate=not record["tgt_text"],
                    )
                )
            except (TypeError, ValueError) as exc:
                raise MalformedRecordError(line_number, str(exc)) from exc
    return AlignedCorpus(tuple(source), tuple(target))


def _load_pairdirs(path: Path, src_lang: str | None, tgt_lang: str | None) -> AlignedCorpus:
    subdirs = sorted(d.name for d in path.iterdir() if d.is_dir())
    if src_lang is None or tgt_lang is None:
        if len(subdirs) != 2:
            raise ValueError(
                f"pairdirs root {path} has {len(subdirs)} subdirectories; "
                "pass src_lang/tgt_lang to disambiguate"
            )
        src_lang, tgt_lang = subdirs
    src_dir, tgt_dir = path / src_lang, path / tgt_lang
    for d in (src_dir, tgt_dir):
        if not d.is_dir():
            raise FileNotFoundError(f"missing language directory: {d}")

    src_ids = sorted(p.stem for p in src_dir.glob("*.txt"))
    tgt_ids = sorted(p.stem for p in tgt_dir.glob("*.txt"))
    if src_ids != tgt_ids:
        missing = sorted(set(src_ids).symmetric_difference(tgt_ids))
        raise MissingCounterpartError(
            f"unpaired document ids in {path}: {', '.join(missing[:10])}"
        )

    source, target = [], []
    for doc_id in src_ids:
        src_text = (src_dir / f"{doc_id}.txt").read_text(encoding="utf-8")
        tgt_text = (tgt_dir / f"{doc_id}.txt").read_text(encoding="utf-8")
        source.append(Document(doc_id, src_lang, src_text, degenerate=not src_text))
        target.append(Document(doc_id, tgt_lang, tgt_text, degenerate=not tgt_text))
    return AlignedCorpus(tuple(source), tuple(target))


def load_aligned_corpus(
    path: str | Path,
    format: str = "jsonl",
    *,
    src_lang: str | None = None,
    tgt_lang: str | None = None,
) -> AlignedCorpus:
    """Load an aligned corpus from ``path``.

    ``format`` is ``"jsonl"`` (one pair object per line with fields src_id,
    tgt_id, src_text, tgt_text and optional group_key/category) or
    ``"pairdirs"`` (``<root>/<lang>/<id>.txt`` with matching ids).
    On-disk ordering is preserved: line order for jsonl, sorted id order for
    pair directories.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    if format == "jsonl":
        return _load_jsonl(path, src_lang or "src", tgt_lang or "tgt")
    if format == "pairdirs":
        return _load_pairdirs(path, src_lang, tgt_lang)
    raise ValueError(f"unknown corpus format: {format!r}")


def save_aligned_corpus(corpus: AlignedCorpus, path: str | Path) -> None:
    """Write the corpus as JSONL; output is byte-deterministic."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for src, tgt in corpus.pairs():
            record: dict = {
                "src_id": src.id,
                "tgt_id": tgt.id,
                "src_text": src.text,
                "tgt_text": tgt.text,
            }
            if src.group_key is not None:
                record["group_key"] = src.group_key
            if src.category is not None:
                record["category"] = src.category
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


def load_documents(path: str | Path, *, language: str | None = None) -> list[Document]:
    """Load a flat document file: JSONL with ``id``/``text`` plus metadata.

    Ids must be unique within the file.
    """
    docs = []
    first_line: dict[str, int] = {}
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
            doc_id = str(record["id"])
            if doc_id in first_line:
                raise MalformedRecordError(
                    line_number, f"duplicate id {doc_id!r} (first on line {first_line[doc_id]})"
                )
            first_line[doc_id] = line_number
            try:
                docs.append(
                    Document(
                        id=doc_id,
                        language=record.get("language", language or "und"),
                        text=record["text"],
                        group_key=record.get("group_key"),
                        category=record.get("category"),
                        degenerate=not record["text"],
                    )
                )
            except (TypeError, ValueError) as exc:
                raise MalformedRecordError(line_number, str(exc)) from exc
    return docs


def save_documents(docs: Sequence[Document], path: str | Path) -> None:
    """Write documents as flat JSONL (inverse of :func:`load_documents`)."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            record: dict = {"id": doc.id, "language": doc.language, "text": doc.text}
            if doc.group_key is not None:
                record["group_key"] = doc.group_key
            if doc.category is not None:
                record["category"] = doc.category
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


def split_corpus(
    corpus: AlignedCorpus, train_fraction: float, seed: int
) -> tuple[AlignedCorpus, AlignedCorpus]:
    """Deterministically split pairs into train/test parts.

    Couples stay intact; the train part holds ``round(train_fraction * d)``
    pairs. Original pair order is preserved within each part.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    d = corpus.pair_count
    if d < 2:
        raise DegenerateSplitError(f"cannot split a corpus of {d} pair(s)")
    n_train = round(train_fraction * d)
    if n_train == 0 or n_train == d:
        raise DegenerateSplitError(
            f"fraction {train_fraction} on {d} pairs leaves an empty part"
        )
    indices = list(range(d))
    random.Random(seed).shuffle(indices)
    train_idx = sorted(indices[:n_train])
    test_idx = sorted(indices[n_train:])
    return corpus.subset(train_idx), corpus.subset(test_idx)


_SENTENCE_RE = re.compile(r"[.!?؟۔…]+|\n+")


def document_stats(docs: Sequence[Document]) -> dict:
    """Corpus-side size statistics: documents, sentences, words, vocabulary."""
    if not docs:
        raise EmptyCorpusError("no documents")
    n_sentences = 0
    n_words = 0
    vocab: set[str] = set()
    for doc in docs:
        n_sentences += sum(1 for s in _SENTENCE_RE.split(doc.text) if s.strip())
        words = tokenize(doc.text)
        n_words += len(words)
        vocab.update(words)
    n_docs = len(docs)
    return {
        "documents": n_docs,
        "sentences": n_sentences,
        "words": n_words,
        "vocabulary": len(vocab),
        "avg_sentences_per_doc": n_sentences / n_docs,
        "avg_words_per_doc": n_words / n_docs,
    }
