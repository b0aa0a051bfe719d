"""Corpus containers and loaders.

A corpus is a pair of parallel document lists: index ``i`` on the source
side aligns with index ``i`` on the target side. Two on-disk layouts are
supported: pair directories (``<root>/<lang>/<id>.txt``) and JSONL with one
pair object per line. Flat document files (one document object per line)
serve ``align --source-docs/--target-docs`` and the translation cache.
Every JSONL file is read through one record reader, :func:`_records`, and
written through one record writer. The reader streams the file a line at a
time (a leading byte-order mark dropped) and decodes each non-blank line
with one ``raw_decode`` call; a line that call rejects, or that holds more
after its value, is decoded again by ``json.loads``, whose error names the
fault. A ``Document`` checks its fields by exact type first and falls back
to the checks that word its errors.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    CorpusError,
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


_OPTIONAL = frozenset((str, type(None)))


@dataclass(frozen=True)
class Document:
    """One document: identifier, language, raw text and optional metadata.

    ``group_key`` buckets documents for grouped alignment (e.g. a month tag
    such as ``"2012-03"``). Text may be empty: a stripped page or an
    untranslated query is still a document.
    """

    id: str
    language: str
    text: str
    group_key: str | None = None
    category: str | None = None

    def __post_init__(self):
        # One exact-type test per field passes the common case; anything
        # else takes the checks below, which give the messages.
        if (self.id and type(self.language) is str and type(self.text) is str
                and type(self.group_key) in _OPTIONAL and type(self.category) in _OPTIONAL):
            return
        if not self.id:
            raise ValueError("document id must be non-empty")
        for name in ("language", "text"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TypeError(
                    f"document {self.id!r} {name} must be a string, not {type(value).__name__}"
                )
        for name in ("group_key", "category"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise TypeError(
                    f"document {self.id!r} {name} must be a string or null, "
                    f"not {type(value).__name__}"
                )


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

    def __len__(self) -> int:
        return len(self.source_docs)

    def pairs(self) -> Iterator[tuple[Document, Document]]:
        return zip(self.source_docs, self.target_docs)

    def subset(self, indices: Sequence[int]) -> "AlignedCorpus":
        return AlignedCorpus(
            tuple(self.source_docs[i] for i in indices),
            tuple(self.target_docs[i] for i in indices),
        )


_decode = json.JSONDecoder().raw_decode


def _records(path: Path, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, record)`` for each non-blank line of a JSONL file.

    This is the one reader of every JSONL record file; a leading byte-order
    mark is dropped. A line that is not a JSON object holding all
    ``required`` fields raises :class:`MalformedRecordError` naming the line.
    """
    fields = frozenset(required)
    with path.open("r", encoding="utf-8-sig") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record, end = _decode(line)
            except (ValueError, RecursionError):  # a JSONDecodeError, or an int past 4,300 digits
                end = -1
            if end != len(line):  # json.loads raises the error it has always raised
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:  # or nested past the limit
                    raise MalformedRecordError(line_number, f"invalid JSON: {exc}") from exc
            if type(record) is not dict or not record.keys() >= fields:
                *rest, last = map(repr, required)
                raise MalformedRecordError(
                    line_number, f"record needs {', '.join(rest)} and {last}"
                )
            yield line_number, record


def _document(
    line_number: int, record: dict, language: str, id_field: str = "id", text_field: str = "text"
) -> Document:
    """Build one ``Document`` from a record; a bad value names the line.

    An id is a string, or an integer, which becomes its decimal string.
    """
    doc_id = record[id_field]
    if type(doc_id) is int:
        doc_id = str(doc_id)
    elif type(doc_id) is not str:
        raise MalformedRecordError(
            line_number, f"{id_field} must be a string or an integer, not {type(doc_id).__name__}"
        )
    try:
        return Document(
            doc_id,
            language,
            record[text_field],
            record.get("group_key"),
            record.get("category"),
        )
    except (TypeError, ValueError) as exc:
        raise MalformedRecordError(line_number, str(exc)) from exc


def _load_jsonl(path: Path, src_lang: str, tgt_lang: str) -> AlignedCorpus:
    source, target = [], []
    for line_number, record in _records(path, ("src_id", "tgt_id", "src_text", "tgt_text")):
        source.append(_document(line_number, record, src_lang, "src_id", "src_text"))
        target.append(_document(line_number, record, tgt_lang, "tgt_id", "tgt_text"))
    return AlignedCorpus(tuple(source), tuple(target))


def _read_document(root: Path, name: str, digest) -> str:
    """The text of ``root/name``, with line ends read as ``read_text`` reads them.

    ``digest`` is updated with the name, the byte count and the bytes.
    """
    data = (root / name).read_bytes()
    if digest is not None:
        digest.update(b"%s\0%d\0" % (name.encode("utf-8"), len(data)))
        digest.update(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{name}: not UTF-8 at byte {exc.start} ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_pairdirs(path: Path, src_lang: str | None, tgt_lang: str | None,
                   digest) -> AlignedCorpus:
    if (src_lang is None) != (tgt_lang is None):
        raise ValueError("give both src_lang and tgt_lang, or neither")
    subdirs = sorted(d.name for d in path.iterdir() if d.is_dir())
    if src_lang is None:
        if len(subdirs) != 2:
            raise ValueError(
                f"pairdirs root {path} has {len(subdirs)} subdirectories; "
                "pass src_lang/tgt_lang to disambiguate"
            )
        src_lang, tgt_lang = subdirs
    if src_lang == tgt_lang:
        raise ValueError(f"src_lang and tgt_lang must differ, both are {src_lang!r}")
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

    # Files are read in the order of their sorted relative paths, the order
    # the digest covers them in.
    names = sorted(f"{lang}/{doc_id}.txt" for lang in (src_lang, tgt_lang) for doc_id in src_ids)
    texts = {name: _read_document(path, name, digest) for name in names}
    return AlignedCorpus(
        tuple(Document(i, src_lang, texts[f"{src_lang}/{i}.txt"]) for i in src_ids),
        tuple(Document(i, tgt_lang, texts[f"{tgt_lang}/{i}.txt"]) for i in src_ids),
    )


def load_aligned_corpus(
    path: str | Path,
    format: str = "jsonl",
    *,
    src_lang: str | None = None,
    tgt_lang: str | None = None,
    digest=None,
) -> AlignedCorpus:
    """Load an aligned corpus from ``path``.

    ``format`` is ``"jsonl"`` (one pair object per line with fields src_id,
    tgt_id, src_text, tgt_text and optional group_key/category) or
    ``"pairdirs"`` (``<root>/<lang>/<id>.txt`` with matching ids).
    On-disk ordering is preserved: line order for jsonl, sorted id order for
    pair directories. A document file that is not UTF-8 raises
    :class:`CorpusError` naming it and the byte offset.

    ``digest``, a ``hashlib`` object, is read only with ``"pairdirs"``. It is
    updated with each document file's relative path (``<lang>/<id>.txt``),
    byte count and bytes, in sorted path order, so that a caller gets the
    directory's hash without reading it twice.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    if format == "jsonl":
        return _load_jsonl(path, src_lang or "src", tgt_lang or "tgt")
    if format == "pairdirs":
        return _load_pairdirs(path, src_lang, tgt_lang, digest)
    raise ValueError(f"unknown corpus format: {format!r}")


def _write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line; output is byte-deterministic."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


def _metadata(doc: Document) -> dict:
    """The optional fields of ``doc`` that are set, in record order."""
    meta = {}
    if doc.group_key is not None:
        meta["group_key"] = doc.group_key
    if doc.category is not None:
        meta["category"] = doc.category
    return meta


def save_aligned_corpus(corpus: AlignedCorpus, path: str | Path) -> None:
    """Write the corpus as pair JSONL; output is byte-deterministic."""
    _write_records(
        path,
        (
            {"src_id": s.id, "tgt_id": t.id, "src_text": s.text, "tgt_text": t.text,
             **_metadata(s)}
            for s, t in corpus.pairs()
        ),
    )


def load_documents(path: str | Path) -> list[Document]:
    """Load a flat document file: JSONL with ``id``/``text`` plus metadata.

    Ids must be unique within the file; a missing ``language`` reads ``"und"``.
    """
    docs = []
    first_line: dict[str, int] = {}
    for line_number, record in _records(Path(path), ("id", "text")):
        doc = _document(line_number, record, record.get("language", "und"))
        if doc.id in first_line:
            raise MalformedRecordError(
                line_number, f"duplicate id {doc.id!r} (first on line {first_line[doc.id]})"
            )
        first_line[doc.id] = line_number
        docs.append(doc)
    return docs


def save_documents(docs: Sequence[Document], path: str | Path) -> None:
    """Write documents as flat JSONL (inverse of :func:`load_documents`)."""
    _write_records(
        path, ({"id": d.id, "language": d.language, "text": d.text, **_metadata(d)} for d in docs)
    )


def split_corpus(
    corpus: AlignedCorpus, train_fraction: float, seed: int
) -> tuple[AlignedCorpus, AlignedCorpus]:
    """Deterministically split pairs into train/test parts.

    Couples stay intact; the train part holds ``round(train_fraction * d)``
    pairs. Original pair order is preserved within each part.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    d = len(corpus)
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
