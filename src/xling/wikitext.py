"""Wiki markup handling and dump extraction.

Markup stripping is a pragmatic rule set, not a full wikitext grammar: the
goal is that words survive and syntax does not. Unbalanced constructs are
dropped to end-of-input rather than reported.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Iterator, Sequence

from .corpus import Document
from .errors import TruncatedStreamError

__all__ = [
    "parse_interlanguage_links",
    "strip_wiki_markup",
    "extract_comparable_articles",
]


# Language codes are 2-3 lowercase ASCII letters, which keeps namespaced
# links such as [[Category:...]] or [[File:...]] from matching.
_INTERLANGUAGE_RE = re.compile(r"\[\[([a-z]{2,3}):([^\[\]]+)\]\]")


def parse_interlanguage_links(wikitext: str) -> list[tuple[str, str]]:
    """Extract every ``[[xx:Title]]`` link, in document order.

    Titles are returned verbatim (no case folding or trimming). Ordinary
    links ``[[Title]]`` and namespaced links are excluded.
    """
    return [(m.group(1), m.group(2)) for m in _INTERLANGUAGE_RE.finditer(wikitext)]


# --------------------------------------------------------------------------
# Markup stripping
# --------------------------------------------------------------------------

_COMMENT_RE = re.compile(r"<!--.*?(?:-->|$)", re.DOTALL)
_REF_RE = re.compile(r"<ref[^<>]*/\s*>|<ref[^<>]*>.*?(?:</ref\s*>|$)", re.DOTALL | re.IGNORECASE)
_TAG_RE = re.compile(r"</?[a-zA-Z][^<>]*>")
_QUOTES_RE = re.compile(r"''+")
_EXTERNAL_LINK_RE = re.compile(r"\[(?:https?|ftp)://\S*(?:\s+([^\]]*))?\]")
_INNER_LINK_RE = re.compile(r"\[\[([^\[\]]*)\]\]")
_WS_RE = re.compile(r"\s+")


def _drop_delimited(text: str, opener: str, closer: str) -> str:
    """Remove (possibly nested) opener...closer regions.

    Content after an unmatched opener is dropped to end-of-input; an
    unmatched closer at depth zero passes through as ordinary characters.
    """
    out: list[str] = []
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        if text.startswith(opener, i):
            depth += 1
            i += len(opener)
        elif depth and text.startswith(closer, i):
            depth -= 1
            i += len(closer)
        elif depth == 0:
            out.append(text[i])
            i += 1
        else:
            i += 1
    return "".join(out)


def _replace_link(m: re.Match) -> str:
    body = m.group(1)
    target, _, display = body.partition("|")
    if ":" in target:
        # Namespaced (File:, Image:, Category:, xx: ...) - drop entirely.
        return ""
    if display:
        # Keep the last pipe segment; extra pipes occur in image-style links.
        return display.rsplit("|", 1)[-1]
    return target


def strip_wiki_markup(wikitext: str) -> str:
    """Reduce wikitext to plain text.

    Removes comments, ref tags, templates (nested), tables, namespaced and
    file/image links; rewrites ``[[A|B]]`` to ``B`` and ``[[A]]`` to ``A``;
    keeps external-link labels; collapses whitespace.
    """
    text = _COMMENT_RE.sub(" ", wikitext)
    text = _REF_RE.sub(" ", text)
    text = _drop_delimited(text, "{{", "}}")
    text = _drop_delimited(text, "{|", "|}")

    # Inner-first so nested links (e.g. inside captions) resolve before the
    # enclosing [[File:...]] is judged namespaced. An unmatched '[[' drops
    # the remainder, matching the lenient contract.
    while True:
        replaced = _INNER_LINK_RE.sub(_replace_link, text)
        if replaced == text:
            break
        text = replaced
    if "[[" in text:
        text = text[: text.index("[[")]

    text = _EXTERNAL_LINK_RE.sub(lambda m: m.group(1) or " ", text)
    text = _TAG_RE.sub(" ", text)
    text = _QUOTES_RE.sub("", text)
    return _WS_RE.sub(" ", text).strip()


# --------------------------------------------------------------------------
# Dump extraction
# --------------------------------------------------------------------------


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _pages(source) -> Iterator[tuple[str, str]]:
    """Yield (title, wikitext) for each main-namespace, non-redirect page.

    ``source`` is a dump path, opened and closed here, or a seekable binary
    stream, read from its start; so each call is a fresh pass.
    """
    if isinstance(source, (str, Path)):
        with Path(source).open("rb") as stream:
            yield from _pages(stream)
        return
    if not (hasattr(source, "seek") and hasattr(source, "read")):
        raise TypeError("dump source must be a path or a seekable binary stream")
    source.seek(0)
    try:
        for _, elem in ET.iterparse(source, events=("end",)):
            if _localname(elem.tag) != "page":
                continue
            title = None
            text = ""
            ns = None
            redirect = False
            for child in elem.iter():
                name = _localname(child.tag)
                if name == "title" and title is None:
                    title = child.text or ""
                elif name == "ns" and ns is None:
                    ns = (child.text or "").strip()
                elif name == "text":
                    text = child.text or ""
                elif name == "redirect":
                    redirect = True
            elem.clear()
            if title is None:
                raise TruncatedStreamError("page element without a title")
            if redirect or (ns is not None and ns != "0"):
                continue
            yield title, text
    except ET.ParseError as exc:
        raise TruncatedStreamError(f"malformed or truncated dump: {exc}") from exc


def extract_comparable_articles(
    source,
    pivot_language: str,
    required_languages: Sequence[str] | set[str],
    *,
    stats: dict | None = None,
) -> Iterator[tuple[Document, ...]]:
    """Stream aligned document tuples out of a page-wise XML dump.

    A pivot page qualifies when its interlanguage links cover every code in
    ``required_languages``; the first link of each language wins. Its linked
    titles are then resolved against the title index built in a first pass
    over the dump. Tuples are emitted in pivot page order as
    ``(pivot, linked...)`` with the linked pages in sorted language-code
    order. Each page is a :class:`~xling.corpus.Document` whose id is its
    title, whose language is its code (``pivot_language`` for the pivot) and
    whose text is :func:`strip_wiki_markup` of its wikitext.

    Pivots whose linked titles do not resolve are skipped and counted in
    ``stats["skipped_unresolved"]``. A linked page serves only the first
    resolved pivot that links it; later pivots linking it are skipped and
    counted in ``stats["skipped_duplicate"]``.
    """
    required = sorted(set(required_languages) - {pivot_language})
    if stats is None:
        stats = {}
    for key in ("skipped_unresolved", "skipped_duplicate", "pivot_candidates"):
        stats.setdefault(key, 0)

    # Pass 1: title index + qualifying pivot records (title, required links).
    titles: set[str] = set()
    pivots: list[tuple[str, dict[str, str]]] = []
    for title, text in _pages(source):
        titles.add(title)
        links: dict[str, str] = {}
        for code, linked in parse_interlanguage_links(text):
            links.setdefault(code, linked)
        if all(code in links for code in required):
            stats["pivot_candidates"] += 1
            pivots.append((title, {code: links[code] for code in required}))

    resolved: list[tuple[str, dict[str, str]]] = []
    used: set[str] = set()
    for title, wanted in pivots:
        if not all(t in titles for t in wanted.values()):
            stats["skipped_unresolved"] += 1
        elif not used.isdisjoint(wanted.values()):
            stats["skipped_duplicate"] += 1
        else:
            resolved.append((title, wanted))
            used.update(wanted.values())
    if not resolved:
        return

    # Pass 2: strip the needed pages only, each once; the first page of a title wins.
    needed = used.union(title for title, _ in resolved)
    plain: dict[str, str] = {}
    for title, text in _pages(source):
        if title in needed and title not in plain:
            plain[title] = strip_wiki_markup(text)

    for title, wanted in resolved:
        yield (Document(title, pivot_language, plain[title]),) + tuple(
            Document(wanted[code], code, plain[wanted[code]]) for code in required
        )
