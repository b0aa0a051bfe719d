import io
import json
from pathlib import Path

import pytest

from xling.corpus import Document
from xling.errors import TruncatedStreamError
from xling.wikitext import (
    extract_comparable_articles,
    parse_interlanguage_links,
    strip_wiki_markup,
)

GOLDEN = Path(__file__).parent / "data" / "wikitext_golden.jsonl"


def _golden_cases():
    cases = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert len(cases) >= 20
    return cases


@pytest.mark.parametrize(
    "case", _golden_cases(), ids=lambda c: f"{c['kind']}-{c['name']}"
)
def test_golden(case):
    if case["kind"] == "links":
        got = [list(pair) for pair in parse_interlanguage_links(case["input"])]
    else:
        got = strip_wiki_markup(case["input"])
    assert got == case["expected"]


class TestInterlanguageLinks:
    def test_titles_verbatim_no_case_folding(self):
        links = parse_interlanguage_links("[[fr:Thomas Edward Lawrence]]")
        assert links == [("fr", "Thomas Edward Lawrence")]

    def test_links_removed_by_stripping(self):
        text = "intro [[fr:Huile d'olive]] body [[ar:زيت زيتون]] end {{t|[[de:Öl]]}}"
        before = set(parse_interlanguage_links(text))
        after = set(parse_interlanguage_links(strip_wiki_markup(text)))
        assert after <= before
        assert after == set()


def _page(title: str, text: str, ns: str | None = None) -> str:
    ns_el = f"<ns>{ns}</ns>" if ns is not None else ""
    return f"<page><title>{title}</title>{ns_el}<revision><text>{text}</text></revision></page>"


def _dump(*pages: str) -> bytes:
    return ("<mediawiki>" + "".join(pages) + "</mediawiki>").encode("utf-8")


class TestDumpExtraction:
    def test_minimal_positive(self):
        dump = _dump(
            _page("Olive oil", "Text [[fr:Huile d'olive]] [[ar:زيت زيتون]]"),
            _page("Huile d'olive", "Texte français"),
            _page("زيت زيتون", "نص عربي"),
        )
        tuples = list(extract_comparable_articles(io.BytesIO(dump), "en", {"fr", "ar"}))
        assert len(tuples) == 1
        pivot, ar_article, fr_article = tuples[0]
        assert pivot == Document("Olive oil", "en", "Text")
        assert ar_article == Document("زيت زيتون", "ar", "نص عربي")  # sorted language order: ar, fr
        assert fr_article == Document("Huile d'olive", "fr", "Texte français")

    def test_first_link_of_a_language_wins(self):
        dump = _dump(
            _page("T", "[[ar:First]] x [[ar:Second]] [[fr:F]]"),
            _page("First", "one"),
            _page("Second", "two"),
            _page("F", "f"),
        )
        tuples = list(extract_comparable_articles(io.BytesIO(dump), "en", {"fr", "ar"}))
        assert [[d.id for d in t] for t in tuples] == [["T", "First", "F"]]

    def test_linked_page_serves_only_the_first_pivot(self):
        dump = _dump(
            _page("Olive oil", "[[ar:زيت]]"),
            _page("Oil (food)", "[[ar:زيت]]"),
            _page("زيت", "نص"),
        )
        stats = {}
        tuples = list(extract_comparable_articles(io.BytesIO(dump), "en", {"ar"}, stats=stats))
        assert [[d.id for d in t] for t in tuples] == [["Olive oil", "زيت"]]
        assert stats == {"pivot_candidates": 2, "skipped_unresolved": 0, "skipped_duplicate": 1}

    def test_unresolved_pivot_claims_no_page(self):
        dump = _dump(
            _page("A", "[[fr:X]] [[ar:Missing]]"),
            _page("B", "[[fr:X]] [[ar:Y]]"),
            _page("X", "x"),
            _page("Y", "y"),
        )
        stats = {}
        tuples = list(
            extract_comparable_articles(io.BytesIO(dump), "en", {"fr", "ar"}, stats=stats)
        )
        assert [t[0].id for t in tuples] == ["B"]
        assert (stats["skipped_unresolved"], stats["skipped_duplicate"]) == (1, 0)

    def test_unresolved_title_skipped_and_counted(self):
        dump = _dump(
            _page("Olive oil", "[[fr:Huile d'olive]] [[ar:زيت زيتون]]"),
            _page("زيت زيتون", "نص"),
        )
        stats = {}
        tuples = list(
            extract_comparable_articles(io.BytesIO(dump), "en", {"fr", "ar"}, stats=stats)
        )
        assert tuples == []
        assert stats["skipped_unresolved"] == 1

    def test_six_page_fixture_two_tuples_in_pivot_order(self):
        dump = _dump(
            _page("A", "[[fr:A-fr]] [[ar:A-ar]]"),
            _page("B", "[[fr:B-fr]] only french link"),
            _page("C", "[[fr:C-fr]] [[ar:C-ar]]"),
            _page("A-fr", "fr text a"),
            _page("A-ar", "ar text a"),
            _page("C-fr", "fr text c"),
            _page("C-ar", "ar text c"),
            _page("B-fr", "fr text b"),
        )
        tuples = list(extract_comparable_articles(io.BytesIO(dump), "en", {"fr", "ar"}))
        assert [t[0].id for t in tuples] == ["A", "C"]
        assert [t[1].id for t in tuples] == ["A-ar", "C-ar"]

    def test_output_count_bounded_by_pivot_candidates(self):
        pages = [_page(f"P{i}", f"[[fr:P{i}-fr]]") for i in range(4)]
        pages += [_page("P0-fr", "x"), _page("P2-fr", "y")]
        stats = {}
        tuples = list(
            extract_comparable_articles(io.BytesIO(_dump(*pages)), "en", {"fr"}, stats=stats)
        )
        assert len(tuples) <= stats["pivot_candidates"]
        assert len(tuples) == 2

    def test_non_main_namespace_ignored(self):
        dump = _dump(
            _page("Talk:Olive oil", "[[fr:Huile]] [[ar:X]]", ns="1"),
            _page("Olive oil", "[[fr:Huile]]"),
            _page("Huile", "texte"),
        )
        tuples = list(extract_comparable_articles(io.BytesIO(dump), "en", {"fr"}))
        assert [t[0].id for t in tuples] == ["Olive oil"]

    def test_truncated_stream(self):
        blob = b"<mediawiki><page><title>A</title><text>unfinished"
        with pytest.raises(TruncatedStreamError):
            list(extract_comparable_articles(io.BytesIO(blob), "en", {"fr"}))

    def test_path_input(self, tmp_path):
        dump_path = tmp_path / "dump.xml"
        dump_path.write_bytes(
            _dump(_page("A", "[[fr:A-fr]]"), _page("A-fr", "texte"))
        )
        tuples = list(extract_comparable_articles(dump_path, "en", {"fr"}))
        assert len(tuples) == 1
        assert tuples[0][1] == Document("A-fr", "fr", "texte")


class TestStripMarkup:
    def test_whitespace_collapsed(self):
        assert strip_wiki_markup("a\n\n  b\tc") == "a b c"

    def test_unbalanced_link_dropped_to_end(self):
        assert strip_wiki_markup("keep [[broken link") == "keep"

    def test_html_tags_removed(self):
        assert strip_wiki_markup("a<br/>b <div class='x'>c</div>") == "a b c"

    def test_self_closing_ref(self):
        assert strip_wiki_markup('x<ref name="a"/>y') == "x y"

    def test_unclosed_ref_dropped_to_end(self):
        assert strip_wiki_markup("x<ref>dangling citation") == "x"

    def test_bare_external_link_removed(self):
        assert strip_wiki_markup("a [http://x.org] b") == "a b"
