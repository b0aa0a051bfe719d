"""
Mining aligned articles out of a wiki dump
==========================================

Walk a page-wise XML dump, find pivot articles whose interlanguage links
cover the wanted languages, resolve the linked titles against the dump's
title index and strip the wiki markup down to plain text. Each article
comes out as a ``Document``: its title is the id, its language code the
language and its plain text the text.
"""

import io

from xling.wikitext import extract_comparable_articles, parse_interlanguage_links, strip_wiki_markup

# A miniature dump: two English pivot articles with links, their linked
# pages, and one pivot whose Arabic page is missing from the dump.
PAGES = {
    "Olive oil": "'''Olive oil''' is a [[fat]] {{refn|pressed}} obtained from olives."
                 " [[fr:Huile d'olive]] [[ar:زيت زيتون]]",
    "Huile d'olive": "L'huile d'olive est une matière grasse. [[en:Olive oil]]",
    "زيت زيتون": "زيت الزيتون سائل دهني. [[en:Olive oil]]",
    "Press": "A '''press''' squeezes things. [[fr:Presse]] [[ar:مطبعة]]",
    "Presse": "Une presse exerce une pression. [[en:Press]]",
    "مطبعة": "المطبعة آلة للضغط. [[en:Press]]",
    "Lost article": "Has links but no targets here. [[fr:Inconnu]] [[ar:مجهول]]",
}


def build_dump() -> bytes:
    pages = "".join(
        f"<page><title>{title}</title><revision><text>{text}</text></revision></page>"
        for title, text in PAGES.items()
    )
    return f"<mediawiki>{pages}</mediawiki>".encode("utf-8")


wikitext = PAGES["Olive oil"]
print("interlanguage links of 'Olive oil':", parse_interlanguage_links(wikitext))
print("plain text:", strip_wiki_markup(wikitext))

stats = {}
tuples = list(
    extract_comparable_articles(io.BytesIO(build_dump()), "en", {"fr", "ar"}, stats=stats)
)
print(f"\n{len(tuples)} aligned tuples extracted, "
      f"{stats['skipped_unresolved']} pivot(s) skipped (unresolved links)")
for pivot, ar_article, fr_article in tuples:
    print(f"\npivot   : {pivot.id}")
    print(f"  arabic: {ar_article.id} -> {ar_article.text}")
    print(f"  french: {fr_article.id} -> {fr_article.text}")
