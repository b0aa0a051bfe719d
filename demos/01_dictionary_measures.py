"""
Dictionary-based comparability measures
=======================================

Score how comparable two documents in different languages are using only a
bilingual dictionary: the symmetric binary measure, the tfidf-weighted
cosine over translation pairs, the OOV rate and the word matching rate.
"""

from xling.bidict import (
    BilingualDictionary,
    bin_measure,
    bin_symmetric,
    dict_cosines,
    matching_rate,
    oov_rate,
)
from xling.textprep import ReducerKind, lemmatize, make_reducer, tokenize
from xling.vsm import build_vocabulary

# A miniature English<->Arabic-transliteration dictionary. Each line is a
# synset: interchangeable source terms on the left, translations on the
# right.
dictionary = BilingualDictionary(
    [
        (("olive",), ("zaytun",)),
        (("oil",), ("zayt",)),
        (("good", "fine"), ("jayid",)),
        (("press", "presses"), ("mitbaa",)),
        (("market", "markets"), ("suq", "aswaq")),
    ]
)

english = tokenize("Good olive oil, fine oil from the press.")
arabic = tokenize("zayt zaytun jayid min mitbaa")
print("source tokens:", english)
print("target tokens:", arabic)

print("\ndirected binary measure  :", round(bin_measure(english, arabic, dictionary), 4))
print("symmetric binary measure :", round(bin_symmetric(english, arabic, dictionary), 4))
print("OOV rate                 :", round(oov_rate(english, arabic, dictionary), 4))
print("word matching rate       :", round(matching_rate(english, arabic, dictionary), 4))

# The cosine variant weighs each translation pair by tfidf, so corpus
# statistics are needed: here a tiny two-document corpus per side.
stats_en = build_vocabulary([english, ["markets", "rise", "on", "news"]])
stats_ar = build_vocabulary([arabic, ["aswaq", "tartafi", "akhbar"]])
(cosine,) = dict_cosines([english], [arabic], dictionary, stats_en, stats_ar)
print("dictionary tfidf cosine  :", round(cosine, 4))

# Word reduction widens dictionary coverage. The morphAr-style reducer
# tries the light stem first and falls back to the root, so entries keyed
# either way stay reachable.
inflected = BilingualDictionary([(("مكتب",), ("office",)), (("سفر",), ("travel",))])
reducer = make_reducer(ReducerKind.MORPHAR, dictionary=inflected)
for word in ("المكتبة", "المسافرون"):
    print(f"\n{word} reduces to {reducer(word)}")
    print("  translations:", sorted(inflected.translations(reducer(word), "source")))

print("\nEnglish lemma lookups:", [(w, lemmatize(w)) for w in ("wrote", "went", "presses")])
