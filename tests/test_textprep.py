import re

import pytest
from hypothesis import example, given, settings, strategies as st

from measure_oracles import (
    LOOP_AR_PREFIXES,
    LOOP_AR_SUFFIXES,
    LOOP_EN_SUFFIX_RULES,
    loop_light_stem,
    loop_root_stem,
    loop_suffix_stem,
    regex_tokenize,
    token_pipeline,
    token_tokenize,
)
from xling import textprep
from xling.bidict import BilingualDictionary
from xling.textprep import (
    PipelineConfig,
    ReducerKind,
    lemmatize,
    light_stem,
    load_stopwords,
    make_reducer,
    root_stem,
    run_pipeline,
    suffix_stem,
    tokenize,
)


class TestTokenize:
    def test_punctuation_dropped_lowercased(self):
        assert tokenize("He writes, well.") == ["he", "writes", "well"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_kept_mixed_runs_intact(self):
        assert tokenize("v2.0 beta") == ["v2", "0", "beta"]

    def test_arabic_text(self):
        assert tokenize("زيت الزيتون جيد!") == ["زيت", "الزيتون", "جيد"]

    def test_word_lowercased_after_the_split(self):
        # "İ".lower() is "i" plus a combining dot, which is not a word
        # character; lowercasing the text first would split the word.
        assert tokenize("İstanbul") == ["i\u0307stanbul"]


_ASCII = [chr(c) for c in range(128)]


class TestAsciiFastPath:
    """``tokenize`` equals the plain word-regex oracle on every text."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.sampled_from(_ASCII), max_size=80))
    @example(text="".join(_ASCII))
    @example(text="A_b-C3PO\tx\x1cY\x7fz")
    def test_ascii_text_equals_oracle(self, text):
        assert tokenize(text) == regex_tokenize(text)

    @pytest.mark.parametrize(
        "text", ["İstanbul", "ΟΔΟΣ'Α", "Straße ist GROSS", "كَتَبَ الوَلَدُ", "ascii then İ"]
    )
    def test_non_ascii_text_equals_oracle(self, text):
        assert tokenize(text) == regex_tokenize(text)

    @pytest.mark.parametrize("text", ["İstanbul", "ΟΔΟΣ'Α"])
    def test_lowering_the_whole_text_would_differ(self, text):
        # Why non-ASCII text must stay on the general path: "İ" lowers to
        # two code points, and "Σ" lowers to a final sigma only by context.
        whole = re.findall(r"[^\W_]+", text.lower())
        assert whole != regex_tokenize(text)


# Expected stems trace the shipped affix tables on the classic
# write/travel inflection families.
AR_STEM_CASES = [
    ("المكتبة", "مكتب", "كتب"),
    ("الكاتب", "كاتب", "كتب"),
    ("الكتاب", "كتاب", "كتب"),
    ("يكتب", "كتب", "كتب"),
    ("المسافرون", "مسافر", "سفر"),
    ("المسافرين", "مسافر", "سفر"),
    ("سيسافر", "سافر", "سفر"),
    ("سافرت", "سافر", "سفر"),
]


class TestReducers:
    def test_identity(self):
        assert make_reducer(ReducerKind.IDENTITY)("library") == "library"

    @pytest.mark.parametrize("word,light,root", AR_STEM_CASES)
    def test_light_stemmer(self, word, light, root):
        assert light_stem(word) == light

    @pytest.mark.parametrize("word,light,root", AR_STEM_CASES)
    def test_rooter(self, word, light, root):
        assert root_stem(word) == root

    def test_rooter_falls_back_to_light_stem_on_short_words(self):
        assert root_stem("ما") == "ما"

    def test_suffix_stemmer(self):
        assert suffix_stem("writes") == "write"

    def test_suffix_stemmer_cascade(self):
        assert suffix_stem("takings") == "take"  # plural strip exposes -ing

    def test_suffix_stemmer_keeps_short_words(self):
        assert suffix_stem("as") == "as"

    def test_lemma_table_hit_and_fallback(self):
        assert lemmatize("went") == "go"
        assert lemmatize("children") == "child"
        assert lemmatize("writes") == "write"  # falls through to the stemmer

    def test_affix_strippers_never_lengthen(self):
        for word, _, _ in AR_STEM_CASES:
            assert len(light_stem(word)) <= len(word)
            assert len(root_stem(word)) <= len(word)

    def test_morphar_requires_dictionary(self):
        with pytest.raises(ValueError):
            make_reducer(ReducerKind.MORPHAR)


_WORD_ALPHABET = st.sampled_from(list("abcdefgsty") + list("اكتبسمونيةهل"))
_random_words = st.text(alphabet=_WORD_ALPHABET, min_size=1, max_size=12)


class TestIdempotency:
    @pytest.mark.parametrize(
        "kind",
        [
            ReducerKind.IDENTITY,
            ReducerKind.SUFFIX_STEMMER,
            ReducerKind.LEMMA_TABLE,
            ReducerKind.LIGHT_STEMMER,
            ReducerKind.ROOTER,
        ],
    )
    @given(word=_random_words)
    def test_reduce_twice_equals_once(self, kind, word):
        once = make_reducer(kind)(word)
        assert make_reducer(kind)(once) == once


_AR_LETTERS = "".join(map(chr, range(0x0621, 0x064B)))
# Words glued from affix-table entries and short runs of Arabic letters and
# ASCII: stacked prefixes and suffixes, stems at and below the 3-letter
# floor, and words of 0-2 letters.
_AFFIX_PIECES = (
    LOOP_AR_PREFIXES
    + LOOP_AR_SUFFIXES
    + tuple(suffix for suffix, _ in LOOP_EN_SUFFIX_RULES)
    + ("ss", "us")
)
_affixed_words = st.lists(
    st.one_of(
        st.sampled_from(_AFFIX_PIECES),
        st.text(alphabet=_AR_LETTERS + "abdegiosuy", max_size=3),
    ),
    max_size=5,
).map("".join)


class TestCompiledAffixTables:
    """The compiled affix tables strip exactly what a walk over the tables,
    one entry at a time, strips."""

    @settings(max_examples=400, deadline=None)
    @given(word=_affixed_words)
    @example(word="")
    @example(word="وال")
    @example(word="والكتب")  # stem at the floor after the longest prefix
    @example(word="والكتبات")
    @example(word="كتبات")  # suffix would leave three letters
    @example(word="كتات")  # suffix would leave two
    @example(word="سيكتبون")
    # The early-out: no affix letter at either end, at the start only, at the end only.
    @example(word="s03x017")
    @example(word="t03x017")
    @example(word="درس")
    @example(word="ودرس")
    @example(word="درست")
    def test_arabic_stemmers_equal_the_table_walk(self, word):
        assert light_stem(word) == loop_light_stem(word)
        assert root_stem(word) == loop_root_stem(word)

    @settings(max_examples=400, deadline=None)
    @given(word=_affixed_words)
    @example(word="")
    @example(word="s")
    @example(word="sses")
    @example(word="bies")
    @example(word="dresses")
    @example(word="bus")
    @example(word="takings")
    # The early-out: no rule ends with the last letter, though one ends in "s".
    @example(word="s03x017")
    @example(word="t03x017")
    @example(word="sat")
    @example(word="cats")
    def test_suffix_stemmer_equals_the_table_walk(self, word):
        assert suffix_stem(word) == loop_suffix_stem(word)

    def test_tables_list_longer_entries_first(self):
        # The compiled suffix table takes the longest suffix, which is the
        # first in table order only while longer entries come first.
        for table in (
            textprep._AR_PREFIXES,
            textprep._AR_SUFFIXES,
            [suffix for suffix, _ in textprep._EN_SUFFIX_RULES],
        ):
            lengths = list(map(len, table))
            assert lengths == sorted(lengths, reverse=True)


class TestMorphar:
    def _dictionary(self):
        # One entry keyed by a light stem, one keyed by a root.
        return BilingualDictionary(
            [
                (("مكتب",), ("office",)),
                (("سفر",), ("travel",)),
            ]
        )

    def _lookup(self, word, d):
        return d.translations(make_reducer(ReducerKind.MORPHAR, dictionary=d)(word))

    def test_light_path_wins_root_never_consulted(self, monkeypatch):
        d = self._dictionary()
        rooted = []

        def root(word):
            rooted.append(word)
            return root_stem(word)

        monkeypatch.setattr(textprep, "root_stem", root)
        assert self._lookup("المكتبة", d) == frozenset({"office"})
        assert rooted == []

    def test_root_fallback(self):
        d = self._dictionary()
        # light stem of المسافرون is مسافر (absent); its root سفر is present
        assert self._lookup("المسافرون", d) == frozenset({"travel"})

    def test_oov_empty(self):
        assert self._lookup("قلم", self._dictionary()) == frozenset()

    def test_priority_property_reducer(self):
        d = self._dictionary()
        reducer = make_reducer(ReducerKind.MORPHAR, dictionary=d)
        assert reducer("المكتبة") == "مكتب"  # light hit keeps the stem
        assert reducer("المسافرون") == "سفر"  # falls back to the root


class TestFilters:
    def test_low_frequency_removed(self):
        # "rare" occurs twice in the corpus, below the threshold of three
        texts = ["rare common", "rare common common"]
        config = PipelineConfig(min_corpus_frequency=3)
        assert run_pipeline(texts, config) == [["common"], ["common", "common"]]

    def test_identity_config_is_identity(self):
        assert run_pipeline(["a b", "c"], PipelineConfig()) == [["a", "b"], ["c"]]

    def test_stopwords_removed(self):
        config = PipelineConfig(stopwords=frozenset({"the"}))
        assert run_pipeline(["the oil", "the"], config) == [["oil"], []]

    def test_min_frequency_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(min_corpus_frequency=0)

    @given(
        texts=st.lists(
            st.text(alphabet=list("ab c"), min_size=0, max_size=20), min_size=1, max_size=5
        )
    )
    def test_filtering_never_increases_token_count(self, texts):
        config = PipelineConfig(stopwords=frozenset({"a"}), min_corpus_frequency=2)
        filtered = run_pipeline(texts, config)
        for text, after in zip(texts, filtered):
            assert len(after) <= len(tokenize(text))


class TestRunPipeline:
    def test_capitalized_stopword_built_in_code_matches(self):
        config = PipelineConfig(stopwords=frozenset({"The"}))
        assert run_pipeline(["The cat"], config) == [["cat"]]

    def test_end_to_end(self):
        texts = ["The libraries opened.", "The library closed, closed."]
        config = PipelineConfig(
            stopwords=frozenset({"the"}),
            reducer_source=ReducerKind.SUFFIX_STEMMER,
        )
        docs = run_pipeline(texts, config, "source")
        assert docs == [["library", "opene"], ["library", "close", "close"]]

    def test_pipeline_default_is_tokenize(self):
        assert run_pipeline(["He writes, well."]) == [["he", "writes", "well"]]

    @pytest.mark.parametrize("kind", list(ReducerKind))
    def test_matches_per_token_reference(self, kind):
        texts = [
            "The writers wrote books; the books were written.",
            "Writers write, and the houses of writers hold books.",
            "والكتاب المكتبة يكتب الكتب والكتاب",
            "المكتبة والمكتبات مكتب الكتاب",
            "",
        ]
        dictionary = BilingualDictionary([(("كتاب", "مكتب"), ("book", "office"))])
        config = PipelineConfig(
            stopwords=frozenset({"the", "and"}),
            min_corpus_frequency=2,
            reducer_source=kind,
        )
        reducer = make_reducer(kind, dictionary=dictionary, side="source")
        reduced = [[reducer(t) for t in tokenize(text)] for text in texts]
        counts: dict[str, int] = {}
        for doc in reduced:
            for w in doc:
                counts[w] = counts.get(w, 0) + 1
        expected = [
            [
                w
                for t, w in zip(tokenize(text), doc)
                if t not in config.stopwords
                and w not in config.stopwords
                and counts[w] >= 2
            ]
            for text, doc in zip(texts, reduced)
        ]
        assert any(expected)
        got = run_pipeline(texts, config, "source", dictionary)
        assert got == expected

    def test_stopword_occurrences_count_towards_min_count(self):
        # "books" is a stopword, but its reduced form "book" is not: both
        # occurrences count, so the one kept "book" reaches the floor of two.
        config = PipelineConfig(
            stopwords=frozenset({"books"}),
            min_corpus_frequency=2,
            reducer_source=ReducerKind.SUFFIX_STEMMER,
        )
        assert run_pipeline(["books", "book"], config) == [[], ["book"]]

    def test_preprocessor_reduces_each_word_once(self, monkeypatch):
        calls = []
        make_reducer = textprep.make_reducer

        def counted(*args, **kwargs):
            reducer = make_reducer(*args, **kwargs)
            return lambda w: calls.append(w) or reducer(w)

        monkeypatch.setattr(textprep, "make_reducer", counted)
        config = PipelineConfig(reducer_source=ReducerKind.SUFFIX_STEMMER)
        texts = ["books books", "books writes"]
        assert run_pipeline(texts, config) == [["book", "book"], ["book", "write"]]
        assert sorted(calls) == ["books", "writes"]
        run_pipeline(texts, config)  # a second call reduces its words again
        assert sorted(calls) == ["books", "books", "writes", "writes"]


# Fragments a property test joins into text: mixed case, digits, "_",
# combining marks, dotted capital I, sharp s, Arabic with clitics, and
# words the stopword list and the reducers act on.
_FRAGMENTS = st.sampled_from([
    " ", " ", ", ", ".", "_", "\u0301", "\u0307", "-",
    "The", "the", "THE", "Of", "İstanbul", "İ", "i", "ß", "STRASSE", "straße", "Σ",
    "writes", "Writes", "written", "went", "books", "Books", "book", "v2", "42", "x_1",
    "cafe\u0301", "café", "الكتاب", "والمكتبة", "مكتب", "المسافرون", "سافرت", "كتب",
])
_TEXTS = st.lists(
    st.lists(
        st.one_of(_FRAGMENTS, st.text(alphabet="aBİßς_1\u0301 كت", max_size=4)), max_size=12
    ).map("".join),
    min_size=1,
    max_size=5,
)
_STOPWORDS = frozenset({"the", "of", "i\u0307stanbul", "books", "write", "كتب", "ß"})
_MORPHAR_DICTIONARY = BilingualDictionary(
    [(("كتاب", "مكتب"), ("book", "office")), (("سفر",), ("travel",)), (("book",), ("كتاب",))]
)


class TestMatchesTokenPipeline:
    @pytest.mark.parametrize("kind", list(ReducerKind))
    @given(texts=_TEXTS)
    def test_run_pipeline_equals_oracle(self, kind, texts):
        config = PipelineConfig(
            stopwords=_STOPWORDS, min_corpus_frequency=2, reducer_source=kind
        )
        expected = token_pipeline(texts, config, side="source", dictionary=_MORPHAR_DICTIONARY)
        got = run_pipeline(texts, config, "source", _MORPHAR_DICTIONARY)
        assert got == expected

    @given(texts=_TEXTS)
    def test_identity_pipeline_equals_oracle(self, texts):
        # The no-op case: no reducer, no stopwords, no frequency floor.
        config = PipelineConfig()
        assert run_pipeline(texts, config) == token_pipeline(texts, config)

    @given(texts=_TEXTS)
    def test_tokenize_equals_oracle_reduced_forms(self, texts):
        for text in texts:
            assert tokenize(text) == [t.reduced for t in token_tokenize(text)]


class TestListFiles:
    def test_stopwords_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nthe\nof # trailing\n\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"the", "of"})

    def test_stopwords_leading_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("the\nof\n", encoding="utf-8-sig")
        assert load_stopwords(path) == frozenset({"the", "of"})

    def test_stopwords_lowercased_like_tokens(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\nof\n", encoding="utf-8")
        config = PipelineConfig(stopwords=load_stopwords(path))
        assert run_pipeline(["The cat of THE hat"], config) == [["cat", "hat"]]
