import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measure_oracles import (
    brute_bin_pooled,
    brute_bin_symmetric,
    brute_dict_cosine,
    brute_matching_rate,
    brute_oov,
    chain_couple,
    pair_loop_dict_cosine,
    random_toy_pair,
    split_every_side_load_dictionary,
    two_step_reduced_dictionary,
)
import xling
from xling.bidict import (
    BilingualDictionary,
    bin_measure,
    bin_pooled,
    bin_symmetric,
    dict_cosine,
    dict_cosines,
    load_dictionary,
    matching_rate,
    oov_rate,
)
from xling.errors import MalformedLineError, UndefinedRateError
from xling.synthetic import (
    SyntheticSpec,
    cipher_word,
    make_comparable_corpus,
    make_dictionary,
    source_vocabulary,
)
from xling.textprep import ReducerKind, lemmatize, light_stem, make_reducer, suffix_stem
from xling.vsm import build_vocabulary


class TestLoadDictionary:
    def test_single_line_both_indices(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("book|author\tكتاب|مؤلف\n", encoding="utf-8")
        d = load_dictionary(path)
        assert len(d) == 1
        assert d.contains("book", "source")
        assert d.contains("كتاب", "target")
        assert d.translations("author", "source") == frozenset({"كتاب", "مؤلف"})

    def test_empty_file_everything_oov(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("", encoding="utf-8")
        d = load_dictionary(path)
        assert len(d) == 0
        assert not d.contains("anything", "source")

    def test_duplicate_lines_merge(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\tx\na\tx\n", encoding="utf-8")
        assert len(load_dictionary(path)) == 1

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\tx\nno tab here\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as err:
            load_dictionary(path)
        assert err.value.line_number == 2

    # Characters that str.splitlines breaks at and a file's lines do not.
    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_only_line_feed_and_carriage_return_break_lines(self, tmp_path, brk):
        path = tmp_path / "d.tsv"
        path.write_text(f"olive\tzaytun\r\nriver{brk}bank\tnahr\r", encoding="utf-8")
        assert load_dictionary(path).translations(f"river{brk}bank") == {"nahr"}
        path.write_text(f"olive\tzaytun\r\nriver{brk}bank\tnahr\rbad line\n", encoding="utf-8")
        with pytest.raises(MalformedLineError, match="line 3: expected exactly one tab"):
            load_dictionary(path)

    def test_empty_side_rejected(self, tmp_path):
        # "a\t" alone would be stripped to "a" and refused for its missing tab.
        path = tmp_path / "d.tsv"
        path.write_text("a\tx\na\t | \n", encoding="utf-8")
        with pytest.raises(MalformedLineError, match="line 2: both synset sides must be non-empty"):
            load_dictionary(path)

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("cat|chat\tqitt\n", encoding="utf-8-sig")
        d = load_dictionary(path)
        assert d.synsets == ((frozenset({"cat", "chat"}), frozenset({"qitt"})),)
        assert d.contains("cat", "source")

    def test_any_iterable_of_pairs_is_frozen_and_merged(self):
        # A dict is iterated like any other pairs: two orderings of one synset merge.
        d = BilingualDictionary({(("a", "b"), ("x",)): None, (("b", "a"), ("x", "x")): None})
        assert d.synsets == ((frozenset({"a", "b"}), frozenset({"x"})),)
        assert d.translations("x", "target") == frozenset({"a", "b"})


class TestBinMeasure:
    def test_full_coverage(self, toy_dictionary):
        score = bin_measure(["olive", "oil"], ["zaytun", "zayt"], toy_dictionary)
        assert score == 1.0

    def test_no_in_vocab_source_words(self, toy_dictionary):
        assert bin_measure(["xx", "yy"], ["zayt"], toy_dictionary) == 0.0

    def test_two_of_four_translated(self):
        d = BilingualDictionary(
            [(("w1",), ("v1",)), (("w2",), ("v2",)), (("w3",), ("v3",)), (("w4",), ("v4",))]
        )
        score = bin_measure(["w1", "w2", "w3", "w4"], ["v1", "v2", "other"], d)
        assert score == 0.5

    def test_unknown_direction_raises(self):
        d = BilingualDictionary([(("w1",), ("v1",))])
        assert bin_measure(["v1", "x"], ["w1"], d, side="source") == 0.0
        assert bin_measure(["v1", "x"], ["w1"], d, side="target") == 1.0
        with pytest.raises(ValueError, match="side must be 'source' or 'target'"):
            bin_measure(["v1", "x"], ["w1"], d, side="backward")

    def test_monotone_in_target_document(self):
        d = BilingualDictionary([(("w1",), ("v1",)), (("w2",), ("v2",))])
        base = bin_measure(["w1", "w2"], ["v1"], d)
        more = bin_measure(["w1", "w2"], ["v1", "v2"], d)
        assert more >= base


class TestBinSymmetric:
    def test_arithmetic_mean(self):
        # forward 1.0, backward 0.0: target words share no synset with source
        d = BilingualDictionary([(("w1",), ("v1",))])
        score = bin_symmetric(["w1"], ["v1", "lonely"], d)
        forward = bin_measure(["w1"], ["v1", "lonely"], d)
        backward = bin_measure(["v1", "lonely"], ["w1"], d, side="target")
        assert score == (forward + backward) / 2

    def test_identity_dictionary_identical_documents(self):
        d = BilingualDictionary([((t,), (t,)) for t in "abc"])
        assert bin_symmetric(["a", "b", "c"], ["a", "b", "c"], d) == 1.0

    def test_toy_directions_value(self):
        # forward: w1 of {w1,w2} translated -> 0.5
        # backward: v1 of {v1,v3,v4,v5} translated -> 0.25; mean = 0.375
        d = BilingualDictionary(
            [
                (("w1",), ("v1",)),
                (("w2",), ("v2",)),
                (("x3",), ("v3",)),
                (("x4",), ("v4",)),
                (("x5",), ("v5",)),
            ]
        )
        score = bin_symmetric(["w1", "w2"], ["v1", "v3", "v4", "v5"], d)
        assert score == 0.375

    def test_exactly_symmetric(self, toy_dictionary):
        d_s = ["olive", "oil", "press"]
        d_t = ["zayt", "mitbaa"]
        forward = bin_symmetric(d_s, d_t, toy_dictionary)
        # the reverse call swaps roles: compare via the pooled formula sides
        backward_avg = (
            bin_measure(d_t, d_s, toy_dictionary, side="target")
            + bin_measure(d_s, d_t, toy_dictionary, side="source")
        ) / 2
        assert forward == backward_avg


class TestDictCosine:
    def test_no_shared_active_pair(self, toy_dictionary):
        stats_s = build_vocabulary([["olive"], ["press"]])
        stats_t = build_vocabulary([["mitbaa"], ["zaytun"]])
        assert dict_cosine(["olive"], ["mitbaa"], toy_dictionary, stats_s, stats_t) == 0.0

    def test_translated_copy_proportional_vectors(self):
        d = BilingualDictionary([(("a",), ("x",)), (("b",), ("y",))])
        stats_s = build_vocabulary([["a", "b"], ["a"], ["q"]])
        stats_t = build_vocabulary([["x", "y"], ["x"], ["r"]])
        score = dict_cosine(["a", "b", "a"], ["x", "y", "x"], d, stats_s, stats_t)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_three_pair_toy_matches_dense_hand_evaluation(self):
        d = BilingualDictionary([(("a",), ("x",)), (("b",), ("y",)), (("c",), ("z",))])
        docs_s = [["a", "b", "c"], ["a", "a", "b"], ["c"]]
        docs_t = [["x", "y"], ["x", "z", "z"], ["y"]]
        stats_s = build_vocabulary(docs_s)
        stats_t = build_vocabulary(docs_t)
        expected = brute_dict_cosine(
            docs_s[1], docs_t[1], d.synsets, stats_s, stats_t
        )
        got = dict_cosine(docs_s[1], docs_t[1], d, stats_s, stats_t)
        assert got == pytest.approx(expected, abs=1e-12)


def _stats_with_gaps(doc):
    """Stats over two variants of ``doc``: its first term type is in every
    stats document (idf 0) and, when there are two or more types, its last
    type is in none (absent from the stats)."""
    types = sorted(set(doc))
    kept = [w for w in doc if w != types[-1]] if len(types) > 1 else list(doc)
    return build_vocabulary([kept + [types[0]], kept[: len(kept) // 2] + [types[0]], [types[0]]])


class TestIndexedDictCosine:
    """The indexed ``dict_cosine`` equals the all-pairs loop exactly."""

    def test_random_toy_pairs_bit_identical(self):
        rng = np.random.default_rng(2024)
        nonzero = 0
        for _ in range(2000):
            d_s, d_t, synsets = random_toy_pair(rng)
            d = BilingualDictionary(synsets)
            stats_s, stats_t = _stats_with_gaps(d_s), _stats_with_gaps(d_t)
            got = dict_cosine(d_s, d_t, d, stats_s, stats_t)
            assert got == pair_loop_dict_cosine(d_s, d_t, d, stats_s, stats_t)
            nonzero += got != 0.0
        assert nonzero > 400

    def test_comparable_corpus_with_merged_synsets_bit_identical(self):
        spec = SyntheticSpec(n_topics=30, words_per_topic=20)
        corpus = make_comparable_corpus(150, spec, seed=5)
        # A word in every source document (idf 0) that the dictionary knows.
        docs_s = [d.text.split() + ["sall"] for d in corpus.source_docs]
        docs_t = [d.text.split() for d in corpus.target_docs]
        rng = np.random.default_rng(6)
        synsets = list(make_dictionary(spec, coverage=0.8, seed=7).synsets)
        synsets.append((frozenset({"sall"}), frozenset({"tall"})))
        order = rng.permutation(len(synsets))
        merged, i = [], 0
        while i < len(order):
            size = int(rng.integers(2, 4)) if i < len(order) // 5 else 1
            group = [synsets[j] for j in order[i : i + size]]
            merged.append((frozenset().union(*(s for s, _ in group)),
                           frozenset().union(*(t for _, t in group))))
            i += size
        d = BilingualDictionary(merged)
        assert any(len(s) > 1 and len(t) > 1 for s, t in d.synsets)
        # A dictionary word the documents use but the stats never saw.
        unseen = source_vocabulary(spec)[0]
        assert d.contains(unseen) and any(unseen in doc for doc in docs_s)
        stats_s = build_vocabulary([[w for w in doc if w != unseen] for doc in docs_s])
        stats_t = build_vocabulary(docs_t + [[cipher_word(unseen)]])
        assert stats_s.idf[stats_s.index("sall")] == 0.0
        scores = []
        for d_s, d_t in zip(docs_s, docs_t):
            got = dict_cosine(d_s, d_t, d, stats_s, stats_t)
            assert got == pair_loop_dict_cosine(d_s, d_t, d, stats_s, stats_t)
            scores.append(got)
        assert min(scores) > 0.0


_SRC_POOL = [f"s{i}" for i in range(6)]
_TGT_POOL = [f"t{i}" for i in range(6)]


def _docs(pool):
    return st.lists(st.lists(st.sampled_from(pool), max_size=8), max_size=6)


class TestBatchedDictCosine:
    """``dict_cosines`` weights each side once and scores every couple exactly
    as the per-couple ``dict_cosine`` and the all-pairs loop do."""

    @settings(max_examples=150)
    @given(
        docs_s=_docs(_SRC_POOL),
        docs_t=_docs(_TGT_POOL),
        stats_docs_s=_docs(_SRC_POOL[:-1]),
        stats_docs_t=_docs(_TGT_POOL[:-1]),
        synsets=st.lists(
            st.tuples(
                st.frozensets(st.sampled_from(_SRC_POOL), min_size=1, max_size=3),
                st.frozensets(st.sampled_from(_TGT_POOL), min_size=1, max_size=3),
            ),
            max_size=6,
        ),
    )
    def test_equals_per_couple(self, docs_s, docs_t, stats_docs_s, stats_docs_t, synsets):
        n = min(len(docs_s), len(docs_t))
        docs_s, docs_t = docs_s[:n], docs_t[:n]
        # s0/t0 are in every stats document (idf 0); s5/t5 never are.
        stats_s = build_vocabulary([doc + ["s0"] for doc in stats_docs_s] or [["s0"]])
        stats_t = build_vocabulary([doc + ["t0"] for doc in stats_docs_t] or [["t0"]])
        d = BilingualDictionary(synsets)
        got = dict_cosines(docs_s, docs_t, d, stats_s, stats_t)
        assert len(got) == n
        for score, d_s, d_t in zip(got, docs_s, docs_t):
            assert score == dict_cosine(d_s, d_t, d, stats_s, stats_t)
            assert score == pair_loop_dict_cosine(d_s, d_t, d, stats_s, stats_t)

    def test_same_bits_under_any_hash_seed(self):
        # Three synsets merge into one, so each term has three partners, and
        # the sets and maps walked yield them in an order the hash seed sets.
        script = (
            "from xling.bidict import BilingualDictionary, dict_cosines\n"
            "from xling.synthetic import SyntheticSpec, make_comparable_corpus, make_dictionary\n"
            "from xling.vsm import build_vocabulary\n"
            "spec = SyntheticSpec(n_topics=30, words_per_topic=20)\n"
            "corpus = make_comparable_corpus(60, spec, seed=5)\n"
            "docs_s = [d.text.split() for d in corpus.source_docs]\n"
            "docs_t = [d.text.split() for d in corpus.target_docs]\n"
            "synsets = iter(make_dictionary(spec, coverage=0.8, seed=7).synsets)\n"
            "d = BilingualDictionary((s1 | s2 | s3, t1 | t2 | t3)\n"
            "                        for (s1, t1), (s2, t2), (s3, t3) in zip(*[synsets] * 3))\n"
            "scores = dict_cosines(docs_s, docs_t, d, build_vocabulary(docs_s),\n"
            "                      build_vocabulary(docs_t))\n"
            "print(' '.join(map(float.hex, scores)))\n"
        )
        src = str(Path(xling.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            ).stdout.split()
            for seed in ("0", "12345")
        ]
        assert len(runs[0]) == 60 and runs[0] == runs[1]
        assert len(set(runs[0])) > 50

    def test_empty_collection_and_length_mismatch(self):
        d = BilingualDictionary([(("a",), ("x",))])
        stats = build_vocabulary([["a"], ["x"]])
        assert dict_cosines([], [], d, stats, stats) == []
        with pytest.raises(ValueError):
            dict_cosines([["a"]], [], d, stats, stats)


def _assert_same_dictionary(got: BilingualDictionary, expected: BilingualDictionary):
    assert got.synsets == expected.synsets
    for side, index in (("source", 0), ("target", 1)):
        terms = set().union(*(synset[index] for synset in expected.synsets))
        for term in terms | {"unknown"}:
            assert got.contains(term, side) == expected.contains(term, side)
            assert got.translations(term, side) == expected.translations(term, side)


def _write(tmp_path, text: str):
    path = tmp_path / "d.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestReduced:
    """Loading with reducers equals loading as written, then reducing each
    term and rebuilding the dictionary."""

    def test_unchanged_terms_load_unchanged(self, tmp_path):
        path = _write(tmp_path, "olive\tzaytun\ngood|fine\tjayid\nmarket|markets\taswaq|suq\n")
        plain = load_dictionary(path)
        _assert_same_dictionary(load_dictionary(path, str.lower), plain)
        _assert_same_dictionary(load_dictionary(path, str, str), plain)
        _assert_same_dictionary(two_step_reduced_dictionary(path, str.lower, str), plain)

    def test_each_side_reduced_with_its_own_function(self, tmp_path):
        path = _write(tmp_path, "houses\thouses\ncats|cat\txcats\n")
        d = load_dictionary(path, suffix_stem, str.upper)
        assert d.synsets == (
            (frozenset({"house"}), frozenset({"HOUSES"})),
            (frozenset({"cat"}), frozenset({"XCATS"})),
        )
        _assert_same_dictionary(d, two_step_reduced_dictionary(path, suffix_stem, str.upper))

    def test_synsets_that_become_equal_merge(self, tmp_path):
        path = _write(tmp_path, "cats\tx\ncat\tx\ndogs|dog\ty|Y\n")
        d = load_dictionary(path, suffix_stem, str.upper)
        assert len(d) == 2
        _assert_same_dictionary(d, two_step_reduced_dictionary(path, suffix_stem, str.upper))

    @settings(max_examples=150)
    @given(
        lines=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["cats", "cat", "bus", "dresses", "taking", "a"]),
                         min_size=1, max_size=3),
                st.lists(st.sampled_from(["الكتاب", "كتاب", "كتابات", "والكتب", "x", "ت"]),
                         min_size=1, max_size=3),
            ),
            max_size=8,
        ),
        source_fn=st.sampled_from([str, suffix_stem, str.upper]),
        target_fn=st.sampled_from([str, light_stem, lambda w: w[:1]]),
    )
    def test_equals_load_then_reduce(self, tmp_path_factory, lines, source_fn, target_fn):
        text = "".join(f"{'|'.join(s)}\t{'|'.join(t)}\n" for s, t in lines)
        path = _write(tmp_path_factory.mktemp("dict"), text)
        _assert_same_dictionary(
            load_dictionary(path, source_fn, target_fn),
            two_step_reduced_dictionary(path, source_fn, target_fn),
        )


# Cased terms, final-sigma contexts (a "Σ" after a letter, then maybe "'", which
# case mapping skips), "İ" (two characters lowercased), Arabic, "#" and inner space.
_TERM = st.sampled_from(
    ["a", "Bb", "ΟΔΟΣ", "ΑΣ'", "Σa", "ς", "İ", "كتاب", "الكتب", "a#", "new York"]
)
_PAD = st.sampled_from(["", " ", "  ", "\u00a0"])


@st.composite
def _dictionary_texts(draw) -> str:
    """Dictionary text whose sides take both parser branches, with comments,
    blank and malformed lines, CRLF endings, a leading BOM and duplicates.

    Blank sides and malformed lines are drawn rarely, so that most texts load.
    """
    def side() -> str:
        kind = draw(st.sampled_from(["one"] * 12 + ["split"] * 7 + ["blank"]))
        if kind == "one":  # with or without spaces around the tab
            return draw(_PAD) + draw(_TERM) + draw(_PAD)
        if kind == "split":  # padded or empty pieces
            pieces = draw(st.lists(st.one_of(_TERM, _PAD), min_size=1, max_size=3))
            return "|".join(draw(st.permutations([draw(_TERM), *pieces])))
        return draw(st.sampled_from(["", " ", "|", " | ", "||"]))

    def line() -> str:
        kind = draw(st.sampled_from(
            ["synset"] * 36 + ["comment"] * 2 + ["blank"] * 2 + ["no tab", "two tabs"]
        ))
        if kind == "synset":
            return f"{side()}\t{side()}"
        if kind == "comment":
            return draw(_PAD) + "#" + draw(_TERM)
        if kind == "blank":
            return draw(_PAD)
        return "\t".join(side() for _ in range(1 if kind == "no tab" else 3))

    lines = [line() for _ in range(draw(st.integers(0, 10)))]
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=3))  # duplicates
    lines = draw(st.permutations(lines))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(line + ending for line in lines)


class TestLoaderOracle:
    """The loader, one-term short path and whole-text lowercasing included,
    builds what the split-every-side oracle builds, or fails on the same line."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("dict") / "d.tsv"

    @settings(max_examples=150)
    @given(
        text=_dictionary_texts(),
        source_fn=st.sampled_from([str, suffix_stem, light_stem, str.upper]),
        target_fn=st.sampled_from([str, suffix_stem, light_stem, str.upper]),
    )
    def test_same_dictionary_or_same_error(self, path, text, source_fn, target_fn):
        path.write_text(text, encoding="utf-8")
        try:
            expected = split_every_side_load_dictionary(path, source_fn, target_fn)
        except MalformedLineError as err:
            with pytest.raises(MalformedLineError) as ours:
                load_dictionary(path, source_fn, target_fn)
            assert (ours.value.line_number, str(ours.value)) == (err.line_number, str(err))
            return
        got = load_dictionary(path, source_fn, target_fn)
        assert got.synsets == expected.synsets
        assert got._targets_of == expected._targets_of
        assert got._sources_of == expected._sources_of


# Terms that suffix_stem or str.upper merge ("Letters", "letter"), so that a
# reduced term repeats across lines, on one-term and "|" sides alike.
_MERGING_TERM = st.sampled_from(["letter", "Letters", "cat", "CATS", "رسالة", "خطاب", "ΟΔΟΣ", "x"])


@st.composite
def _merging_texts(draw, malformed: bool) -> str:
    """Dictionary text of one-term and ``|`` sides (padded and empty pieces),
    comments, blank and duplicate lines, upper case and maybe a BOM. With
    ``malformed``, two malformed lines of different kinds are put in it."""
    def side() -> str:
        if draw(st.booleans()):
            return draw(_PAD) + draw(_MERGING_TERM) + draw(_PAD)
        pieces = draw(st.lists(st.one_of(_MERGING_TERM, _PAD), min_size=1, max_size=3))
        return "|".join(draw(st.permutations([draw(_MERGING_TERM), *pieces])))

    def line() -> str:
        if draw(st.integers(0, 4)):
            return f"{side()}\t{side()}"
        return draw(st.sampled_from(["", "  ", "# note", " #\tx"]))  # blank or comment

    lines = [line() for _ in range(draw(st.integers(0, 10)))]
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=3))  # duplicates
    lines = draw(st.permutations(lines))
    if malformed:
        for bad in draw(st.permutations(["x\t | ", "no tab"])):
            lines.insert(draw(st.integers(0, len(lines))), bad)
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(line + "\n" for line in lines)


class TestMergedTermsOracle:
    """With terms that merge once reduced, the loader builds what the
    split-every-side oracle builds: the same synsets in order and partner
    maps, or the same error on the same, first, malformed line."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("dict") / "d.tsv"

    _REDUCERS = st.sampled_from([str, suffix_stem, str.upper])

    @settings(max_examples=100)
    @given(text=_merging_texts(malformed=False), source_fn=_REDUCERS, target_fn=_REDUCERS)
    def test_same_dictionary(self, path, text, source_fn, target_fn):
        path.write_text(text, encoding="utf-8")
        expected = split_every_side_load_dictionary(path, source_fn, target_fn)
        got = load_dictionary(path, source_fn, target_fn)
        assert got.synsets == expected.synsets
        assert got._targets_of == expected._targets_of
        assert got._sources_of == expected._sources_of

    @settings(max_examples=50)
    @given(text=_merging_texts(malformed=True), source_fn=_REDUCERS, target_fn=_REDUCERS)
    def test_first_malformed_line_wins(self, path, text, source_fn, target_fn):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedLineError) as expected:
            split_every_side_load_dictionary(path, source_fn, target_fn)
        with pytest.raises(MalformedLineError) as got:
            load_dictionary(path, source_fn, target_fn)
        assert type(got.value) is type(expected.value)
        assert (got.value.line_number, str(got.value)) == (
            expected.value.line_number, str(expected.value)
        )
        lines = text.removeprefix("\ufeff").splitlines()
        assert got.value.line_number == 1 + min(lines.index("x\t | "), lines.index("no tab"))

    def test_repeated_one_term_keys_merge(self, tmp_path):
        # Both one-term source sides reduce to "letter", so their partners merge.
        path = _write(tmp_path, "letter\tرسالة\nletters\tخطاب\n")
        d = load_dictionary(path, suffix_stem)
        assert d.translations("letter", "source") == frozenset({"رسالة", "خطاب"})
        assert d.translations("خطاب", "target") == frozenset({"letter"})


class TestOovRate:
    def test_everything_covered(self, toy_dictionary):
        assert oov_rate(["olive", "oil"], ["zayt", "jayid"], toy_dictionary) == 0.0

    def test_empty_dictionary(self):
        d = BilingualDictionary([])
        assert oov_rate(["a"], ["b"], d) == 1.0

    def test_hand_counted_value(self, toy_dictionary):
        # 1 of 4 source tokens OOV, 1 of 2 target tokens OOV: (0.25+0.5)/2
        d_s = ["olive", "oil", "press", "unknown"]
        d_t = ["zayt", "mystery"]
        assert oov_rate(d_s, d_t, toy_dictionary) == 0.375

    def test_empty_document_undefined(self, toy_dictionary):
        with pytest.raises(UndefinedRateError):
            oov_rate([], ["zayt"], toy_dictionary)


class TestMatchingRate:
    def test_no_matches(self, toy_dictionary):
        assert matching_rate(["xx"], ["yy"], toy_dictionary) == 0.0

    def test_three_matches_sizes_four_and_six(self):
        d = BilingualDictionary(
            [(("w1",), ("v1",)), (("w2",), ("v2",)), (("w3",), ("v3",))]
        )
        d_s = ["w1", "w2", "w3", "filler"]
        d_t = ["v1", "v2", "v3", "f1", "f2", "f3"]
        assert matching_rate(d_s, d_t, d) == pytest.approx(0.3)

    def test_identity_identical_documents_halved(self):
        d = BilingualDictionary([((t,), (t,)) for t in "abcd"])
        tokens = ["a", "b", "c", "d"]
        assert matching_rate(tokens, tokens, d) == 0.5

    def test_matched_bounded_by_smaller_document(self):
        # three sources all translating to one target type
        d = BilingualDictionary([(("w1", "w2", "w3"), ("v1",))])
        assert matching_rate(["w1", "w2", "w3"], ["v1"], d) == 1 / 4

    def test_both_empty_undefined(self, toy_dictionary):
        with pytest.raises(UndefinedRateError):
            matching_rate([], [], toy_dictionary)

    def test_one_empty_side_is_zero(self, toy_dictionary):
        assert matching_rate([], ["zayt"], toy_dictionary) == 0.0

    def test_augmenting_path_longer_than_the_recursion_limit(self):
        sources, targets, synsets = chain_couple(5000)
        assert matching_rate(sources, targets, BilingualDictionary(synsets)) == 0.5


class TestBinPooled:
    def test_counts_tokens_both_sides(self):
        d = BilingualDictionary([(("w1",), ("v1",))])
        # 2 w1 tokens translated + 1 v1 token translated over 3 + 2 tokens
        assert bin_pooled(["w1", "w1", "zz"], ["v1", "qq"], d) == pytest.approx(3 / 5)


class TestOracleAgreement:
    def test_measures_agree_with_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            d_s, d_t, synsets = random_toy_pair(rng)
            d = BilingualDictionary(synsets) if synsets else BilingualDictionary([])
            assert bin_symmetric(d_s, d_t, d) == brute_bin_symmetric(d_s, d_t, d.synsets)
            assert bin_pooled(d_s, d_t, d) == brute_bin_pooled(d_s, d_t, d.synsets)
            assert oov_rate(d_s, d_t, d) == brute_oov(d_s, d_t, d.synsets)
            assert matching_rate(d_s, d_t, d) == brute_matching_rate(d_s, d_t, d.synsets)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_bin_symmetric_is_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        d_s, d_t, synsets = random_toy_pair(rng)
        d = BilingualDictionary(synsets)
        reversed_d = BilingualDictionary([(t, s) for s, t in synsets])
        assert bin_symmetric(d_s, d_t, d) == bin_symmetric(d_t, d_s, reversed_d)

    def test_all_measures_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d_s, d_t, synsets = random_toy_pair(rng)
            d = BilingualDictionary(synsets)
            stats_s = build_vocabulary([d_s, d_t and d_s])
            stats_t = build_vocabulary([d_t, d_s and d_t])
            for value in (
                bin_symmetric(d_s, d_t, d),
                oov_rate(d_s, d_t, d),
                matching_rate(d_s, d_t, d),
                dict_cosine(d_s, d_t, d, stats_s, stats_t),
            ):
                assert 0.0 <= value <= 1.0


class TestReducerCombinations:
    """morphAr + lemma table gives the best word matching rate on a corpus
    built to need both lookup paths (stem-keyed and root-keyed entries)."""

    def _fixture(self):
        dictionary = BilingualDictionary(
            [
                (("مكتب",), ("office",)),  # keyed by a light stem
                (("سفر",), ("go",)),       # keyed by a root
                (("كتب",), ("write",)),    # reachable via the light path
            ]
        )
        arabic = ["المكتبة", "المسافرون", "يكتب"]
        english = ["wrote", "offices", "went"]
        return dictionary, arabic, english

    def test_morphar_plus_lemma_dominates(self):
        dictionary, arabic, english = self._fixture()
        ar_kinds = [ReducerKind.LIGHT_STEMMER, ReducerKind.ROOTER, ReducerKind.MORPHAR]
        en_reducers = {"lemma": lemmatize, "suffix": suffix_stem}
        rates = {}
        for ar_kind in ar_kinds:
            ar_reduce = make_reducer(ar_kind, dictionary=dictionary, side="source")
            for en_name, en_reduce in en_reducers.items():
                d_s = [ar_reduce(w) for w in arabic]
                d_t = [en_reduce(w) for w in english]
                rates[(ar_kind.value, en_name)] = matching_rate(d_s, d_t, dictionary)
        best = rates[("morphar", "lemma")]
        assert best == pytest.approx(0.5)
        assert all(best >= rate for rate in rates.values())
        assert sum(1 for rate in rates.values() if rate < best) >= 4
