import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from measure_oracles import (
    brute_align,
    brute_align_warnings,
    brute_bucket_cosines,
    brute_retrieve,
    dumps_ranked_lists,
    per_query_retrieve,
)

from xling import retrieval
from xling.bidict import BilingualDictionary
from xling.corpus import Document
from xling.errors import (
    DimensionMismatchError,
    EmptyCandidatesError,
    MalformedRecordError,
    MissingGoldError,
    SelfTestError,
    TranslationError,
)
from xling.lsi import build_cross_matrix, build_mono_matrix, fold_in_many, train
from xling.retrieval import (
    AlignmentPair,
    Embeddings,
    RankedList,
    align_corpora,
    alignment_report,
    cached_translator,
    dictionary_translator,
    embed_documents,
    evaluate_retrieval,
    gold_mapping,
    identity_translator,
    oracle_experiment,
    recall_at_k,
    retrieve_ar_lsi,
    retrieve_cl_lsi,
    retrieve_many,
    write_alignment_tsv,
    write_histogram_csv,
    write_ranked_lists_json,
    write_ranges_csv,
    write_report_json,
)
from xling.synthetic import SyntheticSpec, cipher_word, make_parallel_corpus, source_vocabulary
from xling.textprep import tokenize


def _tokens(docs):
    return [tokenize(d.text) for d in docs]


def _embeddings(candidates: dict) -> Embeddings:
    return Embeddings(list(candidates), list(candidates.values()))


def _rank(query, candidates: Embeddings, n: int) -> RankedList:
    """The ranked list of a block of one query."""
    (ranked,) = retrieve_many([query], candidates, n, ["q"])
    return ranked


class TestEmbeddings:
    def test_rows_unit_length_in_id_order(self):
        emb = Embeddings(["b", "a", "c"], [np.array([3.0, 4.0]), np.zeros(2), np.ones(2)])
        assert emb.ids == ("a", "b", "c")
        assert emb.unit.dtype == np.float64 and emb.unit.flags["C_CONTIGUOUS"]
        assert emb.unit[0].tolist() == [0.0, 0.0]  # zero vector stays a zero row
        assert emb.unit[1].tolist() == [0.6, 0.8]
        assert np.linalg.norm(emb.unit[2]) == pytest.approx(1.0, abs=1e-15)

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Embeddings(["a", "b", "a"], [np.ones(2)] * 3)

    def test_block_rows_reordered_by_id(self):
        block = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
        emb = Embeddings(["b", "a", "c"], block)
        listed = Embeddings(["b", "a", "c"], list(block))
        assert emb.ids == listed.ids == ("a", "b", "c")
        assert emb.unit.tobytes() == listed.unit.tobytes()
        assert emb.unit[1].tolist() == [0.6, 0.8]

    def test_zero_rows(self):
        for vectors in ([], np.zeros((0, 3))):
            emb = Embeddings([], vectors)
            assert len(emb) == 0 and emb.unit.ndim == 2
            with pytest.raises(EmptyCandidatesError):
                _rank(np.ones(3), emb, 1)

    def test_row_count_must_match_ids(self):
        with pytest.raises(ValueError, match="2 ids for 3 vectors"):
            Embeddings(["a", "b"], np.ones((3, 2)))


class TestRetrieve:
    def test_query_equal_to_candidate_ranks_first(self):
        rng = np.random.default_rng(0)
        candidates = {f"c{i}": rng.normal(size=4) for i in range(6)}
        query = candidates["c3"].copy()
        ranked = _rank(query, _embeddings(candidates), 3)
        assert ranked.entries[0][0] == "c3"
        assert ranked.entries[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_n_larger_than_candidates_returns_full_ranking(self):
        candidates = {"a": np.ones(3), "b": np.arange(3.0)}
        ranked = _rank(np.ones(3), _embeddings(candidates), 10)
        assert len(ranked.entries) == 2

    @pytest.mark.parametrize("pool_size", [20, 200])
    def test_matches_exhaustive_sort_oracle(self, pool_size):
        rng = np.random.default_rng(7)
        for _ in range(10):
            candidates = {f"c{i:03d}": rng.normal(size=6) for i in range(pool_size)}
            query = rng.normal(size=6)
            expected = brute_retrieve(query, candidates, 5)
            ranked = _rank(query, _embeddings(candidates), 5)
            assert [cid for cid, _ in ranked.entries] == [cid for cid, _ in expected]
            for (_, got), (_, want) in zip(ranked.entries, expected):
                assert got == pytest.approx(want, abs=1e-12)

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidatesError):
            _rank(np.ones(2), Embeddings([], []), 1)

    def test_tie_break_ascending_id(self):
        vec = np.ones(2)
        candidates = {"b": vec, "a": vec.copy(), "c": vec.copy()}
        ranked = _rank(vec, _embeddings(candidates), 3)
        assert [cid for cid, _ in ranked.entries] == ["a", "b", "c"]

    def test_order_independence(self):
        rng = np.random.default_rng(1)
        vecs = [(f"c{i}", rng.normal(size=4)) for i in range(10)]
        query = rng.normal(size=4)
        forward = _rank(query, _embeddings(dict(vecs)), 4)
        backward = _rank(query, _embeddings(dict(reversed(vecs))), 4)
        assert forward == backward

    @settings(max_examples=40)
    @given(
        k=st.integers(min_value=1, max_value=300),
        n_rows=st.integers(min_value=1, max_value=700),
        n_dups=st.integers(min_value=0, max_value=20),
        n_zeros=st.integers(min_value=0, max_value=5),
        n=st.integers(min_value=1, max_value=800),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_pair_oracle_with_duplicates_and_zeros(
        self, k, n_rows, n_dups, n_zeros, n, seed
    ):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n_rows, k)) * rng.uniform(0.01, 100.0, size=(n_rows, 1))
        rows[rng.integers(n_rows, size=min(n_zeros, n_rows))] = 0.0
        copies = rows[rng.integers(n_rows, size=n_dups)]
        rows = np.vstack([rows, copies])
        # random ids put each copy at a random row of the id-sorted matrix
        ids = [f"c{i:04d}" for i in rng.permutation(len(rows))]
        candidates = dict(zip(ids, rows))
        query = rng.normal(size=k)

        got = _rank(query, _embeddings(candidates), n).entries
        oracle = brute_retrieve(query, candidates, len(candidates))
        assert len(got) == min(n, len(candidates))
        oracle_sims = [sim for _, sim in oracle] + [-np.inf]
        for i, ((got_id, got_sim), (want_id, want_sim)) in enumerate(zip(got, oracle)):
            assert got_sim == pytest.approx(want_sim, abs=1e-12)
            separated = oracle_sims[i] - oracle_sims[i + 1] > 1e-12 and (
                i == 0 or oracle_sims[i - 1] - oracle_sims[i] > 1e-12
            )
            if separated:
                assert got_id == want_id

        full = _rank(query, _embeddings(candidates), len(candidates)).entries
        sim_of = dict(full)
        rank_of = {cid: r for r, (cid, _) in enumerate(full)}
        groups: dict[bytes, list[str]] = {}
        for cid in sorted(candidates):
            groups.setdefault(candidates[cid].tobytes(), []).append(cid)
        for group in groups.values():
            assert len({sim_of[cid] for cid in group}) == 1  # bit-identical
            ranks = [rank_of[cid] for cid in group]
            assert ranks == sorted(ranks)


def _bits(entries):
    """(id, similarity) pairs with each similarity as its exact bits."""
    return [(cid, float.hex(sim)) for cid, sim in entries]


def _shuffled_embeddings(rows: np.ndarray, rng) -> Embeddings:
    """Random ids put each row at a random place in the id-sorted matrix."""
    return Embeddings([f"c{i:03d}" for i in rng.permutation(len(rows))], rows)


@st.composite
def _ranking_blocks(draw):
    """A query block, candidates and n for ``retrieve_many``.

    Candidates are copies of a few distinct rows, some zero and some nudged
    by 1 ulp; queries are copies of those rows, zero rows or fresh rows;
    one entry of a query or a candidate may be made inf or nan.
    """
    k = draw(st.integers(min_value=1, max_value=70))
    m = draw(st.integers(min_value=1, max_value=60))
    q = draw(st.integers(min_value=0, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pool = rng.normal(size=(draw(st.integers(min_value=1, max_value=6)), k))
    pool[rng.random(len(pool)) < 0.2] = 0.0
    rows = pool[rng.integers(len(pool), size=m)]
    for i in np.flatnonzero(rng.random(m) < 0.2):
        j = rng.integers(k)
        rows[i, j] = np.nextafter(rows[i, j], np.inf)
    queries = np.vstack([pool, np.zeros((1, k)), rng.normal(size=(q, k))])
    queries = queries[rng.integers(len(queries), size=q)]
    target = draw(st.sampled_from([None, "query", "candidate"]))
    value = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    if target == "candidate":
        rows[rng.integers(m), rng.integers(k)] = value
    elif target == "query" and q:
        queries[rng.integers(q), rng.integers(k)] = value
    n = draw(st.integers(min_value=1, max_value=m + 2))
    return queries, _shuffled_embeddings(rows, rng), n


_NON_FINITE = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


class TestRetrieveMany:
    @_NON_FINITE
    @settings(max_examples=150)
    @given(case=_ranking_blocks())
    def test_bit_identical_to_per_query_oracle(self, case):
        queries, candidates, n = case
        ids = [f"q{i}" for i in range(len(queries))]
        ranked = retrieve_many(queries, candidates, n, ids)
        assert [rl.query_id for rl in ranked] == ids
        for query, rl in zip(queries, ranked):
            assert _bits(rl.entries) == _bits(per_query_retrieve(query, candidates, n))

    def test_copies_of_one_row_tie_to_the_lowest_id(self):
        # BLAS can score identical rows unequally, by their place in the
        # product's tiles; the exact re-score must still tie them, so that
        # at n=1 the lowest id among the copies wins. k >= 2 keeps the
        # other rows off the copies' line.
        # 32 queries cut into blocks of k // 2 rows vary the product's
        # shapes; at one OpenBLAS thread on an x86-64 Xeon, a screen with
        # no margin loses the lowest id in 9 of these 100 cases.
        rng = np.random.default_rng(0)
        for _ in range(100):
            k, copies, others = (int(v) for v in rng.integers((2, 2, 0), (80, 60, 30)))
            row = rng.normal(size=k)
            rows = np.vstack([np.repeat(row[None], copies, axis=0), rng.normal(size=(others, k))])
            ids = [f"c{i:03d}" for i in rng.permutation(len(rows))]
            candidates = Embeddings(ids, rows)
            queries = row + 1e-3 * rng.normal(size=(32, k))
            queries[0] = row
            ranked = retrieve_many(queries, candidates, 1, [f"q{i}" for i in range(32)])
            for query, rl in zip(queries, ranked):
                assert _bits(rl.entries) == _bits(per_query_retrieve(query, candidates, 1))
            assert ranked[0].entries[0][0] == min(ids[:copies])

    @_NON_FINITE
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["query", "candidate"])
    def test_non_finite_entry_ranks_like_the_oracle(self, where, value):
        rng = np.random.default_rng(3)
        rows, queries = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        (queries if where == "query" else rows)[1, 2] = value
        candidates = _shuffled_embeddings(rows, rng)
        ranked = retrieve_many(queries, candidates, 2, ["a", "b", "c"])
        assert [len(rl.entries) for rl in ranked] == [2, 2, 2]
        for query, rl in zip(queries, ranked):
            assert _bits(rl.entries) == _bits(per_query_retrieve(query, candidates, 2))

    def test_empty_block_returns_nothing_even_without_candidates(self):
        assert retrieve_many(np.zeros((0, 3)), Embeddings([], []), 2, []) == []
        assert retrieve_many([], _embeddings({"a": np.ones(3)}), 2, []) == []

    def test_checks_in_retrieve_order(self):
        candidates = _embeddings({"a": np.ones(3)})
        with pytest.raises(ValueError, match="n must be"):
            retrieve_many(np.ones((1, 3)), Embeddings([], []), 0, ["q"])
        with pytest.raises(EmptyCandidatesError):
            retrieve_many(np.ones((1, 4)), Embeddings([], []), 1, ["q"])
        with pytest.raises(DimensionMismatchError, match=r"query shape \(4,\)"):
            retrieve_many(np.ones((1, 4)), candidates, 1, ["q"])
        with pytest.raises(ValueError, match="2 query ids for 1 queries"):
            retrieve_many(np.ones((1, 3)), candidates, 1, ["q", "r"])


class TestRankedList:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            RankedList("q", (("a", 0.5), ("b", 0.9)))
        with pytest.raises(ValueError):
            RankedList("q", (("b", 0.5), ("a", 0.5)))  # tie must ascend by id


class TestProviders:
    def test_identity_keeps_text(self):
        doc = Document("d", "en", "same text")
        assert identity_translator(doc) == "same text"

    def test_dictionary_word_for_word_deterministic_choice(self):
        d = BilingualDictionary([(("oil",), ("zayt", "duhn")), (("good",), ("jayid",))])
        translate = dictionary_translator(d)
        # smallest translation lexicographically; OOV words pass through
        assert translate(Document("d", "en", "Good oil, good!")) == "jayid duhn jayid"
        assert translate(Document("d", "en", "bad oil")) == "bad duhn"

    def test_file_cache_lookup_and_miss(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"id": "d1", "text": "cached"}) + "\n", encoding="utf-8")
        translate = cached_translator(path)
        assert translate(Document("d1", "en", "x")) == "cached"
        with pytest.raises(TranslationError):
            translate(Document("d2", "en", "x"))

    @pytest.mark.parametrize(
        "line",
        ['{"id": "x"}', "[1, 2]", '{"id": "x", "text": 5}', "not json",
         '{"id": "d1", "text": "again"}'],
    )
    def test_file_cache_malformed_line_names_it(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            json.dumps({"id": "d1", "text": "cached"}) + "\n\n" + line + "\n", encoding="utf-8"
        )
        with pytest.raises(MalformedRecordError) as err:
            cached_translator(path)
        assert err.value.line_number == 3


def _mono_model(docs):
    return train(build_mono_matrix(_tokens(docs)), k=4)


def _cross_model(corpus, k=8):
    matrix = build_cross_matrix(_tokens(corpus.source_docs), _tokens(corpus.target_docs))
    return train(matrix, k=k)


def _target_docs(n=8, seed=0):
    spec = SyntheticSpec(n_topics=4, words_per_topic=20, common_words=5,
                         doc_length=(30, 50), topic_alpha=0.1)
    return make_parallel_corpus(n, spec, seed=seed).target_docs


class TestArLsiPipeline:
    def test_identity_provider_self_retrieval(self):
        # queries are the target documents themselves: a perfect-translation
        # stand-in, so every query must rank its own pair first
        targets = _target_docs()
        model = _mono_model(targets)
        queries = [
            Document(f"q{i}", "en", d.text) for i, d in enumerate(targets)
        ]
        ranked = retrieve_ar_lsi(queries, targets, model, identity_translator, 1)
        hits = sum(1 for i, rl in enumerate(ranked) if rl.entries[0][0] == targets[i].id)
        assert hits == len(targets)

    def test_empty_queries(self):
        targets = _target_docs()
        model = _mono_model(targets)
        assert retrieve_ar_lsi([], targets, model, identity_translator, 3) == []

    def test_provider_failure_marks_query_skipped(self, tmp_path):
        targets = _target_docs()
        model = _mono_model(targets)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            json.dumps({"id": "q0", "text": targets[0].text}) + "\n", encoding="utf-8"
        )
        translate = cached_translator(cache)
        queries = [Document("q0", "en", "x"), Document("q1", "en", "y")]
        with pytest.warns(UserWarning, match="skipped"):
            ranked = retrieve_ar_lsi(queries, targets, model, translate, 2)
        assert not ranked[0].skipped
        assert ranked[1].skipped and ranked[1].entries == ()

    def test_batched_queries_equal_one_at_a_time(self, tmp_path):
        targets = _target_docs()
        model = _mono_model(targets)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            "".join(json.dumps({"id": f"q{i}", "text": targets[i].text}) + "\n"
                    for i in (0, 2, 3))
            + json.dumps({"id": "q4", "text": ""}) + "\n",
            encoding="utf-8",
        )
        queries = [Document(f"q{i}", "en", "x") for i in range(5)]
        with pytest.warns(UserWarning, match="q1 skipped"):
            ranked = retrieve_ar_lsi(queries, targets, model, cached_translator(cache), 3)
        candidates = Embeddings(
            [d.id for d in targets], fold_in_many(_tokens(targets), model, "target")
        )
        assert [rl.skipped for rl in ranked] == [False, True, False, False, False]
        for rl, text in zip(ranked, [targets[0].text, None, targets[2].text,
                                     targets[3].text, ""]):
            if text is not None:
                query = fold_in_many([tokenize(text)], model, "target")
                assert [rl] == retrieve_many(query, candidates, 3, [rl.query_id])

    def test_all_skipped_with_no_candidates(self, tmp_path):
        model = _mono_model(_target_docs())
        cache = tmp_path / "cache.jsonl"
        cache.write_text("", encoding="utf-8")
        with pytest.warns(UserWarning, match="skipped"):
            ranked = retrieve_ar_lsi([Document("q0", "en", "x")], [], model,
                                     cached_translator(cache), 2)
        assert ranked == [RankedList("q0", (), skipped=True)]
        with pytest.raises(EmptyCandidatesError):
            retrieve_ar_lsi([Document("q0", "en", "x")], [], model, identity_translator, 2)

    def test_wrong_model_kind_rejected(self, tmp_path):
        spec = SyntheticSpec(n_topics=3, words_per_topic=10, common_words=4,
                             doc_length=(20, 30), topic_alpha=0.3)
        corpus = make_parallel_corpus(6, spec, seed=2)
        cross = _cross_model(corpus, k=3)
        with pytest.raises(ValueError):
            retrieve_ar_lsi(corpus.source_docs, corpus.target_docs, cross,
                            identity_translator, 1)


class TestClLsiPipeline:
    def _fixture(self, n=10, seed=4):
        spec = SyntheticSpec(n_topics=4, words_per_topic=25, common_words=5,
                             doc_length=(40, 60), topic_alpha=0.08)
        return make_parallel_corpus(n, spec, seed=seed)

    def test_pairs_rank_in_top_five_on_toy_corpus(self):
        corpus = self._fixture()
        model = _cross_model(corpus)
        ranked = retrieve_cl_lsi(corpus.source_docs, corpus.target_docs, model, 5)
        gold = gold_mapping(corpus)
        assert recall_at_k(ranked, gold, 5) == 1.0

    def test_single_candidate_trivial_hit(self):
        corpus = self._fixture()
        model = _cross_model(corpus)
        ranked = retrieve_cl_lsi(
            corpus.source_docs[:1], corpus.target_docs[:1], model, 1
        )
        assert ranked[0].entries[0][0] == corpus.target_docs[0].id

    def test_candidate_order_irrelevant(self):
        corpus = self._fixture()
        model = _cross_model(corpus)
        forward = retrieve_cl_lsi(corpus.source_docs, corpus.target_docs, model, 3)
        shuffled = list(corpus.target_docs)[::-1]
        backward = retrieve_cl_lsi(corpus.source_docs, shuffled, model, 3)
        assert forward == backward

    def test_no_candidates_raises(self):
        corpus = self._fixture()
        model = _cross_model(corpus)
        with pytest.raises(EmptyCandidatesError):
            retrieve_cl_lsi(corpus.source_docs, [], model, 3)
        assert len(embed_documents([], "target", model)) == 0

    def test_pipeline_equals_embed_plus_retrieve(self):
        corpus = self._fixture()
        model = _cross_model(corpus)
        ranked = retrieve_cl_lsi(corpus.source_docs, corpus.target_docs, model, 4)
        candidates = Embeddings(
            [d.id for d in corpus.target_docs],
            fold_in_many(_tokens(corpus.target_docs), model, "target"),
        )
        for doc, rl in zip(corpus.source_docs, ranked):
            query = fold_in_many([tokenize(doc.text)], model, "source")
            assert [rl] == retrieve_many(query, candidates, 4, [doc.id])


class TestAlignment:
    def _grouped_corpus(self):
        spec = SyntheticSpec(n_topics=4, words_per_topic=25, common_words=5,
                             doc_length=(40, 60), topic_alpha=0.08)
        corpus = make_parallel_corpus(12, spec, seed=6)
        source = [
            Document(d.id, d.language, d.text, group_key=f"g{i % 3}")
            for i, d in enumerate(corpus.source_docs)
        ]
        target = [
            Document(d.id, d.language, d.text, group_key=f"g{i % 3}")
            for i, d in enumerate(corpus.target_docs)
        ]
        return corpus, source, target

    def test_one_by_one_groups(self):
        corpus, source, target = self._grouped_corpus()
        model = _cross_model(corpus)
        pairs = align_corpora(source[:3], target[:3], model, top_n=5,
                              group_by="month")
        # groups g0/g1/g2 hold one doc per side: one pair each
        assert len(pairs) == 3
        assert sorted(p.group_key for p in pairs) == ["g0", "g1", "g2"]

    def test_top_n_truncation_and_descending_order(self):
        corpus, source, target = self._grouped_corpus()
        model = _cross_model(corpus)
        pairs = align_corpora(source, target, model, top_n=2, group_by="month")
        assert len(pairs) == 6  # 3 groups x top-2
        by_group = {}
        for p in pairs:
            by_group.setdefault(p.group_key, []).append(p.similarity)
        for sims in by_group.values():
            assert sims == sorted(sims, reverse=True)

    def test_ungrouped_runs_single_bucket(self):
        corpus, _, _ = self._grouped_corpus()
        model = _cross_model(corpus)
        pairs = align_corpora(corpus.source_docs, corpus.target_docs, model, top_n=4)
        assert len(pairs) == 4

    def test_missing_group_key_rejected(self):
        corpus, source, target = self._grouped_corpus()
        model = _cross_model(corpus)
        bare = Document("bare", source[0].language, "text here")
        with pytest.raises(ValueError):
            align_corpora(source + [bare], target, model, group_by="month")

    def test_empty_group_skipped_with_warning(self):
        corpus, source, target = self._grouped_corpus()
        model = _cross_model(corpus)
        lonely = Document("lonely", source[0].language, source[0].text, group_key="g9")
        with pytest.warns(UserWarning, match="g9"):
            pairs = align_corpora(source + [lonely], target, model, top_n=3,
                                  group_by="month")
        assert all(p.group_key != "g9" for p in pairs)

    def test_mutual_best_filters_contested_targets(self):
        corpus, source, target = self._grouped_corpus()
        model = _cross_model(corpus)
        plain = align_corpora(source, target, model, top_n=12, group_by="month")
        mutual = align_corpora(source, target, model, top_n=12, group_by="month",
                               mutual_best=True)
        assert len(mutual) <= len(plain)
        assert {(p.source_id, p.target_id) for p in mutual} <= {
            (p.source_id, p.target_id) for p in plain
        }

    @pytest.mark.parametrize("mutual_best", [False, True])
    def test_source_without_vocabulary_left_out_with_warning(self, mutual_best):
        corpus, _, _ = self._grouped_corpus()
        model = _cross_model(corpus)
        blank = Document("s0", "en", "one two")  # no term the model knows
        with pytest.warns(UserWarning) as record:
            pairs = align_corpora([blank, *corpus.source_docs], corpus.target_docs, model,
                                  top_n=20, mutual_best=mutual_best)
        assert [str(w.message) for w in record] == [
            "sources with no in-vocabulary term left out: ['s0']"
        ]
        assert pairs == align_corpora(corpus.source_docs, corpus.target_docs, model,
                                      top_n=20, mutual_best=mutual_best)
        with pytest.warns(UserWarning, match=r"\['s0'\]"):
            assert align_corpora([blank], corpus.target_docs, model,
                                 mutual_best=mutual_best) == []

    @pytest.mark.parametrize("mutual_best", [False, True])
    def test_target_without_vocabulary_left_out_with_warning(self, mutual_best):
        corpus, _, _ = self._grouped_corpus()
        model = _cross_model(corpus)
        blank = Document("t0", "ar", "one two")  # no term the model knows
        with pytest.warns(UserWarning) as record:
            pairs = align_corpora(corpus.source_docs, [blank, *corpus.target_docs], model,
                                  top_n=20, mutual_best=mutual_best)
        assert [str(w.message) for w in record] == [
            "targets with no in-vocabulary term left out: ['t0']"
        ]
        assert pairs == align_corpora(corpus.source_docs, corpus.target_docs, model,
                                      top_n=20, mutual_best=mutual_best)
        with pytest.warns(UserWarning, match=r"\['t0'\]"):
            assert align_corpora(corpus.source_docs, [blank], model,
                                 mutual_best=mutual_best) == []

    @pytest.mark.parametrize("mutual_best", [False, True])
    def test_blank_target_does_not_outrank_a_negative_cosine(self, mutual_best):
        # Every known target scores below 0 here, so a zero-vector target
        # would win at similarity 0.0 if it were ranked.
        spec = SyntheticSpec(n_topics=6, words_per_topic=10, common_words=4)
        model = _cross_model(make_parallel_corpus(80, spec, seed=3), k=20)
        targets = [Document("t0", "ar", "t05x003"), Document("t1", "ar", "zzz unknown")]
        with pytest.warns(UserWarning, match=r"targets .* left out: \['t1'\]"):
            pairs = align_corpora([Document("s0", "en", "s02x003")], targets, model,
                                  mutual_best=mutual_best)
        assert [(p.source_id, p.target_id) for p in pairs] == [("s0", "t0")]
        assert pairs[0].similarity < 0.0

    def test_gold_pairs_dominate(self):
        corpus, source, target = self._grouped_corpus()
        model = _cross_model(corpus)
        pairs = align_corpora(source, target, model, top_n=4, group_by="month")
        gold = gold_mapping(corpus)
        correct = sum(1 for p in pairs if gold[p.source_id] == p.target_id)
        assert correct == len(pairs)


_ORACLE_SPEC = SyntheticSpec(n_topics=3, words_per_topic=4, common_words=2,
                             doc_length=(8, 14), topic_alpha=0.2)
_ORACLE_MODEL = _cross_model(make_parallel_corpus(30, _ORACLE_SPEC, seed=4), k=6)
_ORACLE_WORDS = source_vocabulary(_ORACLE_SPEC) + ["zzz", "qqq"]  # two out of vocabulary


@st.composite
def _align_collection(draw, prefix: str, language: str, cipher: bool):
    """Documents of random known and unknown words (possibly none), in 1-3 groups."""
    n = draw(st.integers(min_value=0, max_value=6))
    docs = []
    for i in range(n):
        words = draw(st.lists(st.sampled_from(_ORACLE_WORDS), max_size=6))
        text = " ".join(cipher_word(w) if cipher else w for w in words)
        group = draw(st.sampled_from(["g0", "g1", "g2"]))
        docs.append(Document(f"{prefix}{i}", language, text, group_key=group))
    return docs


def _near_tie(values, gap: float = 1e-9) -> bool:
    ordered = sorted(values)
    return any(b - a < gap for a, b in zip(ordered, ordered[1:]))


class TestAlignmentOracle:
    @settings(max_examples=150)
    @given(
        source=_align_collection("s", "en", False),
        target=_align_collection("t", "ar", True),
        top_n=st.integers(min_value=1, max_value=5),
        group_by=st.sampled_from([None, "month", ""]),
        mutual_best=st.booleans(),
    )
    def test_matches_brute_force(self, source, target, top_n, group_by, mutual_best):
        # Leave out near-ties: there the two cosine computations may round
        # a pair either way, and the id tie-break would then disagree.
        for _, cosines in brute_bucket_cosines(source, target, _ORACLE_MODEL, group_by):
            for own in (0, 1):
                for doc_id in {pair[own] for pair in cosines}:
                    assume(not _near_tie(c for pair, c in cosines.items() if pair[own] == doc_id))
            assume(not _near_tie(cosines.values()))
        _assert_aligns_like_brute_force(source, target, top_n, group_by, mutual_best)

    @pytest.mark.parametrize("mutual_best", [False, True])
    @pytest.mark.parametrize(
        "source_words, target_words, group_by",
        [
            # g1 holds a zero-vector document on each side, and nothing else
            # on the target side.
            ({"g0": ["s00x000 s00x001", "s01x000 scmn000"], "g1": ["zzz", "s02x001 s02x002"]},
             {"g0": ["s00x000 s00x001 scmn001", "s01x002"], "g1": ["qqq zzz"]}, "month"),
            # g1 holds sources only, g2 targets only.
            ({"g0": ["s00x000 s01x001", "s02x003"], "g1": ["s01x000"]},
             {"g0": ["s00x000", "s02x003 s02x000"], "g2": ["s01x000"]}, "month"),
            # One bucket of everything, group keys unread.
            ({"g0": ["s00x000 s00x001", "zzz"], "g1": ["s02x002 scmn000"]},
             {"g0": ["s02x002", "qqq"], "g2": ["s00x001 s00x000"]}, None),
        ],
        ids=["zero-vector-bucket", "bucket-empty-on-one-side", "ungrouped"],
    )
    def test_fold_once_cases(self, source_words, target_words, group_by, mutual_best):
        source = _bucket_documents("s", "en", source_words, False)
        target = _bucket_documents("t", "ar", target_words, True)
        _assert_aligns_like_brute_force(source, target, 5, group_by, mutual_best)

    @pytest.mark.parametrize("group_by", ["month", None])
    def test_folds_each_side_once(self, monkeypatch, group_by):
        # g1 holds sources only, so grouped it is skipped; its document is
        # folded all the same.
        source = _bucket_documents("s", "en", {"g0": ["s00x000", "s02x003"], "g1": ["s01x000"]},
                                   False)
        target = _bucket_documents("t", "ar", {"g0": ["s00x000", "s02x003"]}, True)
        calls = []

        def spy(documents, model, side):
            documents = list(documents)
            calls.append((side, len(documents)))
            return fold_in_many(documents, model, side)

        monkeypatch.setattr(retrieval, "fold_in_many", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pairs = align_corpora(source, target, _ORACLE_MODEL, group_by=group_by)
        assert calls == [("source", 3), ("target", 2)]
        assert len(pairs) == (2 if group_by else 3)


def _bucket_documents(prefix, language, words_by_group, cipher):
    """One document per text, its id the prefix, group and index, ciphered
    into the target language when ``cipher`` is set."""
    return [
        Document(f"{prefix}{group}{i}", language,
                 " ".join(cipher_word(w) if cipher else w for w in text.split()),
                 group_key=group)
        for group, texts in words_by_group.items() for i, text in enumerate(texts)
    ]


def _assert_aligns_like_brute_force(source, target, top_n, group_by, mutual_best):
    """``align_corpora`` gives ``brute_align``'s pairs and raises
    ``brute_align_warnings``' warnings, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = align_corpora(source, target, _ORACLE_MODEL, top_n=top_n, group_by=group_by,
                            mutual_best=mutual_best)
    assert [str(w.message) for w in caught] == brute_align_warnings(
        source, target, _ORACLE_MODEL, group_by
    )
    want = brute_align(source, target, _ORACLE_MODEL, top_n, group_by, mutual_best)
    assert [(p.source_id, p.target_id, p.group_key) for p in got] == [
        (s, t, g) for s, t, _, g in want
    ]
    for pair, (_, _, sim, _) in zip(got, want):
        assert pair.similarity == pytest.approx(sim, abs=1e-12)


def _lists_with_gold_ranks(ranks: list[int]) -> tuple[list[RankedList], dict[str, str]]:
    """Ranked lists where query i's gold target sits at the given 1-based rank."""
    lists, gold = [], {}
    for i, rank in enumerate(ranks):
        qid, gid = f"q{i}", f"g{i}"
        gold[qid] = gid
        entries = []
        sim = 1.0
        for pos in range(1, max(rank, 6) + 1):
            cid = gid if pos == rank else f"f{i}-{pos}"
            entries.append((cid, sim))
            sim -= 0.01
        lists.append(RankedList(qid, tuple(entries)))
    return lists, gold


class TestRecall:
    def test_gold_first_everywhere(self):
        lists, gold = _lists_with_gold_ranks([1, 1, 1])
        assert recall_at_k(lists, gold, 1) == 1.0

    def test_gold_at_rank_three(self):
        lists, gold = _lists_with_gold_ranks([3, 3, 3])
        assert recall_at_k(lists, gold, 1) == 0.0
        assert recall_at_k(lists, gold, 5) == 1.0

    def test_hand_scored_ten_query_fixture(self):
        # ranks 1,3,2,6,1,1,4,2,5,1: four hits at k=1, nine at k=5
        lists, gold = _lists_with_gold_ranks([1, 3, 2, 6, 1, 1, 4, 2, 5, 1])
        assert recall_at_k(lists, gold, 1) == 0.4
        assert recall_at_k(lists, gold, 5) == 0.9

    def test_monotone_in_k(self):
        lists, gold = _lists_with_gold_ranks([1, 3, 2, 6, 1, 1, 4, 2, 5, 1])
        values = [recall_at_k(lists, gold, k) for k in range(1, 7)]
        assert values == sorted(values)

    def test_missing_gold_names_query(self):
        lists, gold = _lists_with_gold_ranks([1, 2])
        del gold["q1"]
        with pytest.raises(MissingGoldError) as err:
            recall_at_k(lists, gold, 1)
        assert err.value.query_id == "q1"

    def test_skipped_queries_count_as_misses(self):
        lists, gold = _lists_with_gold_ranks([1])
        lists.append(RankedList("q9", (), skipped=True))
        gold["q9"] = "g9"
        assert recall_at_k(lists, gold, 1) == 0.5

    def test_evaluate_retrieval_report(self):
        lists, gold = _lists_with_gold_ranks([1, 3, 2, 6, 1, 1, 4, 2, 5, 1])
        report = evaluate_retrieval(lists, gold, ks=(1, 5))
        assert report.recall == {1: 0.4, 5: 0.9}
        assert report.recall[1] <= report.recall[5]
        assert sum(report.hits[5]) == 9


class TestAlignmentReport:
    def test_single_pair(self):
        report = alignment_report([AlignmentPair("e", "a", 0.55, "m")])
        assert report.sim_ranges == {"m": (0.55, 0.55)}
        assert report.histogram["[0.5,0.6)"] == 1
        assert sum(report.histogram.values()) == 1

    def test_bin_edges_half_open(self):
        report = alignment_report([AlignmentPair("e", "a", 0.4, None)])
        assert report.histogram["[0.4,0.5)"] == 1
        assert report.histogram["[0.3,0.4)"] == 0

    def test_underflow_overflow_bins(self):
        pairs = [
            AlignmentPair("e1", "a1", 0.05, None),
            AlignmentPair("e2", "a2", 0.95, None),
        ]
        report = alignment_report(pairs)
        assert report.histogram["<0.3"] == 1
        assert report.histogram[">=0.9"] == 1

    def test_accuracy_305_of_360(self):
        pairs = []
        gold = {}
        for i in range(360):
            src, tgt = f"e{i:03d}", f"a{i:03d}"
            gold[src] = tgt if i < 305 else f"other{i}"
            pairs.append(AlignmentPair(src, tgt, 0.65, f"g{i % 24}"))
        report = alignment_report(pairs, gold=gold)
        assert report.correct_count == 305
        assert report.accuracy == pytest.approx(305 / 360)
        assert report.accuracy == pytest.approx(0.8472, abs=5e-5)
        assert len(report.sim_ranges) == 24

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            alignment_report([])


class TestOracleExperiment:
    def test_returns_exactly_one_on_clean_corpus(self):
        targets = _target_docs(n=10, seed=3)
        model = _mono_model(targets)
        assert oracle_experiment(targets, model) == 1.0

    def test_crosslingual_model_supported(self):
        spec = SyntheticSpec(n_topics=4, words_per_topic=25, common_words=5,
                             doc_length=(40, 60), topic_alpha=0.08)
        corpus = make_parallel_corpus(10, spec, seed=9)
        model = _cross_model(corpus)
        assert oracle_experiment(corpus.target_docs, model) == 1.0

    def test_duplicate_documents_flagged(self):
        targets = list(_target_docs(n=6, seed=5))
        clone = Document("zz-clone", targets[0].language, targets[0].text)
        model = _mono_model(targets + [clone])
        with pytest.raises(SelfTestError) as err:
            oracle_experiment(targets + [clone], model)
        assert "zz-clone" in err.value.offenders

    def test_empty_corpus_rejected(self):
        targets = _target_docs()
        model = _mono_model(targets)
        with pytest.raises(ValueError):
            oracle_experiment([], model)


# Ids with JSON escapes (quote, backslash, control characters), non-ASCII
# text and the empty string; similarities with both zeros, subnormals, the
# largest floats, NaN, infinities, numpy floats and ints.
_JSON_IDS = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028é ب😀aZ0 '), max_size=5)
_JSON_SIMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
)


@st.composite
def _json_ranked_lists(draw):
    lists = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        query_id = draw(_JSON_IDS)
        if draw(st.booleans()):
            lists.append(RankedList(query_id, (), skipped=True))
            continue
        entries = draw(st.lists(st.tuples(_JSON_IDS, _JSON_SIMS), max_size=4,
                                unique_by=lambda entry: entry[0]))
        # Descending, ties by id; a NaN is never out of order.
        entries.sort(key=lambda entry: (-entry[1] if entry[1] == entry[1] else 0.0, entry[0]))
        lists.append(RankedList(query_id, tuple(entries)))
    return lists


class TestWriters:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lists=_json_ranked_lists())
    def test_ranked_lists_json_bytes_equal_json_dumps(self, tmp_path, lists):
        path = tmp_path / "ranked.json"
        write_ranked_lists_json(lists, path)
        assert path.read_bytes() == dumps_ranked_lists(lists).encode("utf-8")

    @pytest.mark.parametrize(
        "ranked",
        [
            RankedList(7, ((("a", 1), 0.5), (None, 0.25), (2.5, 0)), skipped=None),
            RankedList({"z": [1, {"é": "\n"}], "a": []}, ((True, math.inf),), skipped=[0, {}]),
        ],
        ids=["int-and-tuple-ids", "nested-containers"],
    )
    def test_ranked_lists_json_other_types_through_json_dumps(self, tmp_path, ranked):
        path = tmp_path / "ranked.json"
        write_ranked_lists_json([ranked], path)
        assert path.read_bytes() == dumps_ranked_lists([ranked]).encode("utf-8")

    def test_ranked_lists_json_unencodable_value_raises_before_writing(self, tmp_path):
        ranked = RankedList("q", (("t", np.float64(-0.0)),), skipped=np.bool_(False))
        with pytest.raises(TypeError):
            dumps_ranked_lists([ranked])
        path = tmp_path / "ranked.json"
        with pytest.raises(TypeError):
            write_ranked_lists_json([ranked], path)
        assert not path.exists()

    def test_ranked_lists_json_deterministic(self, tmp_path):
        lists, _ = _lists_with_gold_ranks([1, 2])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_ranked_lists_json(lists, a)
        write_ranked_lists_json(lists, b)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text(encoding="utf-8"))
        assert payload["queries"][0]["query_id"] == "q0"

    def test_alignment_tsv_format(self, tmp_path):
        pairs = [AlignmentPair("e1", "a1", 0.654321, "2012-01"),
                 AlignmentPair("e2", "a2", 0.5, None)]
        path = tmp_path / "pairs.tsv"
        write_alignment_tsv(pairs, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "e1\ta1\t0.654321\t2012-01"
        assert lines[1] == "e2\ta2\t0.500000\t"

    def test_report_files(self, tmp_path):
        pairs = [AlignmentPair("e", "a", 0.55, "m"), AlignmentPair("f", "b", 0.75, "m")]
        report = alignment_report(pairs, gold={"e": "a", "f": "x"})
        write_report_json(report, tmp_path / "r.json")
        write_histogram_csv(report, tmp_path / "h.csv")
        write_ranges_csv(report, tmp_path / "g.csv")
        payload = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert payload["accuracy"] == 0.5
        hist_lines = (tmp_path / "h.csv").read_text(encoding="utf-8").splitlines()
        assert hist_lines[0] == "bin,count"
        assert len(hist_lines) == 9  # header + 6 core bins + 2 open bins
        ranges_lines = (tmp_path / "g.csv").read_text(encoding="utf-8").splitlines()
        assert ranges_lines[1] == "m,0.550000,0.750000"
