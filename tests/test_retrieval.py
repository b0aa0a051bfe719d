import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from measure_oracles import brute_retrieve

from xling.bidict import BilingualDictionary
from xling.corpus import Document
from xling.errors import (
    EmptyCandidatesError,
    MalformedRecordError,
    MissingGoldError,
    SelfTestError,
    TranslationError,
)
from xling.lsi import build_cross_matrix, build_mono_matrix, fold_in, train
from xling.retrieval import (
    AlignmentPair,
    DictionaryProvider,
    Embeddings,
    FileCacheProvider,
    IdentityProvider,
    RankedList,
    align_corpora,
    alignment_report,
    embed_crosslingual,
    embed_documents,
    evaluate_retrieval,
    gold_mapping,
    oracle_experiment,
    recall_at_k,
    retrieve,
    retrieve_ar_lsi,
    retrieve_cl_lsi,
    write_alignment_tsv,
    write_histogram_csv,
    write_ranked_lists_json,
    write_ranges_csv,
    write_report_json,
)
from xling.synthetic import SyntheticSpec, make_parallel_corpus
from xling.textprep import tokenize


def _tokens(docs):
    return [tokenize(d.text) for d in docs]


def _embeddings(candidates: dict) -> Embeddings:
    return Embeddings(list(candidates), list(candidates.values()))


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
                retrieve(np.ones(3), emb, 1)

    def test_row_count_must_match_ids(self):
        with pytest.raises(ValueError, match="2 ids for 3 vectors"):
            Embeddings(["a", "b"], np.ones((3, 2)))


class TestRetrieve:
    def test_query_equal_to_candidate_ranks_first(self):
        rng = np.random.default_rng(0)
        candidates = {f"c{i}": rng.normal(size=4) for i in range(6)}
        query = candidates["c3"].copy()
        ranked = retrieve(query, _embeddings(candidates), 3, query_id="q")
        assert ranked.entries[0][0] == "c3"
        assert ranked.entries[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_n_larger_than_candidates_returns_full_ranking(self):
        candidates = {"a": np.ones(3), "b": np.arange(3.0)}
        ranked = retrieve(np.ones(3), _embeddings(candidates), 10)
        assert len(ranked.entries) == 2

    @pytest.mark.parametrize("pool_size", [20, 200])
    def test_matches_exhaustive_sort_oracle(self, pool_size):
        rng = np.random.default_rng(7)
        for _ in range(10):
            candidates = {f"c{i:03d}": rng.normal(size=6) for i in range(pool_size)}
            query = rng.normal(size=6)
            expected = brute_retrieve(query, candidates, 5)
            ranked = retrieve(query, _embeddings(candidates), 5)
            assert [cid for cid, _ in ranked.entries] == [cid for cid, _ in expected]
            for (_, got), (_, want) in zip(ranked.entries, expected):
                assert got == pytest.approx(want, abs=1e-12)

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidatesError):
            retrieve(np.ones(2), Embeddings([], []), 1)

    def test_tie_break_ascending_id(self):
        vec = np.ones(2)
        candidates = {"b": vec, "a": vec.copy(), "c": vec.copy()}
        ranked = retrieve(vec, _embeddings(candidates), 3)
        assert [cid for cid, _ in ranked.entries] == ["a", "b", "c"]

    def test_order_independence(self):
        rng = np.random.default_rng(1)
        vecs = [(f"c{i}", rng.normal(size=4)) for i in range(10)]
        query = rng.normal(size=4)
        forward = retrieve(query, _embeddings(dict(vecs)), 4)
        backward = retrieve(query, _embeddings(dict(reversed(vecs))), 4)
        assert forward == backward

    @settings(max_examples=40, deadline=None)
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

        got = retrieve(query, _embeddings(candidates), n).entries
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

        full = retrieve(query, _embeddings(candidates), len(candidates)).entries
        sim_of = dict(full)
        rank_of = {cid: r for r, (cid, _) in enumerate(full)}
        groups: dict[bytes, list[str]] = {}
        for cid in sorted(candidates):
            groups.setdefault(candidates[cid].tobytes(), []).append(cid)
        for group in groups.values():
            assert len({sim_of[cid] for cid in group}) == 1  # bit-identical
            ranks = [rank_of[cid] for cid in group]
            assert ranks == sorted(ranks)


class TestRankedList:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            RankedList("q", (("a", 0.5), ("b", 0.9)))
        with pytest.raises(ValueError):
            RankedList("q", (("b", 0.5), ("a", 0.5)))  # tie must ascend by id


class TestProviders:
    def test_identity_keeps_text(self):
        doc = Document("d", "en", "same text")
        out = IdentityProvider().translate(doc, "ar")
        assert out.text == "same text"
        assert out.language == "ar"

    def test_dictionary_word_for_word_deterministic_choice(self):
        d = BilingualDictionary([(("oil",), ("zayt", "duhn")), (("good",), ("jayid",))])
        provider = DictionaryProvider(d)
        out = provider.translate(Document("d", "en", "Good oil, good!"), "ar")
        # smallest translation lexicographically; OOV words pass through
        assert out.text == "jayid duhn jayid"

    def test_file_cache_lookup_and_miss(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"id": "d1", "text": "cached"}) + "\n", encoding="utf-8")
        provider = FileCacheProvider(path)
        assert provider.translate(Document("d1", "en", "x"), "ar").text == "cached"
        with pytest.raises(TranslationError):
            provider.translate(Document("d2", "en", "x"), "ar")

    @pytest.mark.parametrize(
        "line", ['{"id": "x"}', "[1, 2]", '{"id": "x", "text": 5}', "not json"]
    )
    def test_file_cache_malformed_line_names_it(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            json.dumps({"id": "d1", "text": "cached"}) + "\n\n" + line + "\n", encoding="utf-8"
        )
        with pytest.raises(MalformedRecordError) as err:
            FileCacheProvider(path)
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
        ranked = retrieve_ar_lsi(queries, targets, model, IdentityProvider(), 1)
        hits = sum(1 for i, rl in enumerate(ranked) if rl.entries[0][0] == targets[i].id)
        assert hits == len(targets)

    def test_empty_queries(self):
        targets = _target_docs()
        model = _mono_model(targets)
        assert retrieve_ar_lsi([], targets, model, IdentityProvider(), 3) == []

    def test_provider_failure_marks_query_skipped(self, tmp_path):
        targets = _target_docs()
        model = _mono_model(targets)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            json.dumps({"id": "q0", "text": targets[0].text}) + "\n", encoding="utf-8"
        )
        provider = FileCacheProvider(cache)
        queries = [Document("q0", "en", "x"), Document("q1", "en", "y")]
        with pytest.warns(UserWarning, match="skipped"):
            ranked = retrieve_ar_lsi(queries, targets, model, provider, 2)
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
            ranked = retrieve_ar_lsi(queries, targets, model, FileCacheProvider(cache), 3)
        candidates = Embeddings(
            [d.id for d in targets], [fold_in(tokenize(d.text), model) for d in targets]
        )
        assert [rl.skipped for rl in ranked] == [False, True, False, False, False]
        for rl, text in zip(ranked, [targets[0].text, None, targets[2].text,
                                     targets[3].text, ""]):
            if text is not None:
                expected = retrieve(fold_in(tokenize(text), model), candidates, 3,
                                    query_id=rl.query_id)
                assert rl == expected

    def test_all_skipped_with_no_candidates(self, tmp_path):
        model = _mono_model(_target_docs())
        cache = tmp_path / "cache.jsonl"
        cache.write_text("", encoding="utf-8")
        with pytest.warns(UserWarning, match="skipped"):
            ranked = retrieve_ar_lsi([Document("q0", "en", "x")], [], model,
                                     FileCacheProvider(cache), 2)
        assert ranked == [RankedList("q0", (), skipped=True)]
        with pytest.raises(EmptyCandidatesError):
            retrieve_ar_lsi([Document("q0", "en", "x")], [], model, IdentityProvider(), 2)

    def test_wrong_model_kind_rejected(self, tmp_path):
        spec = SyntheticSpec(n_topics=3, words_per_topic=10, common_words=4,
                             doc_length=(20, 30), topic_alpha=0.3)
        corpus = make_parallel_corpus(6, spec, seed=2)
        cross = _cross_model(corpus, k=3)
        with pytest.raises(ValueError):
            retrieve_ar_lsi(corpus.source_docs, corpus.target_docs, cross,
                            IdentityProvider(), 1)


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
            [
                embed_crosslingual(tokenize(d.text), "target", model)
                for d in corpus.target_docs
            ],
        )
        for doc, rl in zip(corpus.source_docs, ranked):
            direct = retrieve(
                embed_crosslingual(tokenize(doc.text), "source", model),
                candidates,
                4,
                query_id=doc.id,
            )
            assert direct == rl


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

    def test_gold_pairs_dominate(self):
        corpus, source, target = self._grouped_corpus()
        model = _cross_model(corpus)
        pairs = align_corpora(source, target, model, top_n=4, group_by="month")
        gold = gold_mapping(corpus)
        correct = sum(1 for p in pairs if gold[p.source_id] == p.target_id)
        assert correct == len(pairs)


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


class TestWriters:
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
