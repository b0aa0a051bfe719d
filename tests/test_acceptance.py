"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines.
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import subspace_angles

from measure_oracles import (
    brute_bin_symmetric,
    brute_dict_cosine,
    brute_matching_rate,
    brute_oov,
    random_toy_pair,
)
from xling.bidict import BilingualDictionary, bin_symmetric, dict_cosine, matching_rate, oov_rate
from xling.cli import main
from xling.corpus import save_aligned_corpus, split_corpus
from xling.lsi import build_cross_matrix, project, train
from xling.retrieval import (
    RankedList,
    align_corpora,
    alignment_report,
    gold_mapping,
    recall_at_k,
    retrieve_cl_lsi,
    write_histogram_csv,
    write_ranges_csv,
)
from xling.synthetic import (
    SyntheticSpec,
    add_target_noise,
    make_dictionary,
    make_grouped_documents,
    make_parallel_corpus,
)
from xling.textprep import tokenize
from xling.vsm import TermDocMatrix, Vocabulary, build_vocabulary

# Frozen experiment parameters (calibrated once, then pinned).
RETRIEVAL_SPEC = SyntheticSpec(
    n_topics=20,
    words_per_topic=6,
    common_words=6,
    common_fraction=0.45,
    doc_length=(150, 250),
    topic_alpha=0.005,
)
ALIGN_SPEC = SyntheticSpec(
    n_topics=20,
    words_per_topic=80,
    common_words=10,
    common_fraction=0.08,
    doc_length=(300, 500),
    topic_alpha=0.3,
)
CORPUS_SEED = 7
DICTIONARY_SEED = 3
SVD_SEED = 42


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _tokens(docs):
    return [tokenize(d.text) for d in docs]


# --------------------------------------------------------------------------
# Criterion 1: oracle replication through the CLI
# --------------------------------------------------------------------------


def test_criterion_1_oracle_replication(tmp_path, capsys):
    corpus = make_parallel_corpus(100, RETRIEVAL_SPEC, seed=17)
    texts = [d.text for d in corpus.target_docs]
    assert len(set(texts)) == len(texts), "fixture must be duplicate-free"
    corpus_path = tmp_path / "oracle.jsonl"
    save_aligned_corpus(corpus, corpus_path)
    model_path = tmp_path / "oracle.xlsm"
    rc = main(
        [
            "train", "--corpus", str(corpus_path), "--kind", "cross", "--k", "20",
            "--no-split", "--output", str(model_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()

    start = time.monotonic()
    rc = main(["eval", "--model", str(model_path), "--corpus", str(corpus_path), "--oracle"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    ok = rc == 0 and "R@1 1.0" in out and elapsed < 5.0
    _verdict("1 oracle-replication", ok, f"exit={rc}, output={out.strip()!r}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# Criterion 2: synthetic cipher experiment (CL-LSI vs dictionary measures)
# --------------------------------------------------------------------------


class CipherExperiment:
    def __init__(self):
        start = time.monotonic()
        corpus = make_parallel_corpus(500, RETRIEVAL_SPEC, seed=CORPUS_SEED)
        self.train_part, self.test_part = split_corpus(corpus, 0.9, seed=CORPUS_SEED)
        self.gold = gold_mapping(self.test_part)
        src = _tokens(self.train_part.source_docs)
        tgt = _tokens(self.train_part.target_docs)
        self.matrix = build_cross_matrix(src, tgt)

        def run(svd_seed: int):
            model = train(self.matrix, 50, seed=svd_seed)
            ranked = retrieve_cl_lsi(
                self.test_part.source_docs, self.test_part.target_docs, model, 5
            )
            return model, ranked

        self.model, ranked = run(SVD_SEED)
        self.r_at_1 = recall_at_k(ranked, self.gold, 1)
        self.r_at_5 = recall_at_k(ranked, self.gold, 5)

        self.rerun_r1 = []
        for seed in (1, 2, 3, 4, 5):
            _, rr = run(seed)
            self.rerun_r1.append(recall_at_k(rr, self.gold, 1))

        noisy = add_target_noise(self.test_part, 0.5, RETRIEVAL_SPEC, seed=CORPUS_SEED + 1)
        ranked_noisy = retrieve_cl_lsi(
            noisy.source_docs, noisy.target_docs, self.model, 5
        )
        self.noisy_r_at_1 = recall_at_k(ranked_noisy, self.gold, 1)
        self.elapsed = time.monotonic() - start


@pytest.fixture(scope="module")
def cipher_experiment():
    return CipherExperiment()


def test_criterion_2a_cipher_recall(cipher_experiment):
    exp = cipher_experiment
    median = statistics.median(exp.rerun_r1)
    ok = (
        exp.r_at_1 >= 0.90
        and exp.r_at_5 >= 0.98
        and abs(median - exp.r_at_1) <= 0.02
        and exp.elapsed < 60.0
    )
    _verdict(
        "2a cipher-recall",
        ok,
        f"R@1={exp.r_at_1:.3f} R@5={exp.r_at_5:.3f} "
        f"median-of-5={median:.3f} runtime={exp.elapsed:.1f}s",
    )


def _dictionary_ranked(score_fn, test_part, src_tokens, tgt_tokens, n=5):
    out = []
    for i, query in enumerate(src_tokens):
        sims = [
            (test_part.target_docs[j].id, score_fn(query, tgt_tokens[j]))
            for j in range(len(tgt_tokens))
        ]
        sims.sort(key=lambda item: (-item[1], item[0]))
        out.append(RankedList(test_part.source_docs[i].id, tuple(sims[:n])))
    return out


def test_criterion_2b_dictionary_measure_ordering(cipher_experiment):
    exp = cipher_experiment
    dictionary = make_dictionary(RETRIEVAL_SPEC, coverage=0.6, seed=DICTIONARY_SEED)
    src_tokens = _tokens(exp.test_part.source_docs)
    tgt_tokens = _tokens(exp.test_part.target_docs)
    stats_s = build_vocabulary(src_tokens)
    stats_t = build_vocabulary(tgt_tokens)
    bin_ranked = _dictionary_ranked(
        lambda a, b: bin_symmetric(a, b, dictionary), exp.test_part, src_tokens, tgt_tokens
    )
    cos_ranked = _dictionary_ranked(
        lambda a, b: dict_cosine(a, b, dictionary, stats_s, stats_t),
        exp.test_part,
        src_tokens,
        tgt_tokens,
    )
    bin_r5 = recall_at_k(bin_ranked, exp.gold, 5)
    cos_r5 = recall_at_k(cos_ranked, exp.gold, 5)
    ok = cos_r5 > bin_r5
    _verdict(
        "2b dict-cos-beats-dict-bin",
        ok,
        f"Dict-cos R@5={cos_r5:.3f} > Dict-bin R@5={bin_r5:.3f} (strict)",
    )


def test_criterion_2c_noise_degradation(cipher_experiment):
    exp = cipher_experiment
    drop = exp.r_at_1 - exp.noisy_r_at_1
    ok = drop >= 0.1
    _verdict(
        "2c noise-degradation",
        ok,
        f"clean R@1={exp.r_at_1:.3f}, 50%-noise R@1={exp.noisy_r_at_1:.3f}, drop={drop:.3f}",
    )


# --------------------------------------------------------------------------
# Criterion 3: truncated SVD against a dense full-SVD oracle
# --------------------------------------------------------------------------


def _wrap(matrix: sp.csc_matrix) -> TermDocMatrix:
    n_terms, n_docs = matrix.shape
    vocab = Vocabulary([f"t{i:04d}" for i in range(n_terms)], [1] * n_terms, n_docs)
    return TermDocMatrix(matrix, vocab)


def _exact_rank_matrix(rng, m, n, r):
    left = sp.random(m, r, density=0.5, random_state=rng,
                     data_rvs=rng.standard_normal, format="csr")
    right = sp.random(r, n, density=0.5, random_state=rng,
                      data_rvs=rng.standard_normal, format="csr")
    return (left @ right).tocsc()


def _gapped_spectrum_matrix(rng, m, n, k):
    # Orthogonal factors preserve the planted spectrum; a 100x drop after
    # position k keeps the retained subspace well separated.
    q_m, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q_n, _ = np.linalg.qr(rng.standard_normal((n, n)))
    r = min(m, n)
    spectrum = np.array([2.0 ** (-0.3 * i) for i in range(r)])
    spectrum[k:] *= 1e-2
    dense = (q_m[:, :r] * spectrum) @ q_n[:r, :]
    return sp.csc_matrix(dense), spectrum


def test_criterion_3_svd_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst_sigma = 0.0
    worst_angle = 0.0
    for i in range(30):
        m = int(rng.integers(60, 201))
        n = int(rng.integers(50, 151))
        if i % 2 == 0:
            r = int(rng.integers(4, 13))
            matrix = _exact_rank_matrix(rng, m, n, r)
            k = r
        else:
            k = 10
            matrix, _ = _gapped_spectrum_matrix(rng, m, n, k)
        model = train(_wrap(matrix), k=k, seed=SVD_SEED + i)
        dense = matrix.toarray()
        u_true, s_true, _ = np.linalg.svd(dense, full_matrices=False)
        kept = model.k
        rel = np.max(np.abs(model.s - s_true[:kept]) / s_true[:kept])
        worst_sigma = max(worst_sigma, float(rel))
        angles = subspace_angles(model.u, u_true[:, :kept])
        worst_angle = max(worst_angle, float(np.max(angles)))
    elapsed = time.monotonic() - start
    ok = worst_sigma < 1e-6 and worst_angle < 1e-4 and elapsed < 30.0
    _verdict(
        "3 svd-oracle",
        ok,
        f"30 matrices: worst sigma rel-err={worst_sigma:.2e}, "
        f"worst principal angle={worst_angle:.2e} rad, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# Criterion 4: fold-in identity on a 100-couple model
# --------------------------------------------------------------------------


def test_criterion_4_fold_in_identity():
    corpus = make_parallel_corpus(100, RETRIEVAL_SPEC, seed=29)
    matrix = build_cross_matrix(_tokens(corpus.source_docs), _tokens(corpus.target_docs))
    model = train(matrix, 30, seed=SVD_SEED)
    worst = 0.0
    for j in range(matrix.n_docs):
        deviation = np.max(np.abs(project(matrix.column(j), model) - model.v[j]))
        worst = max(worst, float(deviation))
    ok = worst < 1e-5
    _verdict("4 fold-in-identity", ok, f"max |project(col j) - V[j]| = {worst:.2e} over 100 columns")


# --------------------------------------------------------------------------
# Criterion 5: measure implementations against brute-force oracles
# --------------------------------------------------------------------------


def test_criterion_5_measure_oracles():
    rng = np.random.default_rng(1234)
    exact = 0
    cosine_worst = 0.0
    n_pairs = 1000
    for _ in range(n_pairs):
        d_s, d_t, synsets = random_toy_pair(rng)
        dictionary = BilingualDictionary(synsets)
        agree = (
            bin_symmetric(d_s, d_t, dictionary) == brute_bin_symmetric(d_s, d_t, dictionary.synsets)
            and oov_rate(d_s, d_t, dictionary) == brute_oov(d_s, d_t, dictionary.synsets)
            and matching_rate(d_s, d_t, dictionary)
            == brute_matching_rate(d_s, d_t, dictionary.synsets)
        )
        exact += agree
        stats_s = build_vocabulary([d_s, d_s[: max(1, len(d_s) // 2)]])
        stats_t = build_vocabulary([d_t, d_t[: max(1, len(d_t) // 2)]])
        got = dict_cosine(d_s, d_t, dictionary, stats_s, stats_t)
        want = brute_dict_cosine(d_s, d_t, dictionary.synsets, stats_s, stats_t)
        cosine_worst = max(cosine_worst, abs(got - want))
    ok = exact == n_pairs and cosine_worst <= 1e-12
    _verdict(
        "5 measure-oracles",
        ok,
        f"{exact}/{n_pairs} exact bin/oov/match agreements, "
        f"dict-cos max |delta|={cosine_worst:.1e}",
    )


# --------------------------------------------------------------------------
# Criterion 6: planted-pair alignment pipeline
# --------------------------------------------------------------------------


def test_criterion_6_alignment_pipeline(tmp_path):
    train_corpus = make_parallel_corpus(600, ALIGN_SPEC, seed=99)
    matrix = build_cross_matrix(
        _tokens(train_corpus.source_docs), _tokens(train_corpus.target_docs)
    )
    model = train(matrix, 20, seed=SVD_SEED)
    source_docs, target_docs, gold = make_grouped_documents(24, 15, 35, ALIGN_SPEC, seed=5)
    pairs = align_corpora(source_docs, target_docs, model, top_n=15, group_by="month")
    report = alignment_report(pairs, gold=gold)

    write_histogram_csv(report, tmp_path / "histogram.csv")
    write_ranges_csv(report, tmp_path / "ranges.csv")
    hist_rows = (tmp_path / "histogram.csv").read_text(encoding="utf-8").splitlines()
    range_rows = (tmp_path / "ranges.csv").read_text(encoding="utf-8").splitlines()
    core_bins = [f"[{lo / 10},{(lo + 1) / 10})" for lo in range(3, 9)]
    emits_report = (
        len(pairs) == 24 * 15
        and len(report.sim_ranges) == 24
        and all(label in report.histogram for label in core_bins)
        and len(hist_rows) == 9
        and len(range_rows) == 25
    )
    ok = report.accuracy is not None and report.accuracy >= 0.80 and emits_report
    _verdict(
        "6 alignment-pipeline",
        ok,
        f"top-15 accuracy={report.accuracy:.3f} over {len(pairs)} pairs "
        f"(threshold 0.85 - 0.05), report emitted={emits_report}",
    )


# --------------------------------------------------------------------------
# Criterion 7: byte-identical reruns
# --------------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    corpus = make_parallel_corpus(40, SyntheticSpec(), seed=3)
    corpus_path = tmp_path / "c.jsonl"
    save_aligned_corpus(corpus, corpus_path)
    snapshots = []
    for run in ("r1", "r2"):
        base = tmp_path / run
        base.mkdir()
        model_path = base / "m.xlsm"
        assert main(
            [
                "train", "--corpus", str(corpus_path), "--kind", "cross", "--k", "10",
                "--seed", "42", "--output", str(model_path),
            ]
        ) == 0
        ranked_path = base / "ranked.json"
        assert main(
            [
                "retrieve", "--model", str(model_path),
                "--corpus", str(model_path) + ".test.jsonl",
                "--n", "5", "--output", str(ranked_path),
            ]
        ) == 0
        pairs_path = base / "pairs.tsv"
        assert main(
            [
                "align", "--model", str(model_path), "--corpus", str(corpus_path),
                "--top-n", "15", "--output", str(pairs_path),
            ]
        ) == 0
        snapshots.append(
            {
                "model": model_path.read_bytes(),
                "test_split": Path(str(model_path) + ".test.jsonl").read_bytes(),
                "ranked": ranked_path.read_bytes(),
                "pairs": pairs_path.read_bytes(),
            }
        )
    same = {key for key in snapshots[0] if snapshots[0][key] == snapshots[1][key]}
    ok = same == set(snapshots[0])
    _verdict("7 determinism", ok, f"byte-identical artifacts: {sorted(same)}")


# --------------------------------------------------------------------------
# Criterion 8: parser golden suite
# --------------------------------------------------------------------------


def test_criterion_8_parser_golden_suite():
    from xling.wikitext import parse_interlanguage_links, strip_wiki_markup

    golden = Path(__file__).parent / "data" / "wikitext_golden.jsonl"
    cases = [json.loads(line) for line in golden.read_text(encoding="utf-8").splitlines()]
    nested = sum(1 for c in cases if "{{" in c["input"] and c["input"].count("{{") > 1)
    namespaced = sum(1 for c in cases if ":" in c["input"])
    failures = []
    for case in cases:
        if case["kind"] == "links":
            got = [list(pair) for pair in parse_interlanguage_links(case["input"])]
        else:
            got = strip_wiki_markup(case["input"])
        if got != case["expected"]:
            failures.append(case["name"])
    ok = len(cases) >= 20 and nested >= 1 and namespaced >= 3 and not failures
    _verdict(
        "8 parser-golden-suite",
        ok,
        f"{len(cases) - len(failures)}/{len(cases)} cases pass"
        + (f", failing: {failures}" if failures else ""),
    )
