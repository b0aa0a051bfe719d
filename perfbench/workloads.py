"""The three workloads: seeded inputs, the timed CLI commands, output checks.

Only ``make_inputs`` sees the workload seed; the program sees the files it
writes. Sizes are one step below the ROADMAP re-anchor corpus so that a
run of a couple of dozen seconds holds five or more repetitions of every
timed command; the README records the probe sizes they replace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("train-cross", "query-cross", "score-dict")

# train-cross: the write path (textprep, matrix build, randomized SVD, save).
TRAIN_COUPLES = 1000
TRAIN_TOPICS, TRAIN_WORDS = 200, 40
TRAIN_K = 300

# query-cross: the read path (load, fold-in, ranking, alignment, writers).
QUERY_COUPLES = 800
QUERY_TRAIN_FRACTION = 0.6  # 320 held-out queries, 102,400 scored pairs
QUERY_TOPICS, QUERY_WORDS = 100, 30
QUERY_NOISE = 0.5
QUERY_K = 200
GROUPS, PLANTED, DISTRACTORS = 10, 20, 40  # 10 buckets of 60 documents per side
GROUP_ALPHA = 0.05
TOP_N = 15

# score-dict: dictionary measures with word reducers on, no LSI.
SCORE_COUPLES = 150
SCORE_TOPICS, SCORE_WORDS = 200, 40  # 8,012 source words; 6,410 synsets at 80%
SCORE_NOISE = 0.2
DICT_COVERAGE = 0.8
MERGED_SHARE = 0.1  # share of synsets merged into groups of 2-3 terms per side
REDUCERS = ("--reducer-source", "suffix_stemmer", "--reducer-target", "light_stemmer")

# Quality floors: far above chance (5 in 320 for recall@5, 1 in 60 for an
# aligned bucket) and below every seed probed, so only a broken ranking or
# fold-in trips them.
MIN_RECALL_AT_1 = 0.5
MIN_RECALL_AT_5 = 0.7
MIN_ALIGN_ACCURACY = 0.35


@dataclass(frozen=True)
class Command:
    label: str  # the table prints ``<label>_s`` (raw) and ``<label>_ref`` (normalized)
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files that must be byte-identical on every repetition


def run_cli(argv) -> tuple[int, str, str]:
    """``xling.cli.main(argv)`` with its stdout and stderr captured."""
    from xling import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def file_hashes(paths) -> dict[str, str]:
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def input_hashes(workdir: Path) -> dict[str, str]:
    """Every set-up file except run manifests, which carry a timestamp."""
    files = sorted(p for p in (workdir / "in").iterdir() if not p.name.endswith(".manifest.json"))
    return file_hashes(files)


def _seeds(seed: int, n: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def make_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Generate the workload's inputs under ``workdir/in``."""
    from xling import corpus, synthetic
    from xling.synthetic import SyntheticSpec

    inp = workdir / "in"
    inp.mkdir(parents=True, exist_ok=True)
    if workload == "train-cross":
        (s,) = _seeds(seed, 1)
        spec = SyntheticSpec(n_topics=TRAIN_TOPICS, words_per_topic=TRAIN_WORDS)
        corpus.save_aligned_corpus(
            synthetic.make_parallel_corpus(TRAIN_COUPLES, spec, seed=s), inp / "corpus.jsonl"
        )
    elif workload == "query-cross":
        s_corpus, s_noise, s_groups = _seeds(seed, 3)
        spec = SyntheticSpec(n_topics=QUERY_TOPICS, words_per_topic=QUERY_WORDS)
        pairs = synthetic.make_parallel_corpus(QUERY_COUPLES, spec, seed=s_corpus)
        pairs = synthetic.add_target_noise(pairs, QUERY_NOISE, spec, seed=s_noise)
        corpus.save_aligned_corpus(pairs, inp / "corpus.jsonl")
        group_spec = SyntheticSpec(
            n_topics=QUERY_TOPICS, words_per_topic=QUERY_WORDS, topic_alpha=GROUP_ALPHA
        )
        source, target, gold = synthetic.make_grouped_documents(
            GROUPS, PLANTED, DISTRACTORS, group_spec, seed=s_groups
        )
        corpus.save_documents(source, inp / "source_docs.jsonl")
        corpus.save_documents(target, inp / "target_docs.jsonl")
        (inp / "gold.tsv").write_text(
            "".join(f"{s}\t{t}\n" for s, t in sorted(gold.items())), encoding="utf-8"
        )
        rc, _, err = run_cli([
            "train", "--corpus", str(inp / "corpus.jsonl"), "--kind", "cross",
            "--k", str(QUERY_K), "--train-fraction", str(QUERY_TRAIN_FRACTION),
            "--output", str(inp / "model.xlsm"),
        ])
        if rc != 0:
            raise RuntimeError(f"set-up train exited {rc}: {err.strip()}")
    elif workload == "score-dict":
        s_corpus, s_noise, s_dict, s_merge = _seeds(seed, 4)
        spec = SyntheticSpec(n_topics=SCORE_TOPICS, words_per_topic=SCORE_WORDS)
        pairs = synthetic.make_comparable_corpus(SCORE_COUPLES, spec, seed=s_corpus)
        pairs = synthetic.add_target_noise(pairs, SCORE_NOISE, spec, seed=s_noise)
        corpus.save_aligned_corpus(pairs, inp / "corpus.jsonl")
        dictionary = synthetic.make_dictionary(spec, coverage=DICT_COVERAGE, seed=s_dict)
        (inp / "dictionary.tsv").write_text(
            _merged_dictionary(dictionary.synsets, s_merge), encoding="utf-8"
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _merged_dictionary(synsets, seed: int) -> str:
    """Dictionary file where a share of the synsets carry 2-3 terms a side.

    Merged synsets give a word several candidate translations, so the
    matching measure has to augment instead of pairing greedily.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(synsets))
    n_merged = int(MERGED_SHARE * len(synsets))
    lines, i = [], 0
    while i < n_merged:
        size = int(rng.integers(2, 4))
        group = [synsets[j] for j in order[i : i + size]]
        lines.append((sorted(set().union(*(s for s, _ in group))),
                      sorted(set().union(*(t for _, t in group)))))
        i += size
    lines.extend((sorted(synsets[j][0]), sorted(synsets[j][1])) for j in order[n_merged:])
    return "".join(f"{'|'.join(s)}\t{'|'.join(t)}\n" for s, t in sorted(lines))


def commands(workload: str, workdir: Path) -> list[Command]:
    inp, out = workdir / "in", workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    if workload == "train-cross":
        model = out / "model.xlsm"
        return [Command(
            "train",
            ("train", "--corpus", str(inp / "corpus.jsonl"), "--kind", "cross",
             "--k", str(TRAIN_K), "--output", str(model)),
            (str(model), str(model) + ".test.jsonl"),
        )]
    if workload == "query-cross":
        model, held_out = str(inp / "model.xlsm"), str(inp / "model.xlsm.test.jsonl")
        align_outputs = [str(out / n) for n in
                         ("aligned.tsv", "report.json", "histogram.csv", "ranges.csv")]
        return [
            Command(
                "retrieve",
                ("retrieve", "--model", model, "--corpus", held_out, "--n", "5",
                 "--output", str(out / "ranked.json"), "--tsv", str(out / "ranked.tsv")),
                (str(out / "ranked.json"), str(out / "ranked.tsv")),
            ),
            Command("oracle", ("eval", "--model", model, "--corpus", held_out, "--oracle"), ()),
            Command(
                "align",
                ("align", "--model", model,
                 "--source-docs", str(inp / "source_docs.jsonl"),
                 "--target-docs", str(inp / "target_docs.jsonl"),
                 "--group-by", "month", "--top-n", str(TOP_N), "--mutual-best",
                 "--output", align_outputs[0], "--report", align_outputs[1],
                 "--histogram-csv", align_outputs[2], "--ranges-csv", align_outputs[3]),
                tuple(align_outputs),
            ),
        ]
    if workload == "score-dict":
        return [
            Command(
                f"score_{measure}",
                ("score", "--corpus", str(inp / "corpus.jsonl"),
                 "--dictionary", str(inp / "dictionary.tsv"), "--measure", measure,
                 *REDUCERS, "--output", str(out / f"{measure}.tsv")),
                (str(out / f"{measure}.tsv"),),
            )
            for measure in ("bincos", "match")
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# Output checks: each returns (quality metrics, list of problems found)
# --------------------------------------------------------------------------


def _read_pairs(path: Path) -> list[tuple[str, str]]:
    with path.open(encoding="utf-8") as fh:
        return [(r["src_id"], r["tgt_id"]) for r in map(json.loads, fh)]


def check_outputs(workload: str, workdir: Path, stdout: dict[str, str]):
    inp, out = workdir / "in", workdir / "out"
    if workload == "train-cross":
        return _check_train(inp, out)
    if workload == "query-cross":
        return _check_query(inp, out, stdout)
    return _check_scores(inp, out)


def _check_train(inp: Path, out: Path):
    import numpy as np
    from xling import lsi

    problems = []
    model = lsi.load_model(out / "model.xlsm")
    n_train = int(round(0.9 * TRAIN_COUPLES))
    if model.kind != "crosslingual" or model.k != TRAIN_K or model.n_docs != n_train:
        problems.append(f"model is {model.kind} k={model.k} d={model.n_docs}, "
                        f"expected crosslingual k={TRAIN_K} d={n_train}")
    drift = float(np.abs(model.u.T @ model.u - np.eye(model.k)).max())
    if drift > 1e-8:
        problems.append(f"U columns are not orthonormal (max |U'U - I| = {drift:.2e})")
    held_out = len(_read_pairs(out / "model.xlsm.test.jsonl"))
    if held_out != TRAIN_COUPLES - n_train:
        problems.append(f"{held_out} held-out couples, expected {TRAIN_COUPLES - n_train}")
    return {}, problems


def _check_query(inp: Path, out: Path, stdout: dict[str, str]):
    problems = []
    gold = dict(_read_pairs(inp / "model.xlsm.test.jsonl"))
    queries = json.loads((out / "ranked.json").read_text(encoding="utf-8"))["queries"]
    if sorted(q["query_id"] for q in queries) != sorted(gold):
        problems.append("ranked lists do not cover the held-out queries exactly")
    hits1 = hits5 = 0
    tsv_rows = []
    for q in queries:
        ids = [cid for cid, _ in q["entries"]]
        sims = [sim for _, sim in q["entries"]]
        if q["skipped"] or len(ids) != 5 or any(a < b for a, b in zip(sims, sims[1:])):
            problems.append(f"query {q['query_id']}: malformed ranked list")
        hits1 += ids[:1] == [gold.get(q["query_id"])]
        hits5 += gold.get(q["query_id"]) in ids
        tsv_rows += [f"{q['query_id']}\t{r}\t{cid}\t{sim:.6f}"
                     for r, (cid, sim) in enumerate(q["entries"], start=1)]
    if (out / "ranked.tsv").read_text(encoding="utf-8").splitlines() != tsv_rows:
        problems.append("ranked TSV disagrees with the ranked JSON")
    oracle = stdout.get("oracle", "").strip()
    if oracle != "R@1 1.0":
        problems.append(f"eval --oracle printed {oracle!r}, not 'R@1 1.0'")

    planted = dict(line.split("\t") for line in
                   (inp / "gold.tsv").read_text(encoding="utf-8").splitlines())
    rows = [line.split("\t") for line in
            (out / "aligned.tsv").read_text(encoding="utf-8").splitlines()]
    per_group: dict[str, int] = {}
    for _, _, _, group in rows:
        per_group[group] = per_group.get(group, 0) + 1
    if not rows or max(per_group.values()) > TOP_N or len(per_group) != GROUPS:
        problems.append(f"aligned TSV has {len(rows)} rows over {len(per_group)} groups")
    correct = sum(planted.get(src) == tgt for src, tgt, _, _ in rows)
    quality = {
        "recall_at_1": hits1 / max(len(queries), 1),
        "recall_at_5": hits5 / max(len(queries), 1),
        "align_accuracy": correct / max(len(rows), 1),
    }
    for name, floor in (("recall_at_1", MIN_RECALL_AT_1), ("recall_at_5", MIN_RECALL_AT_5),
                        ("align_accuracy", MIN_ALIGN_ACCURACY)):
        if quality[name] < floor:
            problems.append(f"{name} = {quality[name]:.4f} is below its floor {floor}")
    return quality, problems


def _check_scores(inp: Path, out: Path):
    problems = []
    expected = _read_pairs(inp / "corpus.jsonl")
    quality = {}
    for measure in ("bincos", "match"):
        rows = [line.split("\t") for line in
                (out / f"{measure}.tsv").read_text(encoding="utf-8").splitlines()]
        if [(r[0], r[1]) for r in rows] != expected:
            problems.append(f"{measure}.tsv does not list the couples in corpus order")
            continue
        values = [float(r[2]) for r in rows]
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"{measure}.tsv has a score outside [0, 1]")
        quality[f"mean_{measure}"] = sum(values) / len(values)
    return quality, problems
