"""One benchmark process: set up a workload's inputs, or time its commands.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D
    python3 perfbench/worker.py measure --workload W --dir D --seconds S --trace 0|1

``run.py`` starts these; each prints one JSON object as its last line.
Set-up runs in its own process so that it sets neither the peak RSS nor
the warm caches of the process whose commands are timed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(workload: str, seed: int, workdir: Path) -> dict:
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import xling.cli  # noqa: F401  (importing the CLI is part of set-up)

    workloads.make_inputs(workload, seed, workdir)
    seconds = perf_counter() - start
    return {"seconds": seconds, "hashes": workloads.input_hashes(workdir)}


def measure(workload: str, workdir: Path, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_linalg(tracer)
    sys.path.insert(0, str(SRC))
    import xling.cli  # noqa: F401

    if tracer is not None:
        tracing.install_xling(tracer)
    from reference import reference_seconds

    cmds = workloads.commands(workload, workdir)
    times: dict[str, list[float]] = {c.label: [] for c in cmds}
    expected: dict[str, dict] = {}
    stdout: dict[str, str] = {}
    runs: dict[int, dict] = {}
    problems: list[str] = []
    attempted = failed = 0

    def run_once(cmd, round_index: int) -> float | None:
        nonlocal attempted, failed
        attempted += 1
        run_id = len(runs)
        runs[run_id] = {"round": round_index, "command": cmd.label}
        if tracer is not None:
            tracer.run = run_id
        start = perf_counter()
        try:
            rc, out, err = workloads.run_cli(cmd.argv)
        except Exception:
            failed += 1
            problems.append(f"{cmd.label} raised:\n{traceback.format_exc()}")
            return None
        elapsed = perf_counter() - start
        if rc != 0:
            failed += 1
            problems.append(f"{cmd.label} exited {rc}: {err.strip()}")
            return None
        seen = {"stdout": out, "files": workloads.file_hashes(cmd.outputs)}
        if cmd.label not in expected:
            expected[cmd.label] = seen
            stdout[cmd.label] = out
        elif seen != expected[cmd.label]:
            problems.append(f"{cmd.label}: outputs differ between repetitions")
        return elapsed

    # The warm-up round fills caches and pays one-off costs (the first QR in
    # a process is about a second slower); its outputs are the expected ones.
    for cmd in cmds:
        run_once(cmd, 0)
    # Each timed command sits between two passes of the reference kernel;
    # its normalized time divides by their mean (see reference.py).
    norm: dict[str, list[float]] = {c.label: [] for c in cmds}
    rounds: list[float] = []
    norm_rounds: list[float] = []
    for _ in range(3):
        ref = reference_seconds()
    start = perf_counter()
    while perf_counter() - start < seconds and not problems:
        round_time = round_norm = 0.0
        for cmd in cmds:
            elapsed = run_once(cmd, len(rounds) + 1)
            after = reference_seconds()
            if elapsed is not None:
                times[cmd.label].append(elapsed)
                norm[cmd.label].append(elapsed / ((ref + after) / 2))
                round_time += elapsed
                round_norm += norm[cmd.label][-1]
            ref = after
        rounds.append(round_time)
        norm_rounds.append(round_norm)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.run = None
    quality = {}
    if not problems:
        try:
            quality, found = workloads.check_outputs(workload, workdir, stdout)
            problems += found
        except Exception:
            problems.append(f"output check raised:\n{traceback.format_exc()}")

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "times": times,
        "norm": norm,
        "rounds": rounds,
        "norm_rounds": norm_rounds,
        "peak_rss_mb": peak_rss_mb,
        "outputs": expected,
        "quality": quality,
    }
    if tracer is not None:
        result["layers"], result["self_sum_s"] = _layers(tracer, runs)
        tracing.write_spans(tracer.spans, runs, str(workdir / "spans.jsonl"))
    return result


def _layers(tracer, runs: dict[int, dict]) -> tuple[dict[str, float], float]:
    """Median over timed rounds of each per-layer metric, and of the round's
    summed self times (which equals its traced command time)."""
    import tracing

    selfs = tracing.self_times(tracer.spans)
    by_round: dict[int, tuple[list, list]] = {}
    for span, self_time in zip(tracer.spans, selfs):
        if span[4] is None or runs[span[4]]["round"] == 0:
            continue
        spans, times = by_round.setdefault(runs[span[4]]["round"], ([], []))
        spans.append(span)
        times.append(self_time)
    per_round = [tracing.layer_totals(s, t) for s, t in by_round.values()]
    names = per_round[0].keys() if per_round else ()
    layers = {n: statistics.median(r[n] for r in per_round) for n in names}
    self_sum = statistics.median(sum(t) for _, t in by_round.values()) if by_round else 0.0
    return layers, self_sum


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    workdir = Path(args.dir)
    if args.mode == "setup":
        result = setup(args.workload, args.seed, workdir)
    else:
        result = measure(args.workload, workdir, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
