"""The xling benchmark: drives the real CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload train-cross --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one command

Per workload: three set-ups, each in a fresh process (``setup_s`` is their
median); then one process that runs the workload's CLI commands one after
another (closed loop, one client) for ``--seconds`` after a warm-up round,
and checks their outputs. ``--trace 1`` splits the time between an untraced
process and a traced one, and reports per-layer metrics plus
``trace_overhead_ratio`` instead of the end-to-end metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed check prints FAIL lines
on standard error, an empty ``metrics`` object and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
# One BLAS thread keeps every process on one vCPU: with two, train times
# also follow whatever neighbours run on the second one (14% spread across
# runs against 2-5% with one thread, for a 15% longer train).
BLAS_THREADS = 1
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """A run that cannot produce numbers: the reason is printed, exit 1."""


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        return config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "blas_threads": BLAS_THREADS,
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


def _subprocess(argv: list[str], deadline: float) -> dict:
    """Run one worker; return its JSON line or raise ``BenchError``."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(argv[:3]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            capture_output=True, text=True, timeout=remaining, cwd=ROOT, env=env,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {' '.join(argv[:3])} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(argv[:3])} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-4000:]}")
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Set up and measure one workload; returns the worker results and problems."""
    workdir = ROOT / ".perfbench_work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setups = [
        _subprocess(["setup", "--workload", name, "--seed", str(seed), "--dir", str(workdir)],
                    deadline)
        for _ in range(SETUPS)
    ]
    problems = []
    if any(s["hashes"] != setups[0]["hashes"] for s in setups):
        problems.append("set-ups from one seed wrote different inputs")

    measure = ["measure", "--workload", name, "--dir", str(workdir)]
    share = seconds / 2 if trace else seconds
    plain = _subprocess([*measure, "--seconds", str(share), "--trace", "0"], deadline)
    traced = None
    if trace:
        traced = _subprocess([*measure, "--seconds", str(share), "--trace", "1"], deadline)
        if traced["outputs"] != plain["outputs"]:
            problems.append("traced and untraced processes wrote different outputs")
    results = [r for r in (plain, traced) if r is not None]
    return {
        "setup_times": [s["seconds"] for s in setups],
        "plain": plain,
        "traced": traced,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "problems": problems + [p for r in results for p in r["problems"]],
    }


def end_to_end(run: dict) -> dict[str, tuple[float, str, int]]:
    """The result line's metrics: name -> (value, unit, sample count)."""
    plain = run["plain"]
    medians = [_median(v) for v in plain["norm"].values()]
    n_rounds = len(plain["rounds"])
    return {
        "setup_s": (_median(run["setup_times"]), "s", len(run["setup_times"])),
        "round_ref": (_median(plain["norm_rounds"]), "ref", n_rounds),
        "max_command_ref": (max(medians), "ref", n_rounds),
        "min_command_ref": (min(medians), "ref", n_rounds),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB", 1),
    }


def print_table(name: str, seed: int, run: dict, metrics: dict) -> None:
    plain = run["plain"]
    print(f"== {name} (seed {seed}): {len(plain['rounds'])} timed rounds after a warm-up, "
          f"{run['attempted']} commands, {run['failed']} failed")
    print(f"  {'metric':<24}{'value':>14}  {'unit':<6}{'n':>4}")
    shown = dict(metrics)
    shown["round_s"] = (_median(plain["rounds"]), "s", len(plain["rounds"]))
    for label, times in plain["times"].items():
        shown[f"{label}_s"] = (_median(times), "s", len(times))
        shown[f"{label}_ref"] = (_median(plain["norm"][label]), "ref", len(times))
    for key, value in sorted(plain["quality"].items()):
        shown[key] = (value, "ratio", 1)
    shown["failed_ratio"] = (run["failed"] / run["attempted"], "ratio", run["attempted"])
    for key, (value, unit, n) in shown.items():
        print(f"  {key:<24}{value:>14.6f}  {unit:<6}{n:>4}")


def per_layer(run: dict) -> dict[str, tuple[float, str, int]]:
    """Traced metrics plus the tracing overhead, printed as a second table."""
    import tracing

    plain, traced = run["plain"], run["traced"]
    overhead = _median(traced["norm_rounds"]) / _median(plain["norm_rounds"]) - 1.0
    n_rounds = len(traced["rounds"])
    print(f"  traced: {n_rounds} rounds; self times sum to {traced['self_sum_s']:.4f} s a round "
          f"against {_median(plain['rounds']):.4f} s untraced; normalized overhead "
          f"{overhead:+.2%}")
    layers = dict(traced["layers"], trace_overhead_ratio=overhead)
    out = {k: (layers[k], unit, n_rounds) for k, (unit, _) in tracing.LAYER_METRICS.items()}
    for key, (value, unit, n) in out.items():
        print(f"  {key:<28}{value:>16.6f}  {unit:<6}{n:>4}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xling" / "cli.py").is_file():
        print(f"FAIL: no xling sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print("machine " + json.dumps(machine_record(args.seed)))
    all_correct = True
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            return 1
        correct = run["failed"] == 0 and not run["problems"]
        metrics = {}
        if correct:
            metrics = end_to_end(run)
            print_table(name, args.seed, run, metrics)
            if args.trace:
                metrics = per_layer(run)
        for problem in run["problems"]:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        all_correct &= correct
        print(json.dumps({
            "correct": correct, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
