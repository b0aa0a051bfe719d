#!/usr/bin/env python3
"""Compare this tree's outputs with a base tree's (``--base DIR``), byte for byte.

Each tree runs its own package on the seed-1 benchmark (rewriting ``.perfbench_work/``
in both), on each demo both have and on the CASES, which reach code no workload runs.
Prints ``differs: <name>`` per difference and exits 1 on any; a failing command stops it.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent


def jsonl(fields: tuple[str, ...], *rows: tuple[str, ...]) -> str:
    return "".join(json.dumps(dict(zip(fields, row)), ensure_ascii=False) + "\n" for row in rows)


PAIR = ("src_id", "tgt_id", "src_text", "tgt_text", "group_key")
DOC = ("id", "text", "group_key")
DUMP = """\
<mediawiki>
<page><title>Olive</title><ns>0</ns><revision><text>'''Olive''' oil, see [[Oil|oils]]. [[ar:زيتون]] [[fr:Olive]]</text></revision></page>
<page><title>Olive tree</title><ns>0</ns><revision><text>A tree. [[ar:زيتون]]</text></revision></page>
<page><title>Lost</title><ns>0</ns><revision><text>No page. [[ar:مفقود]]</text></revision></page>
<page><title>زيت</title><ns>0</ns><redirect title="زيتون" /><revision><text>#REDIRECT [[زيتون]]</text></revision></page>
<page><title>زيتون</title><ns>0</ns><revision><text>{{Infobox}}نص عن '''الزيتون'''.</text></revision></page>
</mediawiki>
"""
WORDS = [  # English and Arabic dictionary entries, each with an inflected form
    ("teacher|teachers", "معلم|المعلمون"), ("school|schools", "مدرسة|المدارس"),
    ("book|books", "كتاب|الكتب"), ("letter|letters", "رسالة|الرسائل"), ("write|writing", "كتب|كتبت"),
    ("study|studied", "درس|درست"), ("class|classes", "صف|الصفوف"),
    ("player|players", "لاعب|اللاعبون"), ("play|played", "لعب|لعبوا"), ("game|games", "لعبة|الألعاب"),
    ("garden|gardens", "حديقة|الحدائق"), ("walk|walked", "مشى|مشوا"), ("open|opened", "فتح|وفتحوا"),
]

# Each case: its input files, its xling commands, one a line ({in} and {out}
# stand for the case's input and output directories), and the outputs compared.
CASES = {
    "ingest": {
        "files": {
            "pairs.jsonl": jsonl(PAIR, ("e1", "a1", "Hello world", "مرحبا بالعالم", "2012-01"))
            + jsonl(PAIR[:4] + ("category",), ("e2", "a2", "A second text", "نص ثان", "news")),
            **{f"raw/en/00{i}.txt": f"English page {i}.\n" for i in (1, 2, 3)},
            **{f"raw/ar/00{i}.txt": f"صفحة عربية {i}\n" for i in (1, 2, 3)},
            "dump.xml": DUMP,
        },
        "commands": """
            ingest --format jsonl --input {in}/pairs.jsonl --output {out}/jsonl.jsonl
            ingest --format pairdirs --input {in}/raw --output {out}/pairdirs.jsonl --src-lang en --tgt-lang ar
            ingest --format wikidump --input {in}/dump.xml --output {out}/wikidump.jsonl --pivot-lang en --tgt-lang ar""",
        "compare": [f"{f}.{e}" for f in ("jsonl", "pairdirs", "wikidump")
                    for e in ("jsonl", "stats.json")],
    },
    # Both reducers on inflected words, which the benchmark's codes never are.
    "score": {
        "files": {
            "corpus.jsonl": jsonl(
                PAIR,
                ("e1", "a1", "The teachers walked to the schools and opened the books.", "المعلمون مشوا إلى المدارس وفتحوا الكتب"),
                ("e2", "a2", "Writing letters, she studied the classes.", "كتبت الرسائل ودرست الصفوف"),
                ("e3", "a3", "Players played games in the gardens.", "اللاعبون لعبوا الألعاب في الحدائق"),
            ),
            "dictionary.tsv": "".join(f"{en}\t{ar}\n" for en, ar in WORDS),
        },
        "commands": "\n".join(
            "score --corpus {in}/corpus.jsonl --dictionary {in}/dictionary.tsv --measure %s"
            " --reducer-source suffix_stemmer --reducer-target light_stemmer --output {out}/%s.tsv"
            % (m, m) for m in ("bin", "bincos", "match")),
        "compare": ["bin.tsv", "bincos.tsv", "match.tsv"],
    },
    # Ids with quote, backslash and non-ASCII characters; the cache lacks q4, whose list is skipped.
    "retrieve": {
        "files": {
            "corpus.jsonl": jsonl(
                PAIR,
                ('q"1', "t\\1", "olive oil press", "zaytun zayt masara zayt"),
                ("qé2", "tب2", "harvest of the olive", "hisad zaytun hisad"),
                ("q\\3", 't"3é', "river water", "nahr maa maa"),
                ("q4", "t4", "press the water", "masara maa nahr"),
            ),
            "cache.jsonl": jsonl(DOC, ('q"1', "zaytun zayt masara"), ("qé2", "hisad zaytun"), ("q\\3", "nahr maa")),
        },
        "commands": """
            train --corpus {in}/corpus.jsonl --kind mono --k 2 --no-split --output {out}/mono.xlsm
            train --corpus {in}/corpus.jsonl --kind cross --k 2 --no-split --output {out}/cross.xlsm
            retrieve --model {out}/mono.xlsm --corpus {in}/corpus.jsonl --cache {in}/cache.jsonl --n 10 --output {out}/mono.json --tsv {out}/mono.tsv
            retrieve --model {out}/cross.xlsm --corpus {in}/corpus.jsonl --n 10 --output {out}/cross.json --tsv {out}/cross.tsv""",
        "compare": ["mono.json", "mono.tsv", "cross.json", "cross.tsv"],
    },
    # By month, 2012-02 has sources only and 2012-04 targets only; s3 and t3 hold no known term.
    "align": {
        "files": {
            "corpus.jsonl": jsonl(
                PAIR,
                ("e1", "a1", "olive oil press olive", "zaytun zayt masara zaytun"),
                ("e2", "a2", "harvest of the olive", "hisad zaytun hisad"),
                ("e3", "a3", "river water river", "nahr maa nahr"),
                ("e4", "a4", "press the water", "masara maa"),
                ("e5", "a5", "oil harvest press", "zayt hisad masara"),
            ),
            "source.jsonl": jsonl(
                DOC, ("s1", "olive oil press", "2012-01"), ("s2", "river water", "2012-01"),
                ("s3", "unknown words only", "2012-01"), ("s4", "harvest of the olive", "2012-02"),
                ("s5", "press the water", "2012-03"), ("s6", "oil harvest", "2012-03"),
            ),
            "target.jsonl": jsonl(
                DOC, ("t1", "zaytun zayt masara", "2012-01"), ("t2", "nahr maa", "2012-01"),
                ("t3", "xyzzy", "2012-03"), ("t4", "masara maa nahr", "2012-03"),
                ("t5", "hisad", "2012-04"),
            ),
        },
        "commands": """
            train --corpus {in}/corpus.jsonl --kind cross --k 3 --no-split --output {out}/cross.xlsm
            align --model {out}/cross.xlsm --corpus {in}/corpus.jsonl --output {out}/corpus.tsv --report {out}/report.json --histogram-csv {out}/histogram.csv --ranges-csv {out}/ranges.csv
            align --model {out}/cross.xlsm --source-docs {in}/source.jsonl --target-docs {in}/target.jsonl --group-by month --output {out}/month.tsv
            align --model {out}/cross.xlsm --source-docs {in}/source.jsonl --target-docs {in}/target.jsonl --group-by month --mutual-best --output {out}/mutual.tsv
            align --model {out}/cross.xlsm --source-docs {in}/source.jsonl --target-docs {in}/target.jsonl --group-by "" --output {out}/empty-key.tsv""",
        "compare": ["cross.xlsm", "corpus.tsv", "report.json", "histogram.csv", "ranges.csv",
                    "month.tsv", "mutual.tsv", "empty-key.tsv"],
    },
}


def run(argv: list[str], tree: Path, cwd: Path) -> bytes:
    """Run ``argv`` on ``tree``'s package and return its stdout; a failure ends the run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    if proc.returncode:
        print(f"failed in {tree} (exit {proc.returncode}): {shlex.join(argv)}", file=sys.stderr)
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise SystemExit(1)
    return proc.stdout


def outputs(tree: Path, label: str, tmp: Path) -> dict[str, bytes]:
    """Every compared output of ``tree``, by name."""
    run([sys.executable, *"perfbench/run.py --workload all --seed 1 --seconds 3".split()], tree, tree)
    found = {p.relative_to(tree).as_posix(): p.read_bytes()  # manifests and spans carry timings
             for sub in ("in", "out") for p in tree.glob(f".perfbench_work/*/{sub}/**/*")
             if p.is_file() and p.name != "spans.jsonl" and not p.name.endswith(".manifest.json")}
    for name in sorted(p.name for p in HEAD.glob("demos/*.py")):
        demo = tree / "demos" / name
        if demo.is_file():  # a demo both trees have, run from the scratch directory
            found[f"demos/{name} stdout"] = run([sys.executable, str(demo)], tree, tmp)
    for case, spec in CASES.items():
        dirs = {"in": tmp / case / "in", "out": tmp / case / label}
        dirs["out"].mkdir()
        for command in filter(str.strip, spec["commands"].splitlines()):
            argv = [arg.format_map(dirs) for arg in shlex.split(command)]
            run([sys.executable, "-m", "xling.cli", *argv], tree, tmp)
        for name in spec["compare"]:
            found[f"{case}/{name}"] = (dirs["out"] / name).read_bytes()
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="a checkout of the base commit")
    base = parser.parse_args(argv).base.resolve()
    if not (base / "src" / "xling" / "cli.py").is_file():
        print(f"no src/xling/cli.py under --base {base}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-with-base-") as name:
        tmp = Path(name)
        for case, spec in CASES.items():
            for rel, text in spec["files"].items():
                path = tmp / case / "in" / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
        theirs, ours = outputs(base, "base", tmp), outputs(HEAD, "head", tmp)
    names = sorted(theirs.keys() | ours.keys())
    bad = [f"differs: {n}" for n in names if theirs.get(n) != ours.get(n)]
    if b'"skipped": true' not in ours["retrieve/mono.json"]:  # the skipped list was written
        bad.append('lacks "skipped": true: retrieve/mono.json')
    print(*bad, f"{len(names)} compared, {len(bad)} failed", sep="\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
