"""Each demo script, and README's library example, runs to completion in a
fresh interpreter, and every flag README names is one the CLI takes."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from xling import cli
from xling.corpus import save_aligned_corpus
from xling.synthetic import make_parallel_corpus

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    result = _run(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S).group(1)
    save_aligned_corpus(make_parallel_corpus(120), tmp_path / "corpus.jsonl")
    (tmp_path / "example.py").write_text(example, encoding="utf-8")
    result = _run(tmp_path / "example.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert "R@1:" in result.stdout


def _cli_options() -> set[str]:
    # A subcommand's flags are added when argparse selects it; fill each
    # subparser through the same hook, so that every option is collected.
    parser = cli.build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(map(action.fill, action.choices))
    return {option for p in parsers for action in p._actions for option in action.option_strings}


def test_readme_flags_are_cli_options():
    # pip's flags and the compare script's are not xling's; every other --flag
    # is an option of some command.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {
        flag
        for line in readme.splitlines()
        if not line.lstrip().startswith(("pip ", "python3 .github/compare_with_base.py "))
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)
    }
    assert named
    assert named - _cli_options() == set()
