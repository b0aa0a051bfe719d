"""The benchmark tracer's wrap points still exist in the package.

``perfbench/tracing.py`` replaces module attributes of xling by name, so
deleting or renaming a wrapped function breaks every ``--trace 1`` run. The
wrappers are installed in a fresh interpreter so that they cannot leak into
other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import tracing
tracer = tracing.Tracer()
tracing.install_linalg(tracer)
tracing.install_xling(tracer)
"""


def test_tracer_installs_on_every_wrap_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", _INSTALL], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
