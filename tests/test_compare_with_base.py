import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "compare_with_base.py"


def test_base_without_sources_is_refused_before_any_command(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--base", str(tmp_path)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "src/xling/cli.py" in proc.stderr
    assert list(tmp_path.iterdir()) == []
