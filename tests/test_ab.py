"""``tools/ab.py``: one pair of this checkout against its own HEAD on the
``linear-sweep`` workload (skipped outside a git checkout)."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _has_head() -> bool:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                              capture_output=True).returncode == 0
    except OSError:
        return False


@pytest.mark.skipif(not _has_head(), reason="not a git checkout with a HEAD commit")
def test_head_against_head_one_pair(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "HEAD",
                           "--workload", "linear-sweep", "--pairs", "1",
                           "--work", str(tmp_path / "work")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("linear-sweep level 5, 1 pairs against HEAD")
    rows = {ln.split("|")[1].strip(): ln for ln in lines if ln.startswith("| parent")
            or ln.startswith("| change")}
    assert set(rows) == {"parent", "change"}
    assert "change lower in" in lines[-1] and "of 1 pairs" in lines[-1]
    assert (tmp_path / "work" / "parent" / "bench" / "worker.py").is_file()
