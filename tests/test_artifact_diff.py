"""``tools/artifact_diff.py``'s ``compare`` on hand-made run directories (no
experiment runs), and its exit code."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"

REPORT = """[linear_control]
terminal_norm = 0.5
wall_time_s = 1.25
forward_sweeps = 6
"""


def _load_tool():
    spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return _load_tool()


def make_runs(root: Path, files: dict) -> Path:
    """A run directory per run name, holding ``files`` {relative path: text}."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def compare(tool, tmp_path, parent: dict, change: dict, codes=({"a": 0}, {"a": 0})):
    return tool.compare(make_runs(tmp_path / "parent", parent),
                        make_runs(tmp_path / "change", change), codes)


def test_identical_directories(tool, tmp_path):
    files = {"a/report.txt": REPORT, "a/energy.csv": "t,e\n0,1\n1,0.5\n"}
    assert compare(tool, tmp_path, files, files) == []


def test_wall_time_only(tool, tmp_path):
    assert compare(tool, tmp_path, {"a/report.txt": REPORT},
                   {"a/report.txt": REPORT.replace("1.25", "9.5")}) == []


def test_moved_value(tool, tmp_path):
    rows = compare(tool, tmp_path, {"a/report.txt": REPORT},
                   {"a/report.txt": REPORT.replace("0.5", "0.25")})
    assert rows == [("a", "report.txt", "`terminal_norm`", "0.5", "0.25", "5.0e-01")]


def test_moved_line(tool, tmp_path):
    lines = REPORT.splitlines()
    swapped = "\n".join([lines[0], lines[3], lines[2], lines[1]]) + "\n"
    rows = compare(tool, tmp_path, {"a/report.txt": REPORT}, {"a/report.txt": swapped})
    assert rows == [("a", "report.txt", "(line order)", "", "differs", "")]


def test_moved_csv_comment_line(tool, tmp_path):
    """A CSV whose only change is its ``# config_hash`` line gets a row naming
    the key, not an unnamed line-order row; a moved column still gets its own."""
    csv = "# config_hash = 57a8c83597759227\nt,e\n0,1\n1,0.5\n"
    moved = csv.replace("57a8c83597759227", "ed978453697790d9")
    rows = compare(tool, tmp_path, {"a/energy.csv": csv}, {"a/energy.csv": moved})
    assert rows == [("a", "energy.csv", "`config_hash`", "57a8c83597759227",
                     "ed978453697790d9", "")]
    rows = compare(tool, tmp_path / "both", {"a/energy.csv": csv},
                   {"a/energy.csv": moved.replace("0.5", "0.25")})
    assert [r[2] for r in rows] == ["`config_hash`", "`e` (1 of 2 rows)"]


def test_file_on_one_side(tool, tmp_path):
    rows = compare(tool, tmp_path, {"a/report.txt": REPORT},
                   {"a/report.txt": REPORT, "a/sweep.csv": "eps\n1e-2\n"})
    assert rows == [("a", "sweep.csv", "(file)", "absent", "present", "")]


def test_exit_code(tool, tmp_path):
    files = {"a/report.txt": REPORT}
    rows = compare(tool, tmp_path, files, files, codes=({"a": 0}, {"a": 3}))
    assert rows == [("a", "-", "exit code", "0", "3", "")]


def test_largest_relative_difference_line(tool, tmp_path):
    """The line after the table names the largest relative difference over
    report and CSV rows; rows without a number (a moved exit code) are
    passed over."""
    report = REPORT.replace("0.5", "0.25").replace("forward_sweeps = 6", "forward_sweeps = 7")
    rows = compare(tool, tmp_path,
                   {"a/report.txt": REPORT, "a/energy.csv": "t,e\n0,1\n1,0.5\n"},
                   {"a/report.txt": report, "a/energy.csv": "t,e\n0,1\n1,0.5000001\n"},
                   codes=({"a": 0}, {"a": 3}))
    assert [r[5] for r in rows] == ["", "largest 2.0e-07", "5.0e-01", "1.4e-01"]
    assert tool.largest(rows) == ("largest relative difference: 5.0e-01 "
                                  "(a, report.txt, `terminal_norm`)")
    assert tool.largest(rows[:1]) == "largest relative difference: none"
    assert tool.largest([]) == "largest relative difference: none"


def test_largest_passes_over_roundoff_values(tool, tmp_path):
    """A ``max_div``-like row, both values below ROUNDOFF, stays in the table
    with its relative difference, but the line names the real move beside
    it, though that move is smaller."""
    report = "max_div = 7.1e-18\nterminal_norm = 0.5\n"
    moved = report.replace("7.1e-18", "5.2e-16").replace("0.5", "0.5000001")
    rows = compare(tool, tmp_path, {"a/report.txt": report}, {"a/report.txt": moved})
    assert [r[2] for r in rows] == ["`max_div`", "`terminal_norm`"]
    assert rows[0][5] == "9.9e-01"
    assert tool.largest(rows) == ("largest relative difference: 2.0e-07 "
                                  "(a, report.txt, `terminal_norm`)")
    assert tool.largest(rows[:1]) == "largest relative difference: none"
    # one value at or above the floor counts the row in
    big = [rows[0][:4] + ("1e-12", "1.0e+00")]
    assert tool.largest(big) == "largest relative difference: 1.0e+00 (a, report.txt, `max_div`)"


def test_main_exits_1_on_any_row_and_0_on_none(tool, tmp_path, monkeypatch, capsys):
    """``main`` with the export, the runs and the comparison replaced by
    canned results."""
    monkeypatch.setattr(tool.subprocess, "run",
                        lambda *a, **k: type("Done", (), {"stdout": b""})())
    monkeypatch.setattr(tool, "run_all", lambda src, out: {"a": 0})
    for rows, want in (([], 0), ([("a", "-", "exit code", "0", "3", "")], 1)):
        monkeypatch.setattr(tool, "compare", lambda *a, rows=rows: rows)
        assert tool.main(["HEAD", "--work", str(tmp_path / f"work{want}")]) == want
    out = capsys.readouterr().out
    assert "| a | - | exit code | 0 | 3 |" in out
    assert out.rstrip().endswith("largest relative difference: none")
