"""Compare the run artifacts of this checkout with those of another revision.

Every experiment kind runs on each ``demos/configs/*.cfg``, the two synthesis
kinds run once more on DUMPED with ``dump_fields = true`` (so the field and
control dumps are compared byte for byte), and each benchmark workload runs at
level 0 (its config text is read from ``bench/workloads.py``), once with this
checkout's ``src/`` and once with PARENT_REV's, which ``git archive`` exports
into the work directory (an export, not a worktree, so the repository's own
state is left as it was).  Both sides read the same configs, those of this
checkout, through the CLI with one BLAS thread.

Printed, as rows of one Markdown table

    | run | file | key | parent | change | relative difference |

are every exit code that differs, every file present on one side only, and,
for each file whose bytes differ, every report key whose value moved (list
values entry by entry, as ``key[i]``).  A CSV file that differs gets one row
per ``# key = value`` comment line that moved, as a report key does, and one
per column that moved, with its largest relative difference over the rows.
Lines holding ``wall_time_s`` are ignored.  A run is named
``<config stem>.<kind>`` (``.dump`` added for a dump run) or after its
workload.  One line after the table names the largest relative difference
of all rows, with its run, file and key, passing over rows whose two values
are both below ROUNDOFF in magnitude (``max_div`` is itself roundoff, so any
change of bits moves it by a large relative amount); those rows stay in the
table.

Run:  python tools/artifact_diff.py PARENT_REV [--work DIR]

The exit code is 1 when the table has any row and 0 when every run is
identical apart from ``wall_time_s``.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("simulate", "decay", "linear-control", "nonlinear-control", "large-time",
         "verify")
ROUNDOFF = 1e-12   # values below this in magnitude are roundoff (``largest``)
DUMPED = ROOT / "demos" / "configs" / "large_time.cfg"   # nonlinear: both synthesis kinds take it


def runs() -> list[tuple[str, str, str]]:
    """(run name, kind, config text) of every run, in a fixed order."""
    out = [(f"{cfg.stem}.{kind}", kind, cfg.read_text())
           for cfg in sorted((ROOT / "demos" / "configs").glob("*.cfg")) for kind in KINDS]
    out += [(f"{DUMPED.stem}.{kind}.dump", kind, DUMPED.read_text() + "dump_fields = true\n")
            for kind in ("linear-control", "nonlinear-control")]
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        text = workloads.config_text(name, 0)
        kind = next(ln.split("=", 1)[1].strip() for ln in text.splitlines()
                    if ln.startswith("kind"))
        out.append((name, kind, text))
    return out


def run_all(src: Path, out: Path) -> dict[str, int]:
    """Run every run, one at a time, with the package under ``src``; exit
    code per run."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    (out / "configs").mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, kind, text in runs():
        cfg = out / "configs" / f"{name}.cfg"
        cfg.write_text(text)
        codes[name] = subprocess.run(
            [sys.executable, "-m", "bousscontrol.cli", kind, "--config", str(cfg),
             "--out", str(out / name)], env=env, capture_output=True).returncode
    return codes


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def rel_diff(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two numbers; None unless both are finite
    numbers, not both zero."""
    x, y = _float(a), _float(b)
    if x is None or y is None or not all(map(math.isfinite, (x, y))) or x == y == 0.0:
        return None
    return abs(x - y) / max(abs(x), abs(y))


def _rel(a: str, b: str) -> str:
    r = rel_diff(a, b)
    return "" if r is None else f"{r:.1e}"


def report_values(text: str) -> dict[str, str]:
    """``key = value`` lines by key; a list of numbers is split into
    ``key[i]``, and a key met again in a later section is ``section.key``."""
    out, section = {}, ""
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif " = " in line and "wall_time_s" not in line:
            key, val = line.split(" = ", 1)
            if key in out:
                key = f"{section}.{key}"
            parts = val.split(",")
            if len(parts) > 1 and all(_float(x) is not None for x in parts):
                out.update((f"{key}[{i}]", x) for i, x in enumerate(parts))
            else:
                out[key] = val
    return out


def csv_columns(text: str) -> tuple[list[str], list[tuple]]:
    """Header and columns of a CSV file, comment lines skipped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), list(zip(*(ln.split(",") for ln in lines[1:])))


def csv_comments(text: str) -> dict[str, str]:
    """The ``# key = value`` comment lines of a CSV file, read as a report's."""
    return report_values("\n".join(ln[1:].strip() for ln in text.splitlines()
                                    if ln.startswith("#")))


def _moved(run: str, rel: str, va: dict, vb: dict) -> list[tuple]:
    """Rows of the keys whose values differ between two ``report_values``."""
    return [(run, rel, f"`{k}`", va.get(k, "(absent)"), vb.get(k, "(absent)"),
             _rel(va.get(k, ""), vb.get(k, "")))
            for k in dict.fromkeys([*va, *vb]) if va.get(k) != vb.get(k)]


def compare_text(run: str, rel: str, a: str, b: str) -> list[tuple]:
    """Table rows of what moved between two versions of a report or CSV; a
    CSV's comment lines are compared as a report's lines are."""
    if rel.endswith(".csv"):
        (ha, ca), (hb, cb) = csv_columns(a), csv_columns(b)
        if ha != hb or [len(c) for c in ca] != [len(c) for c in cb]:
            return [(run, rel, "(shape)", f"{len(ha)} columns, {len(ca[0]) if ca else 0} rows",
                     f"{len(hb)} columns, {len(cb[0]) if cb else 0} rows", "")]
        rows = _moved(run, rel, csv_comments(a), csv_comments(b))
        for name, xa, xb in zip(ha, ca, cb):
            moved = [rel_diff(p, c) for p, c in zip(xa, xb) if p != c]
            if moved:
                worst = max((r for r in moved if r is not None), default=None)
                rows.append((run, rel, f"`{name}` ({len(moved)} of {len(xa)} rows)", "", "",
                             "" if worst is None else f"largest {worst:.1e}"))
        return rows
    return _moved(run, rel, report_values(a), report_values(b))


def roundoff(row: tuple) -> bool:
    """Whether the parent and change values of a row are both numbers below
    ROUNDOFF in magnitude, such as ``max_div``."""
    values = [_float(x) for x in row[3:5]]
    return all(x is not None and abs(x) < ROUNDOFF for x in values)


def largest(rows: list[tuple]) -> str:
    """The line naming the largest relative difference in the table ``rows``
    and where it is; rows whose values are both roundoff are passed over."""
    moved = [(float(row[5].split()[-1]), row) for row in rows
             if row[5] and not roundoff(row)]
    if not moved:
        return "largest relative difference: none"
    r, row = max(moved, key=lambda m: m[0])
    return f"largest relative difference: {r:.1e} ({row[0]}, {row[1]}, {row[2]})"


def without_wall_time(blob: bytes) -> bytes:
    return b"\n".join(ln for ln in blob.split(b"\n") if b"wall_time_s" not in ln)


def compare(parent: Path, change: Path, codes: tuple[dict, dict]) -> list[tuple]:
    """Table rows of every exit code and artifact file that differs between
    the two run directories."""
    rows = []
    for run, code in codes[0].items():
        if code != codes[1][run]:
            rows.append((run, "-", "exit code", str(code), str(codes[1][run]), ""))
        da, db = parent / run, change / run
        fa = {str(p.relative_to(da)) for p in da.rglob("*") if p.is_file()} if da.is_dir() else set()
        fb = {str(p.relative_to(db)) for p in db.rglob("*") if p.is_file()} if db.is_dir() else set()
        for rel in sorted(fa | fb):
            if rel not in fa or rel not in fb:
                rows.append((run, rel, "(file)", "present" if rel in fa else "absent",
                             "present" if rel in fb else "absent", ""))
                continue
            a, b = (da / rel).read_bytes(), (db / rel).read_bytes()
            if without_wall_time(a) == without_wall_time(b):
                continue
            if rel.endswith((".txt", ".csv")):
                rows += compare_text(run, rel, a.decode(), b.decode()) or [
                    (run, rel, "(line order)", "", "differs", "")]
            else:
                rows.append((run, rel, "(bytes)", "", "differ", ""))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", help="revision to compare against (e.g. HEAD~1)")
    parser.add_argument("--work", help="directory for the export and the runs "
                                       "(default: a new temporary directory)")
    args = parser.parse_args(argv)
    work = Path(args.work or tempfile.mkdtemp(prefix="artifact_diff_")).resolve()
    tree = work / "parent"
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent_rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    codes = (run_all(tree / "src", work / "runs_parent"),
             run_all(ROOT / "src", work / "runs_change"))
    rows = compare(work / "runs_parent", work / "runs_change", codes)
    same = sorted(set(codes[0]) - {r[0] for r in rows})
    print(f"{len(codes[0])} runs against {args.parent_rev}; artifacts in {work}")
    print(f"identical apart from wall_time_s ({len(same)}): {', '.join(same)}")
    print("\n| run | file | key | parent | change | relative difference |")
    print("| --- | --- | --- | --- | --- | --- |")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print("\n" + largest(rows))
    return 1 if rows else 0


if __name__ == "__main__":
    raise SystemExit(main())
