"""Paired timing of a benchmark workload: this checkout against another revision.

REV is exported with ``git archive`` (an export, not a worktree, so the
repository's own state is left as it was).  The workload's config at LEVEL is
written once from this checkout's ``bench/workloads.py``, and each tree runs
it through its own ``bench/worker.py run``, in a fresh process, with the
environment ``bench/run.py`` gives its workers (hash seed 0, one BLAS/OpenMP
thread).  A pair is one run of each tree; the tree that runs first alternates
from pair to pair.  Each worker's minor page faults and ``ru_maxrss`` are read
from ``os.wait4``.

Printed: per tree the median ``solve_s`` with its quartiles, and the medians
of the minor faults and of ``ru_maxrss``; then the median over the pairs of
change / parent ``solve_s`` and the number of pairs in which the change was
lower.  The parent's interquartile range is the yardstick a claimed gain has
to beat.

Run:  python tools/ab.py REV [--workload NAME] [--pairs N] [--level L] [--work DIR]

The exit code is 1 when a worker fails and 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}


def config_text(workload: str, level: int) -> str:
    """The workload's config text at ``level``, from ``bench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.config_text(workload, level)


def export(rev: str, dest: Path) -> Path:
    """``git archive`` of ``rev``'s ``src`` and ``bench`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src", "bench"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_worker(tree: Path, config: Path, out: Path) -> dict:
    """One ``bench/worker.py run`` of ``tree`` in a fresh process: its JSON
    line, with ``minflt`` and ``maxrss_mb`` from the process's own rusage."""
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    log = out.with_suffix(".log")
    with open(log, "w") as fh:
        proc = subprocess.Popen([sys.executable, str(tree / "bench" / "worker.py"), "run",
                                 str(config), str(out)], cwd=tree, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = log.read_text().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree} worker exited {proc.returncode}: {lines[-1:] }")
    rec = json.loads(lines[-1])
    if rec.get("rc") != 0:
        raise RuntimeError(f"{tree} run returned {rec.get('rc')}")
    rec.update(minflt=usage.ru_minflt, maxrss_mb=usage.ru_maxrss / 1024.0)
    return rec


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(parent: list[dict], change: list[dict]) -> list[str]:
    """The report's lines for the pairs (parent[i], change[i])."""
    lines = ["| tree | solve_s median [quartiles] | minor faults | ru_maxrss (MB) |",
             "| --- | --- | --- | --- |"]
    for name, recs in (("parent", parent), ("change", change)):
        q1, q2, q3 = quartiles([r["solve_s"] for r in recs])
        lines.append(f"| {name} | {q2:.4f} [{q1:.4f}, {q3:.4f}] | "
                     f"{statistics.median(r['minflt'] for r in recs):.0f} | "
                     f"{statistics.median(r['maxrss_mb'] for r in recs):.1f} |")
    ratios = [c["solve_s"] / p["solve_s"] for p, c in zip(parent, change)]
    q1, _, q3 = quartiles([r["solve_s"] for r in parent])
    lines += ["", f"paired ratio change / parent: median {statistics.median(ratios):.3f}, "
              f"change lower in {sum(r < 1.0 for r in ratios)} of {len(ratios)} pairs; "
              f"parent IQR {q3 - q1:.4f} s"]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="revision to compare against (e.g. HEAD~1)")
    parser.add_argument("--workload", default="decay-128")
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--level", type=int, default=5)
    parser.add_argument("--work", help="directory for the export and the runs "
                                       "(default: a temporary directory, removed after)")
    args = parser.parse_args(argv)
    work = Path(args.work or tempfile.mkdtemp(prefix="ab_")).resolve()
    try:
        trees = {"parent": export(args.rev, work / "parent"), "change": ROOT}
        config = work / f"{args.workload}.cfg"
        config.write_text(config_text(args.workload, args.level))
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                out = work / f"{name}{i}"
                runs[name].append(run_worker(trees[name], config, out))
                shutil.rmtree(out, ignore_errors=True)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload} level {args.level}, {args.pairs} pairs against {args.rev}, "
          f"alternating order")
    print("\n".join(summary(runs["parent"], runs["change"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
