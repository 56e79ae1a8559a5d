#!/usr/bin/env python3
"""Benchmark for the control-synthesis toolkit; see bench/README.md.

    python3 bench/run.py --workload linear-sweep --seed 1 --seconds 30 --trace 0

Runs one experiment per fresh process, one at a time (a closed loop with one
client), with the BLAS/OpenMP thread pools pinned to 1, and checks each
run's report against the stored reference answer.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import probe  # noqa: E402
from checks import check_outputs, report_values  # noqa: E402
from workloads import WORKLOADS, amplitude, config_text, level_for_seed  # noqa: E402

THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}
MIN_EXPERIMENTS = 3     # untraced experiments per --trace 0 run, at least
MIN_PAIRS = 2           # untraced+traced pairs per --trace 1 run, at least
CHILD_TIMEOUT_S = 150
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def _child_env():
    return dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)


def _spawn(args):
    """Run one worker process to completion; returns (its JSON, setup_s)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{args[0]} timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args[0]} exited {proc.returncode}: "
                          f"{(proc.stderr or proc.stdout).strip()[-400:]}")
    try:
        out = json.loads(lines[-1])
    except ValueError as exc:
        raise ChildFailed(f"{args[0]} printed no result: {lines[-1][:200]}") from exc
    setup_s = out["setup_mark"] - t_spawn if "setup_mark" in out else None
    return out, setup_s


def _experiment(mode, workload, level, cfg_path, out_dir, spans_path=None):
    """One experiment process plus its output check; returns its record."""
    shutil.rmtree(out_dir, ignore_errors=True)
    args = [mode, cfg_path, out_dir] + ([spans_path] if spans_path else [])
    out, setup_s = _spawn(args)
    try:
        values = report_values(workload, out_dir)
    except (KeyError, ValueError) as exc:
        values = {}
        problems = [f"report unreadable: {exc!r}"]
    else:
        problems = check_outputs(workload, level, out["rc"], values)
    if mode == "trace" and not out.get("wrappers_removed", False):
        problems.append("tracer left wrappers installed")
    return {"setup_s": setup_s, "solve_s": out["solve_s"], "peak_rss_mb": out["peak_rss_mb"],
            "values": values, "layers": out.get("layers"), "problems": problems}


def _artifacts_match(a, b):
    """Byte-compare two artifact directories, ignoring wall-clock lines."""
    def files(d):
        return sorted(os.path.relpath(os.path.join(r, f), d)
                      for r, _, fs in os.walk(d) for f in fs)

    def strip(blob):
        return b"\n".join(ln for ln in blob.split(b"\n") if b"wall_time_s" not in ln)

    if files(a) != files(b):
        return False
    for rel in files(a):
        with open(os.path.join(a, rel), "rb") as fa, open(os.path.join(b, rel), "rb") as fb:
            if strip(fa.read()) != strip(fb.read()):
                return False
    return True


def env_stamp(workload, seed, level):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": THREAD_ENV,
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "level": level,
        "amplitude": amplitude(workload, level),
    }


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _report_layer_values(values):
    return {"control.cg_iters": values.get("cg_iters", 0),
            "control.outer_iters": values.get("outer_iters", 0),
            "control.terminal_ratio": values.get("terminal_ratio", 0.0)}


def run(workload, seed, seconds, trace):
    level = level_for_seed(seed)
    run_dir = os.path.join(RUNS_DIR, workload, f"seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg_path = os.path.join(run_dir, "experiment.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(config_text(workload, level))

    start = time.monotonic()
    setup, probes, records, failures = [], [], [], []
    layers = None

    def probe_sample():
        try:
            probes.append(_spawn(["probe"])[0]["probe_s"])
        except ChildFailed as exc:
            failures.append(f"probe: {exc}")

    def attempt(mode, tag):
        out_dir = os.path.join(run_dir, tag)
        spans = os.path.join(run_dir, f"spans-{tag}.json") if mode == "trace" else None
        try:
            rec = _experiment(mode, workload, level, cfg_path, out_dir, spans)
        except ChildFailed as exc:
            rec = {"problems": [str(exc)]}
        rec.update(mode=mode, tag=tag)
        records.append(rec)
        if rec["problems"]:
            failures.append(f"{tag}: " + "; ".join(rec["problems"]))
        elif mode == "run":
            setup.append(rec["setup_s"])
        return rec

    try:                    # warm-up: bytecode and page cache
        _spawn(["setup", cfg_path, run_dir])
    except ChildFailed as exc:
        failures.append(f"setup: {exc}")

    if trace:
        try:
            layers = _spawn(["layers", cfg_path, run_dir])[0]["layers"]
        except ChildFailed as exc:
            failures.append(f"layers: {exc}")
        first = time.monotonic()
        i = 0
        while True:
            plain = attempt("run", f"plain{i}")
            traced = attempt("trace", f"traced{i}")
            if not plain["problems"] and not traced["problems"]:
                if not _artifacts_match(os.path.join(run_dir, f"plain{i}"),
                                        os.path.join(run_dir, f"traced{i}")):
                    traced["problems"].append("traced artifacts differ from untraced")
                    failures.append(f"traced{i}: artifacts differ from untraced")
            i += 1
            now = time.monotonic()
            if i >= MIN_PAIRS and now + (now - first) / i > start + seconds:
                break
    else:
        probe_sample()
        first = time.monotonic()
        i = 0
        while True:
            # Each experiment sits between two probe processes, which never
            # import the package.
            attempt("run", f"run{i}")
            probe_sample()
            shutil.rmtree(os.path.join(run_dir, f"run{i}"), ignore_errors=True)
            i += 1
            now = time.monotonic()
            if i >= MIN_EXPERIMENTS and now + (now - first) / i > start + seconds:
                break

    ok = [r for r in records if not r["problems"]]
    metrics = {}
    if trace:
        traced = [r for r in ok if r["mode"] == "trace"]
        plain = [r for r in ok if r["mode"] == "run"]
        if traced and plain:
            names = [k for k in traced[0]["layers"] if not k.startswith("_")]
            for k in names:
                metrics[k] = statistics.median(r["layers"][k] for r in traced)
            hess = [x for r in traced for x in r["layers"]["_hessian_apply_ms"]]
            from tracer import median, tail
            metrics["control.hessian_apply_ms.median"] = median(hess)
            metrics["control.hessian_apply_ms.tail"] = tail(hess)
            metrics["trace.overhead_s"] = (statistics.median(r["solve_s"] for r in traced)
                                           - statistics.median(r["solve_s"] for r in plain))
            metrics.update(_report_layer_values(traced[0]["values"]))
        if layers:
            metrics.update(layers)
        units = layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    elif ok and probes:
        # solve_s as a ratio of means: total time over total probe time
        # followed the host's speed best (see README.md).
        raw = {"setup_s": statistics.median(setup),
               "solve_s": statistics.fmean(r["solve_s"] for r in ok),
               "probe_s": statistics.fmean(probes)}
        speed = probe.REFERENCE_S / raw["probe_s"]
        print("raw", json.dumps(raw))
        metrics = {
            "setup_s": {"value": raw["setup_s"] * speed, "unit": "s"},
            "solve_s": {"value": raw["solve_s"] * speed, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in ok),
                            "unit": "MB"},
        }

    expected = layer_units() if trace else END_TO_END_UNITS
    missing = sorted(set(expected) - set(metrics))
    if missing and not failures:
        failures.append("metrics missing: " + ", ".join(missing))
    stamp = env_stamp(workload, seed, level)
    result = {"correct": not failures, "attempted": len(records),
              "failed": sum(1 for r in records if r["problems"]), "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"result": result, "env": stamp, "seconds": seconds,
                   "setup_samples": setup, "probe_samples": probes,
                   "samples": [{k: r.get(k) for k in ("tag", "mode", "setup_s", "solve_s",
                                                      "peak_rss_mb", "values", "problems")}
                               for r in records],
                   "failures": failures}, fh, indent=1)
    for msg in failures:
        print("FAILED", msg)
    print("env", json.dumps(stamp))
    print(json.dumps(result))
    return 0


def layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bousscontrol", "__init__.py")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
