"""One benchmark process: ``python3 bench/worker.py MODE CONFIG OUT [SPANS]``.

MODE is one of
  probe   time the machine-speed probe (probe.py) without importing the
          package, so that the yardstick cannot depend on the program
          (CONFIG and OUT unused);
  setup   import the package and parse CONFIG;
  run     import and parse, then run the experiment into OUT untraced;
  trace   run it with the span tracer installed, and write the spans to SPANS;
  layers  time single layers at 32^2, 64^2 and 128^2 (CONFIG and OUT unused).

The process prints one JSON line with its measurements.  ``setup_mark`` is
``time.monotonic()`` once the package is imported and the config parsed; the
parent subtracts its own reading taken just before it started the process.
The package is imported from the ``src`` directory next to ``bench``, never
from anywhere else.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)


def _import_and_parse(config_path):
    import bousscontrol
    from bousscontrol.config import parse_config_text

    if not os.path.abspath(bousscontrol.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bousscontrol imported from {bousscontrol.__file__}, "
                         f"not from {SRC}")
    with open(config_path) as fh:
        cfg = parse_config_text(fh.read())
    return cfg, time.monotonic()


def _artifact_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(out_dir) for f in fs)


def main(argv):
    mode = argv[1]
    if mode == "probe":
        import probe
        print(json.dumps({"probe_s": probe.measure()}))
        return 0
    if mode == "layers":
        import layers
        print(json.dumps({"layers": layers.measure()}))
        return 0

    config_path, out_dir = argv[2], argv[3]
    cfg, setup_mark = _import_and_parse(config_path)
    result = {"setup_mark": setup_mark}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    from bousscontrol.runner import run_experiment

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer(run_id=os.path.basename(out_dir))
        tracer.install()
    t0 = time.perf_counter()
    try:
        rc = run_experiment(cfg, out_dir)
    finally:
        solve_s = time.perf_counter() - t0
        restored = tracer.uninstall() if tracer is not None else True
    result.update(rc=rc, solve_s=solve_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.dump(argv[4])
        metrics = tracer.metrics(solve_s)
        metrics["runner.artifact_bytes"] = _artifact_bytes(out_dir)
        result.update(layers=metrics, wrappers_removed=restored)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
