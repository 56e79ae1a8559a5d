#!/usr/bin/env python3
"""Rebuild references.json: run every workload at every amplitude level once
and store the checked report values.

    python3 bench/make_references.py

Run it only on a commit whose answers are trusted; a change that claims a
speed-up must pass against the references it inherited.
"""

import json
import os
import shutil

from checks import report_values
from run import RUNS_DIR, _git_commit, _spawn
from workloads import LEVELS, WORKLOADS, config_text


def main():
    work = os.path.join(RUNS_DIR, "references")
    os.makedirs(work, exist_ok=True)
    values = {}
    for workload in WORKLOADS:
        values[workload] = {}
        for level in range(LEVELS):
            cfg = os.path.join(work, f"{workload}-{level}.cfg")
            out = os.path.join(work, f"{workload}-{level}")
            with open(cfg, "w") as fh:
                fh.write(config_text(workload, level))
            shutil.rmtree(out, ignore_errors=True)
            res, _ = _spawn(["run", cfg, out])
            if res["rc"] != 0:
                raise SystemExit(f"{workload} level {level} exited {res['rc']}")
            values[workload][str(level)] = report_values(workload, out)
            print(workload, level, values[workload][str(level)], flush=True)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "references.json"), "w") as fh:
        json.dump({"commit": _git_commit(), "values": values}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
