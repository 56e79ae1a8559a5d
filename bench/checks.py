"""Output checks: every timed experiment must reproduce its reference answer.

Reference values (``references.json``) were produced by the program itself at
the commit named in that file, one entry per workload and amplitude level;
``make_references.py`` rebuilds them.

* Values that come out of a CG solve match to a relative tolerance of
  ``CG_RTOL_PER_TOL * cg_tol``.  Tightening cg_tol from 1e-6 to 1e-8 moves
  the linear-sweep terminal norm by 7.8e-5 relative, so a correct solver
  with another iteration path stays well inside 1e-3, while a wrong answer
  moves these values by orders of magnitude.
* Values with no iterative solve (the decay fit) match to ``DIRECT_RTOL``,
  which leaves room only for roundoff.
* Iteration counts may fall (that is what a faster solver does) but may not
  rise above the reference by more than ``count_slack``.
* Regime guards: nonlinear-active must keep terminal_ratio <= 1e-2 with at
  least 2 outer passes, so that it cannot turn back into free decay.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
CG_TOL = 1e-6                 # penalty.cg_tol of both synthesis workloads
CG_RTOL_PER_TOL = 1e3
DIRECT_RTOL = 1e-8
COUNTS = ("cg_iters", "outer_iters")
FLAGS = ("converged", "phi_monotone", "smallness_ok")
GUARDS = {"nonlinear-active": {"max_terminal_ratio": 1e-2, "min_outer_iters": 2}}


def _parse_report(path):
    out, section = {}, ""
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
            elif " = " in line:
                key, val = line.split(" = ", 1)
                out[f"{section}.{key}"] = val
    return out


def report_values(workload, out_dir):
    """The checked quantities of one experiment, read from its reports."""
    path = os.path.join(out_dir, "report.txt")
    if not os.path.isfile(path):
        return {}
    rep = _parse_report(path)
    if workload == "decay-128":
        vals = {k: float(rep[f"decay.{k}"])
                for k in ("decay_c1", "decay_c2", "decay_r_squared", "t_star")}
        vals.update({k: rep[f"decay.{k}"] for k in ("phi_monotone", "smallness_ok")})
        return vals
    sec = "linear_control" if workload == "linear-sweep" else "nonlinear_control"
    tn = float(rep[f"{sec}.terminal_norm"])
    free = float(rep[f"{sec}.uncontrolled_terminal_norm"])
    vals = {"terminal_norm": tn, "uncontrolled_terminal_norm": free,
            "terminal_ratio": tn / free, "cg_iters": int(rep[f"{sec}.cg_iters"]),
            "outer_iters": int(rep[f"{sec}.outer_iters"]),
            "converged": rep[f"{sec}.converged"]}
    i = 0
    while os.path.isfile(os.path.join(out_dir, f"report_eps_{i}.txt")):
        member = _parse_report(os.path.join(out_dir, f"report_eps_{i}.txt"))
        vals[f"sweep{i}.terminal_norm"] = float(member[f"{sec}.terminal_norm"])
        vals[f"sweep{i}.cg_iters"] = int(member[f"{sec}.cg_iters"])
        vals["cg_iters"] += vals[f"sweep{i}.cg_iters"]
        i += 1
    return vals


def count_slack(ref):
    return max(2, ref // 10)


def load_references():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def check_outputs(workload, level, rc, values):
    """List of problems with one experiment's outputs; empty when correct."""
    if rc != 0:
        return [f"experiment exited {rc}"]
    refs = load_references()["values"][workload][str(level)]
    problems = []
    rtol = DIRECT_RTOL if workload == "decay-128" else CG_RTOL_PER_TOL * CG_TOL
    for key, ref in refs.items():
        got = values.get(key)
        name = key.split(".")[-1]
        if got is None:
            problems.append(f"{key} missing")
        elif name in COUNTS or name.endswith("cg_iters"):
            if got > ref + count_slack(ref):
                problems.append(f"{key} = {got} > reference {ref} + {count_slack(ref)}")
        elif name in FLAGS:
            if got != ref:
                problems.append(f"{key} = {got}, reference {ref}")
        elif abs(got - ref) > rtol * abs(ref):
            problems.append(f"{key} = {got!r} differs from reference {ref!r} "
                            f"by more than {rtol:g} relative")
    guard = GUARDS.get(workload)
    if guard and values:
        if values["terminal_ratio"] > guard["max_terminal_ratio"]:
            problems.append(f"terminal_ratio {values['terminal_ratio']:.3g} > "
                            f"{guard['max_terminal_ratio']:g}: control not doing the work")
        if values["outer_iters"] < guard["min_outer_iters"]:
            problems.append(f"outer_iters {values['outer_iters']} < "
                            f"{guard['min_outer_iters']}: outer loop not exercised")
    return problems
