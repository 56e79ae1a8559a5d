"""Artifact writing: field dumps, CSV tables and key = value reports.

Fields use a one-line text header followed by raw little-endian float64 bytes
(C order); round-trips are bit-exact.  Every number in a CSV row or a report
is formatted here: CSV rows in .17g, report values by ``format_value``.
"""

from __future__ import annotations

import os

import numpy as np

from .exceptions import ShapeError
from .forward import EnergyTrace
from .weights import WeightTables

_MAGIC = "BCFIELD1"


def dump_field(path, arr: np.ndarray, kind: str, time: float) -> None:
    a = np.ascontiguousarray(arr, dtype="<f8")
    if a.ndim != 2:
        raise ShapeError("field dumps are 2-D")
    header = (f"{_MAGIC} kind={kind} nx={a.shape[0]} ny={a.shape[1]} "
              f"time={time!r}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(a.tobytes())


def load_field(path):
    """(array, header fields) of a ``dump_field`` file; ShapeError when it
    is not one, its header lacks a field or holds a bad nx, ny or time, or
    its data is not nx * ny float64 values."""
    with open(path, "rb") as fh:
        parts = fh.readline().decode("ascii", "replace").split()
        if not parts or parts[0] != _MAGIC:
            raise ShapeError(f"not a field dump: {path}")
        try:
            meta = dict(p.split("=", 1) for p in parts[1:])
            shape = (int(meta["nx"]), int(meta["ny"]))
            meta["time"] = float(meta["time"])
            if min(shape) < 0:
                raise ValueError
        except (KeyError, ValueError):
            raise ShapeError(f"field dump {path} has a broken header") from None
        buf = fh.read()
    if len(buf) != 8 * shape[0] * shape[1]:
        raise ShapeError(f"field dump {path} holds {len(buf)} data bytes, "
                         f"expected {8 * shape[0] * shape[1]} for {shape}")
    return np.frombuffer(buf, dtype="<f8").reshape(shape).copy(), meta


class StateWriter:
    """An ``on_state`` hook streaming each level to disk as it is produced:
    ``state_{u,v,theta}_{k:05d}.fld`` at time ``t``, listed in ``paths``."""

    def __init__(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        self.outdir = outdir
        self.paths: list = []

    def __call__(self, k, t, u, v, th):
        for name, arr in (("u", u), ("v", v), ("theta", th)):
            p = os.path.join(self.outdir, f"state_{name}_{k:05d}.fld")
            dump_field(p, arr, f"state:{name}", float(t))
            self.paths.append(p)


def _row(values) -> str:
    return ",".join(f"{x:.17g}" for x in values)


def _write_csv(path, header: list, columns, preamble: str = "") -> None:
    """A header line, then one .17g row per index of the equal-length
    ``columns``; ``preamble`` (e.g. comment lines) goes first."""
    with open(path, "w") as fh:
        fh.write(preamble + ",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(_row(row) + "\n")


def energy_trace_csv(path, trace: EnergyTrace, preamble: str = "") -> None:
    """One row per node; ``preamble`` (e.g. comment lines) goes first."""
    _write_csv(path, ["t", "E", "Phi", "grad_y_sq", "theta_sq", "grad_theta_sq"],
               (trace.t, trace.energy, trace.phi, trace.grad_y_sq, trace.theta_sq,
                trace.grad_theta_sq), preamble)


def sweep_csv(path, members, preamble: str = "") -> None:
    """One row per eps-sweep member report (``SynthesisReport``): eps, CG
    iterations (those the member ran itself, after its projection onto the
    recycle space; ``control.solve_linear_control``), J_eps (the last
    ``j_history`` entry), the terminal norm, that norm over sqrt(eps) and
    the weighted control energy."""
    _write_csv(path, ["eps", "cg_iters", "j_eps", "terminal_norm",
                      "terminal_over_sqrt_eps", "control_energy_weighted"],
               zip(*[(m.eps, m.cg_iters, m.j_history[-1], m.terminal_norm,
                      m.terminal_norm / np.sqrt(m.eps), m.control_energy_weighted)
                     for m in members]), preamble)


def export_weight_csv(tables: WeightTables, path) -> None:
    """The per-node raw log tables; the t = T row reads inf."""
    names = ["alpha_star", "alpha_hat", "xi_star", "xi_hat", *tables.raw_composites]
    data = [tables.raw_log_alpha_star, tables.raw_log_alpha_hat,
            tables.raw_log_xi_star, tables.raw_log_xi_hat,
            *tables.raw_composites.values()]
    _write_csv(path, ["t"] + [f"log_{n}" for n in names], [tables.t, *data])


# ---------------------------------------------------------------------------
# reports


def format_value(key: str, value) -> str:
    """A report value as text: wall-clock values (keys ending in
    ``wall_time_s``) in .6f, floats in .17g, a list of floats comma-joined in
    .17g, and anything else (int, bool, str) by ``str``."""
    if key.endswith("wall_time_s"):
        return f"{value:.6f}"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return _row(value)
    return str(value)


def emit_report(path, sections: dict, config_hash: str = "", grid_hash: str = "") -> None:
    """Write ``sections`` (name -> ordered key -> value mapping) as a
    key = value report, sections sorted by name and keys in their order;
    re-runs are byte-identical apart from the wall-clock lines."""
    with open(path, "w") as fh:
        fh.write(f"config_hash = {config_hash}\n")
        fh.write(f"grid_hash = {grid_hash}\n")
        for name in sorted(sections):
            fh.write(f"[{name}]\n")
            for key, value in sections[name].items():
                fh.write(f"{key} = {format_value(key, value)}\n")


def parse_report(path) -> dict:
    """Read back an emitted report; numeric values are parsed as floats.  A
    file that is not UTF-8 text raises ShapeError naming it."""
    out: dict = {}
    section = ""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as err:
        raise ShapeError(f"report {path} is not UTF-8 text (byte {err.start})") from None
    for line in lines:
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1] + "."
            continue
        if " = " not in line:
            continue
        key, val = line.split(" = ", 1)
        try:
            out[section + key] = float(val)
        except ValueError:
            out[section + key] = val
    return out
