"""Field and trace persistence.

Fields use a one-line text header followed by raw little-endian float64 bytes
(C order); round-trips are bit-exact.  Energy traces are CSV.
"""

from __future__ import annotations

import os

import numpy as np

from .exceptions import ShapeError
from .forward import EnergyTrace

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
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if parts[0] != _MAGIC:
            raise ShapeError(f"not a field dump: {path}")
        meta = dict(p.split("=", 1) for p in parts[1:])
        shape = (int(meta["nx"]), int(meta["ny"]))
        buf = fh.read()
    arr = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    meta["time"] = float(meta["time"])
    return arr, meta


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


def energy_trace_csv(path, trace: EnergyTrace, preamble: str = "") -> None:
    """One row per node; ``preamble`` (e.g. comment lines) goes first."""
    with open(path, "w") as fh:
        fh.write(preamble)
        fh.write("t,E,Phi,grad_y_sq,theta_sq,grad_theta_sq\n")
        e = trace.energy
        phi = trace.phi
        for k in range(len(trace.t)):
            fh.write(",".join(f"{x:.17g}" for x in (
                trace.t[k], e[k], phi[k], trace.grad_y_sq[k],
                trace.theta_sq[k], trace.grad_theta_sq[k])) + "\n")
