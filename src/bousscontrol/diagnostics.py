"""Weighted a-priori norms, the energy-decay fit, the waiting-time formula,
and deterministic report emission.

Weighted quantities use time-normalized weight profiles (value 1 at their
minimum over the horizon) with a saturation cap, evaluated through logs: the
raw weight magnitudes are off-scale constants, and only the blow-up shape
relative to t = 0 carries information.  Entries that hit the cap are flagged,
never silently clipped to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .control import ControlTrajectory, weighted_control_energy
from .forward import EnergyTrace, Trajectory
from .weights import (WeightTables, control_weight_logs, default_t_clip,
                      time_derivative)

_SUM_CAP = 600.0     # per-term exponent cap inside weighted sums
_POINT_CAP = 345.0   # per-point cap for materialized weighted fields
# state-norm weights cap below half the sum cap so quadratic entries keep
# their degree-2 homogeneity for any state of moderate magnitude
STATE_WEIGHT_LOG_CAP = 250.0


def normalized_node_logs(tables: WeightTables, name: str,
                         cap: float = STATE_WEIGHT_LOG_CAP) -> np.ndarray:
    """Per-node log weight, shifted to min 0 and clipped at ``cap``."""
    raw = tables.raw(name)
    finite = raw[np.isfinite(raw)]
    if finite.size == 0:
        raise DomainError(f"weight {name!r} has no finite nodes")
    return np.clip(raw - finite.min(), 0.0, cap)


def _capped_terms(logw: np.ndarray, sq_per_node: np.ndarray) -> tuple[list, bool]:
    """w_n^2 * sq_n for every sq_n > 0, through logs with the exponent capped
    at _SUM_CAP; returns (terms, saturated)."""
    terms = []
    saturated = False
    for lw, sq in zip(logw, sq_per_node):
        if sq <= 0.0:
            continue
        expo = 2.0 * lw + np.log(sq)
        if expo > _SUM_CAP:
            saturated = True
            expo = _SUM_CAP
        terms.append(np.exp(expo))
    return terms, saturated


def _weighted_sq_time_integral(logw: np.ndarray, sq_per_node: np.ndarray,
                               dt: float) -> tuple[float, bool]:
    """sum_n dt * w_n^2 * sq_n through logs; returns (value, saturated)."""
    terms, saturated = _capped_terms(logw, sq_per_node)
    return sum(terms, 0.0) * dt, saturated


def _weighted_sq_sup(logw: np.ndarray, sq_per_node: np.ndarray) -> tuple[float, bool]:
    terms, saturated = _capped_terms(logw, sq_per_node)
    return float(max([0.0, *terms])), saturated


@dataclass
class WeightedNormReport:
    iint_rho1_sq_state: float
    iint_rho2_sq_controls: float
    sup_mu1_y: float
    iint_mu1_grad_y: float
    sup_mu2_grad_y: float
    iint_mu2_yt_dy: float
    mu2_theta_t_L32: float
    mu2_lap_theta_L32: float
    kappa_control_norms: dict
    saturated_entries: list = field(default_factory=list)

    def lines(self):
        out = []
        for k in ("iint_rho1_sq_state", "iint_rho2_sq_controls", "sup_mu1_y",
                  "iint_mu1_grad_y", "sup_mu2_grad_y", "iint_mu2_yt_dy",
                  "mu2_theta_t_L32", "mu2_lap_theta_L32"):
            out.append(f"{k} = {getattr(self, k):.17g}")
        for k, v in sorted(self.kappa_control_norms.items()):
            out.append(f"kappa_{k} = {v:.17g}")
        out.append("saturated_entries = " + (",".join(self.saturated_entries) or "none"))
        return out


def weighted_norms(traj: Trajectory, controls: ControlTrajectory | None,
                   tables: WeightTables, grid: GridSpec, tgrid: TimeGrid,
                   t_clip: float | None = None) -> WeightedNormReport:
    """Evaluate the weighted state/control norms of the a-priori estimates.

    The rho2-weighted control energy uses the synthesis weight convention
    (t_clip-frozen, normalized, capped), so it matches the energy reported by
    the linear solve when the same t_clip is passed.
    """
    nt, dt = tgrid.nt, tgrid.dt
    sat: list[str] = []

    lw1 = normalized_node_logs(tables, "rho1")[:nt]
    lmu1 = normalized_node_logs(tables, "mu1")
    lmu2 = normalized_node_logs(tables, "mu2")

    state_sq = np.array([ops.state_norm_sq(traj.u[n], traj.v[n], traj.theta[n], grid)
                         for n in range(nt + 1)])
    y_sq = np.array([ops.norm_velocity(traj.u[n], traj.v[n], grid) ** 2
                     for n in range(nt + 1)])
    grad_y_sq = np.array([ops.h1_seminorm_sq_velocity(traj.u[n], traj.v[n], grid)
                          for n in range(nt + 1)])

    v_rho1, s1 = _weighted_sq_time_integral(lw1, state_sq[:nt], dt)
    if s1:
        sat.append("iint_rho1_sq_state")

    if controls is not None:
        lw2 = control_weight_logs(tables, default_t_clip(t_clip, tgrid))
        v_rho2 = weighted_control_energy(controls, lw2, grid, dt)
    else:
        v_rho2 = 0.0

    sup_m1, s2 = _weighted_sq_sup(lmu1, y_sq)
    int_m1, s3 = _weighted_sq_time_integral(lmu1[:nt], grad_y_sq[:nt], dt)
    sup_m2, s4 = _weighted_sq_sup(lmu2, grad_y_sq)
    for flag, name in ((s2, "sup_mu1_y"), (s3, "iint_mu1_grad_y"), (s4, "sup_mu2_grad_y")):
        if flag:
            sat.append(name)

    yt_dy_sq = np.zeros(nt)
    th_t_l32 = np.zeros(nt)
    lap_th_l32 = np.zeros(nt + 1)
    for n in range(nt):
        ut = (traj.u[n + 1] - traj.u[n]) / dt
        vt = (traj.v[n + 1] - traj.v[n]) / dt
        lu = ops.laplacian_u(traj.u[n], grid)
        lv = ops.laplacian_v(traj.v[n], grid)
        yt_dy_sq[n] = (ops.norm_velocity(ut, vt, grid) ** 2
                       + ops.norm_velocity(lu, lv, grid) ** 2)
        tht = (traj.theta[n + 1] - traj.theta[n]) / dt
        th_t_l32[n] = ops.lp_norm_cells(tht, 1.5, grid) ** 2
    for n in range(nt + 1):
        lap_th_l32[n] = ops.lp_norm_cells(ops.laplacian_cells(traj.theta[n], grid),
                                          1.5, grid) ** 2

    int_yt, s5 = _weighted_sq_time_integral(lmu2[:nt], yt_dy_sq, dt)
    int_tht, s6 = _weighted_sq_time_integral(lmu2[:nt], th_t_l32, dt)
    int_lth, s7 = _weighted_sq_time_integral(lmu2[:nt], lap_th_l32[:nt], dt)
    for flag, name in ((s5, "iint_mu2_yt_dy"), (s6, "mu2_theta_t_L32"),
                       (s7, "mu2_lap_theta_L32")):
        if flag:
            sat.append(name)

    kappa_norms = {}
    if controls is not None:
        reg = control_regularity_report(controls, tables, grid, tgrid, t_clip=t_clip)
        kappa_norms = reg.entries
        sat.extend("kappa_" + n for n in reg.saturated_entries)

    return WeightedNormReport(
        iint_rho1_sq_state=v_rho1,
        iint_rho2_sq_controls=v_rho2,
        sup_mu1_y=sup_m1,
        iint_mu1_grad_y=int_m1,
        sup_mu2_grad_y=sup_m2,
        iint_mu2_yt_dy=int_yt,
        mu2_theta_t_L32=int_tht,
        mu2_lap_theta_L32=int_lth,
        kappa_control_norms=kappa_norms,
        saturated_entries=sat,
    )


@dataclass
class RegularityReport:
    entries: dict
    saturated_entries: list


def _kappa_times(field_arr: np.ndarray, logk: np.ndarray) -> np.ndarray:
    """sign(f) * exp(log kappa + log |f|), pointwise, capped."""
    out = np.zeros_like(field_arr)
    for n in range(field_arr.shape[0]):
        f = field_arr[n]
        nz = f != 0.0
        expo = logk[n] + np.log(np.abs(f[nz]))
        out[n][nz] = np.sign(f[nz]) * np.exp(np.clip(expo, -745.0, _POINT_CAP))
    return out


def control_regularity_report(controls: ControlTrajectory, tables: WeightTables,
                              grid: GridSpec, tgrid: TimeGrid,
                              t_clip: float | None = None) -> RegularityReport:
    """Finiteness report for the kappa-weighted control regularity quantities:
    iint |(k v)_t|^2, |(k v0)_t|^2, |k lap v|^2, |k lap v0|^2 and the sup-in-
    time H^1 norms.  Time derivatives by central differences."""
    nt, dt = tgrid.nt, tgrid.dt
    logk = control_weight_logs(tables, default_t_clip(t_clip, tgrid), name="kappa")

    kvu = _kappa_times(controls.vu, logk)
    kvv = _kappa_times(controls.vv, logk)
    kv0 = _kappa_times(controls.v0, logk)

    q = grid.cell_area
    # saturated (inf) entries are the designed overflow report, not an error
    with np.errstate(over="ignore"):
        dkv_sq = float(np.sum(time_derivative(kvu, dt) ** 2)
                       + np.sum(time_derivative(kvv, dt) ** 2)) * q * dt
        dkv0_sq = float(np.sum(time_derivative(kv0, dt) ** 2)) * q * dt

        lap_sq = 0.0
        lap0_sq = 0.0
        sup_h1_v = 0.0
        sup_h1_v0 = 0.0
        for n in range(nt):
            lu = ops.laplacian_u(kvu[n], grid)
            lv = ops.laplacian_v(kvv[n], grid)
            lap_sq += (ops.norm_velocity(lu, lv, grid) ** 2) * dt
            lc = ops.laplacian_cells(kv0[n], grid)
            lap0_sq += (ops.norm_cells(lc, grid) ** 2) * dt
            sup_h1_v = max(sup_h1_v, ops.norm_velocity(kvu[n], kvv[n], grid) ** 2
                           + ops.h1_seminorm_sq_velocity(kvu[n], kvv[n], grid))
            sup_h1_v0 = max(sup_h1_v0, ops.norm_cells(kv0[n], grid) ** 2
                            + ops.h1_seminorm_sq_cells(kv0[n], grid))

    entries = {
        "iint_dt_kv_sq": dkv_sq,
        "iint_dt_kv0_sq": dkv0_sq,
        "iint_lap_kv_sq": lap_sq,
        "iint_lap_kv0_sq": lap0_sq,
        "sup_h1_kv_sq": sup_h1_v,
        "sup_h1_kv0_sq": sup_h1_v0,
    }
    saturated = [k for k, v in entries.items() if not np.isfinite(v)]
    return RegularityReport(entries=entries, saturated_entries=saturated)


@dataclass
class DecayFit:
    c1: float
    c2: float
    r_squared: float
    window: tuple[float, float]

    def lines(self):
        return [f"decay_c1 = {self.c1:.17g}", f"decay_c2 = {self.c2:.17g}",
                f"decay_r_squared = {self.r_squared:.17g}",
                f"decay_window = [{self.window[0]:.6g}, {self.window[1]:.6g}]"]


def decay_window(t: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Mask of the nodes ``t`` that lie in the closed fit window."""
    lo, hi = window
    return (t >= lo) & (t <= hi)


def decay_fit(trace: EnergyTrace, window: tuple[float, float]) -> DecayFit:
    """Least-squares line on (t, ln E): E(t) ~= C2 e^{-C1 t} E(0)."""
    t = trace.t
    e = trace.energy
    lo, hi = window
    sel = decay_window(t, window)
    if sel.sum() < 2:
        raise DomainError("decay window contains fewer than 2 samples")
    if np.any(e[sel] <= 0.0):
        raise DomainError("degenerate trace: nonpositive energy inside the fit window")
    if e[0] <= 0.0:
        raise DomainError("degenerate trace: E(0) <= 0")
    ts, ys = t[sel], np.log(e[sel])
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = ys - (slope * ts + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0.0 else 1.0
    return DecayFit(c1=-float(slope), c2=float(np.exp(intercept)) / float(e[0]),
                    r_squared=r2, window=(float(lo), float(hi)))


def t_star(fit: DecayFit, delta: float, e0: float) -> float:
    """Waiting time (-1/C1) ln(delta / (C2 E0)), clamped at 0."""
    if fit.c1 <= 0.0:
        raise DomainError("no decay: fitted C1 <= 0")
    if delta <= 0.0 or e0 <= 0.0:
        raise DomainError("delta and E0 must be positive")
    return max(0.0, -np.log(delta / (fit.c2 * e0)) / fit.c1)


# ---------------------------------------------------------------------------
# report emission


def emit_report(path, sections: dict, config_hash: str = "", grid_hash: str = "") -> None:
    """Write a structured key = value report; re-runs are byte-identical
    (the caller owns any timing lines it includes)."""
    with open(path, "w") as fh:
        fh.write(f"config_hash = {config_hash}\n")
        fh.write(f"grid_hash = {grid_hash}\n")
        for name in sorted(sections):
            fh.write(f"[{name}]\n")
            for line in sections[name]:
                fh.write(line + "\n")


def parse_report(path) -> dict:
    """Read back an emitted report; numeric values are parsed as floats."""
    out: dict = {}
    section = ""
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
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
