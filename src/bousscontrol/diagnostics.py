"""Weighted a-priori norms, the energy-decay fit, the waiting-time formula,
and deterministic report emission.

Weighted quantities use time-normalized weight profiles (log 0 at their
minimum over the horizon): the raw weight magnitudes are off-scale constants,
and only the blow-up shape relative to t = 0 carries information.  Their
values reach e^(1e16) near T, so each is computed and reported as a log10,
with no cap: a weighted sum is one log-sum-exp over the time nodes of
2 log w_n + log sq_n (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41,
2021), a sup is a max of the same terms, and a zero quantity reads -inf.
Sums and sups both run over the nodes t_n < T, where every weight is finite;
at t = T the weights are +inf.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import logsumexp

from .exceptions import DomainError
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .control import ControlTrajectory, scatter
from .forward import EnergyTrace
from .weights import (WeightTables, control_weight_logs, default_t_clip,
                      time_derivative)

_LN10 = np.log(10.0)


def normalized_node_logs(tables: WeightTables, name: str) -> np.ndarray:
    """Per-node log weight on the nodes t_n < T, shifted to min 0."""
    raw = tables.raw(name)[:-1]
    return raw - raw.min()


def _log(x) -> np.ndarray:
    """Natural log of a nonnegative array, -inf (and no warning) where x = 0."""
    x = np.asarray(x, dtype=float)
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0.0)


def _log10_sum(logw: np.ndarray, sq: np.ndarray, scale: float) -> float:
    """log10 of scale * sum_n w_n^2 sq_n, as one log-sum-exp over the nodes."""
    return float((logsumexp(2.0 * logw + _log(sq)) + np.log(scale)) / _LN10)


def _log10_sup(logw: np.ndarray, sq: np.ndarray) -> float:
    """log10 of max_n w_n^2 sq_n."""
    return float(np.max(2.0 * logw + _log(sq)) / _LN10)


@dataclass
class WeightedNormReport:
    """log10 of each weighted norm; -inf for a zero quantity."""

    iint_rho1_sq_state: float
    iint_rho2_sq_controls: float
    sup_mu1_y: float
    iint_mu1_grad_y: float
    sup_mu2_grad_y: float
    iint_mu2_yt_dy: float
    mu2_theta_t_L32: float
    mu2_lap_theta_L32: float
    kappa_control_norms: dict

    def lines(self):
        out = [(f.name, getattr(self, f.name)) for f in fields(self)[:-1]]
        out += [("kappa_" + k, v) for k, v in sorted(self.kappa_control_norms.items())]
        return [f"log10_{k} = {v:.17g}" for k, v in out]


class NormSamples:
    """An ``on_state`` hook recording, node by node, the squared norms that
    ``weighted_norms`` sums over a run of ``tgrid``: at each level n < nt the
    state, |y|^2, |grad y|^2 and the Laplacian parts; from levels n and n + 1
    the forward time differences of node n (it keeps the previous level)."""

    def __init__(self, grid: GridSpec, tgrid: TimeGrid):
        self.grid, self.tgrid = grid, tgrid
        (self.state_sq, self.y_sq, self.grad_y_sq, self.lap_y_sq, self.yt_dy_sq,
         self.th_t_l32, self.lap_th_l32) = (np.zeros(tgrid.nt) for _ in range(7))
        self._prev = None

    def __call__(self, k, t, u, v, th):
        grid, nt, dt = self.grid, self.tgrid.nt, self.tgrid.dt
        if k > 0:
            n, (pu, pv, pth) = k - 1, self._prev
            ut = (u - pu) / dt
            vt = (v - pv) / dt
            self.yt_dy_sq[n] = ops.norm_velocity(ut, vt, grid) ** 2 + self.lap_y_sq[n]
            tht = (th - pth) / dt
            self.th_t_l32[n] = ops.lp_norm_cells(tht, 1.5, grid) ** 2
        if k < nt:
            self.state_sq[k] = ops.state_norm_sq(u, v, th, grid)
            self.y_sq[k] = ops.norm_velocity(u, v, grid) ** 2
            self.grad_y_sq[k] = ops.h1_seminorm_sq_velocity(u, v, grid)
            lu = ops.laplacian_u(u, grid)
            lv = ops.laplacian_v(v, grid)
            self.lap_y_sq[k] = ops.norm_velocity(lu, lv, grid) ** 2
            self.lap_th_l32[k] = ops.lp_norm_cells(ops.laplacian_cells(th, grid),
                                                   1.5, grid) ** 2
        self._prev = (u, v, th)


def weighted_norms(samples: NormSamples, controls: ControlTrajectory | None,
                   tables: WeightTables, grid: GridSpec, tgrid: TimeGrid,
                   t_clip: float | None = None) -> WeightedNormReport:
    """log10 of the weighted state/control norms of the a-priori estimates,
    from the per-node ``samples`` of the state run.

    The rho2-weighted control energy uses the synthesis weight convention
    (t_clip-frozen, normalized), so it matches the energy reported by the
    linear solve when the same t_clip is passed.  Sups, like the time
    integrals, run over the nodes t_n < T.
    """
    dt = tgrid.dt
    lw1, lmu1, lmu2 = (normalized_node_logs(tables, n) for n in ("rho1", "mu1", "mu2"))

    rho2_controls = -np.inf
    kappa_norms = {}
    if controls is not None:
        lw2 = control_weight_logs(tables, default_t_clip(t_clip, tgrid))
        control_sq = sum(np.sum(a * a, axis=(1, 2)) for a in controls.parts)
        rho2_controls = _log10_sum(lw2, control_sq, grid.cell_area * dt)
        kappa_norms = control_regularity_report(controls, tables, grid, tgrid,
                                                t_clip=t_clip)

    return WeightedNormReport(
        iint_rho1_sq_state=_log10_sum(lw1, samples.state_sq, dt),
        iint_rho2_sq_controls=rho2_controls,
        sup_mu1_y=_log10_sup(lmu1, samples.y_sq),
        iint_mu1_grad_y=_log10_sum(lmu1, samples.grad_y_sq, dt),
        sup_mu2_grad_y=_log10_sup(lmu2, samples.grad_y_sq),
        iint_mu2_yt_dy=_log10_sum(lmu2, samples.yt_dy_sq, dt),
        mu2_theta_t_L32=_log10_sum(lmu2, samples.th_t_l32, dt),
        mu2_lap_theta_L32=_log10_sum(lmu2, samples.lap_th_l32, dt),
        kappa_control_norms=kappa_norms,
    )


def control_regularity_report(controls: ControlTrajectory, tables: WeightTables,
                              grid: GridSpec, tgrid: TimeGrid,
                              t_clip: float | None = None) -> dict:
    """log10 of the kappa-weighted control regularity quantities:
    iint |(k v)_t|^2, |(k v0)_t|^2, |k lap v|^2, |k lap v0|^2 and the sup-in-
    time H^1 norms (-inf where zero).  Time derivatives by central differences.

    kappa v is formed as e^M (kappa v e^-M), with M the largest log|kappa v|:
    the stencils act on fields bounded by 1, and each entry is 2M + log(sum).
    Everything is computed on the controls' box; the stencils see one level
    at a time scattered onto the whole grid.
    """
    nt, dt = tgrid.nt, tgrid.dt
    logk = control_weight_logs(tables, default_t_clip(t_clip, tgrid),
                               name="kappa")[:, None, None]
    parts = controls.parts
    logs = [logk + _log(np.abs(f)) for f in parts]
    big = max(float(np.max(lg, initial=-np.inf)) for lg in logs)
    if big == -np.inf:  # zero controls
        big = 0.0
    kvu, kvv, kv0 = (np.sign(f) * np.exp(lg - big) for f, lg in zip(parts, logs))

    q = grid.cell_area
    dkv_sq = float(np.sum(time_derivative(kvu, dt) ** 2)
                   + np.sum(time_derivative(kvv, dt) ** 2)) * q * dt
    dkv0_sq = float(np.sum(time_derivative(kv0, dt) ** 2)) * q * dt
    lap_sq = 0.0
    lap0_sq = 0.0
    sup_h1_v = 0.0
    sup_h1_v0 = 0.0
    for n in range(nt):
        ku, kv, k0 = scatter((kvu[n], kvv[n], kv0[n]), controls.box, grid)
        lu = ops.laplacian_u(ku, grid)
        lv = ops.laplacian_v(kv, grid)
        lap_sq += (ops.norm_velocity(lu, lv, grid) ** 2) * dt
        lc = ops.laplacian_cells(k0, grid)
        lap0_sq += (ops.norm_cells(lc, grid) ** 2) * dt
        sup_h1_v = max(sup_h1_v, ops.norm_velocity(ku, kv, grid) ** 2
                       + ops.h1_seminorm_sq_velocity(ku, kv, grid))
        sup_h1_v0 = max(sup_h1_v0, ops.norm_cells(k0, grid) ** 2
                        + ops.h1_seminorm_sq_cells(k0, grid))

    sums = {
        "iint_dt_kv_sq": dkv_sq,
        "iint_dt_kv0_sq": dkv0_sq,
        "iint_lap_kv_sq": lap_sq,
        "iint_lap_kv0_sq": lap0_sq,
        "sup_h1_kv_sq": sup_h1_v,
        "sup_h1_kv0_sq": sup_h1_v0,
    }
    logs_sums = (2.0 * big + _log(list(sums.values()))) / _LN10
    return dict(zip(sums, map(float, logs_sums)))


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
