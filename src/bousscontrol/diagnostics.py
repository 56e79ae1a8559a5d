"""Weighted a-priori norms, the energy-decay fit and the waiting-time formula.

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

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .control import ControlTrajectory, scatter
from .forward import EnergyTrace, block_levels, level_blocks
from .geometry import box_within, control_window
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


def _logsumexp(x: np.ndarray) -> float:
    """log sum_n e^(x_n) with the largest terms split off: m entries equal
    the max M, the rest sum (shifted by M) to s, and the result is
    log1p(s / m) + log m + M.  A non-finite M (every x_n = -inf, a +inf, a
    NaN) is returned as it is."""
    big = np.max(x, initial=-np.inf)
    if not np.isfinite(big):
        return float(big)
    top = x == big
    m = float(np.count_nonzero(top))
    rest = np.exp(x - big)
    rest[top] = 0.0
    return float(np.log1p(np.sum(rest) / m) + np.log(m) + big)


def _log10_sum(logw: np.ndarray, sq: np.ndarray, scale: float) -> float:
    """log10 of scale * sum_n w_n^2 sq_n, as one log-sum-exp over the nodes."""
    return float((_logsumexp(2.0 * logw + _log(sq)) + np.log(scale)) / _LN10)


def _log10_sup(logw: np.ndarray, sq: np.ndarray) -> float:
    """log10 of max_n w_n^2 sq_n."""
    return float(np.max(2.0 * logw + _log(sq)) / _LN10)


_SAMPLES = ("state_sq", "y_sq", "grad_y_sq", "lap_y_sq", "yt_dy_sq", "th_t_l32",
            "lap_th_l32")


def _squares(norms) -> list:
    """Python float squares of per-level norms: ``x ** 2`` of a float (a libm
    pow) does not always round like the array square x * x."""
    return [x ** 2 for x in norms.tolist()]


class NormSamples:
    """An ``on_state`` hook recording, node by node, the squared norms that
    ``weighted_norms`` sums over a run of ``tgrid``: at each level n < nt the
    state, |y|^2, |grad y|^2 and the Laplacian parts; from levels n and n + 1
    the forward time differences of node n.

    It stacks the levels into blocks (``forward.level_blocks``), evaluates
    the stencils and sums on a block at a time, and carries the block's last
    level over to the next for the time differences.  The samples, read as
    the attributes named in ``_SAMPLES``, exist once all nt + 1 levels have
    arrived: reading them earlier (a run that a hook or an error ended)
    raises DomainError.
    """

    def __init__(self, grid: GridSpec, tgrid: TimeGrid):
        self.grid, self.tgrid = grid, tgrid
        self._samples = {name: np.zeros(tgrid.nt) for name in _SAMPLES}
        self._prev = None
        self.received = 0      # levels handed to the hook
        self._hook = level_blocks(grid, tgrid.nt + 1, self._block)

    def __call__(self, k, t, u, v, th):
        self.received += 1
        self._hook(k, t, u, v, th)

    def __getattr__(self, name):
        if name not in _SAMPLES:
            raise AttributeError(name)
        if self.received < self.tgrid.nt + 1:
            raise DomainError(f"norm samples read after {self.received} of the "
                              f"{self.tgrid.nt + 1} levels of the run")
        return self._samples[name]

    def _block(self, k0, u, v, th):
        grid, nt, dt, out = self.grid, self.tgrid.nt, self.tgrid.dt, self._samples
        m = min(len(u), nt - k0)    # the block's levels n < nt
        us, vs, ths = u[:m], v[:m], th[:m]
        # ops.state_norm_sq, with its velocity part kept for y_sq
        y_sq = _squares(ops.norm_velocity(us, vs, grid))
        th_sq = _squares(ops.norm_cells(ths, grid))
        lap_y_sq = _squares(ops.norm_velocity(ops.laplacian_u(us, grid),
                                              ops.laplacian_v(vs, grid), grid))
        lap_th = _squares(ops.lp_norm_cells(ops.laplacian_cells(ths, grid), 1.5, grid))
        rows = slice(k0, k0 + m)
        out["y_sq"][rows] = y_sq
        out["state_sq"][rows] = [a + b for a, b in zip(y_sq, th_sq)]
        out["grad_y_sq"][rows] = [ops.h1_seminorm_sq_velocity(a, b, grid)
                                  for a, b in zip(us, vs)]
        out["lap_y_sq"][rows] = lap_y_sq
        out["lap_th_l32"][rows] = lap_th
        # forward differences of nodes k - 1, the block's first level taking
        # the previous block's last
        levels = (u, v, th) if self._prev is None else tuple(
            np.concatenate((p[None], a)) for p, a in zip(self._prev, (u, v, th)))
        ut, vt, tht = ((a[1:] - a[:-1]) / dt for a in levels)
        nodes = slice(max(k0 - 1, 0), k0 + len(u) - 1)
        out["yt_dy_sq"][nodes] = (_squares(ops.norm_velocity(ut, vt, grid))
                                  + out["lap_y_sq"][nodes])
        out["th_t_l32"][nodes] = _squares(ops.lp_norm_cells(tht, 1.5, grid))
        self._prev = tuple(a[-1].copy() for a in (u, v, th))


def weighted_norms(samples: NormSamples, controls: ControlTrajectory | None,
                   tables: WeightTables, grid: GridSpec, tgrid: TimeGrid,
                   t_clip: float | None = None) -> dict:
    """log10 of the weighted state/control norms of the a-priori estimates,
    from the per-node ``samples`` of the state run, as an ordered mapping
    ``log10_<quantity>``: the eight state and control norms, then the kappa
    control regularity entries ``log10_kappa_<entry>`` by name; -inf for a
    zero quantity.

    The rho2-weighted control energy uses the synthesis weight convention
    (t_clip-frozen, normalized), so it matches the energy reported by the
    linear solve when the same t_clip is passed.  Sups, like the time
    integrals, run over the nodes t_n < T.
    """
    dt = tgrid.dt
    lw1, lmu1, lmu2 = (normalized_node_logs(tables, n) for n in ("rho1", "mu1", "mu2"))
    out = {"log10_iint_rho1_sq_state": _log10_sum(lw1, samples.state_sq, dt),
           "log10_iint_rho2_sq_controls": -np.inf}
    kappa_norms = {}
    if controls is not None:
        lw2 = control_weight_logs(tables, default_t_clip(t_clip, tgrid))
        control_sq = sum(np.sum(a * a, axis=(1, 2)) for a in controls.parts)
        out["log10_iint_rho2_sq_controls"] = _log10_sum(lw2, control_sq,
                                                        grid.cell_area * dt)
        kappa_norms = control_regularity_report(controls, tables, grid, tgrid,
                                                t_clip=t_clip)
    out.update(
        log10_sup_mu1_y=_log10_sup(lmu1, samples.y_sq),
        log10_iint_mu1_grad_y=_log10_sum(lmu1, samples.grad_y_sq, dt),
        log10_sup_mu2_grad_y=_log10_sup(lmu2, samples.grad_y_sq),
        log10_iint_mu2_yt_dy=_log10_sum(lmu2, samples.yt_dy_sq, dt),
        log10_mu2_theta_t_L32=_log10_sum(lmu2, samples.th_t_l32, dt),
        log10_mu2_lap_theta_L32=_log10_sum(lmu2, samples.lap_th_l32, dt),
    )
    out.update(("log10_kappa_" + k, v) for k, v in sorted(kappa_norms.items()))
    return out


def control_regularity_report(controls: ControlTrajectory, tables: WeightTables,
                              grid: GridSpec, tgrid: TimeGrid,
                              t_clip: float | None = None) -> dict:
    """log10 of the kappa-weighted control regularity quantities:
    iint |(k v)_t|^2, |(k v0)_t|^2, |k lap v|^2, |k lap v0|^2 and the sup-in-
    time H^1 norms (-inf where zero).  Time derivatives by central differences.

    kappa v is formed as e^M (kappa v e^-M), with M the largest log|kappa v|:
    the stencils act on fields bounded by 1, and each entry is 2M + log(sum).
    Everything is computed on the controls' box; the stencils see a block
    of levels at a time (``forward.block_levels`` of the window) scattered
    onto ``geometry.control_window``, the box grown by two cells a side,
    whose terms equal the whole grid's (up to the order of the sums).  The
    sums and sups run over the levels in order.
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
    win, win_box = control_window(controls.box, grid)
    inside = box_within(controls.box, win_box)
    size = block_levels(win, nt)
    for n0 in range(0, nt, size):
        block = slice(n0, n0 + size)
        ku, kv, k0 = scatter((kvu[block], kvv[block], kv0[block]), inside, win)
        lap = _squares(ops.norm_velocity(ops.laplacian_u(ku, win),
                                         ops.laplacian_v(kv, win), win))
        lap0 = _squares(ops.norm_cells(ops.laplacian_cells(k0, win), win))
        v_sq = _squares(ops.norm_velocity(ku, kv, win))
        v0_sq = _squares(ops.norm_cells(k0, win))
        for i in range(len(ku)):
            lap_sq += lap[i] * dt
            lap0_sq += lap0[i] * dt
            sup_h1_v = max(sup_h1_v, v_sq[i] + ops.h1_seminorm_sq_velocity(ku[i], kv[i], win))
            sup_h1_v0 = max(sup_h1_v0, v0_sq[i] + ops.h1_seminorm_sq_cells(k0[i], win))

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
