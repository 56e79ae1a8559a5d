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
from .control import ControlTrajectory
from .forward import EnergyTrace, level_blocks, live_steps
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
    the sums act on fields bounded by 1, and each entry is 2M + log(sum).
    The time derivatives and |f|^2 are summed on the controls' box, the
    Laplacian and H^1 terms on the Helmholtz coefficients c
    (``ModalBasis.on_box``) of the live steps (``forward.live_steps``),
    where -lap is the scaling lam (Schumann & Sweet, J. Comput. Phys. 75,
    1988): with d = lam c, |lap f|^2 = area sum d^2 and |grad f|^2 = area
    sum d c, the 5-point sums up to order.  That holds for admissible
    controls, whose normal velocity vanishes on the walls (a control
    supported in omega, which ``validate_patch`` keeps inside Omega, never
    reaches them); a nonzero wall value of vu or vv raises DomainError.
    """
    dt = tgrid.dt
    parts = controls.parts
    for p, (name, n) in enumerate((("vu", grid.nx), ("vv", grid.ny))):
        lo, hi, _ = controls.box[p][p].indices(n + 1)   # the faces along the normal
        walls = [w - lo for w in (0, n) if lo <= w < hi]
        if np.any(np.take(parts[p], walls, axis=p + 1)):
            raise DomainError(f"control {name} is nonzero on a wall face: the kappa "
                              "report takes controls supported inside Omega")
    logk = control_weight_logs(tables, default_t_clip(t_clip, tgrid),
                               name="kappa")[:, None, None]
    logs = [logk + _log(np.abs(f)) for f in parts]
    big = max(float(np.max(lg, initial=-np.inf)) for lg in logs)
    if big == -np.inf:  # zero controls
        big = 0.0
    kvu, kvv, kv0 = (np.sign(f) * np.exp(lg - big) for f, lg in zip(parts, logs))

    q = grid.cell_area
    dkv_sq = float(np.sum(time_derivative(kvu, dt) ** 2)
                   + np.sum(time_derivative(kvv, dt) ** 2)) * q * dt
    dkv0_sq = float(np.sum(time_derivative(kv0, dt) ** 2)) * q * dt
    m = ops.ModalBasis(grid)
    live = live_steps(controls)
    lap, norms = [], []    # per part, per live step
    for (fwd, _), lam, kv in zip(m.on_box(controls.box), (m.lap_u, m.lap_v, m.lap_cells),
                                 (kvu, kvv, kv0)):
        a = kv[live]
        c = fwd(a)
        d = lam * c
        lap.append(np.sum(d * d, axis=(1, 2)))
        norms.append((np.sum(a * a, axis=(1, 2)), np.sum(d * c, axis=(1, 2))))
    (u_sq, u_h1), (v_sq, v_h1), (c_sq, c_h1) = norms

    sums = {
        "iint_dt_kv_sq": dkv_sq,
        "iint_dt_kv0_sq": dkv0_sq,
        "iint_lap_kv_sq": float(np.sum(lap[0] + lap[1])) * q * dt,
        "iint_lap_kv0_sq": float(np.sum(lap[2])) * q * dt,
        "sup_h1_kv_sq": float(np.max(u_sq + v_sq + np.maximum(u_h1 + v_h1, 0.0),
                                     initial=0.0)) * q,
        "sup_h1_kv0_sq": float(np.max(c_sq + c_h1, initial=0.0)) * q,
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
