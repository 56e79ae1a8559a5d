"""Weighted a-priori norms of the controls, the energy-decay fit and the
waiting-time formula.

Weighted quantities use time-normalized weight profiles (log 0 at their
minimum over the horizon): the raw weight magnitudes are off-scale constants,
and only the blow-up shape relative to t = 0 carries information.  Their
values can reach e^(1e16) near T, so each is computed and reported as a
log10, with no cap: a weighted sum is one log-sum-exp over the steps of
2 log w_n + log sq_n (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41,
2021), and a zero quantity reads -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .control import ControlTrajectory
from .forward import EnergyTrace
from .weights import (WeightTables, control_weight_logs, default_t_clip,
                      time_derivative)

_LN10 = np.log(10.0)


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


def weighted_norms(controls: ControlTrajectory, tables: WeightTables, grid: GridSpec,
                   tgrid: TimeGrid, t_clip: float | None = None) -> dict:
    """log10 of the weighted control norms of the a-priori estimates, as an
    ordered mapping: ``log10_iint_rho2_sq_controls``, then the kappa control
    regularity entries ``log10_kappa_<entry>`` by name; -inf for a zero
    quantity.

    The rho2-weighted control energy uses the synthesis weight convention
    (t_clip-frozen, normalized), so it matches the energy reported by the
    synthesis when the same t_clip is passed.
    """
    dt = tgrid.dt
    lw2 = control_weight_logs(tables, default_t_clip(t_clip, tgrid))
    control_sq = np.zeros(tgrid.nt)   # 0 on the steps the controls do not store
    control_sq[controls.live] = sum(np.sum(a * a, axis=(1, 2)) for a in controls.parts)
    out = {"log10_iint_rho2_sq_controls": _log10_sum(lw2, control_sq,
                                                     grid.cell_area * dt)}
    kappa_norms = control_regularity_report(controls, tables, grid, tgrid, t_clip=t_clip)
    out.update(("log10_kappa_" + k, v) for k, v in sorted(kappa_norms.items()))
    return out


def control_regularity_report(controls: ControlTrajectory, tables: WeightTables,
                              grid: GridSpec, tgrid: TimeGrid,
                              t_clip: float | None = None) -> dict:
    """log10 of the kappa-weighted control regularity quantities:
    iint |(k v)_t|^2, |(k v0)_t|^2, |k lap v|^2, |k lap v0|^2 and the sup-in-
    time H^1 norms (-inf where zero).  Time derivatives by central differences.

    kappa v is formed as e^M (kappa v e^-M), with M the largest log|kappa v|,
    on the rows the controls store: the sums act on fields bounded by 1, and
    each entry is 2M + log(sum).  The time derivatives are summed on the
    controls' box over every step (a step not stored is 0), |f|^2 on the
    box, and the Laplacian and H^1 terms on the Helmholtz coefficients c
    (``ModalBasis.on_box``), both over the stored rows, where -lap is the
    scaling lam (Schumann & Sweet, J. Comput. Phys. 75, 1988): with d = lam c,
    |lap f|^2 = area sum d^2 and |grad f|^2 = area sum d c, the 5-point sums
    up to order.  That holds for admissible controls, whose normal velocity
    vanishes on the walls (a control supported in omega, which
    ``validate_patch`` keeps inside Omega, never reaches them); a nonzero
    wall value of vu or vv raises DomainError.
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
                               name="kappa")[controls.live, None, None]
    logs = [logk + _log(np.abs(f)) for f in parts]
    big = max(float(np.max(lg, initial=-np.inf)) for lg in logs)
    if big == -np.inf:  # zero controls
        big = 0.0
    kvu, kvv, kv0 = (np.sign(f) * np.exp(lg - big) for f, lg in zip(parts, logs))

    def dt_sq(kv):
        """Sum of |d/dt kv|^2 over the box and every step."""
        every = np.zeros((len(controls.live),) + kv.shape[1:])
        every[controls.live] = kv
        return np.sum(time_derivative(every, dt) ** 2)

    q = grid.cell_area
    dkv_sq = float(dt_sq(kvu) + dt_sq(kvv)) * q * dt
    dkv0_sq = float(dt_sq(kv0)) * q * dt
    m = ops.ModalBasis(grid)
    lap, norms = [], []    # per part, per stored row
    for (fwd, _), lam, kv in zip(m.on_box(controls.box), (m.lap_u, m.lap_v, m.lap_cells),
                                 (kvu, kvv, kv0)):
        c = fwd(kv)
        d = lam * c
        lap.append(np.sum(d * d, axis=(1, 2)))
        norms.append((np.sum(kv * kv, axis=(1, 2)), np.sum(d * c, axis=(1, 2))))
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
    t_sq = float(np.sum(ts * ts))   # polyfit scales the time column by its root
    if not 0.0 < t_sq < np.inf:
        raise DomainError(f"degenerate decay fit: the window's times (up to "
                          f"{ts[-1]:g}) square-sum to {t_sq:g} in double precision")
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
