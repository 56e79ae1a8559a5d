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

The blow-up leaves the state entries to the nodes near T.  A node's term is
x_n = L_n + log sq_n, with L_n = 2 log w_n.  The log of a positive double
lies in [-744.44, 709.78], and exp underflows to exactly 0.0 below -745.14,
so a node whose L lies more than 2199.36 below that of a node with a
positive sample stays below the max and adds exactly 0.0.  So
``NormSamples`` samples the state only at the nodes within KEEP_BAND = 2300
of some state weight's max L, and ``weighted_norms`` checks, entry by entry,
that every skipped node it cannot show to be zero lies 2210 or more below the
top sampled node with a positive sample; it returns the value that sampling
every node gives, or raises DomainError naming the entry.
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


# The guard's gap is 709.78 + 744.44 + 745.14 = 2199.36 (module docstring)
# plus 10 for the rounding of x_n = L_n + log sq_n and of x_n - M at |x| ~
# 1.6e16, where an ulp is 2; the kept band is wider, so that a state positive
# at its top node always passes.
_DECIDED_GAP = 2210.0
KEEP_BAND = 2300.0

# sample: (the level fields it reads, u v theta = 0 1 2; whether it reads level n + 1)
_SAMPLES = {"state_sq": ((0, 1, 2), False), "y_sq": ((0, 1), False),
            "grad_y_sq": ((0, 1), False), "yt_dy_sq": ((0, 1), True),
            "th_t_l32": ((2,), True), "lap_th_l32": ((2,), False)}

# the state entries: entry, its weight, its sample, whether a time integral (else a sup)
_STATE_ENTRIES = (("iint_rho1_sq_state", "rho1", "state_sq", True),
                  ("sup_mu1_y", "mu1", "y_sq", False),
                  ("iint_mu1_grad_y", "mu1", "grad_y_sq", True),
                  ("sup_mu2_grad_y", "mu2", "grad_y_sq", False),
                  ("iint_mu2_yt_dy", "mu2", "yt_dy_sq", True),
                  ("mu2_theta_t_L32", "mu2", "th_t_l32", True),
                  ("mu2_lap_theta_L32", "mu2", "lap_th_l32", True))


class NormSamples:
    """An ``on_state`` hook recording, node by node, the squared norms that
    ``weighted_norms`` takes over a run of ``tgrid`` with the weights of
    ``tables``: at a node n < nt the state, |y|^2, |grad y|^2 and the
    Laplacian parts; from levels n and n + 1 the forward time differences.

    Only the kept nodes are sampled: every n at which some state weight
    (rho1, mu1, mu2) has L_n = 2 log w_n >= max L - KEEP_BAND.  The weights
    blow up at T, so on the pinned configs that is node nt - 1 alone.  Each
    kept level is evaluated by itself (the stencils give a level the bits
    they give it in a stack) and held until level n + 1 arrives for the
    differences.  Every level records only the largest |u|, |v| and |theta|,
    from which ``skipped_peaks`` tells ``weighted_norms`` whether a skipped
    node could count.  Skipped nodes read 0.  The samples, read as the
    attributes named in ``_SAMPLES``, exist once all nt + 1 levels have
    arrived: reading them earlier (a run that a hook or an error ended)
    raises DomainError.
    """

    def __init__(self, grid: GridSpec, tgrid: TimeGrid, tables: WeightTables):
        self.grid, self.tgrid = grid, tgrid
        logs = [2.0 * normalized_node_logs(tables, w) for w in ("rho1", "mu1", "mu2")]
        self.kept = np.logical_or.reduce([lw >= lw.max() - KEEP_BAND for lw in logs])
        self._samples = {name: np.zeros(tgrid.nt) for name in _SAMPLES}
        self._peaks = np.zeros((tgrid.nt + 1, 3))
        self._held = None      # a kept node's level and |lap y|^2, until level n + 1
        self.received = 0      # levels handed to the hook

    def __call__(self, k, t, u, v, th):
        self.received += 1
        self._peaks[k] = [np.max(np.abs(a)) for a in (u, v, th)]
        if k > 0 and self.kept[k - 1]:
            self._differences(k - 1, u, v, th)
        if k < self.tgrid.nt and self.kept[k]:
            self._node(k, u, v, th)

    def __getattr__(self, name):
        if name not in _SAMPLES:
            raise AttributeError(name)
        if self.received < self.tgrid.nt + 1:
            raise DomainError(f"norm samples read after {self.received} of the "
                              f"{self.tgrid.nt + 1} levels of the run")
        return self._samples[name]

    def skipped_peaks(self, name: str) -> np.ndarray:
        """Per node n < nt, the largest |value| in the fields of levels n and
        (for a time difference) n + 1 that the ``name`` sample reads, where
        the node was skipped; 0 at the kept nodes.  A NaN stays NaN."""
        fields, ahead = _SAMPLES[name]
        peaks = np.max(self._peaks[:, fields], axis=1)
        peaks = np.maximum(peaks[:-1], peaks[1:]) if ahead else peaks[:-1]
        return np.where(self.kept, 0.0, peaks)

    def _node(self, n, u, v, th):
        grid, out = self.grid, self._samples
        # ops.state_norm_sq, with its velocity part kept for y_sq
        out["y_sq"][n] = ops.norm_velocity(u, v, grid) ** 2
        out["state_sq"][n] = out["y_sq"][n] + ops.norm_cells(th, grid) ** 2
        out["grad_y_sq"][n] = ops.h1_seminorm_sq_velocity(u, v, grid)
        out["lap_th_l32"][n] = ops.lp_norm_cells(ops.laplacian_cells(th, grid), 1.5,
                                                 grid) ** 2
        lap_y_sq = ops.norm_velocity(ops.laplacian_u(u, grid), ops.laplacian_v(v, grid),
                                     grid) ** 2
        self._held = (u.copy(), v.copy(), th.copy(), lap_y_sq)

    def _differences(self, n, u, v, th):
        grid, dt, out = self.grid, self.tgrid.dt, self._samples
        u0, v0, th0, lap_y_sq = self._held
        out["yt_dy_sq"][n] = (ops.norm_velocity((u - u0) / dt, (v - v0) / dt, grid) ** 2
                              + lap_y_sq)
        out["th_t_l32"][n] = ops.lp_norm_cells((th - th0) / dt, 1.5, grid) ** 2


def _decided(entry: str, logw: np.ndarray, samples, name: str) -> np.ndarray:
    """The ``name`` samples of ``entry``, once the nodes that ``samples``
    skipped are shown to change it by nothing: each skipped node that read a
    nonzero level lies _DECIDED_GAP or more below, in L = 2 log w, the top
    kept node with a positive sample.  Otherwise, or where a skipped level is
    not finite, DomainError names the entry."""
    sq, peaks = getattr(samples, name), samples.skipped_peaks(name)
    live = peaks != 0.0
    if not np.any(live):
        return sq
    bad = np.flatnonzero(live & ~np.isfinite(peaks))
    if bad.size:
        raise DomainError(f"weighted norm {entry}: skipped node {bad[0]} reads a "
                          "non-finite level")
    lw, pos = 2.0 * logw, sq > 0.0
    if not np.any(pos) or np.max(lw[live]) > np.max(lw[pos]) - _DECIDED_GAP:
        raise DomainError(f"weighted norm {entry} is not decided at the sampled nodes: "
                          f"a skipped node is nonzero within {_DECIDED_GAP:g} of the "
                          "top sampled node with a positive sample, or there is none")
    return sq


def weighted_norms(samples: NormSamples, controls: ControlTrajectory | None,
                   tables: WeightTables, grid: GridSpec, tgrid: TimeGrid,
                   t_clip: float | None = None) -> dict:
    """log10 of the weighted state/control norms of the a-priori estimates,
    from the per-node ``samples`` of the state run, as an ordered mapping
    ``log10_<quantity>``: the eight state and control norms, then the kappa
    control regularity entries ``log10_kappa_<entry>`` by name; -inf for a
    zero quantity.  A state entry whose value the nodes that ``samples``
    skipped could change raises DomainError (``_decided``), so every value
    returned is the one all nodes give.

    The rho2-weighted control energy uses the synthesis weight convention
    (t_clip-frozen, normalized), so it matches the energy reported by the
    linear solve when the same t_clip is passed.  Sups, like the time
    integrals, run over the nodes t_n < T.
    """
    dt = tgrid.dt
    logs = {w: normalized_node_logs(tables, w) for w in ("rho1", "mu1", "mu2")}
    out = {"log10_iint_rho1_sq_state": None, "log10_iint_rho2_sq_controls": -np.inf}
    for entry, weight, name, integral in _STATE_ENTRIES:
        lw = logs[weight]
        sq = _decided(entry, lw, samples, name)
        out["log10_" + entry] = _log10_sum(lw, sq, dt) if integral else _log10_sup(lw, sq)
    kappa_norms = {}
    if controls is not None:
        lw2 = control_weight_logs(tables, default_t_clip(t_clip, tgrid))
        control_sq = np.zeros(tgrid.nt)   # 0 on the steps the controls do not store
        control_sq[controls.live] = sum(np.sum(a * a, axis=(1, 2)) for a in controls.parts)
        out["log10_iint_rho2_sq_controls"] = _log10_sum(lw2, control_sq,
                                                        grid.cell_area * dt)
        kappa_norms = control_regularity_report(controls, tables, grid, tgrid,
                                                t_clip=t_clip)
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
