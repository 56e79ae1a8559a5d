"""Observability weight family for the penalized null-control functional.

All weights share the time factor u(t) = ell(t)^{-4}, where ell is constant on
[0, T/2] and equals t(T-t) afterwards, so u blows up as t -> T^-.  The spatial
profile enters through eta0; only its extrema {0, sup} matter for the
space-independent family members.  Everything is evaluated and stored in
natural-log space: raw logs are kept as (possibly huge, possibly +inf at t=T)
floats, and any exponentiation goes through a +-700 saturation cap so no
silent overflow can occur.

Composite family (s = Carleman parameter, hats/stars = spatial extrema):

    rho   = e^{s a} xi^{-3/2}           rho1 = e^{s(2 ahat - astar)} xihat^{-15/4}
    rho2  = e^{s(4 ahat - 3 astar)} xihat^{-8}
    rho3  = e^{s astar} (xistar)^{-1/2}
    mu_k  = e^{s(8 ahat - 7 astar)} xihat^{-(14+k)}   k = 1, 2, 3
    kappa = e^{s(9 ahat - 8 astar)} xihat^{-17}

Under the gap condition 18 ahat > 17 astar every exponent above is positive,
so each weight diverges at t = T and its reciprocal vanishes; that divergence
is what forces synthesized controls to shut off at the terminal time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, GeometryError, SearchError
from .grids import TimeGrid

LOG_CAP = 700.0
# Control-cost weights are squared in linear space; half the cap keeps w^2 finite.
CONTROL_WEIGHT_LOG_CAP = 350.0

_M_SEARCH_MAX = 1.0e4


def default_t_clip(t_clip: float | None, tgrid: TimeGrid) -> float:
    """``t_clip``, or T - 2 dt when it is None: the last time at which the
    frozen control weights still follow the blow-up profile."""
    return t_clip if t_clip is not None else tgrid.t_final - 2.0 * tgrid.dt


def time_derivative(a: np.ndarray, dt: float) -> np.ndarray:
    """d/dt along axis 0: central differences inside, one-sided first order
    at the two ends."""
    d = np.empty_like(a)
    d[1:-1] = (a[2:] - a[:-2]) / (2.0 * dt)
    d[0] = (a[1] - a[0]) / dt
    d[-1] = (a[-1] - a[-2]) / dt
    return d


def ell(t: float, t_final: float) -> float:
    """Time profile: T^2/4 on [0, T/2], t(T-t) on (T/2, T]."""
    if t < 0.0 or t > t_final:
        raise DomainError(f"t={t} outside [0, {t_final}]")
    if t <= 0.5 * t_final:
        return 0.25 * t_final * t_final
    return t * (t_final - t)


def ell_array(t: np.ndarray, t_final: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > t_final):
        raise DomainError("time nodes outside [0, T]")
    return np.where(t <= 0.5 * t_final, 0.25 * t_final * t_final, t * (t_final - t))


@dataclass(frozen=True)
class WeightParams:
    """Carleman parameter s, exponent parameter lambda, profile exponent m."""

    s: float = 1.0
    lam: float = 1.0
    m: float = 14.0
    eta_sup: float = 1.0

    def __post_init__(self):
        if not (self.s > 0.0):
            raise DomainError("s must be positive")
        if not (self.lam > 0.0):
            raise DomainError("lambda must be positive")
        if not (self.m > 4.0):
            raise DomainError("m must exceed 4")
        if not (self.eta_sup >= 0.0):
            raise DomainError("eta_sup must be nonnegative")


def _log_expm1(x: np.ndarray) -> np.ndarray:
    """log(e^x - 1) for x > 0, stable for both tiny and huge x."""
    x = np.asarray(x, dtype=float)
    small = x < 30.0
    out = np.empty_like(x)
    out[small] = np.log(np.expm1(x[small]))
    out[~small] = x[~small] + np.log1p(-np.exp(-x[~small]))
    return out


def _bracket(params: WeightParams, j: float, k: float) -> float:
    """Signed coefficient of u(t) in j*ahat - k*astar, i.e. the ell^4-scaled
    combination; equals e^{lam m H} [ (j-k) e^{lam m H/4} - j e^{lam H} + k ]."""
    lam, m, big_h = params.lam, params.m, params.eta_sup
    with np.errstate(over="ignore"):
        inner = (j - k) * np.exp(lam * m * big_h / 4.0) - j * np.exp(lam * big_h) + k
        return float(np.exp(lam * m * big_h) * inner)


def check_weight_gap(params: WeightParams) -> float:
    """ell^4-scaled margin of the gap condition 18 ahat > 17 astar.

    The scaled combination is time independent, so one evaluation decides the
    sign for the whole horizon; positive margin <=> the gap holds.
    """
    if params.eta_sup == 0.0:
        raise GeometryError("eta_sup = 0 degenerates alpha to zero; gap cannot hold")
    return _bracket(params, 18.0, 17.0)


def find_min_m(lam: float, eta_sup: float, tol: float = 1.0e-3) -> float:
    """Smallest m in (4, 1e4] with positive gap margin, by bisection."""
    if lam <= 0.0 or eta_sup <= 0.0:
        raise DomainError("lambda and eta_sup must be positive")

    def margin(m):
        return check_weight_gap(WeightParams(s=1.0, lam=lam, m=m, eta_sup=eta_sup))

    lo, hi = 4.0 + 1.0e-9, 8.0
    while margin(hi) <= 0.0:
        hi *= 2.0
        if hi > _M_SEARCH_MAX:
            raise SearchError(f"no feasible m in (4, {_M_SEARCH_MAX:g}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class WeightTables:
    """Per-node weight family in log space.

    ``raw_*`` arrays are uncapped (finite floats away from t=T, +-inf at the
    terminal node); the ``log_*`` properties clip to +-LOG_CAP for safe
    exponentiation.  ``log_alpha``/``log_xi`` are sampled on the eta0 node
    grid, shape (nt+1, nx+1, ny+1).
    """

    params: WeightParams
    t: np.ndarray
    raw_log_alpha_star: np.ndarray
    raw_log_alpha_hat: np.ndarray
    raw_log_xi_star: np.ndarray
    raw_log_xi_hat: np.ndarray
    raw_log_alpha: np.ndarray
    raw_log_xi: np.ndarray
    raw_composites: dict = field(default_factory=dict)

    _COMPOSITES = ("rho", "rho1", "rho2", "rho3", "mu1", "mu2", "mu3", "kappa")

    def _capped(self, raw: np.ndarray) -> np.ndarray:
        return np.clip(raw, -LOG_CAP, LOG_CAP)

    @property
    def log_alpha_star(self):
        return self._capped(self.raw_log_alpha_star)

    @property
    def log_alpha_hat(self):
        return self._capped(self.raw_log_alpha_hat)

    @property
    def log_xi_star(self):
        return self._capped(self.raw_log_xi_star)

    @property
    def log_xi_hat(self):
        return self._capped(self.raw_log_xi_hat)

    @property
    def log_alpha(self):
        return self._capped(self.raw_log_alpha)

    @property
    def log_xi(self):
        return self._capped(self.raw_log_xi)

    def log(self, name: str) -> np.ndarray:
        return self._capped(self.raw_composites[name])

    def raw(self, name: str) -> np.ndarray:
        return self.raw_composites[name]

    @property
    def saturated(self) -> np.ndarray:
        """Node mask: any stored log exceeded the cap at that node."""
        mask = np.zeros_like(self.t, dtype=bool)
        for arr in (self.raw_log_alpha_star, self.raw_log_alpha_hat,
                    self.raw_log_xi_star, self.raw_log_xi_hat,
                    *self.raw_composites.values()):
            mask |= np.abs(arr) > LOG_CAP
        return mask


def eval_weights(params: WeightParams, eta0: np.ndarray, tgrid: TimeGrid) -> WeightTables:
    """Evaluate the full weight family over the time grid, in log space.

    The spatial extrema use the analytic values {0, eta_sup} (eta0 vanishes on
    the boundary and is normalized to sup 1), not sampled extremes.
    """
    if params.eta_sup <= 0.0:
        raise GeometryError("eta_sup must be positive to evaluate weights")
    s, lam, m, big_h = params.s, params.lam, params.m, params.eta_sup
    t = tgrid.nodes()
    with np.errstate(divide="ignore", over="ignore"):
        log_u = -4.0 * np.log(ell_array(t, tgrid.t_final))  # +inf at t = T
        u = np.exp(log_u)

    # alpha(x, t) = e^{lam(mH+eta)} (e^{lam(mH/4 - eta)} - 1) * u
    eta = np.asarray(eta0, dtype=float)
    gap_exp = lam * (m * big_h / 4.0 - eta)
    if np.any(gap_exp <= 0.0):
        raise GeometryError("m <= 4*eta/eta_sup somewhere; alpha loses positivity")
    log_alpha_x = lam * (m * big_h + eta) + _log_expm1(gap_exp)
    raw_log_alpha = log_alpha_x[None, :, :] + log_u[:, None, None]
    raw_log_xi = (lam * (m * big_h + eta))[None, :, :] + log_u[:, None, None]

    # bracket(0,-1) = alpha-star coefficient (eta = 0), bracket(1,0) = alpha-hat
    raw_log_alpha_star = np.log(_bracket(params, 0.0, -1.0)) + log_u
    raw_log_alpha_hat = np.log(_bracket(params, 1.0, 0.0)) + log_u
    raw_log_xi_star = lam * m * big_h + log_u
    raw_log_xi_hat = lam * (m + 1.0) * big_h + log_u

    finite_t = np.isfinite(log_u)

    def composite(j, k, xi_pow, log_xi):
        c = _bracket(params, j, k)
        with np.errstate(invalid="ignore"):
            raw = s * c * u - xi_pow * log_xi
        # at t = T the exponential factor dominates the polynomial one
        raw[~finite_t] = np.inf if c > 0.0 else -np.inf
        return raw

    lxh = raw_log_xi_hat
    composites = {}
    # rho is tabulated as its spatial supremum e^{s astar} (xistar)^{-3/2};
    # both factors peak at eta = 0, so the sup has a closed form.
    composites["rho"] = composite(0.0, -1.0, 1.5, raw_log_xi_star)
    composites["rho1"] = composite(2.0, 1.0, 3.75, lxh)
    composites["rho2"] = composite(4.0, 3.0, 8.0, lxh)
    composites["rho3"] = composite(0.0, -1.0, 0.5, raw_log_xi_star)
    composites["mu1"] = composite(8.0, 7.0, 15.0, lxh)
    composites["mu2"] = composite(8.0, 7.0, 16.0, lxh)
    composites["mu3"] = composite(8.0, 7.0, 17.0, lxh)
    composites["kappa"] = composite(9.0, 8.0, 17.0, lxh)

    return WeightTables(
        params=params,
        t=t,
        raw_log_alpha_star=raw_log_alpha_star,
        raw_log_alpha_hat=raw_log_alpha_hat,
        raw_log_xi_star=raw_log_xi_star,
        raw_log_xi_hat=raw_log_xi_hat,
        raw_log_alpha=raw_log_alpha,
        raw_log_xi=raw_log_xi,
        raw_composites=composites,
    )


@dataclass
class ChainReport:
    """Sup of the ordering-chain ratios over a time window; finite <=> chain holds."""

    window: tuple[float, float]
    ratios: dict

    @property
    def all_finite(self) -> bool:
        return all(np.isfinite(v) for v in self.ratios.values())


def check_weight_chain(tables: WeightTables, t_clip: float) -> ChainReport:
    """Sup ratios of the weight-ordering chain over t in [dt, t_clip].

    Ratios are formed from raw log differences (the linear-space values are
    far beyond double range); time derivatives use the log-derivative identity
    d w = w * d(log w) with central differences on the raw logs.
    """
    t = tables.t
    t_final = float(t[-1])
    if not (0.0 < t_clip < t_final):
        raise DomainError("t_clip must lie strictly inside (0, T)")
    dt = t[1] - t[0]
    sel = (t >= dt * (1.0 - 1e-12)) & (t <= t_clip * (1.0 + 1e-12))

    def dlog(raw):
        return time_derivative(raw, dt)

    r = tables.raw
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logdiffs = {
            "kappa_over_mu3": r("kappa") - r("mu3"),
            "mu3_over_mu2": r("mu3") - r("mu2"),
            "mu2_over_rho2": r("mu2") - r("rho2"),
            "rho2_over_rho3": r("rho2") - r("rho3"),
            "rho3_over_mu2_sq": r("rho3") - 2.0 * r("mu2"),
            "dmu2_over_rho1": r("mu2") - r("rho1") + np.log(np.abs(dlog(r("mu2")))),
            "mu3_dmu3_over_mu2_sq": 2.0 * r("mu3") - 2.0 * r("mu2") + np.log(np.abs(dlog(r("mu3")))),
            "dkappa_over_mu3": r("kappa") - r("mu3") + np.log(np.abs(dlog(r("kappa")))),
        }
        ratios = {}
        for name, ld in logdiffs.items():
            vals = np.exp(ld[sel])
            vals = np.nan_to_num(vals, nan=0.0, posinf=np.inf)
            ratios[name] = float(np.max(vals)) if vals.size else 0.0
    return ChainReport(window=(float(dt), float(t_clip)), ratios=ratios)


def control_weight_logs(tables: WeightTables, t_clip: float,
                        cap: float = CONTROL_WEIGHT_LOG_CAP,
                        name: str = "rho2") -> np.ndarray:
    """Normalized log weight per time step (left nodes): rho2 for the control
    cost, kappa for the control regularity report.

    Beyond t_clip the weight is frozen at its t_clip value; the profile is
    shifted so its minimum is 0 (only the blow-up shape matters, the raw
    magnitude is an off-scale constant) and clipped at ``cap`` so the squared
    weight stays representable.
    """
    t = tables.t
    t_final = float(t[-1])
    if not (0.0 < t_clip < t_final):
        raise DomainError("t_clip must lie strictly inside (0, T)")
    nt = len(t) - 1
    raw = tables.raw(name)[:nt].copy()
    idx_clip = int(np.searchsorted(t, t_clip, side="right")) - 1
    idx_clip = max(0, min(idx_clip, nt - 1))
    raw[idx_clip + 1:] = raw[idx_clip]
    raw -= raw.min()
    return np.clip(raw, 0.0, cap)


def export_weight_csv(tables: WeightTables, path) -> None:
    """Write the per-node capped log tables as CSV (deterministic formatting)."""
    cols = ["log_alpha_star", "log_alpha_hat", "log_xi_star", "log_xi_hat",
            "log_rho", "log_rho1", "log_rho2", "log_rho3",
            "log_mu1", "log_mu2", "log_mu3", "log_kappa"]
    data = [tables.log_alpha_star, tables.log_alpha_hat,
            tables.log_xi_star, tables.log_xi_hat]
    data += [tables.log(name) for name in tables._COMPOSITES]
    with open(path, "w") as fh:
        fh.write("t," + ",".join(cols) + "\n")
        for k, tk in enumerate(tables.t):
            row = [f"{tk:.17g}"] + [f"{arr[k]:.17g}" for arr in data]
            fh.write(",".join(row) + "\n")
