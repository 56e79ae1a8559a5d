"""Observability weight family for the penalized null-control functional.

All weights share the time factor u(t) = ell(t)^{-4}, where ell is constant on
[0, T/2] and equals t(T-t) afterwards, so u blows up as t -> T^-.  The spatial
profile enters through eta0; only its extrema {0, sup} matter for the
space-independent family members.  Everything is evaluated and stored in
natural-log space, with no cap: the raw logs are finite floats before T (they
reach ~1e16 near T at default parameters) and +inf at t = T.  A family whose
logs leave the double range before T is rejected, never clipped.  Callers
exponentiate only shifted logs, and only where the result is representable.

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


def ell_array(t: np.ndarray, t_final: float) -> np.ndarray:
    """Time profile: T^2/4 on [0, T/2], t(T-t) on (T/2, T]."""
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

    def __post_init__(self):
        if not (self.s > 0.0):
            raise DomainError("s must be positive")
        if not (self.lam > 0.0):
            raise DomainError("lambda must be positive")
        if not (self.m > 4.0):
            raise DomainError("m must exceed 4")


def _log_bracket(params: WeightParams, j: float, k: float) -> tuple[float, float]:
    """Sign and log-magnitude of the coefficient of u(t) in j*ahat - k*astar,
    e^{lam m H} [ (j-k) e^{lam m H/4} - j e^{lam H} + k ], for j - k = 1 and
    H = sup eta0 = 1 (``geometry.build_eta0``).

    With a = lam m / 4 the coefficient is e^{5a} [1 - j e^{lam - a} + k e^{-a}];
    for m > 4 the bracket is bounded by j + 1, so nothing overflows at any
    lambda.
    """
    a = params.lam * params.m / 4.0
    inner = 1.0 - j * np.exp(params.lam * (1.0 - params.m / 4.0)) + k * np.exp(-a)
    if inner == 0.0:
        return 0.0, -np.inf
    return float(np.sign(inner)), 5.0 * a + float(np.log(abs(inner)))


def _bracket(params: WeightParams, j: float, k: float) -> float:
    """The coefficient of ``_log_bracket`` in linear space; +-inf past the
    double range, never NaN."""
    sign, log_mag = _log_bracket(params, j, k)
    with np.errstate(over="ignore"):
        return sign * float(np.exp(log_mag))


def check_weight_gap(params: WeightParams) -> float:
    """ell^4-scaled margin of the gap condition 18 ahat > 17 astar.

    The scaled combination is time independent, so one evaluation decides the
    sign for the whole horizon; positive margin <=> the gap holds.  The margin
    is +inf when it exceeds the double range, and never NaN.
    """
    return _bracket(params, 18.0, 17.0)


def find_min_m(lam: float, tol: float = 1.0e-3) -> float:
    """Smallest m in (4, 1e4] with positive gap margin, by bisection; a
    lambda that is not positive raises DomainError (``WeightParams``)."""

    def margin(m):
        return check_weight_gap(WeightParams(s=1.0, lam=lam, m=m))

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
    """Per-node weight family in log space, one value per time node.

    ``raw_*`` arrays are uncapped: finite before T, +-inf at the terminal
    node; ``raw(name)`` reads a composite.
    """

    params: WeightParams
    t: np.ndarray
    raw_log_alpha_star: np.ndarray
    raw_log_alpha_hat: np.ndarray
    raw_log_xi_star: np.ndarray
    raw_log_xi_hat: np.ndarray
    raw_composites: dict = field(default_factory=dict)

    def raw(self, name: str) -> np.ndarray:
        return self.raw_composites[name]


def eval_weights(params: WeightParams, eta0: np.ndarray, tgrid: TimeGrid) -> WeightTables:
    """Evaluate the full weight family over the time grid, in log space.

    The spatial extrema use the analytic values {0, 1} (eta0 vanishes on
    the boundary and is normalized to sup 1), not sampled extremes; ``eta0``
    itself is only checked to keep alpha positive.
    """
    s, lam, m = params.s, params.lam, params.m
    t = tgrid.nodes()
    with np.errstate(divide="ignore"):
        log_u = -4.0 * np.log(ell_array(t, tgrid.t_final))  # +inf at t = T

    # alpha(x, t) = e^{lam(m+eta)} (e^{lam(m/4 - eta)} - 1) * u is positive
    # only where eta < m/4
    if np.any(lam * (m / 4.0 - np.asarray(eta0, dtype=float)) <= 0.0):
        raise GeometryError("m <= 4*eta somewhere; alpha loses positivity")

    # bracket(0,-1) = alpha-star coefficient (eta = 0), bracket(1,0) = alpha-hat
    raw_log_alpha_star = _log_bracket(params, 0.0, -1.0)[1] + log_u
    raw_log_alpha_hat = _log_bracket(params, 1.0, 0.0)[1] + log_u
    raw_log_xi_star = lam * m + log_u
    raw_log_xi_hat = lam * (m + 1.0) + log_u

    def composite(name, j, k, xi_pow, log_xi):
        sign, log_c = _log_bracket(params, j, k)
        log_sc = np.log(s) + log_c
        # at t = T the exponential factor dominates the polynomial one
        raw = np.full_like(t, np.inf if sign > 0.0 else -np.inf)
        with np.errstate(over="ignore"):
            raw[:-1] = sign * np.exp(log_sc + log_u[:-1]) - xi_pow * log_xi[:-1]
        if not np.all(np.isfinite(raw[:-1])):
            raise DomainError(
                f"log weight {name!r} leaves the double range before T "
                f"(|s alpha| ~ e^{log_sc + log_u[-2]:.4g}); lower lambda or s")
        return raw

    lxh = raw_log_xi_hat
    # rho is tabulated as its spatial supremum e^{s astar} (xistar)^{-3/2};
    # both factors peak at eta = 0, so the sup has a closed form.
    family = {"rho": (0.0, -1.0, 1.5, raw_log_xi_star),
              "rho1": (2.0, 1.0, 3.75, lxh),
              "rho2": (4.0, 3.0, 8.0, lxh),
              "rho3": (0.0, -1.0, 0.5, raw_log_xi_star),
              "mu1": (8.0, 7.0, 15.0, lxh),
              "mu2": (8.0, 7.0, 16.0, lxh),
              "mu3": (8.0, 7.0, 17.0, lxh),
              "kappa": (9.0, 8.0, 17.0, lxh)}
    composites = {name: composite(name, *spec) for name, spec in family.items()}

    return WeightTables(
        params=params,
        t=t,
        raw_log_alpha_star=raw_log_alpha_star,
        raw_log_alpha_hat=raw_log_alpha_hat,
        raw_log_xi_star=raw_log_xi_star,
        raw_log_xi_hat=raw_log_xi_hat,
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
                        name: str = "rho2") -> np.ndarray:
    """Normalized log weight per time step (left nodes): rho2 for the control
    cost, kappa for the control regularity report.

    Beyond t_clip the weight is frozen at its t_clip value; the profile is
    shifted so its minimum is 0 (only the blow-up shape matters, the raw
    magnitude is an off-scale constant).  No cap: at default parameters the
    shifted rho2 log is 0 on [0, T/2] and above 1e6 after it, so the inverse
    weight e^{-log w} is exactly 1 or exactly 0.
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
    return raw - raw.min()

