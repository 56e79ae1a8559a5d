"""Null-control synthesis.

Linear problem: minimize over distributed controls (v, v0) supported in omega

    J = 1/2 iint w^2 (|v|^2 + |v0|^2) dx dt
        + 1/(2 eps) (|y(T)|^2 + |theta(T)|^2),

where the linear system maps (v, v0) to (y, theta) and w is either 1 or the
normalized blow-up weight rho2.  The quadratic is minimized by conjugate
gradients in the preconditioned variable z = w v, which absorbs the weight
spread exactly (the Hessian becomes I + (1/eps) (L W^-1)^T (L W^-1)); the
reduced gradient in v-space is w^2 v + 1~_omega zeta with zeta the adjoint
stage driven by terminal data (y(T)/eps, theta(T)/eps).

An eps sweep is solved by one multi-shift CG.  Every member's Hessian is
I + M/eps with the same M, and its right-hand side is -(1/eps) c with c
independent of eps; times eps/eps_seed, member eps becomes the shifted system
(H_seed + delta I) z = b_seed with delta = eps/eps_seed - 1 >= 0, where the
seed is the smallest eps.  All members therefore share the seed's Krylov space
and are solved for the cost of the seed alone (Jegerlehner, hep-lat/9612014).

Nonlinear problem: outer source-term fixed point.  At iterate k all nonlinear
and nonlocal terms of the previous controlled run are frozen into (F1, F2) of
the linear system and the linear control problem is re-solved; on convergence
the control is validated by an independent nonlinear re-simulation.

Large-time pipeline: free decay until the energy crosses delta, then the
nonlinear synthesis on the remaining short horizon.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ConvergenceError, DomainError, RegimeError
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .adjoint import run_adjoint
from .geometry import control_box, grid_box
from .forward import (EnergyTrace, LinearPropagator, SystemSpec, chain_hooks,
                      energy_components, explicit_terms, run_nonlinear,
                      zero_padded_sources)
from .weights import WeightTables, control_weight_logs, default_t_clip


@dataclass
class ControlTrajectory:
    """Time-sampled distributed controls; sample n acts on [t_n, t_{n+1}).

    Each part is stored on its solver grid's slice of ``box`` (see
    ``geometry.control_box``): the patch's bounding box for the controls a
    synthesis makes, the whole grid (``geometry.grid_box``) for fields that
    cover Omega.  Outside the box the controls are zero; ``full`` scatters
    them onto the whole grid.
    """

    vu: np.ndarray   # (nt, rows, cols of box[0]) on u-faces
    vv: np.ndarray   # (nt, ... box[1]) on v-faces
    v0: np.ndarray   # (nt, ... box[2]) on cells
    box: tuple

    @classmethod
    def zeros(cls, grid: GridSpec, nt: int, box=None) -> "ControlTrajectory":
        """Zero controls on ``box``, by default the whole grid."""
        box = grid_box(grid) if box is None else box
        return cls(*(np.zeros((nt,) + tuple(s.stop - s.start for s in b)) for b in box),
                   box)

    @property
    def parts(self):
        return self.vu, self.vv, self.v0

    def full(self, grid: GridSpec) -> "ControlTrajectory":
        """The same controls stored on the whole grid, zero outside the box."""
        return ControlTrajectory(*scatter(self.parts, self.box, grid), grid_box(grid))

    def on(self, box) -> "ControlTrajectory":
        """The controls read on ``box``, which lies inside their own (views)."""
        if box == self.box:
            return self
        idx = []
        for b, own in zip(box, self.box):
            if any(s.start < o.start or s.stop > o.stop for s, o in zip(b, own)):
                raise DomainError("controls cannot be read outside their box")
            idx.append((slice(None),) + tuple(slice(s.start - o.start, s.stop - o.start)
                                              for s, o in zip(b, own)))
        return ControlTrajectory(*(a[i] for a, i in zip(self.parts, idx)), box)

    def copy(self) -> "ControlTrajectory":
        return ControlTrajectory(self.vu.copy(), self.vv.copy(), self.v0.copy(), self.box)

    def scaled(self, a: float) -> "ControlTrajectory":
        return ControlTrajectory(a * self.vu, a * self.vv, a * self.v0, self.box)

    def plus(self, other: "ControlTrajectory", a: float = 1.0) -> "ControlTrajectory":
        return ControlTrajectory(self.vu + a * other.vu, self.vv + a * other.vv,
                                 self.v0 + a * other.v0, self.box)

    def _pairs(self, other: "ControlTrajectory"):
        return zip(self.parts, other.parts)

    def axpy(self, a: float, x: "ControlTrajectory") -> None:
        """self += a x in place; rounds exactly like ``self.plus(x, a)``."""
        for mine, theirs in self._pairs(x):
            mine += a * theirs

    def xpby(self, x: "ControlTrajectory", b: float, a: float = 1.0) -> None:
        """self = a x + b self in place; with a = 1 it rounds exactly like
        ``x.plus(self, b)``."""
        for mine, theirs in self._pairs(x):
            mine *= b
            mine += theirs if a == 1.0 else a * theirs


def scatter(parts, box, grid: GridSpec):
    """Whole-grid (u-face, v-face, cell) arrays of ``parts`` stored on
    ``box``, with any leading axes; zero outside the box."""
    out = []
    for part, b, whole in zip(parts, box, grid_box(grid)):
        a = np.zeros(part.shape[:-2] + tuple(s.stop for s in whole))
        a[(Ellipsis,) + b] = part
        out.append(a)
    return tuple(out)


def control_inner(a: ControlTrajectory, b: ControlTrajectory, grid: GridSpec,
                  dt: float) -> float:
    s = float(np.sum(a.vu * b.vu) + np.sum(a.vv * b.vv) + np.sum(a.v0 * b.v0))
    return s * grid.cell_area * dt


def control_norm(a: ControlTrajectory, grid: GridSpec, dt: float) -> float:
    return float(np.sqrt(max(control_inner(a, a, grid, dt), 0.0)))


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"penalty epsilon must be finite and positive, got {eps!r}")


@dataclass(frozen=True)
class PenaltySpec:
    epsilon: float = 1.0e-6
    weight_mode: str = "carleman"
    t_clip: float | None = None      # None: weights.default_t_clip
    cg_tol: float = 1.0e-8
    cg_max_iters: int = 600

    def __post_init__(self):
        _check_eps(self.epsilon)
        if self.weight_mode not in ("carleman", "unweighted"):
            raise DomainError("weight_mode must be 'carleman' or 'unweighted'")
        if self.t_clip is not None and not (self.t_clip > 0.0):
            raise DomainError("t_clip must be positive (or None for the default)")
        if self.cg_max_iters < 1:
            raise DomainError("cg_max_iters must be >= 1")


@dataclass(frozen=True)
class OuterLoopSpec:
    max_outer: int = 20
    outer_tol: float = 1.0e-9
    damping: float = 1.0

    def __post_init__(self):
        if self.max_outer < 1:
            raise DomainError("max_outer must be >= 1")
        if not (self.outer_tol > 0.0):
            raise DomainError("outer_tol must be positive")
        if not (0.0 < self.damping <= 1.0):
            raise DomainError("damping must lie in (0, 1]")


@dataclass
class SynthesisReport:
    terminal_norm: float = 0.0
    control_energy_weighted: float = 0.0
    cg_iters: int = 0
    outer_iters: int = 0
    eps: float = 0.0
    wall_time_s: float = 0.0
    uncontrolled_terminal_norm: float = 0.0
    data_norm: float = 0.0
    converged: bool = True
    forward_sweeps: int = 0      # linear forward runs of the solve(s) behind this report
    adjoint_sweeps: int = 0      # adjoint runs of the same
    j_history: list = field(default_factory=list)
    update_history: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    z_state: object = field(default=None, repr=False)  # warm-start carrier, not serialized
    sweep: list = field(default_factory=list, repr=False)  # eps-sweep reports, not serialized

    def lines(self):
        out = [
            f"terminal_norm = {self.terminal_norm:.17g}",
            f"control_energy_weighted = {self.control_energy_weighted:.17g}",
            f"cg_iters = {self.cg_iters}",
            f"outer_iters = {self.outer_iters}",
            f"eps = {self.eps:.17g}",
            f"wall_time_s = {self.wall_time_s:.6f}",
            f"uncontrolled_terminal_norm = {self.uncontrolled_terminal_norm:.17g}",
            f"data_norm = {self.data_norm:.17g}",
            f"converged = {self.converged}",
            f"forward_sweeps = {self.forward_sweeps}",
            f"adjoint_sweeps = {self.adjoint_sweeps}",
        ]
        if self.update_history:
            out.append("update_norms = "
                       + ",".join(f"{u:.17g}" for u in self.update_history))
        for k, v in sorted(self.extra.items()):
            out.append(f"{k} = {v:.17g}" if isinstance(v, float) else f"{k} = {v}")
        return out


def step_weight_logs(pen: PenaltySpec, weights: WeightTables | None,
                     tgrid: TimeGrid) -> np.ndarray:
    """Per-step log control weights for the configured mode."""
    if pen.weight_mode == "unweighted":
        return np.zeros(tgrid.nt)
    if weights is None:
        raise DomainError("carleman weight_mode needs WeightTables")
    return control_weight_logs(weights, default_t_clip(pen.t_clip, tgrid))


def weighted_control_energy(c: ControlTrajectory, logw: np.ndarray,
                            grid: GridSpec, dt: float) -> float:
    """iint w^2 (|v|^2 + |v0|^2) through logs; steps with v = 0 add nothing
    whatever their weight, and the energy is +inf once a term overflows."""
    total = 0.0
    with np.errstate(over="ignore"):
        for n in range(len(logw)):
            sq = float(np.sum(c.vu[n] ** 2) + np.sum(c.vv[n] ** 2) + np.sum(c.v0[n] ** 2))
            if sq > 0.0:
                total += np.exp(2.0 * logw[n] + np.log(sq))
    return total * grid.cell_area * dt


@dataclass(eq=False)
class ShiftMember:
    """One eps of a multi-shift solve: (H_seed + delta I) z = b_seed.

    Its residual is zeta times the seed's, so it freezes once
    |zeta_k| |r_k| <= cg_tol |r_0|; ``cg_iters`` is that k.  A member other
    than the main eps takes its terminal norm and control energy when it
    freezes and then drops its vectors (``z`` becomes None).
    """

    eps: float
    delta: float
    z: ControlTrajectory | None
    p: ControlTrajectory | None      # None for the seed: it moves along the shared p
    j_history: list
    zeta: float = 1.0
    zeta_prev: float = 1.0
    cg_iters: int = 0
    terminal_norm: float = 0.0
    control_energy: float = 0.0


class LinearControlProblem:
    """Penalized HUM quadratic for one linear configuration.

    With an ``eps_sweep`` the problem's operators (``hessian_apply``, ``rhs``)
    are those of the seed, the smallest eps among ``pen.epsilon`` and the
    sweep; ``solve`` then also solves every sweep member (module docstring).

    Its vectors live on the patch's box ``self.box``, as do ``self.bumps``;
    ``self.masks`` are the whole-grid supports bump > 0.
    """

    def __init__(self, y0, th0, f1, f2, pen: PenaltySpec, logw: np.ndarray,
                 grid: GridSpec, tgrid: TimeGrid, nu0: float, bumps,
                 coupling: float | None = None, eps_sweep=()):
        for eps in eps_sweep:
            _check_eps(eps)
        self.grid, self.tgrid = grid, tgrid
        self.pen = pen
        self.eps_sweep = tuple(eps_sweep)
        self.eps = min((pen.epsilon,) + self.eps_sweep)
        self.logw = logw
        self.w_inv = np.exp(-logw)
        self.box = control_box(bumps)
        self.masks = tuple(b > 0.0 for b in bumps)
        self.bumps = tuple(b[s] for b, s in zip(bumps, self.box))
        self.box_masks = tuple(b > 0.0 for b in self.bumps)
        self.prop = LinearPropagator(grid, tgrid, nu0, bumps=bumps, coupling=coupling)
        self.y0, self.th0 = y0, th0
        self.sources = zero_padded_sources(f1, f2, grid, tgrid.nt)
        self.forward_sweeps = 0
        self.adjoint_sweeps = 0
        self.members: dict[float, ShiftMember] = {}

    # -- building blocks ----------------------------------------------------

    def controls_from_z(self, z: ControlTrajectory) -> ControlTrajectory:
        wi = self.w_inv[:, None, None]
        mu, mv, mc = self.box_masks
        return ControlTrajectory(z.vu * wi * mu, z.vv * wi * mv, z.v0 * wi * mc, self.box)

    def _terminal_of(self, controls, with_sources: bool, on_state=None):
        src = self.sources if with_sources else None
        y0 = self.y0 if with_sources else (self.grid.zeros_u(), self.grid.zeros_v())
        th0 = self.th0 if with_sources else self.grid.zeros_cells()
        self.forward_sweeps += 1
        return self.prop.run(y0, th0, controls=controls, sources=src, on_state=on_state)

    def _bt_zeta(self, ut, vt, tht, weight_inv: bool = True) -> ControlTrajectory:
        """(1/eps) B^T L^T applied to a terminal state, optionally through W^-1."""
        eps = self.eps
        self.adjoint_sweeps += 1
        adj = run_adjoint((ut / eps, vt / eps), tht / eps, None, None, self.prop,
                          self.box)
        out = ControlTrajectory(adj.zeta_u, adj.zeta_v, adj.zeta_th, self.box)
        for arr, bump in zip(out.parts, self.bumps):
            arr *= bump
            if weight_inv:
                arr *= self.w_inv[:, None, None]
        return out

    def hessian_apply(self, z: ControlTrajectory) -> ControlTrajectory:
        """H z, with ``z`` read on the problem's box (a whole-grid z is
        cropped to it)."""
        z = z.on(self.box)
        ut, vt, tht = self._terminal_of(self.controls_from_z(z), with_sources=False)
        out = self._bt_zeta(ut, vt, tht)
        out.axpy(1.0, z)
        return out

    def rhs(self):
        """-gradient at z = 0, and the free terminal norm / J(0)."""
        ut, vt, tht = self._terminal_of(None, with_sources=True)
        tnorm_sq = ops.state_norm_sq(ut, vt, tht, self.grid)
        g0 = self._bt_zeta(ut, vt, tht)
        return g0.scaled(-1.0), tnorm_sq

    def terminal_norm(self, controls: ControlTrajectory) -> float:
        ut, vt, tht = self._terminal_of(controls, with_sources=True)
        return float(np.sqrt(ops.state_norm_sq(ut, vt, tht, self.grid)))

    # -- CG minimization in z -----------------------------------------------

    def _freeze(self, m: ShiftMember) -> None:
        m.p = None
        if m.eps != self.pen.epsilon:
            m.terminal_norm = self.terminal_norm(self.controls_from_z(m.z))
            m.control_energy = control_inner(m.z, m.z, self.grid, self.tgrid.dt)
            m.z = None

    def solve(self, z0: ControlTrajectory | None = None):
        """CG on the seed system, carrying every other eps as a shifted system.

        Returns (z, controls, iters, j_history, free terminal norm) of
        ``pen.epsilon``; every distinct eps, the main one included, is left
        in ``self.members``.  A warm start ``z0`` is only defined for a
        single eps, whose arithmetic is then that of plain CG.
        """
        grid, dt, pen = self.grid, self.tgrid.dt, self.pen
        if z0 is not None and self.eps_sweep:
            raise DomainError("a warm start z0 cannot be shared by eps-sweep members")
        b, free_tnorm_sq = self.rhs()
        if z0 is None:
            z = ControlTrajectory.zeros(grid, self.tgrid.nt, self.box)
            r = b
            j0 = 0.5 * free_tnorm_sq / self.eps
        else:
            z = z0.copy()
            r = b.plus(self.hessian_apply(z), -1.0)
            j0 = (0.5 * control_inner(z, z, grid, dt)
                  + 0.5 * self.terminal_norm(self.controls_from_z(z)) ** 2 / self.eps)
        p = r.copy()
        seed = ShiftMember(self.eps, 0.0, z, None, [j0])
        del b, z
        active = [seed] + [
            ShiftMember(eps, eps / self.eps - 1.0,
                        ControlTrajectory.zeros(grid, self.tgrid.nt, self.box), p.copy(),
                        [0.5 * free_tnorm_sq / eps])
            for eps in sorted(set((pen.epsilon,) + self.eps_sweep) - {self.eps})]
        self.members = {m.eps: m for m in active}
        rr = control_inner(r, r, grid, dt)
        gnorm0 = np.sqrt(rr)
        tol = pen.cg_tol * gnorm0
        if gnorm0 > 0.0:
            alpha_prev, beta_prev = 1.0, 0.0
            for it in range(1, pen.cg_max_iters + 1):
                hp = self.hessian_apply(p)
                php = control_inner(p, hp, grid, dt)
                if php <= 0.0:
                    raise ConvergenceError("CG curvature lost (operator not SPD?)",
                                           history=seed.j_history)
                alpha = rr / php
                for m in active:
                    zeta = (m.zeta * m.zeta_prev * alpha_prev
                            / (alpha * beta_prev * (m.zeta_prev - m.zeta)
                               + m.zeta_prev * alpha_prev * (1.0 + m.delta * alpha)))
                    alpha_m = alpha * zeta / m.zeta
                    m.z.axpy(alpha_m, p if m.p is None else m.p)
                    m.j_history.append(m.j_history[-1] - 0.5 * alpha_m * m.zeta ** 2
                                       * rr / (1.0 + m.delta))
                    m.zeta_prev, m.zeta = m.zeta, zeta
                    m.cg_iters = it
                r.axpy(-alpha, hp)
                del hp
                rr_new = control_inner(r, r, grid, dt)
                rnorm = np.sqrt(rr_new)
                still = []
                for m in active:
                    if abs(m.zeta) * rnorm <= tol:
                        self._freeze(m)
                    else:
                        still.append(m)
                active = still
                if not active:
                    rr = rr_new
                    break
                beta = rr_new / rr
                p.xpby(r, beta)
                for m in active:
                    if m.p is not None:
                        m.p.xpby(r, beta * (m.zeta / m.zeta_prev) ** 2, a=m.zeta)
                alpha_prev, beta_prev = alpha, beta
                rr = rr_new
            else:
                raise ConvergenceError(
                    f"CG stalled: |g|/|g0| = {np.sqrt(rr) / gnorm0:.3e} after "
                    f"{pen.cg_max_iters} iterations", history=seed.j_history)
        else:
            for m in active:
                self._freeze(m)
        main = self.members[pen.epsilon]
        return (main.z, self.controls_from_z(main.z), main.cg_iters,
                main.j_history, float(np.sqrt(free_tnorm_sq)))


def objective(controls: ControlTrajectory, y0, th0, f1, f2, pen: PenaltySpec,
              weights: WeightTables | None, grid: GridSpec, tgrid: TimeGrid,
              nu0: float, bumps, coupling=None) -> float:
    """J = control energy (weighted) + terminal penalty, by one forward run."""
    logw = step_weight_logs(pen, weights, tgrid)
    prob = LinearControlProblem(y0, th0, f1, f2, pen, logw, grid, tgrid, nu0,
                                bumps, coupling)
    tn = prob.terminal_norm(controls)
    return (0.5 * weighted_control_energy(controls, logw, grid, tgrid.dt)
            + 0.5 * tn * tn / pen.epsilon)


def gradient(controls: ControlTrajectory, y0, th0, f1, f2, pen: PenaltySpec,
             weights: WeightTables | None, grid: GridSpec, tgrid: TimeGrid,
             nu0: float, bumps, coupling=None) -> ControlTrajectory:
    """Reduced gradient w^2 v + 1~_omega zeta via one forward + one adjoint,
    on the patch's box (``controls`` are read on it)."""
    logw = step_weight_logs(pen, weights, tgrid)
    prob = LinearControlProblem(y0, th0, f1, f2, pen, logw, grid, tgrid, nu0,
                                bumps, coupling)
    ut, vt, tht = prob._terminal_of(controls, with_sources=True)
    zeta = prob._bt_zeta(ut, vt, tht, weight_inv=False)
    with np.errstate(over="ignore"):  # w^2 = +inf where the weight blows up
        wsq = np.exp(2.0 * logw)[:, None, None]

    def part(v, zeta_part, mask):
        # w^2 v is 0 wherever v is or the mask is, never inf * 0
        wv = np.multiply(v, wsq, out=np.zeros_like(v), where=(v != 0.0) & mask)
        return (wv + zeta_part) * mask

    return ControlTrajectory(*(part(v, zp, mask) for v, zp, mask in zip(
        controls.on(prob.box).parts, zeta.parts, prob.box_masks)), prob.box)


def solve_linear_control(y0, th0, f1, f2, pen: PenaltySpec,
                         weights: WeightTables | None, grid: GridSpec,
                         tgrid: TimeGrid, nu0: float, bumps, coupling=None,
                         z0: ControlTrajectory | None = None, eps_sweep=(),
                         on_state=None):
    """Penalized HUM for the linear system.

    Returns (controls, SynthesisReport); the report's uncontrolled terminal
    norm comes from the same data with controls off, and ``on_state`` sees the
    levels of the final controlled run.
    Every eps in ``eps_sweep`` is solved by the same multi-shift CG, and its
    report lands in ``report.sweep`` in the order given; a member equal to
    ``pen.epsilon`` is the main solve itself.  All these reports count the
    forward and adjoint sweeps of the one shared solve.
    """
    t0 = time.perf_counter()
    logw = step_weight_logs(pen, weights, tgrid)
    prob = LinearControlProblem(y0, th0, f1, f2, pen, logw, grid, tgrid, nu0,
                                bumps, coupling, eps_sweep=eps_sweep)
    z, controls, iters, j_hist, free_tnorm = prob.solve(z0=z0)
    final = prob._terminal_of(controls, True, on_state)
    report = SynthesisReport(
        terminal_norm=float(np.sqrt(ops.state_norm_sq(*final, grid))),
        control_energy_weighted=control_inner(z, z, grid, tgrid.dt),
        cg_iters=iters,
        outer_iters=1,
        eps=pen.epsilon,
        wall_time_s=time.perf_counter() - t0,
        uncontrolled_terminal_norm=free_tnorm,
        data_norm=float(np.sqrt(ops.state_norm_sq(y0[0], y0[1], th0, grid))),
        forward_sweeps=prob.forward_sweeps,
        adjoint_sweeps=prob.adjoint_sweeps,
        j_history=j_hist,
        z_state=z,
    )
    for eps in eps_sweep:
        member = replace(report, extra={}, sweep=[], z_state=None)
        if eps != pen.epsilon:
            m = prob.members[eps]
            member = replace(member, terminal_norm=m.terminal_norm,
                             control_energy_weighted=m.control_energy,
                             cg_iters=m.cg_iters, eps=eps, j_history=m.j_history)
        report.sweep.append(member)
    return controls, report


def _frozen_sources(u, v, th, spec: SystemSpec, grid: GridSpec):
    """All nonlinear/nonlocal terms of one state as sources (F1u, F1v, F2):
    the nonlinear step's explicit terms, plus the excess (nu - nu0) of its
    diffusion over the linear system's."""
    nu0 = spec.law.nu0
    nu, nu_th, au, av, adv_th, heat = explicit_terms(u, v, th, spec, grid)
    f2 = (nu_th - nu0) * ops.laplacian_cells(th, grid) - adv_th
    if heat is not None:
        f2 += nu * heat
    return ((nu - nu0) * ops.laplacian_u(u, grid) - au,
            (nu - nu0) * ops.laplacian_v(v, grid) - av, f2)


def _freezer(out: list, spec: SystemSpec, grid: GridSpec, nt: int):
    """An ``on_state`` hook filling ``out`` with the (F1u, F1v, F2) arrays of
    shape (nt, ...) whose level n < nt is ``_frozen_sources`` of level n; the
    arrays are allocated when the run starts, not before."""
    def hook(k, t, u, v, th):
        if k == 0:
            out[:] = [np.zeros((nt,) + a.shape) for a in (u, v, th)]
        if k < nt:
            out[0][k], out[1][k], out[2][k] = _frozen_sources(u, v, th, spec, grid)
    return hook


def solve_nonlinear_control(y0, th0, spec: SystemSpec, pen: PenaltySpec,
                            outer: OuterLoopSpec, weights: WeightTables | None,
                            grid: GridSpec, tgrid: TimeGrid, bumps, on_state=None):
    """Source-term fixed point around the linear synthesis.

    Each outer pass freezes the nonlinear terms of the previous pass's
    controlled run, streamed from its final forward run, into (F1, F2) and
    re-solves the linear control problem (warm started).  On convergence the
    control is re-simulated through the full nonlinear solver, whose levels
    ``on_state`` sees; its terminal norm is reported.

    Returns (controls, the re-simulation's EnergyTrace, SynthesisReport).
    """
    t0 = time.perf_counter()
    nu0 = spec.law.nu0
    nt = tgrid.nt
    controls_prev = ControlTrajectory.zeros(grid, nt, control_box(bumps))
    f1 = f2 = None
    f1_prev = f2_prev = None
    z_prev = None
    updates: list[float] = []
    cg_total = forward_sweeps = adjoint_sweeps = 0
    converged = False
    n_outer = 0
    for k in range(1, outer.max_outer + 1):
        n_outer = k
        frozen: list = []
        controls, rep = solve_linear_control(
            y0, th0, f1, f2, pen, weights, grid, tgrid, nu0, bumps,
            coupling=spec.buoyancy, z0=z_prev, on_state=_freezer(frozen, spec, grid, nt))
        z_prev = rep.z_state
        cg_total += rep.cg_iters
        forward_sweeps += rep.forward_sweeps
        adjoint_sweeps += rep.adjoint_sweeps
        upd = control_norm(controls.plus(controls_prev, -1.0), grid, tgrid.dt)
        updates.append(upd)
        scale = max(control_norm(controls, grid, tgrid.dt), 1.0e-300)
        controls_prev = controls
        if upd <= outer.outer_tol * max(scale, 1.0):
            converged = True
            break
        if len(updates) >= 4 and all(
                updates[-i] > updates[-i - 1] for i in (1, 2, 3)):
            raise ConvergenceError(
                "outer fixed point diverging over 3 consecutive iterations; "
                "reduce the data norm or the damping factor", history=updates)
        f1_new, f2_new = tuple(frozen[:2]), frozen[2]
        if outer.damping < 1.0 and f1_prev is not None:
            d = outer.damping
            f1_new = ((1 - d) * f1_prev[0] + d * f1_new[0],
                      (1 - d) * f1_prev[1] + d * f1_new[1])
            f2_new = (1 - d) * f2_prev + d * f2_new
        f1, f2 = f1_new, f2_new
        f1_prev, f2_prev = f1_new, f2_new

    resim, trace = run_nonlinear(y0, th0, controls_prev, spec, grid, tgrid,
                                 bumps=bumps, on_state=on_state)
    logw = step_weight_logs(pen, weights, tgrid)
    report = SynthesisReport(
        terminal_norm=float(np.sqrt(ops.state_norm_sq(*resim, grid))),
        control_energy_weighted=weighted_control_energy(controls_prev, logw,
                                                        grid, tgrid.dt),
        cg_iters=cg_total,
        outer_iters=n_outer,
        eps=pen.epsilon,
        wall_time_s=time.perf_counter() - t0,
        uncontrolled_terminal_norm=0.0,
        data_norm=float(np.sqrt(ops.state_norm_sq(y0[0], y0[1], th0, grid))),
        converged=converged,
        forward_sweeps=forward_sweeps,
        adjoint_sweeps=adjoint_sweeps,
        update_history=updates,
    )
    free, _ = run_nonlinear(y0, th0, None, spec, grid, tgrid)
    report.uncontrolled_terminal_norm = float(np.sqrt(ops.state_norm_sq(*free, grid)))
    return controls_prev, trace, report


@dataclass
class LargeTimeReport:
    crossing_time: float
    t_star_predicted: float
    decay_c1: float
    decay_c2: float
    fit_r_squared: float
    final_norm: float
    delta: float
    phase1_steps: int
    synthesis: SynthesisReport

    def lines(self):
        out = [
            f"crossing_time = {self.crossing_time:.17g}",
            f"t_star_predicted = {self.t_star_predicted:.17g}",
            f"decay_c1 = {self.decay_c1:.17g}",
            f"decay_c2 = {self.decay_c2:.17g}",
            f"fit_r_squared = {self.fit_r_squared:.17g}",
            f"final_norm = {self.final_norm:.17g}",
            f"delta = {self.delta:.17g}",
            f"phase1_steps = {self.phase1_steps}",
        ]
        out += [f"synthesis_{ln}" for ln in self.synthesis.lines()]
        return out


def large_time_control(y0, th0, delta: float, spec: SystemSpec,
                       pen: PenaltySpec, outer: OuterLoopSpec,
                       weights: WeightTables | None, grid: GridSpec,
                       phase1_tgrid: TimeGrid, tail_tgrid: TimeGrid, bumps,
                       on_state=None):
    """Decay-then-control pipeline.

    Phase 1 integrates the uncontrolled system until the energy monitor E
    drops below ``delta`` and stops there (the fitted decay-law waiting time
    is reported beside the crossing).  Phase 2 runs the local nonlinear
    synthesis on the tail horizon from the crossing state, with ``weights``
    evaluated on ``tail_tgrid``.

    ``on_state`` sees the composed run: phase-1 levels 0..n1, then the tail
    re-simulation's levels k as (n1 + k, crossing time + t), from k = 1 when
    phase 1 ran (its level n1 is the tail's start) and from k = 0 otherwise.

    Returns (EnergyTrace of phase 1 up to the crossing followed by the tail,
    LargeTimeReport).
    """
    from .diagnostics import decay_fit, t_star

    e0 = sum(energy_components(y0[0], y0[1], th0, grid))

    if e0 <= delta:
        trace1 = None
        cross_idx = 0
        fit_c1 = fit_c2 = r2 = float("nan")
        t_pred = 0.0
        cross_time = 0.0
        tail_y0, tail_th0 = y0, th0
    else:
        (uc, vc, tail_th0), trace1 = run_nonlinear(
            y0, th0, None, spec, grid, phase1_tgrid,
            on_state=chain_hooks(on_state, lambda k, t, u, v, th: sum(
                energy_components(u, v, th, grid)) <= delta))
        energy = trace1.energy
        if energy[-1] > delta:
            n = len(energy)
            tail = energy[int(0.9 * n):]
            if tail.size >= 2 and tail[-1] >= tail[0]:
                raise RegimeError("decay stalled: E not decreasing over the "
                                  "final 10% of the phase-1 horizon")
            raise RegimeError(
                f"E never crossed delta={delta:g} within the phase-1 horizon "
                f"(final E = {energy[-1]:.3e}); extend phase1 time")
        cross_idx = len(energy) - 1
        cross_time = float(trace1.t[cross_idx])
        fit = decay_fit(trace1, (0.2 * cross_time, cross_time))
        fit_c1, fit_c2, r2 = fit.c1, fit.c2, fit.r_squared
        t_pred = t_star(fit, delta, float(energy[0]))
        tail_y0 = (uc, vc)

    def tail_hook(k, t, u, v, th):
        if k > 0 or trace1 is None:
            on_state(cross_idx + k, cross_time + t, u, v, th)

    _, trace2, rep = solve_nonlinear_control(
        tail_y0, tail_th0, spec, pen, outer, weights, grid, tail_tgrid, bumps,
        on_state=None if on_state is None else tail_hook)

    trace = trace2
    if trace1 is not None:  # phase 1 up to the crossing, then the tail after it
        trace = EnergyTrace(np.concatenate([trace1.t, cross_time + trace2.t[1:]]), *(
            np.concatenate([getattr(trace1, name), getattr(trace2, name)[1:]])
            for name in ("grad_y_sq", "theta_sq", "grad_theta_sq")), lam1=trace2.lam1)
    report = LargeTimeReport(
        crossing_time=cross_time,
        t_star_predicted=t_pred,
        decay_c1=fit_c1, decay_c2=fit_c2, fit_r_squared=r2,
        final_norm=rep.terminal_norm,
        delta=delta,
        phase1_steps=cross_idx,
        synthesis=rep,
    )
    return trace, report
