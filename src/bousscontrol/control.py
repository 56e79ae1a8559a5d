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
The terminal state T(z) of the forward run from zero with the controls of z is
linear in z, and every Hessian apply forms T(p) of the seed's direction p, so a
member carries T(z) and T(p) beside z and p with the same recurrences; its
terminal norm is that of the free terminal state plus T(z), with no forward
run of its own.

The inverse weight w^-1 is exactly 0 where the Carleman weight is past the
double range, so the controls of z vanish on those steps whatever z is: the
forward runs add no control there (``forward.live_steps``) and the adjoint
runs of the Hessian read no zeta back there.

Nonlinear problem: outer source-term fixed point.  At iterate k all nonlinear
and nonlocal terms of the previous controlled run are frozen into (F1, F2) of
the linear system, and the one linear control problem is re-solved with them,
warm-started from its own last solution; on convergence the control is
validated by an independent nonlinear re-simulation.  The frozen sources are
made once per pass in the form the linear sweeps add them, so no sweep step
transforms a source (``_frozen_sources``).

Only the right-hand side changes between those solves, so the problem keeps a
recycle space W of at most RECYCLE_K CG directions, each stored with its
product H w (two control vectors per direction) and made H-orthonormal after
every solve.  It fills with the directions of the first passes and is then
frozen.  A warm solve Galerkin-projects its start onto W and runs deflated CG,
whose directions are kept H-orthogonal to W with the stored H W (Saad, Yeung,
Erhel & Guyomarc'h, SIAM J. Sci. Comput. 21, 2000); it stops at cg_tol times
the unprojected |b - H z|.  Neither step applies H, so every CG iteration is
still one forward and one adjoint sweep.

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
from .geometry import box_within, control_box, grid_box
from .forward import (EnergyTrace, LinearPropagator, SystemSpec,
                      explicit_terms, level_blocks, run_nonlinear)
from .weights import WeightTables, control_weight_logs, default_t_clip


@dataclass
class ControlTrajectory:
    """Time-sampled distributed controls; sample n acts on [t_n, t_{n+1}).

    Each part is stored on its solver grid's slice of ``box`` (see
    ``geometry.control_box``): the patch's bounding box for the controls a
    synthesis makes, the whole grid (``geometry.grid_box``) for fields that
    cover Omega.  Outside the box the controls are zero; ``full`` stores
    them on the whole grid.
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
        out = ControlTrajectory.zeros(grid, len(self.vu))
        for whole, part, b in zip(out.parts, self.parts, self.box):
            whole[(slice(None),) + b] = part
        return out

    def on(self, box) -> "ControlTrajectory":
        """The controls read on ``box``, which lies inside their own (views)."""
        if box == self.box:
            return self
        return ControlTrajectory(*(a[(slice(None),) + i] for a, i in
                                   zip(self.parts, box_within(box, self.box))), box)

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
        if self.t_clip is not None and not (0.0 < self.t_clip < math.inf):
            raise DomainError("t_clip must be finite and positive (or None for the default)")
        if not (0.0 < self.cg_tol < math.inf):
            raise DomainError(f"cg_tol must be finite and positive, got {self.cg_tol!r}")
        if self.cg_max_iters < 1:
            raise DomainError("cg_max_iters must be >= 1")


@dataclass(frozen=True)
class OuterLoopSpec:
    max_outer: int = 20
    outer_tol: float = 1.0e-9

    def __post_init__(self):
        if self.max_outer < 1:
            raise DomainError("max_outer must be >= 1")
        if not (0.0 < self.outer_tol < math.inf):
            raise DomainError(f"outer_tol must be finite and positive, got {self.outer_tol!r}")


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
    cg_iters_per_pass: list = field(default_factory=list)          # of the outer passes
    recycled_vectors_per_pass: list = field(default_factory=list)  # |W| deflating each
    sweep: list = field(default_factory=list, repr=False)  # eps-sweep reports, not serialized


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


RECYCLE_K = 16     # the most CG directions a recycling problem keeps


class RecycleSpace:
    """The deflation space W of a re-solved problem and its products H W.

    Each pair is a CG direction p and H p, scaled by 1 / sqrt(<p, H p>) and
    stored flat (the box's vu, vv, v0 entries in turn) as one row of ``w``
    and one of ``hw`` (RECYCLE_K rows each; a row's pages are touched when
    it is written).  Pairs that a solve adds stay pending until ``commit``
    H-orthonormalises them with the kept ones, so a solve deflates with the
    space it started from; once RECYCLE_K pairs are kept the space is frozen.
    """

    def __init__(self, box, nt: int, scale: float):
        self.box = box
        self.shapes = [(nt,) + tuple(s.stop - s.start for s in b) for b in box]
        self.scale = scale                # the control inner product's weight
        n = sum(math.prod(shape) for shape in self.shapes)
        self.w, self.hw = np.empty((RECYCLE_K, n)), np.empty((RECYCLE_K, n))
        self.size = 0                     # rows kept
        self.rows = 0                     # rows kept or pending

    def __len__(self) -> int:
        return self.size

    def _split(self, flat) -> ControlTrajectory:
        parts, start = [], 0
        for shape in self.shapes:
            n = math.prod(shape)
            parts.append(flat[start:start + n].reshape(shape))
            start += n
        return ControlTrajectory(*parts, self.box)

    @staticmethod
    def _flat(x: ControlTrajectory) -> np.ndarray:
        return np.concatenate([part.ravel() for part in x.parts])

    def add(self, p: ControlTrajectory, hp: ControlTrajectory, php: float) -> None:
        """Keep the pair (p, H p), scaled to <w, H w> = 1, while there is room."""
        if self.rows < RECYCLE_K:
            s = 1.0 / math.sqrt(php)
            for store, x in ((self.w, p), (self.hw, hp)):
                np.multiply(self._flat(x), s, out=store[self.rows])
            self.rows += 1

    def commit(self) -> None:
        """Join the pending pairs to the kept ones and make the lot
        H-orthonormal: with W^T H W = V diag(lam) V^T, W becomes
        W V diag(lam)^-1/2 (and H W alike), where eigenvalues below 1e-12 of
        the largest are dropped.  CG loses conjugacy within a solve, so the
        raw directions can be far from orthonormal; a second pass removes
        the rounding that the first one amplifies.  Both products run on
        columns 4096 at a time, which bounds their temporaries."""
        if self.rows == self.size:
            return
        chunks = [slice(j, j + 4096) for j in range(0, self.w.shape[1], 4096)]
        for _ in range(2):
            w, hw = self.w[:self.rows], self.hw[:self.rows]
            gram = sum(w[:, c] @ hw[:, c].T for c in chunks) * self.scale
            lam, vec = np.linalg.eigh(0.5 * (gram + gram.T))
            keep = lam > 1e-12 * lam[-1]
            rotate = (vec[:, keep] / np.sqrt(lam[keep])).T
            for store in (self.w, self.hw):
                for c in chunks:
                    store[:len(rotate), c] = rotate @ store[:self.rows, c]
            self.rows = len(rotate)
        self.size = self.rows

    def inner(self, x: ControlTrajectory, products: bool = False) -> np.ndarray:
        """<W, x>, or <H W, x> with ``products``."""
        rows, flat = (self.hw if products else self.w)[:self.size], self._flat(x)
        return np.array([row @ flat for row in rows]) * self.scale

    def combination(self, mu: np.ndarray, products: bool = False) -> ControlTrajectory:
        """W mu, or H W mu with ``products``."""
        rows = (self.hw if products else self.w)[:self.size]
        flat = mu[0] * rows[0]
        for m, row in zip(mu[1:], rows[1:]):
            flat += m * row
        return self._split(flat)


@dataclass(eq=False)
class ShiftMember:
    """One eps of a multi-shift solve: (H_seed + delta I) z = b_seed.

    Its residual is zeta times the seed's, so it freezes once
    |zeta_k| |r_k| <= cg_tol |r_0|; ``cg_iters`` is that k.  A member other
    than the main eps also carries ``tz`` = T(z) and ``tp`` = T(p) (module
    docstring) as (u, v, theta) tuples; ``tp`` follows ``p`` one iteration
    late, once a Hessian apply has formed T of the seed's new direction.  It
    takes its terminal norm and control energy when it freezes and then
    drops its vectors (``z`` becomes None).
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
    tz: tuple | None = None
    tp: tuple | None = None
    p_coef: tuple | None = None    # (a, b) of its last update p <- a r + b p


class LinearControlProblem:
    """Penalized HUM quadratic for one linear configuration.

    With an ``eps_sweep`` the problem's operators (``hessian_apply``, ``rhs``)
    are those of the seed, the smallest eps among ``pen.epsilon`` and the
    sweep; ``solve`` then also solves every sweep member (module docstring).
    ``hessian_apply`` keeps the terminal state T(z) it formed in
    ``self.terminal``, and ``rhs`` the free terminal state in
    ``self.free_terminal``.

    Its vectors live on the patch's box ``self.box``, as do ``self.bumps``;
    ``self.masks`` are the whole-grid supports bump > 0.  ``self.sources``
    holds the physical (f1, f2) as the propagator takes them
    (``LinearPropagator.source_modes``) and may be replaced between solves
    by sources in that form: only ``rhs`` depends on them.  A
    single-eps problem built with ``recycle`` keeps the ``RecycleSpace``
    ``self.space`` across its solves; any other problem's is None.
    """

    def __init__(self, y0, th0, f1, f2, pen: PenaltySpec, logw: np.ndarray,
                 grid: GridSpec, tgrid: TimeGrid, nu0: float, bumps,
                 coupling: float | None = None, eps_sweep=(), recycle: bool = False):
        for eps in eps_sweep:
            _check_eps(eps)
        if recycle and eps_sweep:
            raise DomainError("a recycle space needs a single-eps problem")
        self.grid, self.tgrid = grid, tgrid
        self.pen = pen
        self.eps_sweep = tuple(eps_sweep)
        self.eps = min((pen.epsilon,) + self.eps_sweep)
        self.logw = logw
        self.w_inv = np.exp(-logw)
        self.live = self.w_inv > 0.0    # the steps where controls of z can be nonzero
        self.box = control_box(bumps)
        self.masks = tuple(b > 0.0 for b in bumps)
        self.bumps = tuple(b[s] for b, s in zip(bumps, self.box))
        self.box_masks = tuple(b > 0.0 for b in self.bumps)
        self.prop = LinearPropagator(grid, tgrid, nu0, bumps=bumps, coupling=coupling)
        self.y0, self.th0 = y0, th0
        self.sources = None if f1 is None and f2 is None else self.prop.source_modes(
            *(f1 if f1 is not None else (None, None)), f2)
        self.forward_sweeps = 0
        self.adjoint_sweeps = 0
        self.members: dict[float, ShiftMember] = {}
        self.hz: ControlTrajectory | None = None   # H z of the last single-eps solve
        self.terminal = self.free_terminal = None
        self.space = RecycleSpace(self.box, tgrid.nt, grid.cell_area * tgrid.dt) \
            if recycle else None
        self.passes = 0                             # solves begun

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
        """(1/eps) B^T L^T applied to a terminal state, optionally through W^-1;
        through W^-1 only the steps with w^-1 > 0 are read back, and the
        others, which W^-1 would zero, stay 0."""
        eps = self.eps
        self.adjoint_sweeps += 1
        adj = run_adjoint((ut / eps, vt / eps), tht / eps, None, None, self.prop,
                          self.box, read=self.live if weight_inv else None)
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
        self.terminal = self._terminal_of(self.controls_from_z(z), with_sources=False)
        out = self._bt_zeta(*self.terminal)
        out.axpy(1.0, z)
        return out

    def rhs(self):
        """-gradient at z = 0, and the free terminal norm / J(0)."""
        self.free_terminal = ut, vt, tht = self._terminal_of(None, with_sources=True)
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
            final = (f + t for f, t in zip(self.free_terminal, m.tz))
            m.terminal_norm = float(np.sqrt(ops.state_norm_sq(*final, self.grid)))
            m.control_energy = control_inner(m.z, m.z, self.grid, self.tgrid.dt)
            m.z = m.tz = m.tp = None

    def _fail(self, what: str, history) -> None:
        raise ConvergenceError(f"CG on pass {self.passes}: {what}", history=history)

    def solve(self):
        """CG on the seed system, carrying every other eps as a shifted system.

        Returns (z, controls, iters, j_history, free terminal norm) of
        ``pen.epsilon``; every distinct eps, the main one included, is left
        in ``self.members``.

        A single-eps problem keeps H z = b - r of its last solve in
        ``self.hz``, and its next solve continues from that z: r0 = b - H z
        and J(z) = 1/2 <H z, z> - <b, z> + J(0) take no Hessian apply and no
        forward run beyond ``rhs``.  With a non-empty recycle space that z is
        first Galerkin-projected onto it, J is taken there, and CG is
        deflated (module docstring).  An eps-sweep problem starts every solve
        from z = 0 and keeps no copy of b; its members other than the main
        eps take T(z) from the Hessian applies (module docstring), so the
        solve runs rhs's forward run and one per iteration.  A non-finite
        residual or curvature raises ConvergenceError naming the pass.
        """
        grid, dt, pen = self.grid, self.tgrid.dt, self.pen
        self.passes += 1
        b, free_tnorm_sq = self.rhs()
        j0 = 0.5 * free_tnorm_sq / self.eps
        hz, self.hz = self.hz, None
        if hz is not None:
            z = self.members[pen.epsilon].z
            r = b.plus(hz, -1.0)
        else:
            z = ControlTrajectory.zeros(grid, self.tgrid.nt, self.box)
            r, b = (b, None) if self.eps_sweep else (b.copy(), b)
        rr = control_inner(r, r, grid, dt)
        gnorm0 = np.sqrt(rr)
        if not math.isfinite(gnorm0):
            self._fail(f"non-finite residual |b - H z| = {gnorm0}", [j0])
        tol = pen.cg_tol * gnorm0
        space = self.space
        deflate = space is not None and len(space) > 0 and hz is not None
        if deflate:
            mu = space.inner(r)
            hw_mu = space.combination(mu, products=True)
            z.axpy(1.0, space.combination(mu))
            r.axpy(-1.0, hw_mu)
            hz.axpy(1.0, hw_mu)
            del hw_mu
            rr = control_inner(r, r, grid, dt)
            if not math.isfinite(rr):
                self._fail(f"non-finite projected residual |r|^2 = {rr}", [j0])
        if hz is not None:
            j0 += 0.5 * control_inner(hz, z, grid, dt) - control_inner(b, z, grid, dt)
        del hz
        p = r.copy()
        seed = ShiftMember(self.eps, 0.0, z, None, [j0])
        del z
        active = [seed] + [
            ShiftMember(eps, eps / self.eps - 1.0,
                        ControlTrajectory.zeros(grid, self.tgrid.nt, self.box), p.copy(),
                        [0.5 * free_tnorm_sq / eps])
            for eps in sorted(set((pen.epsilon,) + self.eps_sweep) - {self.eps})]
        self.members = {m.eps: m for m in active}
        # members other than the main eps carry T(z); they exist only without
        # a recycle space, so r = p - beta p_prev holds (no deflation)
        for m in active:
            if m.eps != pen.epsilon:
                m.tz = tuple(np.zeros_like(a) for a in self.free_terminal)
        tp_prev = None
        if np.sqrt(rr) > tol if deflate else gnorm0 > 0.0:
            if deflate:
                p.axpy(-1.0, space.combination(space.inner(r, products=True)))
            alpha_prev, beta_prev = 1.0, 0.0
            for it in range(1, pen.cg_max_iters + 1):
                hp = self.hessian_apply(p)
                php = control_inner(p, hp, grid, dt)
                if not math.isfinite(php):
                    self._fail(f"non-finite curvature <p, H p> = {php}", seed.j_history)
                if php <= 0.0:
                    self._fail("curvature lost (operator not SPD?)", seed.j_history)
                if space is not None:
                    space.add(p, hp, php)
                alpha = rr / php
                if any(m.tz is not None for m in active):
                    tp = self.terminal
                    # T(r) of the residual that p was built from
                    tr = tp if tp_prev is None else tuple(
                        x - beta_prev * y for x, y in zip(tp, tp_prev))
                    tp_prev = tp
                for m in active:
                    zeta = (m.zeta * m.zeta_prev * alpha_prev
                            / (alpha * beta_prev * (m.zeta_prev - m.zeta)
                               + m.zeta_prev * alpha_prev * (1.0 + m.delta * alpha)))
                    alpha_m = alpha * zeta / m.zeta
                    m.z.axpy(alpha_m, p if m.p is None else m.p)
                    if m.tz is not None:
                        if m.p is not None:      # T(p) of the p moved along below
                            m.tp = tr if m.p_coef is None else tuple(
                                m.p_coef[0] * x + m.p_coef[1] * y
                                for x, y in zip(tr, m.tp))
                        for mine, t in zip(m.tz, tp if m.p is None else m.tp):
                            mine += alpha_m * t
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
                if deflate:
                    p.axpy(-1.0, space.combination(space.inner(r, products=True)))
                for m in active:
                    if m.p is not None:
                        m.p_coef = (m.zeta, beta * (m.zeta / m.zeta_prev) ** 2)
                        m.p.xpby(r, m.p_coef[1], a=m.p_coef[0])
                alpha_prev, beta_prev = alpha, beta
                rr = rr_new
            else:
                self._fail(f"stalled: |g|/|g0| = {np.sqrt(rr) / gnorm0:.3e} after "
                           f"{pen.cg_max_iters} iterations", seed.j_history)
        else:
            for m in active:
                self._freeze(m)
        if space is not None:
            space.commit()
        if b is not None:
            b.axpy(-1.0, r)
            self.hz = b
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
                         eps_sweep=(), on_state=None):
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
    z, controls, iters, j_hist, free_tnorm = prob.solve()
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
    )
    for eps in eps_sweep:
        member = replace(report, sweep=[])
        if eps != pen.epsilon:
            m = prob.members[eps]
            member = replace(member, terminal_norm=m.terminal_norm,
                             control_energy_weighted=m.control_energy,
                             cg_iters=m.cg_iters, eps=eps, j_history=m.j_history)
        report.sweep.append(member)
    return controls, report


def _frozen_sources(u, v, th, spec: SystemSpec, modes: ops.ModalBasis, dt: float):
    """All nonlinear/nonlocal terms of a block of states, stacked on a
    leading level axis, as the linear system's sources (F1u, F1v, F2) in the
    form ``LinearPropagator.source_modes`` gives them: dt times their
    Helmholtz coefficients.  They are the nonlinear step's explicit terms,
    plus the excess (nu - nu0) lap of its diffusion over the linear
    system's, level by level; lap is the per-mode scaling by -lap_* of the
    fields' coefficients, which is the 5-point Laplacian of fields with zero
    normal wall values, so no physical Laplacian is formed."""
    nu0 = spec.law.nu0
    nu, nu_th, au, av, adv_th, heat = explicit_terms(u, v, th, spec, modes.grid)
    if heat is not None:
        heat *= nu[:, None, None]
        adv_th -= heat
    del heat

    def source(maps, field, lap, coeff, transport):
        """dt ((coeff - nu0) lap field - transport), in the field's coefficients."""
        fwd, _ = maps
        out = fwd(field)
        out *= lap
        out *= (nu0 - coeff)[:, None, None]
        out -= fwd(transport)
        out *= dt
        return out

    return (source(modes.hu, u, modes.lap_u, nu, au),
            source(modes.hv, v, modes.lap_v, nu, av),
            source(modes.cells, th, modes.lap_cells, nu_th, adv_th))


def _freezer(out: list, spec: SystemSpec, modes: ops.ModalBasis, tgrid: TimeGrid):
    """An ``on_state`` hook filling ``out`` with the sources of shape (nt,
    ...) whose row n < nt is ``_frozen_sources`` of level n.  It stacks the
    levels n < nt into blocks (``forward.level_blocks``) and calls
    ``_frozen_sources`` once per block; ``out`` is allocated at the first
    block, not before."""
    nt = tgrid.nt

    def frozen_block(k0, u, v, th):
        sources = _frozen_sources(u, v, th, spec, modes, tgrid.dt)
        if k0 == 0:
            out[:] = [np.zeros((nt,) + f.shape[1:]) for f in sources]
        for dest, f in zip(out, sources):
            dest[k0:k0 + len(f)] = f
    return level_blocks(modes.grid, nt, frozen_block)


def solve_nonlinear_control(y0, th0, spec: SystemSpec, pen: PenaltySpec,
                            outer: OuterLoopSpec, weights: WeightTables | None,
                            grid: GridSpec, tgrid: TimeGrid, bumps, on_state=None):
    """Source-term fixed point around the linear synthesis.

    One linear control problem is built once and re-solved on every outer
    pass, warm-started from its own residual and deflated by the recycle
    space its earlier passes filled (``LinearControlProblem.solve``).
    Between passes the nonlinear terms of the pass's controlled run, streamed
    from one forward run, replace its sources (F1, F2).  A pass that
    converges, or is the last one allowed, makes no such run.  The control is
    then re-simulated through the full nonlinear solver, whose levels
    ``on_state`` sees; its terminal norm is reported.

    Returns (controls, the re-simulation's EnergyTrace, SynthesisReport).
    """
    t0 = time.perf_counter()
    dt = tgrid.dt
    logw = step_weight_logs(pen, weights, tgrid)
    prob = LinearControlProblem(y0, th0, None, None, pen, logw, grid, tgrid,
                                spec.law.nu0, bumps, coupling=spec.buoyancy,
                                recycle=True)
    controls_prev = ControlTrajectory.zeros(grid, tgrid.nt, prob.box)
    updates: list[float] = []
    cg_per_pass: list[int] = []
    recycled: list[int] = []
    converged = False
    for k in range(1, outer.max_outer + 1):
        recycled.append(len(prob.space))
        _, controls, iters, _, _ = prob.solve()
        cg_per_pass.append(iters)
        updates.append(control_norm(controls.plus(controls_prev, -1.0), grid, dt))
        controls_prev = controls
        if updates[-1] <= outer.outer_tol * max(control_norm(controls, grid, dt), 1.0):
            converged = True
            break
        if len(updates) >= 4 and all(
                updates[-i] > updates[-i - 1] for i in (1, 2, 3)):
            raise ConvergenceError(
                "outer fixed point diverging over 3 consecutive iterations; "
                "reduce the data norm", history=updates)
        if k == outer.max_outer:
            break
        frozen: list = []
        prob._terminal_of(controls, True, _freezer(frozen, spec, prob.prop.modes, tgrid))
        prob.sources = tuple(frozen)
    forward_sweeps, adjoint_sweeps = prob.forward_sweeps, prob.adjoint_sweeps
    del prob

    resim, trace = run_nonlinear(y0, th0, controls_prev, spec, grid, tgrid,
                                 bumps=bumps, on_state=on_state)
    report = SynthesisReport(
        terminal_norm=float(np.sqrt(ops.state_norm_sq(*resim, grid))),
        control_energy_weighted=weighted_control_energy(controls_prev, logw, grid, dt),
        cg_iters=sum(cg_per_pass),
        outer_iters=k,
        eps=pen.epsilon,
        wall_time_s=time.perf_counter() - t0,
        uncontrolled_terminal_norm=0.0,
        data_norm=float(np.sqrt(ops.state_norm_sq(y0[0], y0[1], th0, grid))),
        converged=converged,
        forward_sweeps=forward_sweeps,
        adjoint_sweeps=adjoint_sweeps,
        update_history=updates,
        cg_iters_per_pass=cg_per_pass,
        recycled_vectors_per_pass=recycled,
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


def large_time_control(y0, th0, delta: float, spec: SystemSpec,
                       pen: PenaltySpec, outer: OuterLoopSpec,
                       weights: WeightTables | None, grid: GridSpec,
                       phase1_tgrid: TimeGrid, tail_tgrid: TimeGrid, bumps,
                       on_state=None):
    """Decay-then-control pipeline.

    Phase 1 integrates the uncontrolled system until the energy monitor E
    drops below ``delta`` and stops there, at level 0 for data already below
    it, reading E from its own energy trace (the fitted decay-law waiting
    time is reported beside the crossing).  Phase 2 runs the local nonlinear
    synthesis on the tail horizon from the crossing state, with ``weights``
    evaluated on ``tail_tgrid``.

    ``on_state`` sees the composed run: phase-1 levels 0..n1, then the tail
    re-simulation's levels k >= 1 as (n1 + k, crossing time + t); its level
    0 is phase-1 level n1.

    Returns (EnergyTrace of phase 1 up to the crossing followed by the tail,
    LargeTimeReport).
    """
    from .diagnostics import decay_fit, decay_window, t_star

    (uc, vc, tail_th0), trace1 = run_nonlinear(y0, th0, None, spec, grid, phase1_tgrid,
                                               on_state=on_state, stop_energy=delta)
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
    window = (0.2 * cross_time, cross_time)
    # crossed within the first steps: too few nodes to fit the law
    fit_c1 = fit_c2 = r2 = float("nan")
    t_pred = 0.0 if cross_idx == 0 else float("nan")
    if decay_window(trace1.t, window).sum() >= 2:
        fit = decay_fit(trace1, window)
        fit_c1, fit_c2, r2 = fit.c1, fit.c2, fit.r_squared
        t_pred = t_star(fit, delta, float(energy[0]))

    def tail_hook(k, t, u, v, th):
        if k > 0:
            on_state(cross_idx + k, cross_time + t, u, v, th)

    _, trace2, rep = solve_nonlinear_control(
        (uc, vc), tail_th0, spec, pen, outer, weights, grid, tail_tgrid, bumps,
        on_state=None if on_state is None else tail_hook)

    # phase 1 up to the crossing, then the tail after it
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
