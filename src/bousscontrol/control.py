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

The inverse weight w^-1 is exactly 0 where the Carleman weight is past the
double range, so the controls of z vanish on those steps whatever z is, and
the Hessian is the identity there: b, and so every CG vector, is 0 on them.
So z, p, r, H p, the recycle pairs and zeta hold one row per live step,
where w^-1 > 0 (``ControlTrajectory``), as they hold only the patch's box in
space; the forward runs read row i as the control of the i-th live step, and
the adjoint runs of the Hessian read zeta back on those steps only.  At
default parameters that is 65 of 128 steps.

Nonlinear problem: outer source-term fixed point.  At iterate k all nonlinear
and nonlocal terms of the previous controlled run are frozen into (F1, F2) of
the linear system, and the one linear control problem is re-solved with them,
warm-started from its own last solution; on convergence the control is
validated by an independent nonlinear re-simulation.  The frozen sources are
made once per pass in the form the linear sweeps add them, so no sweep step
transforms a source (``_frozen_sources``).

Every problem keeps a recycle space W of at most RECYCLE_K CG directions,
each stored with its product H w (two control vectors per direction) and the
terminal state T(w) of the forward run from zero with its controls, and made
H-orthonormal after every solve.  It fills with the directions of the first
solves and is then frozen.  A solve that continues from an earlier z, or
starts from z = 0 with a non-empty space, Galerkin-projects its start onto W
and runs deflated CG, whose directions are kept H-orthogonal to W with the
stored H W (Saad, Yeung, Erhel & Guyomarc'h, SIAM J. Sci. Comput. 21, 2000);
it stops at cg_tol times the unprojected |b - H z|.  Neither step applies H,
so every CG iteration is still one forward and one adjoint sweep.  T(z) is
linear in z, so CG carries it beside z from the T(p) that each Hessian apply
forms and from T(W); the terminal norm of z's controls is that of the free
terminal state plus T(z), with no forward run of its own.

The space serves two sequences of solves (Krylov recycling: Parks, de
Sturler, Mackey, Johnson & Maiti, SIAM J. Sci. Comput. 28, 2006).  On the
outer passes only the right-hand side changes.  Along an eps sweep the
Hessian I + M/eps and the right-hand side -(1/eps) c change together:
with a = eps/eps', H_eps' = a H_eps + (1 - a) I and b_eps' = a b_eps, so
the problem is rescaled in place (``LinearControlProblem.rescale``) and the
stored pairs are made H-orthonormal again, with no sweep.  The smallest eps
is solved first by plain CG; a larger one then starts from z = 0, and its
projection onto W meets the stop at once when the seed's space spans its
solution, or deflated CG of its own finishes it; a member's cg_iters counts
that CG alone.

Large-time pipeline: free decay until the energy crosses delta, then the
nonlinear synthesis on the remaining short horizon.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ConvergenceError, DomainError, RegimeError, ShapeError
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .adjoint import run_adjoint
from .geometry import box_within, control_box, grid_box
from .forward import (EnergyTrace, LinearPropagator, SystemSpec,
                      explicit_terms, level_blocks, run_nonlinear)
from .weights import WeightTables, control_weight_logs, default_t_clip


@dataclass
class ControlTrajectory:
    """Time-sampled distributed controls; the control of step n acts on
    [t_n, t_{n+1}).

    Each part is stored on its solver grid's slice of ``box`` (see
    ``geometry.control_box``): the patch's bounding box for the controls a
    synthesis makes, the whole grid (``geometry.grid_box``) for fields that
    cover Omega.  It holds one row per step of ``live``, one bool per step of
    the horizon, in step order: the steps where W^-1 > 0 for the vectors of a
    weighted synthesis (``LinearControlProblem``), every step (the default)
    otherwise.  Outside the box and on the other steps the controls are zero;
    ``full`` stores them on the whole grid with a row per step.  A ``live``
    that is not one bool per step, or a part whose row count is not that of
    ``live``, raises ShapeError naming it.
    """

    vu: np.ndarray   # (live steps, rows, cols of box[0]) on u-faces
    vv: np.ndarray   # (... box[1]) on v-faces
    v0: np.ndarray   # (... box[2]) on cells
    box: tuple
    live: np.ndarray | None = None   # None: every step

    def __post_init__(self):
        live = np.ones(len(self.vu), dtype=bool) if self.live is None else self.live
        self.live = np.asarray(live)
        if self.live.dtype != bool or self.live.ndim != 1:
            raise ShapeError("control live set must be one bool per step, got "
                             f"{self.live.dtype} of shape {self.live.shape}")
        rows = np.count_nonzero(self.live)
        for name, part in zip(("vu", "vv", "v0"), self.parts):
            if len(part) != rows:
                raise ShapeError(f"control {name} has {len(part)} rows, but its live "
                                 f"set holds {rows} of {len(self.live)} steps")

    @classmethod
    def zeros(cls, grid: GridSpec, nt: int, box=None, live=None) -> "ControlTrajectory":
        """Zero controls of nt steps on ``box``, by default the whole grid,
        with a row per step of ``live`` (by default every step)."""
        box = grid_box(grid) if box is None else box
        rows = nt if live is None else np.count_nonzero(live)
        return cls(*(np.zeros((rows,) + tuple(s.stop - s.start for s in b)) for b in box),
                   box, live)

    @property
    def parts(self):
        return self.vu, self.vv, self.v0

    def full(self, grid: GridSpec) -> "ControlTrajectory":
        """The same controls stored on the whole grid with a row per step,
        zero outside the box and on the steps not stored."""
        out = ControlTrajectory.zeros(grid, len(self.live))
        for whole, part, b in zip(out.parts, self.parts, self.box):
            whole[(self.live,) + b] = part
        return out

    def on(self, box) -> "ControlTrajectory":
        """The controls read on ``box``, which lies inside their own (views)."""
        return self if box == self.box else ControlTrajectory(
            *(a[(slice(None),) + i] for a, i in zip(self.parts, box_within(box, self.box))),
            box, self.live)

    def copy(self) -> "ControlTrajectory":
        return ControlTrajectory(self.vu.copy(), self.vv.copy(), self.v0.copy(), self.box,
                                 self.live)

    def scaled(self, a: float) -> "ControlTrajectory":
        return ControlTrajectory(a * self.vu, a * self.vv, a * self.v0, self.box, self.live)

    def plus(self, other: "ControlTrajectory", a: float = 1.0) -> "ControlTrajectory":
        return ControlTrajectory(*(x + a * y for x, y in self._pairs(other)), self.box,
                                 self.live)

    def _pairs(self, other: "ControlTrajectory"):
        """The parts of both, which must store the same steps."""
        if other.live is not self.live and not np.array_equal(other.live, self.live):
            raise ShapeError("controls of different live steps cannot be combined")
        return zip(self.parts, other.parts)

    def axpy(self, a: float, x: "ControlTrajectory") -> None:
        """self += a x in place; rounds exactly like ``self.plus(x, a)``."""
        for mine, theirs in self._pairs(x):
            mine += a * theirs

    def xpby(self, x: "ControlTrajectory", b: float) -> None:
        """self = x + b self in place; rounds exactly like ``x.plus(self, b)``."""
        for mine, theirs in self._pairs(x):
            mine *= b
            mine += theirs


def control_inner(a: ControlTrajectory, b: ControlTrajectory, grid: GridSpec,
                  dt: float) -> float:
    """The L^2 inner product over the stored rows, which both must share."""
    s = float(sum(np.sum(x * y) for x, y in a._pairs(b)))
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
    """iint w^2 (|v|^2 + |v0|^2) through logs, over the steps ``c`` stores;
    steps with v = 0 add nothing whatever their weight, and the energy is +inf
    once a term overflows."""
    total = 0.0
    with np.errstate(over="ignore"):
        for lw, vu, vv, v0 in zip(logw[c.live], *c.parts):
            sq = float(np.sum(vu ** 2) + np.sum(vv ** 2) + np.sum(v0 ** 2))
            if sq > 0.0:
                total += np.exp(2.0 * lw + np.log(sq))
    return total * grid.cell_area * dt


RECYCLE_K = 16     # the most CG directions a problem keeps


def _chunks(store: np.ndarray) -> list:
    """Slices of the columns of ``store``, 4096 at a time."""
    return [slice(j, j + 4096) for j in range(0, store.shape[1], 4096)]


def _unflatten(flat: np.ndarray, shapes) -> list:
    """The consecutive blocks of ``flat`` as arrays of ``shapes`` (views)."""
    parts, start = [], 0
    for shape in shapes:
        n = math.prod(shape)
        parts.append(flat[start:start + n].reshape(shape))
        start += n
    return parts


class RecycleSpace:
    """The deflation space W of a re-solved problem, its products H W and
    its terminal states T(W).

    Each pair is a CG direction p and H p, scaled by 1 / sqrt(<p, H p>) and
    stored flat (the box's vu, vv, v0 entries of the ``live`` steps in turn,
    as ``ControlTrajectory`` holds them) as one row of ``w`` and one of
    ``hw``; T(p), the terminal state of the forward run from zero with the
    controls of p, is scaled alike and stored flat (u, v, theta in turn) as
    the row of ``tw``.  Each holds RECYCLE_K rows, and a row's pages are
    touched when it is written.  Pairs that a solve adds stay pending until
    ``commit`` H-orthonormalises them with the kept ones, so a solve
    deflates with the space it started from; once RECYCLE_K pairs are kept
    the space is frozen, as it is after ``close``.  ``rescale`` makes the
    pairs those of a H + (1 - a) I, the Hessian of another eps; T does not
    depend on eps.
    """

    def __init__(self, box, live: np.ndarray, scale: float, terminal_shapes):
        self.box, self.live = box, live
        rows = np.count_nonzero(live)
        self.shapes = [(rows,) + tuple(s.stop - s.start for s in b) for b in box]
        self.terminal_shapes = terminal_shapes
        self.scale = scale                # the control inner product's weight
        n = sum(math.prod(shape) for shape in self.shapes)
        self.w, self.hw = np.empty((RECYCLE_K, n)), np.empty((RECYCLE_K, n))
        self.tw = np.empty((RECYCLE_K, sum(math.prod(s) for s in terminal_shapes)))
        self.size = 0                     # rows kept
        self.rows = 0                     # rows kept or pending
        self.capacity = RECYCLE_K         # rows that pairs may fill

    def __len__(self) -> int:
        return self.size

    def _split(self, flat) -> ControlTrajectory:
        return ControlTrajectory(*_unflatten(flat, self.shapes), self.box, self.live)

    def add(self, p: ControlTrajectory, hp: ControlTrajectory, tp: tuple,
            php: float) -> None:
        """Keep the pair (p, H p) and T(p), scaled to <w, H w> = 1, while
        there is room."""
        if self.rows < self.capacity:
            s = 1.0 / math.sqrt(php)
            for store, shapes, parts in ((self.w, self.shapes, p.parts),
                                         (self.hw, self.shapes, hp.parts),
                                         (self.tw, self.terminal_shapes, tp)):
                for row, part in zip(_unflatten(store[self.rows], shapes), parts):
                    np.multiply(part, s, out=row)
            self.rows += 1

    def _gram(self, other: np.ndarray) -> np.ndarray:
        """<W, rows of ``other``> over the rows kept or pending, on columns
        4096 at a time, which bounds the temporaries (as in ``_rotate``)."""
        w, o = self.w[:self.rows], other[:self.rows]
        return sum(w[:, c] @ o[:, c].T for c in _chunks(w)) * self.scale

    def _rotate(self, gram: np.ndarray, a: float = 1.0) -> None:
        """With gram = V diag(lam) V^T, make W (and H W and T(W) alike)
        W V diag(lam)^-1/2, dropping eigenvalues below 1e-12 of the largest,
        and keep every row; with ``a``, H W becomes a H W + (1 - a) W of the
        rotated rows."""
        lam, vec = np.linalg.eigh(0.5 * (gram + gram.T))
        keep = lam > 1e-12 * lam[-1]
        rotate = (vec[:, keep] / np.sqrt(lam[keep])).T
        k = len(rotate)
        for c in _chunks(self.w):
            w, hw = rotate @ self.w[:self.rows, c], rotate @ self.hw[:self.rows, c]
            if a != 1.0:
                hw *= a
                hw += (1.0 - a) * w
            self.w[:k, c], self.hw[:k, c] = w, hw
        for c in _chunks(self.tw):
            self.tw[:k, c] = rotate @ self.tw[:self.rows, c]
        self.size = self.rows = k

    def commit(self) -> None:
        """Join the pending pairs to the kept ones and make the lot
        H-orthonormal by rotating with their W^T H W.  CG loses conjugacy
        within a solve, so the raw directions can be far from orthonormal;
        a second pass removes the rounding that the first one amplifies."""
        if self.rows > self.size:
            for _ in range(2):
                self._rotate(self._gram(self.hw))

    def close(self) -> None:
        """Keep no more pairs, for a problem whose space nothing reads after
        its next solve: that solve still deflates with the pairs kept."""
        self.capacity = self.rows

    def rescale(self, a: float) -> None:
        """Make the pairs those of a H + (1 - a) I: every H w becomes
        a H w + (1 - a) w, and T(w) stays.  For H-orthonormal W the new
        W^T (a H + (1 - a) I) W is a I + (1 - a) W^T W, whose eigenvalues lie
        between a and 1 (H >= I), so one rotation by it makes the pairs
        H-orthonormal again."""
        self.commit()
        if self.size:
            self._rotate(a * np.eye(self.size) + (1.0 - a) * self._gram(self.w), a)

    def inner(self, x: ControlTrajectory, products: bool = False) -> np.ndarray:
        """<W, x>, or <H W, x> with ``products``."""
        rows = (self.hw if products else self.w)[:self.size]
        flat = np.concatenate([part.ravel() for part in x.parts])
        return np.array([row @ flat for row in rows]) * self.scale

    def _sum(self, store: np.ndarray, mu: np.ndarray) -> np.ndarray:
        rows = store[:self.size]
        flat = mu[0] * rows[0]
        for m, row in zip(mu[1:], rows[1:]):
            flat += m * row
        return flat

    def combination(self, mu: np.ndarray, products: bool = False) -> ControlTrajectory:
        """W mu, or H W mu with ``products``."""
        return self._split(self._sum(self.hw if products else self.w, mu))

    def terminal(self, mu: np.ndarray) -> list:
        """T(W mu) as [u, v, theta]."""
        return _unflatten(self._sum(self.tw, mu), self.terminal_shapes)


class LinearControlProblem:
    """Penalized HUM quadratic for one linear configuration, at the penalty
    ``self.eps`` (``pen.epsilon`` until ``rescale`` moves it).

    ``hessian_apply`` keeps the terminal state T(z) it formed in
    ``self.terminal``, and ``rhs`` the free terminal state in
    ``self.free_terminal``.

    Its vectors live on the patch's box ``self.box``, as do ``self.bumps``,
    and on the steps ``self.live`` where w^-1 > 0, one row each
    (``ControlTrajectory``); ``self.masks`` are the whole-grid supports
    bump > 0.  ``self.sources`` holds the physical (f1, f2) as the
    propagator takes them (``LinearPropagator.source_modes``) and may be
    replaced between solves by sources in that form: only b depends on
    them, and a solve takes b from ``rhs`` the first time after they are
    set (``self.b``).  The problem keeps the ``RecycleSpace``
    ``self.space`` across its solves, and ``rescale`` makes it the problem
    of the next eps of a sweep, whose ``solve`` counts in ``iters`` only the
    CG it runs after its projection onto that space.
    """

    def __init__(self, y0, th0, f1, f2, pen: PenaltySpec, logw: np.ndarray,
                 grid: GridSpec, tgrid: TimeGrid, nu0: float, bumps,
                 coupling: float | None = None):
        self.grid, self.tgrid = grid, tgrid
        self.pen = pen
        self.eps = pen.epsilon
        self.logw = logw
        w_inv = np.exp(-logw)
        self.live = w_inv > 0.0         # the steps where controls of z can be nonzero
        self.w_inv = w_inv[self.live][:, None, None]    # w^-1 of each live step
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
        self.z = self.tz = self.hz = None    # z, T(z) and H z of the last solve
        self.terminal = self.free_terminal = None
        self.space = RecycleSpace(self.box, self.live, grid.cell_area * tgrid.dt,
                                  [a.shape for a in (grid.zeros_u(), grid.zeros_v(),
                                                     grid.zeros_cells())])
        self.passes = 0                             # solves begun

    @property
    def sources(self):
        return self._sources

    @sources.setter
    def sources(self, sources) -> None:
        self._sources = sources
        self.b = self.free_tnorm_sq = None     # b and |free terminal|^2 of them

    def rescale(self, eps: float) -> None:
        """Make this the problem of penalty ``eps`` in place.  With
        a = self.eps / eps, the Hessian I + M/eps is a H + (1 - a) I and b is
        a b, so the kept b and the recycle space's products move with no
        sweep (``RecycleSpace.rescale``); the free terminal state and the
        stored T(w) do not depend on eps.  The next solve starts from
        z = 0."""
        _check_eps(eps)
        a = self.eps / eps
        self.eps, self.pen = eps, replace(self.pen, epsilon=eps)
        if self.b is not None:
            for part in self.b.parts:
                part *= a
        self.space.rescale(a)
        self.z = self.tz = self.hz = None

    # -- building blocks ----------------------------------------------------

    def controls_from_z(self, z: ControlTrajectory) -> ControlTrajectory:
        """W^-1 z on the support, for a ``z`` of the problem's live steps."""
        wi = self.w_inv
        mu, mv, mc = self.box_masks
        return ControlTrajectory(z.vu * wi * mu, z.vv * wi * mv, z.v0 * wi * mc, self.box,
                                 self.live)

    def _terminal_of(self, controls, with_sources: bool, on_state=None):
        src = self.sources if with_sources else None
        y0 = self.y0 if with_sources else (self.grid.zeros_u(), self.grid.zeros_v())
        th0 = self.th0 if with_sources else self.grid.zeros_cells()
        self.forward_sweeps += 1
        return self.prop.run(y0, th0, controls=controls, sources=src, on_state=on_state)

    def _bt_zeta(self, ut, vt, tht, weight_inv: bool = True) -> ControlTrajectory:
        """(1/eps) B^T L^T applied to a terminal state, optionally through W^-1;
        through W^-1 it holds the live steps only (W^-1 zeroes the others),
        else every step."""
        eps = self.eps
        self.adjoint_sweeps += 1
        read = self.live if weight_inv else None
        adj = run_adjoint((ut / eps, vt / eps), tht / eps, None, None, self.prop,
                          self.box, read=read)
        out = ControlTrajectory(adj.zeta_u, adj.zeta_v, adj.zeta_th, self.box, read)
        for arr, bump in zip(out.parts, self.bumps):
            arr *= bump
            if weight_inv:
                arr *= self.w_inv
        return out

    def hessian_apply(self, z: ControlTrajectory) -> ControlTrajectory:
        """H z on the live steps, with ``z`` read on the problem's box (a
        whole-grid z is cropped to it).  A z of other live steps raises
        ShapeError naming both row counts."""
        z = z.on(self.box)
        if not np.array_equal(z.live, self.live):
            raise ShapeError(f"z holds {len(z.vu)} rows of {len(z.live)} steps, but the "
                             f"problem's live set holds {len(self.w_inv)} of {len(self.live)}")
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

    def _fail(self, what: str, history) -> None:
        raise ConvergenceError(f"CG at eps = {self.eps:g} on pass {self.passes}: {what}",
                               history=history)

    def solve(self):
        """CG on H z = b; returns (z, iters, j_history, free terminal norm).
        The controls of z are ``controls_from_z(z)``.

        It continues from the z of the last solve, kept with its H z = b - r
        in ``self.hz``: r0 = b - H z and J(z) = 1/2 <H z, z> - <b, z> + J(0)
        take no Hessian apply and no forward run.  After ``rescale`` it starts
        from z = 0, so it stops at cg_tol |b| as a fresh problem does.  With a
        non-empty recycle space z is first Galerkin-projected onto it, J is
        taken there, and CG is deflated (module docstring).  T(z) rides
        beside z in ``self.tz``.  A non-finite residual or curvature raises
        ConvergenceError naming the eps and the pass.
        """
        grid, dt, pen, space = self.grid, self.tgrid.dt, self.pen, self.space
        self.passes += 1
        if self.b is None:
            self.b, self.free_tnorm_sq = self.rhs()
        b = self.b
        j0 = 0.5 * self.free_tnorm_sq / self.eps
        hz, self.hz = self.hz, None
        z, tz, r = (None, None, b.copy()) if hz is None else (
            self.z, self.tz, b.plus(hz, -1.0))
        rr = control_inner(r, r, grid, dt)
        gnorm0 = np.sqrt(rr)
        if not math.isfinite(gnorm0):
            self._fail(f"non-finite residual |b - H z| = {gnorm0}", [j0])
        tol = pen.cg_tol * gnorm0
        deflate = len(space) > 0
        if deflate:             # z + W mu, or W mu itself from z = 0
            mu = space.inner(r)
            w_mu, hw_mu, t_mu = (space.combination(mu), space.combination(mu, products=True),
                                 space.terminal(mu))
            if z is None:
                z, tz, hz = w_mu, t_mu, hw_mu
            else:
                z.axpy(1.0, w_mu)
                for mine, t in zip(tz, t_mu):
                    mine += t
                hz.axpy(1.0, hw_mu)
            r.axpy(-1.0, hw_mu)
            del w_mu, hw_mu, t_mu
            rr = control_inner(r, r, grid, dt)
            if not math.isfinite(rr):
                self._fail(f"non-finite projected residual |r|^2 = {rr}", [j0])
        elif z is None:
            z = ControlTrajectory.zeros(grid, self.tgrid.nt, self.box, self.live)
            tz = [np.zeros_like(a) for a in self.free_terminal]
        if hz is not None:
            j0 += 0.5 * control_inner(hz, z, grid, dt) - control_inner(b, z, grid, dt)
        del hz
        j_history = [j0]
        iters = 0
        if np.sqrt(rr) > tol if deflate else gnorm0 > 0.0:
            p = r.copy()
            if deflate:
                p.axpy(-1.0, space.combination(space.inner(r, products=True)))
            for iters in range(1, pen.cg_max_iters + 1):
                hp = self.hessian_apply(p)
                php = control_inner(p, hp, grid, dt)
                if not math.isfinite(php):
                    self._fail(f"non-finite curvature <p, H p> = {php}", j_history)
                if php <= 0.0:
                    self._fail("curvature lost (operator not SPD?)", j_history)
                tp = self.terminal
                space.add(p, hp, tp, php)
                alpha = rr / php
                z.axpy(alpha, p)
                for mine, t in zip(tz, tp):
                    mine += alpha * t
                j_history.append(j_history[-1] - 0.5 * alpha * rr)
                r.axpy(-alpha, hp)
                del hp
                rr_new = control_inner(r, r, grid, dt)
                if np.sqrt(rr_new) <= tol:
                    break
                p.xpby(r, rr_new / rr)
                if deflate:
                    p.axpy(-1.0, space.combination(space.inner(r, products=True)))
                rr = rr_new
            else:
                self._fail(f"stalled: |g|/|g0| = {np.sqrt(rr) / gnorm0:.3e} after "
                           f"{pen.cg_max_iters} iterations", j_history)
        space.commit()
        r.xpby(b, -1.0)        # H z = b - r, in r's memory
        self.z, self.tz, self.hz = z, tz, r
        return z, iters, j_history, float(np.sqrt(self.free_tnorm_sq))


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
    on the patch's box and every step (``controls`` are read on them)."""
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
        controls.full(grid).on(prob.box).parts, zeta.parts,
        prob.box_masks)), prob.box)


def solve_linear_control(y0, th0, f1, f2, pen: PenaltySpec,
                         weights: WeightTables | None, grid: GridSpec,
                         tgrid: TimeGrid, nu0: float, bumps, coupling=None,
                         eps_sweep=(), on_state=None):
    """Penalized HUM for the linear system.

    Returns (controls, SynthesisReport); the report's uncontrolled terminal
    norm comes from the same data with controls off, and ``on_state`` sees the
    levels of the final controlled run.
    Every eps in ``eps_sweep`` is solved by one problem: the smallest of
    them and ``pen.epsilon`` by plain CG from z = 0, then each other distinct
    eps in ascending order after ``LinearControlProblem.rescale``, by
    projection onto the recycle space and deflated CG where that leaves the
    residual above cg_tol |b|.  A member's report lands in ``report.sweep``
    in the order given; one equal to ``pen.epsilon`` is the main solve
    itself.  Another member's ``cg_iters`` counts the CG iterations that it
    ran after the projection, and its terminal norm is |free terminal
    state + T(z)|, with no forward run of its own.  All these reports count
    the forward and adjoint sweeps of the whole sweep.
    """
    t0 = time.perf_counter()
    for eps in eps_sweep:
        _check_eps(eps)
    logw = step_weight_logs(pen, weights, tgrid)
    order = sorted(set((pen.epsilon,) + tuple(eps_sweep)))
    prob = LinearControlProblem(y0, th0, f1, f2, replace(pen, epsilon=order[0]), logw,
                                grid, tgrid, nu0, bumps, coupling)
    members = {}
    for eps in order:
        if eps != prob.eps:
            prob.rescale(eps)
        if eps == order[-1]:
            prob.space.close()    # no solve follows that would read its pairs
        z, iters, j_hist, free_tnorm = prob.solve()
        values = dict(control_energy_weighted=control_inner(z, z, grid, tgrid.dt),
                      cg_iters=iters, eps=eps, j_history=j_hist)
        if eps == pen.epsilon:
            main = prob.controls_from_z(z), values
        else:
            final = (f + t for f, t in zip(prob.free_terminal, prob.tz))
            members[eps] = dict(values, terminal_norm=float(np.sqrt(
                ops.state_norm_sq(*final, grid))))
        del z   # not held through the next member's solve
    controls, values = main
    final = prob._terminal_of(controls, True, on_state)
    report = SynthesisReport(
        terminal_norm=float(np.sqrt(ops.state_norm_sq(*final, grid))),
        outer_iters=1,
        wall_time_s=time.perf_counter() - t0,
        uncontrolled_terminal_norm=free_tnorm,
        data_norm=float(np.sqrt(ops.state_norm_sq(y0[0], y0[1], th0, grid))),
        forward_sweeps=prob.forward_sweeps,
        adjoint_sweeps=prob.adjoint_sweeps,
        **values,
    )
    report.sweep = [replace(report, sweep=[], **members.get(eps, {})) for eps in eps_sweep]
    return controls, report


def _frozen_sources(u, v, th, spec: SystemSpec, modes: ops.ModalBasis, dt: float,
                    out: ops.Workspace | None = None):
    """All nonlinear/nonlocal terms of a block of states, stacked on a
    leading level axis, as the linear system's sources (F1u, F1v, F2) in the
    form ``LinearPropagator.source_modes`` gives them: dt times their
    Helmholtz coefficients.  They are the nonlinear step's explicit terms
    (in ``out``'s arrays, when given), plus the excess (nu - nu0) lap of its
    diffusion over the linear system's, level by level; lap is the per-mode
    scaling by -lap_* of the fields' coefficients, which is the 5-point
    Laplacian of fields with zero normal wall values, so no physical
    Laplacian is formed."""
    nu0 = spec.law.nu0
    nu, nu_th, au, av, adv_th, heat = explicit_terms(u, v, th, spec, modes.grid, out)
    if heat is not None:
        heat *= nu[:, None, None]
        adv_th -= heat
    del heat

    def source(maps, field, lap, coeff, transport):
        """dt ((coeff - nu0) lap field - transport), in the field's coefficients."""
        fwd, _ = maps
        f = fwd(field)
        f *= lap
        f *= (nu0 - coeff)[:, None, None]
        f -= fwd(transport)
        f *= dt
        return f

    return (source(modes.hu, u, modes.lap_u, nu, au),
            source(modes.hv, v, modes.lap_v, nu, av),
            source(modes.cells, th, modes.lap_cells, nu_th, adv_th))


def _freezer(out: list, spec: SystemSpec, modes: ops.ModalBasis, tgrid: TimeGrid,
             workspace: ops.Workspace | None = None):
    """An ``on_state`` hook filling ``out`` with the sources of shape (nt,
    ...) whose row n < nt is ``_frozen_sources`` of level n.  It stacks the
    levels n < nt into blocks (``forward.level_blocks``) and calls
    ``_frozen_sources`` once per block, in ``workspace`` (a new one when
    None), so that every block writes its explicit terms into the same
    arrays; ``out`` is allocated at the first block, not before."""
    nt = tgrid.nt
    workspace = ops.Workspace() if workspace is None else workspace

    def frozen_block(k0, u, v, th):
        sources = _frozen_sources(u, v, th, spec, modes, tgrid.dt, workspace)
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
                                spec.law.nu0, bumps, coupling=spec.buoyancy)
    controls_prev = ControlTrajectory.zeros(grid, tgrid.nt, prob.box, prob.live)
    workspace = ops.Workspace()    # the freezer's, for every pass
    updates: list[float] = []
    cg_per_pass: list[int] = []
    recycled: list[int] = []
    converged = False
    for k in range(1, outer.max_outer + 1):
        recycled.append(len(prob.space))
        z, iters, _, _ = prob.solve()
        controls = prob.controls_from_z(z)
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
        prob._terminal_of(controls, True,
                          _freezer(frozen, spec, prob.prop.modes, tgrid, workspace))
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
