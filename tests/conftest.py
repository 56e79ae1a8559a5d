from types import SimpleNamespace

import numpy as np
import pytest

from bousscontrol import operators as ops
from bousscontrol.exceptions import BoussControlError, DomainError
from bousscontrol.forward import LinearPropagator, explicit_terms, zero_padded_sources
from bousscontrol.geometry import ControlPatch, bump_on_solver_grids
from bousscontrol.grids import GridSpec, TimeGrid


class LinearSolverError(BoussControlError):
    """An inner linear solve failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@pytest.fixture
def grid16():
    return GridSpec(16, 16)


@pytest.fixture
def tgrid64():
    return TimeGrid(1.0, 64)


@pytest.fixture
def patch():
    return ControlPatch((0.5, 0.5), (0.2, 0.2))


@pytest.fixture
def bumps16(grid16, patch):
    return bump_on_solver_grids(grid16, patch)


def rand_u(grid, rng):
    a = rng.standard_normal((grid.nx + 1, grid.ny))
    a[0] = a[-1] = 0.0
    return a


def rand_v(grid, rng):
    a = rng.standard_normal((grid.nx, grid.ny + 1))
    a[:, 0] = a[:, -1] = 0.0
    return a


def rand_cells(grid, rng):
    return rng.standard_normal((grid.nx, grid.ny))


def rand_div_free(grid, rng):
    """Exactly divergence-free pair from a random node stream function."""
    psi = rng.standard_normal((grid.nx + 1, grid.ny + 1))
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    u = (psi[:, 1:] - psi[:, :-1]) / grid.hy
    v = -(psi[1:, :] - psi[:-1, :]) / grid.hx
    return u, v


def cg_solve(apply_op, b: np.ndarray, tol: float = 1.0e-10, max_iters: int = 2000,
             project_nullspace=None):
    """Matrix-free CG for SPD (or SPSD with an explicit nullspace projector) A,
    the independent cross-check route for the spectral solves.

    ``apply_op`` maps an array like ``b`` to A x; ``project_nullspace``
    removes the known nullspace component from iterates (e.g. mean removal
    for the Neumann Poisson).  Returns (x, iterations).
    """
    x = np.zeros_like(b)
    if project_nullspace is not None:
        b = project_nullspace(b)
    r = b - apply_op(x)
    if project_nullspace is not None:
        r = project_nullspace(r)
    bnorm = float(np.linalg.norm(b.ravel()))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    p = r.copy()
    rr = float(np.sum(r * r))
    for it in range(1, max_iters + 1):
        ap = apply_op(p)
        if project_nullspace is not None:
            ap = project_nullspace(ap)
        alpha = rr / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        if float(np.linalg.norm(r.ravel())) <= tol * bnorm:
            return x, it
        rr_new = float(np.sum(r * r))
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise LinearSolverError(
        f"CG did not reach tol={tol:g} within {max_iters} iterations",
        residual=float(np.linalg.norm(r.ravel())) / bnorm)


def project_div_free(u: np.ndarray, v: np.ndarray, grid: GridSpec,
                     solver: ops.SpectralSolver | None = None, tol: float = 1.0e-10):
    """Leray projection with a posteriori divergence verification."""
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    solver = solver or ops.SpectralSolver(grid)
    u2, v2, phi = solver.project(u, v)
    scale = ops.norm_velocity(u, v, grid)
    res = float(np.max(np.abs(ops.div(u2, v2, grid))))
    if scale > 0.0 and res > tol * scale / np.sqrt(grid.cell_area):
        raise LinearSolverError("projection residual above tolerance", residual=res)
    return (u2, v2), phi


def patch_area(patch: ControlPatch) -> float:
    return 4.0 * patch.half_widths[0] * patch.half_widths[1]


def full_grid_controlled_run(prop, y0, th0, controls):
    """The last state of ``prop.run(y0, th0, controls=controls)``
    computed the way a whole-grid control layout does it: every step adds the
    full-grid field bump * control to the right-hand sides."""
    grid, dt = prop.grid, prop.tgrid.dt
    full = controls.full(grid)
    bu, bv, bc = prop.bumps
    c = dt * prop.nu0
    u, v, _ = prop.sp.project(y0[0], y0[1])
    th = th0.copy()
    for k in range(prop.tgrid.nt):
        ru = u + dt * bu * full.vu[k]
        rv = v + dt * prop.coupling * ops.theta_to_vfaces(th, grid)
        rv = rv + dt * bv * full.vv[k]
        rth = th + dt * bc * full.v0[k]
        th = prop.sp.helmholtz_cells(rth, c)
        u, v, _ = prop.sp.project(prop.sp.helmholtz_u(ru, c), prop.sp.helmholtz_v(rv, c))
    return u, v, th


class Recorder:
    """An ``on_state`` hook keeping every level it sees (the march never
    writes into a level it has handed out).  ``t``, ``u``, ``v`` and ``theta``
    stack the levels recorded so far: (levels,), (levels, nx+1, ny), ..."""

    def __init__(self):
        self.levels = []
        self._stacked = (0, None)

    def __call__(self, k, t, u, v, th):
        self.levels.append((t, u, v, th))

    def _stack(self, i):
        if self._stacked[0] != len(self.levels):
            self._stacked = (len(self.levels), [np.array(a) for a in zip(*self.levels)])
        return self._stacked[1][i]

    t = property(lambda self: self._stack(0))
    u = property(lambda self: self._stack(1))
    v = property(lambda self: self._stack(2))
    theta = property(lambda self: self._stack(3))

    def terminal_norm(self, grid):
        return float(np.sqrt(ops.state_norm_sq(self.u[-1], self.v[-1],
                                               self.theta[-1], grid)))


def feed(levels, hook):
    """Hand stored ``levels`` (with ``t``, ``u``, ``v``, ``theta``) to an
    ``on_state`` hook, level by level; returns the hook."""
    for k, level in enumerate(zip(levels.t, levels.u, levels.v, levels.theta)):
        hook(k, *level)
    return hook


def run_linearized(y0, th0, controls, f1, f2, nu0, grid, tgrid, bumps=None,
                   coupling=None) -> Recorder:
    """Every level of the linear system with sources F1 = (f1u, f1v), F2."""
    prop = LinearPropagator(grid, tgrid, nu0, bumps=bumps, coupling=coupling)
    rec = Recorder()
    prop.run(y0, th0, controls=controls,
             sources=zero_padded_sources(f1, f2, grid, tgrid.nt), on_state=rec)
    return rec


def reference_norm_samples(traj, grid, tgrid):
    """The per-node squares of ``diagnostics.weighted_norms`` computed from
    stored levels, the way it did before it streamed, under the attribute
    names of ``diagnostics.NormSamples``."""
    nt, dt = tgrid.nt, tgrid.dt
    state_sq = np.array([ops.state_norm_sq(traj.u[n], traj.v[n], traj.theta[n], grid)
                         for n in range(nt)])
    y_sq = np.array([ops.norm_velocity(traj.u[n], traj.v[n], grid) ** 2
                     for n in range(nt)])
    grad_y_sq = np.array([ops.h1_seminorm_sq_velocity(traj.u[n], traj.v[n], grid)
                          for n in range(nt)])
    yt_dy_sq = np.zeros(nt)
    th_t_l32 = np.zeros(nt)
    lap_th_l32 = np.zeros(nt)
    for n in range(nt):
        ut = (traj.u[n + 1] - traj.u[n]) / dt
        vt = (traj.v[n + 1] - traj.v[n]) / dt
        lu = ops.laplacian_u(traj.u[n], grid)
        lv = ops.laplacian_v(traj.v[n], grid)
        yt_dy_sq[n] = (ops.norm_velocity(ut, vt, grid) ** 2
                       + ops.norm_velocity(lu, lv, grid) ** 2)
        tht = (traj.theta[n + 1] - traj.theta[n]) / dt
        th_t_l32[n] = ops.lp_norm_cells(tht, 1.5, grid) ** 2
        lap_th_l32[n] = ops.lp_norm_cells(ops.laplacian_cells(traj.theta[n], grid),
                                          1.5, grid) ** 2
    return SimpleNamespace(state_sq=state_sq, y_sq=y_sq, grad_y_sq=grad_y_sq,
                           yt_dy_sq=yt_dy_sq, th_t_l32=th_t_l32, lap_th_l32=lap_th_l32)


def reference_frozen_sources(traj, spec, grid, nt):
    """The outer loop's frozen sources ((F1u, F1v), F2) of stored levels, the
    way they were computed before they streamed."""
    nu0 = spec.law.nu0
    f1u = np.zeros((nt, grid.nx + 1, grid.ny))
    f1v = np.zeros((nt, grid.nx, grid.ny + 1))
    f2 = np.zeros((nt, grid.nx, grid.ny))
    for n in range(nt):
        u, v, th = traj.u[n], traj.v[n], traj.theta[n]
        nu, nu_th, au, av, adv_th, heat = explicit_terms(u, v, th, spec, grid)
        f1u[n] = (nu - nu0) * ops.laplacian_u(u, grid) - au
        f1v[n] = (nu - nu0) * ops.laplacian_v(v, grid) - av
        f2[n] = (nu_th - nu0) * ops.laplacian_cells(th, grid) - adv_th
        if heat is not None:
            f2[n] += nu * heat
    return (f1u, f1v), f2
