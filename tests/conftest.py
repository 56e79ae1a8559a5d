import numpy as np
import pytest

from bousscontrol import operators as ops
from bousscontrol.exceptions import BoussControlError, DomainError
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
    """The last state of ``prop.run(y0, th0, controls=controls, store=False)``
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
