import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bousscontrol import operators as ops
from bousscontrol.exceptions import BoussControlError, DomainError
from bousscontrol.forward import LinearPropagator, explicit_terms, implicit_stage
from bousscontrol.geometry import ControlPatch, bump_on_solver_grids, grid_box
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.weights import ell_array


class LinearSolverError(BoussControlError):
    """An inner linear solve failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# square, oblong and long-axis grids; 144x12 and 132x132 have longer axes than
# any workload
SOLVE_GRIDS = [GridSpec(16, 16), GridSpec(24, 40), GridSpec(80, 12), GridSpec(144, 12)]
GRID_IDS = ["16x16", "24x40", "80x12", "144x12"]
MODAL_GRIDS = SOLVE_GRIDS + [GridSpec(72, 72), GridSpec(132, 132)]
MODAL_IDS = GRID_IDS + ["72x72", "132x132"]


def max_rel_diff(got, want) -> float:
    """The largest max|g - w| / max|w| over paired arrays."""
    return max(float(np.abs(g - w).max()) / float(np.abs(w).max())
               for g, w in zip(got, want))


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
                     tol: float = 1.0e-10):
    """The Leray projection (``ModalBasis.project_faces``) with a posteriori
    divergence verification."""
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    u2, v2 = ops.ModalBasis(grid).project_faces(u, v)
    scale = ops.norm_velocity(u, v, grid)
    res = float(np.max(np.abs(ops.div(u2, v2, grid))))
    if scale > 0.0 and res > tol * scale / np.sqrt(grid.cell_area):
        raise LinearSolverError("projection residual above tolerance", residual=res)
    return u2, v2


def patch_area(patch: ControlPatch) -> float:
    return 4.0 * patch.half_widths[0] * patch.half_widths[1]


class PhysicalLinear:
    """The linear system of ``prop`` stepped on physical fields, the way
    ``LinearPropagator`` did before it marched in its modal basis: buoyancy
    averaged onto the v-faces, then the nonlinear step's ``implicit_stage``
    (Helmholtz solves, then the Leray projection, from and to physical
    fields), and its transpose run backward with a projection per level.
    The reference the modal march is compared against.  Its solves and its
    projection now run in the same ``ModalBasis`` transforms and eigenvalue
    table as the modal march, so the independent checks of those are the
    stencil-residual tests of ``test_operators.py`` and the dense
    ``TestOneStepOracle`` of ``test_forward.py``."""

    def __init__(self, prop):
        self.prop, self.grid = prop, prop.grid
        self.sp = ops.SpectralSolver(prop.grid)

    def step(self, u, v, th, control=None, sources=None, box=None):
        prop, dt = self.prop, self.prop.tgrid.dt
        if sources is not None:
            sources = tuple(np.zeros_like(a) if f is None else f
                            for f, a in zip(sources, (u, v, th)))
        rv = v + dt * prop.coupling * ops.theta_to_vfaces(th, self.grid)
        c = dt * prop.nu0   # implicit_stage adds the control into u and th in place
        return implicit_stage(self.sp.modes, dt, u.copy(), rv, th.copy(), c, c, control,
                              prop.bumps, sources, box)

    def step_adjoint(self, gu, gv, gth):
        prop, sp = self.prop, self.sp
        dt, c = prop.tgrid.dt, prop.tgrid.dt * prop.nu0
        zu = sp.helmholtz_u(gu, c)
        zv = sp.helmholtz_v(gv, c)
        zth = sp.helmholtz_cells(gth, c)
        lth = zth + dt * prop.coupling * ops.vfaces_to_cells(zv, self.grid)
        return zu, zv, zth, lth

    def run(self, y0, th0, controls=None, sources=None, on_state=None):
        u, v = self.sp.project(y0[0], y0[1])
        th = th0.copy()
        times = self.prop.tgrid.nodes()
        for k in range(self.prop.tgrid.nt + 1):
            if k > 0:
                n = k - 1
                u, v, th = self.step(
                    u, v, th,
                    None if controls is None else (controls.vu[n], controls.vv[n],
                                                   controls.v0[n]),
                    None if sources is None else tuple(
                        None if f is None else f[n] for f in sources),
                    None if controls is None else controls.box)
            if on_state is not None and on_state(k, times[k], u, v, th):
                break
        return u, v, th

    def run_adjoint(self, phi_t, psi_t, g1, g2, box=None):
        """(zeta_u, zeta_v, zeta_th) on ``box`` (default the whole grid),
        phi0 and psi0, as ``adjoint.run_adjoint`` returns them."""
        nt, dt = self.prop.tgrid.nt, self.prop.tgrid.dt
        box = box or grid_box(self.grid)
        (lam_u, lam_v), lam_th = phi_t, psi_t
        zeta = tuple(np.empty((nt,) + a[b].shape) for a, b in
                     zip((lam_u, lam_v, lam_th), box))
        for n in range(nt - 1, -1, -1):
            lam_u, lam_v, zth, lam_th = self.step_adjoint(lam_u, lam_v, lam_th)
            for out, z, b in zip(zeta, (lam_u, lam_v, zth), box):
                out[n] = z[b]
            if g1 is not None:
                lam_u = lam_u + dt * g1[0][n]
                lam_v = lam_v + dt * g1[1][n]
            if g2 is not None:
                lam_th = lam_th + dt * g2[n]
            lam_u, lam_v = self.sp.project(lam_u, lam_v)
        return zeta, (lam_u, lam_v), lam_th


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


def run_linearized(y0, th0, controls, f1, f2, nu0, grid, tgrid, bumps=None,
                   coupling=None) -> Recorder:
    """Every level of the linear system with physical sources F1 = (f1u,
    f1v), F2."""
    prop = LinearPropagator(grid, tgrid, nu0, bumps=bumps, coupling=coupling)
    rec = Recorder()
    sources = None if f1 is None and f2 is None else prop.source_modes(
        *(f1 if f1 is not None else (None, None)), f2)
    prop.run(y0, th0, controls=controls, sources=sources, on_state=rec)
    return rec


def reference_control_regularity_report(controls, tables, grid, tgrid, t_clip=None):
    """``diagnostics.control_regularity_report`` as it was before it read
    the modal coefficients: the 5-point stencils and H^1 forms on every level
    stored on the whole grid."""
    from bousscontrol.control import ControlTrajectory
    from bousscontrol.diagnostics import _LN10, _log
    from bousscontrol.weights import control_weight_logs, default_t_clip, time_derivative
    nt, dt = tgrid.nt, tgrid.dt
    logk = control_weight_logs(tables, default_t_clip(t_clip, tgrid),
                               name="kappa")[:, None, None]
    parts = controls.parts
    logs = [logk + _log(np.abs(f)) for f in parts]
    big = max(float(np.max(lg, initial=-np.inf)) for lg in logs)
    if big == -np.inf:  # zero controls
        big = 0.0
    kvu, kvv, kv0 = (np.sign(f) * np.exp(lg - big) for f, lg in zip(parts, logs))

    q = grid.cell_area
    dkv_sq = float(np.sum(time_derivative(kvu, dt) ** 2)
                   + np.sum(time_derivative(kvv, dt) ** 2)) * q * dt
    dkv0_sq = float(np.sum(time_derivative(kv0, dt) ** 2)) * q * dt
    lap_sq = 0.0
    lap0_sq = 0.0
    sup_h1_v = 0.0
    sup_h1_v0 = 0.0
    whole = ControlTrajectory(kvu, kvv, kv0, controls.box).full(grid)
    for ku, kv, k0 in zip(*whole.parts):
        lu = ops.laplacian_u(ku, grid)
        lv = ops.laplacian_v(kv, grid)
        lap_sq += (ops.norm_velocity(lu, lv, grid) ** 2) * dt
        lc = ops.laplacian_cells(k0, grid)
        lap0_sq += (ops.norm_cells(lc, grid) ** 2) * dt
        sup_h1_v = max(sup_h1_v, ops.norm_velocity(ku, kv, grid) ** 2
                       + ops.h1_seminorm_sq_velocity(ku, kv, grid))
        sup_h1_v0 = max(sup_h1_v0, ops.norm_cells(k0, grid) ** 2
                        + ops.h1_seminorm_sq_cells(k0, grid))

    sums = {
        "iint_dt_kv_sq": dkv_sq,
        "iint_dt_kv0_sq": dkv0_sq,
        "iint_lap_kv_sq": lap_sq,
        "iint_lap_kv0_sq": lap0_sq,
        "sup_h1_kv_sq": sup_h1_v,
        "sup_h1_kv0_sq": sup_h1_v0,
    }
    logs_sums = (2.0 * big + _log(list(sums.values()))) / _LN10
    return dict(zip(sums, map(float, logs_sums)))


def on_steps(c, live):
    """The controls of ``c``, a ``ControlTrajectory`` of every step, stored
    on the steps of ``live`` only, one row each (copies of those rows)."""
    from bousscontrol.control import ControlTrajectory
    return ControlTrajectory(*(a[live] for a in c.parts), c.box, live)


def full_row_hessian_apply(prob, z):
    """H z of a ``control.LinearControlProblem`` as it was formed before its
    vectors held only the live steps: z, W^-1 z and zeta each with a row per
    step, the adjoint reading zeta back at every step, and W^-1 applied to
    every row.  Returns a ``ControlTrajectory`` of every step on the box."""
    from bousscontrol.adjoint import run_adjoint
    from bousscontrol.control import ControlTrajectory
    grid, eps = prob.grid, prob.eps
    z = z.full(grid).on(prob.box)
    w_inv = np.exp(-prob.logw)[:, None, None]
    controls = ControlTrajectory(*(a * w_inv * m for a, m in zip(z.parts, prob.box_masks)),
                                 prob.box)
    ut, vt, tht = prob.prop.run((grid.zeros_u(), grid.zeros_v()), grid.zeros_cells(),
                                controls=controls)
    adj = run_adjoint((ut / eps, vt / eps), tht / eps, None, None, prop=prob.prop,
                      box=prob.box)
    return ControlTrajectory(*(zeta * bump * w_inv + a for zeta, bump, a in zip(
        (adj.zeta_u, adj.zeta_v, adj.zeta_th), prob.bumps, z.parts)), prob.box)


def reference_frozen_sources(traj, spec, grid, tgrid):
    """The outer loop's frozen sources (F1u, F1v, F2) of stored levels,
    level by level, in the form the linear system takes them
    (``LinearPropagator.source_modes``): dt times the Helmholtz coefficients
    of (nu - nu0) lap y - transport and (nu_th - nu0) lap theta - transport
    + nu heat, with lap the per-mode scaling by -lap_* (the modal identity
    of ``test_operators.TestModalLaplacian``)."""
    m, nu0, dt = ops.ModalBasis(grid), spec.law.nu0, tgrid.dt
    laps = (m.lap_u, m.lap_v, m.lap_cells)
    out = tuple(np.zeros((tgrid.nt,) + lap.shape) for lap in laps)
    for n in range(tgrid.nt):
        u, v, th = traj.u[n], traj.v[n], traj.theta[n]
        nu, nu_th, au, av, adv_th, heat = explicit_terms(u, v, th, spec, grid)
        if heat is not None:
            adv_th = adv_th - nu * heat
        for dest, (fwd, _), field, lap, coeff, transport in zip(
                out, (m.hu, m.hv, m.cells), (u, v, th), laps, (nu, nu, nu_th),
                (au, av, adv_th)):
            dest[n] = dt * ((nu0 - coeff) * (fwd(field) * lap) - fwd(transport))
    return out


def reference_space_weights(params, eta0, tgrid):
    """The space-dependent logs of alpha and xi on the eta0 node grid, shape
    (nt+1, nx+1, ny+1) and +inf at t = T, as ``weights.eval_weights`` once
    tabulated them (the program keeps only their spatial extrema):

        alpha = e^{lam(m+eta)} (e^{lam(m/4 - eta)} - 1) u,  xi = e^{lam(m+eta)} u.
    """
    lam, m = params.lam, params.m
    with np.errstate(divide="ignore"):
        log_u = -4.0 * np.log(ell_array(tgrid.nodes(), tgrid.t_final))
    eta = np.asarray(eta0, dtype=float)
    gap = lam * (m / 4.0 - eta)
    log_expm1 = np.empty_like(gap)   # log(e^gap - 1), stable for tiny and huge gap
    small = gap < 30.0
    log_expm1[small] = np.log(np.expm1(gap[small]))
    log_expm1[~small] = gap[~small] + np.log1p(-np.exp(-gap[~small]))
    log_xi_x = lam * (m + eta)
    return SimpleNamespace(raw_log_alpha=(log_xi_x + log_expm1)[None] + log_u[:, None, None],
                           raw_log_xi=log_xi_x[None] + log_u[:, None, None])


# ---------------------------------------------------------------------------
# reference forms of operators the program now evaluates another way


def reference_laplacian_cells(f, grid):
    """``ops.laplacian_cells`` with its ghost layer built by ``np.pad``."""
    g = np.pad(f, 1)
    g[0, 1:-1] = -f[0, :]
    g[-1, 1:-1] = -f[-1, :]
    g[1:-1, 0] = -f[:, 0]
    g[1:-1, -1] = -f[:, -1]
    return ((g[2:, 1:-1] - 2.0 * f + g[:-2, 1:-1]) / grid.hx**2
            + (g[1:-1, 2:] - 2.0 * f + g[1:-1, :-2]) / grid.hy**2)


def reference_laplacian_u(u, grid):
    out = np.zeros_like(u)
    g = np.pad(u, ((0, 0), (1, 1)))
    g[:, 0] = -u[:, 0]
    g[:, -1] = -u[:, -1]
    out[1:-1, :] = ((u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / grid.hx**2
                    + (g[1:-1, 2:] - 2.0 * u[1:-1, :] + g[1:-1, :-2]) / grid.hy**2)
    return out


def reference_laplacian_v(v, grid):
    out = np.zeros_like(v)
    g = np.pad(v, ((1, 1), (0, 0)))
    g[0, :] = -v[0, :]
    g[-1, :] = -v[-1, :]
    out[:, 1:-1] = ((g[2:, 1:-1] - 2.0 * v[:, 1:-1] + g[:-2, 1:-1]) / grid.hx**2
                    + (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / grid.hy**2)
    return out


def reference_h1_seminorm_sq_cells(f, grid):
    """The Dirichlet energy as <-lap f, f>, with the Laplacian formed."""
    return max(ops.inner_cells(-reference_laplacian_cells(f, grid), f, grid), 0.0)


def reference_h1_seminorm_sq_velocity(u, v, grid):
    val = float(np.sum(-reference_laplacian_u(u, grid) * u)
                + np.sum(-reference_laplacian_v(v, grid) * v))
    return max(val * grid.cell_area, 0.0)


def reference_center_gradients(u, v, grid):
    """``ops.center_gradients`` from the cell averages of u and v over 2h."""
    uc = 0.5 * (u[:-1, :] + u[1:, :])
    vc = 0.5 * (v[:, :-1] + v[:, 1:])
    return ((u[1:, :] - u[:-1, :]) / grid.hx, ops.d_center(uc, grid.hy, axis=1),
            ops.d_center(vc, grid.hx, axis=0), (v[:, 1:] - v[:, :-1]) / grid.hy)


def reference_advect_scalar(f, cu, cv, grid):
    """``ops.advect_scalar`` from whole-grid face fluxes with zero wall rows."""
    fx = np.zeros_like(cu)
    fy = np.zeros_like(cv)
    fx[1:-1, :] = cu[1:-1, :] * 0.5 * (f[:-1, :] + f[1:, :])
    fy[:, 1:-1] = cv[:, 1:-1] * 0.5 * (f[:, :-1] + f[:, 1:])
    return (fx[1:, :] - fx[:-1, :]) / grid.hx + (fy[:, 1:] - fy[:, :-1]) / grid.hy


def reference_advect_velocity(wu, wv, cu, cv, grid):
    """Divergence-form MAC transport of (wu, wv) by the carrier (cu, cv) from
    whole-grid face averages and corner flux arrays; with (wu, wv) = (cu, cv)
    it is ``ops.advect_velocity``."""
    hx, hy = grid.hx, grid.hy
    cu_c = 0.5 * (cu[:-1, :] + cu[1:, :])
    wu_c = 0.5 * (wu[:-1, :] + wu[1:, :])
    fxx = cu_c * wu_c
    fxy = np.zeros((grid.nx + 1, grid.ny + 1))
    cvx = 0.5 * (cv[:-1, :] + cv[1:, :])
    wuy = np.zeros((grid.nx - 1, grid.ny + 1))
    wuy[:, 1:-1] = 0.5 * (wu[1:-1, :-1] + wu[1:-1, 1:])
    fxy[1:-1, :] = cvx * wuy
    au = np.zeros_like(wu)
    au[1:-1, :] = (fxx[1:, :] - fxx[:-1, :]) / hx + (fxy[1:-1, 1:] - fxy[1:-1, :-1]) / hy

    cv_c = 0.5 * (cv[:, :-1] + cv[:, 1:])
    wv_c = 0.5 * (wv[:, :-1] + wv[:, 1:])
    fyy = cv_c * wv_c
    fyx = np.zeros((grid.nx + 1, grid.ny + 1))
    cuy = 0.5 * (cu[:, :-1] + cu[:, 1:])
    wvx = np.zeros((grid.nx + 1, grid.ny - 1))
    wvx[1:-1, :] = 0.5 * (wv[:-1, 1:-1] + wv[1:, 1:-1])
    fyx[:, 1:-1] = cuy * wvx
    av = np.zeros_like(wv)
    av[:, 1:-1] = (fyx[1:, 1:-1] - fyx[:-1, 1:-1]) / hx + (fyy[:, 1:] - fyy[:, :-1]) / hy
    return au, av


# ---------------------------------------------------------------------------
# ``ModalBasis`` as dense products of the closed-form matrices, in natural
# mode order or in the parity order of its rule


def reference_parity_order(freqs, n: int) -> np.ndarray:
    """``freqs`` in the order ``ModalBasis`` keeps along an axis of n cells:
    those with the parity of n + 1 first, then those with the parity of n,
    each block increasing."""
    f = np.sort(np.asarray(freqs))
    return np.concatenate([f[f % 2 == (n + 1) % 2], f[f % 2 == n % 2]])


# kind -> the frequencies kept on an axis of n cells
REFERENCE_FREQUENCIES = {"dst1": lambda n: np.arange(1, n),
                         "dst2": lambda n: np.arange(1, n + 1),
                         "dct2": lambda n: np.arange(1, n)}
# map -> the transform kinds along x and y
REFERENCE_AXES = {"u": ("dst1", "dct2"), "v": ("dct2", "dst1"), "hu": ("dst1", "dst2"),
                  "hv": ("dst2", "dst1"), "cells": ("dst2", "dst2")}


def reference_frequencies(kind: str, n: int, parity: bool = True) -> np.ndarray:
    f = REFERENCE_FREQUENCIES[kind](n)
    return reference_parity_order(f, n) if parity else f


def reference_axis_matrix(kind: str, n: int, parity: bool = True) -> np.ndarray:
    """The orthonormal matrix of ``kind`` on an axis of n cells: a row per
    kept frequency, a column per point (the n + 1 faces for "dst1", whose
    walls are zero columns, else the n cells), each entry np.sin or np.cos
    of its phase reduced to one period."""
    f = reference_frequencies(kind, n, parity)
    if kind == "dst1":
        q = np.sin(np.pi * (np.outer(f, np.arange(n + 1)) % (2 * n)) / n)
        q[:, [0, -1]] = 0.0
    else:   # the phase f (2j + 1) / 2n
        phase = np.pi * (np.outer(f, 2 * np.arange(n) + 1) % (4 * n)) / (2 * n)
        q = np.sin(phase) if kind == "dst2" else np.cos(phase)
        if kind == "dst2":
            q[f == n] *= np.sqrt(0.5)
    return q * np.sqrt(2.0 / n)


def reference_maps(name: str, grid: GridSpec, parity: bool = True,
                   box=(slice(None), slice(None))):
    """(forward, inverse) of the ``ModalBasis`` map ``name`` between values on
    ``box`` (rows, columns) and coefficients, as dense products."""
    (kx, ky), (rows, cols) = REFERENCE_AXES[name], box
    qx = reference_axis_matrix(kx, grid.nx, parity)[:, rows]
    qy = reference_axis_matrix(ky, grid.ny, parity)[:, cols]
    return (lambda a: qx @ a @ qy.T), (lambda c: qx.T @ c @ qy)


def reference_change_maps(n: int, axis: int, parity: bool = True):
    """(forward, inverse) of ``ModalBasis.change_u`` (axis 1) or ``change_v``
    (axis 0): the DST-II matrix times the transposed DCT-II one."""
    p = reference_axis_matrix("dst2", n, parity) @ reference_axis_matrix("dct2", n, parity).T
    if axis == 0:
        return (lambda a: p @ a), (lambda a: p.T @ a)
    return (lambda a: a @ p.T), (lambda a: a @ p)


class NaturalModalBasis:
    """``ModalBasis`` in natural mode order, every map a dense product of
    ``reference_axis_matrix`` and every table in frequency order: the
    reference the parity-ordered basis and the folded kernels are checked
    against (``on_box`` is not provided)."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        nx, ny = grid.nx, grid.ny
        for name in REFERENCE_AXES:
            setattr(self, name, reference_maps(name, grid, parity=False))
        self.change_u = reference_change_maps(ny, 1, parity=False)
        self.change_v = reference_change_maps(nx, 0, parity=False)
        dx = 2.0 / grid.hx * np.sin(0.5 * np.pi * np.arange(nx + 1) / nx)
        dy = 2.0 / grid.hy * np.sin(0.5 * np.pi * np.arange(ny + 1) / ny)
        self.lap_u = dx[1:nx, None] ** 2 + dy[None, 1:] ** 2
        self.lap_v = dx[1:, None] ** 2 + dy[None, 1:ny] ** 2
        self.lap_cells = dx[1:, None] ** 2 + dy[None, 1:] ** 2
        self.buoyancy = np.cos(0.5 * np.pi * np.arange(1, ny) / ny)
        r = np.hypot(dx[1:nx, None], dy[None, 1:ny])
        self._normal = (dy[None, 1:ny] / r, -dx[1:nx, None] / r)

    def project(self, us, vs):
        beta, neg_alpha = self._normal
        w = beta * us + neg_alpha * vs
        us[...] = beta * w
        vs[...] = neg_alpha * w

    def project_faces(self, u, v):
        us, vs = self.u[0](u), self.v[0](v)
        self.project(us, vs)
        return self.u[1](us), self.v[1](vs)


def workload_text(name, level=0):
    """The config text of the benchmark workload ``name`` at ``level``, read
    from ``bench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.config_text(name, level)
