"""Time integration of the coupled velocity/temperature system.

Two modes share one IMEX layout: diffusion implicit (one constant-coefficient
Helmholtz solve per field, the nonlocal coefficient frozen at the previous
step), convection / buoyancy / heating / sources explicit, then a Leray
projection.  The linearized mode drops convection and heating and runs with
the constant coefficient nu0; it is exactly linear in all of its inputs, and
its per-step building blocks are individually self-adjoint so the discrete
adjoint is available by transposition (see adjoint.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DivergenceError, DomainError, StepSizeError
from .geometry import grid_box
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .operators import SpectralSolver, ViscosityLaw

_CFL_EPS = 1.0e-12
_BLOWUP_FACTOR = 1.0e6


@dataclass(frozen=True)
class SystemSpec:
    """Model selection: viscosity laws, coupling, heating, integration mode.

    ``theta_coeff_source`` picks which field feeds the temperature-diffusion
    law: "velocity" for the base system (the heat equation diffuses with
    nu(grad y)), "temperature" for the L^p variant (nubar(grad theta)).
    The heating coefficient always uses the velocity-gradient law.
    """

    law: ViscosityLaw = field(default_factory=ViscosityLaw)
    law_theta: ViscosityLaw | None = None
    theta_coeff_source: str = "velocity"
    nu0_coupling: float | None = None
    heating_on: bool = True
    mode: str = "nonlinear"
    cfl_factor: float = 0.25
    phi_smallness_factor: float = 1.0e-2

    def __post_init__(self):
        if self.mode not in ("nonlinear", "linearized"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.theta_coeff_source not in ("velocity", "temperature"):
            raise DomainError("theta_coeff_source must be 'velocity' or 'temperature'")

    @property
    def theta_law(self) -> ViscosityLaw:
        return self.law_theta if self.law_theta is not None else self.law

    @property
    def buoyancy(self) -> float:
        return self.nu0_coupling if self.nu0_coupling is not None else self.law.nu0


@dataclass
class EnergyTrace:
    """E = |grad y|^2 + |theta|^2 + |grad theta|^2 and the Lyapunov monitor
    Phi = lam1 |grad y|^2 + |theta|^2 + |grad theta|^2."""

    t: np.ndarray
    grad_y_sq: np.ndarray
    theta_sq: np.ndarray
    grad_theta_sq: np.ndarray
    lam1: float
    smallness_ok: bool = True

    @property
    def energy(self) -> np.ndarray:
        return self.grad_y_sq + self.theta_sq + self.grad_theta_sq

    @property
    def phi(self) -> np.ndarray:
        return self.lam1 * self.grad_y_sq + self.theta_sq + self.grad_theta_sq

    def phi_violation_step(self) -> int:
        """First step index with Phi increasing (beyond roundoff slack), or -1."""
        phi = self.phi
        slack = 1.0e-13 * max(phi[0], 1.0e-300)
        bad = np.nonzero(np.diff(phi) > slack)[0]
        return int(bad[0]) if bad.size else -1

    @property
    def phi_monotone(self) -> bool:
        return self.phi_violation_step() < 0


def first_dirichlet_eigenvalue(grid: GridSpec) -> float:
    return np.pi ** 2 * (1.0 / grid.lx ** 2 + 1.0 / grid.ly ** 2)


def energy_components(u, v, th, grid: GridSpec):
    """(|grad y|^2, |theta|^2, |grad theta|^2) of one state; E is their sum."""
    return (ops.h1_seminorm_sq_velocity(u, v, grid),
            ops.norm_cells(th, grid) ** 2,
            ops.h1_seminorm_sq_cells(th, grid))


def _energy_trace(t, comps, grid: GridSpec, smallness_ok: bool = True) -> EnergyTrace:
    """The EnergyTrace of per-node ``energy_components``."""
    gy, ts, gt = (np.array(c) for c in zip(*comps))
    return EnergyTrace(t=t, grad_y_sq=gy, theta_sq=ts, grad_theta_sq=gt,
                       lam1=first_dirichlet_eigenvalue(grid), smallness_ok=smallness_ok)


def trace_from_trajectory(traj, grid: GridSpec) -> EnergyTrace:
    """The energy trace of levels held in ``traj.t``, ``.u``, ``.v`` and
    ``.theta`` (for instance recorded by an ``on_state`` hook), node by node."""
    return _energy_trace(traj.t, [energy_components(*level, grid) for level in
                                  zip(traj.u, traj.v, traj.theta)], grid)


def explicit_terms(u, v, th, spec: SystemSpec, grid: GridSpec):
    """The terms the nonlinear step treats explicitly, at one state.

    Returns (nu, nu_th, adv_u, adv_v, adv_th, heat): the scalar diffusion
    coefficients (momentum, temperature), the transport of the velocity and
    of the temperature, and the heating density, or None with heating off
    (the step scales it by nu).  The outer loop's frozen sources are built
    from the same terms, so the two cannot drift apart.
    """
    grads = ops.center_gradients(u, v, grid)
    gm2 = ops.grad_sq_from_gradients(grads)
    nu = spec.law.of_density(gm2, grid)
    if spec.theta_coeff_source == "velocity":
        nu_th = nu if spec.law_theta is None else spec.law_theta.of_density(gm2, grid)
    else:
        nu_th = ops.nonlocal_viscosity_scalar(th, spec.theta_law, grid)
    heat = ops.heating_from_gradients(grads) if spec.heating_on else None
    del grads, gm2  # lowers the step's peak allocation, so fewer fresh pages per step
    adv_u, adv_v = ops.advect_velocity(u, v, u, v, grid)
    adv_th = ops.advect_scalar(th, u, v, grid)
    return nu, nu_th, adv_u, adv_v, adv_th, heat


def implicit_stage(sp: SpectralSolver, dt: float, ru, rv, rhs_th, c_vel: float,
                   c_th: float, control, bumps, sources, box=None):
    """The tail both steps share: add the bump-weighted controls and the
    sources to the right-hand sides, solve (I - c lap) with c_th for the
    temperature and c_vel for the velocity, project.  Returns (u, v, theta).

    ``control`` = (cu, cv, c0) is stored on ``box`` (``geometry.control_box``;
    None for the whole grid) and is added on that box only.
    """
    if control is not None:
        ru, rv, rhs_th = ru.copy(), rv.copy(), rhs_th.copy()  # ru may be the caller's u
        for rhs, c, bump, b in zip((ru, rv, rhs_th), control, bumps,
                                   box or grid_box(sp.grid)):
            rhs[b] += dt * bump[b] * c
    if sources is not None:
        fu, fv, fth = sources
        ru = ru + dt * fu
        rv = rv + dt * fv
        rhs_th = rhs_th + dt * fth
    th1 = sp.helmholtz_cells(rhs_th, c_th)
    u1 = sp.helmholtz_u(ru, c_vel)
    v1 = sp.helmholtz_v(rv, c_vel)
    u2, v2, _ = sp.project(u1, v1)
    return u2, v2, th1


def _march(prop, y0, th0, controls, source_at, on_state):
    """The time loop both propagators share: project y0, then step nt times.

    Each level k = 0..nt is handed to ``on_state(k, t, u, v, th)`` with
    t = tgrid.nodes()[k]; a true return ends the run at that level.  Nothing
    is stored: returns the last state (u, v, theta).
    """
    u, v, _ = prop.sp.project(y0[0], y0[1])
    th = th0.copy()
    times = prop.tgrid.nodes()
    for k in range(prop.tgrid.nt + 1):
        if k > 0:
            ctrl = None if controls is None else (
                controls.vu[k - 1], controls.vv[k - 1], controls.v0[k - 1])
            u, v, th = prop.step(u, v, th, ctrl,
                                 None if source_at is None else source_at(k - 1),
                                 None if controls is None else controls.box)
        if on_state is not None and on_state(k, times[k], u, v, th):
            break
    return u, v, th


def _energy_hook(grid: GridSpec, comps: list, on_state, blowup_check: bool):
    """``on_state`` behind a hook that appends each level's energy components
    to ``comps`` and, with ``blowup_check``, raises DivergenceError on a
    non-finite energy (the initial level included) or on one past
    _BLOWUP_FACTOR times the first nonzero, with a message for each."""
    e_ref = 0.0

    def hook(k, t, u, v, th):
        nonlocal e_ref
        comps.append(energy_components(u, v, th, grid))
        if blowup_check:
            ek = sum(comps[-1])
            if not np.isfinite(ek):
                raise DivergenceError(f"non-finite energy at step {k}", step=k)
            e_ref = e_ref or ek
            if e_ref > 0.0 and ek > _BLOWUP_FACTOR * e_ref:
                raise DivergenceError(f"energy blow-up at step {k}", step=k)
        return on_state is not None and on_state(k, t, u, v, th)

    return hook


def chain_hooks(*hooks):
    """One ``on_state`` hook calling each of ``hooks`` (None skipped) in turn."""
    hooks = [h for h in hooks if h is not None]
    return lambda *level: any([h(*level) for h in hooks])


class MaxDivergence:
    """An ``on_state`` hook keeping max |div y| over the stepped levels k >= 1."""

    def __init__(self, grid: GridSpec):
        self.grid, self.value = grid, 0.0

    def __call__(self, k, t, u, v, th):
        if k > 0:
            self.value = max(self.value, float(np.max(np.abs(ops.div(u, v, self.grid)))))


class NonlinearPropagator:
    """IMEX stepping of the full system with lagged nonlocal coefficients."""

    def __init__(self, grid: GridSpec, tgrid: TimeGrid, spec: SystemSpec,
                 bumps=None, solver: SpectralSolver | None = None):
        self.grid = grid
        self.tgrid = tgrid
        self.spec = spec
        self.sp = solver or SpectralSolver(grid)
        self.bumps = bumps  # (bump_u, bump_v, bump_cells) or None

    def step(self, u, v, th, control=None, forcing=None, box=None):
        grid, dt, spec = self.grid, self.tgrid.dt, self.spec
        maxvel = max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), _CFL_EPS)
        cfl = spec.cfl_factor * min(grid.hx, grid.hy) / maxvel
        if dt > cfl:
            raise StepSizeError(f"dt={dt:g} exceeds CFL bound {cfl:g}")

        nu, nu_th, adv_u, adv_v, adv_th, heat = explicit_terms(u, v, th, spec, grid)
        # The right-hand sides th - dt adv_th + dt nu heat, u - dt adv_u and
        # v - dt adv_v + dt b theta~, assembled in the terms' own arrays:
        # (-dt) a + x rounds exactly like x - dt a.
        rhs_th = adv_th
        rhs_th *= -dt
        rhs_th += th
        if heat is not None:
            heat *= dt * nu
            rhs_th += heat
        ru = adv_u
        ru *= -dt
        ru += u
        rv = adv_v
        rv *= -dt
        rv += v
        buoy = ops.theta_to_vfaces(th, grid)
        buoy *= dt * spec.buoyancy
        rv += buoy
        del heat, buoy  # scratch, freed before the solves (see explicit_terms)
        return implicit_stage(self.sp, dt, ru, rv, rhs_th, dt * nu, dt * nu_th,
                              control, self.bumps, forcing, box)

    def run(self, y0, th0, controls=None, forcing=None, on_state=None):
        """March nt steps (see ``_march``); ``forcing(k)`` gives step k's
        sources.  Returns (last state, EnergyTrace of the levels reached)."""
        comps: list = []
        out = _march(self, y0, th0, controls, forcing,
                     _energy_hook(self.grid, comps, on_state, blowup_check=True))
        small_ok = sum(comps[0]) <= self.spec.phi_smallness_factor * self.spec.law.nu0 ** 2
        return out, _energy_trace(self.tgrid.nodes()[:len(comps)], comps, self.grid,
                                  small_ok)


class LinearPropagator:
    """The linear system: L1 y + grad P = v 1~ + nu0 theta e2 + F1,
    L2 theta = v0 1~ + F2 with constant diffusion nu0.

    Exactly linear in (y0, theta0, v, v0, F1, F2); `step_adjoint` is the
    hand-derived transpose of `step` (same spectral solves, reversed order),
    which adjoint.py uses for gradients and duality checks.
    """

    def __init__(self, grid: GridSpec, tgrid: TimeGrid, nu0: float,
                 bumps=None, coupling: float | None = None,
                 solver: SpectralSolver | None = None):
        if not (nu0 > 0.0):
            raise DomainError("nu0 must be positive")
        self.grid = grid
        self.tgrid = tgrid
        self.nu0 = nu0
        self.coupling = nu0 if coupling is None else coupling
        self.sp = solver or SpectralSolver(grid)
        self.bumps = bumps

    def step(self, u, v, th, control=None, sources=None, box=None):
        dt = self.tgrid.dt
        rv = v + dt * self.coupling * ops.theta_to_vfaces(th, self.grid)
        c = dt * self.nu0
        return implicit_stage(self.sp, dt, u, rv, th, c, c, control, self.bumps,
                              sources, box)

    def step_adjoint(self, gu, gv, gth):
        """Transpose of the homogeneous part of `step` on the divergence-free
        subspace: the velocity (gu, gv) must already be divergence-free, so
        the projection that `step` ends with (symmetric, idempotent) is the
        identity on it and is not applied again.

        Returns (zeta_u, zeta_v, zeta_th, lam_th): zeta is the pre-coupling
        stage that pairs with step sources in the duality identity, and the
        adjoint state one level down is (zeta_u, zeta_v, lam_th).
        """
        dt, c = self.tgrid.dt, self.tgrid.dt * self.nu0
        zu = self.sp.helmholtz_u(gu, c)
        zv = self.sp.helmholtz_v(gv, c)
        zth = self.sp.helmholtz_cells(gth, c)
        lth = zth + dt * self.coupling * ops.vfaces_to_cells(zv, self.grid)
        return zu, zv, zth, lth

    def run(self, y0, th0, controls=None, sources=None, on_state=None):
        """March nt steps (see ``_march``); ``sources`` holds (F1u, F1v, F2)
        per step.  Returns the last state."""
        src = None if sources is None else (
            lambda k: (sources[0][k], sources[1][k], sources[2][k]))
        return _march(self, y0, th0, controls, src, on_state)


def run_nonlinear(y0, th0, controls, spec: SystemSpec, grid: GridSpec,
                  tgrid: TimeGrid, bumps=None, forcing=None, on_state=None):
    """Integrate the configured system: full dynamics, or the linearized mode
    (constant diffusion, no convection/heating) when spec.mode says so.

    Returns (the last state (u, v, theta), EnergyTrace); ``on_state`` is the
    propagators' hook (see ``_march``).
    """
    if spec.mode == "linearized":
        if forcing is not None:
            raise DomainError("forcing is nonlinear-mode only; "
                              "use LinearPropagator.run for sourced linear runs")
        prop = LinearPropagator(grid, tgrid, spec.law.nu0, bumps=bumps,
                                coupling=spec.buoyancy)
        comps: list = []
        out = prop.run(y0, th0, controls=controls,
                       on_state=_energy_hook(grid, comps, on_state, blowup_check=False))
        return out, _energy_trace(tgrid.nodes()[:len(comps)], comps, grid)
    prop = NonlinearPropagator(grid, tgrid, spec, bumps=bumps)
    return prop.run(y0, th0, controls=controls, forcing=forcing, on_state=on_state)


def zero_padded_sources(f1, f2, grid: GridSpec, nt: int):
    """(f1u, f1v, f2) over nt steps with zeros for a missing F1 = (f1u, f1v)
    or F2; None when both are missing."""
    if f1 is None and f2 is None:
        return None
    return (f1[0] if f1 is not None else np.zeros((nt, grid.nx + 1, grid.ny)),
            f1[1] if f1 is not None else np.zeros((nt, grid.nx, grid.ny + 1)),
            f2 if f2 is not None else np.zeros((nt, grid.nx, grid.ny)))


# ---------------------------------------------------------------------------
# named initial-data profiles


def stream_velocity(grid: GridSpec, amplitude: float = 1.0):
    """Exactly divergence-free velocity from the node stream function
    A sin^2(pi x/lx) sin^2(pi y/ly); tangential components vanish at walls."""
    x, y = grid.nodes()
    psi = amplitude * np.sin(np.pi * x / grid.lx) ** 2 * np.sin(np.pi * y / grid.ly) ** 2
    u = (psi[:, 1:] - psi[:, :-1]) / grid.hy
    v = -(psi[1:, :] - psi[:-1, :]) / grid.hx
    return u, v


def sine_theta(grid: GridSpec, amplitude: float = 1.0) -> np.ndarray:
    x, y = grid.cell_centers()
    return amplitude * np.sin(np.pi * x / grid.lx) * np.sin(np.pi * y / grid.ly)


def scaled_initial_data(grid: GridSpec, target_energy: float,
                        vel_amplitude: float = 1.0, theta_amplitude: float = 1.0):
    """Scale the named profiles so E(0) hits ``target_energy`` exactly."""
    u, v = stream_velocity(grid, vel_amplitude)
    th = sine_theta(grid, theta_amplitude)
    e0 = sum(energy_components(u, v, th, grid))
    if e0 <= 0.0:
        raise DomainError("profile energy vanished; cannot scale")
    s = np.sqrt(target_energy / e0)
    return (u * s, v * s), th * s
