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

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DivergenceError, DomainError, StepSizeError
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

    def digest(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


@dataclass
class Trajectory:
    t: np.ndarray
    u: np.ndarray        # (nt+1, nx+1, ny)
    v: np.ndarray        # (nt+1, nx, ny+1)
    theta: np.ndarray    # (nt+1, nx, ny)
    p: np.ndarray        # (nt+1, nx, ny)
    meta: dict = field(default_factory=dict)

    @classmethod
    def zeros(cls, grid: GridSpec, tgrid: TimeGrid, meta: dict) -> "Trajectory":
        nt = tgrid.nt
        return cls(t=tgrid.nodes(), u=np.zeros((nt + 1, grid.nx + 1, grid.ny)),
                   v=np.zeros((nt + 1, grid.nx, grid.ny + 1)),
                   theta=np.zeros((nt + 1, grid.nx, grid.ny)),
                   p=np.zeros((nt + 1, grid.nx, grid.ny)), meta=meta)

    def terminal_norm(self, grid: GridSpec) -> float:
        return float(np.sqrt(ops.state_norm_sq(self.u[-1], self.v[-1],
                                               self.theta[-1], grid)))


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


def trace_from_trajectory(traj: Trajectory, grid: GridSpec) -> EnergyTrace:
    """The energy trace of a stored trajectory, node by node."""
    comps = [energy_components(traj.u[k], traj.v[k], traj.theta[k], grid)
             for k in range(len(traj.t))]
    return _energy_trace(traj.t, comps, grid)


def _control_sample(controls, k: int):
    if controls is None:
        return None
    return controls.vu[k], controls.vv[k], controls.v0[k]


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
        nu_th = spec.theta_law.of_density(gm2, grid)
    else:
        nu_th = ops.nonlocal_viscosity_scalar(th, spec.theta_law, grid)
    adv_u, adv_v = ops.advect_velocity(u, v, u, v, grid)
    adv_th = ops.advect_scalar(th, u, v, grid)
    heat = ops.heating_from_gradients(grads) if spec.heating_on else None
    return nu, nu_th, adv_u, adv_v, adv_th, heat


def implicit_stage(sp: SpectralSolver, dt: float, ru, rv, rhs_th, c_vel: float,
                   c_th: float, control, bumps, sources):
    """The tail both steps share: add the bump-weighted controls and the
    sources to the right-hand sides, solve (I - c lap) with c_th for the
    temperature and c_vel for the velocity, project.

    Returns (u, v, theta, phi / dt), phi the projection potential.
    """
    if control is not None:
        cu, cv, c0 = control
        bu, bv, bc = bumps
        ru = ru + dt * bu * cu
        rv = rv + dt * bv * cv
        rhs_th = rhs_th + dt * bc * c0
    if sources is not None:
        fu, fv, fth = sources
        ru = ru + dt * fu
        rv = rv + dt * fv
        rhs_th = rhs_th + dt * fth
    th1 = sp.helmholtz_cells(rhs_th, c_th)
    u1 = sp.helmholtz_u(ru, c_vel)
    v1 = sp.helmholtz_v(rv, c_vel)
    u2, v2, phi = sp.project(u1, v1)
    return u2, v2, th1, phi / dt


class NonlinearPropagator:
    """IMEX stepping of the full system with lagged nonlocal coefficients."""

    def __init__(self, grid: GridSpec, tgrid: TimeGrid, spec: SystemSpec,
                 bumps=None, solver: SpectralSolver | None = None):
        self.grid = grid
        self.tgrid = tgrid
        self.spec = spec
        self.sp = solver or SpectralSolver(grid)
        self.bumps = bumps  # (bump_u, bump_v, bump_cells) or None

    def step(self, u, v, th, control=None, forcing=None):
        grid, dt, spec = self.grid, self.tgrid.dt, self.spec
        maxvel = max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), _CFL_EPS)
        cfl = spec.cfl_factor * min(grid.hx, grid.hy) / maxvel
        if dt > cfl:
            raise StepSizeError(f"dt={dt:g} exceeds CFL bound {cfl:g}")

        nu, nu_th, adv_u, adv_v, adv_th, heat = explicit_terms(u, v, th, spec, grid)
        rhs_th = th - dt * adv_th
        if heat is not None:
            rhs_th = rhs_th + dt * nu * heat
        ru = u - dt * adv_u
        rv = v - dt * adv_v + dt * spec.buoyancy * ops.theta_to_vfaces(th, grid)
        return implicit_stage(self.sp, dt, ru, rv, rhs_th, dt * nu, dt * nu_th,
                              control, self.bumps, forcing)

    def run(self, y0, th0, controls=None, forcing=None, store=True, on_state=None):
        """March nt steps; returns (Trajectory | None, EnergyTrace)."""
        grid, tgrid, spec = self.grid, self.tgrid, self.spec
        u, v, _phi = self.sp.project(y0[0], y0[1])
        th = th0.copy()
        traj = Trajectory.zeros(grid, tgrid, {
            "spec": spec.digest(), "grid": grid.digest(), "time": tgrid.digest(),
            "kind": "state"}) if store else None
        comps = [energy_components(u, v, th, grid)]
        e_ref = sum(comps[0])
        max_div = 0.0
        if store:
            traj.u[0], traj.v[0], traj.theta[0] = u, v, th
        if on_state is not None:
            on_state(0, u, v, th)

        for k in range(tgrid.nt):
            ctrl = _control_sample(controls, k)
            frc = None if forcing is None else forcing(k)
            u, v, th, p = self.step(u, v, th, ctrl, frc)
            comps.append(energy_components(u, v, th, grid))
            ek = sum(comps[-1])
            if e_ref == 0.0:
                e_ref = ek
            if not np.isfinite(ek) or (e_ref > 0.0 and ek > _BLOWUP_FACTOR * e_ref):
                raise DivergenceError(f"energy blow-up at step {k + 1}", step=k + 1)
            max_div = max(max_div, float(np.max(np.abs(ops.div(u, v, grid)))))
            if store:
                traj.u[k + 1], traj.v[k + 1], traj.theta[k + 1], traj.p[k + 1] = u, v, th, p
            if on_state is not None:
                on_state(k + 1, u, v, th)

        if store:
            traj.meta["max_div"] = max_div
        small_ok = sum(comps[0]) <= spec.phi_smallness_factor * spec.law.nu0 ** 2
        return traj, _energy_trace(tgrid.nodes(), comps, grid, small_ok)


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

    def step(self, u, v, th, control=None, sources=None):
        dt = self.tgrid.dt
        rv = v + dt * self.coupling * ops.theta_to_vfaces(th, self.grid)
        c = dt * self.nu0
        return implicit_stage(self.sp, dt, u, rv, th, c, c, control, self.bumps,
                              sources)

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

    def run(self, y0, th0, controls=None, sources=None, store=True):
        grid, tgrid = self.grid, self.tgrid
        u, v, _ = self.sp.project(y0[0], y0[1])
        th = th0.copy()
        traj = Trajectory.zeros(grid, tgrid, {
            "grid": grid.digest(), "time": tgrid.digest(), "kind": "state",
            "mode": "linearized"}) if store else None
        if store:
            traj.u[0], traj.v[0], traj.theta[0] = u, v, th
        for k in range(tgrid.nt):
            ctrl = _control_sample(controls, k)
            src = None if sources is None else (sources[0][k], sources[1][k], sources[2][k])
            u, v, th, p = self.step(u, v, th, ctrl, src)
            if store:
                traj.u[k + 1], traj.v[k + 1], traj.theta[k + 1], traj.p[k + 1] = u, v, th, p
        if store:
            return traj
        return u, v, th


def run_nonlinear(y0, th0, controls, spec: SystemSpec, grid: GridSpec,
                  tgrid: TimeGrid, bumps=None, forcing=None, store=True,
                  on_state=None):
    """Integrate the configured system: full dynamics, or the linearized mode
    (constant diffusion, no convection/heating) when spec.mode says so."""
    if spec.mode == "linearized":
        if forcing is not None or on_state is not None or not store:
            raise DomainError("forcing/streaming hooks are nonlinear-mode only; "
                              "use run_linearized for sourced linear runs")
        prop = LinearPropagator(grid, tgrid, spec.law.nu0, bumps=bumps,
                                coupling=spec.buoyancy)
        traj = prop.run(y0, th0, controls=controls)
        return traj, trace_from_trajectory(traj, grid)
    prop = NonlinearPropagator(grid, tgrid, spec, bumps=bumps)
    return prop.run(y0, th0, controls=controls, forcing=forcing, store=store,
                    on_state=on_state)


def run_linearized(y0, th0, controls, f1, f2, nu0: float, grid: GridSpec,
                   tgrid: TimeGrid, bumps=None, coupling=None) -> Trajectory:
    """Integrate the linear system with sources F1 = (f1u, f1v), F2."""
    prop = LinearPropagator(grid, tgrid, nu0, bumps=bumps, coupling=coupling)
    return prop.run(y0, th0, controls=controls,
                    sources=zero_padded_sources(f1, f2, grid, tgrid.nt))


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
