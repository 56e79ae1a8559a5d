"""Time integration of the coupled velocity/temperature system.

Two modes share one IMEX layout: diffusion implicit (one constant-coefficient
Helmholtz solve per field, the nonlocal coefficient frozen at the previous
step), convection / buoyancy / heating / sources explicit, then a Leray
projection, both solved and projected per mode in ``operators.ModalBasis``.
The nonlinear mode transforms each field in and out once per step
(``implicit_stage``).  The linearized mode drops convection and heating and
runs with the constant coefficient nu0; it is exactly linear in all of its
inputs and marches in the modal basis, where each per-step building block is
a per-mode scaling or an orthogonal change of basis, so the discrete adjoint
is available by transposition (see adjoint.py).  Its inputs cross the modal
boundary outside the per-step loop: a run takes its sources as dt-scaled
Helmholtz coefficients (``LinearPropagator.source_modes``), and transforms
its box controls, one row per stored step (``control_rows``), a block of
``sweep_block`` stored rows at a time, as the adjoint reads its zeta back.
A stacked transform gives each level the bits of its own, so blocking moves
no result.

The nonlinear step writes its explicit terms, right-hand sides and scalings
into the propagator's ``operators.Workspace``, so it allocates only the
transforms' outputs.

Both modes march through ``_march``, which hands a hook the physical view
of each level (``LinearPropagator.from_modes`` in the linear mode).  Every
energy-traced run reads each level's energy from its modal coefficients
(``ModalBasis.energy``), before and without that view, and raises
DivergenceError on a non-finite or blown-up energy.
``adjoint.run_adjoint`` keeps its own backward loop: it has no hook, no
control inputs and no early exit, so sharing ``_march`` would only make that
loop branch on the direction of time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .exceptions import DivergenceError, DomainError, ShapeError, StepSizeError
from .geometry import box_within, control_box, grid_box
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .operators import ModalBasis, ViscosityLaw

_CFL_FACTOR = 0.25       # dt <= _CFL_FACTOR * h / max |velocity|
_CFL_EPS = 1.0e-12
_BLOWUP_FACTOR = 1.0e6
_SMALLNESS_FACTOR = 1.0e-2   # smallness_ok is E(0) <= _SMALLNESS_FACTOR * nu0^2
BLOCK_CELLS = 2 ** 15   # grid cells times levels in one block of stacked levels


@dataclass(frozen=True)
class SystemSpec:
    """Model selection, each field set by a ``system.*`` config key: the
    viscosity law, coupling, heating, integration mode.

    ``theta_coeff_source`` picks which field's gradient feeds ``law`` in the
    temperature diffusion: "velocity" for the base system (nu(grad y)),
    "temperature" for the L^p variant (nubar(grad theta)).  The heating
    coefficient always uses the velocity gradient.
    """

    law: ViscosityLaw = field(default_factory=ViscosityLaw)
    theta_coeff_source: str = "velocity"
    nu0_coupling: float | None = None
    heating_on: bool = True
    mode: str = "nonlinear"

    def __post_init__(self):
        if self.mode not in ("nonlinear", "linearized"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.theta_coeff_source not in ("velocity", "temperature"):
            raise DomainError("theta_coeff_source must be 'velocity' or 'temperature'")

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


def explicit_terms(u, v, th, spec: SystemSpec, grid: GridSpec,
                   out: ops.Workspace | None = None):
    """The terms the nonlinear step treats explicitly, at one state or at a
    stack of levels (``operators`` module docstring).

    Returns (nu, nu_th, adv_u, adv_v, adv_th, heat): the scalar diffusion
    coefficients (momentum, temperature; one per level of a stack), the
    transport of the velocity and of the temperature, and the heating
    density, or None with heating off (the step scales it by nu).  The outer
    loop's frozen sources are built from the same terms, so the two cannot
    drift apart.  With ``out`` the arrays, and every temporary of the
    stencils, are that workspace's, valid until its next use; the cell sums
    of u and v are formed once for the gradients and the transport.
    """
    sums = ops.cell_sums(u, v, out)
    grads = ops.center_gradients(u, v, grid, out=out, sums=sums)
    nu = spec.law.of_density(ops.grad_sq_from_gradients(grads, out=out), grid)
    nu_th = (nu if spec.theta_coeff_source == "velocity"
             else ops.nonlocal_viscosity_scalar(th, spec.law, grid, out=out))
    heat = ops.heating_from_gradients(grads, out=out) if spec.heating_on else None
    del grads
    adv_u, adv_v = ops.advect_velocity(u, v, grid, out=out, sums=sums)
    adv_th = ops.advect_scalar(th, u, v, grid, out=out)
    return nu, nu_th, adv_u, adv_v, adv_th, heat


def _solve_scaling(lap: np.ndarray, c: float, out: ops.Workspace | None) -> np.ndarray:
    """1 + c lap, the per-mode (I - c lap) of a Helmholtz basis."""
    d = np.multiply(lap, c, out=None if out is None else out.get("scratch", lap.shape))
    d += 1.0
    return d


def implicit_stage(m: ModalBasis, dt: float, ru, rv, rhs_th, c_vel: float,
                   c_th: float, control, bumps, sources, box=None,
                   out: ops.Workspace | None = None):
    """The nonlinear step's tail: add the bump-weighted controls and the
    sources to the right-hand sides, solve (I - c lap) with c_th for the
    temperature and c_vel for the velocity, project.  Returns the new state
    as ``ModalBasis.physical`` takes it: its shared-mode velocity and its
    theta Helmholtz coefficients.

    The solves scale the Helmholtz coefficients of ``m``; the velocity is
    projected in the shared modes.  ``control`` = (cu, cv, c0) is stored on
    ``box`` (``geometry.control_box``; None for the whole grid) and is added
    on that box only.  The right-hand sides are the caller's scratch, and
    the controls and sources are added to them in place; ``out`` holds the
    scalings.
    """
    if control is not None:
        for rhs, c, bump, b in zip((ru, rv, rhs_th), control, bumps,
                                   box or grid_box(m.grid)):
            rhs[b] += dt * bump[b] * c
    if sources is not None:
        for rhs, f in zip((ru, rv, rhs_th), sources):
            rhs += dt * f
    th = m.cells[0](rhs_th)
    th /= _solve_scaling(m.lap_cells, c_th, out)
    us = m.hu[0](ru)
    us /= _solve_scaling(m.lap_u, c_vel, out)
    vs = m.hv[0](rv)
    vs /= _solve_scaling(m.lap_v, c_vel, out)
    us, vs = m.change_u[1](us), m.change_v[1](vs)
    m.project(us, vs)
    return us, vs, th


def control_rows(controls, nt: int) -> np.ndarray:
    """Per step of a run of nt steps, the row of ``controls``
    (``ControlTrajectory``) that holds its control, or -1 where its live set
    stores none.  Controls of another horizon raise ShapeError."""
    if len(controls.live) != nt:
        raise ShapeError(f"controls of {len(controls.live)} steps given to a run "
                         f"of {nt}")
    rows = np.full(nt, -1)
    rows[controls.live] = np.arange(len(controls.vu))
    return rows


def _march(step, state, tgrid: TimeGrid, inputs, on_state, view, check=None):
    """The forward time loop of both propagators: step ``state`` nt times.

    Step n is ``step(*state, *inputs(n))``, its inputs being the propagator's
    control and sources of step n.  Each level k = 0..nt goes first to
    ``check(k, state)``, then as ``view(*state)`` to ``on_state(k, t, u, v,
    th)``, t = tgrid.nodes()[k]; a true return from either ends the run
    there, after both have seen the level.  Nothing is stored: returns the
    last level handed out, else the view of the last state.
    """
    times = tgrid.nodes()
    level = None
    for k in range(tgrid.nt + 1):
        if k > 0:
            level = None  # not held through the step
            state = step(*state, *inputs(k - 1))
        done = check is not None and check(k, state)
        if on_state is not None:
            level = view(*state)
            done = on_state(k, times[k], *level) or done
        if done:
            break
    return view(*state) if level is None else level


def _energy_check(energy, comps: list, stop_energy: float):
    """A ``check`` for ``_march`` that appends each level's energy
    components, ``energy(k, state)``, to ``comps`` and raises DivergenceError
    on a non-finite energy (the initial level included) or on one past
    _BLOWUP_FACTOR times the first nonzero, with a message for each.  It
    ends the run at the first level whose energy is at most
    ``stop_energy``."""
    e_ref = 0.0

    def check(k, state):
        nonlocal e_ref
        comps.append(energy(k, state))
        ek = sum(comps[-1])
        if not np.isfinite(ek):
            raise DivergenceError(f"non-finite energy at step {k}", step=k)
        e_ref = e_ref or ek
        if e_ref > 0.0 and ek > _BLOWUP_FACTOR * e_ref:
            raise DivergenceError(f"energy blow-up at step {k}", step=k)
        return ek <= stop_energy

    return check


def _traced(run, stepped, physical, grid: GridSpec, tgrid: TimeGrid,
            stop_energy: float, small_bound=np.inf):
    """(``run(check)``, EnergyTrace of the levels it reached), ``check`` being
    the ``_energy_check`` of each level's energy components: of level 0,
    the caller's data, ``energy_components`` of its physical fields
    ``physical(state)``, so that E(0) is the value ``scaled_initial_data``
    scales to and the bounds compared with it see; of each stepped level
    ``stepped(state)``, from the coefficients the step solved for
    (``ModalBasis.energy``).  smallness_ok is E(0) <= small_bound."""
    comps: list = []

    def energy(k, state):
        return energy_components(*physical(state), grid) if k == 0 else stepped(state)

    out = run(_energy_check(energy, comps, stop_energy))
    return out, _energy_trace(tgrid.nodes()[:len(comps)], comps, grid,
                              sum(comps[0]) <= small_bound)


def sweep_block(grid: GridSpec, nt: int) -> int:
    """Steps per block in which the linear sweeps of nt steps move their box
    controls and zeta across the modal boundary: ``block_levels``, so that
    each part's stack holds as many cells as a stack of ``level_blocks``,
    and at most nt / 16, so that the block's three parts stay a small share
    of one whole-grid control of nt levels, which a Hessian apply must not
    allocate."""
    return block_levels(grid, max(1, nt // 16))


def block_levels(grid: GridSpec, levels: int) -> int:
    """Levels per block of stacked levels on ``grid``: as many as BLOCK_CELLS
    cells hold, at least one, at most ``levels``."""
    return max(1, min(levels, BLOCK_CELLS // (grid.nx * grid.ny)))


def level_blocks(grid: GridSpec, levels: int, on_block):
    """An ``on_state`` hook that copies the levels k < ``levels`` of a run
    into stacks of ``block_levels`` levels and hands each block to
    ``on_block(k0, u, v, th)``, k0 its first level, when it fills or when
    level ``levels - 1`` arrives.  The stacks are allocated at level 0 and
    reused by every block, so ``on_block`` must copy what it keeps; a run
    that ends early leaves its last block unread."""
    size = block_levels(grid, levels)
    stacks: list = []

    def hook(k, t, u, v, th):
        if k >= levels:
            return
        if k == 0:
            stacks[:] = [np.empty((size,) + a.shape) for a in (u, v, th)]
        i = k % size
        for stack, a in zip(stacks, (u, v, th)):
            stack[i] = a
        if i == size - 1 or k == levels - 1:
            on_block(k - i, *(stack[:i + 1] for stack in stacks))

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
    """IMEX stepping of the full system with lagged nonlocal coefficients.

    The propagator owns a ``operators.Workspace``: every step writes its
    explicit terms, right-hand sides and scalings into the same arrays, so
    a step allocates only the transforms' outputs.  ``step`` leaves the
    modal coefficients of the state it returns in ``self.modal`` (as
    ``ModalBasis.physical`` takes them), from which ``run`` reads each
    stepped level's energy (``ModalBasis.energy``)."""

    def __init__(self, grid: GridSpec, tgrid: TimeGrid, spec: SystemSpec,
                 bumps=None):
        self.grid = grid
        self.tgrid = tgrid
        self.spec = spec
        self.modes = ModalBasis(grid)
        self.bumps = bumps  # (bump_u, bump_v, bump_cells) or None
        self.workspace = ops.Workspace()
        self.modal = None

    def step(self, u, v, th, control=None, forcing=None, box=None):
        grid, dt, spec, ws = self.grid, self.tgrid.dt, self.spec, self.workspace
        umax = float(np.max(np.abs(u, out=ws.get("scratch", u.shape))))
        vmax = float(np.max(np.abs(v, out=ws.get("scratch", v.shape))))
        if not np.isfinite(umax + vmax):   # np.max passes a nan on
            name = "v" if np.isfinite(umax) else "u"
            raise DivergenceError(f"non-finite velocity {name} entering a step")
        cfl = _CFL_FACTOR * min(grid.hx, grid.hy) / max(umax, vmax, _CFL_EPS)
        if dt > cfl:
            raise StepSizeError(f"dt={dt:g} exceeds CFL bound {cfl:g}")

        nu, nu_th, adv_u, adv_v, adv_th, heat = explicit_terms(u, v, th, spec, grid, ws)
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
        buoy = ops.theta_to_vfaces(th, grid, out=ws)
        buoy *= dt * spec.buoyancy
        rv += buoy
        self.modal = implicit_stage(self.modes, dt, ru, rv, rhs_th, dt * nu, dt * nu_th,
                                    control, self.bumps, forcing, box, ws)
        return self.modes.physical(*self.modal)

    def run(self, y0, th0, controls=None, forcing=None, on_state=None,
            stop_energy=-np.inf):
        """March nt steps from the projected y0 (see ``_march``), or up to
        the first level whose energy is at most ``stop_energy``;
        ``forcing(n)`` gives step n's sources.  Step n takes the row of
        ``controls`` that holds it, or none where they store none
        (``control_rows``).  Returns (last state, EnergyTrace of the levels
        reached); each stepped level's energies are ``ModalBasis.energy``
        of ``self.modal`` (``_traced``)."""
        if controls is not None and self.bumps is None:
            raise DomainError("controls given to a propagator without bumps")
        step = partial(self.step, box=None if controls is None else controls.box)
        rows = None if controls is None else control_rows(controls, self.tgrid.nt)

        def inputs(n):
            control = None if rows is None or rows[n] < 0 else tuple(
                a[rows[n]] for a in controls.parts)
            return control, None if forcing is None else forcing(n)

        return _traced(   # the start state is built in the call, so that no frame keeps it
            lambda check: _march(step, (*self.modes.project_faces(y0[0], y0[1]), th0.copy()),
                                 self.tgrid, inputs, on_state, lambda *level: level, check),
            lambda state: self.modes.energy(*self.modal), lambda state: state, self.grid,
            self.tgrid, stop_energy,
            _SMALLNESS_FACTOR * (self.spec.law.nu0 * self.spec.law.nu0))


class LinearPropagator:
    """The linear system: L1 y + grad P = v 1~ + nu0 theta e2 + F1,
    L2 theta = v0 1~ + F2 with constant diffusion nu0.

    Exactly linear in (y0, theta0, v, v0, F1, F2).  It marches in the
    orthonormal bases of ``operators.ModalBasis``: the state is held as the
    shared-mode coefficients of the divergence-free velocity and the DST-II
    coefficients of theta, the Helmholtz solves, the buoyancy average and
    the Leray projection act per mode, and the velocity changes basis along
    one axis each way per step.  Box controls and sources enter as what a
    step adds in the Helmholtz basis: dt times the coefficients of bump *
    control (``control_modes``) and of (F1u, F1v, F2) (``source_modes``).
    `step` and `step_adjoint` are the same modal steps between physical
    states; `step_adjoint_modes` is the transpose of `step_modes`, which
    adjoint.py uses for gradients and duality checks.
    """

    def __init__(self, grid: GridSpec, tgrid: TimeGrid, nu0: float,
                 bumps=None, coupling: float | None = None):
        if not (nu0 > 0.0):
            raise DomainError("nu0 must be positive")
        self.grid = grid
        self.tgrid = tgrid
        self.nu0 = nu0
        self.coupling = nu0 if coupling is None else coupling
        self.bumps = bumps
        self.modes = m = ModalBasis(grid)
        dt, c = tgrid.dt, tgrid.dt * nu0
        self._solve_u, self._solve_v, self._solve_cells = (
            1.0 / (1.0 + c * lap) for lap in (m.lap_u, m.lap_v, m.lap_cells))
        self._buoyancy = dt * self.coupling * m.buoyancy
        # controls enter on the bumps' support box, the only place bump * control
        # can be nonzero, through the transforms restricted to it
        self.box = None if bumps is None else control_box(bumps)
        if bumps is not None:
            self._dt_bumps = tuple(dt * b[s] for b, s in zip(bumps, self.box))
            self._box_maps = m.on_box(self.box)

    @cached_property
    def zeta_rows(self):
        """Scratch for ``sweep_block`` steps of the adjoint's Helmholtz zeta
        (u, v and theta parts), made once per propagator, so that its pages
        are touched once, not once per adjoint run (``adjoint.run_adjoint``)."""
        m, size = self.modes, sweep_block(self.grid, self.tgrid.nt)
        return tuple(np.empty((size,) + lap.shape) for lap in (m.lap_u, m.lap_v, m.lap_cells))

    def to_modes(self, u, v, th):
        """The modal state of a physical one: its velocity projected (a
        no-op on divergence-free velocity) and its theta coefficients."""
        m = self.modes
        us, vs = m.u[0](u), m.v[0](v)
        m.project(us, vs)
        return us, vs, m.cells[0](th)

    def from_modes(self, us, vs, th):
        """The physical state of a modal one (zero normal wall velocity)."""
        return self.modes.physical(us, vs, th)

    def source_modes(self, fu, fv, fth):
        """The sources ``step_modes`` and ``run`` take, dt times the
        Helmholtz coefficients, of physical (F1u, F1v, F2) at one level or
        a stack of levels; a None part stays None."""
        m, dt = self.modes, self.tgrid.dt
        return tuple(None if f is None else dt * fwd(f)
                     for f, (fwd, _) in zip((fu, fv, fth), (m.hu, m.hv, m.cells)))

    def control_modes(self, control):
        """dt times the Helmholtz coefficients of bump * control, of
        ``control`` = (cu, cv, c0) stored on ``self.box``, at one step or a
        stack of steps."""
        return tuple(fwd(b * c) for (fwd, _), b, c in
                     zip(self._box_maps, self._dt_bumps, control))

    def _check_sources(self, sources, steps=()):
        """ShapeError unless each part of ``sources`` is None or shaped like
        the Helmholtz coefficients of its field, behind ``steps``."""
        m = self.modes
        for name, f, lap in zip(("F1u", "F1v", "F2"), sources,
                                (m.lap_u, m.lap_v, m.lap_cells)):
            if f is not None and np.shape(f) != steps + lap.shape:
                raise ShapeError(
                    f"source {name} has shape {np.shape(f)}, expected {steps + lap.shape}: "
                    "sources are dt-scaled Helmholtz coefficients (source_modes)")

    def step_modes(self, us, vs, th, control=None, sources=None):
        """One step of a modal state; returns new arrays.  ``control`` is
        ``control_modes`` of the step's box controls and ``sources``
        ``source_modes`` of its (F1u, F1v, F2), any part of them None; a
        source part of another shape raises ShapeError."""
        m = self.modes
        ru = m.change_u[0](us)
        rv = m.change_v[0](vs)
        rv += self._buoyancy * th[:, :-1]
        rth = th
        if sources is not None:
            self._check_sources(sources)
        for added in (control, sources):
            if added is not None:
                fu, fv, fth = added
                if fth is not None:
                    rth = rth + fth
                if fu is not None:
                    ru += fu
                if fv is not None:
                    rv += fv
        ru *= self._solve_u
        rv *= self._solve_v
        us1, vs1 = m.change_u[1](ru), m.change_v[1](rv)
        m.project(us1, vs1)
        return us1, vs1, rth * self._solve_cells

    def step_adjoint_modes(self, us, vs, th):
        """Transpose of the homogeneous part of `step_modes`: the projection
        that step ends with (symmetric, idempotent) is the identity on the
        modal state, which is divergence-free, and is not applied again.

        Returns (zeta_u, zeta_v, zeta_th, lam_th) with zeta in the Helmholtz
        basis: zeta is the pre-coupling stage that pairs with step sources
        in the duality identity, and the adjoint state one level down is
        (zeta_u, zeta_v) changed back to shared modes, and lam_th.
        """
        m = self.modes
        zu = m.change_u[0](us)
        zu *= self._solve_u
        zv = m.change_v[0](vs)
        zv *= self._solve_v
        zth = th * self._solve_cells
        lth = zth.copy()
        lth[:, :-1] += self._buoyancy * zv
        return zu, zv, zth, lth

    def step(self, u, v, th, control=None, sources=None, box=None):
        """`step_modes` between physical states, with physical box controls
        and sources (F1u, F1v, F2); the velocity is projected on entry (a
        no-op on divergence-free velocity).  ``control`` is stored on
        ``box`` (None for the whole grid), which must hold ``self.box``."""
        if control is not None:
            control = self.control_modes(tuple(c[i] for c, i in zip(
                control, box_within(self.box, box or grid_box(self.grid)))))
        return self.from_modes(*self.step_modes(
            *self.to_modes(u, v, th), control,
            None if sources is None else self.source_modes(*sources)))

    def step_adjoint(self, gu, gv, gth):
        """`step_adjoint_modes` between physical fields, for divergence-free
        (gu, gv).  Returns the physical (zeta_u, zeta_v, zeta_th, lam_th); the
        adjoint state one level down is (zeta_u, zeta_v, lam_th)."""
        m = self.modes
        zu, zv, zth, lth = self.step_adjoint_modes(*self.to_modes(gu, gv, gth))
        return m.hu[1](zu), m.hv[1](zv), m.cells[1](zth), m.cells[1](lth)

    def run(self, y0, th0, controls=None, sources=None, on_state=None, check=None):
        """March nt steps of the modal state of y0, th0 (see ``_march``,
        whose ``check`` sees each modal state).
        ``controls`` are read on ``self.box``; ``sources`` holds
        ``source_modes`` of (F1u, F1v, F2) stacked over the nt steps, any of
        them None, and a part of another shape raises ShapeError.  The
        stored control rows (``control_rows``) are transformed by
        ``control_modes`` a block of ``sweep_block`` of them at a time; the
        other steps get none.  Levels are transformed back only to be handed
        to ``on_state``.  Returns the last physical state."""
        if controls is not None and self.bumps is None:
            raise DomainError("controls given to a propagator without bumps")
        if sources is not None:
            self._check_sources(sources, (self.tgrid.nt,))
        if controls is not None:
            controls = controls.on(self.box)
            rows = control_rows(controls, self.tgrid.nt)
            size = sweep_block(self.grid, self.tgrid.nt)
        coeffs = ()    # the current block's control_modes

        def inputs(n):
            nonlocal coeffs
            control = None
            if controls is not None and rows[n] >= 0:
                row = rows[n]
                if row % size == 0:
                    coeffs = ()     # freed before the next block is made
                    coeffs = self.control_modes(tuple(a[row:row + size]
                                                      for a in controls.parts))
                control = tuple(c[row % size] for c in coeffs)
            return control, None if sources is None else tuple(
                None if f is None else f[n] for f in sources)

        return _march(self.step_modes, self.to_modes(y0[0], y0[1], th0), self.tgrid,
                      inputs, on_state, self.from_modes, check)


def run_nonlinear(y0, th0, controls, spec: SystemSpec, grid: GridSpec,
                  tgrid: TimeGrid, bumps=None, forcing=None, on_state=None,
                  stop_energy=-np.inf):
    """Integrate the configured system: full dynamics, or the linearized mode
    (constant diffusion, no convection/heating) when spec.mode says so.  The
    run ends early at the first level whose energy E is at most
    ``stop_energy``, which the energy trace has just computed.

    Returns (the last state (u, v, theta), EnergyTrace); ``on_state`` is the
    propagators' hook (see ``_march``).
    """
    if spec.mode == "linearized":
        if forcing is not None:
            raise DomainError("forcing is nonlinear-mode only; "
                              "use LinearPropagator.run for sourced linear runs")
        prop = LinearPropagator(grid, tgrid, spec.law.nu0, bumps=bumps,
                                coupling=spec.buoyancy)
        return _traced(lambda check: prop.run(y0, th0, controls=controls,
                                              on_state=on_state, check=check),
                       lambda state: prop.modes.energy(*state),
                       lambda state: prop.from_modes(*state), grid, tgrid, stop_energy)
    prop = NonlinearPropagator(grid, tgrid, spec, bumps=bumps)
    return prop.run(y0, th0, controls=controls, forcing=forcing, on_state=on_state,
                    stop_energy=stop_energy)


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
