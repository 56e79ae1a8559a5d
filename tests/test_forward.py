"""Forward integrators: one-step dense-matrix oracle, linearity, decay physics,
energy monitors, stability and error handling."""

import re

import numpy as np
import pytest

from bousscontrol import forward, operators as ops
from bousscontrol.exceptions import DivergenceError, DomainError, ShapeError, StepSizeError
from bousscontrol.control import ControlTrajectory
from bousscontrol.forward import (LinearPropagator, MaxDivergence, NonlinearPropagator,
                                  SystemSpec, chain_hooks, energy_components,
                                  explicit_terms, run_nonlinear,
                                  scaled_initial_data, sine_theta,
                                  stream_velocity, trace_from_trajectory)
from bousscontrol.geometry import bump_on_solver_grids, grid_box
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.operators import ViscosityLaw

from conftest import (MODAL_GRIDS, MODAL_IDS, NaturalModalBasis, PhysicalLinear, Recorder,
                      max_rel_diff, rand_cells, rand_div_free, rand_u, rand_v,
                      reference_h1_seminorm_sq_cells, reference_h1_seminorm_sq_velocity,
                      run_linearized)

RNG = np.random.default_rng(11)


# ---------------------------------------------------------------------------
# dense-matrix single-step reference (independent implicit solves/projection)


def _dense_ops(grid):
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy

    def cell_idx(i, j):
        return i * ny + j

    n_c = nx * ny
    lap_c = np.zeros((n_c, n_c))
    lap_n = np.zeros((n_c, n_c))
    for i in range(nx):
        for j in range(ny):
            r = cell_idx(i, j)
            for di, dj, h in ((1, 0, hx), (-1, 0, hx), (0, 1, hy), (0, -1, hy)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    lap_c[r, cell_idx(ii, jj)] += 1.0 / h ** 2
                    lap_c[r, r] -= 1.0 / h ** 2
                    lap_n[r, cell_idx(ii, jj)] += 1.0 / h ** 2
                    lap_n[r, r] -= 1.0 / h ** 2
                else:
                    lap_c[r, r] -= 2.0 / h ** 2  # odd ghost
                    # Neumann ghost contributes nothing
    n_u = (nx - 1) * ny

    def u_idx(i, j):
        return (i - 1) * ny + j

    lap_u = np.zeros((n_u, n_u))
    for i in range(1, nx):
        for j in range(ny):
            r = u_idx(i, j)
            for di, dj, h, kind in ((1, 0, hx, "x"), (-1, 0, hx, "x"),
                                    (0, 1, hy, "y"), (0, -1, hy, "y")):
                ii, jj = i + di, j + dj
                if kind == "x":
                    lap_u[r, r] -= 1.0 / h ** 2
                    if 1 <= ii <= nx - 1:
                        lap_u[r, u_idx(ii, jj)] += 1.0 / h ** 2
                    # pinned boundary face contributes zero
                else:
                    if 0 <= jj < ny:
                        lap_u[r, u_idx(ii, jj)] += 1.0 / h ** 2
                        lap_u[r, r] -= 1.0 / h ** 2
                    else:
                        lap_u[r, r] -= 2.0 / h ** 2
    n_v = nx * (ny - 1)

    def v_idx(i, j):
        return i * (ny - 1) + (j - 1)

    lap_v = np.zeros((n_v, n_v))
    for i in range(nx):
        for j in range(1, ny):
            r = v_idx(i, j)
            for di, dj, h, kind in ((1, 0, hx, "x"), (-1, 0, hx, "x"),
                                    (0, 1, hy, "y"), (0, -1, hy, "y")):
                ii, jj = i + di, j + dj
                if kind == "y":
                    lap_v[r, r] -= 1.0 / h ** 2
                    if 1 <= jj <= ny - 1:
                        lap_v[r, v_idx(ii, jj)] += 1.0 / h ** 2
                else:
                    if 0 <= ii < nx:
                        lap_v[r, v_idx(ii, jj)] += 1.0 / h ** 2
                        lap_v[r, r] -= 1.0 / h ** 2
                    else:
                        lap_v[r, r] -= 2.0 / h ** 2
    return lap_c, lap_n, lap_u, lap_v, u_idx, v_idx, cell_idx


def _dense_project(grid, u, v, lap_n):
    rhs = ops.div(u, v, grid).ravel()
    p, *_ = np.linalg.lstsq(lap_n, rhs, rcond=None)
    p -= p.mean()
    p2 = p.reshape(grid.nx, grid.ny)
    gu, gv = ops.grad(p2, grid)
    return u - gu, v - gv


def dense_reference_step(grid, dt, spec, u, v, th):
    """Hand-rolled IMEX step: dense solves, same explicit algebra."""
    lap_c, lap_n, lap_u, lap_v, u_idx, v_idx, cell_idx = _dense_ops(grid)
    nu = ops.nonlocal_viscosity(u, v, spec.law, grid)
    nu_th = (nu if spec.theta_coeff_source == "velocity"
             else ops.nonlocal_viscosity_scalar(th, spec.law, grid))
    au, av = ops.advect_velocity(u, v, grid)
    ath = ops.advect_scalar(th, u, v, grid)
    rhs_th = th - dt * ath
    if spec.heating_on:
        rhs_th = rhs_th + dt * nu * ops.heating(u, v, grid)
    ru = (u - dt * au)[1:-1, :].ravel()
    rv = (v - dt * av + dt * spec.buoyancy * ops.theta_to_vfaces(th, grid))[:, 1:-1].ravel()

    th1 = np.linalg.solve(np.eye(len(lap_c)) - dt * nu_th * lap_c,
                          rhs_th.ravel()).reshape(grid.nx, grid.ny)
    u1 = np.zeros_like(u)
    u1[1:-1, :] = np.linalg.solve(np.eye(len(lap_u)) - dt * nu * lap_u,
                                  ru).reshape(grid.nx - 1, grid.ny)
    v1 = np.zeros_like(v)
    v1[:, 1:-1] = np.linalg.solve(np.eye(len(lap_v)) - dt * nu * lap_v,
                                  rv).reshape(grid.nx, grid.ny - 1)
    u2, v2 = _dense_project(grid, u1, v1, lap_n)
    return u2, v2, th1


class TestOneStepOracle:
    def setup_method(self):
        self.grid = GridSpec(8, 8)
        self.tgrid = TimeGrid(1.0, 64)
        self.spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.5), heating_on=True)

    def test_step_matches_dense_reference(self):
        g, dt = self.grid, self.tgrid.dt
        u, v = rand_div_free(g, RNG)
        u *= 0.05 / max(np.abs(u).max(), 1.0)
        v *= 0.05 / max(np.abs(v).max(), 1.0)
        th = 0.1 * rand_cells(g, RNG)
        prop = NonlinearPropagator(g, self.tgrid, self.spec)
        u1, v1, th1 = prop.step(u, v, th)
        ur, vr, thr = dense_reference_step(g, dt, self.spec, u, v, th)
        scale = max(np.abs(ur).max(), np.abs(thr).max())
        assert np.abs(u1 - ur).max() < 1e-11 * scale
        assert np.abs(v1 - vr).max() < 1e-11 * scale
        assert np.abs(th1 - thr).max() < 1e-11 * scale

    def test_buoyancy_creates_upward_flow(self):
        # positive theta drives the vertical component: after one step the
        # flow rises where theta peaks (net vertical momentum is exactly zero
        # in a closed box, so "mass" appears as centered upward flow plus
        # recirculation, positively correlated with the buoyancy force)
        g = self.grid
        th = sine_theta(g, 0.5)
        prop = NonlinearPropagator(g, self.tgrid, self.spec)
        u1, v1, _ = prop.step(g.zeros_u(), g.zeros_v(), th)
        assert ops.norm_velocity(u1, v1, g) > 0.0
        assert np.all(v1[g.nx // 2, 1:-1] > 0.0)
        assert float(np.sum(v1 * ops.theta_to_vfaces(th, g))) > 0.0
        ur, vr, _ = dense_reference_step(g, self.tgrid.dt, self.spec,
                                         g.zeros_u(), g.zeros_v(), th)
        assert np.all(vr[g.nx // 2, 1:-1] > 0.0)

    def test_heating_increases_theta_mean(self):
        g = self.grid
        _, yu = g.u_positions()
        u = 0.2 * yu * (1.0 - yu)  # shear-like, vanishing at walls
        u[0] = u[-1] = 0.0
        v = g.zeros_v()
        th = g.zeros_cells()
        on = NonlinearPropagator(g, self.tgrid, self.spec)
        off = NonlinearPropagator(
            g, self.tgrid, SystemSpec(law=self.spec.law, heating_on=False))
        _, _, th_on = on.step(u, v, th)
        _, _, th_off = off.step(u, v, th)
        assert float(np.mean(th_on - th_off)) > 0.0
        _, _, thr = dense_reference_step(g, self.tgrid.dt, self.spec, u, v, th)
        assert float(np.mean(thr)) > float(np.mean(th_off))


class TestZeroFixedPoint:
    def test_nonlinear(self, grid16, tgrid64):
        spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1))
        traj = Recorder()
        _, trace = run_nonlinear((grid16.zeros_u(), grid16.zeros_v()),
                                 grid16.zeros_cells(), None, spec,
                                 grid16, tgrid64, on_state=traj)
        assert np.all(traj.u == 0.0) and np.all(traj.theta == 0.0)
        assert np.all(trace.energy == 0.0)

    def test_linearized(self, grid16, tgrid64):
        traj = run_linearized((grid16.zeros_u(), grid16.zeros_v()),
                              grid16.zeros_cells(), None, None, None, 1.0,
                              grid16, tgrid64)
        assert np.all(traj.u == 0.0) and np.all(traj.theta == 0.0)


class TestLinearizedMode:
    def test_superposition(self, grid16):
        tg = TimeGrid(1.0, 32)
        nu0 = 0.2
        rng = np.random.default_rng(5)
        sets = []
        for _ in range(2):
            y0 = rand_div_free(grid16, rng)
            th0 = rand_cells(grid16, rng)
            f1 = (np.stack([rand_u(grid16, rng) for _ in range(tg.nt)]),
                  np.stack([rand_v(grid16, rng) for _ in range(tg.nt)]))
            f2 = np.stack([rand_cells(grid16, rng) for _ in range(tg.nt)])
            sets.append((y0, th0, f1, f2))
        a, b = 1.7, -0.4
        (y1, t1, f11, f21), (y2, t2, f12, f22) = sets
        combo = run_linearized(
            (a * y1[0] + b * y2[0], a * y1[1] + b * y2[1]), a * t1 + b * t2,
            None, (a * f11[0] + b * f12[0], a * f11[1] + b * f12[1]),
            a * f21 + b * f22, nu0, grid16, tg)
        r1 = run_linearized(y1, t1, None, f11, f21, nu0, grid16, tg)
        r2 = run_linearized(y2, t2, None, f12, f22, nu0, grid16, tg)
        lin = a * r1.theta + b * r2.theta
        scale = np.abs(combo.theta).max()
        assert np.abs(combo.theta - lin).max() < 1e-9 * scale
        assert np.abs(combo.u - (a * r1.u + b * r2.u)).max() < 1e-9 * scale

    def test_heat_mode_decay_rate(self):
        # theta0 = sine mode decays like e^{-2 pi^2 nu0 t} up to O(h^2)+O(dt)
        grid = GridSpec(32, 32)
        nu0 = 0.1
        tg = TimeGrid(1.0, 512)
        th0 = sine_theta(grid, 1.0)
        traj = run_linearized((grid.zeros_u(), grid.zeros_v()), th0, None,
                              None, None, nu0, grid, tg)
        measured = -np.log(ops.norm_cells(traj.theta[-1], grid)
                           / ops.norm_cells(traj.theta[0], grid))
        exact = 2.0 * np.pi ** 2 * nu0
        # dt-error ~ t (nu0 lam)^2 dt / 2 ~ 0.004, h-error ~ pi^2 h^2/12 ~ 1e-3
        assert measured == pytest.approx(exact, rel=2e-2)

    def test_buoyancy_only_feeds_velocity(self):
        # theta evolves autonomously: same theta with or without coupling
        grid = GridSpec(16, 16)
        tg = TimeGrid(0.5, 32)
        th0 = sine_theta(grid, 1.0)
        y0 = (grid.zeros_u(), grid.zeros_v())
        with_c = run_linearized(y0, th0, None, None, None, 0.5, grid, tg,
                                coupling=0.5)
        no_c = run_linearized(y0, th0, None, None, None, 0.5, grid, tg,
                              coupling=0.0)
        assert np.array_equal(with_c.theta, no_c.theta)
        assert ops.norm_velocity(with_c.u[-1], with_c.v[-1], grid) > 0.0
        assert np.all(no_c.u == 0.0)


class TestEnergyMonitors:
    def test_phi_monotone_small_data(self):
        grid = GridSpec(32, 32)
        spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1), heating_on=True)
        y0, th0 = scaled_initial_data(grid, 1e-4)
        div = MaxDivergence(grid)
        _, trace = run_nonlinear(y0, th0, None, spec, grid, TimeGrid(1.0, 128),
                                 on_state=div)
        assert trace.smallness_ok
        assert trace.phi_monotone
        assert np.all(np.isfinite(trace.energy))
        assert div.value < 1e-12

    def test_energy_components_form_no_laplacian(self, monkeypatch):
        grid = GridSpec(33, 20, lx=1.3, ly=0.7)
        (u, v), th = scaled_initial_data(grid, 1e-2)
        u = u + 1e-3 * RNG.standard_normal(u.shape)
        th = th + 1e-3 * RNG.standard_normal(th.shape)
        ref = (reference_h1_seminorm_sq_velocity(u, v, grid), ops.norm_cells(th, grid) ** 2,
               reference_h1_seminorm_sq_cells(th, grid))

        def forbidden(*args):
            raise AssertionError("energy_components formed a Laplacian")

        for name in ("laplacian_cells", "laplacian_u", "laplacian_v"):
            monkeypatch.setattr(ops, name, forbidden)
        got = energy_components(u, v, th, grid)
        assert all(abs(g - r) <= 1e-13 * r for g, r in zip(got, ref))

    def test_determinism_bit_identical(self, grid16):
        spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1))
        y0, th0 = scaled_initial_data(grid16, 1e-4)
        tg = TimeGrid(1.0, 32)
        t1, t2 = Recorder(), Recorder()
        run_nonlinear(y0, th0, None, spec, grid16, tg, on_state=t1)
        run_nonlinear(y0, th0, None, spec, grid16, tg, on_state=t2)
        assert np.array_equal(t1.u, t2.u)
        assert np.array_equal(t1.theta, t2.theta)

    def test_gronwall_stability(self, grid16):
        spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1))
        tg = TimeGrid(1.0, 64)
        y0, th0 = scaled_initial_data(grid16, 1e-4)
        delta = 1e-8
        t1, t2 = Recorder(), Recorder()
        run_nonlinear(y0, th0, None, spec, grid16, tg, on_state=t1)
        run_nonlinear(y0, (th0 + delta), None, spec, grid16, tg, on_state=t2)
        dev0 = ops.norm_cells(t2.theta[0] - t1.theta[0], grid16)
        dev_t = ops.norm_cells(t2.theta[-1] - t1.theta[-1], grid16)
        growth = dev_t / dev0
        assert np.isfinite(growth)
        assert dev_t <= 10.0 * delta  # dissipative regime: no amplification

    def test_heating_contribution_nonnegative(self, grid16):
        spec_on = SystemSpec(law=ViscosityLaw("l2", 0.5, 0.1), heating_on=True)
        spec_off = SystemSpec(law=ViscosityLaw("l2", 0.5, 0.1), heating_on=False)
        tg = TimeGrid(1.0, 64)
        y0 = stream_velocity(grid16, 0.05)
        th0 = 0.1 * sine_theta(grid16, 1.0)
        th_on = NonlinearPropagator(grid16, tg, spec_on).step(y0[0], y0[1], th0)[2]
        th_off = NonlinearPropagator(grid16, tg, spec_off).step(y0[0], y0[1], th0)[2]
        assert float(np.mean(th_on - th_off)) >= 0.0

    def test_trace_from_trajectory_matches_run(self, grid16):
        spec = SystemSpec(law=ViscosityLaw("l2", 0.5, 0.1))
        y0, th0 = scaled_initial_data(grid16, 1e-3)
        traj = Recorder()
        _, trace = run_nonlinear(y0, th0, None, spec, grid16, TimeGrid(0.5, 32),
                                 on_state=traj)
        ref = trace_from_trajectory(traj, grid16)
        for name in ("t", "grad_y_sq", "theta_sq", "grad_theta_sq"):
            assert np.array_equal(getattr(ref, name), getattr(trace, name))
        assert ref.lam1 == trace.lam1


@pytest.mark.parametrize("source", ["velocity", "temperature"])
@pytest.mark.parametrize("heating", [True, False])
def test_explicit_terms_match_reference_operators(grid16, source, heating):
    # the nonlinear step and the outer loop's frozen sources both take their
    # explicit terms from explicit_terms; it must equal the operators bit for bit
    rng = np.random.default_rng(17)
    law = ViscosityLaw("lp", 0.4, 0.2, 4.0)
    spec = SystemSpec(law=law, theta_coeff_source=source, heating_on=heating)
    u, v = rand_div_free(grid16, rng)
    th = rand_cells(grid16, rng)
    nu, nu_th, adv_u, adv_v, adv_th, heat = explicit_terms(u, v, th, spec, grid16)
    assert nu == ops.nonlocal_viscosity(u, v, law, grid16)
    assert nu_th == (nu if source == "velocity"
                     else ops.nonlocal_viscosity_scalar(th, law, grid16))
    ref_u, ref_v = ops.advect_velocity(u, v, grid16)
    assert np.array_equal(adv_u, ref_u) and np.array_equal(adv_v, ref_v)
    assert np.array_equal(adv_th, ops.advect_scalar(th, u, v, grid16))
    if heating:
        assert np.array_equal(heat, ops.heating(u, v, grid16))
    else:
        assert heat is None


class TestErrorHandling:
    def test_cfl_violation(self, grid16):
        spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.0))
        tg = TimeGrid(1.0, 16)  # dt = 1/16, huge against |u| = 4
        u = grid16.zeros_u()
        u[1:-1, :] = 4.0
        with pytest.raises(StepSizeError):
            NonlinearPropagator(grid16, tg, spec).step(u, grid16.zeros_v(),
                                                       grid16.zeros_cells())

    @pytest.mark.parametrize("name, bad", [("u", np.nan), ("v", np.nan),
                                           ("u", np.inf), ("v", -np.inf)])
    def test_non_finite_velocity_named_not_passed_on(self, grid16, name, bad):
        # a NaN must not slip past the CFL check (nor an inf be reported as
        # a CFL bound of 0): the step names the field and raises
        u, v = stream_velocity(grid16, 1e-3)
        (u if name == "u" else v)[5, 5] = bad
        prop = NonlinearPropagator(grid16, TimeGrid(1.0, 16), SystemSpec())
        with pytest.raises(DivergenceError, match=f"non-finite velocity {name}"):
            prop.step(u, v, grid16.zeros_cells())

    def test_blowup_detection(self, grid16, monkeypatch):
        # negative heating coefficient is unphysical; force blow-up through a
        # huge anti-diffusive source instead: inject energy via forcing, with
        # the CFL bound out of the way
        monkeypatch.setattr(forward, "_CFL_FACTOR", 1e9)
        spec = SystemSpec(law=ViscosityLaw("l2", 1e-4, 0.0), heating_on=False)
        tg = TimeGrid(1.0, 16)
        y0 = stream_velocity(grid16, 1e-3)
        th0 = 1e-3 * sine_theta(grid16, 1.0)

        def forcing(k):
            return (grid16.zeros_u(),
                    grid16.zeros_v(),
                    np.full((16, 16), 1e6))

        with pytest.raises(DivergenceError) as err:
            run_nonlinear(y0, th0, None, spec, grid16, tg, forcing=forcing)
        assert err.value.step is not None

    @pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
    def test_non_finite_initial_data_named(self, grid16, mode):
        # a NaN is reported as such at the level it appears, not as growth,
        # and the linearized mode's energy trace checks it the same way
        th0 = sine_theta(grid16, 1e-3)
        th0[3, 5] = np.nan
        y0 = stream_velocity(grid16, 1e-3)
        with pytest.raises(DivergenceError, match="non-finite energy at step 0") as err:
            run_nonlinear(y0, th0, None, SystemSpec(mode=mode), grid16, TimeGrid(1.0, 16))
        assert err.value.step == 0

    @pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
    def test_controls_without_bumps_named(self, grid16, mode):
        # controls enter through the bumps of their cutoff: without them the
        # propagator refuses the controls before stepping
        tg = TimeGrid(1.0, 16)
        controls = ControlTrajectory.zeros(grid16, tg.nt)
        y0 = stream_velocity(grid16, 1e-3)
        with pytest.raises(DomainError, match="without bumps"):
            run_nonlinear(y0, sine_theta(grid16, 1e-3), controls, SystemSpec(mode=mode),
                          grid16, tg)


def test_nonlinear_run_calls_no_physical_solve_or_projection(grid16, bumps16,
                                                             monkeypatch):
    # the nonlinear step solves and projects in ModalBasis: with controls and
    # sources, a run touches no SpectralSolver method and no div/grad stencil
    tg = TimeGrid(0.25, 16)
    prop = NonlinearPropagator(grid16, tg, SystemSpec(law=ViscosityLaw("l2", 0.5, 0.2)),
                               bumps=bumps16)
    rng = np.random.default_rng(41)
    controls = ControlTrajectory.zeros(grid16, tg.nt, grid_box(grid16))
    for part in controls.parts:
        part[:] = 1e-3 * rng.standard_normal(part.shape)
    sources = (1e-3 * rand_u(grid16, rng), 1e-3 * rand_v(grid16, rng),
               1e-3 * rand_cells(grid16, rng))
    y0, th0 = scaled_initial_data(grid16, 1e-3)
    want = prop.run(y0, th0, controls, lambda k: sources)

    def forbidden(*args, **kwargs):
        raise AssertionError("the nonlinear run called a physical operator")

    for name, attr in vars(ops.SpectralSolver).items():
        if callable(attr):
            monkeypatch.setattr(ops.SpectralSolver, name, forbidden)
    for name in ("div", "grad"):
        monkeypatch.setattr(ops, name, forbidden)
    got = prop.run(y0, th0, controls, lambda k: sources)
    assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
    assert np.array_equal(got[1].energy, want[1].energy)


def test_run_nonlinear_dispatches_linearized_mode(grid16):
    # the mode flag selects the constant-coefficient system: with identical
    # data the linearized run matches run_linearized, not the full dynamics
    tg = TimeGrid(1.0, 32)
    th0 = sine_theta(grid16, 0.5)
    y0 = (grid16.zeros_u(), grid16.zeros_v())
    spec = SystemSpec(law=ViscosityLaw("l2", 0.2, 0.5), mode="linearized")
    traj = Recorder()
    _, trace = run_nonlinear(y0, th0, None, spec, grid16, tg, on_state=traj)
    ref = run_linearized(y0, th0, None, None, None, 0.2, grid16, tg,
                         coupling=0.2)
    assert np.array_equal(traj.theta, ref.theta)
    assert np.array_equal(traj.u, ref.u)
    assert np.all(np.isfinite(trace.energy))


class TestSourceShapes:
    """``LinearPropagator.run`` and ``step_modes`` take sources as dt-scaled
    Helmholtz coefficients (``source_modes``) and refuse a part of another
    shape, naming it; the physical ``step`` converts its physical sources."""

    TG = TimeGrid(0.5, 16)

    @pytest.mark.parametrize("part", [0, 1], ids=["F1u", "F1v"])
    def test_run_refuses_physical_sources(self, grid16, part):
        rng = np.random.default_rng(51)
        prop = LinearPropagator(grid16, self.TG, 0.1)
        physical = [np.stack([draw(grid16, rng) for _ in range(self.TG.nt)])
                    for draw in (rand_u, rand_v, rand_cells)]
        sources = list(prop.source_modes(*physical))
        sources[part] = physical[part]
        name, want = [("F1u", (16, 15, 16)), ("F1v", (16, 16, 15))][part]
        with pytest.raises(ShapeError,
                           match=rf"source {name} .* expected {re.escape(str(want))}"):
            prop.run(rand_div_free(grid16, rng), rand_cells(grid16, rng), None,
                     tuple(sources))

    def test_run_refuses_a_stack_of_other_length(self, grid16):
        prop = LinearPropagator(grid16, self.TG, 0.1)
        f2 = np.zeros((self.TG.nt - 1, 16, 16))
        with pytest.raises(ShapeError, match=r"source F2 .* expected \(16, 16, 16\)"):
            prop.run((grid16.zeros_u(), grid16.zeros_v()), grid16.zeros_cells(), None,
                     (None, None, f2))

    def test_step_modes_refuses_physical_sources(self, grid16):
        rng = np.random.default_rng(52)
        prop = LinearPropagator(grid16, self.TG, 0.1)
        state = prop.to_modes(*rand_div_free(grid16, rng), rand_cells(grid16, rng))
        with pytest.raises(ShapeError, match=r"source F1u .* expected \(15, 16\)"):
            prop.step_modes(*state, None, (rand_u(grid16, rng), None, None))

    def test_physical_step_converts_its_sources(self, grid16, bumps16):
        rng = np.random.default_rng(53)
        prop = LinearPropagator(grid16, self.TG, 0.1, bumps=bumps16, coupling=0.3)
        state = (*rand_div_free(grid16, rng), rand_cells(grid16, rng))
        sources = (rand_u(grid16, rng), rand_v(grid16, rng), rand_cells(grid16, rng))
        control = (rand_u(grid16, rng), rand_v(grid16, rng), rand_cells(grid16, rng))
        got = prop.step(*state, control, sources)
        assert max_rel_diff(got, PhysicalLinear(prop).step(*state, control, sources)) <= 1e-12
        modal = prop.step_modes(*prop.to_modes(*state), prop.control_modes(tuple(
            c[b] for c, b in zip(control, prop.box))), prop.source_modes(*sources))
        assert all(np.array_equal(a, b) for a, b in zip(got, prop.from_modes(*modal)))


class TestModalMarch:
    """The linear system marches in its modal basis; each level it hands out
    and its last state agree with the physical step it replaced
    (``conftest.PhysicalLinear``), with box controls, sources and a hook,
    on short and on long axes."""

    @pytest.mark.parametrize("given", ["F1-and-F2", "F2-only"])
    @pytest.mark.parametrize("grid", MODAL_GRIDS, ids=MODAL_IDS)
    def test_run_matches_physical_reference(self, grid, given, patch):
        rng = np.random.default_rng(31)
        tg = TimeGrid(0.5, 16)
        prop = LinearPropagator(grid, tg, 0.1, bumps=bump_on_solver_grids(grid, patch),
                                coupling=0.3)
        controls = ControlTrajectory.zeros(grid, tg.nt, prop.box)
        for part in controls.parts:
            part[:] = rng.standard_normal(part.shape)
        sources = tuple(np.stack([draw(grid, rng) for _ in range(tg.nt)])
                        for draw in (rand_u, rand_v, rand_cells))
        if given == "F2-only":
            sources = (None, None, sources[2])
        y0, th0 = rand_div_free(grid, rng), rand_cells(grid, rng)
        got, want = Recorder(), Recorder()
        last = prop.run(y0, th0, controls, prop.source_modes(*sources), on_state=got)
        ref = PhysicalLinear(prop).run(y0, th0, controls, sources, on_state=want)
        assert len(got.levels) == len(want.levels) == tg.nt + 1
        for a, b in zip(got.levels, want.levels):
            assert max_rel_diff(a[1:], b[1:]) <= 1e-12
        assert max_rel_diff(last, ref) <= 1e-12

    @pytest.mark.parametrize("grid", MODAL_GRIDS, ids=MODAL_IDS)
    def test_physical_steps_match_reference(self, grid, patch):
        # step and step_adjoint keep their physical signatures on
        # divergence-free velocity, and a whole-grid control is read on the box
        rng = np.random.default_rng(32)
        prop = LinearPropagator(grid, TimeGrid(0.5, 16), 0.1,
                                bumps=bump_on_solver_grids(grid, patch), coupling=0.3)
        ref = PhysicalLinear(prop)
        state = (*rand_div_free(grid, rng), rand_cells(grid, rng))
        control = (rand_u(grid, rng), rand_v(grid, rng), rand_cells(grid, rng))
        sources = (rand_u(grid, rng), None, rand_cells(grid, rng))
        assert max_rel_diff(prop.step(*state, control, sources),
                            ref.step(*state, control, sources)) <= 1e-12
        assert max_rel_diff(prop.step_adjoint(*state), ref.step_adjoint(*state)) <= 1e-12


class TestParityOrderedSteps:
    """Both propagators' steps on the parity-ordered ``ModalBasis``, with its
    folded transforms and block changes of basis on the 128-point axes,
    against the same steps on ``conftest.NaturalModalBasis``: dense products
    and tables in natural mode order."""

    @staticmethod
    def _pair(monkeypatch, build):
        """(propagator, the same on the natural-order basis)."""
        prop = build()
        monkeypatch.setattr(forward, "ModalBasis", NaturalModalBasis)
        return prop, build()

    @pytest.mark.parametrize("grid", [GridSpec(128, 128), GridSpec(128, 33, ly=0.5)],
                             ids=["128x128", "128x33"])
    def test_nonlinear_step_matches_natural_order(self, grid, monkeypatch):
        rng = np.random.default_rng(41)
        spec = SystemSpec(law=ViscosityLaw("l2", 0.1, 0.2), heating_on=True)
        prop, ref = self._pair(monkeypatch,
                               lambda: NonlinearPropagator(grid, TimeGrid(1.6e-2, 16), spec))
        u, v = rand_div_free(grid, rng)
        scale = 0.1 / max(np.abs(u).max(), np.abs(v).max())
        state = (*prop.modes.project_faces(scale * u, scale * v), rand_cells(grid, rng))
        sources = (rand_u(grid, rng), rand_v(grid, rng), rand_cells(grid, rng))
        for forcing in (None, sources):
            assert max_rel_diff(prop.step(*state, forcing=forcing),
                                ref.step(*state, forcing=forcing)) <= 1e-13

    @pytest.mark.parametrize("grid", [GridSpec(128, 128), GridSpec(128, 33, ly=0.5)],
                             ids=["128x128", "128x33"])
    def test_linear_step_matches_natural_order(self, grid, monkeypatch):
        rng = np.random.default_rng(42)
        prop, ref = self._pair(monkeypatch, lambda: LinearPropagator(
            grid, TimeGrid(0.5, 16), 0.1, coupling=0.3))
        state = (*rand_div_free(grid, rng), rand_cells(grid, rng))
        sources = (rand_u(grid, rng), rand_v(grid, rng), rand_cells(grid, rng))
        assert max_rel_diff(prop.step(*state, None, sources),
                            ref.step(*state, None, sources)) <= 1e-13
        assert max_rel_diff(prop.step_adjoint(*state), ref.step_adjoint(*state)) <= 1e-13


class TestRunContract:
    """Both propagators: a run returns its last state, ``on_state(k, t, u, v,
    th)`` sees every level as it is produced with t the k-th time node, and a
    true return from it ends the run at that level."""

    TG = TimeGrid(0.5, 16)

    @staticmethod
    def _spec(mode):
        return SystemSpec(law=ViscosityLaw("l2", 0.5, 0.1), mode=mode)

    @classmethod
    def _run(cls, mode, grid, tg, **kw):
        y0, th0 = scaled_initial_data(grid, 1e-3)
        return run_nonlinear(y0, th0, None, cls._spec(mode), grid, tg, **kw)

    @classmethod
    def _stepped(cls, mode, grid, tg):
        """Levels 0..nt by hand: the projected data, then nt calls to step
        (to ``step_modes`` for the linear system)."""
        spec = cls._spec(mode)
        prop = (NonlinearPropagator(grid, tg, spec) if mode == "nonlinear" else
                LinearPropagator(grid, tg, spec.law.nu0, coupling=spec.buoyancy))
        y0, th0 = scaled_initial_data(grid, 1e-3)
        if mode == "nonlinear":
            levels = [prop.modes.project_faces(*y0) + (th0,)]
            for _ in range(tg.nt):
                levels.append(prop.step(*levels[-1]))
            return levels
        # the linear system steps on modal coefficients, levels are read back
        coeffs = [prop.to_modes(*y0, th0)]
        for _ in range(tg.nt):
            coeffs.append(prop.step_modes(*coeffs[-1]))
        return [prop.from_modes(*c) for c in coeffs]

    @pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
    def test_unstored_run_streams_the_stored_levels(self, grid16, mode):
        ref = self._stepped(mode, grid16, self.TG)
        seen = Recorder()
        last, trace = self._run(mode, grid16, self.TG, on_state=seen)
        assert np.array_equal(seen.t, self.TG.nodes())
        assert len(seen.levels) == self.TG.nt + 1
        for (_, u, v, th), (ru, rv, rth) in zip(seen.levels, ref):
            assert np.array_equal(u, ru) and np.array_equal(v, rv)
            assert np.array_equal(th, rth)
        for a, b in zip(last, ref[-1]):
            assert np.array_equal(a, b)
        assert np.array_equal(trace.energy, trace_from_trajectory(seen, grid16).energy)

    @pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
    def test_true_on_state_ends_the_run(self, grid16, mode):
        full = Recorder()
        self._run(mode, grid16, self.TG, on_state=full)
        traj = Recorder()
        last, trace = self._run(mode, grid16, self.TG, on_state=chain_hooks(
            traj, lambda k, t, u, v, th: k == 5))
        assert len(trace.t) == len(traj.t) == 6
        assert np.array_equal(traj.theta, full.theta[:6])
        assert np.array_equal(last[2], full.theta[5])

    def test_linear_levels_are_transformed_back_only_when_handed_out(self, grid16,
                                                                      monkeypatch):
        # a hookless run (each Hessian apply's) transforms only its last state
        # back; a hooked one each level it hands out, and returns the last
        calls = []
        from_modes = LinearPropagator.from_modes
        monkeypatch.setattr(LinearPropagator, "from_modes",
                            lambda self, *state: calls.append(1) or from_modes(self, *state))
        prop = LinearPropagator(grid16, self.TG, 0.5)
        y0, th0 = scaled_initial_data(grid16, 1e-3)
        last = prop.run(y0, th0)
        assert len(calls) == 1
        seen = Recorder()
        last_seen = prop.run(y0, th0, on_state=seen)
        assert len(calls) - 1 == len(seen.levels) == self.TG.nt + 1
        assert all(a is b for a, b in zip(last_seen, seen.levels[-1][1:]))
        assert all(np.array_equal(a, b) for a, b in zip(last, last_seen))
        calls.clear()
        prop.run(y0, th0, on_state=lambda k, t, u, v, th: k == 5)
        assert len(calls) == 6

    def test_forcing_stays_nonlinear_mode_only(self, grid16):
        with pytest.raises(DomainError):
            self._run("linearized", grid16, self.TG,
                      forcing=lambda k: (grid16.zeros_u(), grid16.zeros_v(),
                                         grid16.zeros_cells()))
