"""Control synthesis: objective/gradient contracts, linear and nonlinear
solves, support/decay invariants, the large-time pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from bousscontrol.control import (ControlTrajectory, OuterLoopSpec, PenaltySpec,
                                  _freezer, control_inner, gradient, large_time_control,
                                  objective, solve_linear_control,
                                  solve_nonlinear_control,
                                  weighted_control_energy, step_weight_logs)
from bousscontrol.diagnostics import NormSamples, weighted_norms
from bousscontrol.exceptions import DomainError, RegimeError
from bousscontrol.forward import (SystemSpec, chain_hooks, run_nonlinear,
                                  scaled_initial_data, sine_theta)
from bousscontrol.geometry import build_eta0, control_box, grid_box
from bousscontrol.grids import TimeGrid
from bousscontrol.operators import ViscosityLaw, state_norm_sq
from bousscontrol.weights import WeightParams, eval_weights, find_min_m

from conftest import Recorder, reference_frozen_sources, reference_norm_samples

# frozen after the duality and finite-difference gradient checks first passed
# (seeded controls, 16x16, nt=64, eps=1e-4, unweighted, nu0=0.1)
GOLDEN_J_SEED42 = 0.2679696792858006

NU0 = 0.1


def masked_random_controls(grid, nt, bumps, rng, scale=1.0):
    # drawn on the whole grid, read on the patch's box like the gradient
    masks = tuple(b > 0 for b in bumps)
    c = ControlTrajectory.zeros(grid, nt)
    c.vu[:] = scale * rng.standard_normal(c.vu.shape) * masks[0]
    c.vv[:] = scale * rng.standard_normal(c.vv.shape) * masks[1]
    c.v0[:] = scale * rng.standard_normal(c.v0.shape) * masks[2]
    return c.on(control_box(bumps))


@pytest.fixture
def setup16(grid16, tgrid64, bumps16):
    th0 = 0.1 * sine_theta(grid16, 1.0)
    y0 = (grid16.zeros_u(), grid16.zeros_v())
    return grid16, tgrid64, bumps16, y0, th0


@pytest.fixture
def tables16(grid16, tgrid64, patch):
    wp = WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0)
    return eval_weights(wp, build_eta0(grid16, patch), tgrid64)


class TestObjective:
    def test_all_zero_gives_zero(self, setup16):
        grid, tg, bumps, _, _ = setup16
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        zero = ControlTrajectory.zeros(grid, tg.nt)
        j = objective(zero, (grid.zeros_u(), grid.zeros_v()),
                      grid.zeros_cells(), None, None, pen, None, grid, tg,
                      NU0, bumps)
        assert j == 0.0

    def test_doubling_controls_quadruples_energy_term(self, setup16):
        grid, tg, bumps, _, _ = setup16
        pen = PenaltySpec(epsilon=1e30, weight_mode="unweighted")  # kill penalty
        rng = np.random.default_rng(1)
        c = masked_random_controls(grid, tg.nt, bumps, rng)
        zero_data = ((grid.zeros_u(), grid.zeros_v()), grid.zeros_cells())
        j1 = objective(c, *zero_data, None, None, pen, None, grid, tg, NU0, bumps)
        j2 = objective(c.scaled(2.0), *zero_data, None, None, pen, None, grid,
                       tg, NU0, bumps)
        assert j2 == pytest.approx(4.0 * j1, rel=1e-9)

    def test_golden_regression(self, setup16):
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        rng = np.random.default_rng(42)
        c = masked_random_controls(grid, tg.nt, bumps, rng, scale=0.25)
        j = objective(c, y0, th0, None, None, pen, None, grid, tg, NU0, bumps)
        assert j == pytest.approx(GOLDEN_J_SEED42, rel=1e-10)


class TestGradient:
    def test_zero_at_minimizer_of_zero_data(self, setup16):
        grid, tg, bumps, _, _ = setup16
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        zero = ControlTrajectory.zeros(grid, tg.nt)
        g = gradient(zero, (grid.zeros_u(), grid.zeros_v()),
                     grid.zeros_cells(), None, None, pen, None, grid, tg,
                     NU0, bumps)
        assert control_inner(g, g, grid, tg.dt) == 0.0

    def test_matches_central_differences(self, setup16):
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        rng = np.random.default_rng(3)
        base = masked_random_controls(grid, tg.nt, bumps, rng, scale=0.5)
        g = gradient(base, y0, th0, None, None, pen, None, grid, tg, NU0, bumps)
        h = 1e-5
        for _ in range(5):
            d = masked_random_controls(grid, tg.nt, bumps, rng)
            jp = objective(base.plus(d, h), y0, th0, None, None, pen, None,
                           grid, tg, NU0, bumps)
            jm = objective(base.plus(d, -h), y0, th0, None, None, pen, None,
                           grid, tg, NU0, bumps)
            an = control_inner(g, d, grid, tg.dt)
            assert abs(an - (jp - jm) / (2 * h)) <= 1e-5 * abs(an)

    def test_supported_in_omega(self, setup16):
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        zero = ControlTrajectory.zeros(grid, tg.nt)
        g = gradient(zero, y0, th0, None, None, pen, None, grid, tg, NU0,
                     bumps).full(grid)
        masks = tuple(b > 0 for b in bumps)
        assert np.all(g.vu[:, ~masks[0]] == 0.0)
        assert np.all(g.vv[:, ~masks[1]] == 0.0)
        assert np.all(g.v0[:, ~masks[2]] == 0.0)

    def test_carleman_gradient_fd_with_tame_weights(self, grid16, patch, bumps16):
        # pick s so the normalized weight range lands near 25 nats (the raw
        # log-span is affine in s), keeping the v-space formula finite-
        # difference checkable end to end with a genuine blow-up profile
        tg = TimeGrid(1.0, 32)
        t_clip = 1.0 - 2.0 / 32
        eta0 = build_eta0(grid16, patch)

        def span(s):
            tb = eval_weights(WeightParams(s=s, lam=0.1, m=43.0, eta_sup=1.0),
                              eta0, tg)
            raw = tb.raw("rho2")
            k = int(np.searchsorted(tb.t, t_clip, side="right")) - 1
            return float(raw[k] - raw[0])

        b = span(1e-300)
        a = span(1.0) - b
        s_star = (25.0 - b) / a
        wp = WeightParams(s=s_star, lam=0.1, m=43.0, eta_sup=1.0)
        tables = eval_weights(wp, eta0, tg)
        logw = step_weight_logs(PenaltySpec(weight_mode="carleman",
                                            t_clip=t_clip), tables, tg)
        assert 10.0 <= logw.max() <= 60.0, "parameters no longer tame; adjust s"
        pen = PenaltySpec(epsilon=1e-4, weight_mode="carleman", t_clip=t_clip)
        th0 = 0.1 * sine_theta(grid16, 1.0)
        y0 = (grid16.zeros_u(), grid16.zeros_v())
        rng = np.random.default_rng(7)
        base = masked_random_controls(grid16, tg.nt, bumps16, rng, scale=0.3)
        g = gradient(base, y0, th0, None, None, pen, tables, grid16, tg, NU0,
                     bumps16)
        d = masked_random_controls(grid16, tg.nt, bumps16, rng)
        h = 1e-6
        jp = objective(base.plus(d, h), y0, th0, None, None, pen, tables,
                       grid16, tg, NU0, bumps16)
        jm = objective(base.plus(d, -h), y0, th0, None, None, pen, tables,
                       grid16, tg, NU0, bumps16)
        an = control_inner(g, d, grid16, tg.dt)
        assert abs(an - (jp - jm) / (2 * h)) <= 1e-4 * abs(an)


class TestLinearControl:
    def test_zero_data_zero_control(self, grid16, tgrid64, bumps16):
        pen = PenaltySpec(epsilon=1e-6, weight_mode="unweighted")
        ctrl, rep = solve_linear_control(
            (grid16.zeros_u(), grid16.zeros_v()), grid16.zeros_cells(),
            None, None, pen, None, grid16, tgrid64, NU0, bumps16)
        assert control_inner(ctrl, ctrl, grid16, tgrid64.dt) == 0.0
        assert rep.terminal_norm == 0.0
        assert rep.cg_iters == 0

    def test_terminal_reduction_and_support(self, setup16, tables16):
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-6, weight_mode="carleman", cg_tol=1e-6)
        ctrl, rep = solve_linear_control(y0, th0, None, None, pen,
                                         tables16, grid, tg, 0.05, bumps)
        assert rep.terminal_norm <= 1e-2 * rep.uncontrolled_terminal_norm
        masks = tuple(b > 0 for b in bumps)
        full = ctrl.full(grid)
        assert np.all(full.vu[:, ~masks[0]] == 0.0)
        assert np.all(full.v0[:, ~masks[2]] == 0.0)
        # J sequence nonincreasing along CG
        assert all(b <= a + 1e-12 * abs(a)
                   for a, b in zip(rep.j_history, rep.j_history[1:]))

    def test_control_vanishes_toward_terminal_time(self, setup16, tables16):
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-6, weight_mode="carleman", cg_tol=1e-6)
        ctrl, rep = solve_linear_control(y0, th0, None, None, pen, tables16,
                                         grid, tg, 0.05, bumps)
        last = np.abs(ctrl.vu[-1]).max() + np.abs(ctrl.v0[-1]).max()
        mid = np.abs(ctrl.vu[tg.nt // 2]).max() + np.abs(ctrl.v0[tg.nt // 2]).max()
        assert last <= mid
        logw = step_weight_logs(pen, tables16, tg)
        assert np.isfinite(weighted_control_energy(ctrl, logw, grid, tg.dt))

    def test_epsilon_sweep_monotone(self, setup16, tables16):
        grid, tg, bumps, y0, th0 = setup16
        norms = []
        for eps in (1e-2, 1e-4, 1e-6):
            pen = PenaltySpec(epsilon=eps, weight_mode="carleman", cg_tol=1e-6)
            _, rep = solve_linear_control(y0, th0, None, None, pen,
                                          tables16, grid, tg, 0.05, bumps)
            norms.append(rep.terminal_norm)
        assert norms[1] <= norms[0] * 1.05
        assert norms[2] <= norms[1] * 1.05

    def test_weighted_energy_consistency_two_paths(self, setup16, tables16):
        # synthesis-side <z, z> against the diagnostics-side recomputation
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-4, weight_mode="carleman", cg_tol=1e-8)
        ctrl, rep = solve_linear_control(y0, th0, None, None, pen, tables16,
                                         grid, tg, 0.05, bumps)
        logw = step_weight_logs(pen, tables16, tg)
        recomputed = weighted_control_energy(ctrl, logw, grid, tg.dt)
        assert recomputed == pytest.approx(rep.control_energy_weighted, rel=1e-12)


class TestSharedSweepSolve:
    """The eps sweep rides on one multi-shift CG; every member must match a
    separate single-eps solve."""

    CG_TOL = 1e-8

    @pytest.fixture
    def case(self, grid16, bumps16, patch):
        tg = TimeGrid(1.0, 32)
        wp = WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0)
        tables = eval_weights(wp, build_eta0(grid16, patch), tg)
        y0 = (grid16.zeros_u(), grid16.zeros_v())
        return grid16, tg, bumps16, y0, 0.1 * sine_theta(grid16, 1.0), tables

    @pytest.mark.parametrize("main_eps, sweep", [
        (1e-6, (1e-2, 1e-4, 1e-6)),   # main is the seed and a sweep member
        (1e-4, (1e-6, 1e-2)),         # main is not the smallest
        (1e-3, (1e-2, 1e-5)),         # main is not in the sweep
    ])
    def test_members_match_separate_solves(self, case, main_eps, sweep):
        grid, tg, bumps, y0, th0, tables = case
        pen = PenaltySpec(epsilon=main_eps, weight_mode="carleman",
                          cg_tol=self.CG_TOL)
        _, rep = solve_linear_control(y0, th0, None, None, pen, tables,
                                      grid, tg, 0.05, bumps, eps_sweep=sweep)
        assert [m.eps for m in rep.sweep] == list(sweep)
        for member in [rep] + rep.sweep:
            _, alone = solve_linear_control(
                y0, th0, None, None, replace(pen, epsilon=member.eps), tables,
                grid, tg, 0.05, bumps)
            assert member.cg_iters == alone.cg_iters
            assert member.terminal_norm == pytest.approx(
                alone.terminal_norm, rel=1e3 * self.CG_TOL)
            assert member.control_energy_weighted == pytest.approx(
                alone.control_energy_weighted, rel=1e3 * self.CG_TOL)
            assert member.uncontrolled_terminal_norm == alone.uncontrolled_terminal_norm
            if member.eps == min(sweep + (main_eps,)) == main_eps:
                # the seed's arithmetic is that of plain CG
                assert member.terminal_norm == alone.terminal_norm

    def test_sweep_counts(self, case):
        grid, tg, bumps, y0, th0, tables = case
        pen = PenaltySpec(epsilon=1e-6, weight_mode="carleman", cg_tol=1e-6)
        _, rep = solve_linear_control(y0, th0, None, None, pen, tables,
                                      grid, tg, 0.05, bumps,
                                      eps_sweep=(1e-2, 1e-4, 1e-6))
        # rhs + one per CG iteration; forward adds the final controlled run and
        # one terminal run per member other than the main eps
        assert rep.adjoint_sweeps == rep.cg_iters + 1
        assert rep.forward_sweeps == rep.cg_iters + 1 + 1 + 2
        for member in rep.sweep:
            assert (member.forward_sweeps, member.adjoint_sweeps) == (
                rep.forward_sweeps, rep.adjoint_sweeps)
        assert f"forward_sweeps = {rep.forward_sweeps}" in rep.lines()
        assert f"adjoint_sweeps = {rep.adjoint_sweeps}" in rep.lines()

    def test_warm_start_with_sweep_rejected(self, case):
        grid, tg, bumps, y0, th0, tables = case
        pen = PenaltySpec(epsilon=1e-4, weight_mode="carleman")
        with pytest.raises(DomainError, match="warm start"):
            solve_linear_control(y0, th0, None, None, pen, tables, grid, tg,
                                 0.05, bumps, z0=ControlTrajectory.zeros(grid, tg.nt),
                                 eps_sweep=(1e-2,))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_member_rejected(self, case, bad):
        grid, tg, bumps, y0, th0, tables = case
        pen = PenaltySpec(epsilon=1e-4, weight_mode="carleman")
        with pytest.raises(DomainError):
            solve_linear_control(y0, th0, None, None, pen, tables, grid, tg,
                                 0.05, bumps, eps_sweep=(1e-2, bad))


class TestNonlinearControl:
    def test_zero_data_one_iteration(self, grid16, tgrid64, bumps16, tables16):
        spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1))
        pen = PenaltySpec(epsilon=1e-6, weight_mode="carleman")
        outer = OuterLoopSpec()
        ctrl, _, rep = solve_nonlinear_control(
            (grid16.zeros_u(), grid16.zeros_v()), grid16.zeros_cells(), spec,
            pen, outer, tables16, grid16, tgrid64, bumps16)
        assert rep.outer_iters == 1
        assert rep.converged
        assert control_inner(ctrl, ctrl, grid16, tgrid64.dt) == 0.0

    def test_small_data_converges_with_monotone_updates(self, grid16, tgrid64,
                                                        bumps16, tables16):
        # genuinely iterating configuration (small nu0 keeps control active)
        spec = SystemSpec(law=ViscosityLaw("l2", 0.05, 0.05), heating_on=True,
                          phi_smallness_factor=1e2)
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
        outer = OuterLoopSpec(max_outer=25, outer_tol=1e-6)
        ctrl, _, rep = solve_nonlinear_control(y0, th0, spec, pen, outer,
                                               tables16, grid16, tgrid64,
                                               bumps16)
        assert rep.converged
        assert 2 <= rep.outer_iters <= 20
        ups = rep.update_history
        assert all(b <= a for a, b in zip(ups[1:], ups[2:]))
        assert rep.terminal_norm < rep.uncontrolled_terminal_norm

    def test_resimulation_is_independent(self, grid16, tgrid64, bumps16, tables16):
        spec = SystemSpec(law=ViscosityLaw("l2", 0.05, 0.05), heating_on=True,
                          phi_smallness_factor=1e2)
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
        ctrl, _, rep = solve_nonlinear_control(y0, th0, spec, pen,
                                               OuterLoopSpec(outer_tol=1e-6),
                                               tables16, grid16, tgrid64,
                                               bumps16)
        resim, _ = run_nonlinear(y0, th0, ctrl, spec, grid16, tgrid64,
                                 bumps=bumps16)
        assert np.sqrt(state_norm_sq(*resim, grid16)) == pytest.approx(
            rep.terminal_norm, rel=1e-12)

    def test_pure_convection_converges_in_fewer_iterations(self, grid16,
                                                           tgrid64, bumps16,
                                                           tables16):
        # nu1 = 0 and heating off: only convection remains; the quadratically
        # small correction converges at least as fast as the full system
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
        outer = OuterLoopSpec(max_outer=25, outer_tol=1e-6)
        spec_conv = SystemSpec(law=ViscosityLaw("l2", 0.05, 0.0),
                               heating_on=False, phi_smallness_factor=1e2)
        spec_full = SystemSpec(law=ViscosityLaw("l2", 0.05, 0.05),
                               heating_on=True, phi_smallness_factor=1e2)
        _, _, rep_conv = solve_nonlinear_control(y0, th0, spec_conv, pen,
                                              outer, tables16, grid16,
                                              tgrid64, bumps16)
        _, _, rep_full = solve_nonlinear_control(y0, th0, spec_full, pen,
                                              outer, tables16, grid16,
                                              tgrid64, bumps16)
        assert rep_conv.outer_iters <= rep_full.outer_iters


class TestLargeTime:
    def _spec(self):
        return SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1), heating_on=True)

    def test_data_already_below_delta(self, grid16, bumps16, patch):
        spec = self._spec()
        y0, th0 = scaled_initial_data(grid16, 1e-6)
        tail = TimeGrid(0.5, 32)
        wp = WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0)

        def wfn(tg):
            return eval_weights(wp, build_eta0(grid16, patch), tg)

        pen = PenaltySpec(epsilon=1e-6, weight_mode="carleman",
                          t_clip=0.5 - 2 * 0.5 / 32)
        trace, rep = large_time_control(
            y0, th0, 1e-4, spec, pen, OuterLoopSpec(), wfn(tail), grid16,
            TimeGrid(1.0, 64), tail, bumps16)
        assert rep.phase1_steps == 0
        assert rep.crossing_time == 0.0
        assert len(trace.t) == tail.nt + 1

    def test_crossing_matches_prediction(self, grid16, bumps16, patch):
        spec = self._spec()
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        wp = WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0)

        def wfn(tg):
            return eval_weights(wp, build_eta0(grid16, patch), tg)

        tail = TimeGrid(0.5, 32)
        pen = PenaltySpec(epsilon=1e-6, weight_mode="carleman",
                          t_clip=0.5 - 2 * 0.5 / 32)
        _, rep = large_time_control(
            y0, th0, 1e-4, spec, pen, OuterLoopSpec(), wfn(tail), grid16,
            TimeGrid(0.5, 128), tail, bumps16)
        assert rep.t_star_predicted > 0.0
        ratio = rep.crossing_time / rep.t_star_predicted
        assert 0.5 <= ratio <= 2.0
        assert rep.final_norm <= 1e-3 * rep.delta

    def test_phase1_stops_at_the_crossing(self, grid16, bumps16):
        spec = self._spec()
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        phase1, tail = TimeGrid(0.5, 128), TimeGrid(0.5, 32)
        seen = []
        trace, rep = large_time_control(
            y0, th0, 1e-4, spec, PenaltySpec(weight_mode="unweighted"),
            OuterLoopSpec(), None, grid16, phase1, tail, bumps16,
            on_state=lambda k, t, u, v, th: seen.append((k, t)))
        assert 0 < rep.phase1_steps < phase1.nt
        # the composed run: phase 1 up to the crossing, then the tail after it
        n1 = rep.phase1_steps
        assert [k for k, _ in seen[:n1 + 1]] == list(range(n1 + 1))
        assert [k for k, _ in seen] == list(range(n1 + tail.nt + 1))
        assert np.array_equal([t for _, t in seen], trace.t)
        assert len(trace.t) == rep.phase1_steps + tail.nt + 1
        assert trace.energy[rep.phase1_steps] <= 1e-4 < trace.energy[rep.phase1_steps - 1]

    def test_never_crossing_raises_regime_error(self, grid16, bumps16, patch):
        spec = self._spec()
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        with pytest.raises(RegimeError):
            large_time_control(y0, th0, 1e-30, spec,
                               PenaltySpec(weight_mode="unweighted"),
                               OuterLoopSpec(), None, grid16,
                               TimeGrid(0.2, 16), TimeGrid(0.5, 32), bumps16)


def test_cg_stagnation_raises_with_history(grid16, tgrid64, bumps16):
    from bousscontrol.exceptions import ConvergenceError
    th0 = 0.1 * sine_theta(grid16, 1.0)
    y0 = (grid16.zeros_u(), grid16.zeros_v())
    pen = PenaltySpec(epsilon=1e-8, weight_mode="unweighted", cg_tol=1e-12,
                      cg_max_iters=2)
    with pytest.raises(ConvergenceError) as err:
        solve_linear_control(y0, th0, None, None, pen, None, grid16, tgrid64,
                             0.05, bumps16)
    assert err.value.history is not None


def test_nonlinear_control_lp_variant(grid16, tgrid64, bumps16, tables16):
    # the L^p system: nubar(grad theta) diffuses the temperature; the same
    # outer loop applies with the p-law frozen into the sources
    spec = SystemSpec(law=ViscosityLaw("lp", 0.05, 0.05, p=4.0),
                      law_theta=ViscosityLaw("lp", 0.05, 0.05, p=4.0),
                      theta_coeff_source="temperature", heating_on=True,
                      phi_smallness_factor=1e2)
    y0, th0 = scaled_initial_data(grid16, 1e-2)
    pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
    ctrl, _, rep = solve_nonlinear_control(
        y0, th0, spec, pen, OuterLoopSpec(max_outer=25, outer_tol=1e-6),
        tables16, grid16, tgrid64, bumps16)
    assert rep.converged
    assert rep.terminal_norm < rep.uncontrolled_terminal_norm


def test_gradient_finite_with_saturated_weights(grid16, tgrid64, bumps16,
                                                tables16):
    # admissible controls vanish where w_inv = e^{-log w} is 0 (w^2 = +inf);
    # there the gradient must not form inf * 0
    pen = PenaltySpec(epsilon=1e-4, weight_mode="carleman")
    th0 = 0.1 * sine_theta(grid16, 1.0)
    y0 = (grid16.zeros_u(), grid16.zeros_v())
    rng = np.random.default_rng(12)
    c = masked_random_controls(grid16, tgrid64.nt, bumps16, rng, scale=1e-3)
    w_inv = np.exp(-step_weight_logs(pen, tables16, tgrid64))
    assert (w_inv == 0.0).any() and (w_inv > 0.0).any()
    for a in (c.vu, c.vv, c.v0):
        a[w_inv == 0.0] = 0.0
    args = (y0, th0, None, None, pen, tables16, grid16, tgrid64, 0.1, bumps16)
    g = gradient(c, *args)
    assert np.all(np.isfinite(g.vu)) and np.all(np.isfinite(g.v0))
    assert np.isfinite(objective(c, *args))
    # a control that acts where the weight is infinite costs +inf
    c.v0[-1] = masked_random_controls(grid16, tgrid64.nt, bumps16, rng).v0[-1]
    assert objective(c, *args) == np.inf


def test_cg_optimum_matches_dense_solve():
    # independent optimality oracle: assemble the reduced Hessian densely by
    # applying it to unit vectors and solve the linear system directly; the
    # CG minimizer must agree on the masked control DOFs
    from bousscontrol.control import LinearControlProblem, step_weight_logs
    from bousscontrol.geometry import ControlPatch, bump_on_solver_grids
    from bousscontrol.grids import GridSpec

    grid = GridSpec(8, 8)
    tg = TimeGrid(1.0, 16)
    patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
    bumps = bump_on_solver_grids(grid, patch)
    masks = tuple(b > 0 for b in bumps)
    th0 = 0.1 * sine_theta(grid, 1.0)
    y0 = (grid.zeros_u(), grid.zeros_v())
    pen = PenaltySpec(epsilon=1e-3, weight_mode="unweighted", cg_tol=1e-12,
                      cg_max_iters=2000)
    logw = step_weight_logs(pen, None, tg)
    prob = LinearControlProblem(y0, th0, None, None, pen, logw, grid, tg,
                                0.1, bumps)

    def pack(c):
        c = c.full(grid)
        return np.concatenate([c.vu[:, masks[0]].ravel(),
                               c.vv[:, masks[1]].ravel(),
                               c.v0[:, masks[2]].ravel()])

    def unpack(x):
        c = ControlTrajectory.zeros(grid, tg.nt)
        n1 = tg.nt * int(masks[0].sum())
        n2 = tg.nt * int(masks[1].sum())
        c.vu[:, masks[0]] = x[:n1].reshape(tg.nt, -1)
        c.vv[:, masks[1]] = x[n1:n1 + n2].reshape(tg.nt, -1)
        c.v0[:, masks[2]] = x[n1 + n2:].reshape(tg.nt, -1)
        return c

    b, _ = prob.rhs()
    b_vec = pack(b)
    ndof = b_vec.size
    H = np.empty((ndof, ndof))
    for j in range(ndof):
        e = np.zeros(ndof)
        e[j] = 1.0
        H[:, j] = pack(prob.hessian_apply(unpack(e)))
    assert np.abs(H - H.T).max() < 1e-10 * np.abs(H).max()
    z_dense = np.linalg.solve(H, b_vec)

    z_cg, controls, iters, j_hist, _ = prob.solve()
    diff = np.abs(pack(z_cg) - z_dense).max()
    assert diff < 1e-8 * max(np.abs(z_dense).max(), 1.0)


class TestControlLayout:
    """Controls, CG vectors and adjoint stages are stored on the patch's
    bounding box; full-grid fields appear only where they are needed."""

    def test_box_is_the_support_of_the_bumps(self, grid16, bumps16):
        for bump, b in zip(bumps16, control_box(bumps16)):
            inside = np.zeros(bump.shape, dtype=bool)
            inside[b] = True
            assert not np.any(bump[~inside] > 0.0)
            assert np.all(bump[b] > 0.0)

    def test_full_puts_box_values_in_place_and_zeros_elsewhere(self, grid16, bumps16):
        box = control_box(bumps16)
        rng = np.random.default_rng(5)
        c = ControlTrajectory.zeros(grid16, 8, box)
        for part in c.parts:
            part[:] = rng.standard_normal(part.shape)
        full = c.full(grid16)
        assert full.box == grid_box(grid16)
        assert full.vu.shape == (8, grid16.nx + 1, grid16.ny)
        assert full.vv.shape == (8, grid16.nx, grid16.ny + 1)
        assert full.v0.shape == (8, grid16.nx, grid16.ny)
        for whole, part, b in zip(full.parts, c.parts, box):
            assert np.array_equal(whole[(slice(None),) + b], part)
            outside = whole.copy()
            outside[(slice(None),) + b] = 0.0
            assert not outside.any()
        back = full.on(box)
        assert all(np.array_equal(a, b) for a, b in zip(back.parts, c.parts))

    @pytest.mark.parametrize("where", ["patch", "whole-grid"])
    def test_controlled_run_matches_full_grid_layout(self, grid16, tgrid64, bumps16,
                                                     where):
        from bousscontrol.forward import LinearPropagator
        from conftest import full_grid_controlled_run, rand_cells, rand_div_free
        rng = np.random.default_rng(6)
        prop = LinearPropagator(grid16, tgrid64, NU0, bumps=bumps16)
        if where == "patch":
            c = masked_random_controls(grid16, tgrid64.nt, bumps16, rng)
        else:
            c = ControlTrajectory.zeros(grid16, tgrid64.nt)
            for part in c.parts:
                part[:] = rng.standard_normal(part.shape)
        y0, th0 = rand_div_free(grid16, rng), rand_cells(grid16, rng)
        got = prop.run(y0, th0, controls=c)
        ref = full_grid_controlled_run(prop, y0, th0, c)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_hessian_apply_allocates_no_full_grid_control(self):
        import tracemalloc
        from bousscontrol.control import LinearControlProblem
        from bousscontrol.geometry import ControlPatch, bump_on_solver_grids
        from bousscontrol.grids import GridSpec
        grid, tg = GridSpec(32, 32), TimeGrid(1.0, 64)
        bumps = bump_on_solver_grids(grid, ControlPatch((0.5, 0.5), (0.2, 0.2)))
        pen = PenaltySpec(epsilon=1e-6, weight_mode="unweighted")
        prob = LinearControlProblem((grid.zeros_u(), grid.zeros_v()),
                                    0.1 * sine_theta(grid), None, None, pen,
                                    np.zeros(tg.nt), grid, tg, 0.05, bumps)
        z = masked_random_controls(grid, tg.nt, bumps, np.random.default_rng(7))
        prob.hessian_apply(z)   # warm-up: solver tables are built once
        one_full_control = tg.nt * (grid.nx + 1) * grid.ny * 8
        tracemalloc.start()
        try:
            prob.hessian_apply(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_full_control


class TestStreamedReadersMatchReferences:
    """The weighted-norm samples and the outer loop's frozen sources, streamed
    through ``on_state``, equal the stored-trajectory loops they replace
    (``conftest.reference_*``) bit for bit."""

    @pytest.fixture(params=["linear-controlled", "nonlinear"])
    def run(self, request, setup16, tables16):
        grid, tg, bumps, y0, th0 = setup16
        spec = SystemSpec(law=ViscosityLaw("l2", 0.05, 0.05), heating_on=True,
                          phi_smallness_factor=1e2)
        rec, samples = Recorder(), NormSamples(grid, tg)
        frozen: list = []
        hooks = chain_hooks(rec, samples, _freezer(frozen, spec, grid, tg.nt))
        if request.param == "linear-controlled":
            pen = PenaltySpec(epsilon=1e-6, weight_mode="carleman", cg_tol=1e-6)
            ctrl, _ = solve_linear_control(y0, th0, None, None, pen, tables16,
                                           grid, tg, 0.05, bumps, on_state=hooks)
        else:
            y0, th0 = scaled_initial_data(grid, 1e-2)
            ctrl = masked_random_controls(grid, tg.nt, bumps,
                                          np.random.default_rng(3), scale=1e-2)
            run_nonlinear(y0, th0, ctrl, spec, grid, tg, bumps=bumps, on_state=hooks)
        assert len(rec.levels) == tg.nt + 1
        return grid, tg, spec, rec, samples, frozen, ctrl

    def test_norm_samples_match_reference(self, run, tables16):
        grid, tg, _, rec, samples, _, ctrl = run
        ref = reference_norm_samples(rec, grid, tg)
        for name, want in vars(ref).items():
            assert np.array_equal(getattr(samples, name), want), name
        assert (weighted_norms(samples, ctrl, tables16, grid, tg).lines()
                == weighted_norms(ref, ctrl, tables16, grid, tg).lines())

    def test_frozen_sources_match_reference(self, run):
        grid, tg, spec, rec, _, frozen, _ = run
        (f1u, f1v), f2 = reference_frozen_sources(rec, spec, grid, tg.nt)
        for got, want in zip(frozen, (f1u, f1v, f2)):
            assert np.array_equal(got, want)
