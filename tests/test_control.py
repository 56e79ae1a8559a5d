"""Control synthesis: objective/gradient contracts, linear and nonlinear
solves, support/decay invariants, the large-time pipeline."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from bousscontrol import control, forward
from bousscontrol.control import (ControlTrajectory, LinearControlProblem,
                                  OuterLoopSpec, PenaltySpec, _freezer,
                                  control_inner, control_norm, gradient,
                                  large_time_control, objective, solve_linear_control,
                                  solve_nonlinear_control,
                                  weighted_control_energy, step_weight_logs)
from bousscontrol.diagnostics import _SAMPLES as SAMPLE_NAMES, NormSamples, weighted_norms
from bousscontrol.exceptions import ConvergenceError, DomainError, RegimeError
from bousscontrol.forward import (LinearPropagator, SystemSpec, block_levels, chain_hooks,
                                  run_nonlinear, scaled_initial_data, sine_theta)
from bousscontrol.geometry import (ControlPatch, bump_on_solver_grids, build_eta0,
                                   control_box, grid_box)
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.operators import FOLD_MIN, ModalBasis, ViscosityLaw, state_norm_sq
from bousscontrol.runner import _synthesis_section
from bousscontrol.weights import WeightParams, eval_weights, find_min_m

from conftest import (PhysicalLinear, Recorder, max_rel_diff, rand_cells, rand_div_free,
                      rand_u, rand_v, reference_frozen_sources, reference_norm_samples)

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

    def test_gradient_fd_on_a_folded_axis(self):
        """Gradient against central differences on 128 x 16, nt = 16: a
        patch wide enough that the box transforms along the 128-point axis
        fold (``operators.FOLD_MIN``)."""
        grid, tg = GridSpec(128, 16, ly=0.25), TimeGrid(0.25, 16)
        bumps = bump_on_solver_grids(grid, ControlPatch((0.5, 0.125), (0.45, 0.1)))
        rows = control_box(bumps)[2][0]   # the cells' box along x: centred and long
        assert rows.start + rows.stop == grid.nx and rows.stop - rows.start >= FOLD_MIN
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        th0 = 0.1 * sine_theta(grid, 1.0)
        y0 = (grid.zeros_u(), grid.zeros_v())
        rng = np.random.default_rng(8)
        base = masked_random_controls(grid, tg.nt, bumps, rng, scale=0.3)
        g = gradient(base, y0, th0, None, None, pen, None, grid, tg, NU0, bumps)
        h, worst = 1e-5, 0.0
        for _ in range(3):
            d = masked_random_controls(grid, tg.nt, bumps, rng)
            jp, jm = (objective(base.plus(d, s), y0, th0, None, None, pen, None, grid, tg,
                                NU0, bumps) for s in (h, -h))
            an = control_inner(g, d, grid, tg.dt)
            worst = max(worst, abs(an - (jp - jm) / (2 * h)) / abs(an))
        assert worst <= 1e-5

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
        # rhs + one per CG iteration; forward adds the final controlled run,
        # and the members take their terminal states from the CG's own runs
        assert rep.adjoint_sweeps == rep.cg_iters + 1
        assert rep.forward_sweeps == rep.cg_iters + 2
        for member in rep.sweep:
            assert (member.forward_sweeps, member.adjoint_sweeps) == (
                rep.forward_sweeps, rep.adjoint_sweeps)
        section = _synthesis_section(rep)
        assert (section["forward_sweeps"], section["adjoint_sweeps"]) == (
            rep.forward_sweeps, rep.adjoint_sweeps)

    @pytest.mark.parametrize("main_eps", [1e-6, 1e-4], ids=["main-is-seed",
                                                           "seed-not-main"])
    def test_member_terminal_norms_match_fresh_runs(self, case, main_eps,
                                                     monkeypatch):
        # each member's terminal norm, built from the Hessian applies' T(p),
        # equals a forward run of its own controls
        grid, tg, bumps, y0, th0, tables = case
        freeze = LinearControlProblem._freeze
        seen = []

        def spy(prob, m):
            z = m.z
            freeze(prob, m)
            if m.eps != prob.pen.epsilon:
                seen.append((m.eps, m.terminal_norm,
                             prob.terminal_norm(prob.controls_from_z(z))))

        monkeypatch.setattr(LinearControlProblem, "_freeze", spy)
        pen = PenaltySpec(epsilon=main_eps, weight_mode="carleman", cg_tol=1e-8)
        solve_linear_control(y0, th0, None, None, pen, tables, grid, tg, 0.05,
                             bumps, eps_sweep=(1e-2, 1e-4, 1e-6))
        assert sorted(eps for eps, _, _ in seen) == sorted(
            {1e-2, 1e-4, 1e-6} - {main_eps})
        for _, got, fresh in seen:
            assert abs(got - fresh) <= 1e-12 * fresh

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_member_rejected(self, case, bad):
        grid, tg, bumps, y0, th0, tables = case
        pen = PenaltySpec(epsilon=1e-4, weight_mode="carleman")
        with pytest.raises(DomainError):
            solve_linear_control(y0, th0, None, None, pen, tables, grid, tg,
                                 0.05, bumps, eps_sweep=(1e-2, bad))



@pytest.mark.parametrize("build", [
    lambda bad: PenaltySpec(cg_tol=bad),
    lambda bad: PenaltySpec(t_clip=bad),
    lambda bad: OuterLoopSpec(outer_tol=bad),
], ids=["cg_tol", "t_clip", "outer_tol"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tolerance_rejected(build, bad):
    # cg_tol = inf stops CG after one iteration and still reports converged
    with pytest.raises(DomainError):
        build(bad)


class TestNonlinearControl:
    def test_zero_data_one_iteration(self, grid16, tgrid64, bumps16, tables16):
        spec = SystemSpec(law=ViscosityLaw(1.0, 0.1))
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
        spec = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)
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
        spec = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)
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
        spec_conv = SystemSpec(law=ViscosityLaw(0.05, 0.0), heating_on=False)
        spec_full = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)
        _, _, rep_conv = solve_nonlinear_control(y0, th0, spec_conv, pen,
                                              outer, tables16, grid16,
                                              tgrid64, bumps16)
        _, _, rep_full = solve_nonlinear_control(y0, th0, spec_full, pen,
                                              outer, tables16, grid16,
                                              tgrid64, bumps16)
        assert rep_conv.outer_iters <= rep_full.outer_iters


class TestOuterLoopContinuation:
    """Every outer pass re-solves one linear problem: rhs plus CG, warm from
    the kept H z, and one more forward run that freezes the next sources on
    every pass but the last."""

    @pytest.fixture(scope="class")
    def runs(self):
        grid, tg = GridSpec(16, 16), TimeGrid(1.0, 64)
        patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
        wp = WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0)
        tables = eval_weights(wp, build_eta0(grid, patch), tg)
        spec = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)
        y0, th0 = scaled_initial_data(grid, 1e-2)
        pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
        out = {}
        for max_outer in (25, 3):
            outer = OuterLoopSpec(max_outer=max_outer, outer_tol=1e-6)
            out[max_outer] = solve_nonlinear_control(
                y0, th0, spec, pen, outer, tables, grid, tg,
                bump_on_solver_grids(grid, patch))[2]
        return out

    @pytest.mark.parametrize("max_outer, converged", [(25, True), (3, False)],
                             ids=["converged", "stopped-by-outer-max"])
    def test_sweep_counts(self, runs, max_outer, converged):
        rep = runs[max_outer]
        assert rep.converged is converged
        assert rep.outer_iters >= 3
        assert rep.forward_sweeps == rep.cg_iters + 2 * rep.outer_iters - 1
        assert rep.adjoint_sweeps == rep.cg_iters + rep.outer_iters

    def test_warm_objective_needs_no_forward_run(self, grid16, tgrid64, bumps16,
                                                 tables16):
        spec = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
        prob = LinearControlProblem(y0, th0, None, None, pen,
                                    step_weight_logs(pen, tables16, tgrid64),
                                    grid16, tgrid64, 0.05, bumps16, recycle=True)
        z, controls, _, _, _ = prob.solve()
        z = z.copy()
        frozen: list = []
        prob._terminal_of(controls, True, _freezer(frozen, spec, prob.prop.modes, tgrid64))
        prob.sources = tuple(frozen)
        space = copy.deepcopy(prob.space)   # the W this solve deflates with
        assert len(space) > 0
        sweeps = prob.forward_sweeps, prob.adjoint_sweeps
        _, _, iters, j_history, _ = prob.solve()
        # rhs and one Hessian apply per CG iteration, nothing else
        assert (prob.forward_sweeps - sweeps[0], prob.adjoint_sweeps - sweeps[1]) == (
            iters + 1, iters + 1)
        # J is first taken at the Galerkin projection z + W <W, b - H z>
        b, _ = prob.rhs()
        r = b.plus(prob.hessian_apply(z), -1.0)
        for w in space_pairs(space)[0]:
            z.axpy(control_inner(w, r, grid16, tgrid64.dt), w)
        tn = prob.terminal_norm(prob.controls_from_z(z))
        direct = (0.5 * control_inner(z, z, grid16, tgrid64.dt)
                  + 0.5 * tn ** 2 / pen.epsilon)
        assert j_history[0] == pytest.approx(direct, rel=1e-10)
        assert j_history[0] != j_history[-1]


def space_pairs(space):
    """The kept pairs of a ``RecycleSpace`` as lists of ControlTrajectory
    views (W, H W)."""
    return ([space._split(row) for row in space.w[:len(space)]],
            [space._split(row) for row in space.hw[:len(space)]])


def slow_case(n=16, nt=64):
    """The slow outer regime: T = 0.5, nu0 = 0.05, nu1 = 0.1, heating,
    E(0) = 0.1 and eps = cg_tol = 1e-6, Carleman weights."""
    grid, tg = GridSpec(n, n), TimeGrid(0.5, nt)
    patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
    wp = WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0)
    tables = eval_weights(wp, build_eta0(grid, patch), tg)
    spec = SystemSpec(law=ViscosityLaw(0.05, 0.1), heating_on=True)
    y0, th0 = scaled_initial_data(grid, 0.1)
    pen = PenaltySpec(epsilon=1e-6, weight_mode="carleman", cg_tol=1e-6)
    return (y0, th0, spec, pen), (tables, grid, tg, bump_on_solver_grids(grid, patch))


class TestRecycling:
    """A re-solved problem deflates every warm solve with at most RECYCLE_K
    H-orthonormal CG directions of its earlier solves."""

    @pytest.fixture(scope="class")
    def slow(self):
        data, disc = slow_case()
        runs = {}
        for k in (control.RECYCLE_K, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(control, "RECYCLE_K", k)
                runs[k] = solve_nonlinear_control(*data, OuterLoopSpec(max_outer=4),
                                                  *disc)[2]
        return runs

    def test_same_answer_with_no_more_cg(self, grid16, tgrid64, bumps16, tables16,
                                         monkeypatch):
        spec = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
        args = (y0, th0, spec, pen, OuterLoopSpec(max_outer=25, outer_tol=1e-6),
                tables16, grid16, tgrid64, bumps16)
        rep = solve_nonlinear_control(*args)[2]
        monkeypatch.setattr(control, "RECYCLE_K", 0)
        plain = solve_nonlinear_control(*args)[2]
        assert rep.converged and plain.converged
        assert rep.terminal_norm == pytest.approx(plain.terminal_norm,
                                                  rel=1e3 * pen.cg_tol)
        assert rep.cg_iters <= plain.cg_iters
        assert plain.recycled_vectors_per_pass == [0] * plain.outer_iters
        assert rep.recycled_vectors_per_pass[0] == 0
        assert rep.recycled_vectors_per_pass[1] == rep.cg_iters_per_pass[0]
        assert sum(rep.cg_iters_per_pass) == rep.cg_iters

    def test_space_is_capped_and_h_orthonormal(self):
        (y0, th0, _, pen), (tables, grid, tg, bumps) = slow_case()
        prob = LinearControlProblem(y0, th0, None, None, pen,
                                    step_weight_logs(pen, tables, tg), grid, tg,
                                    0.05, bumps, recycle=True)
        iters = prob.solve()[2]
        assert iters > control.RECYCLE_K
        assert len(prob.space) <= control.RECYCLE_K
        w, hw = space_pairs(prob.space)
        gram = np.array([[control_inner(a, b, grid, tg.dt) for b in hw] for a in w])
        assert np.abs(gram - np.eye(len(w))).max() <= 1e-8
        # the stored products are H applied to the stored directions
        for a, ha in zip(w[:3], hw[:3]):
            diff = prob.hessian_apply(a).plus(ha, -1.0)
            assert control_norm(diff, grid, tg.dt) <= 1e-8 * control_norm(ha, grid, tg.dt)

    def test_eps_sweep_and_single_solves_hold_no_space(self, setup16):
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        logw = step_weight_logs(pen, None, tg)
        sweep = LinearControlProblem(y0, th0, None, None, pen, logw, grid, tg, NU0,
                                     bumps, eps_sweep=(1e-2, 1e-4))
        sweep.solve()
        assert sweep.space is None
        single = LinearControlProblem(y0, th0, None, None, pen, logw, grid, tg, NU0,
                                      bumps)
        assert single.space is None
        with pytest.raises(DomainError):
            LinearControlProblem(y0, th0, None, None, pen, logw, grid, tg, NU0, bumps,
                                 eps_sweep=(1e-2,), recycle=True)

    def test_slow_regime_needs_no_more_cg(self, slow):
        # 16^2 copy of the slow outer regime: 4 unconverged passes
        rep, plain = slow[control.RECYCLE_K], slow[0]
        assert rep.outer_iters == plain.outer_iters == 4
        assert not rep.converged and not plain.converged
        assert rep.cg_iters <= plain.cg_iters
        np.testing.assert_allclose(rep.update_history, plain.update_history, rtol=1e-3)

    def test_slow_regime_sweep_counts(self, slow):
        for rep in slow.values():
            assert rep.forward_sweeps == rep.cg_iters + 2 * rep.outer_iters - 1
            assert rep.adjoint_sweeps == rep.cg_iters + rep.outer_iters


class TestLiveSteps:
    """Steps whose controls are all 0 inject nothing, and the Hessian's
    adjoint reads zeta back only where w^-1 > 0: both leave every result the
    same bit for bit."""

    @staticmethod
    def block_controls(grid, tg, bumps, scale=1.0):
        ctrl = masked_random_controls(grid, tg.nt, bumps, np.random.default_rng(11),
                                      scale)
        for part in ctrl.parts:
            part[10:40] = 0.0
        return ctrl

    @staticmethod
    def levels(run):
        rec = Recorder()
        run(rec)
        return rec.levels

    def assert_same_as_injecting_every_step(self, run, monkeypatch):
        from bousscontrol import forward
        got = self.levels(run)
        monkeypatch.setattr(forward, "live_steps",
                            lambda c: np.ones(c.vu.shape[0], dtype=bool))
        want = self.levels(run)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_live_steps(self, grid16, tgrid64, bumps16):
        from bousscontrol.forward import live_steps
        ctrl = self.block_controls(grid16, tgrid64, bumps16)
        ctrl.v0[50, 3, 3] = np.nan
        live = live_steps(ctrl)
        assert not live[10:40].any() and live[:10].all() and live[40:].all()

    def test_linear_run(self, setup16, monkeypatch):
        from bousscontrol.forward import LinearPropagator
        grid, tg, bumps, y0, th0 = setup16
        prop = LinearPropagator(grid, tg, NU0, bumps=bumps)
        ctrl = self.block_controls(grid, tg, bumps)
        self.assert_same_as_injecting_every_step(
            lambda hook: prop.run(y0, th0, controls=ctrl, on_state=hook), monkeypatch)

    def test_nonlinear_run(self, grid16, tgrid64, bumps16, monkeypatch):
        spec = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        ctrl = self.block_controls(grid16, tgrid64, bumps16, scale=1e-2)
        self.assert_same_as_injecting_every_step(
            lambda hook: run_nonlinear(y0, th0, ctrl, spec, grid16, tgrid64,
                                       bumps=bumps16, on_state=hook), monkeypatch)

    def test_hessian_apply_matches_reading_every_step(self, setup16, tables16,
                                                      monkeypatch):
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-6, weight_mode="carleman")
        prob = LinearControlProblem(y0, th0, None, None, pen,
                                    step_weight_logs(pen, tables16, tg), grid, tg,
                                    NU0, bumps)
        assert 0 < prob.live.sum() < tg.nt
        z = masked_random_controls(grid, tg.nt, bumps, np.random.default_rng(12))
        got = prob.hessian_apply(z)
        exact = control.run_adjoint
        monkeypatch.setattr(control, "run_adjoint",
                            lambda *args, read=None, **kw: exact(*args, **kw))
        want = prob.hessian_apply(z)
        assert all(np.array_equal(a, b) for a, b in zip(got.parts, want.parts))

    def test_nan_terminal_data_reaches_the_read_steps(self, setup16, tables16):
        # the NaN of the free terminal state is marched down to the steps
        # with w^-1 > 0, so CG still stops on its first residual
        grid, tg, bumps, y0, th0 = setup16
        th0 = th0.copy()
        th0[3, 4] = np.nan
        pen = PenaltySpec(epsilon=1e-4, weight_mode="carleman")
        with pytest.raises(ConvergenceError, match="pass 1: non-finite residual"):
            solve_linear_control(y0, th0, None, None, pen, tables16, grid, tg, NU0,
                                 bumps)


class TestNonFiniteCG:
    """A non-finite residual, curvature or projected residual stops CG at
    once with a ConvergenceError that names the pass."""

    def test_nan_initial_data(self, setup16):
        grid, tg, bumps, y0, th0 = setup16
        th0 = th0.copy()
        th0[3, 4] = np.nan
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        with pytest.raises(ConvergenceError, match="pass 1: non-finite residual"):
            solve_linear_control(y0, th0, None, None, pen, None, grid, tg, NU0, bumps)

    def test_nan_frozen_sources_on_a_warm_pass(self, grid16, tgrid64, bumps16,
                                               tables16, monkeypatch):
        exact = control._frozen_sources

        def poisoned(*args):
            f1u, f1v, f2 = exact(*args)
            f2 = f2.copy()
            f2[0, 0] = np.nan
            return f1u, f1v, f2

        monkeypatch.setattr(control, "_frozen_sources", poisoned)
        spec = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
        with pytest.raises(ConvergenceError, match="pass 2: non-finite residual"):
            solve_nonlinear_control(y0, th0, spec, pen, OuterLoopSpec(), tables16,
                                    grid16, tgrid64, bumps16)

    def test_nan_curvature(self, setup16, monkeypatch):
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        prob = LinearControlProblem(y0, th0, None, None, pen,
                                    step_weight_logs(pen, None, tg), grid, tg, NU0,
                                    bumps)
        calls = []

        def broken(p):
            calls.append(1)
            return p.scaled(np.nan)

        monkeypatch.setattr(prob, "hessian_apply", broken)
        with pytest.raises(ConvergenceError, match="pass 1: non-finite curvature"):
            prob.solve()
        assert len(calls) == 1

    def test_nan_projected_residual(self, setup16):
        grid, tg, bumps, y0, th0 = setup16
        pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
        prob = LinearControlProblem(y0, th0, None, None, pen,
                                    step_weight_logs(pen, None, tg), grid, tg, NU0,
                                    bumps, recycle=True)
        prob.solve()
        prob.space.hw[0][0] = np.nan     # a corrupted stored product
        with pytest.raises(ConvergenceError, match="pass 2: non-finite projected"):
            prob.solve()


class TestLargeTime:
    def _spec(self):
        return SystemSpec(law=ViscosityLaw(1.0, 0.1), heating_on=True)

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

    def test_crossing_within_the_first_steps_reports_no_fit(self, grid16, bumps16):
        spec = self._spec()
        y0, th0 = scaled_initial_data(grid16, 1.001e-4)
        _, rep = large_time_control(
            y0, th0, 1e-4, spec, PenaltySpec(weight_mode="unweighted"),
            OuterLoopSpec(), None, grid16, TimeGrid(1.0, 64), TimeGrid(0.5, 32), bumps16)
        assert 0 < rep.phase1_steps < 5
        assert np.isnan(rep.decay_c1) and np.isnan(rep.t_star_predicted)
        assert rep.final_norm < rep.synthesis.uncontrolled_terminal_norm

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

    def test_each_level_energy_is_computed_once(self, tmp_path, monkeypatch):
        """A ``large-time`` run of the demo config computes the energy
        components once per traced level: phase 1 stops on, and takes E(0)
        from, the values its energy trace holds.  Both names the components
        are looked up by are wrapped; the levels are those of every run the
        pipeline makes."""
        from pathlib import Path
        from bousscontrol import runner
        from bousscontrol.config import parse_config
        cfg = parse_config(Path(__file__).resolve().parents[1] / "demos" / "configs"
                           / "large_time.cfg").with_kind("large-time")
        counts = {"calls": 0, "levels": 0}
        components, run, pipeline = (forward.energy_components, control.run_nonlinear,
                                     runner.large_time_control)

        def counted(*args):
            counts["calls"] += 1
            return components(*args)

        def traced_run(*args, **kwargs):
            out = run(*args, **kwargs)
            counts["levels"] += len(out[1].t)
            return out

        def counted_pipeline(*args, **kwargs):   # the initial-data scaling is not a level
            counts["calls"] = 0
            out = pipeline(*args, **kwargs)
            counts["pipeline_calls"] = counts["calls"]
            return out

        monkeypatch.setattr(forward, "energy_components", counted)
        monkeypatch.setattr(control, "energy_components", counted, raising=False)
        monkeypatch.setattr(control, "run_nonlinear", traced_run)
        monkeypatch.setattr(runner, "large_time_control", counted_pipeline)
        assert runner.run_experiment(cfg, str(tmp_path / "out")) == 0
        assert counts["levels"] > cfg.lt_tail.nt
        assert counts["pipeline_calls"] <= counts["levels"]

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
    spec = SystemSpec(law=ViscosityLaw(0.05, 0.05, p=4.0),
                      theta_coeff_source="temperature", heating_on=True)
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


@pytest.mark.parametrize("given", ["F1-and-F2", "F2-only"])
def test_problem_takes_physical_sources(grid16, bumps16, given):
    # (f1, f2) are physical; the problem keeps them as the propagator's
    # sources (source_modes), and its free run matches the physical reference
    tg = TimeGrid(0.5, 16)
    rng = np.random.default_rng(61)
    f1 = tuple(np.stack([draw(grid16, rng) for _ in range(tg.nt)])
               for draw in (rand_u, rand_v))
    f2 = np.stack([rand_cells(grid16, rng) for _ in range(tg.nt)])
    if given == "F2-only":
        f1 = None
    y0, th0 = rand_div_free(grid16, rng), rand_cells(grid16, rng)
    pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
    prob = LinearControlProblem(y0, th0, f1, f2, pen, np.zeros(tg.nt), grid16, tg, NU0,
                                bumps16)
    physical = (*(f1 or (None, None)), f2)
    want_sources = prob.prop.source_modes(*physical)
    assert [f is None for f in prob.sources] == [f is None for f in physical]
    assert all(np.array_equal(a, b) for a, b in zip(prob.sources, want_sources)
               if a is not None)
    prob.rhs()
    want = PhysicalLinear(prob.prop).run(y0, th0, None, physical)
    assert max_rel_diff(prob.free_terminal, want) <= 1e-12


def test_cg_optimum_matches_dense_solve():
    # independent optimality oracle: assemble the reduced Hessian densely by
    # applying it to unit vectors and solve the linear system directly; the
    # CG minimizer must agree on the masked control DOFs

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
        # the same controls stored on the patch's box and on the whole grid
        # give the same run bit for bit: only the box enters the march
        from bousscontrol.forward import LinearPropagator
        from conftest import rand_cells, rand_div_free
        rng = np.random.default_rng(6)
        prop = LinearPropagator(grid16, tgrid64, NU0, bumps=bumps16)
        if where == "patch":
            on_box = masked_random_controls(grid16, tgrid64.nt, bumps16, rng)
            whole = on_box.full(grid16)
        else:
            whole = ControlTrajectory.zeros(grid16, tgrid64.nt)
            for part in whole.parts:
                part[:] = rng.standard_normal(part.shape)
            on_box = whole.on(control_box(bumps16))
        assert on_box.box == prop.box and whole.box == grid_box(grid16)
        y0, th0 = rand_div_free(grid16, rng), rand_cells(grid16, rng)
        got = prop.run(y0, th0, controls=on_box)
        ref = prop.run(y0, th0, controls=whole)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_hessian_apply_runs_no_physical_solve_or_stencil(self, grid16, bumps16,
                                                              monkeypatch):
        # a Hessian apply marches forward and backward in the modal basis:
        # no spectral solve, projection, Poisson solve or div/grad stencil
        from bousscontrol import operators as ops
        tg = TimeGrid(1.0, 16)
        pen = PenaltySpec(epsilon=1e-6, weight_mode="unweighted")
        prob = LinearControlProblem((grid16.zeros_u(), grid16.zeros_v()),
                                    0.1 * sine_theta(grid16), None, None, pen,
                                    np.zeros(tg.nt), grid16, tg, 0.05, bumps16)
        z = masked_random_controls(grid16, tg.nt, bumps16, np.random.default_rng(8))
        want = prob.hessian_apply(z)

        def forbidden(*args, **kwargs):
            raise AssertionError("the Hessian apply called a physical operator")

        for name in ("project", "helmholtz_u", "helmholtz_v", "helmholtz_cells",
                     "poisson_neumann"):
            monkeypatch.setattr(ops.SpectralSolver, name, forbidden)
        for name in ("div", "grad"):
            monkeypatch.setattr(ops, name, forbidden)
        got = prob.hessian_apply(z)
        assert all(np.array_equal(a, b) for a, b in zip(got.parts, want.parts))

    def test_hessian_apply_allocates_no_full_grid_control(self):
        import tracemalloc
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
    """The weighted-norm samples at their kept nodes and the outer loop's
    frozen sources, streamed through ``on_state``, equal the stored-trajectory
    loops they replace (``conftest.reference_*``) bit for bit."""

    @pytest.fixture(params=["linear-controlled", "nonlinear"])
    def run(self, request, setup16, tables16):
        grid, tg, bumps, y0, th0 = setup16
        spec = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)
        rec, samples = Recorder(), NormSamples(grid, tg, tables16)
        frozen: list = []
        hooks = chain_hooks(rec, samples, _freezer(frozen, spec, ModalBasis(grid), tg))
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
        assert np.flatnonzero(samples.kept).tolist() == [tg.nt - 1]
        ref = reference_norm_samples(rec, grid, tg)
        assert_kept_samples_match(samples, ref)
        assert (weighted_norms(samples, ctrl, tables16, grid, tg)
                == weighted_norms(ref, ctrl, tables16, grid, tg))

    def test_frozen_sources_match_reference(self, run):
        grid, tg, spec, rec, _, frozen, _ = run
        assert len(frozen) == 3
        for got, want in zip(frozen, reference_frozen_sources(rec, spec, grid, tg)):
            assert np.array_equal(got, want)


def assert_kept_samples_match(samples, ref):
    """Each sample of ``samples`` equals the reference's at the kept nodes,
    bit for bit, and reads 0 at the skipped ones."""
    kept = samples.kept
    for name in SAMPLE_NAMES:
        got, want = getattr(samples, name), getattr(ref, name)
        assert np.array_equal(got[kept], want[kept]), name
        assert not np.any(got[~kept]), name


def streamed_run(grid, tg, spec, seed=3):
    """A nonlinear run under random controls, with every level recorded and
    the weighted-norm samples (under the blow-up weights) and frozen sources
    streamed from it."""
    patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
    bumps = bump_on_solver_grids(grid, patch)
    tables = eval_weights(WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0),
                          build_eta0(grid, patch), tg)
    y0, th0 = scaled_initial_data(grid, 1e-2)
    ctrl = masked_random_controls(grid, tg.nt, bumps, np.random.default_rng(seed),
                                  scale=1e-2)
    rec, samples, frozen = Recorder(), NormSamples(grid, tg, tables), []
    freezer = _freezer(frozen, spec, ModalBasis(grid), tg)
    run_nonlinear(y0, th0, ctrl, spec, grid, tg, bumps=bumps,
                  on_state=chain_hooks(rec, samples, freezer))
    assert len(rec.levels) == tg.nt + 1
    return rec, samples, frozen


SPEC = SystemSpec(law=ViscosityLaw(0.05, 0.05), heating_on=True)


class TestBlockEdges:
    """The frozen sources, which stack levels into blocks
    (``forward.level_blocks``), equal the one-level references bit for bit
    wherever the blocks fall; the weighted-norm samples of the same run,
    taken a level at a time, equal them at their kept nodes."""

    @pytest.mark.parametrize("nx, ny, nt, per_block, spec, levels", [
        (16, 16, 37, 8, SPEC, 8),             # 37 = 4 * 8 + 5
        (16, 16, 37, None, SPEC, 37),         # the budget's 128 levels, capped
        (184, 180, 16, None, SPEC, 1),        # a grid above the budget
        (16, 16, 37, 8, SystemSpec(
            law=ViscosityLaw(0.05, 0.05, p=4.0),
            theta_coeff_source="temperature"), 8),
        (16, 16, 37, 8, replace(SPEC, heating_on=False), 8),
    ], ids=["nt-not-a-multiple", "block-above-nt", "one-level-blocks",
            "lp-temperature", "heating-off"])
    def test_streamed_readers_match_references(self, monkeypatch, nx, ny, nt,
                                               per_block, spec, levels):
        grid, tg = GridSpec(nx, ny), TimeGrid(1.0 if nx < 100 else 0.05, nt)
        if per_block is not None:
            monkeypatch.setattr(forward, "BLOCK_CELLS", per_block * nx * ny)
        assert block_levels(grid, nt) == levels   # of the frozen sources' nt levels
        rec, samples, frozen = streamed_run(grid, tg, spec)
        assert_kept_samples_match(samples, reference_norm_samples(rec, grid, tg))
        assert len(frozen) == 3
        for got, want in zip(frozen, reference_frozen_sources(rec, spec, grid, tg)):
            assert np.array_equal(got, want)

    def test_each_pass_solves_with_the_previous_runs_sources(
            self, grid16, tgrid64, bumps16, tables16, monkeypatch):
        """Each pass after the first solves with exactly the reference
        sources of the previous pass's run, bit for bit."""
        monkeypatch.setattr(forward, "BLOCK_CELLS", 5 * 256)    # 64 = 12 * 5 + 4
        runs, used = [], []
        freezer, solve = control._freezer, LinearControlProblem.solve

        def recording_freezer(out, spec, modes, tgrid):
            runs.append(Recorder())
            return chain_hooks(runs[-1], freezer(out, spec, modes, tgrid))

        def recording_solve(prob):
            used.append(prob.sources)
            return solve(prob)

        monkeypatch.setattr(control, "_freezer", recording_freezer)
        monkeypatch.setattr(LinearControlProblem, "solve", recording_solve)
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
        solve_nonlinear_control(y0, th0, SPEC, pen, OuterLoopSpec(max_outer=3),
                                tables16, grid16, tgrid64, bumps16)
        assert len(runs) == 2 and len(used) == 3 and used[0] is None
        for rec, got in zip(runs, used[1:]):
            want = reference_frozen_sources(rec, SPEC, grid16, tgrid64)
            assert len(got) == len(want) == 3
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


class TestSweepBlocks:
    """The linear sweeps cross the modal boundary a block of steps at a time
    (``forward.sweep_block``): the blocked box-control transforms of
    ``LinearPropagator.run`` and the blocked zeta read-back of
    ``run_adjoint`` equal the per-step transforms bit for bit, wherever the
    blocks fall, and the unread zeta rows stay exactly 0."""

    @staticmethod
    def holed(nt):
        """Live (or read) steps with holes: a dead stretch longer than any
        block, single dead steps, and live steps up to the last."""
        keep = np.ones(nt, dtype=bool)
        keep[5:17] = False
        keep[[20, 23, 24, 30]] = False
        return keep

    @staticmethod
    def propagator(grid, tg, box):
        """A linear propagator whose controls live on the patch's box, or on
        the whole grid (the box ``adjoint.duality_defect`` reads zeta on)."""
        bumps = (bump_on_solver_grids(grid, ControlPatch((0.5, 0.5), (0.2, 0.2)))
                 if box == "patch" else tuple(np.ones(a.shape) for a in (
                     grid.zeros_u(), grid.zeros_v(), grid.zeros_cells())))
        return LinearPropagator(grid, tg, NU0, bumps=bumps, coupling=0.3)

    CASES = pytest.mark.parametrize("nt, per_block, size", [
        (37, None, 2),     # 37 // 16 steps
        (37, 1, 1),        # BLOCK_CELLS set to one step
        (101, None, 6),    # 101 = 16 * 6 + 5
    ], ids=["nt37", "nt37-one-step", "nt101"])
    BOXES = pytest.mark.parametrize("box", ["patch", "whole"])

    @staticmethod
    def sized(monkeypatch, grid, nt, per_block, size):
        if per_block is not None:
            monkeypatch.setattr(forward, "BLOCK_CELLS", per_block * grid.nx * grid.ny)
        assert forward.sweep_block(grid, nt) == size

    @CASES
    @BOXES
    def test_control_transforms_match_per_step(self, monkeypatch, nt, per_block, size,
                                               box):
        grid, tg = GridSpec(16, 16), TimeGrid(1.0, nt)
        self.sized(monkeypatch, grid, nt, per_block, size)
        prop = self.propagator(grid, tg, box)
        rng = np.random.default_rng(71)
        ctrl = ControlTrajectory.zeros(grid, nt, prop.box)
        for part in ctrl.parts:
            part[:] = rng.standard_normal(part.shape)
            part[~self.holed(nt)] = 0.0
        y0, th0 = rand_div_free(grid, rng), rand_cells(grid, rng)
        got = Recorder()
        prop.run(y0, th0, ctrl, on_state=got)
        state = prop.to_modes(*y0, th0)
        want = [prop.from_modes(*state)]
        for n in range(nt):
            control = prop.control_modes((ctrl.vu[n], ctrl.vv[n], ctrl.v0[n])) \
                if self.holed(nt)[n] else None
            state = prop.step_modes(*state, control)
            want.append(prop.from_modes(*state))
        assert len(got.levels) == nt + 1
        for level, ref in zip(got.levels, want):
            assert all(np.array_equal(a, b) for a, b in zip(level[1:], ref))

    @CASES
    @BOXES
    @pytest.mark.parametrize("reads", ["holed", "every-step"])
    def test_zeta_read_back_matches_per_step(self, monkeypatch, nt, per_block, size, box,
                                             reads):
        from bousscontrol.adjoint import run_adjoint
        grid, tg = GridSpec(16, 16), TimeGrid(1.0, nt)
        self.sized(monkeypatch, grid, nt, per_block, size)
        prop = self.propagator(grid, tg, box)
        read = self.holed(nt) if reads == "holed" else None
        rng = np.random.default_rng(72)
        phi_t, psi_t = prop.modes.project_faces(*rand_div_free(grid, rng)), \
            rand_cells(grid, rng)
        adj = run_adjoint(phi_t, psi_t, None, None, prop, prop.box, read=read)
        m = prop.modes
        back = [inv for _, inv in m.on_box(prop.box)]
        want = [np.zeros_like(z) for z in (adj.zeta_u, adj.zeta_v, adj.zeta_th)]
        lam = prop.to_modes(*phi_t, psi_t)
        for n in range(nt - 1, -1, -1):
            zu, zv, zth, lam_th = prop.step_adjoint_modes(*lam)
            if read is None or read[n]:
                for out, rd, z in zip(want, back, (zu, zv, zth)):
                    out[n] = rd(z)
            lam = (m.change_u[1](zu), m.change_v[1](zv), lam_th)
            m.project(lam[0], lam[1])
        for got, ref in zip((adj.zeta_u, adj.zeta_v, adj.zeta_th), want):
            assert np.array_equal(got, ref)
            if read is not None:
                assert not np.any(got[~read])
                assert np.all(np.any(got[read] != 0.0, axis=(1, 2)))


class TestIncompleteRunGuard:
    """Samples of a run that ended before level nt are refused, not summed."""

    def test_run_stopped_at_half_time(self, grid16, tgrid64, tables16):
        nt = tgrid64.nt
        samples = NormSamples(grid16, tgrid64, tables16)
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        run_nonlinear(y0, th0, None, SPEC, grid16, tgrid64,
                      on_state=chain_hooks(samples, lambda k, *_: k == nt // 2))
        assert samples.received == nt // 2 + 1
        with pytest.raises(DomainError, match=f"after {nt // 2 + 1} of the {nt + 1} levels"):
            weighted_norms(samples, None, tables16, grid16, tgrid64)
        with pytest.raises(DomainError):
            samples.yt_dy_sq

    def test_complete_run_reads(self, grid16, tgrid64, tables16):
        samples = NormSamples(grid16, tgrid64, tables16)
        y0, th0 = scaled_initial_data(grid16, 1e-2)
        run_nonlinear(y0, th0, None, SPEC, grid16, tgrid64, on_state=samples)
        assert samples.received == tgrid64.nt + 1
        assert samples.yt_dy_sq.shape == (tgrid64.nt,)
        assert np.all(samples.state_sq[samples.kept] > 0.0)
        assert not np.any(samples.state_sq[~samples.kept])
        with pytest.raises(AttributeError):
            samples.no_such_sample
