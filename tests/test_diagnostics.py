"""Diagnostics: decay fit, waiting-time formula, weighted norms, reports."""

import numpy as np
import pytest

from bousscontrol.control import ControlTrajectory
from bousscontrol.diagnostics import (DecayFit, control_regularity_report,
                                      decay_fit, emit_report, parse_report,
                                      t_star, weighted_norms)
from bousscontrol.exceptions import DomainError
from bousscontrol.forward import (EnergyTrace, SystemSpec, Trajectory,
                                  run_nonlinear, scaled_initial_data)
from bousscontrol.geometry import ControlPatch, build_eta0
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.operators import ViscosityLaw
from bousscontrol.weights import WeightParams, eval_weights, find_min_m


def synthetic_trace(c1=3.0, e0=5.0, t_final=1.0, n=65):
    t = np.linspace(0.0, t_final, n)
    e = e0 * np.exp(-c1 * t)
    # put all of E into the theta^2 slot; the split is irrelevant to the fit
    return EnergyTrace(t=t, grad_y_sq=np.zeros(n), theta_sq=e,
                       grad_theta_sq=np.zeros(n), lam1=2 * np.pi ** 2)


class TestDecayFit:
    def test_exact_exponential(self):
        fit = decay_fit(synthetic_trace(), (0.1, 1.0))
        assert fit.c1 == pytest.approx(3.0, abs=1e-10)
        assert fit.c2 == pytest.approx(1.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_zero_trace_rejected(self):
        tr = synthetic_trace()
        tr.theta_sq[:] = 0.0
        with pytest.raises(DomainError):
            decay_fit(tr, (0.1, 1.0))

    def test_solver_run_fit_quality(self):
        grid = GridSpec(32, 32)
        spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1), heating_on=True)
        y0, th0 = scaled_initial_data(grid, 1e-4)
        _, trace = run_nonlinear(y0, th0, None, spec, grid, TimeGrid(2.0, 256))
        fit = decay_fit(trace, (0.4, 2.0))
        assert fit.c1 > 0.0
        assert fit.r_squared >= 0.99


class TestTStar:
    def test_delta_equals_e0(self):
        fit = DecayFit(c1=1.0, c2=1.0, r_squared=1.0, window=(0, 1))
        assert t_star(fit, delta=2.0, e0=2.0) == 0.0

    def test_delta_e_over_e(self):
        fit = DecayFit(c1=1.0, c2=1.0, r_squared=1.0, window=(0, 1))
        assert t_star(fit, delta=2.0 / np.e, e0=2.0) == pytest.approx(1.0, rel=1e-12)

    def test_monotonicity(self):
        fit = DecayFit(c1=2.0, c2=1.5, r_squared=1.0, window=(0, 1))
        assert t_star(fit, 1e-6, 1.0) > t_star(fit, 1e-4, 1.0)
        assert t_star(fit, 1e-4, 10.0) > t_star(fit, 1e-4, 1.0)

    def test_no_decay_error(self):
        fit = DecayFit(c1=-0.5, c2=1.0, r_squared=1.0, window=(0, 1))
        with pytest.raises(DomainError):
            t_star(fit, 1e-4, 1.0)

    def test_negative_clamped_to_zero(self):
        fit = DecayFit(c1=1.0, c2=1.0, r_squared=1.0, window=(0, 1))
        assert t_star(fit, delta=10.0, e0=1.0) == 0.0


@pytest.fixture
def weighted_setup():
    grid = GridSpec(16, 16)
    tg = TimeGrid(1.0, 32)
    patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
    wp = WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0)
    tables = eval_weights(wp, build_eta0(grid, patch), tg)
    return grid, tg, patch, tables


def zero_trajectory(grid, tg):
    n = tg.nt + 1
    return Trajectory(t=tg.nodes(),
                      u=np.zeros((n, grid.nx + 1, grid.ny)),
                      v=np.zeros((n, grid.nx, grid.ny + 1)),
                      theta=np.zeros((n, grid.nx, grid.ny)))


class TestWeightedNorms:
    def test_zero_trajectory_all_zero(self, weighted_setup):
        grid, tg, patch, tables = weighted_setup
        traj = zero_trajectory(grid, tg)
        ctrl = ControlTrajectory.zeros(grid, tg.nt)
        rep = weighted_norms(traj, ctrl, tables, grid, tg)
        for name in ("iint_rho1_sq_state", "iint_rho2_sq_controls",
                     "sup_mu1_y", "iint_mu1_grad_y", "sup_mu2_grad_y",
                     "iint_mu2_yt_dy", "mu2_theta_t_L32", "mu2_lap_theta_L32"):
            assert getattr(rep, name) == 0.0
        assert all(v == 0.0 for v in rep.kappa_control_norms.values())

    def test_quadratic_homogeneity(self, weighted_setup):
        grid, tg, patch, tables = weighted_setup
        rng = np.random.default_rng(2)
        traj = zero_trajectory(grid, tg)
        traj.theta[:] = 1e-3 * rng.standard_normal(traj.theta.shape)
        traj.u[:, 1:-1, :] = 1e-3 * rng.standard_normal(traj.u[:, 1:-1, :].shape)
        r1 = weighted_norms(traj, None, tables, grid, tg)
        traj2 = zero_trajectory(grid, tg)
        c = 3.0
        traj2.theta[:] = c * traj.theta
        traj2.u[:] = c * traj.u
        r2 = weighted_norms(traj2, None, tables, grid, tg)
        assert r2.iint_rho1_sq_state == pytest.approx(
            c * c * r1.iint_rho1_sq_state, rel=1e-12)
        assert r2.sup_mu1_y == pytest.approx(c * c * r1.sup_mu1_y, rel=1e-12)

    def test_entries_finite(self, weighted_setup):
        grid, tg, patch, tables = weighted_setup
        rng = np.random.default_rng(3)
        traj = zero_trajectory(grid, tg)
        traj.theta[:] = rng.standard_normal(traj.theta.shape)
        ctrl = ControlTrajectory.zeros(grid, tg.nt)
        ctrl.v0[:] = rng.standard_normal(ctrl.v0.shape)
        rep = weighted_norms(traj, ctrl, tables, grid, tg)
        for name in ("iint_rho1_sq_state", "iint_rho2_sq_controls",
                     "sup_mu1_y", "iint_mu1_grad_y"):
            assert np.isfinite(getattr(rep, name))


class TestRegularityReport:
    def test_zero_controls(self, weighted_setup):
        grid, tg, patch, tables = weighted_setup
        ctrl = ControlTrajectory.zeros(grid, tg.nt)
        rep = control_regularity_report(ctrl, tables, grid, tg)
        assert all(v == 0.0 for v in rep.entries.values())
        assert rep.saturated_entries == []

    def test_product_rule_oracle(self):
        # (kappa v)_t of a time-constant v equals kappa_t v; the central
        # difference of the normalized kappa profile must match the analytic
        # log-derivative kappa (log kappa)' at O(dt^2).  Uses a tame-span s
        # so the profile is smooth (unsaturated) across the window.
        from bousscontrol.weights import _bracket

        grid = GridSpec(16, 16)
        patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
        eta0 = build_eta0(grid, patch)
        lam, m = 0.1, 43.0

        def kappa_profile(nt, s):
            tg = TimeGrid(1.0, nt)
            tb = eval_weights(WeightParams(s=s, lam=lam, m=m, eta_sup=1.0),
                              eta0, tg)
            raw = tb.raw("kappa")[:nt].copy()
            raw -= raw.min()
            return tb, tg, raw

        # pick s for a ~40-nat span at the reference resolution (affine in s)
        tb0, tg0, raw0 = kappa_profile(256, 1e-300)
        tb1, _, raw1 = kappa_profile(256, 1.0)
        k_ref = 240
        b = raw0[k_ref] - raw0[0]
        a = (raw1[k_ref] - raw1[0]) - b
        s_star = (40.0 - b) / a

        errs = []
        for nt in (128, 256):
            tb, tg, logk = kappa_profile(nt, s_star)
            kap = np.exp(np.minimum(logk, 345.0))  # tail beyond the window explodes
            p = tb.params
            c98 = _bracket(p, 9.0, 8.0)
            t = tb.t[:nt]
            sel = (t > 0.6) & (t < 0.92)
            assert logk[sel].max() < 340.0
            ell_v = t[sel] * (1.0 - t[sel])
            u = ell_v ** -4.0
            du = 4.0 * (2.0 * t[sel] - 1.0) / ell_v ** 5
            dlog = p.s * c98 * du - 17.0 * du / u
            analytic = kap[sel] * dlog
            central = np.gradient(kap, tg.dt)[:nt][sel]
            # the profile has an interior minimum (analytic crosses zero), so
            # the median relative error is the robust comparison
            errs.append(float(np.median(np.abs(central - analytic)
                                        / np.maximum(np.abs(analytic), 1e-300))))
        assert errs[1] < 0.1
        assert errs[1] < errs[0] / 3.0  # O(dt^2)


class TestReports:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "report.txt"
        lines = ["alpha = 0.12345678901234567", "count = 42",
                 "flag = True"]
        emit_report(path, {"sec": lines}, config_hash="abc", grid_hash="def")
        back = parse_report(path)
        assert back["config_hash"] == "abc"
        assert back["sec.alpha"] == 0.12345678901234567
        assert back["sec.count"] == 42.0
        assert back["sec.flag"] == "True"

    def test_emission_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        sections = {"z": ["k = 1"], "a": ["j = 2.5"]}
        emit_report(p1, sections, "h1", "h2")
        emit_report(p2, sections, "h1", "h2")
        assert p1.read_bytes() == p2.read_bytes()
