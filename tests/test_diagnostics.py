"""Diagnostics: decay fit, waiting-time formula, weighted norms, reports."""

import copy
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.special import logsumexp

from bousscontrol import operators as ops

from bousscontrol.control import ControlTrajectory
from bousscontrol.config import parse_config
from bousscontrol.diagnostics import (_SAMPLES, DecayFit, NormSamples, _logsumexp,
                                      control_regularity_report, decay_fit, t_star,
                                      weighted_norms)
from bousscontrol.exceptions import DomainError
from bousscontrol.fieldio import emit_report, parse_report
from bousscontrol.forward import (EnergyTrace, SystemSpec, run_nonlinear,
                                  scaled_initial_data)
from bousscontrol.geometry import (ControlPatch, build_eta0, bump_on_solver_grids,
                                   control_box)
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.operators import ViscosityLaw
from bousscontrol.runner import _tables_for, run_experiment
from bousscontrol.weights import (WeightParams, control_weight_logs, default_t_clip,
                                  eval_weights, find_min_m)

from conftest import feed, reference_control_regularity_report, reference_norm_samples


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

    @pytest.mark.parametrize("t_final, named", [(1e-160, False), (1e-200, True)])
    def test_times_that_square_to_zero_are_named(self, t_final, named):
        # polyfit scales its time column by the root of its square-sum;
        # times of 1e-200 square to 0 and left LAPACK an SVD that failed
        tr = synthetic_trace(t_final=t_final)
        if named:
            with pytest.raises(DomainError, match="degenerate decay fit"):
                decay_fit(tr, (0.2 * t_final, t_final))
        else:
            assert np.isfinite(decay_fit(tr, (0.2 * t_final, t_final)).c1)

    def test_solver_run_fit_quality(self):
        grid = GridSpec(32, 32)
        spec = SystemSpec(law=ViscosityLaw(1.0, 0.1), heating_on=True)
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


def tame_tables(tables, span=30.0):
    """The same tables with every composite replaced by a smooth log profile
    rising by ``span`` nats or a few more (30-50 by default) over [0, T) and
    +inf at T, so that every weighted norm is a moderate number."""
    t = tables.t
    shape = np.append((t[:-1] / t[-1]) ** 2, np.inf)
    return replace(tables, raw_composites={
        name: (span + 2.0 * i) * shape - i
        for i, name in enumerate(tables.raw_composites)})


def zero_trajectory(grid, tg):
    n = tg.nt + 1
    return SimpleNamespace(t=tg.nodes(),
                           u=np.zeros((n, grid.nx + 1, grid.ny)),
                           v=np.zeros((n, grid.nx, grid.ny + 1)),
                           theta=np.zeros((n, grid.nx, grid.ny)))


def samples(traj, grid, tg, tables):
    """The NormSamples of stored levels under the weights of ``tables``, fed
    to the hook one by one."""
    return feed(traj, NormSamples(grid, tg, tables))


class TestWeightedNorms:
    def test_zero_trajectory_all_zero(self, weighted_setup):
        # log10 of a zero quantity is -inf
        grid, tg, patch, tables = weighted_setup
        traj = zero_trajectory(grid, tg)
        ctrl = ControlTrajectory.zeros(grid, tg.nt)
        rep = weighted_norms(samples(traj, grid, tg, tables), ctrl, tables, grid, tg)
        assert list(rep)[:8] == ["log10_" + name for name in (
            "iint_rho1_sq_state", "iint_rho2_sq_controls",
            "sup_mu1_y", "iint_mu1_grad_y", "sup_mu2_grad_y",
            "iint_mu2_yt_dy", "mu2_theta_t_L32", "mu2_lap_theta_L32")]
        assert len(rep) == 8 + 6
        assert all(v == -np.inf for v in rep.values())

    def test_quadratic_homogeneity(self, weighted_setup):
        # on a tame-span table: at default parameters log10 ~ 1e15, where
        # 2 log10 c is below one ulp
        grid, tg, patch, tables = weighted_setup
        tables = tame_tables(tables)
        rng = np.random.default_rng(2)
        traj = zero_trajectory(grid, tg)
        traj.theta[:] = 1e-3 * rng.standard_normal(traj.theta.shape)
        traj.u[:, 1:-1, :] = 1e-3 * rng.standard_normal(traj.u[:, 1:-1, :].shape)
        r1 = weighted_norms(samples(traj, grid, tg, tables), None, tables, grid, tg)
        traj2 = zero_trajectory(grid, tg)
        c = 3.0
        traj2.theta[:] = c * traj.theta
        traj2.u[:] = c * traj.u
        r2 = weighted_norms(samples(traj2, grid, tg, tables), None, tables, grid, tg)
        tol = 1e-12 / np.log(10.0)  # rel = 1e-12 on the linear values
        for name in ("iint_rho1_sq_state", "sup_mu1_y"):
            delta = r2["log10_" + name] - r1["log10_" + name]
            assert abs(delta - 2.0 * np.log10(c)) <= tol, name

    def test_entries_finite(self, weighted_setup):
        grid, tg, patch, tables = weighted_setup
        rng = np.random.default_rng(3)
        traj = zero_trajectory(grid, tg)
        traj.theta[:] = rng.standard_normal(traj.theta.shape)
        ctrl = ControlTrajectory.zeros(grid, tg.nt)
        ctrl.v0[:] = rng.standard_normal(ctrl.v0.shape)
        rep = weighted_norms(samples(traj, grid, tg, tables), ctrl, tables, grid, tg)
        for name in ("iint_rho1_sq_state", "iint_rho2_sq_controls"):
            assert np.isfinite(rep["log10_" + name])
        for name in ("sup_mu1_y", "iint_mu1_grad_y"):  # the velocity is zero
            assert rep["log10_" + name] == -np.inf


PINNED = Path(__file__).resolve().parents[1] / "demos" / "configs" / "linear_control.cfg"


def random_trajectory(grid, tg, rng):
    """Standard normal levels with zero normal wall values."""
    traj = zero_trajectory(grid, tg)
    traj.theta[:] = rng.standard_normal(traj.theta.shape)
    traj.u[:, 1:-1, :] = rng.standard_normal(traj.u[:, 1:-1, :].shape)
    traj.v[:, :, 1:-1] = rng.standard_normal(traj.v[:, :, 1:-1].shape)
    return traj


class TestKeptNodes:
    """``NormSamples`` samples only the nodes its weights keep, and
    ``weighted_norms`` returns from them the value of every node, or names
    the entry that they do not decide."""

    @pytest.mark.parametrize("which", ["tame-span", "pinned-steep"])
    def test_matches_every_node_reference(self, weighted_setup, which):
        if which == "tame-span":
            grid, tg, _, tables = weighted_setup
            tables = tame_tables(tables)
        else:
            cfg = parse_config(PINNED)
            grid, tg, tables = cfg.grid, cfg.tgrid, _tables_for(cfg)
        traj = random_trajectory(grid, tg, np.random.default_rng(21))
        got = samples(traj, grid, tg, tables)
        kept = np.flatnonzero(got.kept).tolist()
        assert kept == (list(range(tg.nt)) if which == "tame-span" else [tg.nt - 1])
        ref = reference_norm_samples(traj, grid, tg)
        for name in _SAMPLES:
            want = getattr(ref, name)
            assert np.array_equal(getattr(got, name)[kept], want[kept]), name
        assert (weighted_norms(got, None, tables, grid, tg)
                == weighted_norms(ref, None, tables, grid, tg))

    def test_zero_at_kept_nodes_is_named(self, weighted_setup):
        """A state zero at the kept node nt - 1 and at level nt, but not
        earlier: the skipped nodes would decide every entry."""
        grid, tg, _, tables = weighted_setup
        traj = random_trajectory(grid, tg, np.random.default_rng(22))
        for a in (traj.u, traj.v, traj.theta):
            a[-2:] = 0.0
        got = samples(traj, grid, tg, tables)
        assert np.flatnonzero(got.kept).tolist() == [tg.nt - 1]
        with pytest.raises(DomainError, match="iint_rho1_sq_state is not decided"):
            weighted_norms(got, None, tables, grid, tg)

    def test_non_finite_skipped_level_is_named(self, weighted_setup):
        grid, tg, _, tables = weighted_setup
        traj = random_trajectory(grid, tg, np.random.default_rng(23))
        traj.theta[3, 2, 2] = np.nan
        with pytest.raises(DomainError, match="iint_rho1_sq_state: skipped node 3 reads a "
                                              "non-finite level"):
            weighted_norms(samples(traj, grid, tg, tables), None, tables, grid, tg)

    @pytest.mark.parametrize("gap, named", [(1300.0, True), (2250.0, False)])
    def test_the_gap_a_skipped_node_needs(self, weighted_setup, gap, named):
        """Levels a double's range apart: the kept node nt - 2 holds 1e-160
        and the skipped node nt - 3, ``gap`` below it in L = 2 log w, holds
        1e140.  At 1300 the skipped node decides the every-node value, so
        the entry is refused; at 2250, past the 2199.4 that any two doubles
        need, the kept nodes give that value exactly."""
        grid, tg, _, tables = weighted_setup
        nt = tg.nt
        logw = np.zeros(nt + 1)
        logw[nt - 3:] = 4000.0 - gap / 2.0, 4000.0, 5000.0, np.inf
        tables = replace(tables, raw_composites=dict.fromkeys(tables.raw_composites, logw))
        traj = zero_trajectory(grid, tg)
        for n, value in ((nt - 3, 1e140), (nt - 2, 1e-160)):
            traj.u[n, 1:-1, :] = traj.v[n, :, 1:-1] = traj.theta[n] = value
        got = samples(traj, grid, tg, tables)
        assert np.flatnonzero(got.kept).tolist() == [nt - 2, nt - 1]
        want = weighted_norms(reference_norm_samples(traj, grid, tg), None, tables,
                              grid, tg)
        if named:
            with pytest.raises(DomainError, match="iint_rho1_sq_state is not decided"):
                weighted_norms(got, None, tables, grid, tg)
            kept_only = copy.deepcopy(traj)
            for a in (kept_only.u, kept_only.v, kept_only.theta):
                a[nt - 3] = 0.0
            assert want != weighted_norms(reference_norm_samples(kept_only, grid, tg),
                                          None, tables, grid, tg)
        else:
            assert weighted_norms(got, None, tables, grid, tg) == want

    @pytest.mark.parametrize("span", [2e3, 4e3, 1e5])
    def test_any_levels_give_the_exact_value_or_a_named_error(self, weighted_setup, span):
        """Random trajectories with levels and fields zeroed at random and
        magnitudes from 1e-100 to 1e100, under profiles whose kept band
        holds some of the nodes: each result equals the every-node value
        exactly, or is a DomainError."""
        grid, tg, _, tables = weighted_setup
        grid, tables = GridSpec(8, 8), tame_tables(tables, span)
        rng = np.random.default_rng(int(span))
        outcomes = {"equal": 0, "named": 0}
        for _ in range(40):
            traj = random_trajectory(grid, tg, rng)
            n = tg.nt + 1
            scale = 10.0 ** rng.uniform(-100.0, 100.0, n)
            for a in (traj.u, traj.v, traj.theta):
                a *= scale[:, None, None]
                a[rng.random(n) < rng.uniform(0.0, 1.0)] = 0.0
            got = samples(traj, grid, tg, tables)
            try:
                rep = weighted_norms(got, None, tables, grid, tg)
            except DomainError:
                outcomes["named"] += 1
                continue
            ref = weighted_norms(reference_norm_samples(traj, grid, tg), None, tables,
                                 grid, tg)
            assert rep == ref
            outcomes["equal"] += 1
        assert min(outcomes.values()) > 0, outcomes

    def test_final_run_samples_only_the_kept_level(self, monkeypatch, tmp_path):
        """A linear-control run of the pinned config evaluates the Laplacian
        of the temperature on its one kept level, not on all 128."""
        levels = []
        laplacian_cells = ops.laplacian_cells

        def counting(f, grid):
            levels.append(1 if f.ndim == 2 else len(f))
            return laplacian_cells(f, grid)

        monkeypatch.setattr(ops, "laplacian_cells", counting)
        assert run_experiment(parse_config(PINNED), str(tmp_path)) == 0
        assert sum(levels) == 1


class TestRegularityReport:
    def test_zero_controls(self, weighted_setup):
        grid, tg, patch, tables = weighted_setup
        ctrl = ControlTrajectory.zeros(grid, tg.nt)
        rep = control_regularity_report(ctrl, tables, grid, tg)
        assert len(rep) == 6
        assert all(v == -np.inf for v in rep.values())

    @pytest.mark.parametrize("nx, ny, nt, center, half_x, folds", [
        (16, 16, 32, (0.5, 0.5), 0.15, False),
        (33, 20, 32, (0.5, 0.5), 0.15, False),
        (16, 16, 32, (0.2, 0.5), 0.15, False),   # within two cells of x = 0
        (256, 16, 16, (0.5, 0.5), 0.2, True),    # rows fold (operators.FOLD_MIN)
    ], ids=["16x16", "33x20", "near-wall", "folded"])
    def test_modal_matches_whole_grid(self, nx, ny, nt, center, half_x, folds):
        """The report's modal sums, on the Helmholtz coefficients of the box's
        live steps, against the stencils on every level scattered onto the
        whole grid; a box that folds takes the stack of live steps through
        the folded kernel."""
        grid = GridSpec(nx, ny)
        tg = TimeGrid(1.0, nt)
        bumps = bump_on_solver_grids(grid, ControlPatch(center, (half_x, 0.2)))
        box = control_box(bumps)
        rows = box[2][0]
        assert (rows.stop - rows.start >= ops.FOLD_MIN
                and rows.start + rows.stop == nx) == folds
        rng = np.random.default_rng(4)
        ctrl = ControlTrajectory.zeros(grid, tg.nt)
        for part, bump in zip(ctrl.parts, bumps):
            part[:] = rng.standard_normal(part.shape) * (bump > 0.0)
        ctrl = ctrl.on(box)
        tables = tame_tables(eval_weights(
            WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0),
            build_eta0(grid, ControlPatch((0.5, 0.5), (0.2, 0.2))), tg))
        got = control_regularity_report(ctrl, tables, grid, tg)
        want = reference_control_regularity_report(ctrl, tables, grid, tg)
        assert list(got) == list(want)
        for key in want:
            assert np.isfinite(want[key])
            assert abs(got[key] - want[key]) <= 1e-14 * abs(want[key]), key

    @pytest.mark.parametrize("nx, ny", [(16, 16), (33, 20)])
    def test_modal_reads_the_normal_wall_values(self, nx, ny):
        """Controls on the whole grid (``ControlTrajectory.full`` layout),
        nonzero on every face and cell but the normal velocity's wall faces:
        the report matches the 5-point stencils.  A nonzero wall value, which
        no control supported in omega has, raises DomainError naming the
        part."""
        grid, tg = GridSpec(nx, ny), TimeGrid(1.0, 16)
        rng = np.random.default_rng(8)
        ctrl = ControlTrajectory.zeros(grid, tg.nt)
        for part in ctrl.parts:
            part[:] = rng.standard_normal(part.shape)
        ctrl.vu[:, [0, -1]] = 0.0
        ctrl.vv[:, :, [0, -1]] = 0.0
        tables = tame_tables(eval_weights(
            WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0),
            build_eta0(grid, ControlPatch((0.5, 0.5), (0.2, 0.2))), tg))
        got = control_regularity_report(ctrl, tables, grid, tg)
        want = reference_control_regularity_report(ctrl, tables, grid, tg)
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-14 * abs(want[key]), key
        for name, wall in (("vu", (3, 0, 2)), ("vv", (5, 1, -1))):
            bad = replace(ctrl, **{name: getattr(ctrl, name).copy()})
            getattr(bad, name)[wall] = 1e-3
            with pytest.raises(DomainError, match=f"control {name} is nonzero on a wall"):
                control_regularity_report(bad, tables, grid, tg)

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


class TestLogDomainOracle:
    """Every log10 entry against a 50-digit mpmath evaluation of the same
    weighted sums and sups, on the default carleman tables (logs up to ~1e15)
    and on a tame-span table.  The per-node squares are float inputs; the
    oracle exponentiates the weights in arbitrary range and sums exactly."""

    @staticmethod
    def data(grid, tg):
        rng = np.random.default_rng(7)
        traj = zero_trajectory(grid, tg)
        traj.u[:, 1:-1, :] = rng.standard_normal(traj.u[:, 1:-1, :].shape)
        traj.v[:, :, 1:-1] = rng.standard_normal(traj.v[:, :, 1:-1].shape)
        traj.theta[:] = rng.standard_normal(traj.theta.shape)
        ctrl = ControlTrajectory.zeros(grid, tg.nt)   # admissible: 0 normal wall velocity
        for a in (ctrl.vu[:, 1:-1, :], ctrl.vv[:, :, 1:-1], ctrl.v0):
            a[:] = rng.standard_normal(a.shape)
        return traj, ctrl

    @staticmethod
    def oracle(traj, ctrl, tables, grid, tg):
        mp.mp.dps = 50
        nt, dt, q = tg.nt, mp.mpf(tg.dt), mp.mpf(grid.cell_area)
        u, v, th = traj.u, traj.v, traj.theta

        def node_logs(name):
            raw = [mp.mpf(x) for x in tables.raw(name)[:nt]]
            return [x - min(raw) for x in raw]

        def wsum(logw, sq, scale):
            return mp.log10(scale * mp.fsum(mp.exp(2 * lw) * mp.mpf(x)
                                            for lw, x in zip(logw, sq)))

        def wsup(logw, sq):
            return max(mp.log10(mp.exp(2 * lw) * mp.mpf(x)) for lw, x in zip(logw, sq))

        def nv2(a, b):
            return ops.norm_velocity(a, b, grid) ** 2

        rng_ = range(nt)
        state_sq = [ops.state_norm_sq(u[n], v[n], th[n], grid) for n in rng_]
        y_sq = [nv2(u[n], v[n]) for n in rng_]
        gy_sq = [ops.h1_seminorm_sq_velocity(u[n], v[n], grid) for n in rng_]
        yt_dy = [nv2((u[n + 1] - u[n]) / tg.dt, (v[n + 1] - v[n]) / tg.dt)
                 + nv2(ops.laplacian_u(u[n], grid), ops.laplacian_v(v[n], grid))
                 for n in rng_]
        tht = [ops.lp_norm_cells((th[n + 1] - th[n]) / tg.dt, 1.5, grid) ** 2 for n in rng_]
        lth = [ops.lp_norm_cells(ops.laplacian_cells(th[n], grid), 1.5, grid) ** 2
               for n in rng_]
        lw1, lmu1, lmu2 = (node_logs(n) for n in ("rho1", "mu1", "mu2"))
        t_clip = default_t_clip(None, tg)
        lw2 = [mp.mpf(x) for x in control_weight_logs(tables, t_clip)]
        csq = [float(np.sum(ctrl.vu[n] ** 2) + np.sum(ctrl.vv[n] ** 2)
                     + np.sum(ctrl.v0[n] ** 2)) for n in rng_]
        out = {
            "iint_rho1_sq_state": wsum(lw1, state_sq, dt),
            "iint_rho2_sq_controls": wsum(lw2, csq, q * dt),
            "sup_mu1_y": wsup(lmu1, y_sq),
            "iint_mu1_grad_y": wsum(lmu1, gy_sq, dt),
            "sup_mu2_grad_y": wsup(lmu2, gy_sq),
            "iint_mu2_yt_dy": wsum(lmu2, yt_dy, dt),
            "mu2_theta_t_L32": wsum(lmu2, tht, dt),
            "mu2_lap_theta_L32": wsum(lmu2, lth, dt),
        }

        # kappa v: kappa is constant in space, so the Laplacian and H^1
        # entries are kappa_n^2-weighted per-node sums; the time derivatives
        # are formed pointwise in arbitrary range.
        logk = [mp.mpf(x) for x in control_weight_logs(tables, t_clip, name="kappa")]
        kap = [mp.exp(x) for x in logk]
        vu, vv, v0 = ctrl.vu, ctrl.vv, ctrl.v0
        out["kappa_iint_lap_kv_sq"] = wsum(logk, [nv2(ops.laplacian_u(vu[n], grid),
                                                      ops.laplacian_v(vv[n], grid))
                                                  for n in rng_], dt)
        out["kappa_iint_lap_kv0_sq"] = wsum(logk, [ops.norm_cells(
            ops.laplacian_cells(v0[n], grid), grid) ** 2 for n in rng_], dt)
        out["kappa_sup_h1_kv_sq"] = wsup(logk, [
            nv2(vu[n], vv[n]) + ops.h1_seminorm_sq_velocity(vu[n], vv[n], grid)
            for n in rng_])
        out["kappa_sup_h1_kv0_sq"] = wsup(logk, [
            ops.norm_cells(v0[n], grid) ** 2 + ops.h1_seminorm_sq_cells(v0[n], grid)
            for n in rng_])

        def dt_sq(f):
            kf = [kap[n] * np.array([mp.mpf(x) for x in f[n].ravel()], dtype=object)
                  for n in rng_]
            total = mp.mpf(0)
            for n in rng_:
                lo, hi = max(n - 1, 0), min(n + 1, nt - 1)
                d = (kf[hi] - kf[lo]) / ((hi - lo) * dt)
                total += mp.fsum(d * d)
            return total * q * dt

        out["kappa_iint_dt_kv_sq"] = mp.log10(dt_sq(vu) + dt_sq(vv))
        out["kappa_iint_dt_kv0_sq"] = mp.log10(dt_sq(v0))
        return out

    @pytest.mark.parametrize("tame", [False, True], ids=["carleman", "tame-span"])
    def test_matches_mpmath(self, weighted_setup, tame):
        grid, tg, patch, tables = weighted_setup
        if tame:
            tables = tame_tables(tables)
        traj, ctrl = self.data(grid, tg)
        rep = weighted_norms(samples(traj, grid, tg, tables), ctrl, tables, grid, tg)
        got = {k.removeprefix("log10_"): v for k, v in rep.items()}
        want = self.oracle(traj, ctrl, tables, grid, tg)
        assert sorted(got) == sorted(want)
        for name, w in want.items():
            assert abs(got[name] - float(w)) <= 1e-12 * abs(float(w)), (name, got[name], w)
        if not tame:  # the carleman norms are far past any double exponent
            assert got["iint_rho1_sq_state"] > 1e12


def test_logsumexp_matches_scipy_bitwise():
    """The log-sum-exp of the weighted sums against scipy.special.logsumexp,
    bit for bit: random arrays spanning 20 decades, some with -inf entries,
    some with the max repeated, and arrays that are all -inf."""
    rng = np.random.default_rng(12)
    cases = [np.full(n, -np.inf) for n in (1, 2, 9)]
    for i in range(3000):
        n = int(rng.integers(1, 300))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-4.0, 16.0)
        if i % 2:
            x[rng.random(n) < rng.random()] = -np.inf
        if i % 5 == 0 and np.isfinite(x.max()):
            x[rng.integers(0, n, size=3)] = x.max()
        cases.append(x)
    for x in cases:
        assert np.float64(_logsumexp(x)).tobytes() == \
            np.float64(logsumexp(x)).tobytes(), x


class TestReports:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "report.txt"
        section = {"alpha": 0.12345678901234567, "count": 42, "flag": True}
        emit_report(path, {"sec": section}, config_hash="abc", grid_hash="def")
        back = parse_report(path)
        assert back["config_hash"] == "abc"
        assert back["sec.alpha"] == 0.12345678901234567
        assert back["sec.count"] == 42.0
        assert back["sec.flag"] == "True"

    def test_emission_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        sections = {"z": {"k": 1}, "a": {"j": 2.5}}
        emit_report(p1, sections, "h1", "h2")
        emit_report(p2, sections, "h1", "h2")
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("key, value, text", [
        ("x", 0.1, "0.10000000000000001"),
        ("x", np.float64(1.0) / 3.0, "0.33333333333333331"),
        ("x", -np.inf, "-inf"),
        ("x", float("nan"), "nan"),
        ("wall_time_s", 1.23456789, "1.234568"),
        ("synthesis_wall_time_s", 0.5, "0.500000"),
        ("update_norms", [0.1, 2.0, 1e-300], "0.10000000000000001,2,1e-300"),
        ("converged", True, "True"),
        ("cg_iters", 38, "38"),
        ("phi_violation_step", np.int64(-1), "-1"),
        ("decay_window", [0.2, 1.0], "0.20000000000000001,1"),
        ("t_star_error", "E never reached delta", "E never reached delta"),
    ], ids=["float", "numpy-float", "-inf", "nan", "wall-time", "prefixed-wall-time",
            "float-list", "bool", "int", "numpy-int", "window", "str"])
    def test_one_rule_formats_every_value(self, tmp_path, key, value, text):
        path = tmp_path / "report.txt"
        emit_report(path, {"sec": {key: value}})
        assert path.read_text().splitlines()[-1] == f"{key} = {text}"

    def test_sections_sorted_and_keys_in_order(self, tmp_path):
        path = tmp_path / "report.txt"
        emit_report(path, {"b": {"z": 1, "a": 2}, "a": {"y": 3}}, "c", "g")
        assert path.read_text().splitlines() == [
            "config_hash = c", "grid_hash = g", "[a]", "y = 3", "[b]", "z = 1", "a = 2"]
