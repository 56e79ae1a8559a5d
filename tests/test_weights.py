"""Weight family: golden values frozen from an mpmath oracle, gap/chain
checks, and the blow-up structure near the terminal time."""

import mpmath as mp
import numpy as np
import pytest

from bousscontrol.exceptions import DomainError
from bousscontrol.geometry import ControlPatch, build_eta0
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.weights import (WeightParams, check_weight_chain,
                                  check_weight_gap, control_weight_logs, ell_array,
                                  eval_weights, find_min_m)
from bousscontrol.fieldio import export_weight_csv

from conftest import reference_space_weights

# frozen from the big-float oracle below (60 digits)
GOLDEN_MARGIN_M100 = 1.9355760411774314e54
GOLDEN_MARGIN_M401 = -1610.5084842716144
GOLDEN_MIN_M = 13.8540678851972
GOLDEN_LOG_RHO2_HALF = 17455393788122.329   # lam=1, m=20, s=1, T=1, t=0.5
GOLDEN_LOG_RHO1_3Q = 56516654978551.852     # same params, t=0.75


def oracle_margin(lam, m):
    mp.mp.dps = 60
    lam, m = map(mp.mpf, (lam, m))
    return mp.e ** (lam * m) * (mp.e ** (lam * m / 4) - 18 * mp.e ** lam + 17)


def oracle_log_composite(t, t_final, lam, m, s, j, k, xi_pow, use_xi_star=False):
    mp.mp.dps = 60
    t, t_final, lam, m, s = map(mp.mpf, (t, t_final, lam, m, s))
    ell_v = t_final ** 2 / 4 if t <= t_final / 2 else t * (t_final - t)
    u = ell_v ** -4
    big_a = mp.e ** (mp.mpf(5) / 4 * lam * m)
    big_b = mp.e ** (lam * (m + 1))
    big_c = mp.e ** (lam * m)
    combo = (j * (big_a - big_b) - k * (big_a - big_c)) * u
    xi = (big_c if use_xi_star else big_b) * u
    return float(combo * s - xi_pow * mp.log(xi))


def _eta0(nx):
    return build_eta0(GridSpec(nx, nx), ControlPatch((0.5, 0.5), (0.2, 0.2)))


def tables_for(params, nx=16, nt=64, t_final=1.0):
    return eval_weights(params, _eta0(nx), TimeGrid(t_final, nt))


def space_weights_for(params, nx=16, nt=64, t_final=1.0):
    """The space-dependent log alpha and log xi on the grid of ``tables_for``."""
    return reference_space_weights(params, _eta0(nx), TimeGrid(t_final, nt))


class TestEll:
    def test_plateau_branch(self):
        assert ell_array(0.5, 1.0) == 0.25

    def test_parabolic_branch(self):
        assert ell_array(0.75, 1.0) == pytest.approx(0.1875, abs=0.0)

    def test_endpoint_and_continuity(self):
        assert ell_array(1.0, 1.0) == 0.0
        t_half = 0.5
        assert ell_array(t_half, 1.0) == pytest.approx(t_half * (1.0 - t_half), rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ell_array(-0.1, 1.0)
        with pytest.raises(DomainError):
            ell_array(1.1, 1.0)


class TestGapAndMinM:
    def test_margin_golden_m100(self):
        p = WeightParams(s=1.0, lam=1.0, m=100.0)
        assert check_weight_gap(p) == pytest.approx(GOLDEN_MARGIN_M100, rel=1e-12)
        assert check_weight_gap(p) == pytest.approx(float(oracle_margin(1, 100)), rel=1e-12)

    def test_margin_golden_m401_negative(self):
        p = WeightParams(s=1.0, lam=1.0, m=4.01)
        assert check_weight_gap(p) == pytest.approx(GOLDEN_MARGIN_M401, rel=1e-12)
        assert check_weight_gap(p) < 0.0

    def test_min_m_golden(self):
        m = find_min_m(1.0)
        assert m == pytest.approx(GOLDEN_MIN_M, abs=2e-3)

    def test_min_m_postcondition(self):
        m = find_min_m(1.0)
        assert check_weight_gap(WeightParams(1.0, 1.0, m)) > 0.0
        below = m - 1e-2
        assert below <= 4.0 or check_weight_gap(WeightParams(1.0, 1.0, below)) <= 0.0

    def test_min_m_closed_form_oracle(self):
        # margin > 0 <=> e^{lam m/4} > 18 e^{lam} - 17
        for lam in (0.5, 1.0, 2.0):
            m = find_min_m(lam)
            mp.mp.dps = 40
            m_exact = float(4 * mp.log(18 * mp.e ** mp.mpf(lam) - 17) / mp.mpf(lam))
            assert m == pytest.approx(m_exact, abs=2e-3)

    def test_feasibility_monotone_in_m(self):
        m = find_min_m(1.0)
        assert oracle_margin(1, 2 * m) > 0

    def test_min_m_bit_identical_at_default_lambda(self):
        # the resolved weights.m of every default config
        assert find_min_m(1.0) == 13.854736328303773

    @pytest.mark.parametrize("lam", [300.0, 1000.0])
    def test_large_lambda_margin_never_nan(self, lam):
        # e^{lam m} alone overflows here; the bracket is carried as a sign
        # and a log-magnitude, so the margin is +inf or finite, never NaN
        m = find_min_m(lam)
        mp.mp.dps = 40
        m_exact = float(4 * mp.log(18 * mp.e ** mp.mpf(lam) - 17) / mp.mpf(lam))
        assert m_exact < m <= m_exact + 2e-3
        assert check_weight_gap(WeightParams(1.0, lam, m)) > 0.0
        assert check_weight_gap(WeightParams(1.0, lam, m_exact - 2e-3)) < 0.0

    @pytest.mark.parametrize("lam", [300.0, 1000.0])
    def test_large_lambda_tables(self, lam):
        # log alpha and log xi stay finite before T; s * alpha itself is
        # ~e^(1500) or more, past the double range, so the composite logs
        # cannot be tabulated and eval_weights says so by name
        p = WeightParams(1.0, lam, find_min_m(lam))
        with pytest.raises(DomainError, match="'rho' leaves the double range"):
            tables_for(p, nt=32)
        # with s small enough to bring s * alpha back into range the whole
        # family is finite before T (lam = 200 still overflows e^{lam m})
        tame = WeightParams(1e-300, 200.0, find_min_m(200.0))
        tb, sp = tables_for(tame, nt=32), space_weights_for(tame, nt=32)
        for arr in (tb.raw_log_alpha_star, tb.raw_log_alpha_hat, tb.raw_log_xi_star,
                    tb.raw_log_xi_hat, sp.raw_log_alpha, sp.raw_log_xi,
                    *tb.raw_composites.values()):
            assert np.all(np.isfinite(arr[:-1]))
            assert np.all(arr[-1] == np.inf)


class TestEvalWeights:
    def test_alpha_star_attains_min_on_plateau(self):
        p = WeightParams(s=1.0, lam=1.0, m=20.0)
        tb = tables_for(p)
        raw = tb.raw_log_alpha_star
        plateau = raw[tb.t <= 0.5]
        assert np.allclose(plateau, plateau[0])
        assert np.all(raw[:-1] >= plateau[0] - 1e-12)

    def test_alpha_star_closed_form(self):
        # alpha* uses eta = 0:  (e^{5 lam m/4} - e^{lam m}) / ell^4
        p = WeightParams(s=1.0, lam=1.0, m=20.0)
        tb = tables_for(p)
        mp.mp.dps = 50
        expected = float((mp.e ** mp.mpf(25) - mp.e ** mp.mpf(20)) * 256)
        k = np.searchsorted(tb.t, 0.5)
        assert np.exp(tb.raw_log_alpha_star[k]) == pytest.approx(expected, rel=1e-12)

    def test_log_rho2_golden(self):
        p = WeightParams(s=1.0, lam=1.0, m=20.0)
        tb = tables_for(p)
        k = np.searchsorted(tb.t, 0.5)
        assert tb.raw("rho2")[k] == pytest.approx(GOLDEN_LOG_RHO2_HALF, rel=1e-13)
        assert tb.raw("rho2")[k] == pytest.approx(
            oracle_log_composite(0.5, 1.0, 1.0, 20.0, 1.0, 4, 3, 8), rel=1e-13)

    def test_log_rho1_golden(self):
        p = WeightParams(s=1.0, lam=1.0, m=20.0)
        tb = tables_for(p)
        k = np.searchsorted(tb.t, 0.75)
        assert tb.raw("rho1")[k] == pytest.approx(GOLDEN_LOG_RHO1_3Q, rel=1e-13)

    def test_extrema_consistency(self):
        p = WeightParams(s=1.0, lam=1.0, m=14.0)
        tb, sp = tables_for(p), space_weights_for(p)
        a = sp.raw_log_alpha[:-1]
        assert np.all(a <= tb.raw_log_alpha_star[:-1, None, None] + 1e-10)
        assert np.all(a >= tb.raw_log_alpha_hat[:-1, None, None] - 1e-10)
        x = sp.raw_log_xi[:-1]
        assert np.all(x <= tb.raw_log_xi_hat[:-1, None, None] + 1e-12)
        assert np.all(x >= tb.raw_log_xi_star[:-1, None, None] - 1e-12)

    def test_xi_hat_nondecreasing_after_half(self):
        p = WeightParams(s=1.0, lam=1.0, m=14.0)
        tb = tables_for(p)
        sel = tb.t >= 0.5
        diffs = np.diff(tb.raw_log_xi_hat[sel])
        assert np.all(diffs >= -1e-12)

    def test_blowup_and_reciprocal_decay(self):
        # under the gap condition every composite weight diverges at t=T
        # (log -> +inf), so the reciprocals vanish
        m = find_min_m(1.0) + 0.5
        p = WeightParams(s=1.0, lam=1.0, m=m)
        tb = tables_for(p, nt=128)
        for name in ("rho", "rho1", "rho2", "rho3", "mu1", "mu2", "mu3", "kappa"):
            raw = tb.raw(name)
            assert raw[-1] == np.inf
            assert np.exp(-raw[-1]) == 0.0

    def test_deterministic(self):
        p = WeightParams(s=1.0, lam=1.0, m=14.0)
        a = tables_for(p)
        b = tables_for(p)
        assert np.array_equal(a.raw("rho2"), b.raw("rho2"))
        assert np.array_equal(a.raw_log_alpha_star, b.raw_log_alpha_star)


class TestChain:
    def test_all_ratios_finite_default_params(self):
        m = find_min_m(1.0)
        p = WeightParams(s=1.0, lam=1.0, m=m)
        tb = tables_for(p, nt=256)
        rep = check_weight_chain(tb, 1.0 - 2.0 / 256)
        assert rep.all_finite, rep.ratios

    def test_kappa_over_mu3_at_most_one(self):
        # kappa/mu3 = e^{s(ahat - astar)} <= 1 since ahat <= astar
        m = find_min_m(1.0)
        tb = tables_for(WeightParams(1.0, 1.0, m), nt=128)
        rep = check_weight_chain(tb, 1.0 - 2.0 / 128)
        assert rep.ratios["kappa_over_mu3"] <= 1.0 + 1e-12

    def test_doubling_s_keeps_chain_finite(self):
        m = find_min_m(1.0)
        tb = tables_for(WeightParams(2.0, 1.0, m), nt=256)
        rep = check_weight_chain(tb, 1.0 - 2.0 / 256)
        assert rep.all_finite

    def test_gap_violation_reported_not_raised(self):
        # m barely above 4 violates the gap; rho3/mu2^2 must blow up
        tb = tables_for(WeightParams(1.0, 1.0, 4.2), nt=128)
        rep = check_weight_chain(tb, 1.0 - 2.0 / 128)
        assert not rep.all_finite
        assert not np.isfinite(rep.ratios["rho3_over_mu2_sq"])


class TestControlWeightProfile:
    def test_normalized_clipped_monotone(self):
        m = find_min_m(1.0)
        tb = tables_for(WeightParams(1.0, 1.0, m), nt=64)
        lw = control_weight_logs(tb, 1.0 - 2.0 / 64)
        assert lw.min() == 0.0
        assert np.all(np.isfinite(lw))
        assert np.all(np.diff(lw) >= -1e-12)

    def test_t_clip_freeze(self):
        m = find_min_m(1.0)
        tb = tables_for(WeightParams(1.0, 1.0, m), nt=64)
        lw = control_weight_logs(tb, 0.5)
        k = np.searchsorted(tb.t, 0.5)
        assert np.all(lw[k:] == lw[k])


def test_csv_export_columns(tmp_path):
    m = find_min_m(1.0)
    tb = tables_for(WeightParams(1.0, 1.0, m), nt=32)
    path = tmp_path / "weights.csv"
    export_weight_csv(tb, path)
    header = path.read_text().splitlines()[0]
    assert header == ("t,log_alpha_star,log_alpha_hat,log_xi_star,log_xi_hat,"
                      "log_rho,log_rho1,log_rho2,log_rho3,log_mu1,log_mu2,"
                      "log_mu3,log_kappa")
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape[0] == 33
    for name in data.dtype.names[1:]:
        assert np.all(np.isfinite(data[name][:-1])), name
        assert data[name][-1] == np.inf, name


def test_weight_params_validation():
    with pytest.raises(DomainError):
        WeightParams(s=-1.0)
    with pytest.raises(DomainError):
        WeightParams(lam=0.0)
    with pytest.raises(DomainError):
        WeightParams(m=4.0)
    for lam in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="lambda must be positive"):
            find_min_m(lam)
