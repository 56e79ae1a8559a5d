"""Manufactured-solution harness: forcing correctness and convergence orders."""

import pytest

from bousscontrol.forward import SystemSpec
from bousscontrol.mms import build_manufactured, run_mms
from bousscontrol.operators import ViscosityLaw


def test_zero_manufactured_solution_zero_error():
    spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1), heating_on=True)
    rep = run_mms(spec, grid_sizes=(16, 32), t_final=0.1, nt=16,
                  amp_vel=0.0, amp_theta=0.0, amp_p=0.0)
    assert rep.errors == [0.0, 0.0]


def test_constant_in_time_zero_pressure_orders():
    # with amp_p = 0 the steady manufactured state is dt-free: orders ~ 2
    # at fixed nt
    spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1), heating_on=True)
    rep = run_mms(spec, grid_sizes=(16, 32, 64), t_final=0.25, nt=64,
                  amp_p=0.0, nt_scale_quadratic=False)
    assert 1.7 <= rep.order <= 2.3
    assert 1.7 <= rep.order_theta <= 2.3


def test_constant_in_time_zero_pressure_dt_independent():
    spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1), heating_on=True)
    errs = []
    for nt in (32, 64):
        rep = run_mms(spec, grid_sizes=(16, 32), t_final=0.25, nt=nt,
                      amp_p=0.0, nt_scale_quadratic=False)
        errs.append(rep.errors[-1])
    assert errs[0] == pytest.approx(errs[1], rel=5e-2)


def test_time_dependent_orders():
    spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1), heating_on=True)
    rep = run_mms(spec, grid_sizes=(16, 32), t_final=0.25, nt=16,
                  time_dependent=True)
    assert 1.6 <= rep.order <= 2.4


def test_lp_variant_orders():
    spec = SystemSpec(law=ViscosityLaw("lp", 1.0, 0.1, p=4.0),
                      law_theta=ViscosityLaw("lp", 1.0, 0.1, p=4.0),
                      theta_coeff_source="temperature", heating_on=True)
    rep = run_mms(spec, grid_sizes=(16, 32), t_final=0.2, nt=16)
    assert 1.6 <= rep.order <= 2.4


def test_forcing_balances_pde_residual():
    # independent check of the symbolic forcing: the discrete residual of the
    # manufactured state under the forced step is O(h^2), not O(1)
    import bousscontrol.operators as ops
    from bousscontrol.forward import NonlinearPropagator
    from bousscontrol.grids import GridSpec, TimeGrid

    spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1), heating_on=True)
    mms = build_manufactured(spec, amp_vel=0.05, amp_theta=0.1, amp_p=0.0)
    drift = []
    for n in (16, 32):
        grid = GridSpec(n, n)
        tg = TimeGrid(1.0, 256)
        prop = NonlinearPropagator(grid, tg, spec)
        u0, v0 = mms.sample_velocity(grid, 0.0)
        th0 = mms.sample_theta(grid, 0.0)
        xu, yu = grid.u_positions()
        xv, yv = grid.v_positions()
        xc, yc = grid.cell_centers()
        f = (mms.forcing["fu"](xu, yu, 0.0), mms.forcing["fv"](xv, yv, 0.0),
             mms.forcing["fth"](xc, yc, 0.0))
        u1, v1, th1 = prop.step(u0, v0, th0, None, f)
        drift.append((ops.norm_velocity(u1 - u0, v1 - v0, grid)
                      + ops.norm_cells(th1 - th0, grid)) / tg.dt)
    assert drift[1] < drift[0] / 2.0
    assert drift[0] < 1.0  # consistent forcing: residual drift is small
