"""Manufactured-solution harness: forcing correctness and convergence orders."""

import numpy as np
import pytest
import sympy as sp

from bousscontrol.forward import SystemSpec
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.mms import _lp_profile_constant, build_manufactured, run_mms
from bousscontrol.operators import ViscosityLaw


def sympy_manufactured(spec, amp_vel, amp_theta, amp_p, time_dependent, t_scale):
    """The oracle: the manufactured fields and the residual forcing of
    ``build_manufactured``, differentiated symbolically.  Returns the two
    dicts of functions f(x, y, t) ("u", "v", "theta", "p"; "fu", "fv", "fth")."""
    x, y, t = sp.symbols("x y t", real=True)
    pi = sp.pi
    g = 1 + sp.Rational(3, 10) * sp.sin(pi * t / t_scale) if time_dependent else sp.Integer(1)

    psi = amp_vel * sp.sin(pi * x) ** 2 * sp.sin(pi * y) ** 2 * g
    u = sp.diff(psi, y)
    v = -sp.diff(psi, x)
    theta = amp_theta * sp.sin(pi * x) * sp.sin(pi * y) * g
    press = amp_p * sp.cos(pi * x) * sp.cos(pi * y) * g
    g2 = g * g

    def coefficient(law, gsq, on_velocity):
        if on_velocity and law.p == 2.0:
            return law.nu0 + law.nu1 * 2 * pi ** 4 * amp_vel ** 2 * g2
        const = _lp_profile_constant(sp.lambdify((x, y), gsq, "numpy"), law.p)
        return law.nu0 + law.nu1 * const * g2

    u1, v1, th1 = u / g, v / g, theta / g
    gsq_vel = (sp.diff(u1, x) ** 2 + sp.diff(u1, y) ** 2
               + sp.diff(v1, x) ** 2 + sp.diff(v1, y) ** 2)
    nu = coefficient(spec.law, gsq_vel, True)
    if spec.theta_coeff_source == "velocity":
        nu_th = nu
    else:
        nu_th = coefficient(spec.law, sp.diff(th1, x) ** 2 + sp.diff(th1, y) ** 2, False)

    lap = lambda f: sp.diff(f, x, 2) + sp.diff(f, y, 2)
    conv_u = u * sp.diff(u, x) + v * sp.diff(u, y)
    conv_v = u * sp.diff(v, x) + v * sp.diff(v, y)
    conv_th = u * sp.diff(theta, x) + v * sp.diff(theta, y)

    fu = sp.diff(u, t) - nu * lap(u) + conv_u + sp.diff(press, x)
    fv = sp.diff(v, t) - nu * lap(v) + conv_v + sp.diff(press, y) - spec.buoyancy * theta
    fth = sp.diff(theta, t) - nu_th * lap(theta) + conv_th
    if spec.heating_on:
        heat = (sp.diff(u, x) ** 2 + sp.Rational(1, 2) * (sp.diff(u, y) + sp.diff(v, x)) ** 2
                + sp.diff(v, y) ** 2)
        fth = fth - nu * heat

    def lamb(expr):
        f = sp.lambdify((x, y, t), expr, "numpy")
        return lambda xx, yy, tt: np.broadcast_to(
            np.asarray(f(xx, yy, tt), dtype=float), np.shape(xx))

    return ({"u": lamb(u), "v": lamb(v), "theta": lamb(theta), "p": lamb(press)},
            {"fu": lamb(fu), "fv": lamb(fv), "fth": lamb(fth)})


LAWS = {  # name -> SystemSpec keyword arguments
    "l2": dict(law=ViscosityLaw(1.0, 0.1)),
    "lp4": dict(law=ViscosityLaw(0.5, 0.2, p=4.0)),
    "lp6": dict(law=ViscosityLaw(0.5, 0.2, p=6.0)),
    "lp4-temperature": dict(law=ViscosityLaw(0.3, 0.4, p=4.0),
                            theta_coeff_source="temperature"),
    "l2-temperature": dict(law=ViscosityLaw(1.0, 0.1),
                           theta_coeff_source="temperature"),
}


@pytest.mark.parametrize("time_dependent", [False, True], ids=["steady", "unsteady"])
@pytest.mark.parametrize("heating_on", [True, False], ids=["heating", "no-heating"])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_closed_form_matches_sympy(law, heating_on, time_dependent):
    """The closed-form fields and forcing against the symbolic derivation on
    a grid of points, at three times, to roundoff."""
    spec = SystemSpec(heating_on=heating_on, **LAWS[law])
    amps = dict(amp_vel=0.3, amp_theta=0.7, amp_p=0.2, time_dependent=time_dependent,
                t_scale=0.4)
    mms = build_manufactured(spec, **amps)
    fields, forcing = sympy_manufactured(spec, **amps)
    pts = np.linspace(0.0, 1.0, 23) + 0.01 * np.sin(np.arange(23.0))
    x, y = np.meshgrid(pts, pts[::-1], indexing="ij")
    for t in (0.0, 0.13, 0.35):
        for got, want in ((mms.fields, fields), (mms.forcing, forcing)):
            for name in want:
                a, b = got[name](x, y, t), want[name](x, y, t)
                assert a.shape == x.shape
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), name


def test_zero_manufactured_solution_zero_error():
    spec = SystemSpec(law=ViscosityLaw(1.0, 0.1), heating_on=True)
    rep = run_mms(spec, grid_sizes=(16, 32), t_final=0.1, nt=16,
                  amp_vel=0.0, amp_theta=0.0, amp_p=0.0)
    assert rep.errors == [0.0, 0.0]


def test_constant_in_time_zero_pressure_orders():
    # with amp_p = 0 the steady manufactured state is dt-free: orders ~ 2
    # at fixed nt
    spec = SystemSpec(law=ViscosityLaw(1.0, 0.1), heating_on=True)
    rep = run_mms(spec, grid_sizes=(16, 32, 64), t_final=0.25, nt=64,
                  amp_p=0.0, nt_scale_quadratic=False)
    assert 1.7 <= rep.order <= 2.3
    assert 1.7 <= rep.order_theta <= 2.3


def test_constant_in_time_zero_pressure_dt_independent():
    spec = SystemSpec(law=ViscosityLaw(1.0, 0.1), heating_on=True)
    errs = []
    for nt in (32, 64):
        rep = run_mms(spec, grid_sizes=(16, 32), t_final=0.25, nt=nt,
                      amp_p=0.0, nt_scale_quadratic=False)
        errs.append(rep.errors[-1])
    assert errs[0] == pytest.approx(errs[1], rel=5e-2)


def test_time_dependent_orders():
    spec = SystemSpec(law=ViscosityLaw(1.0, 0.1), heating_on=True)
    rep = run_mms(spec, grid_sizes=(16, 32), t_final=0.25, nt=16,
                  time_dependent=True)
    assert 1.6 <= rep.order <= 2.4


def test_lp_variant_orders():
    spec = SystemSpec(law=ViscosityLaw(1.0, 0.1, p=4.0),
                      theta_coeff_source="temperature", heating_on=True)
    rep = run_mms(spec, grid_sizes=(16, 32), t_final=0.2, nt=16)
    assert 1.6 <= rep.order <= 2.4


def test_forcing_balances_pde_residual():
    # independent check of the closed-form forcing: the discrete residual of the
    # manufactured state under the forced step is O(h^2), not O(1)
    import bousscontrol.operators as ops
    from bousscontrol.forward import NonlinearPropagator

    spec = SystemSpec(law=ViscosityLaw(1.0, 0.1), heating_on=True)
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
