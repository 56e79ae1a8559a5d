"""Manufactured-solution verification of the nonlinear solver.

A divergence-free velocity pair from the stream function
psi = A sin^2(pi x) sin^2(pi y), a temperature mode theta = B sin sin and a
zero-mean pressure are substituted into the PDE; the residual forcing is
derived symbolically (sympy) once per configuration and injected so the
manufactured triple is the exact solution.  Errors are accumulated in L^2(Q)
and the spatial order is fitted over a grid sequence.

For the L^2 viscosity law the nonlocal integral has the closed form
integral |grad y|^2 = 2 pi^4 A^2 g(t)^2 on the unit square (g = time factor);
the L^p law uses one high-resolution quadrature constant with the same g^2
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .forward import SystemSpec, run_nonlinear


def _lp_profile_constant(expr_gradsq, p: float, n: int = 512) -> float:
    """(integral |grad|^p dx)^(2/p) of the unit-amplitude profile, by
    high-resolution midpoint quadrature."""
    xs = (np.arange(n) + 0.5) / n
    x, y = np.meshgrid(xs, xs, indexing="ij")
    vals = expr_gradsq(x, y) ** (p / 2.0)
    return float((vals.sum() / (n * n)) ** (2.0 / p))


@dataclass
class ManufacturedSolution:
    """Callable bundles for the exact fields and the residual forcing."""

    amp_vel: float
    amp_theta: float
    amp_p: float
    time_dependent: bool
    fields: dict       # name -> f(x, y, t) vectorized
    forcing: dict      # "fu", "fv", "fth" -> f(x, y, t)

    def sample_velocity(self, grid: GridSpec, t: float):
        xu, yu = grid.u_positions()
        xv, yv = grid.v_positions()
        return self.fields["u"](xu, yu, t), self.fields["v"](xv, yv, t)

    def sample_theta(self, grid: GridSpec, t: float):
        xc, yc = grid.cell_centers()
        return self.fields["theta"](xc, yc, t)


def build_manufactured(spec: SystemSpec, amp_vel: float = 0.05,
                       amp_theta: float = 0.1, amp_p: float = 0.05,
                       time_dependent: bool = False,
                       t_scale: float = 1.0) -> ManufacturedSolution:
    """Symbolically derive the residual forcing for the chosen system."""
    import sympy as sp

    x, y, t = sp.symbols("x y t", real=True)
    pi = sp.pi
    g = 1 + sp.Rational(3, 10) * sp.sin(pi * t / t_scale) if time_dependent else sp.Integer(1)

    psi = amp_vel * sp.sin(pi * x) ** 2 * sp.sin(pi * y) ** 2 * g
    u = sp.diff(psi, y)
    v = -sp.diff(psi, x)
    theta = amp_theta * sp.sin(pi * x) * sp.sin(pi * y) * g
    press = amp_p * sp.cos(pi * x) * sp.cos(pi * y) * g

    g2 = g * g

    def coefficient(law, gsq, on_velocity: bool):
        """``law`` on the field whose unit-amplitude |grad|^2 density is
        ``gsq``: closed form for l2 on the velocity, else a quadrature
        constant (with p = 2 for l2); both scale with g^2."""
        if on_velocity and law.variant == "l2":
            return law.nu0 + law.nu1 * 2 * pi ** 4 * amp_vel ** 2 * g2
        p = law.p if law.variant == "lp" else 2.0
        const = _lp_profile_constant(sp.lambdify((x, y), gsq, "numpy"), p)
        return law.nu0 + law.nu1 * const * g2

    u1, v1, th1 = u / g, v / g, theta / g
    gsq_vel = (sp.diff(u1, x) ** 2 + sp.diff(u1, y) ** 2
               + sp.diff(v1, x) ** 2 + sp.diff(v1, y) ** 2)
    nu = coefficient(spec.law, gsq_vel, True)
    if spec.theta_coeff_source == "velocity":
        nu_th = coefficient(spec.theta_law, gsq_vel, True)
    else:
        nu_th = coefficient(spec.theta_law, sp.diff(th1, x) ** 2 + sp.diff(th1, y) ** 2,
                            False)

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
            np.asarray(f(xx, yy, tt), dtype=float), np.shape(xx)).copy()

    return ManufacturedSolution(
        amp_vel=amp_vel, amp_theta=amp_theta, amp_p=amp_p,
        time_dependent=time_dependent,
        fields={"u": lamb(u), "v": lamb(v), "theta": lamb(theta), "p": lamb(press)},
        forcing={"fu": lamb(fu), "fv": lamb(fv), "fth": lamb(fth)},
    )


@dataclass
class MmsReport:
    grid_sizes: list
    errors: list           # combined L2(Q) state errors per grid
    errors_velocity: list
    errors_theta: list
    order: float
    order_velocity: float
    order_theta: float


def run_mms(spec: SystemSpec, grid_sizes=(16, 32, 64), t_final: float = 0.25,
            nt: int = 64, amp_vel: float = 0.05, amp_theta: float = 0.1,
            amp_p: float = 0.05, time_dependent: bool = False,
            nt_scale_quadratic: bool = True) -> MmsReport:
    """Refinement study: integrate with manufactured forcing, measure L2(Q)
    errors against the exact fields, fit the spatial order.

    The non-incremental pressure splitting carries an O(dt) velocity error
    whenever the manufactured pressure is nonzero, so the default scales
    dt ~ h^2 across the grid sequence to isolate the spatial order.  With
    amp_p = 0 and a time-constant solution the IMEX fixed point is fully
    dt-independent and ``nt_scale_quadratic=False`` is appropriate.
    """
    if len(grid_sizes) < 2:
        raise DomainError("need at least two grid sizes for an order fit")
    mms = build_manufactured(spec, amp_vel=amp_vel, amp_theta=amp_theta,
                             amp_p=amp_p, time_dependent=time_dependent,
                             t_scale=t_final)
    errs, errs_v, errs_t, hs = [], [], [], []
    base_n = grid_sizes[0]
    for n in grid_sizes:
        grid = GridSpec(n, n)
        steps = nt * (n // base_n) ** 2 if nt_scale_quadratic else nt
        tgrid = TimeGrid(t_final, steps)
        xu, yu = grid.u_positions()
        xv, yv = grid.v_positions()
        xc, yc = grid.cell_centers()

        cache: dict = {}

        def forcing(k, _c=cache, _t=tgrid):
            key = k if time_dependent else 0
            if key not in _c:
                _c.clear()
                tk = key * _t.dt
                _c[key] = (mms.forcing["fu"](xu, yu, tk),
                           mms.forcing["fv"](xv, yv, tk),
                           mms.forcing["fth"](xc, yc, tk))
            return _c[key]

        y0 = mms.sample_velocity(grid, 0.0)
        th0 = mms.sample_theta(grid, 0.0)

        acc = {"v": 0.0, "t": 0.0}

        def on_state(k, u, v, th, _g=grid, _t=tgrid):
            tk = k * _t.dt
            ue, ve = mms.sample_velocity(_g, tk)
            te = mms.sample_theta(_g, tk)
            wgt = _t.dt if 0 < k < _t.nt else 0.5 * _t.dt
            acc["v"] += wgt * ops.norm_velocity(u - ue, v - ve, _g) ** 2
            acc["t"] += wgt * ops.norm_cells(th - te, _g) ** 2

        run_nonlinear(y0, th0, None, spec, grid, tgrid, forcing=forcing,
                      store=False, on_state=on_state)
        errs_v.append(float(np.sqrt(acc["v"])))
        errs_t.append(float(np.sqrt(acc["t"])))
        errs.append(float(np.sqrt(acc["v"] + acc["t"])))
        hs.append(grid.hx)

    def order_of(e):
        if min(e) <= 0.0:
            return float("inf")
        return float(np.polyfit(np.log(hs), np.log(e), 1)[0])

    return MmsReport(
        grid_sizes=list(grid_sizes), errors=errs, errors_velocity=errs_v,
        errors_theta=errs_t, order=order_of(errs),
        order_velocity=order_of(errs_v), order_theta=order_of(errs_t))
