"""Manufactured-solution verification of the nonlinear solver.

A divergence-free velocity pair from the stream function
psi = A sin^2(pi x) sin^2(pi y) g(t), a temperature mode theta = B sin sin g
and a zero-mean pressure C cos cos g are substituted into the PDE; the
residual forcing, written out in closed form, is injected so the
manufactured triple is the exact solution.  Errors are accumulated in L^2(Q)
and the spatial order is fitted over a grid sequence.

For the L^2 viscosity law the nonlocal integral has the closed form
integral |grad y|^2 = 2 pi^4 A^2 g(t)^2 on the unit square; the L^p law uses
one high-resolution quadrature constant with the same g^2 scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .grids import GridSpec, TimeGrid
from . import operators as ops
from .forward import SystemSpec, run_nonlinear


def _lp_profile_constant(gradsq, p: float, n: int = 512) -> float:
    """(integral |grad|^p dx)^(2/p) of the profile whose |grad|^2 density is
    ``gradsq(x, y)``, by high-resolution midpoint quadrature."""
    xs = (np.arange(n) + 0.5) / n
    x, y = np.meshgrid(xs, xs, indexing="ij")
    vals = gradsq(x, y) ** (p / 2.0)
    return float((vals.sum() / (n * n)) ** (2.0 / p))


def _sin_sq(s):
    """sin^2(pi s) and its first three derivatives."""
    w = 2.0 * np.pi * s
    return (np.sin(np.pi * s) ** 2, np.pi * np.sin(w), 2.0 * np.pi ** 2 * np.cos(w),
            -4.0 * np.pi ** 3 * np.sin(w))


class _Profile:
    """The manufactured fields at g = 1 and the derivatives the forcing
    needs, at the points (x, y).  With psi = A X(x) Y(y), X = sin^2(pi x):
    u = psi_y = A X Y', v = -psi_x = -A X' Y."""

    def __init__(self, amps, x, y):
        a, b, c = amps
        x0, x1, x2, x3 = _sin_sq(x)
        y0, y1, y2, y3 = _sin_sq(y)
        self.u, self.v = a * x0 * y1, -a * x1 * y0
        # (u_x, u_y, v_x, v_y), the ``operators.center_gradients`` order
        self.grads = ux, uy, vx, vy = a * x1 * y1, a * x0 * y2, -a * x2 * y0, -a * x1 * y1
        self.conv_u, self.conv_v = self.u * ux + self.v * uy, self.u * vx + self.v * vy
        self.lap_u = a * (x2 * y1 + x0 * y3)
        self.lap_v = -a * (x3 * y0 + x1 * y2)
        sx, cx, sy, cy = np.sin(np.pi * x), np.cos(np.pi * x), np.sin(np.pi * y), np.cos(np.pi * y)
        self.theta = b * sx * sy
        self.theta_x, self.theta_y = np.pi * b * cx * sy, np.pi * b * sx * cy
        self.lap_theta = -2.0 * np.pi ** 2 * self.theta
        self.p = c * cx * cy
        self.p_x, self.p_y = -np.pi * c * sx * cy, -np.pi * c * cx * sy


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
    """The exact fields and the residual forcing of the chosen system, with
    the time factor g(t) = 1 + 0.3 sin(pi t / t_scale), or g = 1."""
    amps = (amp_vel, amp_theta, amp_p)

    def g(t):
        return 1.0 + 0.3 * np.sin(np.pi * t / t_scale) if time_dependent else 1.0

    def dg(t):
        return 0.3 * np.pi / t_scale * np.cos(np.pi * t / t_scale) if time_dependent else 0.0

    def coefficient(law, gradsq, on_velocity: bool):
        """``law`` on the field whose g = 1 |grad|^2 density is ``gradsq``,
        as a function of t: closed form for p = 2 on the velocity, else a
        quadrature constant; both scale with g^2."""
        if on_velocity and law.p == 2.0:
            const = 2.0 * np.pi ** 4 * amp_vel ** 2
        else:
            const = _lp_profile_constant(lambda x, y: gradsq(_Profile(amps, x, y)), law.p)
        return lambda t: law.nu0 + law.nu1 * const * g(t) ** 2

    def grad_sq_velocity(f):
        return ops.grad_sq_from_gradients(f.grads)

    nu = coefficient(spec.law, grad_sq_velocity, True)
    nu_th = (nu if spec.theta_coeff_source == "velocity" else
             coefficient(spec.law, lambda f: f.theta_x ** 2 + f.theta_y ** 2, False))

    def fu(x, y, t):
        f, gt = _Profile(amps, x, y), g(t)
        return f.u * dg(t) - nu(t) * gt * f.lap_u + gt * gt * f.conv_u + gt * f.p_x

    def fv(x, y, t):
        f, gt = _Profile(amps, x, y), g(t)
        return (f.v * dg(t) - nu(t) * gt * f.lap_v + gt * gt * f.conv_v + gt * f.p_y
                - spec.buoyancy * gt * f.theta)

    def fth(x, y, t):
        f, gt = _Profile(amps, x, y), g(t)
        out = (f.theta * dg(t) - nu_th(t) * gt * f.lap_theta
               + gt * gt * (f.u * f.theta_x + f.v * f.theta_y))
        if spec.heating_on:
            out -= nu(t) * gt * gt * ops.heating_from_gradients(f.grads)
        return out

    def field(name):
        return lambda x, y, t: getattr(_Profile(amps, x, y), name) * g(t)

    return ManufacturedSolution(
        amp_vel=amp_vel, amp_theta=amp_theta, amp_p=amp_p,
        time_dependent=time_dependent,
        fields={"u": field("u"), "v": field("v"), "theta": field("theta"), "p": field("p")},
        forcing={"fu": fu, "fv": fv, "fth": fth},
    )


def mms_errors(spec: SystemSpec, mms: ManufacturedSolution, grid: GridSpec,
               tgrid: TimeGrid):
    """(velocity, theta, combined state) errors in L2(Q) of the forced run on
    ``grid`` and ``tgrid`` against the manufactured fields, by the
    trapezoidal rule over the time levels."""
    xu, yu = grid.u_positions()
    xv, yv = grid.v_positions()
    xc, yc = grid.cell_centers()
    cache: dict = {}

    def forcing(k):
        key = k if mms.time_dependent else 0
        if key not in cache:
            cache.clear()
            tk = key * tgrid.dt
            cache[key] = (mms.forcing["fu"](xu, yu, tk), mms.forcing["fv"](xv, yv, tk),
                          mms.forcing["fth"](xc, yc, tk))
        return cache[key]

    acc = {"v": 0.0, "t": 0.0}

    def on_state(k, t, u, v, th):
        tk = k * tgrid.dt
        ue, ve = mms.sample_velocity(grid, tk)
        te = mms.sample_theta(grid, tk)
        wgt = tgrid.dt if 0 < k < tgrid.nt else 0.5 * tgrid.dt
        acc["v"] += wgt * ops.norm_velocity(u - ue, v - ve, grid) ** 2
        acc["t"] += wgt * ops.norm_cells(th - te, grid) ** 2

    run_nonlinear(mms.sample_velocity(grid, 0.0), mms.sample_theta(grid, 0.0), None, spec,
                  grid, tgrid, forcing=forcing, on_state=on_state)
    return (float(np.sqrt(acc["v"])), float(np.sqrt(acc["t"])),
            float(np.sqrt(acc["v"] + acc["t"])))


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
        for out, err in zip((errs_v, errs_t, errs),
                            mms_errors(spec, mms, grid, TimeGrid(t_final, steps))):
            out.append(err)
        hs.append(grid.hx)

    def order_of(e):
        if min(e) <= 0.0:
            return float("inf")
        return float(np.polyfit(np.log(hs), np.log(e), 1)[0])

    return MmsReport(
        grid_sizes=list(grid_sizes), errors=errs, errors_velocity=errs_v,
        errors_theta=errs_t, order=order_of(errs),
        order_velocity=order_of(errs_v), order_theta=order_of(errs_t))
