"""Isolated layer timings at 32^2, 64^2 and 128^2.

Each layer is called on fixed data through the package's public classes and
functions and timed alone: the median over batches of calls, in
microseconds per call, after one warm-up call.  ``bytes`` is computed from
the shapes of the arrays the call takes and returns, not measured.
The Hessian apply runs on a 16-step horizon so that 128^2 stays cheap.
"""

import statistics
import time

import numpy as np

from bousscontrol import operators as ops
from bousscontrol.control import (ControlTrajectory, LinearControlProblem,
                                  PenaltySpec)
from bousscontrol.forward import (LinearPropagator, NonlinearPropagator,
                                  SystemSpec, scaled_initial_data, sine_theta)
from bousscontrol.geometry import ControlPatch, bump_on_solver_grids
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.operators import SpectralSolver, ViscosityLaw

from tracer import array_bytes

SIZES = (32, 64, 128)
HESSIAN_NT = 16
BUDGET_S = 0.15
MIN_SAMPLES = 5
BATCH_S = 0.005


def _time_us(fn):
    fn()
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    batch = max(1, int(BATCH_S / max(once, 1e-7)))
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < BUDGET_S:
        t = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t) / batch)
    return statistics.median(samples) * 1e6


def _layers_at(n):
    rng = np.random.default_rng(n)
    grid = GridSpec(n, n)
    tgrid = TimeGrid(1.0, 128)
    sp = SpectralSolver(grid)
    bumps = bump_on_solver_grids(grid, ControlPatch((0.5, 0.5), (0.2, 0.2)))
    c = tgrid.dt * 0.05
    cells = rng.standard_normal((n, n))
    u = rng.standard_normal((n + 1, n))
    v = rng.standard_normal((n, n + 1))
    (uy, vy), thy = scaled_initial_data(grid, 1e-2)
    ctrl = (rng.standard_normal(u.shape), rng.standard_normal(v.shape),
            rng.standard_normal(cells.shape))
    lin = LinearPropagator(grid, tgrid, 0.05, bumps=bumps)
    nonlin = NonlinearPropagator(grid, tgrid,
                                 SystemSpec(law=ViscosityLaw(nu0=1.0, nu1=0.1)))

    htgrid = TimeGrid(HESSIAN_NT / 128, HESSIAN_NT)
    prob = LinearControlProblem((grid.zeros_u(), grid.zeros_v()),
                                0.1 * sine_theta(grid), None, None,
                                PenaltySpec(epsilon=1e-6, weight_mode="unweighted"),
                                np.zeros(HESSIAN_NT), grid, htgrid, 0.05, bumps)
    z = ControlTrajectory.zeros(grid, HESSIAN_NT)
    z.vu[:] = rng.standard_normal(z.vu.shape) * prob.masks[0]
    z.vv[:] = rng.standard_normal(z.vv.shape) * prob.masks[1]
    z.v0[:] = rng.standard_normal(z.v0.shape) * prob.masks[2]

    def energy(a, b, t):
        return (ops.h1_seminorm_sq_velocity(a, b, grid),
                ops.norm_cells(t, grid) ** 2, ops.h1_seminorm_sq_cells(t, grid))

    cases = {
        "helmholtz_cells": (sp.helmholtz_cells, (cells, c)),
        "helmholtz_u": (sp.helmholtz_u, (u, c)),
        "project": (sp.project, (u, v)),
        "linear_step": (lin.step, (u, v, cells, ctrl)),
        "adjoint_step": (lin.step_adjoint, (u, v, cells)),
        "nonlinear_step": (nonlin.step, (uy, vy, thy)),
        "energy": (energy, (uy, vy, thy)),
        "hessian_apply": (prob.hessian_apply, (z,)),
    }
    out = {}
    for name, (fn, args) in cases.items():
        out[f"layer.{name}.{n}.us"] = _time_us(lambda: fn(*args))
        out[f"layer.{name}.{n}.bytes"] = array_bytes(args) + array_bytes(fn(*args))
    return out


def measure():
    out = {}
    for n in SIZES:
        out.update(_layers_at(n))
    return out
