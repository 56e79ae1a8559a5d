"""Backward integration of the adjoint pair and the transposition check.

The adjoint recursion is the exact transpose of LinearPropagator.step, so it
is simultaneously (i) the gradient engine for the control functional and
(ii) a consistent IMEX discretization of the backward system

    -phi_t - nu0 lap phi + grad pi = G1,   div phi = 0,
    -psi_t - nu0 lap psi = nu0 phi_2 + G2,

with terminal data at t = T.  The coupling into psi carries the same constant
as the forward buoyancy term because it is its transpose.

Duality bookkeeping (X = state, lam = adjoint, U = forward inputs, G =
adjoint sources, zeta = pre-coupling adjoint stage):

    <X^nt, lam^nt> + dt sum_n <X^n, G^n>
        = <X^0, lam^0> + dt sum_n <B U^n, zeta^n>,

exact up to roundoff when both sides are built from the same spectral solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, TimeGrid
from . import operators as ops
from .forward import LinearPropagator
from .geometry import grid_box


@dataclass
class AdjointTrajectory:
    """The pre-coupling stages zeta^n, which pair with the step-n forward
    sources in the duality identity and are all a Hessian apply needs, and the
    adjoint state at t = 0.  Intermediate levels are not kept, and zeta only
    on the box its caller reads (``geometry.control_box``).  Each level's
    velocity is projected, which removes the adjoint pressure's gradient part.
    """

    zeta_u: np.ndarray    # (nt, rows, cols of box[0]) on u-faces
    zeta_v: np.ndarray    # (nt, ... box[1]) on v-faces
    zeta_th: np.ndarray   # (nt, ... box[2]) on cells
    phi0: tuple           # (phi_u, phi_v) at t = 0, divergence-free
    psi0: np.ndarray


def run_adjoint(phi_t, psi_t, g1, g2, prop: LinearPropagator,
                box=None) -> AdjointTrajectory:
    """Integrate the adjoint system backward from terminal data.

    The terminal velocity ``phi_t`` must be divergence-free; it is not
    projected here.  ``g1`` = (g1u, g1v) arrays of shape (nt, ...) or None,
    ``g2`` likewise; source sample n is applied at level n (the convention
    the duality identity above uses).  Every level is projected after its
    sources are added, so each adjoint step receives divergence-free velocity.
    zeta is kept on ``box`` only, by default the whole grid.
    """
    nt, dt = prop.tgrid.nt, prop.tgrid.dt
    bu, bv, bc = box or grid_box(prop.grid)
    (lam_u, lam_v), lam_th = phi_t, psi_t
    zeta_u, zeta_v, zeta_th = (np.empty((nt,) + a[b].shape) for a, b in
                               zip((lam_u, lam_v, lam_th), (bu, bv, bc)))
    for n in range(nt - 1, -1, -1):
        # the velocity adjoint one level down is zeta itself
        lam_u, lam_v, zth, lam_th = prop.step_adjoint(lam_u, lam_v, lam_th)
        zeta_u[n], zeta_v[n], zeta_th[n] = lam_u[bu], lam_v[bv], zth[bc]
        if g1 is not None:
            lam_u = lam_u + dt * g1[0][n]
            lam_v = lam_v + dt * g1[1][n]
        if g2 is not None:
            lam_th = lam_th + dt * g2[n]
        lam_u, lam_v, _ = prop.sp.project(lam_u, lam_v)
    return AdjointTrajectory(zeta_u, zeta_v, zeta_th, (lam_u, lam_v), lam_th)


def _pair_state_adjoint(u, v, th, phi, psi, grid: GridSpec) -> float:
    return (ops.inner_velocity(u, v, phi[0], phi[1], grid)
            + ops.inner_cells(th, psi, grid))


def duality_defect(grid: GridSpec, tgrid: TimeGrid, nu0: float, bumps,
                   rng: np.random.Generator, coupling: float | None = None) -> float:
    """Relative defect of the forward/adjoint duality identity on random data.

    Draws random forward inputs (initial data, controls, sources) and random
    adjoint inputs (terminal data in H, sources), runs both solvers, and
    evaluates both sides of the identity; the defect measures implementation
    error only, since the adjoint is constructed by transposition.
    """
    nt = tgrid.nt
    dt = tgrid.dt

    def rand_u():
        a = rng.standard_normal((grid.nx + 1, grid.ny))
        a[0] = a[-1] = 0.0
        return a

    def rand_v():
        a = rng.standard_normal((grid.nx, grid.ny + 1))
        a[:, 0] = a[:, -1] = 0.0
        return a

    def rand_c():
        return rng.standard_normal((grid.nx, grid.ny))

    prop = LinearPropagator(grid, tgrid, nu0, bumps=bumps, coupling=coupling)
    y0 = (rand_u(), rand_v())
    th0 = rand_c()
    from .control import ControlTrajectory
    whole = grid_box(grid)   # the sources cover Omega, so zeta is read everywhere
    controls = ControlTrajectory(
        vu=np.stack([rand_u() for _ in range(nt)]),
        vv=np.stack([rand_v() for _ in range(nt)]),
        v0=np.stack([rand_c() for _ in range(nt)]), box=whole)
    sources = (np.stack([rand_u() for _ in range(nt)]),
               np.stack([rand_v() for _ in range(nt)]),
               np.stack([rand_c() for _ in range(nt)]))
    phi_t = prop.sp.project(rand_u(), rand_v())[:2]
    psi_t = rand_c()
    g1 = (np.stack([rand_u() for _ in range(nt)]),
          np.stack([rand_v() for _ in range(nt)]))
    g2 = np.stack([rand_c() for _ in range(nt)])

    adj = run_adjoint(phi_t, psi_t, g1, g2, prop, whole)
    # per level: <X^0, lam^0> at k = 0, <X^n, G^n> for n < nt, <X^nt, lam^nt>
    start, pairs = [], []

    def pair(k, t, u, v, th):
        if k == 0:
            start.append(_pair_state_adjoint(u, v, th, adj.phi0, adj.psi0, grid))
        pairs.append(_pair_state_adjoint(u, v, th, (g1[0][k], g1[1][k]), g2[k], grid)
                     if k < nt else _pair_state_adjoint(u, v, th, phi_t, psi_t, grid))

    prop.run(y0, th0, controls=controls, sources=sources, on_state=pair)
    lhs = pairs[nt]
    for n in range(nt):
        lhs += dt * pairs[n]

    bu, bv, bc = bumps
    rhs = start[0]
    for n in range(nt):
        fu = bu * controls.vu[n] + sources[0][n]
        fv = bv * controls.vv[n] + sources[1][n]
        fc = bc * controls.v0[n] + sources[2][n]
        rhs += dt * (ops.inner_velocity(fu, fv, adj.zeta_u[n], adj.zeta_v[n], grid)
                     + ops.inner_cells(fc, adj.zeta_th[n], grid))

    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale
