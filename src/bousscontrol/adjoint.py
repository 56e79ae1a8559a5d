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

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec, TimeGrid
from . import operators as ops
from .forward import LinearPropagator, Trajectory


@dataclass
class AdjointTrajectory:
    """Node values (phi, pi, psi) plus the pre-coupling stages zeta^n.

    The stored phi is divergence-free: the raw transpose state carries a
    discrete-gradient component, which is exactly the adjoint pressure's
    contribution and is split off into pi.  Feeding the projected state back
    into the recursion is equivalent to feeding the raw one because the
    transposed step would start with the same projection; the projected state
    is also what ``LinearPropagator.step_adjoint`` requires.
    """

    t: np.ndarray
    phi_u: np.ndarray     # (nt+1, nx+1, ny)
    phi_v: np.ndarray
    pi: np.ndarray        # (nt+1, nx, ny) adjoint pressure
    psi: np.ndarray
    zeta_u: np.ndarray    # (nt, ...) pairs with step-n forward sources
    zeta_v: np.ndarray
    zeta_th: np.ndarray
    meta: dict = field(default_factory=dict)


def run_adjoint(phi_t, psi_t, g1, g2, prop: LinearPropagator,
                project_terminal: bool = True) -> AdjointTrajectory:
    """Integrate the adjoint system backward from terminal data.

    ``g1`` = (g1u, g1v) arrays of shape (nt, ...) or None, ``g2`` likewise;
    source sample n is applied at level n (the convention the duality identity
    above uses).  Terminal velocity data is projected into the divergence-free
    space unless the caller guarantees it already lives there; every later
    level is projected after its sources are added, so each adjoint step
    receives divergence-free velocity.
    """
    grid, tgrid = prop.grid, prop.tgrid
    nt = tgrid.nt
    dt = tgrid.dt
    pu, pv = phi_t
    if project_terminal:
        pu, pv, _ = prop.sp.project(pu, pv)
    lam_u, lam_v, lam_th = pu.copy(), pv.copy(), psi_t.copy()

    out = AdjointTrajectory(
        t=tgrid.nodes(),
        phi_u=np.zeros((nt + 1,) + lam_u.shape),
        phi_v=np.zeros((nt + 1,) + lam_v.shape),
        pi=np.zeros((nt + 1,) + lam_th.shape),
        psi=np.zeros((nt + 1,) + lam_th.shape),
        zeta_u=np.zeros((nt,) + lam_u.shape),
        zeta_v=np.zeros((nt,) + lam_v.shape),
        zeta_th=np.zeros((nt,) + lam_th.shape),
        meta={"grid": grid.digest(), "time": tgrid.digest(), "kind": "adjoint"},
    )
    out.phi_u[nt], out.phi_v[nt], out.psi[nt] = lam_u, lam_v, lam_th

    for n in range(nt - 1, -1, -1):
        lam_u, lam_v, lam_th, zu, zv, zth = prop.step_adjoint(lam_u, lam_v, lam_th)
        if g1 is not None:
            lam_u = lam_u + dt * g1[0][n]
            lam_v = lam_v + dt * g1[1][n]
        if g2 is not None:
            lam_th = lam_th + dt * g2[n]
        lam_u, lam_v, pot = prop.sp.project(lam_u, lam_v)
        out.phi_u[n], out.phi_v[n], out.psi[n] = lam_u, lam_v, lam_th
        out.pi[n] = pot / dt
        out.zeta_u[n], out.zeta_v[n], out.zeta_th[n] = zu, zv, zth
    return out


def _pair_state_adjoint(traj: Trajectory, adj: AdjointTrajectory, k: int,
                        grid: GridSpec) -> float:
    return (ops.inner_velocity(traj.u[k], traj.v[k], adj.phi_u[k], adj.phi_v[k], grid)
            + ops.inner_cells(traj.theta[k], adj.psi[k], grid))


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
    controls = ControlTrajectory(
        vu=np.stack([rand_u() for _ in range(nt)]),
        vv=np.stack([rand_v() for _ in range(nt)]),
        v0=np.stack([rand_c() for _ in range(nt)]))
    sources = (np.stack([rand_u() for _ in range(nt)]),
               np.stack([rand_v() for _ in range(nt)]),
               np.stack([rand_c() for _ in range(nt)]))
    phi_t = (rand_u(), rand_v())
    psi_t = rand_c()
    g1 = (np.stack([rand_u() for _ in range(nt)]),
          np.stack([rand_v() for _ in range(nt)]))
    g2 = np.stack([rand_c() for _ in range(nt)])

    traj = prop.run(y0, th0, controls=controls, sources=sources)
    adj = run_adjoint(phi_t, psi_t, g1, g2, prop, project_terminal=True)

    lhs = _pair_state_adjoint(traj, adj, nt, grid)
    for n in range(nt):
        lhs += dt * (ops.inner_velocity(traj.u[n], traj.v[n], g1[0][n], g1[1][n], grid)
                     + ops.inner_cells(traj.theta[n], g2[n], grid))

    bu, bv, bc = bumps
    rhs = _pair_state_adjoint(traj, adj, 0, grid)
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
