"""The verification toolkit: discrete duality, gradient checks, manufactured
solutions.

Three independent certificates back the control machinery:
  1. the implemented backward solver is the exact transpose of the linearized
     forward solver (relative duality defect at machine precision);
  2. the adjoint-based reduced gradient matches central finite differences of
     the objective (exact for a quadratic, up to roundoff);
  3. the nonlinear solver reproduces a manufactured solution at second order
     in space.

Run:  python demos/05_verification.py
"""

import numpy as np

from bousscontrol import (ControlPatch, ControlTrajectory, GridSpec,
                          PenaltySpec, SystemSpec, TimeGrid, ViscosityLaw,
                          duality_defect, gradient, objective, run_mms)
from bousscontrol.control import control_inner
from bousscontrol.forward import sine_theta
from bousscontrol.geometry import bump_on_solver_grids, control_box

grid = GridSpec(16, 16)
tgrid = TimeGrid(1.0, 64)
bumps = bump_on_solver_grids(grid, ControlPatch((0.5, 0.5), (0.2, 0.2)))
rng = np.random.default_rng(0)

print("1) forward/adjoint duality on random data (10 trials):")
defects = [duality_defect(grid, tgrid, 0.1, bumps, rng) for _ in range(10)]
print(f"   defects in [{min(defects):.2e}, {max(defects):.2e}] "
      f"-- transposition is exact to roundoff")

print("\n2) reduced gradient vs central finite differences (5 directions):")
masks = tuple(b > 0 for b in bumps)
pen = PenaltySpec(epsilon=1e-4, weight_mode="unweighted")
th0 = 0.1 * sine_theta(grid, 1.0)
y0 = (grid.zeros_u(), grid.zeros_v())


def rand_ctrl(scale):
    # drawn on the whole grid, then read on the patch's box where the
    # gradient lives (controls are zero outside it)
    c = ControlTrajectory.zeros(grid, tgrid.nt)
    c.vu[:] = scale * rng.standard_normal(c.vu.shape) * masks[0]
    c.vv[:] = scale * rng.standard_normal(c.vv.shape) * masks[1]
    c.v0[:] = scale * rng.standard_normal(c.v0.shape) * masks[2]
    return c.on(control_box(bumps))


base = rand_ctrl(0.5)
g = gradient(base, y0, th0, None, None, pen, None, grid, tgrid, 0.1, bumps)
h = 1e-5
for i in range(5):
    d = rand_ctrl(1.0)
    jp = objective(base.plus(d, h), y0, th0, None, None, pen, None, grid,
                   tgrid, 0.1, bumps)
    jm = objective(base.plus(d, -h), y0, th0, None, None, pen, None, grid,
                   tgrid, 0.1, bumps)
    an = control_inner(g, d, grid, tgrid.dt)
    fd = (jp - jm) / (2 * h)
    print(f"   direction {i}: <grad J, d> = {an:+.10e}, "
          f"FD = {fd:+.10e}, rel err {abs(an - fd) / abs(an):.1e}")

print("\n3) manufactured-solution refinement study (heating on, L2 law):")
spec = SystemSpec(law=ViscosityLaw(1.0, 0.1), heating_on=True)
rep = run_mms(spec, grid_sizes=(16, 32, 64), t_final=0.25, nt=16)
for n, e in zip(rep.grid_sizes, rep.errors):
    print(f"   {n:3d}^2 grid: L2(Q) error {e:.4e}")
print(f"   fitted spatial order: {rep.order:.3f} "
      f"(velocity {rep.order_velocity:.3f}, temperature {rep.order_theta:.3f})")
