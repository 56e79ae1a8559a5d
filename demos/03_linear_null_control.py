"""Steer the linear system to (near) zero with distributed controls.

The penalized functional J = 1/2 iint w^2 (|v|^2+|v0|^2) + 1/(2 eps) |x(T)|^2
is minimized by conjugate gradients; the weight w is the normalized blow-up
profile rho2, which forces the synthesized control to shut off as t -> T.
Shrinking eps drives the terminal norm toward zero (penalized surrogate of an
exact null control); we sweep eps over four decades and compare against the
uncontrolled run from the same data.

Run:  python demos/03_linear_null_control.py  (about half a minute)
"""

import numpy as np

from bousscontrol import (ControlPatch, GridSpec, NormSamples, PenaltySpec,
                          TimeGrid, WeightParams, build_eta0, eval_weights,
                          find_min_m, solve_linear_control, weighted_norms)
from bousscontrol.forward import sine_theta
from bousscontrol.geometry import bump_on_solver_grids

grid = GridSpec(32, 32)
tgrid = TimeGrid(1.0, 128)
patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
bumps = bump_on_solver_grids(grid, patch)
nu0 = 0.05

th0 = 0.1 * sine_theta(grid, 1.0)
y0 = (grid.zeros_u(), grid.zeros_v())

params = WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0, 1.0), eta_sup=1.0)
tables = eval_weights(params, build_eta0(grid, patch), tgrid)

print(f"data: theta0 = 0.1 sin sin, y0 = 0, nu0 = {nu0}")
print(f"{'eps':>8s} {'terminal':>12s} {'uncontrolled':>12s} {'ratio':>10s} "
      f"{'cg':>4s} {'|v| at T/2':>11s} {'|v| at T-dt':>11s}")
for eps in (1e-2, 1e-3, 1e-4, 1e-6):
    pen = PenaltySpec(epsilon=eps, weight_mode="carleman", cg_tol=1e-6,
                      cg_max_iters=800)
    # the weighted norms are summed along the final controlled run
    samples = NormSamples(grid, tgrid)
    controls, rep = solve_linear_control(y0, th0, None, None, pen, tables, grid,
                                         tgrid, nu0, bumps, on_state=samples)
    mid = np.abs(controls.v0[tgrid.nt // 2]).max()
    last = np.abs(controls.v0[-1]).max()
    print(f"{eps:8.0e} {rep.terminal_norm:12.3e} "
          f"{rep.uncontrolled_terminal_norm:12.3e} "
          f"{rep.terminal_norm / rep.uncontrolled_terminal_norm:10.2e} "
          f"{rep.cg_iters:4d} {mid:11.3e} {last:11.3e}")

print("\nthe last column shows the weight at work: the control is crushed to "
      "(machine) zero near the terminal time, where the blow-up weight makes "
      "any action infinitely expensive")

norms = weighted_norms(samples, controls, tables, grid, tgrid, t_clip=pen.t_clip)
print("\nweighted a-priori quantities of the eps=1e-6 run, as log10:")
print(f"   iint rho2^2 (|v|^2+|v0|^2): {norms.iint_rho2_sq_controls:.6f} "
      f"(the synthesis-side energy {rep.control_energy_weighted:.4e} has log10 "
      f"{np.log10(rep.control_energy_weighted):.6f})")
print(f"   iint rho1^2 (|y|^2+|th|^2): {norms.iint_rho1_sq_state:.6e} "
      "(carried by the node nearest T, where rho1 is largest)")
for name, value in sorted(norms.kappa_control_norms.items()):
    print(f"   kappa {name}: {value:.6f}")
