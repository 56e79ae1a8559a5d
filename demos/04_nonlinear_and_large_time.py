"""Nonlinear null control and the decay-then-control pipeline.

Part 1: the outer quasi-linearization loop.  Each pass freezes the nonlocal
viscosity, convection and viscous heating of the previous controlled
trajectory into source terms of the linear system and re-solves the linear
control problem; the update norms contract rapidly for small data.  The final
control is validated by an independent nonlinear re-simulation.

Part 2: when the data is too large for the local argument, let the
uncontrolled system decay until its energy crosses delta (the measured
crossing time is compared with the prediction from the fitted decay law
E(t) <= C2 e^{-C1 t} E(0)), then control on the short remaining horizon.

Run:  python demos/04_nonlinear_and_large_time.py
"""

from bousscontrol import (ControlPatch, GridSpec, OuterLoopSpec, PenaltySpec,
                          SystemSpec, TimeGrid, ViscosityLaw, WeightParams,
                          build_eta0, eval_weights, find_min_m,
                          large_time_control, solve_nonlinear_control)
from bousscontrol.forward import run_nonlinear, scaled_initial_data
from bousscontrol.operators import state_norm_sq
from bousscontrol.geometry import bump_on_solver_grids

grid = GridSpec(32, 32)
patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
bumps = bump_on_solver_grids(grid, patch)
wparams = WeightParams(s=1.0, lam=1.0, m=find_min_m(1.0))


def weights_for(tg):
    return eval_weights(wparams, build_eta0(grid, patch), tg)


print("=" * 72)
print("part 1: nonlinear null control via the outer source-term fixed point")
print("=" * 72)
# small viscosity keeps the control genuinely active (with nu0 ~ 1 the free
# decay already crushes the state and the loop converges immediately)
spec = SystemSpec(law=ViscosityLaw(nu0=0.05, nu1=0.05), heating_on=True)
tgrid = TimeGrid(1.0, 128)
y0, th0 = scaled_initial_data(grid, target_energy=1e-2)
pen = PenaltySpec(epsilon=1e-5, weight_mode="carleman", cg_tol=1e-5)
outer = OuterLoopSpec(max_outer=25, outer_tol=1e-6)

controls, _, rep = solve_nonlinear_control(
    y0, th0, spec, pen, outer, weights_for(tgrid), grid, tgrid, bumps)
print(f"outer iterations: {rep.outer_iters} (converged: {rep.converged})")
print("update norms per iteration:",
      " ".join(f"{u:.2e}" for u in rep.update_history))
print(f"re-simulated terminal norm: {rep.terminal_norm:.3e} "
      f"(uncontrolled: {rep.uncontrolled_terminal_norm:.3e})")

check, _ = run_nonlinear(y0, th0, controls, spec, grid, tgrid, bumps=bumps)
print(f"independent re-simulation agrees: {state_norm_sq(*check, grid) ** 0.5:.3e}")

print()
print("=" * 72)
print("part 2: large-time pipeline (free decay, then local control)")
print("=" * 72)
spec2 = SystemSpec(law=ViscosityLaw(nu0=1.0, nu1=0.1), heating_on=True)
y0b, th0b = scaled_initial_data(grid, target_energy=1e-2)
delta = 1e-4
tail_tgrid = TimeGrid(0.75, 96)
composed, lrep = large_time_control(
    y0b, th0b, delta, spec2,
    PenaltySpec(epsilon=1e-6, weight_mode="carleman", cg_tol=1e-6,
                t_clip=0.75 - 2 * 0.75 / 96),
    OuterLoopSpec(), weights_for(tail_tgrid), grid,
    phase1_tgrid=TimeGrid(1.0, 256), tail_tgrid=tail_tgrid, bumps=bumps)
print(f"energy crossed delta={delta:.0e} at t = {lrep.crossing_time:.4f}")
print(f"decay fit: C1 = {lrep.decay_c1:.2f}, C2 = {lrep.decay_c2:.3e}, "
      f"r^2 = {lrep.fit_r_squared:.5f}")
print(f"predicted waiting time: {lrep.t_star_predicted:.4f} "
      f"(measured/predicted = {lrep.crossing_time / lrep.t_star_predicted:.2f})")
print(f"composed horizon: {composed.t[-1] + 0.0:.3f} time units, "
      f"final norm {lrep.final_norm:.2e} (target {1e-3 * delta:.0e})")
