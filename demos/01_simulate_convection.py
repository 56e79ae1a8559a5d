"""Simulate the coupled velocity/temperature system and watch its energy decay.

A warm blob in a closed box rises under buoyancy while the nonlocal viscosity
(nu0 + nu1 * global gradient energy) and the viscous-heating source act on the
temperature.  We run the full nonlinear solver twice, with the heating term on
and off, and compare the energy traces; with small data the Lyapunov monitor
Phi is nonincreasing at every step.

Run:  python demos/01_simulate_convection.py
"""

from bousscontrol import GridSpec, SystemSpec, TimeGrid, ViscosityLaw, run_nonlinear
from bousscontrol.fieldio import energy_trace_csv
from bousscontrol.forward import MaxDivergence, scaled_initial_data

grid = GridSpec(32, 32)
tgrid = TimeGrid(2.0, 256)
y0, th0 = scaled_initial_data(grid, target_energy=1e-4)

print(f"grid {grid.nx}x{grid.ny}, horizon T={tgrid.t_final}, dt={tgrid.dt:.4f}")
print(f"initial energy E(0) = 1e-4 (split between velocity and temperature)")

for heating in (True, False):
    spec = SystemSpec(law=ViscosityLaw(nu0=1.0, nu1=0.1), heating_on=heating)
    div = MaxDivergence(grid)
    _, trace = run_nonlinear(y0, th0, None, spec, grid, tgrid, on_state=div)
    label = "heating on " if heating else "heating off"
    print(f"\n[{label}]  E(T) = {trace.energy[-1]:.3e}   "
          f"Phi monotone: {trace.phi_monotone}   "
          f"max |div y| = {div.value:.1e}")
    for k in (0, 64, 128, 192, 256):
        print(f"   t={trace.t[k]:.2f}  E={trace.energy[k]:.3e}  "
              f"Phi={trace.phi[k]:.3e}")
    if heating:
        energy_trace_csv("demo01_energy.csv", trace)
        print("   trace written to demo01_energy.csv")

print("\nThe two traces nearly coincide at this amplitude: the quadratic "
      "heating source is O(E) while dissipation removes energy at rate "
      "~2*nu0*lam1, so decay dominates.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    spec = SystemSpec(law=ViscosityLaw(1.0, 0.1), heating_on=True)
    _, trace = run_nonlinear(y0, th0, None, spec, grid, tgrid)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(trace.t, trace.energy, label="E(t)")
    ax.semilogy(trace.t, trace.phi, "--", label="Phi(t)")
    ax.set_xlabel("t")
    ax.set_title("Uncontrolled energy decay")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo01_energy.png", dpi=120)
    print("plot written to demo01_energy.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
