"""Build the observability weight family and inspect its structure.

The weights share a time factor 1/ell(t)^4 that blows up at the terminal time
and a spatial profile eta0 that is positive inside the domain, zero on the
boundary, and has its only interior critical point inside the inner control
patch.  The gap condition 18*min_x alpha > 17*max_x alpha (a single scaled
scalar) decides whether the whole composite family is ordered; we search the
smallest feasible profile exponent m, evaluate the tables in log space, check
the ordering-chain ratios, and export everything as CSV.

Run:  python demos/02_observability_weights.py
"""

from bousscontrol import (ControlPatch, GridSpec, TimeGrid, WeightParams,
                          build_eta0, check_weight_chain, check_weight_gap,
                          eval_weights, find_min_m)
from bousscontrol.geometry import eta0_gradient_margin
from bousscontrol.fieldio import export_weight_csv

grid = GridSpec(32, 32)
patch = ControlPatch(center=(0.5, 0.5), half_widths=(0.2, 0.2), inner_margin=0.25)

eta0 = build_eta0(grid, patch)
print(f"eta0: max {eta0.max():.3f} at the domain center, boundary values "
      f"{abs(eta0[0]).max():.1e}")
print(f"min |grad eta0| outside omega_0 (corner nodes excluded): "
      f"{eta0_gradient_margin(grid, patch, eta0):.4f}")

m_min = find_min_m(lam=1.0)
print(f"\nsmallest feasible profile exponent: m = {m_min:.4f}")
for m in (m_min * 0.9, m_min, m_min * 1.5):
    margin = check_weight_gap(WeightParams(s=1.0, lam=1.0, m=m))
    print(f"   m = {m:7.3f}: gap margin {margin:+.3e} "
          f"({'feasible' if margin > 0 else 'infeasible'})")

params = WeightParams(s=1.0, lam=1.0, m=m_min)
tgrid = TimeGrid(1.0, 256)
tables = eval_weights(params, eta0, tgrid)
rho2 = tables.raw("rho2")
print(f"\ntables over {tgrid.nt} steps: raw log rho2 runs from {rho2[0]:.3e} "
      f"to {rho2[-2]:.3e} before T and is {rho2[-1]} at T (no cap)")

report = check_weight_chain(tables, t_clip=1.0 - 2.0 * tgrid.dt)
print("ordering-chain sup ratios (all must be finite):")
for name, val in report.ratios.items():
    print(f"   {name:24s} {val:.3e}")
print(f"chain holds: {report.all_finite}")

export_weight_csv(tables, "demo02_weights.csv")
print("\nraw log tables written to demo02_weights.csv")

# an infeasible m breaks the chain instead of raising
bad = eval_weights(WeightParams(s=1.0, lam=1.0, m=4.2), eta0, tgrid)
bad_report = check_weight_chain(bad, 1.0 - 2.0 * tgrid.dt)
print(f"with m = 4.2 (gap violated) the chain report flags it: "
      f"all_finite = {bad_report.all_finite}")
