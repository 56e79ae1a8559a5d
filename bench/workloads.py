"""Workload definitions: the config text each workload hands to the program.

The workload seed only picks one of ``LEVELS`` initial-data amplitudes, 0.25%
to 2% below the nominal one.  Every seed therefore stays in the workload's
regime (for decay-128, E(0) stays below the smallness threshold nu0^2 * 1e-2
that the nominal E(0) = 1e-2 sits on) and has a stored reference answer
(``references.json``).
"""

import random

LEVELS = 8
AMPLITUDE_SPREAD = 0.02

_CONFIGS = {
    # Linearized synthesis with its eps sweep: control -> forward/adjoint ->
    # spectral solves at 64^2; the nonlinear step is never touched.
    "linear-sweep": """\
kind = linear-control
grid.nx = 64
grid.ny = 64
time.t_final = 1.0
time.nt = 128
system.nu0 = 0.05
system.nu1 = 0.0
system.mode = linearized
init.vel_amp = 0.0
init.theta_amp = {amp:.17g}
penalty.eps = 1e-6
penalty.weight_mode = carleman
penalty.cg_tol = 1e-6
linear_control.eps_sweep = 1e-2, 1e-4, 1e-6
""",
    # Nonlinear synthesis where the control does the work: the outer
    # source-term loop, warm-started CG and the re-simulation at 32^2.
    "nonlinear-active": """\
kind = nonlinear-control
grid.nx = 32
grid.ny = 32
time.t_final = 1.0
time.nt = 128
system.nu0 = 0.1
system.nu1 = 0.1
system.heating = true
init.target_energy = {amp:.17g}
penalty.eps = 1e-6
penalty.weight_mode = carleman
penalty.cg_tol = 1e-6
outer.max = 20
outer.tol = 1e-9
""",
    # Free decay at 128^2: no control, adjoint or weights (the bypass case);
    # kernel-bound spectral solves, nonlinear-step stencils, energy trace.
    "decay-128": """\
kind = decay
grid.nx = 128
grid.ny = 128
time.t_final = 2.0
time.nt = 1024
system.nu0 = 1.0
system.nu1 = 0.1
system.heating = true
init.target_energy = {amp:.17g}
""",
}

_NOMINAL = {"linear-sweep": 0.1, "nonlinear-active": 1e-2, "decay-128": 1e-2}

WORKLOADS = tuple(_CONFIGS)


def level_for_seed(seed: int) -> int:
    return random.Random(seed).randrange(LEVELS)


def amplitude(workload: str, level: int) -> float:
    return _NOMINAL[workload] * (1.0 - AMPLITUDE_SPREAD * (level + 1) / LEVELS)


def config_text(workload: str, level: int) -> str:
    return _CONFIGS[workload].format(amp=amplitude(workload, level))
