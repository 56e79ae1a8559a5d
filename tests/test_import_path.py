"""The package imports and runs on numpy alone: no path loads scipy or sympy,
whatever the length of a transform axis.

Each check runs in a fresh interpreter, since the test process itself has
scipy and sympy loaded by other tests."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CONFIG = """\
kind = {kind}
grid.nx = 16
grid.ny = 16
time.t_final = 1.0
time.nt = 32
system.nu0 = 1.0
system.nu1 = 0.1
init.target_energy = 1e-4
"""

PRELUDE = """\
import json, sys
import numpy as np

def foreign_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy"))
"""


def _run(body: str) -> dict:
    """Run ``body`` after ``PRELUDE`` in a new interpreter that imports the
    package from this checkout; returns the JSON object it prints last."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC),
                                                        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_parse_and_runs_load_no_scipy(tmp_path):
    out = _run(f"""
        import bousscontrol
        from bousscontrol.config import parse_config_text
        from bousscontrol.forward import LinearPropagator
        from bousscontrol.geometry import ControlPatch, bump_on_solver_grids
        from bousscontrol.grids import GridSpec, TimeGrid
        from bousscontrol.operators import SpectralSolver
        from bousscontrol.runner import run_experiment

        after_import = foreign_modules()
        codes = {{}}
        for kind in ("decay", "linear-control"):
            cfg = parse_config_text({CONFIG!r}.format(kind=kind))
            codes[kind] = run_experiment(cfg, {str(tmp_path)!r} + "/" + kind)

        grid = GridSpec(128, 128)
        rng = np.random.default_rng(5)
        u, v = grid.zeros_u(), grid.zeros_v()
        u[1:-1] = rng.standard_normal(u[1:-1].shape)
        v[:, 1:-1] = rng.standard_normal(v[:, 1:-1].shape)
        th = rng.standard_normal((grid.nx, grid.ny))
        sp = SpectralSolver(grid)
        sp.helmholtz_cells(th, 0.01)
        sp.project(u, v)
        bumps = bump_on_solver_grids(grid, ControlPatch((0.5, 0.5), (0.2, 0.2)))
        prop = LinearPropagator(grid, TimeGrid(1.0, 16), 0.1, bumps=bumps)
        prop.step(u, v, th, control=(u, v, th))
        print(json.dumps({{"after_import": after_import, "codes": codes,
                          "at_end": foreign_modules()}}))
    """)
    assert out["codes"] == {"decay": 0, "linear-control": 0}
    assert out["after_import"] == []
    assert out["at_end"] == []


def test_verify_loads_no_scipy_or_sympy(tmp_path):
    # verify runs every check, the manufactured-solution study included
    out = _run(f"""
        from bousscontrol.config import parse_config
        from bousscontrol.runner import run_experiment

        cfg = parse_config({str(ROOT / "demos" / "configs" / "seed.cfg")!r}).with_kind("verify")
        code = run_experiment(cfg, {str(tmp_path / "verify")!r})
        print(json.dumps({{"code": code, "at_end": foreign_modules()}}))
    """)
    assert out == {"code": 0, "at_end": []}


def test_long_axis_solves_on_numpy_alone():
    # a 144-point axis applies its dense matrix like a short one
    out = _run("""
        from bousscontrol import operators as ops
        from bousscontrol.grids import GridSpec

        grid = GridSpec(144, 12)
        sp = ops.SpectralSolver(grid)
        b = np.random.default_rng(6).standard_normal((grid.nx, grid.ny))
        x = sp.helmholtz_cells(b, 0.03)
        residual = np.abs(x - 0.03 * ops.laplacian_cells(x, grid) - b).max()
        print(json.dumps({"at_end": foreign_modules(),
                          "residual": float(residual / np.abs(b).max())}))
    """)
    assert out["at_end"] == []
    stiff = 1.0 + 4.0 * 0.03 * (144 ** 2 + 12 ** 2)
    assert out["residual"] <= 1e-13 * stiff
