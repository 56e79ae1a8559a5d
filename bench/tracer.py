"""In-memory span tracer installed from the benchmark's side.

Each wrapper replaces the attribute its callers actually look up (for
example ``control.run_adjoint``, since ``control`` imports that function by
name) and records one span per call: name, start, end and parent span, under
one run id.  Spans stay in memory until ``dump``; ``uninstall`` puts every
original attribute back.  Nothing inside the program is changed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import time

import numpy as np

# Helmholtz solves on cells and faces plus the Neumann pressure Poisson solve.
SPECTRAL = ("helmholtz_cells", "helmholtz_u", "helmholtz_v", "poisson_neumann")
# Finite-difference stencils: advection, heating, centred gradients, the
# nonlocal viscosity law, Laplacians, div/grad and the buoyancy averages.
STENCILS = ("div", "grad", "laplacian_cells", "laplacian_u", "laplacian_v",
            "theta_to_vfaces", "vfaces_to_cells", "deformation", "heating",
            "grad_sq_cells", "nonlocal_viscosity", "nonlocal_viscosity_scalar",
            "advect_scalar", "advect_velocity")
NORMS = ("inner_cells", "norm_cells", "inner_velocity", "norm_velocity",
         "lp_norm_cells", "h1_seminorm_sq_cells", "h1_seminorm_sq_velocity")

# (module, class or None, attribute, span name)
WRAPS = (
    [("operators", "SpectralSolver", a, "operators.spectral") for a in SPECTRAL]
    + [("operators", "SpectralSolver", "project", "operators.project")]
    + [("operators", None, a, "operators.stencil") for a in STENCILS]
    + [("operators", None, "center_gradients", "operators.center_gradients")]
    + [("operators", None, a, "operators.norms") for a in NORMS]
    + [
        ("forward", "LinearPropagator", "run", "forward.linear.run"),
        ("forward", "LinearPropagator", "step", "forward.linear.step"),
        ("forward", "LinearPropagator", "step_adjoint", "adjoint.step"),
        ("forward", "NonlinearPropagator", "run", "forward.nonlinear.run"),
        ("forward", "NonlinearPropagator", "step", "forward.nonlinear.step"),
        ("runner", None, "run_nonlinear", "forward.run_nonlinear"),
        ("control", None, "run_adjoint", "adjoint.run"),
        ("control", "LinearControlProblem", "hessian_apply", "control.hessian_apply"),
        ("control", "LinearControlProblem", "solve", "control.cg"),
        ("control", "LinearControlProblem", "rhs", "control.rhs"),
        ("control", "LinearControlProblem", "terminal_norm", "control.terminal_norm"),
        ("control", None, "solve_linear_control", "control.linear_solve"),
        ("runner", None, "solve_linear_control", "control.linear_solve"),
        ("runner", None, "solve_nonlinear_control", "control.outer_loop"),
        ("control", None, "_frozen_sources", "control.frozen_sources"),
        ("control", None, "run_nonlinear", "control.resim"),   # or control.free_run
        ("runner", None, "eval_weights", "weights.eval"),
        ("runner", None, "bump_on_solver_grids", "geometry.setup"),
        ("runner", None, "build_eta0", "geometry.setup"),
        ("runner", None, "weighted_norms", "diagnostics.weighted_norms"),
        ("runner", None, "decay_fit", "diagnostics.decay_fit"),
        ("runner", None, "trace_from_trajectory", "diagnostics.energy_trace"),
        ("runner", None, "emit_resolved", "runner.artifact"),
        ("runner", None, "emit_report", "runner.artifact"),
        ("runner", None, "_write_energy_csv", "runner.artifact"),
        ("runner", None, "export_weight_csv", "runner.artifact"),
    ]
)


def _resim_or_free_run(args, kwargs) -> str:
    """solve_nonlinear_control calls run_nonlinear twice: the controlled
    re-simulation, then the uncontrolled run (controls=None) that gives the
    reference norm.  Each gets its own span name."""
    controls = kwargs["controls"] if "controls" in kwargs else args[2]
    return "control.resim" if controls is not None else "control.free_run"


SPAN_NAMERS = {"control.resim": _resim_or_free_run}


def array_bytes(obj) -> int:
    """Bytes of every ndarray reachable through tuples, lists and dataclass
    or plain attributes (one level); a computed figure, not a measurement."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(x) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))
    return 0


def _array_digest(h, obj) -> None:
    if obj is None:
        h.update(b"none")
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            _array_digest(h, x)
    else:
        h.update(np.ascontiguousarray(obj).tobytes())


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.solve_keys: list[str] = []
        self.trajectory_bytes = 0
        self.adjoint_bytes = 0
        self.vector_bytes = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "control.linear_solve": (self._record_solve_key, None),
            "control.hessian_apply": (self._record_vector, None),
            "forward.linear.run": (None, self._record_trajectory),
            "forward.nonlinear.run": (None, self._record_trajectory),
            "adjoint.run": (None, self._record_adjoint),
        }
        for mod_name, cls_name, attr, span in WRAPS:
            module = importlib.import_module(f"bousscontrol.{mod_name}")
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            before, after = hooks.get(span, (None, None))
            setattr(owner, attr, self._wrap(original, span, before, after))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> bool:
        """Restore the originals; True when every attribute is the original."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        ok = all((owner.__dict__[attr] if isinstance(owner, type)
                  else getattr(owner, attr)) is original
                 for owner, attr, original in self._installed)
        self._installed.clear()
        return ok

    def _wrap(self, fn, name, before, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        namer = SPAN_NAMERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(fn, args, kwargs)
            idx = len(spans)
            span = [namer(args, kwargs) if namer else name, 0, 0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- hooks (run outside the span they belong to) ------------------------

    def _record_solve_key(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        a = bound.arguments
        h = hashlib.sha1(repr((a["pen"], a["nu0"], a.get("coupling"), a["grid"],
                               a["tgrid"])).encode())
        for key in ("y0", "th0", "f1", "f2"):
            _array_digest(h, a[key])
        self.solve_keys.append(h.hexdigest())

    def _record_vector(self, fn, args, kwargs):
        self.vector_bytes = max(self.vector_bytes, array_bytes(args[1]))

    def _record_trajectory(self, result):
        # NonlinearPropagator.run returns (Trajectory | None, EnergyTrace);
        # LinearPropagator.run a Trajectory, or the bare final state.
        for item in result if isinstance(result, tuple) else (result,):
            if hasattr(item, "theta"):
                self.trajectory_bytes = max(self.trajectory_bytes, array_bytes(item))

    def _record_adjoint(self, result):
        self.adjoint_bytes = max(self.adjoint_bytes, array_bytes(result))

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    def metrics(self, solve_s: float) -> dict:
        """Per-layer metrics of the traced experiment that took ``solve_s``."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls: dict[str, int] = {}
        incl: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i, s in enumerate(spans):
            name = s[0]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + dur[i]
            self_ns[name] = self_ns.get(name, 0) + dur[i] - child[i]

        def c(name):
            return calls.get(name, 0)

        def self_s(*names):
            return sum(self_ns.get(x, 0) for x in names) * 1e-9

        def incl_s(name):
            return incl.get(name, 0) * 1e-9

        def per_call_us(name):
            return incl.get(name, 0) * 1e-3 / c(name) if c(name) else 0.0

        adjoint_projects = sum(
            1 for s in spans if s[0] == "operators.project" and s[3] >= 0
            and spans[s[3]][0] in ("adjoint.run", "adjoint.step"))
        hess_ms = [d * 1e-6 for s, d in zip(spans, dur) if s[0] == "control.hessian_apply"]
        solves = len(self.solve_keys)
        spectral_self = self_s("operators.spectral")
        return {
            "operators.spectral.calls": c("operators.spectral"),
            "operators.spectral.self_s": spectral_self,
            "operators.spectral.us_per_call": (spectral_self * 1e6 / c("operators.spectral")
                                               if c("operators.spectral") else 0.0),
            "operators.project.calls": c("operators.project"),
            "operators.project.self_s": self_s("operators.project"),
            "operators.stencil.self_s": self_s("operators.stencil",
                                               "operators.center_gradients"),
            "operators.center_gradients.calls": c("operators.center_gradients"),
            "operators.norms.self_s": self_s("operators.norms"),
            "forward.linear.sweeps": c("forward.linear.run"),
            "forward.linear.steps": c("forward.linear.step"),
            "forward.linear.step_us": per_call_us("forward.linear.step"),
            "forward.linear.run.self_s": self_s("forward.linear.run"),
            "forward.nonlinear.steps": c("forward.nonlinear.step"),
            "forward.nonlinear.step_us": per_call_us("forward.nonlinear.step"),
            "forward.run.self_s": self_s("forward.nonlinear.run"),
            "forward.trajectory_bytes": self.trajectory_bytes,
            "adjoint.sweeps": c("adjoint.run"),
            "adjoint.steps": c("adjoint.step"),
            "adjoint.step_us": per_call_us("adjoint.step"),
            "adjoint.run.self_s": self_s("adjoint.run"),
            "adjoint.projects_per_step": (adjoint_projects / c("adjoint.step")
                                          if c("adjoint.step") else 0.0),
            "adjoint.trajectory_bytes": self.adjoint_bytes,
            "control.hessian_applies": c("control.hessian_apply"),
            "control.cg.self_s": self_s("control.cg"),
            "control.linear_solves": solves,
            "control.useful_solve_ratio": (len(set(self.solve_keys)) / solves
                                           if solves else 0.0),
            "control.frozen_sources.self_s": self_s("control.frozen_sources"),
            "control.resim.self_s": self_s("control.resim"),
            "control.resim.incl_s": incl_s("control.resim"),
            "control.free_run.incl_s": incl_s("control.free_run"),
            "control.vector_bytes": self.vector_bytes,
            "weights.eval_s": incl_s("weights.eval"),
            "geometry.setup_s": incl_s("geometry.setup"),
            "diagnostics.weighted_norms_s": incl_s("diagnostics.weighted_norms"),
            "diagnostics.decay_fit_s": incl_s("diagnostics.decay_fit"),
            "runner.artifact_s": incl_s("runner.artifact"),
            "trace.solve_s": solve_s,
            "trace.unattributed_s": solve_s - sum(self_ns.values()) * 1e-9,
            "trace.spans": n,
            "_hessian_apply_ms": hess_ms,
        }


def tail(samples):
    """Highest order statistic with at least ten samples above it, or the
    maximum when there are ten samples or fewer."""
    s = sorted(samples)
    if not s:
        return 0.0
    return s[len(s) - 11] if len(s) >= 11 else s[-1]


def median(samples):
    return statistics.median(samples) if samples else 0.0
