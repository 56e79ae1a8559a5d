"""Experiment orchestration: builds the configured objects, runs one
experiment kind, and persists deterministic artifacts.

Exit codes: 0 success / all checks passed, 2 configuration or geometry error
(no artifacts written), 3 solver failure (non-convergence, blow-up, regime),
4 verification-suite failure.
"""

from __future__ import annotations

import os
from dataclasses import fields, replace

import numpy as np

from .exceptions import BoussControlError, ConfigError, DomainError, GeometryError
from .config import ExperimentConfig, emit_resolved
from .geometry import (build_eta0, bump_on_solver_grids, control_box, grid_box,
                       validate_weight_patch)
from .grids import GridSpec, TimeGrid
from .adjoint import duality_defect
from .control import (ControlTrajectory, PenaltySpec, control_inner,
                      gradient, large_time_control, objective,
                      solve_linear_control, solve_nonlinear_control)
from .diagnostics import decay_fit, t_star, weighted_norms
from .fieldio import (StateWriter, dump_field, emit_report, energy_trace_csv,
                      export_weight_csv, sweep_csv)
from .forward import (EnergyTrace, MaxDivergence, SystemSpec, chain_hooks,
                      run_nonlinear, scaled_initial_data, sine_theta,
                      stream_velocity)
from .forward import trace_from_trajectory  # noqa: F401  (bench/tracer.py wraps runner's name)
from . import operators as ops
from .mms import run_mms
from .weights import check_weight_chain, check_weight_gap, default_t_clip, eval_weights


def _initial_data(cfg: ExperimentConfig):
    grid = cfg.grid
    if cfg.init_target_energy is not None:
        return scaled_initial_data(grid, cfg.init_target_energy,
                                   cfg.init_vel_amp, cfg.init_theta_amp)
    return stream_velocity(grid, cfg.init_vel_amp), sine_theta(grid, cfg.init_theta_amp)


def _write_energy_csv(path, trace: EnergyTrace, config_hash: str) -> None:
    energy_trace_csv(path, trace, preamble=f"# config_hash = {config_hash}\n")


def _state_writer(cfg: ExperimentConfig, out_dir: str):
    """The ``dump_fields`` hook streaming levels to ``out_dir/fields``, or None."""
    return StateWriter(os.path.join(out_dir, "fields")) if cfg.dump_fields else None


def _tables_for(cfg: ExperimentConfig):
    """The weight tables of a synthesis kind, on the horizon it synthesizes
    over (large-time: the tail), or None when the kind or its penalty uses no
    weights."""
    if (cfg.pen.weight_mode != "carleman"
            or cfg.kind not in ("linear-control", "nonlinear-control", "large-time")):
        return None
    eta0 = build_eta0(cfg.grid, cfg.patch)
    return eval_weights(cfg.wparams, eta0,
                        cfg.lt_tail if cfg.kind == "large-time" else cfg.tgrid)


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> int:
    try:
        law = cfg.system.law
        if cfg.kind == "large-time" and law.p != 2.0:
            raise ConfigError(
                "large-time: the decay law behind it holds for p = 2 only; "
                f"system.p = {law.p:g} is outside it")
        if cfg.kind in ("nonlinear-control", "large-time") and cfg.system.mode != "nonlinear":
            raise ConfigError(
                f"{cfg.kind}: its outer loop freezes the nonlinear terms of the "
                f"full system; system.mode = {cfg.system.mode} is a linear problem "
                "(use linear-control)")
        bumps = bump_on_solver_grids(cfg.grid, cfg.patch)
        if cfg.pen.weight_mode == "carleman":
            validate_weight_patch(cfg.grid, cfg.patch)
        y0, th0 = _initial_data(cfg)
        tables = _tables_for(cfg)   # a family past the double range is a config error
    except (ConfigError, GeometryError, DomainError) as exc:
        print(f"configuration error: {exc}")
        return 2

    os.makedirs(out_dir, exist_ok=True)
    chash = cfg.digest()
    ghash = cfg.grid.digest()
    emit_resolved(cfg, os.path.join(out_dir, "resolved_config.txt"))

    handler = {
        "simulate": _run_simulate,
        "decay": _run_decay,
        "linear-control": _run_linear_control,
        "nonlinear-control": _run_nonlinear_control,
        "large-time": _run_large_time,
        "verify": _run_verify,
    }[cfg.kind]
    try:
        return handler(cfg, out_dir, bumps, tables, y0, th0, chash, ghash)
    except BoussControlError as exc:
        with open(os.path.join(out_dir, "error.txt"), "w") as fh:
            fh.write(f"{type(exc).__name__}: {exc}\n")
        print(f"solver error: {exc}")
        return 3


def _run_simulate(cfg, out_dir, bumps, tables, y0, th0, chash, ghash):
    div = MaxDivergence(cfg.grid)
    final, trace = run_nonlinear(
        y0, th0, None, cfg.system, cfg.grid, cfg.tgrid,
        on_state=chain_hooks(div, _state_writer(cfg, out_dir)))
    _write_energy_csv(os.path.join(out_dir, "energy.csv"), trace, chash)
    emit_report(os.path.join(out_dir, "report.txt"), {"simulate": {
        "final_norm": float(np.sqrt(ops.state_norm_sq(*final, cfg.grid))),
        "energy_initial": trace.energy[0],
        "energy_final": trace.energy[-1],
        "phi_monotone": trace.phi_monotone,
        "smallness_ok": trace.smallness_ok,
        "max_div": div.value,
    }}, config_hash=chash, grid_hash=ghash)
    return 0


def _run_decay(cfg, out_dir, bumps, tables, y0, th0, chash, ghash):
    _, trace = run_nonlinear(y0, th0, None, cfg.system, cfg.grid, cfg.tgrid,
                             on_state=_state_writer(cfg, out_dir))
    _write_energy_csv(os.path.join(out_dir, "energy.csv"), trace, chash)
    t_final = cfg.tgrid.t_final
    fit = decay_fit(trace, (cfg.decay_fit_lo_frac * t_final,
                            cfg.decay_fit_hi_frac * t_final))
    section = {
        "decay_c1": fit.c1,
        "decay_c2": fit.c2,
        "decay_r_squared": fit.r_squared,
        "decay_window": list(fit.window),
        "phi_monotone": trace.phi_monotone,
        "phi_violation_step": trace.phi_violation_step(),
        "smallness_ok": trace.smallness_ok,
    }
    try:
        ts = t_star(fit, cfg.lt_delta, float(trace.energy[0]))
        section.update(t_star_delta=cfg.lt_delta, t_star=ts)
    except BoussControlError as exc:
        section["t_star_error"] = str(exc)
    emit_report(os.path.join(out_dir, "report.txt"), {"decay": section},
                config_hash=chash, grid_hash=ghash)
    return 0


def _synthesis_section(rep) -> dict:
    """A ``SynthesisReport``'s scalar fields in declaration order, then, when
    it has outer passes, their update norms, CG iterations and recycle-space
    sizes."""
    section = {f.name: getattr(rep, f.name) for f in fields(rep)
               if not isinstance(getattr(rep, f.name), list)}
    if rep.update_history:
        section.update(update_norms=rep.update_history,
                       cg_iters_per_pass=rep.cg_iters_per_pass,
                       recycled_vectors_per_pass=rep.recycled_vectors_per_pass)
    return section


def _synthesis_artifacts(cfg, out_dir, name, controls, section, tables, chash, ghash):
    sections = {name: section}
    if tables is not None:
        sections["weighted_norms"] = weighted_norms(
            controls, tables, cfg.grid, cfg.tgrid, t_clip=cfg.pen.t_clip)
    emit_report(os.path.join(out_dir, "report.txt"), sections,
                config_hash=chash, grid_hash=ghash)
    if cfg.dump_fields:
        ctrl_dir = os.path.join(out_dir, "controls")
        os.makedirs(ctrl_dir, exist_ok=True)
        full = controls.full(cfg.grid)
        for k in range(full.vu.shape[0]):
            for name in ("vu", "vv", "v0"):
                dump_field(os.path.join(ctrl_dir, f"control_{name}_{k:05d}.fld"),
                           getattr(full, name)[k], f"control:{name}", k * cfg.tgrid.dt)


def _run_linear_control(cfg, out_dir, bumps, tables, y0, th0, chash, ghash):
    if tables is not None:
        export_weight_csv(tables, os.path.join(out_dir, "weights.csv"))
    nu0 = cfg.system.law.nu0
    controls, rep = solve_linear_control(
        y0, th0, None, None, cfg.pen, tables, cfg.grid, cfg.tgrid, nu0, bumps,
        coupling=cfg.system.buoyancy, eps_sweep=cfg.eps_sweep,
        on_state=_state_writer(cfg, out_dir))
    section = _synthesis_section(rep)
    for i, rep_i in enumerate(rep.sweep):
        emit_report(os.path.join(out_dir, f"report_eps_{i}.txt"),
                    {"linear_control": _synthesis_section(rep_i)},
                    config_hash=chash, grid_hash=ghash)
        section[f"sweep_terminal_{i}"] = rep_i.terminal_norm
    if rep.sweep:
        sweep_csv(os.path.join(out_dir, "sweep.csv"), rep.sweep,
                  preamble=f"# config_hash = {chash}\n")
    section["terminal_over_uncontrolled"] = (
        rep.terminal_norm / rep.uncontrolled_terminal_norm
        if rep.uncontrolled_terminal_norm > 0 else 0.0)
    _synthesis_artifacts(cfg, out_dir, "linear_control", controls, section, tables,
                         chash, ghash)
    return 0


def _run_nonlinear_control(cfg, out_dir, bumps, tables, y0, th0, chash, ghash):
    controls, trace, rep = solve_nonlinear_control(
        y0, th0, cfg.system, cfg.pen, cfg.outer, tables, cfg.grid, cfg.tgrid,
        bumps, on_state=_state_writer(cfg, out_dir))
    _write_energy_csv(os.path.join(out_dir, "energy.csv"), trace, chash)
    _synthesis_artifacts(cfg, out_dir, "nonlinear_control", controls,
                         _synthesis_section(rep), tables, chash, ghash)
    return 0 if rep.converged else 3


def _run_large_time(cfg, out_dir, bumps, tables, y0, th0, chash, ghash):
    tail = cfg.lt_tail
    pen = replace(cfg.pen, t_clip=min(default_t_clip(cfg.pen.t_clip, tail),
                                      default_t_clip(None, tail)))
    trace, rep = large_time_control(
        y0, th0, cfg.lt_delta, cfg.system, pen, cfg.outer, tables, cfg.grid,
        cfg.lt_phase1, tail, bumps, on_state=_state_writer(cfg, out_dir))
    _write_energy_csv(os.path.join(out_dir, "energy.csv"), trace, chash)
    section = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "synthesis"}
    section.update(("synthesis_" + k, v)
                   for k, v in _synthesis_section(rep.synthesis).items())
    emit_report(os.path.join(out_dir, "report.txt"), {"large_time": section},
                config_hash=chash, grid_hash=ghash)
    return 0 if rep.synthesis.converged else 3


def _run_verify(cfg, out_dir, bumps, tables, y0, th0, chash, ghash):
    """Invariant suite: duality, gradient check, MMS order, weight checks,
    artifact determinism."""
    from .geometry import ControlPatch

    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(cfg.seed)

    grid = GridSpec(16, 16)
    tgrid = TimeGrid(1.0, 64)
    patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
    vb = bump_on_solver_grids(grid, patch)
    defect = max(duality_defect(grid, tgrid, 0.1, vb, rng) for _ in range(10))
    checks.append(("duality_defect", defect <= 1.0e-10, f"{defect:.3e}"))

    pen = PenaltySpec(epsilon=1.0e-4, weight_mode="unweighted")
    th0v = 0.1 * sine_theta(grid, 1.0)
    y0v = (grid.zeros_u(), grid.zeros_v())
    def rand_controls(scale):
        # drawn on the whole grid, then read on the patch's box
        parts = (scale * rng.standard_normal((tgrid.nt,) + b.shape) * (b > 0) for b in vb)
        return ControlTrajectory(*parts, grid_box(grid)).on(control_box(vb))

    base = rand_controls(0.3)
    g = gradient(base, y0v, th0v, None, None, pen, None, grid, tgrid, 0.1, vb)
    worst = 0.0
    for _ in range(5):
        d = rand_controls(1.0)
        h = 1.0e-5
        jp = objective(base.plus(d, h), y0v, th0v, None, None, pen, None,
                       grid, tgrid, 0.1, vb)
        jm = objective(base.plus(d, -h), y0v, th0v, None, None, pen, None,
                       grid, tgrid, 0.1, vb)
        an = control_inner(g, d, grid, tgrid.dt)
        worst = max(worst, abs(an - (jp - jm) / (2 * h)) / max(abs(an), 1e-300))
    checks.append(("gradient_fd", worst <= 1.0e-5, f"{worst:.3e}"))

    mrep = run_mms(cfg.system if cfg.system.mode == "nonlinear" else SystemSpec(),
                   grid_sizes=(16, 32), t_final=0.25, nt=16)
    ok = 1.7 <= mrep.order <= 2.3
    checks.append(("mms_order", ok, f"{mrep.order:.3f}"))

    margin = check_weight_gap(cfg.wparams)
    checks.append(("weight_gap_margin", margin > 0.0, f"{margin:.6g}"))
    tg256 = TimeGrid(1.0, 256)
    tables = eval_weights(cfg.wparams, build_eta0(grid, patch), tg256)
    chain = check_weight_chain(tables, default_t_clip(None, tg256))
    checks.append(("weight_chain_finite", chain.all_finite,
                   ",".join(f"{k}={v:.3g}" for k, v in chain.ratios.items())))

    det_cfg = cfg.with_kind("decay")
    sub = [os.path.join(out_dir, "det_a"), os.path.join(out_dir, "det_b")]
    for s in sub:
        run_experiment(det_cfg, s)
    same = compare_artifact_dirs(sub[0], sub[1])
    checks.append(("determinism", same, "byte-identical" if same else "mismatch"))

    section = {name: f"{'pass' if ok else 'FAIL'} ({val})" for name, ok, val in checks}
    emit_report(os.path.join(out_dir, "verify_report.txt"), {"verify": section},
                config_hash=chash, grid_hash=ghash)
    for name, result in section.items():
        print(f"{name} = {result}")
    return 0 if all(ok for _, ok, _ in checks) else 4


def compare_artifact_dirs(a: str, b: str) -> bool:
    """Byte-compare two artifact directories, ignoring wall-clock lines."""
    fa = sorted(os.path.relpath(os.path.join(r, f), a)
                for r, _, fs in os.walk(a) for f in fs)
    fb = sorted(os.path.relpath(os.path.join(r, f), b)
                for r, _, fs in os.walk(b) for f in fs)
    if fa != fb:
        return False
    for rel in fa:
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        with open(pa, "rb") as f1, open(pb, "rb") as f2:
            da, db = f1.read(), f2.read()
        if da == db:
            continue

        def strip(blob):
            return b"\n".join(ln for ln in blob.split(b"\n")
                              if b"wall_time_s" not in ln)

        if strip(da) != strip(db):
            return False
    return True
