"""Strict experiment configuration: flat ``section.key = value`` text files.

Unknown keys are errors; every default is materialized at parse time and the
resolved configuration echoes as a sorted, fully-explicit key set, so
``parse(emit(parse(x))) == parse(x)`` and the config hash pins the experiment.
"auto" placeholders (minimal feasible m, coupling, t_clip) are resolved
eagerly during parsing.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .exceptions import ConfigError, DomainError, GeometryError, SearchError
from .geometry import ControlPatch
from .grids import GridSpec, TimeGrid
from .control import OuterLoopSpec, PenaltySpec
from .diagnostics import decay_window
from .forward import SystemSpec
from .operators import ViscosityLaw
from .weights import WeightParams, default_t_clip, find_min_m

_KINDS = ("simulate", "linear-control", "nonlinear-control", "decay",
          "large-time", "verify")

_DEFAULTS: dict[str, str] = {
    "kind": "simulate",
    "seed": "0",
    "dump_fields": "false",
    "grid.nx": "32",
    "grid.ny": "32",
    "grid.lx": "1.0",
    "grid.ly": "1.0",
    "time.t_final": "1.0",
    "time.nt": "128",
    "system.nu0": "1.0",
    "system.nu1": "0.1",
    "system.p": "2.0",
    "system.theta_source": "velocity",
    "system.heating": "true",
    "system.mode": "nonlinear",
    "system.coupling": "auto",
    "weights.s": "1.0",
    "weights.lambda": "1.0",
    "weights.m": "auto",
    "weights.eta_sup": "1.0",
    "patch.cx": "0.5",
    "patch.cy": "0.5",
    "patch.hx": "0.2",
    "patch.hy": "0.2",
    "patch.inner_margin": "0.25",
    "penalty.eps": "1e-6",
    "penalty.weight_mode": "carleman",
    "penalty.t_clip": "auto",
    "penalty.cg_tol": "1e-6",
    "penalty.cg_max_iters": "600",
    "outer.max": "20",
    "outer.tol": "1e-9",
    "init.target_energy": "auto",
    "init.vel_amp": "1.0",
    "init.theta_amp": "1.0",
    "decay.fit_lo_frac": "0.2",
    "decay.fit_hi_frac": "1.0",
    "large_time.delta": "1e-4",
    "large_time.phase1_t_final": "1.0",
    "large_time.phase1_nt": "256",
    "large_time.tail_t_final": "0.75",
    "large_time.tail_nt": "96",
    "linear_control.eps_sweep": "",
}


def _parse_bool(key, s):
    if s in ("true", "True", "1"):
        return True
    if s in ("false", "False", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {s!r}")


def _parse_float(key, s):
    """A finite number, or a ConfigError (no key accepts NaN or inf)."""
    try:
        x = float(s)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {s!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {s!r}")
    return x


def _parse_positive(key, s):
    """A number that must be finite and > 0, or a ConfigError."""
    x = _parse_float(key, s)
    if not (x > 0.0):
        raise ConfigError(f"{key}: expected a finite number > 0, got {s!r}")
    return x


def _parse_int(key, s):
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {s!r}") from None


def _parse_count(key, s, least=1):
    """An integer >= ``least``, or a ConfigError."""
    n = _parse_int(key, s)
    if n < least:
        raise ConfigError(f"{key}: expected an integer >= {least}, got {s!r}")
    return n


@contextmanager
def _keyed(keys: str):
    """Report a spec constructor's rejection as a ConfigError naming ``keys``."""
    try:
        yield
    except (DomainError, GeometryError, SearchError) as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _parse_time_grid(vals, t_key, nt_key) -> TimeGrid:
    """The TimeGrid of a (horizon, step count) key pair; its rules (nt >= 16,
    a step that does not underflow to 0) are reported against both keys."""
    t_final = _parse_positive(t_key, vals[t_key])
    nt = _parse_int(nt_key, vals[nt_key])
    with _keyed(f"{t_key}, {nt_key}"):
        return TimeGrid(t_final, nt)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    dump_fields: bool
    grid: GridSpec
    tgrid: TimeGrid
    system: SystemSpec
    wparams: WeightParams
    patch: ControlPatch
    pen: PenaltySpec
    outer: OuterLoopSpec
    init_target_energy: float | None
    init_vel_amp: float
    init_theta_amp: float
    decay_fit_lo_frac: float
    decay_fit_hi_frac: float
    lt_delta: float
    lt_phase1: TimeGrid
    lt_tail: TimeGrid
    eps_sweep: tuple = ()
    resolved: dict = field(default_factory=dict, compare=False)

    def resolved_lines(self):
        return [f"{k} = {self.resolved[k]}" for k in sorted(self.resolved)]

    def digest(self) -> str:
        text = "\n".join(self.resolved_lines())
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def with_kind(self, kind: str) -> "ExperimentConfig":
        if kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        resolved = dict(self.resolved)
        resolved["kind"] = kind
        return replace(self, kind=kind, resolved=resolved)


def parse_config_text(text: str) -> ExperimentConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, val = (s.strip() for s in stripped.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if key in raw:
            raise ConfigError(f"duplicate configuration key {key!r}")
        raw[key] = val

    vals = dict(_DEFAULTS)
    vals.update(raw)

    if vals["kind"] not in _KINDS:
        raise ConfigError(f"kind: expected one of {_KINDS}, got {vals['kind']!r}")

    with _keyed("grid.nx, grid.ny"):
        grid = GridSpec(nx=_parse_int("grid.nx", vals["grid.nx"]),
                        ny=_parse_int("grid.ny", vals["grid.ny"]),
                        lx=_parse_positive("grid.lx", vals["grid.lx"]),
                        ly=_parse_positive("grid.ly", vals["grid.ly"]))
    tgrid = _parse_time_grid(vals, "time.t_final", "time.nt")

    with _keyed("system.nu1, system.p"):
        law = ViscosityLaw(nu0=_parse_positive("system.nu0", vals["system.nu0"]),
                           nu1=_parse_float("system.nu1", vals["system.nu1"]),
                           p=_parse_float("system.p", vals["system.p"]))
    coupling = (None if vals["system.coupling"] == "auto"
                else _parse_float("system.coupling", vals["system.coupling"]))
    with _keyed("system.theta_source, system.mode"):
        system = SystemSpec(
            law=law,
            theta_coeff_source=vals["system.theta_source"],
            nu0_coupling=coupling,
            heating_on=_parse_bool("system.heating", vals["system.heating"]),
            mode=vals["system.mode"],
        )

    lam = _parse_positive("weights.lambda", vals["weights.lambda"])
    eta_sup = _parse_positive("weights.eta_sup", vals["weights.eta_sup"])
    if vals["weights.m"] == "auto":
        with _keyed("weights.lambda, weights.eta_sup"):
            m = find_min_m(lam, eta_sup)
        vals["weights.m"] = f"{m:.17g}"
    else:
        m = _parse_float("weights.m", vals["weights.m"])
    with _keyed("weights.m"):
        wparams = WeightParams(s=_parse_positive("weights.s", vals["weights.s"]),
                               lam=lam, m=m, eta_sup=eta_sup)

    with _keyed("patch.hx, patch.hy, patch.inner_margin"):
        patch = ControlPatch(
            center=(_parse_float("patch.cx", vals["patch.cx"]),
                    _parse_float("patch.cy", vals["patch.cy"])),
            half_widths=(_parse_float("patch.hx", vals["patch.hx"]),
                         _parse_float("patch.hy", vals["patch.hy"])),
            inner_margin=_parse_float("patch.inner_margin", vals["patch.inner_margin"]))

    if vals["penalty.t_clip"] == "auto":
        t_clip = default_t_clip(None, tgrid)
        vals["penalty.t_clip"] = f"{t_clip:.17g}"
    else:
        t_clip = _parse_positive("penalty.t_clip", vals["penalty.t_clip"])
        if not (t_clip < tgrid.t_final):
            raise ConfigError(f"penalty.t_clip: expected a value < time.t_final = "
                              f"{tgrid.t_final:g}, got {t_clip:g}")
    with _keyed("penalty.weight_mode"):
        pen = PenaltySpec(
            epsilon=_parse_positive("penalty.eps", vals["penalty.eps"]),
            weight_mode=vals["penalty.weight_mode"],
            t_clip=t_clip,
            cg_tol=_parse_positive("penalty.cg_tol", vals["penalty.cg_tol"]),
            cg_max_iters=_parse_count("penalty.cg_max_iters", vals["penalty.cg_max_iters"]))
    outer = OuterLoopSpec(max_outer=_parse_count("outer.max", vals["outer.max"]),
                          outer_tol=_parse_positive("outer.tol", vals["outer.tol"]))

    target = (None if vals["init.target_energy"] == "auto"
              else _parse_positive("init.target_energy", vals["init.target_energy"]))

    fit_lo = _parse_float("decay.fit_lo_frac", vals["decay.fit_lo_frac"])
    fit_hi = _parse_float("decay.fit_hi_frac", vals["decay.fit_hi_frac"])
    if not (0.0 <= fit_lo < min(fit_hi, 1.0)):
        raise ConfigError("decay.fit_lo_frac, decay.fit_hi_frac: expected "
                          f"0 <= lo < min(hi, 1), got {fit_lo:g}, {fit_hi:g}")
    t_final = tgrid.t_final
    if decay_window(tgrid.nodes(), (fit_lo * t_final, fit_hi * t_final)).sum() < 2:
        raise ConfigError("decay.fit_lo_frac, decay.fit_hi_frac: the fit window "
                          "holds fewer than 2 time nodes")

    sweep: tuple = ()
    if vals["linear_control.eps_sweep"].strip():
        sweep = tuple(_parse_positive("linear_control.eps_sweep", s.strip())
                      for s in vals["linear_control.eps_sweep"].split(","))

    return ExperimentConfig(
        kind=vals["kind"],
        seed=_parse_count("seed", vals["seed"], least=0),
        dump_fields=_parse_bool("dump_fields", vals["dump_fields"]),
        grid=grid, tgrid=tgrid, system=system, wparams=wparams, patch=patch,
        pen=pen, outer=outer,
        init_target_energy=target,
        init_vel_amp=_parse_float("init.vel_amp", vals["init.vel_amp"]),
        init_theta_amp=_parse_float("init.theta_amp", vals["init.theta_amp"]),
        decay_fit_lo_frac=fit_lo,
        decay_fit_hi_frac=fit_hi,
        lt_delta=_parse_positive("large_time.delta", vals["large_time.delta"]),
        lt_phase1=_parse_time_grid(vals, "large_time.phase1_t_final",
                                   "large_time.phase1_nt"),
        lt_tail=_parse_time_grid(vals, "large_time.tail_t_final", "large_time.tail_nt"),
        eps_sweep=sweep,
        resolved=vals,
    )


def parse_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_config_text(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def emit_resolved(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        for line in cfg.resolved_lines():
            fh.write(line + "\n")
