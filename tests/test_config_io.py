"""Configuration parsing, field/trace persistence, runner kinds, CLI."""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bousscontrol.config import _DEFAULTS, parse_config, parse_config_text, emit_resolved
from bousscontrol.control import OuterLoopSpec, PenaltySpec
from bousscontrol.exceptions import ConfigError, DomainError, ShapeError
from bousscontrol.fieldio import dump_field, energy_trace_csv, load_field, parse_report
from bousscontrol.forward import EnergyTrace, LinearPropagator
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.operators import ViscosityLaw
from bousscontrol.runner import compare_artifact_dirs, run_experiment
from bousscontrol.weights import WeightParams, find_min_m

from conftest import Recorder, run_linearized

MINIMAL = """
kind = decay
grid.nx = 16
grid.ny = 16
time.t_final = 1.0
time.nt = 64
system.nu0 = 1.0
system.nu1 = 0.1
init.target_energy = 1e-4
"""

DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs")
                      .glob("*.cfg"))

NUMERIC_KEYS = set(_DEFAULTS) - {
    "kind", "dump_fields", "system.theta_source", "system.heating", "system.mode",
    "penalty.weight_mode"}


class TestConfig:
    def test_minimal_parses_with_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.kind == "decay"
        assert cfg.grid.nx == 16
        assert cfg.pen.weight_mode == "carleman"
        assert cfg.wparams.m > 4.0  # auto-resolved
        assert "patch.cx" in cfg.resolved

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="nu2"):
            parse_config_text(MINIMAL + "\nsystem.nu2 = 0.3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "\ngrid.nx = 8\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="grid.nx"):
            parse_config_text("grid.nx = sixteen\n")

    def test_resolved_roundtrip(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        path = tmp_path / "resolved.cfg"
        emit_resolved(cfg, path)
        cfg2 = parse_config(path)
        assert cfg == cfg2
        assert cfg.digest() == cfg2.digest()

    def test_eps_sweep_parsing(self):
        cfg = parse_config_text(MINIMAL + "linear_control.eps_sweep = 1e-2, 1e-4\n")
        assert cfg.eps_sweep == (1e-2, 1e-4)

    @pytest.mark.parametrize("line", [
        "penalty.eps = nan",
        "penalty.eps = inf",
        "linear_control.eps_sweep = 1e-2, 0, -1",
        "linear_control.eps_sweep = nan",
        "penalty.cg_tol = nan",
    ])
    def test_penalty_parameter_must_be_finite_positive(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config_text(MINIMAL + line + "\n")

    @pytest.mark.parametrize("line", [
        "penalty.cg_max_iters = 0",
        "penalty.cg_max_iters = -3",
        "outer.tol = nan",
        "system.nu0 = nan",
        "system.nu1 = nan",
        "grid.lx = nan",
        "grid.ly = inf",
        "time.t_final = inf",
        "large_time.delta = -1",
        "init.theta_amp = nan",
        "seed = -3",
        # TimeGrid needs nt >= 16; every time grid is built at parse time
        "time.nt = 8",
        "large_time.phase1_nt = 4",
        "large_time.tail_nt = 8",
        # a step t_final / nt that underflows to 0, on each time grid
        "time.t_final = 5e-324",
        "large_time.phase1_t_final = 5e-324",
        "large_time.tail_t_final = 5e-324",
        # the decay fit window [lo T, hi T] must be nonempty
        "decay.fit_lo_frac = 1.5",
        "decay.fit_lo_frac = -0.1",
        "decay.fit_hi_frac = 0.1",
        # more time nodes than numpy can hold in one array
        f"time.nt = {10 ** 22}",
        f"time.nt = {2 ** 62}",
        f"large_time.tail_nt = {10 ** 22}",
    ])
    def test_non_finite_or_out_of_range_value_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config_text(MINIMAL.replace(key + " =", "# " + key) + line + "\n")

    @pytest.mark.parametrize("line", [
        "grid.nx = 0",
        "system.p = 2.5",
        "system.nu1 = -5",
        "patch.hx = -1",
        "patch.inner_margin = 5",
        "penalty.weight_mode = foo",
        "system.mode = foo",
        "system.theta_source = foo",
        "weights.lambda = 1e-300",
    ])
    def test_spec_rejection_names_key(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config_text(MINIMAL.replace(key + " =", "# " + key) + line + "\n")

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(key=st.sampled_from(sorted(NUMERIC_KEYS)),
           value=st.one_of(st.integers(-10 ** 4, 10 ** 5).map(str),
                           st.floats(allow_nan=True, allow_infinity=True).map(repr),
                           st.sampled_from(["", "foo", "1e400", "-0", "0x10"])))
    def test_any_numeric_value_returns_or_names_key(self, key, value):
        # every numeric key either parses or fails with a ConfigError naming it
        text = MINIMAL.replace(key + " =", "# " + key) + f"{key} = {value}\n"
        try:
            parse_config_text(text)
        except ConfigError as exc:
            assert key in str(exc)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # as the CLI: printed, not fatal
    def test_hostile_demo_configs_run_or_fail_by_name(self, tmp_path, capsys):
        """A seeded sweep: 1-2 keys of a demo config, removed keys included,
        take a hostile value or their value scaled by 10^(+-2..300); every
        case that parses runs in-process and ends in exit 0, 2, 3 or 4, never
        in another exception.  Sizes are capped before any case runs (grid
        <= 24^2, <= 128 steps, few CG and outer iterations), so no case asks
        for large arrays or long runs."""
        caps = {"grid.nx": 16, "grid.ny": 16, "time.nt": 32, "large_time.phase1_nt": 32,
                "large_time.tail_nt": 32, "penalty.cg_max_iters": 20, "outer.max": 4}
        keys = sorted(_DEFAULTS) + ["system.variant", "weights.auto_m", "outer.damping"]
        values = ["nan", "-inf", "0", "-1", "1e308", "1e-308", "1e-200", "1e22", "",
                  "garbage", "\u00e9t\u00e9", "1, 2", "auto", "lp", "true", "2.5", "4"]
        rng = random.Random(20261020)

        def hostile(old):
            try:
                x = float(old)
            except ValueError:
                return rng.choice(values)
            if rng.random() < 0.5:
                return rng.choice(values)
            return repr(x * 10.0 ** rng.choice((-300, -8, -2, 2, 8, 300)))

        failures, codes = [], []
        for case in range(300):
            lines = dict(line.split(" = ", 1) for line in
                         DEMO_CONFIGS[case % len(DEMO_CONFIGS)].read_text().splitlines()
                         if " = " in line and not line.startswith("#"))
            lines.update((k, str(min(int(lines.get(k, _DEFAULTS[k])), cap)))
                         for k, cap in caps.items())
            lines.update((k, hostile(lines.get(k, _DEFAULTS.get(k, ""))))
                         for k in rng.sample(keys, rng.randint(1, 2)))
            text = "".join(f"{k} = {v}\n" for k, v in lines.items())
            try:
                cfg = parse_config_text(text)
            except ConfigError:
                codes.append(2)
                continue
            assert (cfg.grid.nx <= 24 and cfg.grid.ny <= 24 and cfg.pen.cg_max_iters <= 20
                    and cfg.outer.max_outer <= 4 and max(
                        g.nt for g in (cfg.tgrid, cfg.lt_phase1, cfg.lt_tail)) <= 128)
            try:
                codes.append(run_experiment(cfg, str(tmp_path / f"case{case}")))
            except Exception as exc:    # any exception but a named exit is the failure
                failures.append(f"{text!r}: {exc!r}")
            else:
                if codes[-1] not in (0, 2, 3, 4):
                    failures.append(f"{text!r}: exit {codes[-1]}")
        capsys.readouterr()
        assert not failures, "\n".join(failures)
        assert codes.count(0) >= 30 and codes.count(3) >= 3   # runs and named failures

    def test_p_alone_picks_the_law(self, grid16):
        # p names the regime: p = 4 runs the L^p law, with no second key
        law = parse_config_text(MINIMAL + "system.p = 4\n").system.law
        assert law == ViscosityLaw(1.0, 0.1, 4.0)
        gm2 = np.random.default_rng(3).random((grid16.nx, grid16.ny))
        lp = 1.0 + 0.1 * np.sqrt(np.sum(gm2 * gm2) * grid16.cell_area)
        assert law.of_density(gm2, grid16) == pytest.approx(lp, rel=1e-14)
        assert law.of_density(gm2, grid16) != ViscosityLaw(1.0, 0.1).of_density(gm2, grid16)

    @pytest.mark.parametrize("line, m", [
        ("", find_min_m(1.0, 1.0)), ("weights.m = auto\n", find_min_m(1.0, 1.0)),
        ("weights.m = 20\n", 20.0)], ids=["default", "auto", "given"])
    def test_m_is_auto_or_used_as_given(self, tmp_path, line, m):
        # auto is the minimal m for weights.lambda and weights.eta_sup; a
        # number is used, and echoed, as written
        cfg = parse_config_text(MINIMAL + line)
        assert cfg.wparams.m == m
        assert run_experiment(cfg, str(tmp_path)) == 0
        assert f"weights.m = {m:.17g}\n" in (tmp_path / "resolved_config.txt").read_text()

    @pytest.mark.parametrize("build", [
        lambda: OuterLoopSpec(outer_tol=float("nan")),
        lambda: PenaltySpec(cg_max_iters=0),
        lambda: PenaltySpec(t_clip=float("nan")),
        lambda: GridSpec(16, 16, lx=float("nan")),
        lambda: TimeGrid(float("nan"), 64),
        lambda: ViscosityLaw(nu0=float("nan")),
        lambda: ViscosityLaw(nu1=float("nan")),
        lambda: LinearPropagator(GridSpec(16, 16), TimeGrid(1.0, 64), float("nan")),
        lambda: WeightParams(s=float("nan")),
        lambda: WeightParams(lam=float("nan")),
        lambda: WeightParams(m=float("nan")),
        lambda: WeightParams(eta_sup=float("nan")),
    ])
    def test_spec_guards_reject_nan(self, build):
        with pytest.raises(DomainError):
            build()

    def test_kind_override(self):
        cfg = parse_config_text(MINIMAL).with_kind("simulate")
        assert cfg.kind == "simulate"
        assert cfg.resolved["kind"] == "simulate"


class TestFieldIO:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((17, 16))
        path = tmp_path / "f.fld"
        dump_field(path, arr, "velocity_u", 0.125)
        back, meta = load_field(path)
        assert np.array_equal(back, arr)  # bit exact
        assert meta["kind"] == "velocity_u"
        assert meta["time"] == 0.125

    @pytest.mark.parametrize("keep, want", [
        (-8, "holds 568 data bytes, expected 576"),
        (0, "not a field dump"),
        (24, "broken header"),
        (None, "not a field dump"),
    ], ids=["last-value-missing", "empty-file", "cut-in-header", "not-ascii"])
    def test_broken_dump_named(self, tmp_path, keep, want):
        # a dump cut short, empty or of other bytes fails with the file named
        # (and the byte counts) instead of inside numpy or the header parse
        path = tmp_path / "f.fld"
        dump_field(path, np.ones((8, 9)), "cells", 0.0)
        blob = path.read_bytes()
        path.write_bytes(b"\xff\xfe" + blob if keep is None else blob[:keep])
        with pytest.raises(ShapeError, match=want) as err:
            load_field(path)
        assert str(path) in str(err.value)

    def test_energy_csv_rows(self, tmp_path):
        n = 65
        trace = EnergyTrace(t=np.linspace(0, 1, n), grad_y_sq=np.ones(n),
                            theta_sq=np.ones(n), grad_theta_sq=np.ones(n),
                            lam1=2 * np.pi ** 2)
        path = tmp_path / "energy.csv"
        energy_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,E,Phi,grad_y_sq,theta_sq,grad_theta_sq"
        assert len(lines) == n + 1


class TestRunner:
    def test_simulate_kind(self, tmp_path):
        cfg = parse_config_text(MINIMAL).with_kind("simulate")
        rc = run_experiment(cfg, str(tmp_path / "out"))
        assert rc == 0
        assert (tmp_path / "out" / "report.txt").exists()
        assert (tmp_path / "out" / "resolved_config.txt").exists()
        assert (tmp_path / "out" / "energy.csv").exists()

    def test_decay_window_reads_back_exactly(self, tmp_path):
        cfg = parse_config_text(MINIMAL + "decay.fit_lo_frac = 0.1234567891\n")
        assert run_experiment(cfg, str(tmp_path / "out")) == 0
        window = parse_report(tmp_path / "out" / "report.txt")["decay.decay_window"]
        t_final = cfg.tgrid.t_final
        assert [float(x) for x in window.split(",")] == [
            cfg.decay_fit_lo_frac * t_final, cfg.decay_fit_hi_frac * t_final]
        assert cfg.decay_fit_lo_frac == 0.1234567891

    def test_decay_kind_csv_rows(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        rc = run_experiment(cfg, str(tmp_path / "out"))
        assert rc == 0
        rows = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        # comment, header, nt+1 samples
        assert len(rows) == 2 + cfg.tgrid.nt + 1

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        run_experiment(cfg, str(tmp_path / "a"))
        run_experiment(cfg, str(tmp_path / "b"))
        assert compare_artifact_dirs(str(tmp_path / "a"), str(tmp_path / "b"))

    def test_geometry_error_writes_nothing(self, tmp_path):
        cfg = parse_config_text(MINIMAL + "patch.cx = 0.95\n")
        out = tmp_path / "out"
        rc = run_experiment(cfg, str(out))
        assert rc == 2
        assert not out.exists()

    def test_linear_control_kind_small(self, tmp_path):
        text = MINIMAL.replace("kind = decay", "kind = linear-control")
        text = text.replace("system.nu0 = 1.0", "system.nu0 = 0.05")
        text = text.replace("time.nt = 64", "time.nt = 32")
        text += "penalty.eps = 1e-4\n"
        cfg = parse_config_text(text)
        rc = run_experiment(cfg, str(tmp_path / "out"))
        assert rc == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "terminal_norm = " in report
        assert "control_energy_weighted = " in report
        assert "cg_iters = " in report
        assert "wall_time_s = " in report
        assert (tmp_path / "out" / "weights.csv").exists()

    @pytest.mark.parametrize("lam", ["300", "1000"])
    def test_weights_past_double_range_fail_before_synthesis(self, tmp_path, capsys,
                                                             lam):
        # s * alpha ~ e^(1500) cannot be tabulated even as a log; the run
        # says so by name, as a configuration error, before any artifact
        text = MINIMAL.replace("kind = decay", "kind = linear-control")
        cfg = parse_config_text(text + f"weights.lambda = {lam}\n")
        assert cfg.wparams.m > 4.0
        out = tmp_path / "out"
        assert run_experiment(cfg, str(out)) == 2
        assert "leaves the double range" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # as the CLI: printed, not fatal
    @pytest.mark.parametrize("kind", ["simulate", "decay", "nonlinear-control",
                                      "large-time"])
    def test_huge_nu0_runs_or_fails_by_name(self, tmp_path, kind):
        # E(0) <= 1e-2 nu0^2 with nu0 = 1e308: the square is inf, not an
        # OverflowError out of the smallness check
        cfg = parse_config_text(
            MINIMAL.replace("system.nu0 = 1.0", "system.nu0 = 1e308")).with_kind(kind)
        assert run_experiment(cfg, str(tmp_path)) in (0, 3)


SYNTHESIS_KEYS = ["terminal_norm", "control_energy_weighted", "cg_iters", "outer_iters",
                  "eps", "wall_time_s", "uncontrolled_terminal_norm", "data_norm",
                  "converged", "forward_sweeps", "adjoint_sweeps"]
OUTER_KEYS = ["update_norms", "cg_iters_per_pass", "recycled_vectors_per_pass"]
WEIGHTED_NORM_KEYS = ["log10_" + k for k in (
    "iint_rho1_sq_state", "iint_rho2_sq_controls", "sup_mu1_y", "iint_mu1_grad_y",
    "sup_mu2_grad_y", "iint_mu2_yt_dy", "mu2_theta_t_L32", "mu2_lap_theta_L32",
    "kappa_iint_dt_kv0_sq", "kappa_iint_dt_kv_sq", "kappa_iint_lap_kv0_sq",
    "kappa_iint_lap_kv_sq", "kappa_sup_h1_kv0_sq", "kappa_sup_h1_kv_sq")]
REPORT_KEYS = {
    "simulate": {"report.txt": {"simulate": [
        "final_norm", "energy_initial", "energy_final", "phi_monotone", "smallness_ok",
        "max_div"]}},
    "decay": {"report.txt": {"decay": [
        "decay_c1", "decay_c2", "decay_r_squared", "decay_window", "phi_monotone",
        "phi_violation_step", "smallness_ok", "t_star_delta", "t_star"]}},
    "linear-control": {
        "report.txt": {"linear_control": SYNTHESIS_KEYS + [
            "sweep_terminal_0", "sweep_terminal_1", "terminal_over_uncontrolled"],
            "weighted_norms": WEIGHTED_NORM_KEYS},
        "report_eps_0.txt": {"linear_control": SYNTHESIS_KEYS},
        "report_eps_1.txt": {"linear_control": SYNTHESIS_KEYS}},
    "nonlinear-control": {"report.txt": {
        "nonlinear_control": SYNTHESIS_KEYS + OUTER_KEYS,
        "weighted_norms": WEIGHTED_NORM_KEYS}},
    "large-time": {"report.txt": {"large_time": [
        "crossing_time", "t_star_predicted", "decay_c1", "decay_c2", "fit_r_squared",
        "final_norm", "delta", "phase1_steps"]
        + ["synthesis_" + k for k in SYNTHESIS_KEYS + OUTER_KEYS]}},
    "verify": {"verify_report.txt": {"verify": [
        "duality_defect", "gradient_fd", "mms_order", "weight_gap_margin",
        "weight_chain_finite", "determinism"]}},
}


@pytest.mark.parametrize("kind", list(REPORT_KEYS))
def test_report_keys_in_order(tmp_path, kind):
    # keys only: a dropped, renamed or reordered report line fails here
    cfg = parse_config_text(
        MINIMAL + "penalty.eps = 1e-4\nlinear_control.eps_sweep = 1e-2, 1e-4\n"
    ).with_kind(kind)
    assert run_experiment(cfg, str(tmp_path)) == 0
    for name, sections in REPORT_KEYS[kind].items():
        want = ["config_hash", "grid_hash"] + [
            f"{sec}.{key}" for sec in sorted(sections) for key in sections[sec]]
        assert list(parse_report(tmp_path / name)) == want, name
    reports = {p.name for p in tmp_path.glob("*report*.txt")}
    assert reports == set(REPORT_KEYS[kind])


class TestCli:
    def test_help_and_subcommands(self, capsys):
        from bousscontrol.cli import build_parser
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        out = capsys.readouterr().out
        for kind in ("simulate", "linear-control", "nonlinear-control",
                     "decay", "large-time", "verify"):
            assert kind in out

    def test_main_runs_decay(self, tmp_path):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        rc = main(["decay", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 0

    def test_main_names_a_degenerate_decay_fit(self, tmp_path):
        # a horizon of 1e-200 runs, but its times square to 0 in the fit
        from bousscontrol.cli import main
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(MINIMAL.replace("time.t_final = 1.0", "time.t_final = 1e-200"))
        assert main(["decay", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")]) == 3
        assert (tmp_path / "out" / "error.txt").read_text().startswith(
            "DomainError: degenerate decay fit")

    @pytest.mark.parametrize("line", [
        "system.variant = lp", "weights.auto_m = false", "outer.damping = 0.5"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, line):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "old.cfg"
        cfg_path.write_text(MINIMAL + line + "\n")
        assert main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"unknown configuration key {line.split(' = ')[0]!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dump_fields_is_a_key_not_a_flag(self, tmp_path):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                  "--dump-fields"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_main_bad_config(self, tmp_path):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("nonsense.key = 1\n")
        rc = main(["decay", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2

    def test_main_rejects_non_utf8_config(self, tmp_path, capsys):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "latin1.cfg"
        cfg_path.write_bytes(b"kind = decay\ngrid.nx = \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            parse_config(cfg_path)
        rc = main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_main_rejects_out_of_range_value(self, tmp_path):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "zero.cfg"
        cfg_path.write_text(MINIMAL + "penalty.cg_max_iters = 0\n")
        rc = main(["linear-control", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_main_rejects_negative_seed(self, tmp_path, capsys):
        # numpy's generators take only nonnegative seeds; the parser says so
        # before any artifact is written
        from bousscontrol.cli import main
        assert parse_config_text(MINIMAL + "seed = 0\n").seed == 0
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(MINIMAL + "seed = -3\n")
        rc = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_main_rejects_nan_penalty(self, tmp_path):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text(MINIMAL + "penalty.eps = nan\n")
        rc = main(["linear-control", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, lines", [
        ("large-time", "large_time.phase1_nt = 4\n"),
        ("decay", "decay.fit_lo_frac = 0.9\ndecay.fit_hi_frac = 0.1\n"),
        ("decay", "decay.fit_lo_frac = 0.5\ndecay.fit_hi_frac = 0.501\n"),
        ("linear-control", "patch.cx = 0.3\n"),
        ("linear-control", "weights.m = 14\nweights.eta_sup = 0\n"),
        ("linear-control", "penalty.t_clip = 5.0\n"),
        ("large-time", "large_time.tail_t_final = 5e-324\n"),
        ("large-time", "system.p = 4\n"),
        ("decay", f"large_time.tail_nt = {10 ** 22}\n"),
    ], ids=["short-large-time-grid", "empty-decay-window", "one-node-decay-window",
            "center-outside-inner-patch", "zero-eta-sup", "t-clip-past-horizon",
            "zero-time-step", "lp-large-time", "nodes-past-array-size"])
    def test_main_rejects_run_time_failures_at_parse_time(self, tmp_path, kind, lines):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL + lines)
        rc = main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_lp_large_time_rejection_names_its_keys(self, tmp_path, capsys):
        # the large-time result is for p = 2 only; other kinds run the lp law
        from bousscontrol.cli import main
        cfg_path = tmp_path / "lp.cfg"
        cfg_path.write_text(MINIMAL + "system.p = 4\n")
        assert main(["large-time", "--config", str(cfg_path),
                     "--out", str(tmp_path / "lt")]) == 2
        assert "system.p = 4 is outside it" in capsys.readouterr().out
        assert main(["decay", "--config", str(cfg_path),
                     "--out", str(tmp_path / "decay")]) == 0

    @pytest.mark.parametrize("kind", ["nonlinear-control", "large-time"])
    def test_linearized_synthesis_rejected_by_name(self, tmp_path, capsys, kind):
        # the outer loop freezes the full nonlinear terms: a linearized system
        # would be re-simulated as a linear problem it does not solve
        from bousscontrol.cli import main
        text = MINIMAL + "system.mode = linearized\n"
        cfg_path = tmp_path / "lin.cfg"
        cfg_path.write_text(text)
        assert main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 2
        cfg = parse_config_text(text.replace("kind = decay", f"kind = {kind}"))
        assert cfg.kind == kind
        assert run_experiment(cfg, str(tmp_path / "cfg")) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all("system.mode = linearized" in ln and kind in ln for ln in lines)
        assert not (tmp_path / "cli").exists() and not (tmp_path / "cfg").exists()


class TestVerifyKind:
    def test_verify_exits_zero_on_seed_config(self, tmp_path):
        cfg = parse_config_text(MINIMAL).with_kind("verify")
        rc = run_experiment(cfg, str(tmp_path / "out"))
        assert rc == 0
        report = (tmp_path / "out" / "verify_report.txt").read_text()
        assert "FAIL" not in report
        for check in ("duality_defect", "gradient_fd", "mms_order",
                      "weight_gap_margin", "weight_chain_finite", "determinism"):
            assert check in report

    @pytest.mark.parametrize("order", [1.6, 2.4])
    def test_mms_order_outside_the_invariant_fails(self, tmp_path, monkeypatch, order):
        # the MMS invariant is an order in [1.7, 2.3]
        from types import SimpleNamespace
        from bousscontrol import runner
        monkeypatch.setattr(runner, "run_mms", lambda *a, **kw: SimpleNamespace(order=order))
        cfg = parse_config_text(MINIMAL).with_kind("verify")
        assert run_experiment(cfg, str(tmp_path / "out")) == 4
        report = (tmp_path / "out" / "verify_report.txt").read_text()
        assert f"mms_order = FAIL ({order:.3f})" in report


class TestMoreRunnerKinds:
    def test_simulate_linearized_mode(self, tmp_path):
        text = MINIMAL.replace("kind = decay", "kind = simulate")
        text += "system.mode = linearized\n"
        cfg = parse_config_text(text)
        rc = run_experiment(cfg, str(tmp_path / "out"))
        assert rc == 0
        assert (tmp_path / "out" / "energy.csv").exists()

    def test_trajectory_dump_roundtrip(self, tmp_path):
        from bousscontrol.fieldio import StateWriter, load_field
        from bousscontrol.forward import SystemSpec, run_nonlinear, scaled_initial_data
        from bousscontrol.grids import GridSpec, TimeGrid
        from bousscontrol.operators import ViscosityLaw
        grid = GridSpec(16, 16)
        spec = SystemSpec(law=ViscosityLaw(1.0, 0.1))
        y0, th0 = scaled_initial_data(grid, 1e-4)
        traj, writer = Recorder(), StateWriter(str(tmp_path / "fields"))

        def every_8th(k, *level):
            traj(k, *level)
            if k % 8 == 0:
                writer(k, *level)

        run_nonlinear(y0, th0, None, spec, grid, TimeGrid(1.0, 16), on_state=every_8th)
        paths = writer.paths
        assert len(paths) == 3 * 3  # nodes 0, 8, 16, three fields each
        arr, meta = load_field(paths[0])
        assert np.array_equal(arr, traj.u[0])
        assert meta["kind"] == "state:u"

    def test_sweep_sequential_runs_byte_identical(self, tmp_path):
        text = MINIMAL.replace("kind = decay", "kind = linear-control")
        text = text.replace("system.nu0 = 1.0", "system.nu0 = 0.05")
        text = text.replace("time.nt = 64", "time.nt = 32")
        text += "penalty.eps = 1e-4\nlinear_control.eps_sweep = 1e-2, 1e-3\n"
        cfg = parse_config_text(text)
        assert run_experiment(cfg, str(tmp_path / "a")) == 0
        assert run_experiment(cfg, str(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "report_eps_1.txt").is_file()
        assert compare_artifact_dirs(str(tmp_path / "a"), str(tmp_path / "b"))

    def test_sweep_csv_has_one_row_per_member(self, tmp_path):
        from bousscontrol.control import solve_linear_control
        from bousscontrol.geometry import bump_on_solver_grids
        from bousscontrol.runner import _initial_data, _tables_for
        text = MINIMAL.replace("kind = decay", "kind = linear-control")
        text = text.replace("system.nu0 = 1.0", "system.nu0 = 0.05")
        text = text.replace("time.nt = 64", "time.nt = 32")
        text += "penalty.eps = 1e-4\nlinear_control.eps_sweep = 1e-2, 1e-6, 1e-4\n"
        cfg = parse_config_text(text)
        assert run_experiment(cfg, str(tmp_path)) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash = {cfg.digest()}"
        assert lines[1] == ("eps,cg_iters,j_eps,terminal_norm,terminal_over_sqrt_eps,"
                            "control_energy_weighted")
        rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
        y0, th0 = _initial_data(cfg)
        _, rep = solve_linear_control(
            y0, th0, None, None, cfg.pen, _tables_for(cfg), cfg.grid, cfg.tgrid,
            cfg.system.law.nu0, bump_on_solver_grids(cfg.grid, cfg.patch),
            coupling=cfg.system.buoyancy, eps_sweep=cfg.eps_sweep)
        assert len(rows) == len(rep.sweep) == 3
        for i, (row, member) in enumerate(zip(rows, rep.sweep)):
            report = parse_report(tmp_path / f"report_eps_{i}.txt")
            assert row == [member.eps, member.cg_iters, member.j_history[-1],
                           member.terminal_norm,
                           member.terminal_norm / np.sqrt(member.eps),
                           member.control_energy_weighted]
            for col, key in ((0, "eps"), (1, "cg_iters"), (3, "terminal_norm"),
                             (5, "control_energy_weighted")):
                assert row[col] == report[f"linear_control.{key}"]


LARGE_TIME = """
kind = large-time
grid.nx = 16
grid.ny = 16
time.t_final = 1.0
time.nt = 64
system.nu0 = 1.0
system.nu1 = 0.1
system.heating = true
init.target_energy = 1e-2
penalty.eps = 1e-6
penalty.cg_tol = 1e-6
large_time.delta = 1e-4
large_time.phase1_t_final = 1.0
large_time.phase1_nt = 128
large_time.tail_t_final = 0.5
large_time.tail_nt = 32
"""


def _csv_rows(path):
    return np.array([[float(x) for x in ln.split(",")]
                     for ln in path.read_text().splitlines()[2:]])


def _report_values(path):
    return dict(ln.split(" = ", 1) for ln in path.read_text().splitlines()
                if " = " in ln)


class TestStreamedRuns:
    """Forward runs store only what their callers read; --dump-fields
    streams each level to disk as it is produced."""

    @pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
    def test_decay_allocates_no_time_history(self, tmp_path, mode):
        import tracemalloc
        text = MINIMAL.replace("grid.nx = 16", "grid.nx = 32").replace(
            "grid.ny = 16", "grid.ny = 32").replace("time.nt = 64", "time.nt = 256")
        cfg = parse_config_text(text + f"system.mode = {mode}\n")
        one_history = (cfg.tgrid.nt + 1) * (cfg.grid.nx + 1) * cfg.grid.ny * 8
        tracemalloc.start()
        try:
            rc = run_experiment(cfg, str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < one_history

    def test_synthesis_holds_no_time_history_beyond_the_cg(self, tmp_path, monkeypatch):
        # the run's traced peak is the CG's, plus at most one (nt+1)-level
        # u-face history: the final run streams into the weighted norms
        import tracemalloc
        from bousscontrol.control import LinearControlProblem
        text = MINIMAL.replace("kind = decay", "kind = linear-control").replace(
            "grid.nx = 16", "grid.nx = 32").replace("grid.ny = 16", "grid.ny = 32").replace(
            "time.nt = 64", "time.nt = 256")
        cfg = parse_config_text(text + "system.mode = linearized\n"
                                "penalty.eps = 1e-4\npenalty.cg_tol = 1e-6\n")
        one_history = (cfg.tgrid.nt + 1) * (cfg.grid.nx + 1) * cfg.grid.ny * 8
        solve, cg_peak = LinearControlProblem.solve, []

        def traced_solve(self, *args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return solve(self, *args, **kwargs)
            finally:
                cg_peak.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(LinearControlProblem, "solve", traced_solve)
        tracemalloc.start()
        try:
            rc = run_experiment(cfg, str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and len(cg_peak) == 1
        assert peak < cg_peak[0] + one_history

    @pytest.mark.parametrize("kind", ["decay", "simulate"])
    def test_linearized_run_matches_stored_trajectory(self, tmp_path, kind):
        from bousscontrol.forward import scaled_initial_data, trace_from_trajectory
        from bousscontrol.operators import div
        cfg = parse_config_text(MINIMAL + "system.mode = linearized\n").with_kind(kind)
        assert run_experiment(cfg, str(tmp_path / "out")) == 0
        y0, th0 = scaled_initial_data(cfg.grid, cfg.init_target_energy)
        traj = run_linearized(y0, th0, None, None, None, cfg.system.law.nu0,
                              cfg.grid, cfg.tgrid, coupling=cfg.system.buoyancy)
        ref = trace_from_trajectory(traj, cfg.grid)
        rows = _csv_rows(tmp_path / "out" / "energy.csv")
        assert np.array_equal(rows[:, 0], ref.t)
        assert np.array_equal(rows[:, 3:], np.stack(
            [ref.grad_y_sq, ref.theta_sq, ref.grad_theta_sq], axis=1))
        if kind == "simulate":
            rep = _report_values(tmp_path / "out" / "report.txt")
            assert float(rep["final_norm"]) == traj.terminal_norm(cfg.grid)
            stored_div = max(float(np.max(np.abs(div(traj.u[k], traj.v[k], cfg.grid))))
                             for k in range(1, len(traj.t)))
            assert float(rep["max_div"]) == stored_div
            assert stored_div < 1e-12

    @pytest.mark.parametrize("kind", ["decay", "simulate", "large-time"])
    def test_dumps_leave_trace_and_report_unchanged(self, tmp_path, kind):
        text = LARGE_TIME if kind == "large-time" else MINIMAL
        cfg = parse_config_text(text).with_kind(kind)
        assert run_experiment(cfg, str(tmp_path / "plain")) == 0
        dumped = parse_config_text(text + "dump_fields = true\n").with_kind(kind)
        assert run_experiment(dumped, str(tmp_path / "dumped")) == 0
        for name in ("energy.csv", "report.txt"):
            # the config hash covers dump_fields; wall_time_s is a timing
            a, b = ((tmp_path / d / name).read_text().replace(c.digest(), "")
                    for d, c in (("plain", cfg), ("dumped", dumped)))
            assert [ln for ln in a.splitlines() if "wall_time_s" not in ln] == \
                [ln for ln in b.splitlines() if "wall_time_s" not in ln]
        fields = sorted(p.name for p in (tmp_path / "dumped" / "fields").iterdir())
        assert not any(n.startswith("state_p_") for n in fields)

    def test_streamed_fields_match_stored_levels(self, tmp_path):
        from bousscontrol.forward import run_nonlinear, scaled_initial_data
        cfg = parse_config_text(MINIMAL + "dump_fields = true\n")
        assert run_experiment(cfg, str(tmp_path / "out")) == 0
        y0, th0 = scaled_initial_data(cfg.grid, cfg.init_target_energy)
        traj = Recorder()
        run_nonlinear(y0, th0, None, cfg.system, cfg.grid, cfg.tgrid, on_state=traj)
        fields = tmp_path / "out" / "fields"
        assert len(list(fields.iterdir())) == 3 * (cfg.tgrid.nt + 1)
        for k in range(cfg.tgrid.nt + 1):
            for name, level in (("u", traj.u[k]), ("v", traj.v[k]),
                                ("theta", traj.theta[k])):
                arr, meta = load_field(str(fields / f"state_{name}_{k:05d}.fld"))
                assert np.array_equal(arr, level)
                assert meta["time"] == traj.t[k]
                assert meta["kind"] == f"state:{name}"

    def test_control_dumps_cover_the_whole_grid(self, tmp_path):
        # controls are stored on the patch's box; their dumps are full-grid
        from bousscontrol.geometry import bump_on_solver_grids
        text = MINIMAL.replace("kind = decay", "kind = linear-control")
        cfg = parse_config_text(text + "dump_fields = true\n")
        assert run_experiment(cfg, str(tmp_path / "out")) == 0
        ctrl = tmp_path / "out" / "controls"
        assert len(list(ctrl.iterdir())) == 3 * cfg.tgrid.nt
        bumps = bump_on_solver_grids(cfg.grid, cfg.patch)
        acting = 0
        for k in (0, cfg.tgrid.nt // 2, cfg.tgrid.nt - 1):
            for name, bump in zip(("vu", "vv", "v0"), bumps):
                arr, meta = load_field(str(ctrl / f"control_{name}_{k:05d}.fld"))
                assert arr.shape == bump.shape
                assert meta["time"] == k * cfg.tgrid.dt
                assert not arr[bump == 0.0].any()
                acting += int(arr[bump > 0.0].any())
        assert acting > 0

    def test_large_time_dumps_follow_the_composed_trace(self, tmp_path):
        cfg = parse_config_text(LARGE_TIME + "dump_fields = true\n")
        assert run_experiment(cfg, str(tmp_path / "out")) == 0
        n1 = int(_report_values(tmp_path / "out" / "report.txt")["phase1_steps"])
        assert 0 < n1 < cfg.lt_phase1.nt
        t = _csv_rows(tmp_path / "out" / "energy.csv")[:, 0]
        assert len(t) == n1 + cfg.lt_tail.nt + 1
        fields = tmp_path / "out" / "fields"
        assert len(list(fields.iterdir())) == 3 * len(t)
        for k in range(len(t)):
            _, meta = load_field(str(fields / f"state_theta_{k:05d}.fld"))
            assert meta["time"] == t[k]
