"""Configuration parsing, field/trace persistence, runner kinds, CLI."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bousscontrol.config import _DEFAULTS, parse_config, parse_config_text, emit_resolved
from bousscontrol.control import OuterLoopSpec, PenaltySpec
from bousscontrol.exceptions import ConfigError, DomainError
from bousscontrol.fieldio import dump_field, energy_trace_csv, load_field
from bousscontrol.forward import EnergyTrace, LinearPropagator
from bousscontrol.grids import GridSpec, TimeGrid
from bousscontrol.operators import ViscosityLaw
from bousscontrol.runner import compare_artifact_dirs, run_experiment
from bousscontrol.weights import WeightParams

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

NUMERIC_KEYS = set(_DEFAULTS) - {
    "kind", "dump_fields", "system.variant", "system.theta_source", "system.heating",
    "system.mode", "weights.auto_m", "penalty.weight_mode"}


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
    ])
    def test_non_finite_or_out_of_range_value_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config_text(MINIMAL.replace(key + " =", "# " + key) + line + "\n")

    @pytest.mark.parametrize("line", [
        "grid.nx = 0",
        "outer.damping = 2",
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
        if key == "weights.m":
            text += "weights.auto_m = false\n"
        try:
            parse_config_text(text)
        except ConfigError as exc:
            assert key in str(exc)

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

    def test_main_bad_config(self, tmp_path):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("nonsense.key = 1\n")
        rc = main(["decay", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2

    def test_main_rejects_out_of_range_value(self, tmp_path):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "zero.cfg"
        cfg_path.write_text(MINIMAL + "penalty.cg_max_iters = 0\n")
        rc = main(["linear-control", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
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
        ("linear-control", "weights.auto_m = false\nweights.eta_sup = 0\n"),
        ("linear-control", "penalty.t_clip = 5.0\n"),
        ("large-time", "large_time.tail_t_final = 5e-324\n"),
    ], ids=["short-large-time-grid", "empty-decay-window", "one-node-decay-window",
            "center-outside-inner-patch", "zero-eta-sup", "t-clip-past-horizon",
            "zero-time-step"])
    def test_main_rejects_run_time_failures_at_parse_time(self, tmp_path, kind, lines):
        from bousscontrol.cli import main
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL + lines)
        rc = main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()


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
        spec = SystemSpec(law=ViscosityLaw("l2", 1.0, 0.1))
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
