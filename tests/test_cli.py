"""End-to-end tests of the command-line driver and its artifact contracts."""

import concurrent.futures
import json
import math

import numpy as np
import pytest

from clinewave import cli
from clinewave.cli import _error_payload, _parse_r_grid, _resolve, build_parser, main
from clinewave.errors import NewtonDivergenceError, NoHeteroclinicError
from clinewave.pde import Grid1D
from clinewave.genetics import default_half_width


# reaction overshoot from a hostile dt on the reduced model: every node goes
# non-finite on the default domain, only some on the wider 40/sqrt(S) one
BLOWUP_EVERYWHERE = ["simulate", "--model", "reduced", "--init", "logistic",
                     "--S", "0.1", "--r", "0.001", "--dt", "5.0", "--t-end", "50"]
BLOWUP = BLOWUP_EVERYWHERE + ["--half-width", repr(40.0 / math.sqrt(0.1))]
LOGISTIC = ["simulate", "--model", "reduced", "--init", "logistic"]


def run_cli(args, tmp_path, name="run"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


class TestStandingCommand:
    def test_writes_profiles_and_report(self, tmp_path):
        code, out = run_cli(
            ["standing", "--S", "0.6", "--r", "0.25", "--svg"], tmp_path)
        assert code == 0
        for name in ("profile_quadrature.csv", "profile_shooting.csv",
                     "phase_plane_orbit.csv", "report.json", "manifest.json",
                     "profile.svg", "phase_plane.svg"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["cross_method_sup_gap"] < 1e-6
        assert report["quadrature"]["symmetry_defect"] < 1e-8
        assert report["quadrature"]["condition_S_lt_4r"] is True
        header = (out / "profile_quadrature.csv").read_text().splitlines()[0]
        assert header == "x,u,du"

    def test_fig2_preset_runs_both_regimes(self, tmp_path):
        code, out = run_cli(
            ["standing", "--preset", "fig2", "--dx", "0.05"], tmp_path)
        assert code == 0
        holds = json.loads((out / "condition-holds" / "report.json").read_text())
        fails = json.loads((out / "condition-fails" / "report.json").read_text())
        assert holds["shooting"]["condition_S_lt_4r"] is True
        assert fails["shooting"]["condition_S_lt_4r"] is False

    def test_fig2_builds_each_quadrature_profile_once(self, tmp_path, monkeypatch):
        # one build per regime: the shot is checked against that same profile
        from clinewave import standing

        calls = []
        build = standing.profile_from_quadrature

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(standing, "profile_from_quadrature", counting)
        code, _out = run_cli(["standing", "--preset", "fig2"], tmp_path)
        assert code == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("flag", ["--S", "--r"])
    def test_fig2_preset_rejects_S_and_r(self, tmp_path, flag):
        # fig2 fixes (S, r) to its two regimes; the flag would be recorded but unused
        code, out = run_cli(["standing", "--preset", "fig2", flag, "0.3"], tmp_path)
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert not (out / "manifest.json").exists()

    def test_manifest_records_defaults(self, tmp_path):
        code, out = run_cli(["standing", "--S", "0.25", "--r", "0.25"], tmp_path)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["toolkit_version"]
        assert "dx" in manifest["defaulted"]
        assert "x_max" in manifest["defaulted"]
        assert manifest["resolved"]["S"] == 0.25
        assert len(manifest["run_id"]) == 12

    @pytest.mark.parametrize("argv", [
        ["--S", "0.1", "--r", "0.1", "--x-max", "300", "--dx", "0.05"],
        ["--S", "0.85", "--r", "0.15", "--x-max", "800", "--dx", "0.5"]])
    def test_underflowed_tail_exits_4_with_strict_json(self, tmp_path, argv):
        # 1 - u rounds to 0 in the left tail's fitted quarter: no NaN decay rate
        code, out = run_cli(["standing"] + argv, tmp_path)
        assert code == 4

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        written = {path.name: json.loads(path.read_text(), parse_constant=reject)
                   for path in out.rglob("*.json")}
        assert written["error.json"]["error"] == "ClinewaveError"
        assert "left tail underflowed" in written["error.json"]["message"]
        assert "report.json" not in written

    def test_deterministic_bytes(self, tmp_path):
        _, out_a = run_cli(["standing", "--S", "0.25", "--r", "0.25"], tmp_path, "a")
        _, out_b = run_cli(["standing", "--S", "0.25", "--r", "0.25"], tmp_path, "b")
        assert ((out_a / "profile_quadrature.csv").read_bytes()
                == (out_b / "profile_quadrature.csv").read_bytes())
        assert ((out_a / "manifest.json").read_bytes()
                == (out_b / "manifest.json").read_bytes())


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\nS = 0.25\nr = 0.25\ndx = 0.05\n")
        code, out = run_cli(
            ["standing", "--config", str(cfg), "--r", "0.3"], tmp_path)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved"]["S"] == 0.25
        assert manifest["resolved"]["r"] == 0.3  # flag wins

    def test_config_keeps_flag_values_equal_to_the_command(self, tmp_path, monkeypatch):
        # "--out standing" must survive the re-parse that adds the config
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("S = 0.25\nr = 0.25\ndx = 0.05\n")
        monkeypatch.chdir(tmp_path)
        code = main(["standing", "--config", str(cfg), "--out", "standing"])
        assert code == 0
        manifest = json.loads((tmp_path / "standing" / "manifest.json").read_text())
        assert manifest["resolved"]["S"] == 0.25

    def test_explicit_flag_beats_preset(self):
        args = build_parser().parse_args(["simulate", "--preset", "fig1", "--dt", "0.2"])
        params, defaulted = _resolve(args, "simulate")
        assert params["dt"] == 0.2        # given, though equal to the parser default
        assert params["t_end"] == 3000.0  # not given: the preset's value
        assert params["init"] == "standing"
        assert "t_end" not in defaulted

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus = 1\n")
        code = main(["standing", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_malformed_config_line_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("just words\n")
        code = main(["standing", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_bad_config_value_exits_2_with_error_json(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("dx = abc\n")
        out = tmp_path / "x"
        code = main(["standing", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert json.loads((out / "error.json").read_text())["exit_code"] == 2

    def test_bad_flag_value_exits_2_with_error_json(self, tmp_path):
        out = tmp_path / "x"
        assert main(["simulate", "--dx", "abc", "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["exit_code"]) == ("ConfigError", 2)

    def test_help_and_version_write_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLINEWAVE_OUT", str(tmp_path / "envroot"))
        assert main(["--version"]) == 0
        assert main(["simulate", "--help", "--out", str(tmp_path / "x")]) == 0
        assert not (tmp_path / "envroot").exists() and not (tmp_path / "x").exists()

    def test_invariant_violation_exits_3_with_error_json(self, tmp_path):
        out = tmp_path / "bad"
        code = main(["simulate", "--model", "pqd", "--sA", "0.5", "--SA", "0.1",
                     "--out", str(out)])
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 3
        assert err["error"] == "ValueError"

    def test_numerical_failure_exits_4(self, tmp_path):
        out = tmp_path / "blowup"
        code = main(BLOWUP + ["--out", str(out)])
        assert code == 4
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 4

    def test_error_json_summarises_the_snapshot(self, tmp_path):
        out = tmp_path / "blowup"
        assert main(BLOWUP + ["--out", str(out)]) == 4
        assert (out / "error.json").stat().st_size < 4096
        err = json.loads((out / "error.json").read_text())
        assert err["t"] == 10.0
        field = err["snapshot"]["u_reduced"]
        assert set(field) == {"min", "max", "nonfinite", "worst_node", "worst_value"}
        assert field["nonfinite"] > 0
        assert field["worst_value"] is None  # non-finite: null keeps strict JSON
        assert field["min"] <= field["max"]

    def test_error_json_of_an_all_nonfinite_snapshot(self, tmp_path):
        out = tmp_path / "blowup"
        assert main(BLOWUP_EVERYWHERE + ["--out", str(out)]) == 4

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        err = json.loads((out / "error.json").read_text(), parse_constant=reject)
        nodes = Grid1D.symmetric(default_half_width(0.1), 0.2).n
        assert err["snapshot"]["u_reduced"] == {
            "min": None, "max": None, "nonfinite": nodes, "worst_node": 0, "worst_value": None}

    @pytest.mark.parametrize("argv, names", [
        (["simulate", "--dx", "0"], "dx"), (["standing", "--dx", "0"], "dx"),
        (["compare", "--dx", "0"], "dx"), (["compare", "--dt", "0"], "dt"),
        # a NaN or infinite S or r used to hang the profile quadrature or
        # write a NaN speed table
        (["standing", "--r", "nan"], "r=nan"), (["stability", "--r", "nan"], "r=nan"),
        (["simulate", "--model", "reduced", "--r", "inf"], "r=inf"),
        (["speed", "--r", "nan"], "r=nan"), (["speed", "--r", "inf"], "r=inf"),
        # infinite lengths and times used to escape as OverflowError, or run
        # to t = nan
        (["simulate", "--t-end", "inf"], "t_end"),
        (["simulate", "--half-width", "inf"], "half-width"),
        # a half-width under dx/2 used to round to a one-node grid, whose
        # error named x_min and x_max instead of either flag
        (["simulate", "--half-width", "0.05"], "half-width=0.05, dx=0.2"),
        (["standing", "--x-max", "inf"], "x_max"),
        (["compare", "--t-end", "inf", "--r-grid", "0.5:0.5:0.1"], "t_end"),
        (["simulate", "--model", "reduced", "--dt", "inf", "--t-end", "10"], "dt"),
        # a t_end that is not a whole number of steps used to end elsewhere
        (["simulate", "--model", "reduced", "--dt", "0.3", "--t-end", "1.0",
          "--record-every", "1"], "t_end"),
        # grids below the seven-node stencil, and k < 1, used to fail
        # inside numpy or scipy with messages that named neither
        (["standing", "--dx", "100"], "dx"), (["stability", "--dx", "100"], "dx"),
        (["standing", "--x-max", "0.01"], "dx"),
        (["standing", "--dx", "30", "--x-max", "60"], "dx"),
        (["stability", "--k", "0"], "k must"), (["stability", "--k", "-3"], "k must"),
        # S <= 0, r = 0 and s = 0 used to die in a ZeroDivisionError (exit 1,
        # no error.json), or print numpy's sqrt warning first
        (["simulate", "--S", "0"], "S=0.0"),
        (["simulate", "--model", "gametes", "--S", "0"], "S=0.0"),
        (["simulate", "--S", "-0.1"], "S=-0.1"),
        (["compare", "--S", "0", "--r-grid", "0.3:0.3:0.1"], "S=0.0"),
        (["compare", "--r-grid", "0:0:0.1"], "r=0.0"),
        (["compare", "--s", "0", "--t-end", "10", "--r-grid", "0.3:0.3:0.1"], "s=0.0"),
        # the reduced model with a logistic start used to run a flat front
        # (S = 0), divide by r = 0 (exit 1, no error.json) or run with a
        # negative r; a NaN eps stepped the run into a blow-up (exit 4)
        (LOGISTIC + ["--S", "0", "--half-width", "50"], "S=0.0"),
        (LOGISTIC + ["--r", "0"], "r=0.0"), (LOGISTIC + ["--r", "-0.1"], "r=-0.1"),
        (LOGISTIC + ["--r", "inf"], "r=inf"), (LOGISTIC + ["--eps", "nan"], "eps=nan"),
        # S = 0 with a given half-width used to be blamed on SA
        (["simulate", "--S", "0", "--half-width", "40"], "S=0.0"),
        # s >= S used to name sA and SA
        (["compare", "--s", "0.2"], "s=0.2"),
        # an infinite sigma2 or dx escaped as OverflowError or a NaN grid; a
        # zero or negative sigma2 failed in the grid or in math.sqrt; an
        # infinite sigma2 or SA stepped the run into a blow-up (exit 4)
        (["compare", "--sigma2", "inf"], "sigma2=inf"),
        (["compare", "--dx", "inf"], "dx=inf"),
        (["simulate", "--sigma2", "0"], "sigma2=0.0"),
        (["simulate", "--sigma2", "-1"], "sigma2=-1.0"),
        (["simulate", "--sigma2", "inf"], "sigma2=inf"),
        (["simulate", "--SA", "inf"], "SA=inf"),
    ], ids=["simulate-dx", "standing-dx", "compare-dx", "compare-dt",
            "standing-r-nan", "stability-r-nan", "simulate-reduced-r-inf",
            "speed-r-nan", "speed-r-inf", "simulate-t-end-inf", "simulate-half-width-inf",
            "simulate-half-width-under-half-dx",
            "standing-x-max-inf", "compare-t-end-inf", "simulate-dt-inf",
            "simulate-t-end-off-step", "standing-dx-coarse", "stability-dx-coarse",
            "standing-x-max-short", "standing-five-nodes", "stability-k-0",
            "stability-k-negative", "simulate-S-0", "simulate-gametes-S-0",
            "simulate-S-negative", "compare-S-0", "compare-r-0", "compare-s-0",
            "logistic-S-0", "logistic-r-0", "logistic-r-negative", "logistic-r-inf",
            "logistic-eps-nan", "simulate-S-0-half-width", "compare-s-above-S",
            "compare-sigma2-inf", "compare-dx-inf", "simulate-sigma2-0",
            "simulate-sigma2-negative", "simulate-sigma2-inf", "simulate-SA-inf"])
    def test_bad_numeric_flag_exits_3_with_error_json(self, tmp_path, argv, names):
        out = tmp_path / "bad"
        assert main(argv + ["--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["exit_code"]) == ("ValueError", 3)
        assert names in err["message"]

    def test_too_short_stability_domain_exits_4(self, tmp_path):
        # the tail corrections of the solvability ratio carry too much weight
        out = tmp_path / "short"
        assert main(["stability", "--x-max", "12", "--out", str(out)]) == 4
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["exit_code"]) == ("ProfileTooShortError", 4)

    def test_error_payload_copies_scalar_diagnostics(self):
        payload = _error_payload(NewtonDivergenceError("stalled", 3.5e-9), 4)
        assert payload == {"error": "NewtonDivergenceError", "message": "stalled",
                           "exit_code": 4, "last_residual": 3.5e-9}
        payload = _error_payload(NoHeteroclinicError("escaped", (0.7, -3.2)), 4)
        assert payload["escape_state"] == (0.7, -3.2)


class TestSpeedCommand:
    def test_theory_table_over_r_grid(self, tmp_path):
        code, out = run_cli(
            ["speed", "--S", "0.1", "--r-grid", "0.1:0.5:0.05", "--s", "0.01"],
            tmp_path)
        assert code == 0
        lines = (out / "speed_table.csv").read_text().splitlines()
        assert lines[0].startswith("r,c1_exact,c1_series2,c1_star,speed_exact")
        assert len(lines) == 1 + 9
        first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert first["c1_exact"] == pytest.approx(4.157462, rel=1e-5)

    def test_r_grid_stops_at_its_stop(self):
        assert _parse_r_grid("0.1:0.5:0.15") == [0.1, 0.25, 0.4]
        assert _parse_r_grid("0.1:0.45:0.1")[-1] == 0.4
        default = _parse_r_grid("0.15:0.5:0.05")  # quotient 6.999999999999999
        assert (len(default), default[-1]) == (8, 0.5)
        assert _parse_r_grid("0.3:0.3:0.1") == [0.3]

    @pytest.mark.parametrize("grid", ["0.1:inf:0.1", "0.1:0.5:nan", "nan:0.5:0.1",
                                      "0.1:0.5:inf"])
    def test_non_finite_r_grid_exits_2_with_error_json(self, tmp_path, grid):
        # an infinite stop used to escape as OverflowError, a NaN or an
        # infinite step as an invariant violation (exit 3)
        out = tmp_path / "bad"
        assert main(["speed", "--S", "0.1", "--r-grid", grid, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["exit_code"]) == ("ConfigError", 2)

    @pytest.mark.parametrize("flags, names", [
        # both used to exit 0: the table ran over the grid and the manifest
        # recorded --r; --sigma2 was recorded and read by nothing
        (["--r", "0.3", "--r-grid", "0.1:0.2:0.1"], ["--r ", "--r-grid"]),
        (["--r", "0.3", "--sigma2", "4"], ["--sigma2"]),
    ], ids=["r-and-r-grid", "sigma2"])
    def test_conflicting_or_unread_flag_exits_2(self, tmp_path, flags, names):
        out = tmp_path / "bad"
        assert main(["speed", "--S", "0.1"] + flags + ["--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
        assert all(name in err["message"] for name in names)

    def test_requires_r_or_grid(self, tmp_path):
        code = main(["speed", "--S", "0.1", "--out", str(tmp_path / "x")])
        assert code == 2


class TestStabilityCommand:
    def test_reports_spectrum_and_residuals(self, tmp_path):
        code, out = run_cli(
            ["stability", "--S", "0.1", "--r", "0.1", "--k", "4"], tmp_path)
        assert code == 0
        res = json.loads((out / "residuals.json").read_text())
        assert abs(res["lambda_0"]) < 1e-3
        assert res["lambda_1"] < -0.01
        assert res["kernel_cosine_with_slope"] > 0.999
        assert res["solvability_ratio"] == pytest.approx(res["c1_exact"], rel=1e-6)
        eigvals = (out / "eigenvalues.csv").read_text().splitlines()
        assert len(eigvals) == 1 + 4
        vecs = np.loadtxt(out / "eigenvectors.csv", delimiter=",", skiprows=1)
        assert vecs.shape[1] == 1 + 4


class TestSimulateCommand:
    def test_reduced_run_artifacts(self, tmp_path):
        code, out = run_cli(
            ["simulate", "--model", "reduced", "--S", "0.1", "--r", "0.1",
             "--eps", "0.001", "--t-end", "50", "--dt", "0.25"], tmp_path)
        assert code == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x,u_reduced"
        fronts = (out / "fronts.csv").read_text().splitlines()
        assert fronts[0] == "t,front_u_reduced"

    def test_gamete_model_runs(self, tmp_path):
        code, out = run_cli(
            ["simulate", "--model", "gametes", "--S", "0.1", "--r", "0.1",
             "--t-end", "20", "--dt", "0.5", "--half-width", "130"], tmp_path)
        assert code == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x,u,v,w,z"


class TestModelFlags:
    """A simulate flag that the chosen model does not read is rejected, not
    recorded in the manifest and ignored by the run."""

    @pytest.mark.parametrize("args", [
        [*model, flag, value]
        for model in (["--model", "pqd"], ["--model", "gametes"], ["--preset", "fig1"])
        for flag, value in (("--eps", "0.01"), ("--init", "logistic"))
    ] + [
        ["--model", "reduced", flag, value]
        for flag, value in (("--sA", "0.05"), ("--sB", "0.05"), ("--SA", "0.2"),
                            ("--SB", "0.2"), ("--sigma2", "8"), ("--offset-p", "20"),
                            ("--offset-q", "20"))
    ])
    def test_unused_flag_exits_2(self, tmp_path, args):
        code, out = run_cli(["simulate", *args], tmp_path)
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert args[-2] in err["message"]


class TestFig1Preset:
    """fig1 is preset data for simulate: its runs are plain pqd and gamete runs."""

    SHORT = ["--t-end", "5", "--record-every", "5"]
    PLAIN = ["simulate", "--offset-p", "-10", "--offset-q", "10",
             "--half-width", "140", "--dt", "0.5"] + SHORT

    def test_default_flags_match_plain_runs(self, tmp_path):
        code, fig1 = run_cli(["simulate", "--preset", "fig1"] + self.SHORT, tmp_path, "fig1")
        assert code == 0
        for model in ("pqd", "gametes"):
            code, plain = run_cli(self.PLAIN + ["--model", model], tmp_path, model)
            assert code == 0
            assert ((fig1 / f"trajectory_{model}.csv").read_bytes()
                    == (plain / "trajectory.csv").read_bytes())

    def test_flags_are_used_and_recorded(self, tmp_path):
        flags = ["--S", "0.2", "--r", "0.3"]
        code, fig1 = run_cli(["simulate", "--preset", "fig1"] + flags + self.SHORT,
                             tmp_path, "fig1")
        assert code == 0
        _, plain = run_cli(self.PLAIN + flags, tmp_path, "plain")
        assert ((fig1 / "trajectory_pqd.csv").read_bytes()
                == (plain / "trajectory.csv").read_bytes())
        resolved = json.loads((fig1 / "manifest.json").read_text())["resolved"]
        assert (resolved["S"], resolved["r"]) == (0.2, 0.3)
        assert (resolved["offset_p"], resolved["offset_q"]) == (-10.0, 10.0)
        assert resolved["half_width"] == 140.0

    def test_single_model_exits_2(self, tmp_path):
        code, _ = run_cli(["simulate", "--preset", "fig1", "--model", "gametes"]
                          + self.SHORT, tmp_path)
        assert code == 2


class TestCompareCommand:
    def test_single_point_comparison(self, tmp_path):
        code, out = run_cli(
            ["compare", "--S", "0.1", "--r-grid", "0.5:0.5:0.1", "--s", "0.01",
             "--t-end", "150"], tmp_path)
        assert code == 0
        lines = (out / "speed_comparison.csv").read_text().splitlines()
        assert len(lines) == 2
        plot = (out / "speed_plot_data.csv").read_text().splitlines()
        assert plot[0].startswith("r,measured_original,predicted_star_original")

    def test_grid_point_out_of_range_exits_3_before_any_run(self, tmp_path, monkeypatch):
        # r = 0.55 is the last of eight points: the seven lab runs before it
        # would be thrown away, so no run starts
        from clinewave import pde

        calls = []
        monkeypatch.setattr(pde, "simulate_pqd", lambda *a, **k: calls.append(a))
        code, out = run_cli(["compare", "--preset", "fig3", "--r-grid", "0.15:0.55:0.05"],
                            tmp_path)
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert err["message"] == "recombination must lie in [0, 1/2], got 0.55"
        assert calls == []


class TestOutputRoot:
    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLINEWAVE_OUT", str(tmp_path / "envroot"))
        monkeypatch.chdir(tmp_path)
        code = main(["speed", "--S", "0.1", "--r", "0.2"])
        assert code == 0
        runs = list((tmp_path / "envroot").glob("speed-*/speed_table.csv"))
        assert len(runs) == 1

    def test_failed_run_writes_error_json_into_its_own_directory(self, tmp_path,
                                                                  monkeypatch):
        monkeypatch.setenv("CLINEWAVE_OUT", str(tmp_path / "envroot"))
        assert main(BLOWUP) == 4
        runs = list((tmp_path / "envroot").iterdir())
        assert len(runs) == 1
        assert (runs[0] / "error.json").exists()


class TestSweepCommand:
    def test_parallel_product_of_runs(self, tmp_path):
        out = tmp_path / "sweepy"
        code = main(["sweep", "standing", "--vary", "S=0.1,0.25",
                     "--vary", "r=0.25", "--threads", "2",
                     "--out", str(out), "--", "--dx", "0.05"])
        assert code == 0
        for sub in ("S=0.1_r=0.25", "S=0.25_r=0.25"):
            assert (out / sub / "report.json").exists()
            manifest = json.loads((out / sub / "manifest.json").read_text())
            assert manifest["resolved"]["dx"] == 0.05
        top = json.loads((out / "manifest.json").read_text())
        assert sorted(top["runs"]) == ["S=0.1_r=0.25", "S=0.25_r=0.25"]

    def test_failing_point_does_not_stop_the_others(self, tmp_path):
        out = tmp_path / "sweepy"
        code = main(["sweep", "standing", "--vary", "r=-1,0.25", "--threads", "2",
                     "--out", str(out), "--", "--dx", "0.05"])
        assert code == 3
        assert (out / "r=-1" / "error.json").exists()
        assert (out / "r=0.25" / "report.json").exists()
        top = json.loads((out / "manifest.json").read_text())
        assert top["exit_codes"] == {"r=-1": 3, "r=0.25": 0}

    def test_point_with_a_bad_flag_value_writes_its_error_json(self, tmp_path):
        out = tmp_path / "sweepy"
        code = main(["sweep", "standing", "--vary", "dx=abc,0.05", "--threads", "1",
                     "--out", str(out)])
        assert code == 2
        assert json.loads((out / "dx=abc" / "error.json").read_text())["exit_code"] == 2
        assert (out / "dx=0.05" / "report.json").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, threads):
        # -3 used to run the points serially and exit 0
        out = tmp_path / "sweepy"
        code = main(["sweep", "standing", "--vary", "dx=0.05", "--threads", threads,
                     "--out", str(out)])
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
        assert "--threads" in err["message"]
        assert not (out / "dx=0.05").exists()

    def test_config_reaches_every_point(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("r = 0.25\ndx = 0.05\n")
        out = tmp_path / "sweepy"
        code = main(["sweep", "standing", "--vary", "S=0.1,0.25", "--threads", "1",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        for sub in ("S=0.1", "S=0.25"):
            resolved = json.loads((out / sub / "manifest.json").read_text())["resolved"]
            assert (resolved["r"], resolved["dx"]) == (0.25, 0.05)

    def test_pool_asks_for_no_more_workers_than_points(self, tmp_path, monkeypatch):
        asked = []

        class SerialPool:  # records the request and starts no process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_sweep imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        code = main(["sweep", "standing", "--vary", "S=0.1,0.25", "--threads", "64",
                     "--out", str(tmp_path / "sweepy"), "--", "--r", "0.25", "--dx", "0.05"])
        assert (code, asked) == (0, [2])

    def test_unknown_vary_key_exits_2(self, tmp_path):
        code = main(["sweep", "standing", "--vary", "zap=1,2",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_vary_key_without_values_exits_2(self, tmp_path):
        # it used to exit 0 with "runs": [] after running nothing
        out = tmp_path / "x"
        assert main(["sweep", "standing", "--vary", "r=", "--out", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["exit_code"] == 2
        assert not (out / "manifest.json").exists()

    def test_repeated_vary_key_exits_2(self, tmp_path):
        out = tmp_path / "x"
        assert main(["sweep", "standing", "--vary", "dx=abc", "--vary", "dx=xyz",
                     "--out", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["exit_code"] == 2
        assert "'dx'" in error["message"]
        assert not (out / "manifest.json").exists()
