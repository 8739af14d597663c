"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_times_on_a_synthetic_span_tree():
    # cli.main [0, 10] holds pde.simulate [1, 4] and speed.bvp [5, 9];
    # speed.bvp holds speed.bvp.linear_solve [6, 7]; the workload took 12 s.
    tree = [["cli.main", 0.0, 10.0, -1], ["pde.simulate", 1.0, 4.0, 0],
            ["speed.bvp", 5.0, 9.0, 0], ["speed.bvp.linear_solve", 6.0, 7.0, 2]]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0]
    summary = spans.summarize(tree, wall_s=12.0)
    assert summary["layer_self_s"]["cli"] == 3.0
    assert summary["layer_self_s"]["speed"] == 4.0
    assert summary["inclusive_s"]["speed.bvp"] == 4.0
    assert summary["unattributed_s"] == 2.0
    assert sum(summary["layer_self_s"].values()) + summary["unattributed_s"] == 12.0


def test_overlapping_children_are_not_subtracted_twice():
    tree = [["cli.main", 0.0, 10.0, -1], ["pde.simulate", 1.0, 4.0, 0],
            ["pde.cn_solve", 3.0, 6.0, 0]]
    assert spans.self_times(tree)[0] == 5.0


def test_an_injected_failure_is_counted_and_the_workload_goes_on(tmp_path):
    ran = []

    def ok(name):
        return workloads.Op(name, lambda: ran.append(name), lambda _result: None)

    def raises():
        raise RuntimeError("injected")

    def misses(_result):
        raise workloads.CheckFailed("injected miss")

    bad_cli = workloads.cli_op("speed-without-r", "speed", {"S": 0.1},
                               tmp_path / "speed", lambda _outdir: None)
    wl = workloads.Workload("synthetic", 0, [
        ok("first"),
        workloads.Op("raises", raises, lambda _result: None),
        workloads.Op("misses", lambda: None, misses),
        bad_cli,
        ok("last"),
    ], cell_steps=0)
    outcome = workloads.run_ops(wl)
    assert outcome.attempted == 5
    assert [f.split(":")[0] for f in outcome.failures] == ["raises", "misses", "speed-without-r"]
    assert ran == ["first", "last"]
    reps = [{"attempted": outcome.attempted, "failures": outcome.failures}]
    traced = {"trace": {"absent": [], "calls": {}, "inclusive_s": {}, "self_s": {},
                        "counts": {}, "unattributed_s": 0.0,
                        "layer_self_s": dict.fromkeys(spans.LAYERS, 0.0)},
              "cell_steps": 0, "measures": {}, "wall_s": 1.0, "wall_cal_s": 1.0}
    values = run.layer_metrics(traced, 1.0, reps, None, {})
    assert values["failed_frac"] == pytest.approx(3 / 5)


def test_metric_names_are_valid_and_all_emitted():
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = list(e2e) + list(per_layer) + [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert e2e == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.BY_NAME)
    assert run.VARIANTS == workloads.VARIANTS


def test_a_missing_target_is_reported_absent(monkeypatch):
    from clinewave import speed

    monkeypatch.setattr(speed, "sps", speed.sps)  # restored after the test
    monkeypatch.setattr(spans, "TARGETS", [
        ("genetics.step", "clinewave.genetics", ["no_such_function"], None),
        ("pde.cn_solve", "clinewave.no_such_module", ["solve_banded"], None),
    ])
    tracer = spans.Tracer()
    spans.install(tracer)
    assert tracer.absent == {"genetics.step", "pde.cn_solve"}
    traced = {"trace": {"absent": sorted(tracer.absent), "calls": {}, "inclusive_s": {},
                        "self_s": {}, "counts": {}, "unattributed_s": 0.0,
                        "layer_self_s": dict.fromkeys(spans.LAYERS, 0.0)},
              "cell_steps": 0, "measures": {}, "wall_s": 1.0, "wall_cal_s": 1.0}
    values = run.layer_metrics(traced, 1.0, [], None, {})
    assert values["genetics.step.calls"] is None
    assert values["pde.cn_solve.s"] is None
    assert values["pde.simulate.calls"] == 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fronts",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_traced_fronts_run_meets_its_predictions():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "fronts",
                           "--seed", "3", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    assert metrics["genetics.step.calls"] == 0
    assert metrics["pde.simulate.calls"] == 0
    assert metrics["pde.cn_solve.calls"] == 0
    assert metrics["speed.bvp.calls"] == 6
    assert metrics["speed.bvp.newton_iters"] > 0
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
