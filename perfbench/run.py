"""clinewave benchmark runner.

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 20 --trace 0

Closed loop, one client: this process runs one fresh child process per
repetition, one at a time, with BLAS and OpenMP threads pinned to 1, until
``--seconds`` have passed. With ``--trace 0`` every repetition is
untraced and the end-to-end metrics are medians over them. With
``--trace 1`` untraced and traced repetitions alternate: the per-layer
metrics come from the traced repetition of median wall time, and their
ratio gives the tracing overhead. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --record-reference

re-records the sha256 of every output for every workload and input
variant in ``reference_digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference_digests.json"

WORKLOADS = ("fig1", "compare-fig3", "fronts", "relax")
VARIANTS = 8            # must match workloads.VARIANTS; kept here so this file imports no numpy
MIN_REPS = 3            # untraced repetitions per run, at least
# A run must end within 180 s: no repetition starts after RUN_LIMIT_S and
# none may take longer than CHILD_TIMEOUT_S (one takes about 5 s).
CHILD_TIMEOUT_S = 60.0
RUN_LIMIT_S = 100.0

SRC_MODULES = ("__init__", "cli", "errors", "genetics", "pde", "reporting",
               "speed", "stability", "standing", "svgplot")

# Per-layer metrics read off a traced repetition: name -> (unit, summary
# field, key). The field is "calls", "inclusive_s" or "self_s" of the span
# named by the key, or "counts" for a counter that a span's wrapper adds up.
SPAN_METRICS = {
    "genetics.step.calls": ("count", "calls", "genetics.step"),
    "genetics.step.s": ("s", "inclusive_s", "genetics.step"),
    "pde.simulate.calls": ("count", "calls", "pde.simulate"),
    "pde.simulate.self_s": ("s", "self_s", "pde.simulate"),
    "pde.cell_steps": ("count", "counts", "pde.cell_steps"),
    "pde.records": ("count", "counts", "pde.records"),
    "pde.cn_solve.calls": ("count", "calls", "pde.cn_solve"),
    "pde.cn_solve.s": ("s", "inclusive_s", "pde.cn_solve"),
    "pde.front_tracking.calls": ("count", "calls", "pde.front_tracking"),
    "pde.front_tracking.s": ("s", "inclusive_s", "pde.front_tracking"),
    "standing.profile.calls": ("count", "calls", "standing.profile"),
    "standing.profile.s": ("s", "inclusive_s", "standing.profile"),
    "standing.slope_law.calls": ("count", "calls", "standing.slope_law"),
    "standing.slope_law.s": ("s", "inclusive_s", "standing.slope_law"),
    "standing.ode.nfev": ("count", "counts", "standing.ode.nfev"),
    "speed.bvp.calls": ("count", "calls", "speed.bvp"),
    "speed.bvp.newton_iters": ("count", "calls", "speed.bvp.linear_solve"),
    "speed.bvp.linear_solve_s": ("s", "inclusive_s", "speed.bvp.linear_solve"),
    "speed.bvp.assembly_s": ("s", "inclusive_s", "speed.bvp.assembly"),
    "speed.c1_exact.calls": ("count", "calls", "speed.c1_exact"),
    "speed.c1_exact.s": ("s", "inclusive_s", "speed.c1_exact"),
    "speed.measure.self_s": ("s", "self_s", "speed.measure"),
    "stability.eigensolve.calls": ("count", "calls", "stability.eigensolve"),
    "stability.eigensolve.s": ("s", "inclusive_s", "stability.eigensolve"),
    "stability.relaxation.self_s": ("s", "self_s", "stability.relaxation"),
    "stability.shift_fits": ("count", "calls", "stability.shift_fit"),
    "cli.dispatch.self_s": ("s", "self_s", "cli.dispatch"),
    "reporting.write.calls": ("count", "calls", "reporting.write"),
    "reporting.write.s": ("s", "inclusive_s", "reporting.write"),
    "reporting.bytes_written": ("bytes", "counts", "reporting.bytes_written"),
}
# The span whose wrapper adds up each counter.
COUNTER_SPANS = {"pde.cell_steps": "pde.simulate", "pde.records": "pde.simulate",
                 "standing.ode.nfev": "standing.ode",
                 "reporting.bytes_written": "reporting.write"}

PER_LAYER = {
    "failed_frac": "ratio",
    "cell_steps_per_s": "cellsteps/s",
    "speed_rel_err": "ratio",
    "bvp_rel_err": "ratio",
    "shift_ratio_err": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: unit for name, (unit, _field, _key) in SPAN_METRICS.items()},
    "reporting.outputs_identical": "ratio",
    **{f"src_loc.{mod}": "lines" for mod in SRC_MODULES + ("total",)},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, variant: int, trace: int, rep: int, env: dict) -> dict | None:
    """One repetition in a fresh process; None if it crashed or timed out."""
    outdir = WORK / f"{workload}-{rep}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    result_path = WORK / f"result-{rep}.json"
    env = dict(env, CLINEWAVE_OUT=str(outdir))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--variant", str(variant), "--trace", str(trace), "--outdir", str(outdir),
           "--result", str(result_path)]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=str(WORK),
                              stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"# rep {rep}: child exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        print(f"# rep {rep}: child timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        result_path.unlink(missing_ok=True)


def src_loc() -> dict[str, int | None]:
    out: dict[str, int | None] = {}
    for mod in SRC_MODULES:
        path = SRC / "clinewave" / f"{mod}.py"
        out[mod] = len(path.read_text().splitlines()) if path.is_file() else None
    out["total"] = sum(len(p.read_text().splitlines())
                       for p in (SRC / "clinewave").glob("*.py"))
    return out


def outputs_identical(workload: str, variant: int, digests: dict) -> float | None:
    """Share of outputs byte-identical to the recorded reference; None if none."""
    try:
        ref = json.loads(REFERENCE.read_text())[workload][str(variant)]
    except (OSError, KeyError, ValueError):
        return None
    names = set(ref) | set(digests)
    return sum(ref.get(n) == digests.get(n) for n in names) / len(names) if names else None


def layer_metrics(traced: dict, untraced_wall: float, reps: list[dict],
                  identical: float | None, loc: dict) -> dict[str, float | None]:
    """Every per-layer metric from one traced repetition; None marks absent."""
    trace = traced["trace"]
    values: dict[str, float | None] = {}
    for name, (_unit, field, key) in SPAN_METRICS.items():
        span = COUNTER_SPANS.get(key, key)
        values[name] = None if span in trace["absent"] else trace[field].get(key, 0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["layer_self_s"][layer]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    values["failed_frac"] = failed / attempted if attempted else 1.0
    values["cell_steps_per_s"] = traced["cell_steps"] / untraced_wall
    for name in ("speed_rel_err", "bvp_rel_err", "shift_ratio_err"):
        values[name] = traced["measures"].get(name, 0.0)
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_frac"] = traced["wall_cal_s"] / untraced_wall - 1.0
    values["trace.unattributed_s"] = trace["unattributed_s"]
    values["reporting.outputs_identical"] = identical
    for mod, lines in loc.items():
        values[f"src_loc.{mod}"] = lines
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def record_reference(env: dict) -> int:
    table: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for variant in range(VARIANTS):
            res = run_child(workload, variant, 0, 0, env)
            if res is None or res["failures"]:
                print(f"{workload} variant {variant} failed: "
                      f"{res and res['failures']}", file=sys.stderr)
                return 1
            table[workload][str(variant)] = res["digests"]
            print(f"{workload} variant {variant}: {len(res['digests'])} outputs")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clinewave" / "cli.py").is_file():
        print(f"error: no clinewave sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = child_env()
    try:
        if args.record_reference:
            return record_reference(env)
        return bench(args, env)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def bench(args, env: dict) -> int:
    variant = args.seed % VARIANTS
    warm = run_child("none", 0, 0, -1, env)  # compiles bytecode, warms the file cache
    if warm is None:
        return 1
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    crashed = 0
    rep = 0
    while True:
        trace = bool(args.trace and rep % 2 == 1)
        t_rep = time.monotonic()
        res = run_child(args.workload, variant, int(trace), rep, env)
        rep_s = time.monotonic() - t_rep
        rep += 1
        if res is None:
            crashed += 1
        else:
            (traced if trace else untraced).append(res)
            print(f"# rep {rep} {'traced' if trace else 'untraced'}: "
                  f"wall_s={res['wall_cal_s']:.4f} raw {res['wall_s']:.4f}, "
                  f"setup_s={res['setup_cal_s']:.4f} raw {res['setup_s']:.4f}, "
                  f"probe_s={statistics.fmean(res['probe_s']):.4f}, "
                  f"failed {len(res['failures'])}/{res['attempted']}")
            for failure in res["failures"]:
                print(f"#   FAILED {failure}")
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if args.trace else MIN_REPS) and (traced or not args.trace)
        if elapsed > RUN_LIMIT_S or crashed > 1 or (enough and elapsed + rep_s > args.seconds):
            break

    reps = untraced + traced
    attempted = sum(r["attempted"] for r in reps) + crashed
    failed = sum(len(r["failures"]) for r in reps) + crashed
    print(f"# env python={warm['env']['python']} numpy={warm['env']['numpy']} "
          f"scipy={warm['env']['scipy']} nproc={os.cpu_count()} threads=1")
    print(f"# workload={args.workload} seed={args.seed} variant={variant} "
          f"reps: {len(untraced)} untraced, {len(traced)} traced, {crashed} crashed")
    identical = outputs_identical(args.workload, variant, reps[0]["digests"]) if reps else None

    # Every end-to-end figure by name and unit. The JSON line carries the
    # ones that are defined and nonzero on every workload; failures travel
    # in its attempted/failed fields.
    shown: dict[str, tuple] = {}
    wall = median([r["wall_cal_s"] for r in untraced])
    if untraced:
        shown["wall_s"] = (wall, "s")
        shown["setup_s"] = (median([r["setup_cal_s"] for r in reps]), "s")
        shown["peak_rss_mb"] = (median([r["peak_rss_mb"] for r in reps]), "MB")
        shown["wall_raw_s"] = (median([r["wall_s"] for r in untraced]), "s")
        shown["setup_raw_s"] = (median([r["setup_s"] for r in reps]), "s")
        shown["probe_s"] = (median([statistics.fmean(r["probe_s"]) for r in reps]), "s")
        if untraced[0]["cell_steps"]:
            shown["cell_steps_per_s"] = (untraced[0]["cell_steps"] / wall, "cellsteps/s")
        for name, value in sorted(untraced[0]["measures"].items()):
            shown[name] = (value, "ratio")
    shown["failed_frac"] = (failed / attempted if attempted else None, "ratio")
    shown["reporting.outputs_identical"] = (identical, "ratio")

    metrics: dict[str, dict] = {}
    if untraced and not args.trace:
        metrics = {n: {"value": shown[n][0], "unit": u} for n, u in END_TO_END.items()}
    elif untraced and traced:
        ordered = sorted(traced, key=lambda r: r["wall_cal_s"])
        typical = ordered[(len(ordered) - 1) // 2]
        values = layer_metrics(typical, wall, reps, identical, src_loc())
        metrics = {n: {"value": values[n], "unit": unit} for n, unit in PER_LAYER.items()}
        shown = {n: (m["value"], m["unit"]) for n, m in metrics.items()} | shown

    for name, (value, unit) in shown.items():
        print(f"{name} = {'absent' if value is None else f'{value:.6g}'} {unit}")
    correct = bool(untraced) and failed == 0 and (bool(traced) or not args.trace)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
