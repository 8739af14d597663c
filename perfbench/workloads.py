"""The four benchmark workloads: their inputs, operations and checks.

An operation is one CLI invocation or one library solve. It fails if it
raises, exits non-zero, or misses its correctness check; a failed
operation is counted and the workload goes on with the next one. The
checks are the acceptance tolerances of the test suite (criteria 01, 02,
04, 05, 07, 08, 09 and 11).

Inputs come from the seed through one of ``VARIANTS`` parameter sets per
workload, so the same seed always gives the same inputs and every seed
has a recorded reference digest of its outputs. Each workload does the
same amount of work in every variant: a variant moves parameters that
change the answer, never the grid or the number of steps.

The presets are shortened so that several repetitions fit in one run:
``fig1`` keeps its grid, time step and solvers but starts the clines
5-8 apart instead of 20, so they stack by t ~ 300 rather than t ~ 2100;
``compare-fig3`` runs four r-points to t = 150 instead of eight to 600,
one invocation each (the gaps at t = 150 agree with those at t = 250 to
0.03 percentage points);
``relax`` relaxes for t = 160 instead of 400 (it settles by t = 100).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from clinewave import cli, pde, speed, stability, standing

VARIANTS = 8
S = 0.1  # selection strength of every workload, as in the acceptance criteria


class CheckFailed(Exception):
    """An operation ran but its output missed an acceptance tolerance."""


@dataclass
class Op:
    """One timed call into the program and the check of what it returned.

    ``outdir`` is set for CLI operations: every file in it is digested.
    Library operations digest their returned values instead.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    outdir: Path | None = None
    digest: Callable[[Any], str] | None = None


@dataclass
class Workload:
    name: str
    variant: int
    ops: list[Op]
    cell_steps: int                     # nodes x components x Strang steps requested
    measures: dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    wall_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    probes: list[float] = field(default_factory=list)


def run_ops(workload: Workload, tracer=None, probe=None) -> Outcome:
    """Run every operation, timing only the calls into the program.

    ``probe``, if given, is timed before the first operation and after
    each one, outside the timed calls.
    """
    out = Outcome()
    if probe is not None:
        out.probes.append(probe())
    for op in workload.ops:
        out.attempted += 1
        error = None
        result = None
        start = time.perf_counter()
        if tracer is not None:
            tracer.enabled = True
        try:
            result = op.call()
        except Exception as exc:  # noqa: BLE001 - a failing operation is counted
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.enabled = False
                tracer.marks.clear()
            out.wall_s += time.perf_counter() - start
        if probe is not None:
            out.probes.append(probe())
        if error is None:
            try:
                op.check(result)
            except Exception as exc:  # noqa: BLE001 - counted like a raise
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            out.failures.append(f"{op.name}: {error}")
            continue
        if op.outdir is not None:
            for path in sorted(p for p in op.outdir.rglob("*") if p.is_file()):
                rel = path.relative_to(op.outdir).as_posix()
                out.digests[f"{op.name}/{rel}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif op.digest is not None:
            out.digests[op.name] = op.digest(result)
    return out


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(detail)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


def _argv(command: str, flags: dict, outdir: Path) -> list[str]:
    argv = [command]
    for key, value in flags.items():
        argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
    return argv + ["--out", str(outdir)]


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_op(name: str, command: str, flags: dict, outdir: Path,
           check: Callable[[Path], None]) -> Op:
    """A CLI invocation whose manifest must list exactly the flags passed.

    ``cli._resolve`` swaps an explicit flag that equals the parser default
    for the preset's value, so the resolved config is read back rather
    than assumed.
    """

    def verify(code):
        _require(code == 0, f"exit code {code}")
        resolved = json.loads((outdir / "manifest.json").read_text())["resolved"]
        for key, value in flags.items():
            got = resolved.get(key.replace("-", "_"))
            _require(got == value, f"manifest resolved {key}={got!r}, passed {value!r}")
        check(outdir)

    return Op(name, lambda: _run_cli(_argv(command, flags, outdir)), verify, outdir=outdir)


def _read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

FIG1_FLAGS = {"S": S, "r": 0.1, "sA": 0.0, "sB": 0.0, "sigma2": 2.0,
              "half-width": 140.0, "dx": 0.2, "dt": 0.5, "t-end": 400.0,
              "record-every": 80}


def fig1(variant: int, root: Path) -> Workload:
    """(p,q,D) and four-gamete Strang runs on the fig1 grid (criterion 07)."""
    flags = dict(FIG1_FLAGS, **{"offset-p": round(-2.5 - 0.2 * variant, 12),
                                "offset-q": round(2.5 + 0.2 * (VARIANTS - 1 - variant), 12)})
    dx = flags["dx"]

    def check_pqd(outdir: Path) -> None:
        D = _read_columns(outdir / "trajectory.csv")["D"]
        _require(float(np.max(np.abs(D))) <= 0.25, "|D| exceeded 1/4")
        fronts = _read_columns(outdir / "fronts.csv")
        sep = abs(fronts["front_p"][-1] - fronts["front_q"][-1])
        _require(sep < dx, f"clines not stacked: final separation {sep:.3g} >= dx={dx}")

    def check_gametes(outdir: Path) -> None:
        cols = _read_columns(outdir / "trajectory.csv")
        err = float(np.max(np.abs(cols["u"] + cols["v"] + cols["w"] + cols["z"] - 1.0)))
        _require(err <= 1e-10, f"gamete-sum error {err:.2e} > 1e-10")

    ops = [
        cli_op("simulate-pqd", "simulate", dict(flags, model="pqd"), root / "pqd", check_pqd),
        cli_op("simulate-gametes", "simulate", dict(flags, model="gametes"),
               root / "gametes", check_gametes),
    ]
    n = 2 * int(round(flags["half-width"] / dx)) + 1
    steps = int(round(flags["t-end"] / flags["dt"]))
    return Workload("fig1", variant, ops, cell_steps=n * (3 + 4) * steps)


def _compare_nodes(r: float, s: float, flags: dict) -> int:
    """Lab-frame domain of one compare point, padded for the expected travel."""
    scale = math.sqrt(flags["sigma2"] / 2.0)
    c_star = (1.0 + (4.0 / 15.0) * flags["S"] / r) / math.sqrt(flags["S"])
    half = 40.0 / math.sqrt(flags["S"]) * scale + 2.0 * s * c_star * scale * flags["t-end"]
    return 2 * int(round(half / flags["dx"])) + 1


def compare_fig3(variant: int, root: Path) -> Workload:
    """Theory-versus-simulation speeds at four r-points (criterion 08).

    One ``compare --preset fig3`` invocation per r-point, largest r first
    as in criterion 08, so that the machine-speed probe runs between them.
    """
    start, step = 0.14 + 0.015 * variant, 0.12 - 0.005 * variant
    r_values = [round(start + i * step, 12) for i in range(3, -1, -1)]
    s = 0.01  # the fig3 asymmetry; it also sets the domain padding, so it stays fixed
    wl = Workload("compare-fig3", variant, [], cell_steps=0)
    gaps: list[float] = []
    errs: list[float] = []

    def check(outdir: Path) -> None:
        with open(outdir / "speed_comparison.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
        _require(len(rows) == 1, f"expected one r-point, got {len(rows)}")
        row = rows[0]
        factor = float(row["s"]) * math.sqrt(float(row["sigma2"]) / 2.0)
        exact = float(row["c1_exact"])
        errs.append(abs(float(row["measured_speed"]) / factor - exact) / exact)
        gaps.append(float(row["relative_gap"]))
        wl.measures["speed_rel_err"] = max(errs)
        if len(gaps) == 1:
            _require(gaps[0] < 0.10, f"gap at r={row['r']} is {gaps[0]:.2%} (>= 10%)")
        else:
            _require(gaps[-1] > gaps[-2], f"gaps do not rise as r falls: {gaps}")

    for r in r_values:
        flags = {"preset": "fig3", "S": S, "r-grid": f"{r!r}:{r!r}:0.1", "s": s,
                 "sigma2": 2.0, "t-end": 150.0, "dt": 0.2, "dx": 0.2}
        wl.ops.append(cli_op(f"compare-r{r:g}", "compare", flags, root / f"compare-r{r:g}",
                             check))
        steps = int(round(flags["t-end"] / flags["dt"]))
        wl.cell_steps += _compare_nodes(r, s, flags) * 3 * steps
    return wl


def fronts(variant: int, root: Path) -> Workload:
    """Standing fronts, spectrum and traveling-wave BVPs (criteria 01, 02,
    04, 05, 09); no time-stepping at all."""
    wl = Workload("fronts", variant, [], cell_steps=0)

    def check_standing(outdir: Path) -> None:
        holds = json.loads((outdir / "condition-holds" / "report.json").read_text())
        fails = json.loads((outdir / "condition-fails" / "report.json").read_text())
        for label, rep in (("condition-holds", holds), ("condition-fails", fails)):
            _require(rep["cross_method_sup_gap"] < 1e-6,
                     f"{label}: cross-method gap {rep['cross_method_sup_gap']:.2e}")
            for method in ("quadrature", "shooting"):
                _require(rep[method]["slope_law_defect"] < 1e-8,
                         f"{label}: {method} slope-law defect")
        quad = holds["quadrature"]
        _require(quad["symmetry_defect"] < 1e-8, "symmetry defect >= 1e-8")
        _require(max(quad["ode_residual_sup"], holds["shooting"]["ode_residual_sup"]) < 1e-6,
                 "ODE residual >= 1e-6")
        rate = abs(quad["decay_rate_right"] / holds["expected_decay_rate"] - 1.0)
        _require(rate < 0.01, f"tail-rate error {rate:.2%}")

    def check_stability(outdir: Path) -> None:
        rep = json.loads((outdir / "residuals.json").read_text())
        _require(abs(rep["lambda_0"]) < 1e-3, f"lambda_0 = {rep['lambda_0']:.2e}")
        _require(rep["lambda_1"] < -0.01, f"lambda_1 = {rep['lambda_1']:.4f}")
        _require(rep["kernel_cosine_with_slope"] > 0.999, "kernel mode is not the slope")
        solv = abs(rep["solvability_ratio"] - rep["c1_exact"]) / rep["c1_exact"]
        _require(solv < 1e-6, f"solvability identity off by {solv:.2e}")

    wl.ops.append(cli_op("standing-fig2", "standing", {"preset": "fig2"},
                         root / "standing", check_standing))
    wl.ops.append(cli_op("stability", "stability",
                         {"S": S, "r": round(0.1 + 0.01 * variant, 12)},
                         root / "stability", check_stability))

    ratios: dict[tuple[float, float], float] = {}
    worst = []

    def bvp_op(r: float, eps: float) -> Op:
        def check(result) -> None:
            c, _profile = result
            _require(math.isfinite(c) and c > 0.0, f"speed {c} not positive")
            ratios[(r, eps)] = c / eps
            if (r, 1e-3) in ratios and (r, 1e-4) in ratios:
                extrapolated = ((1e-3 * ratios[(r, 1e-4)] - 1e-4 * ratios[(r, 1e-3)])
                                / (1e-3 - 1e-4))
                exact = speed.c1_exact(S, r)
                err = abs(extrapolated - exact) / exact
                worst.append(err)
                wl.measures["bvp_rel_err"] = max(worst)
                _require(err < 1e-3, f"Richardson c/eps off c1_exact by {err:.2e}")

        return Op(f"bvp-r{r:g}-eps{eps:g}",
                  lambda: speed.solve_traveling_bvp(S, r, eps), check,
                  digest=lambda result: _sha(result[0], result[1].u))

    for r in (0.15, 0.3, 0.45):
        r = round(r + 0.005 * variant, 12)
        for eps in (1e-3, 1e-4):
            wl.ops.append(bvp_op(r, eps))
    return wl


RELAX_CFG = dict(dt=0.25, t_end=160.0, record_every=80)


def relax(variant: int, root: Path) -> Workload:
    """Relaxation of perturbed standing fronts on the reduced path (criterion 11)."""
    width = 1.0 + 0.1 * variant
    amp = 0.01
    cfg = pde.SimConfig(**RELAX_CFG)
    steps = int(round(cfg.t_end / cfg.dt))
    wl = Workload("relax", variant, [], cell_steps=0)
    state: dict[str, Any] = {}

    def check_profile(u0) -> None:
        defect = standing.slope_law_defect(u0)
        _require(defect < 1e-8, f"slope-law defect {defect:.2e}")
        state["u0"] = u0

    wl.ops.append(Op("profile", lambda: standing.profile_from_quadrature(
        S, 0.1, x_max=60.0, dx=0.05), check_profile,
        digest=lambda u0: _sha(u0.u, u0.du)))

    def even(u0):
        return np.exp(-((u0.x / width) ** 2))

    def odd(u0):
        return (u0.x / width) * np.exp(-((u0.x / width) ** 2))

    def relax_op(name: str, shape, eps_amp: float, check) -> Op:
        def call():
            u0 = state["u0"]
            return stability.relaxation_shift(u0, shape(u0), eps_amp, cfg)

        return Op(name, call, check, digest=lambda res: _sha(
            res.measured_shift, res.projection, res.final_distance, res.t_settled))

    def keep_first(res) -> None:
        state["first"] = res.measured_shift

    def check_ratio(res) -> None:
        err = abs(res.measured_shift / state["first"] - 2.0)
        wl.measures["shift_ratio_err"] = err
        _require(err < 0.1, f"shift ratio off 2 by {err:.3g} (>= 0.1)")

    def check_odd(res) -> None:
        _require(abs(res.projection) < 1e-12, f"odd projection {res.projection:.2e}")
        _require(abs(res.measured_shift) < 1e-3, f"odd shift {res.measured_shift:.2e}")

    wl.ops += [relax_op("relax-even-1", even, amp, keep_first),
               relax_op("relax-even-2", even, 2 * amp, check_ratio),
               relax_op("relax-odd", odd, 2 * amp, check_odd)]
    n = 2 * int(round(60.0 / 0.05)) + 1
    wl.cell_steps = 3 * 2 * n * steps
    return wl


BY_NAME = {"fig1": fig1, "compare-fig3": compare_fig3, "fronts": fronts, "relax": relax}
