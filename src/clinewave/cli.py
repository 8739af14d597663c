"""Command-line driver: runs, sweeps, and figure-style data exports.

Subcommands
-----------
simulate   spatial runs of the (p,q,D), gamete, or reduced systems
standing   standing-front construction and diagnostics
speed      wave-speed theory table over a recombination grid
compare    theory versus full-system measured speeds
stability  spectra, kernel residuals, and the solvability identity
sweep      fan a subcommand out over a parameter product (process pool)

Every run takes one path: resolve the parameters, pick the run
directory, call the subcommand's runner, write the manifest. Flags win
over a flat ``key = value`` file (``--config``), both win over the
values of a ``--preset``, which are plain data like the registry
defaults; unknown config keys are rejected. Every run writes
``manifest.json`` with the fully resolved configuration (keys whose value
equals the CLI default are listed under ``defaulted``; preset values
the underlying sources do not pin down are listed under ``assumed``), a
deterministic ``run_id``, and data CSVs with 17-significant-digit floats
and no timestamps. ``--svg`` adds dependency-free line plots.

Exit codes: 0 success, 2 configuration error, 3 invariant violation,
4 numerical failure. A failure writes ``error.json`` with the diagnostic
payload into the run's own directory (keyed by argv if the run fails
before its parameters resolve). ``sweep`` runs each point through
``main``: a failing point leaves its own ``error.json``, the others still
run, the sweep manifest records each point's exit code, and the sweep
returns the worst.

The default output root is ``./clinewave-runs``, overridable by the
``CLINEWAVE_OUT`` environment variable or ``--out``.

At module level this driver imports only ``pde`` and the scipy-free
modules; each runner imports the layer it runs, so ``simulate``,
``--help`` and a sweep's own process never load the standing-front,
speed or stability layers or the scipy stacks behind them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__, pde
from .errors import (
    ClinewaveError,
    ConfigError,
    FieldInvariantError,
)
from .genetics import FitnessParams, check_positive, default_half_width, gametes_from_pqd
from .reporting import run_id, write_csv, write_json
from .svgplot import line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# Option registry (single source for parser construction and config checks)
# ---------------------------------------------------------------------------

_COMMON = [
    ("config", dict(type=str, default=None, help="flat key = value config file")),
    ("out", dict(type=str, default=None, help="output directory (overrides the root)")),
    ("svg", dict(action="store_true", help="also write SVG line plots")),
]

_OPTIONS = {
    "simulate": [
        ("preset", dict(type=str, default=None, choices=["fig1"])),
        ("model", dict(type=str, default="pqd", choices=["pqd", "gametes", "reduced"])),
        ("S", dict(type=float, default=0.1)),
        ("r", dict(type=float, default=0.1)),
        ("eps", dict(type=float, default=0.0, help="reduced model: asymmetry strength")),
        ("sA", dict(type=float, default=0.0)),
        ("sB", dict(type=float, default=0.0)),
        ("SA", dict(type=float, default=None, help="defaults to S")),
        ("SB", dict(type=float, default=None, help="defaults to S")),
        ("sigma2", dict(type=float, default=2.0)),
        ("offset-p", dict(type=float, default=0.0)),
        ("offset-q", dict(type=float, default=0.0)),
        ("half-width", dict(type=float, default=None, help="defaults to tail clearance + offset")),
        ("dx", dict(type=float, default=0.2)),
        ("dt", dict(type=float, default=0.2)),
        ("t-end", dict(type=float, default=200.0)),
        ("record-every", dict(type=int, default=50)),
        ("init", dict(type=str, default="standing",
                      choices=["standing", "logistic"],
                      help="reduced model initial shape")),
    ],
    "standing": [
        ("preset", dict(type=str, default=None, choices=["fig2"])),
        ("S", dict(type=float, default=0.1)),
        ("r", dict(type=float, default=0.1)),
        ("x-max", dict(type=float, default=None)),
        ("dx", dict(type=float, default=0.02)),
    ],
    "speed": [
        ("S", dict(type=float, default=0.1)),
        ("r", dict(type=float, default=None, help="single recombination value")),
        ("r-grid", dict(type=str, default=None, help="start:stop:step sweep")),
        ("s", dict(type=float, default=None, help="scale outputs by an asymmetry s")),
    ],
    "compare": [
        ("preset", dict(type=str, default=None, choices=["fig3"])),
        ("S", dict(type=float, default=0.1)),
        ("r-grid", dict(type=str, default="0.15:0.5:0.05")),
        ("s", dict(type=float, default=0.01)),
        ("sigma2", dict(type=float, default=2.0)),
        ("t-end", dict(type=float, default=600.0)),
        ("dt", dict(type=float, default=0.2)),
        ("dx", dict(type=float, default=0.2)),
    ],
    "stability": [
        ("S", dict(type=float, default=0.1)),
        ("r", dict(type=float, default=0.1)),
        ("x-max", dict(type=float, default=None)),
        ("dx", dict(type=float, default=0.05)),
        ("k", dict(type=int, default=6, help="eigenpairs to report")),
    ],
}

_SWEEP_OPTIONS = [
    ("vary", dict(action="append", default=[], metavar="KEY=V1,V2,...",
                  help="repeatable; product over all varied keys")),
    ("threads", dict(type=int, default=os.cpu_count() or 1)),
]


def _add_options(parser: argparse.ArgumentParser, options, **override) -> None:
    for name, kwargs in options:
        parser.add_argument(f"--{name}", dest=name.replace("-", "_"),
                            **dict(kwargs, **override))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clinewave",
        description="coupled underdominant cline toolkit",
    )
    parser.add_argument("--version", action="version", version=f"clinewave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command)
        _add_options(p, _COMMON)
        # Flags not given stay absent, so _resolve can tell them from
        # preset values and fill in the registry defaults itself.
        _add_options(p, options, default=argparse.SUPPRESS)
    p = sub.add_parser(
        "sweep",
        epilog="flags after a literal -- are passed to every swept run",
    )
    p.add_argument("subcommand", choices=sorted(_OPTIONS))
    _add_options(p, _COMMON + _SWEEP_OPTIONS)
    return parser


def _known_keys(command: str) -> set[str]:
    return {name for name, _ in _COMMON + _OPTIONS[command]}


def parse_config_file(path: str, command: str) -> list[str]:
    """Translate a flat key = value file into an argv fragment.

    Raises:
        ConfigError: unreadable file, bad line, or a key the subcommand
            does not define.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    known = _known_keys(command)
    argv: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command!r}")
        if key == "svg":
            if value.lower() in ("true", "1", "yes"):
                argv.append("--svg")
            elif value.lower() not in ("false", "0", "no"):
                raise ConfigError(f"{path}:{lineno}: svg must be boolean, got {value!r}")
        else:
            argv.extend([f"--{key}", value])
    return argv


def _parse_r_grid(expr: str) -> list[float]:
    try:
        start, stop, step = (float(tok) for tok in expr.split(":"))
    except ValueError as exc:
        raise ConfigError(f"r-grid must be start:stop:step, got {expr!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"r-grid needs finite start, stop and step, got {expr!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"r-grid must increase, got {expr!r}")
    count = math.floor((stop - start) / step + 1e-9)
    return [round(start + i * step, 12) for i in range(count + 1)]


def _out_dir(out: str | None, name: str, resolved: dict) -> Path:
    if out:
        return Path(out)
    root = Path(os.environ.get("CLINEWAVE_OUT", "clinewave-runs"))
    return root / f"{name}-{run_id(resolved)}"


def _manifest(outdir: Path, command: str, resolved: dict, defaulted: list[str],
              assumed: list[str], **extra) -> None:
    payload = {
        "command": command,
        "toolkit_version": __version__,
        "resolved": resolved,
        "defaulted": sorted(defaulted),
        "assumed": sorted(assumed),
        **extra,
    }
    payload["run_id"] = run_id({"command": command, "resolved": resolved})
    write_json(outdir / "manifest.json", payload)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _profile_report(prof, label: str) -> dict:
    from . import standing

    residual = float(np.max(np.abs(standing.ode_residual(prof))))
    report = {
        "method": prof.method,
        "symmetry_defect": standing.symmetry_defect(prof),
        "ode_residual_sup": residual,
        "slope_law_defect": standing.slope_law_defect(prof),
        "decay_rate_right": standing.decay_rate(prof),
        "decay_rate_left": standing.decay_rate(prof, side="left"),
        "condition_S_lt_4r": prof.condition_ok,
        "label": label,
    }
    return report


def run_standing(params: dict, outdir: Path, make_svg: bool) -> dict:
    from . import standing

    if params["preset"] == "fig2":  # both phase-plane regimes
        summary = {}
        for label, (S, r) in (("condition-holds", (0.6, 0.25)),
                              ("condition-fails", (0.85, 0.15))):
            summary[label] = run_standing(dict(params, S=S, r=r, preset=None),
                                          outdir / label, make_svg)
        return summary
    S, r = params["S"], params["r"]
    quad = standing.profile_from_quadrature(S, r, x_max=params["x_max"], dx=params["dx"])
    shot = standing.profile_from_shooting(quad)
    quad.to_csv(outdir / "profile_quadrature.csv")
    shot.to_csv(outdir / "profile_shooting.csv")
    write_csv(outdir / "phase_plane_orbit.csv", ["u", "du"],
              np.column_stack([shot.u, shot.du]))
    report = {
        "quadrature": _profile_report(quad, "quadrature"),
        "shooting": _profile_report(shot, "shooting"),
        "cross_method_sup_gap": float(np.max(np.abs(quad.u - shot.u))),
        "expected_decay_rate": -math.sqrt(S),
    }
    write_json(outdir / "report.json", report)
    if make_svg:
        line_plot(outdir / "profile.svg",
                  [("height", quad.x, quad.u), ("slope", quad.x, quad.du)],
                  title=f"standing front S={S} r={r}", xlabel="x")
        line_plot(outdir / "phase_plane.svg", [("orbit", shot.u, shot.du)],
                  title="phase-plane orbit", xlabel="u", ylabel="du/dx")
    return report


def _simulate(params: dict, model: str) -> tuple[pde.Grid1D, pde.Trajectory]:
    """Check the parameters of one model, set up its run, and run it."""
    S = params["S"]
    check_positive(S=S)
    if model == "reduced":
        check_positive(r=params["r"])  # finite, as the standing profile needs
        if not math.isfinite(params["eps"]):  # either sign
            raise ValueError(f"need finite eps, got eps={params['eps']}")
    else:
        SA, SB = (S if params[key] is None else params[key] for key in ("SA", "SB"))
        fp = FitnessParams(sA=params["sA"], sB=params["sB"], SA=SA, SB=SB,
                           r=params["r"], sigma2=params["sigma2"])
    half = params["half_width"]
    if half is None:
        scale = math.sqrt(params["sigma2"] / 2.0) if model != "reduced" else 1.0
        half = (default_half_width(S)
                + max(abs(params["offset_p"]), abs(params["offset_q"]))) * scale
    grid = pde.Grid1D.symmetric(half, params["dx"])
    cfg = pde.SimConfig(dt=params["dt"], t_end=params["t_end"],
                        record_every=params["record_every"])
    if model == "reduced":
        if params["init"] == "standing":
            from . import standing

            init = standing.profile_from_quadrature(S, params["r"]).interp(grid.x)
        else:
            init = pde.logistic_front(grid.x, S)
        return grid, pde.simulate_reduced(init, S, params["eps"], params["r"], grid, cfg)
    p, q, D = pde.stacked_pqd_init(grid, S, params["sigma2"],
                                   offset_p=params["offset_p"],
                                   offset_q=params["offset_q"])
    if model == "pqd":
        return grid, pde.simulate_pqd((p, q, D), fp, grid, cfg)
    return grid, pde.simulate_gametes(gametes_from_pqd(p, q, D), fp, grid, cfg)


def run_simulate(params: dict, outdir: Path, make_svg: bool) -> dict:
    if params["preset"] == "fig1":
        return _fig1_panels(params, outdir, make_svg)
    grid, traj = _simulate(params, params["model"])
    traj.to_csv(outdir / "trajectory.csv")
    tags = sorted(traj.front_positions)
    write_csv(outdir / "fronts.csv", ["t"] + [f"front_{t}" for t in tags],
              np.column_stack([traj.times] + [traj.front_positions[t] for t in tags]))
    if make_svg:
        last = traj.times.size - 1
        for tag in sorted(traj.fields):
            line_plot(outdir / f"{tag}.svg",
                      [(f"t={traj.times[i]:g}", grid.x, traj.fields[tag][i])
                       for i in (0, last // 2, last)],
                      title=tag, xlabel="x", ylabel=tag)
    return {"trajectory": traj.manifest()}


def _fig1_panels(params: dict, outdir: Path, make_svg: bool) -> dict:
    """Stacking showcase: the (p,q,D) and gamete runs of one configuration.

    Emits six panel files: allele-frequency snapshots (x, p, q, D) and
    gamete snapshots (x, u, v, w, z) at the start, during the transient,
    and at the end, plus both full trajectories.
    """
    if params["model"] != "pqd":
        raise ConfigError(f"--preset fig1 runs both the pqd and gametes models, "
                          f"so --model {params['model']} does not apply")
    grid, traj_pqd = _simulate(params, "pqd")
    _, traj_g = _simulate(params, "gametes")

    picks = [0, traj_pqd.times.size // 8, traj_pqd.times.size - 1]
    for panel, idx in enumerate(picks):
        write_csv(outdir / f"fig1_pqd_t{panel}.csv", ["x", "p", "q", "D"],
                  np.column_stack([grid.x] + [traj_pqd.fields[k][idx]
                                              for k in ("p", "q", "D")]))
        write_csv(outdir / f"fig1_gametes_t{panel}.csv", ["x", "u", "v", "w", "z"],
                  np.column_stack([grid.x] + [traj_g.fields[k][idx]
                                              for k in ("u", "v", "w", "z")]))
    traj_pqd.to_csv(outdir / "trajectory_pqd.csv")
    traj_g.to_csv(outdir / "trajectory_gametes.csv")
    sep = np.abs(traj_pqd.front_positions["p"] - traj_pqd.front_positions["q"])
    write_csv(outdir / "front_separation.csv", ["t", "separation"],
              np.column_stack([traj_pqd.times, sep]))
    if make_svg:
        for panel, idx in enumerate(picks):
            line_plot(outdir / f"fig1_panel_t{panel}.svg",
                      [(k, grid.x, traj_pqd.fields[k][idx]) for k in ("p", "q", "D")],
                      title=f"t = {traj_pqd.times[idx]:g}", xlabel="x")
    return {
        "final_separation": float(sep[-1]),
        "stacked": bool(sep[-1] < grid.dx),
        "gamete_sum_error": float(np.max(np.abs(
            sum(traj_g.fields[k] for k in ("u", "v", "w", "z")) - 1.0))),
    }


def run_speed(params: dict, outdir: Path, make_svg: bool) -> dict:
    from . import speed

    S = params["S"]
    if params["r_grid"] and params["r"] is not None:
        raise ConfigError("speed takes --r or --r-grid, not both")
    if params["r_grid"]:
        r_values = _parse_r_grid(params["r_grid"])
    elif params["r"] is not None:
        r_values = [params["r"]]
    else:
        raise ConfigError("speed needs --r or --r-grid")
    s = params["s"]
    rows = []
    for r in r_values:
        exact = speed.c1_exact(S, r)
        row = {
            "r": r,
            "c1_exact": exact,
            "c1_series2": speed.c1_series(S, r, 2),
            "c1_star": speed.c1_star(S, r),
        }
        if s is not None:
            row["speed_exact"] = s * exact
            row["speed_star"] = s * speed.c1_star(S, r)
            row["single_cline"] = speed.single_cline_speed(s, S)[0]
            row["zero_recombination"] = speed.zero_recombination_speed(s, S)
        rows.append(row)
    header = list(rows[0])
    write_csv(outdir / "speed_table.csv", header,
              [[row[k] for k in header] for row in rows])
    if make_svg:
        rs = [row["r"] for row in rows]
        series = [("c1_exact", rs, [row["c1_exact"] for row in rows]),
                  ("c1_star", rs, [row["c1_star"] for row in rows])]
        line_plot(outdir / "speed_table.svg", series,
                  title=f"first-order speed coefficient, S={S}",
                  xlabel="recombination r", ylabel="coefficient")
    return {"rows": len(rows)}


def run_compare(params: dict, outdir: Path, make_svg: bool) -> dict:
    from . import speed

    S = params["S"]
    r_values = _parse_r_grid(params["r_grid"])
    sweep = [(S, r, params["s"], params["sigma2"]) for r in r_values]
    reports = speed.compare_speeds(sweep, t_end=params["t_end"],
                                   dt=params["dt"], dx=params["dx"])
    write_csv(outdir / "speed_comparison.csv", speed.SpeedReport.CSV_HEADER,
              [rep.csv_row() for rep in reports])
    # plot-data layout: r on the x-axis, one column per series
    write_csv(
        outdir / "speed_plot_data.csv",
        ["r", "measured_original", "predicted_star_original",
         "predicted_exact_original", "relative_gap"],
        [[rep.r, rep.measured_speed, rep.predicted_original,
          rep.s * rep.c1_exact * rep.frame_factor, rep.relative_gap]
         for rep in reports],
    )
    if make_svg:
        rs = [rep.r for rep in reports]
        line_plot(outdir / "speed_comparison.svg",
                  [("measured", rs, [rep.measured_speed for rep in reports]),
                   ("first-order theory", rs,
                    [rep.predicted_original for rep in reports])],
                  title=f"front speed, S={S}, s={params['s']}",
                  xlabel="recombination r", ylabel="speed")
    return {"max_relative_gap": max(rep.relative_gap for rep in reports)}


def run_stability(params: dict, outdir: Path, make_svg: bool) -> dict:
    from . import speed, stability, standing

    S, r = params["S"], params["r"]
    prof = standing.profile_from_quadrature(S, r, x_max=params["x_max"],
                                            dx=params["dx"])
    x = prof.x[1:-1]
    op_L = stability.assemble_L(prof)
    vals, vecs = stability.spectrum(op_L, k=params["k"])
    write_csv(outdir / "eigenvalues.csv", ["index", "eigenvalue"],
              [[float(i), v] for i, v in enumerate(vals)])
    write_csv(outdir / "eigenvectors.csv",
              ["x"] + [f"mode_{i}" for i in range(vals.size)],
              np.column_stack([x, vecs]))
    du = prof.du[1:-1]
    cosine = float(abs(np.dot(vecs[:, 0], du))
                   / (np.linalg.norm(vecs[:, 0]) * np.linalg.norm(du)))
    report = {
        "lambda_0": float(vals[0]),
        "lambda_1": float(vals[1]) if vals.size > 1 else None,
        "kernel_cosine_with_slope": cosine,
        "kernel_mode_residual": stability.kernel_mode_residual(op_L, prof),
        "adjoint_kernel_residual": stability.adjoint_kernel_residual(prof),
        "similarity_defect": stability.similarity_defect(prof),
        "solvability_ratio": stability.solvability_ratio(prof),
        "c1_exact": speed.c1_exact(S, r),
        "second_kernel_growth_rate": stability.second_kernel_growth_rate(prof),
        "expected_growth_rate": math.sqrt(S),
    }
    write_json(outdir / "residuals.json", report)
    if make_svg:
        line_plot(outdir / "modes.svg",
                  [(f"mode {i} ({vals[i]:.4f})", x, vecs[:, i])
                   for i in range(min(3, vals.size))],
                  title=f"leading modes, S={S} r={r}", xlabel="x")
    return report


# ---------------------------------------------------------------------------
# Dispatch, sweeps, and the entry point
# ---------------------------------------------------------------------------


# (command, preset) -> (values, assumed): assumed names the preset values
# that the underlying figure descriptions do not pin down.
_PRESETS = {
    ("simulate", "fig1"): (
        {"model": "pqd", "S": 0.1, "r": 0.1, "sA": 0.0, "sB": 0.0, "sigma2": 2.0,
         "offset_p": -10.0, "offset_q": 10.0, "half_width": 140.0,
         "dx": 0.2, "dt": 0.5, "t_end": 3000.0, "record_every": 200},
        ["offset_p", "offset_q", "half_width", "dx", "dt", "t_end", "snapshot_times"]),
    ("standing", "fig2"): ({}, ["x_max", "dx"]),
    ("compare", "fig3"): (
        {"S": 0.1, "r_grid": "0.15:0.5:0.05", "s": 0.01, "sigma2": 2.0},
        ["r_grid", "t_end", "dt", "dx", "initial_offset=0"]),
}

# simulate flags of the pqd and gametes models (and fig1), unread by reduced
_FULL_MODEL_FLAGS = {"sA", "sB", "SA", "SB", "sigma2", "offset_p", "offset_q"}

_RUNNERS = {
    "simulate": run_simulate,
    "standing": run_standing,
    "speed": run_speed,
    "compare": run_compare,
    "stability": run_stability,
}


def _resolve(args: argparse.Namespace, command: str) -> tuple[dict, list[str]]:
    """Flags given win, then preset values, then the registry defaults.

    A flag that the preset or model cannot honour (``--S``/``--r`` with
    fig2, ``--eps``/``--init`` with pqd and gametes, ``--sA`` with reduced)
    is a ``ConfigError`` rather than a value recorded but never used.

    ``params`` is the resolved configuration, the command included.
    ``defaulted`` lists the keys whose resolved value equals the registry
    default.
    """
    params = {"command": command}
    defaulted = []
    passed = vars(args)
    if (command, passed.get("preset")) == ("standing", "fig2") and {"S", "r"} & passed.keys():
        raise ConfigError("--preset fig2 fixes S and r to its two regimes, "
                          "so --S and --r do not apply")
    preset_vals = _PRESETS.get((command, passed.get("preset")), ({}, []))[0]
    for name, kwargs in _OPTIONS[command]:
        key = name.replace("-", "_")
        default = kwargs.get("default")
        value = passed.get(key, preset_vals.get(key, default))
        params[key] = value
        if value == default:
            defaulted.append(key)
    if command == "simulate":
        unread = _FULL_MODEL_FLAGS if params["model"] == "reduced" else {"eps", "init"}
        flags = sorted("--" + key.replace("_", "-") for key in unread & passed.keys())
        if flags:
            raise ConfigError(f"--model {params['model']} does not use {', '.join(flags)}")
    return params, defaulted


def dispatch(command: str, params: dict, defaulted: list[str], outdir: Path,
             make_svg: bool) -> None:
    """Run a resolved command into ``outdir`` and write its manifest."""
    summary = _RUNNERS[command](params, outdir, make_svg)
    assumed = _PRESETS.get((command, params.get("preset")), ({}, []))[1]
    _manifest(outdir, command, params, defaulted, assumed, summary=summary)


def run_sweep(args: argparse.Namespace, base: list[str]) -> tuple[Path, int]:
    """Run every point of the product through ``main``.

    Returns the sweep directory and the worst exit code of its points.
    """
    command = args.subcommand
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    known = _known_keys(command)
    varied: dict[str, list[str]] = {}
    for item in args.vary:
        if "=" not in item:
            raise ConfigError(f"--vary needs KEY=V1,V2,..., got {item!r}")
        key, values = item.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigError(f"--vary key {key!r} unknown for {command!r}")
        if key in varied:
            raise ConfigError(f"--vary key {key!r} given more than once")
        varied[key] = [v.strip() for v in values.split(",") if v.strip()]
        if not varied[key]:
            raise ConfigError(f"--vary key {key!r} has no values")
    if not varied:
        raise ConfigError("sweep needs at least one --vary KEY=V1,V2,...")
    # the sweep's own --config and --svg apply to every point
    base = (["--config", args.config] if args.config else []) + list(base)
    if args.svg:
        base.append("--svg")

    resolved = {"command": "sweep", "subcommand": command, "base": base,
                "vary": varied}
    root = _out_dir(args.out, f"sweep-{command}", resolved)

    keys = sorted(varied)
    labels, argvs = [], []
    for combo in product(*(varied[k] for k in keys)):
        labels.append("_".join(f"{k}={v}" for k, v in zip(keys, combo)))
        argv = [command] + base
        for k, v in zip(keys, combo):
            argv.extend([f"--{k}", v])
        argvs.append(argv + ["--out", str(root / labels[-1])])

    if args.threads > 1 and len(argvs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.threads, len(argvs))) as pool:
            codes = list(pool.map(main, argvs))
    else:
        codes = [main(argv) for argv in argvs]
    _manifest(root, "sweep", resolved, [], [], runs=labels,
              exit_codes=dict(zip(labels, codes)))
    return root, max(codes, default=EXIT_OK)


def _classify(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, FieldInvariantError):
        # violations at t = 0 are bad setup, later ones are numerical
        return EXIT_INVARIANT if exc.t == 0.0 else EXIT_NUMERICAL
    if isinstance(exc, ValueError):
        return EXIT_INVARIANT
    if isinstance(exc, ClinewaveError):
        return EXIT_NUMERICAL
    raise exc


def _error_payload(exc: Exception, code: int) -> dict:
    """What ``error.json`` records: the error, its exit code, and the
    diagnostics the exception carries. Scalars and tuples are copied as
    they are; a ``FieldInvariantError`` snapshot is summarised per field
    (finite min and max, count of non-finite nodes, and the worst node:
    the first non-finite one, else the one with the least margin to the
    admissible range) instead of being written out whole. Non-finite
    values are written as null, so the file stays strict JSON.
    """
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    for attr in ("last_residual", "escape_state", "crossings"):
        if hasattr(exc, attr):
            payload[attr] = getattr(exc, attr)
    if isinstance(exc, FieldInvariantError):
        payload["t"] = exc.t
        summary = {}
        for tag, values in exc.snapshot.items():
            values = np.asarray(values, dtype=float)
            bad = ~np.isfinite(values)
            lo, hi = pde.field_bounds(tag)
            excess = np.where(bad, np.inf, np.maximum(lo - values, values - hi))
            worst = int(np.argmax(excess))
            finite = values[~bad]
            summary[tag] = {
                "min": float(finite.min()) if finite.size else None,
                "max": float(finite.max()) if finite.size else None,
                "nonfinite": int(bad.sum()),
                "worst_node": worst,
                "worst_value": None if bad[worst] else float(values[worst]),
            }
        payload["snapshot"] = summary
    return payload


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # base flags for swept runs follow a literal -- separator
    sweep_base: list[str] = []
    if argv and argv[0] == "sweep" and "--" in argv:
        split = argv.index("--")
        argv, sweep_base = argv[:split], argv[split + 1:]
    parser = build_parser()
    # Where error.json goes if the full parse fails: the subcommand and
    # --out as far as they can be read from a command line that may not parse.
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--out")
    try:
        args = pre.parse_known_args(argv)[0]
    except argparse.ArgumentError:
        args = argparse.Namespace(command=None, out=None)
    command = args.command if args.command in (*_RUNNERS, "sweep") else None
    outdir = None  # the run's own directory, once its parameters resolve
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse has printed the reason
            if not exc.code:  # --help, --version
                return EXIT_OK
            raise ConfigError(f"invalid command line: {' '.join(argv)}") from exc
        command = args.command
        if command == "sweep":
            outdir, code = run_sweep(args, sweep_base)
            print(outdir)
            return code
        if args.config:
            user_argv = list(argv)
            user_argv.remove(command)  # the subcommand token only
            config_argv = parse_config_file(args.config, command)
            try:
                args = parser.parse_args([command] + config_argv + user_argv)
            except SystemExit as exc:  # argparse has printed the reason
                raise ConfigError(f"config file {args.config} has an invalid value") from exc
        params, defaulted = _resolve(args, command)
        preset = params.get("preset")
        outdir = _out_dir(args.out, f"{command}-{preset}" if preset else command, params)
        dispatch(command, params, defaulted, outdir, args.svg)
        print(outdir)
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        code = _classify(exc)
        payload = _error_payload(exc, code)
        if outdir is None and (args.out or command):
            outdir = _out_dir(args.out, command, {"argv": argv})
        try:
            if outdir is not None:  # none without a subcommand or --out
                write_json(outdir / "error.json", payload)
        except Exception:  # noqa: BLE001 - best-effort diagnostics
            pass
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
