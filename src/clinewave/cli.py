"""Command-line driver: runs, sweeps, and figure-style data exports.

Subcommands
-----------
simulate   spatial runs of the (p,q,D), gamete, or reduced systems
standing   standing-front construction and diagnostics
speed      wave-speed theory table over a recombination grid
compare    theory versus full-system measured speeds
stability  spectra, kernel residuals, and the solvability identity
sweep      fan a subcommand out over a parameter product (process pool)

Every run takes one path: resolve the parameters, pick the run directory,
call the subcommand's runner, write the manifest. The flat ``key = value``
lines of a ``--config`` file go in ahead of the flags and are parsed once
with them, so flags win; both win over a ``--preset``'s values, plain data
like the registry defaults. A config file takes the subcommand's options
plus ``out`` and ``svg``, and a sweep's ``--vary`` its options only, each
value once as its type parses it. A sweep's points share one line, its
config file's lines, the flags after its ``--`` and its ``--svg``, parsed
once: a varied key that line sets, however spelled, or an ``--out`` or
``--config`` in it, is refused, as is a flag the preset or model does
not read (``_UNREAD``) anywhere. Every run
writes ``manifest.json`` with the fully resolved configuration (keys whose
value equals the CLI default are listed under ``defaulted``; preset values
the underlying sources do not pin down are listed under ``assumed``), a
deterministic ``run_id``, which also ends the default directory's name,
and data CSVs with 17-significant-digit floats and no timestamps.
``--svg`` then draws every table the run wrote (`svgplot.plot_tables`).

Exit codes: 0 success, 2 configuration error (an output directory that
cannot be made or written is one), 3 invariant violation (a run beyond a
`pde` size limit, an ``--r-grid`` of more than ``MAX_R_POINTS`` points, or
a run too large to count or allocate, is one), 4 numerical failure. A
failure writes ``error.json`` with the diagnostic payload into the run's
own directory, or, if the run fails before its parameters resolve
(``--out`` with no value, like any command line that does not parse), into
one keyed by argv. ``sweep`` runs each point through ``main``: a failing
point leaves its own ``error.json``, the others still run, the sweep
manifest records each point's exit code and, under ``errors``, each failed
point's error class and message, and the sweep returns the worst.

The default output root is ``./clinewave-runs``, overridable by the
``CLINEWAVE_OUT`` environment variable or ``--out``.

At module level this driver imports only ``pde`` and the scipy-free
modules; each runner imports the layer it runs, and ``svgplot`` loads
only under ``--svg``, so ``simulate``, ``--help`` and a sweep's own
process never load the standing-front, speed or stability layers or the
scipy stacks behind them.
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NUMERICAL = 4

MAX_R_POINTS = 10_000  # points of one --r-grid, counted before any is built


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
        parser.add_argument(f"--{name}", **dict(kwargs, **override))


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


def config_first(command: str, path: str | None, flags: list[str]) -> list[str]:
    """``command``'s line: the flat key = value lines of the config file at
    ``path``, if any, as flags, then ``flags``, which so win.

    Raises:
        ConfigError: unreadable file, bad line, or a key other than the
            subcommand's options, ``out`` and ``svg``.
    """
    argv = [command]
    try:
        text = Path(path).read_text() if path else ""
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    known = {name for name, _ in _OPTIONS[command]} | {"out", "svg"}
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
    return argv + flags


def _parse_r_grid(expr: str) -> list[float]:
    try:
        start, stop, step = (float(tok) for tok in expr.split(":"))
    except ValueError as exc:
        raise ConfigError(f"r-grid must be start:stop:step, got {expr!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"r-grid needs finite start, stop and step, got {expr!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"r-grid must increase, got {expr!r}")
    steps = (stop - start) / step + 1e-9
    pde.check_size("r-grid point count", steps + 1.0, MAX_R_POINTS)
    return [round(start + i * step, 12) for i in range(math.floor(steps) + 1)]


def _out_dir(out: str | None, name: str, rid: str) -> Path:
    if out:
        return Path(out)
    root = Path(os.environ.get("CLINEWAVE_OUT", "clinewave-runs"))
    return root / f"{name}-{rid}"


def _manifest(outdir: Path, command: str, resolved: dict, rid: str, defaulted: list[str],
              assumed: list[str], **extra) -> None:
    payload = {
        "command": command,
        "toolkit_version": __version__,
        "resolved": resolved,
        "defaulted": sorted(defaulted),
        "assumed": sorted(assumed),
        **extra,
    }
    payload["run_id"] = rid
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


def run_standing(params: dict, outdir: Path) -> dict:
    from . import standing

    if params["preset"] == "fig2":  # both phase-plane regimes
        summary = {}
        for label, (S, r) in (("condition-holds", (0.6, 0.25)),
                              ("condition-fails", (0.85, 0.15))):
            summary[label] = run_standing(dict(params, S=S, r=r, preset=None), outdir / label)
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
    return report


def _simulate(params: dict, model: str) -> pde.Trajectory:
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
        if not math.isfinite(params["offset_p"] + params["offset_q"]):  # inf - inf is nan
            raise ValueError(f"need finite offsets, got {params['offset_p']}, {params['offset_q']}")
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

            init = standing.profile_from_quadrature(S, params["r"], x_max=half, dx=params["dx"]).u
        else:
            init = pde.logistic_front(grid.x, S)
        return pde.simulate_reduced(init, S, params["eps"], params["r"], grid, cfg)
    p, q, D = pde.stacked_pqd_init(grid, S, params["sigma2"],
                                   offset_p=params["offset_p"],
                                   offset_q=params["offset_q"])
    if model == "pqd":
        return pde.simulate_pqd((p, q, D), fp, grid, cfg)
    return pde.simulate_gametes(gametes_from_pqd(p, q, D), fp, grid, cfg)


def run_simulate(params: dict, outdir: Path) -> dict:
    if params["preset"] == "fig1":
        return _fig1_panels(params, outdir)
    traj = _simulate(params, params["model"])
    traj.to_csv(outdir / "trajectory.csv")
    tags = sorted(traj.front_positions)
    write_csv(outdir / "fronts.csv", ["t"] + [f"front_{t}" for t in tags],
              np.column_stack([traj.times] + [traj.front_positions[t] for t in tags]))
    return {"trajectory": traj.manifest()}


def _fig1_panels(params: dict, outdir: Path) -> dict:
    """Stacking showcase: the (p,q,D) and gamete runs of one configuration.

    Emits six panel files: allele-frequency snapshots (x, p, q, D) and
    gamete snapshots (x, u, v, w, z) at the start, during the transient,
    and at the end, plus both full trajectories.
    """
    traj_pqd = _simulate(params, "pqd")
    traj_g = _simulate(params, "gametes")

    picks = [0, traj_pqd.times.size // 8, traj_pqd.times.size - 1]
    for panel, idx in enumerate(picks):
        write_csv(outdir / f"fig1_pqd_t{panel}.csv", ["x", "p", "q", "D"],
                  np.column_stack([traj_pqd.grid.x] + [traj_pqd.fields[k][idx]
                                                       for k in ("p", "q", "D")]))
        write_csv(outdir / f"fig1_gametes_t{panel}.csv", ["x", "u", "v", "w", "z"],
                  np.column_stack([traj_pqd.grid.x] + [traj_g.fields[k][idx]
                                                       for k in ("u", "v", "w", "z")]))
    traj_pqd.to_csv(outdir / "trajectory_pqd.csv")
    traj_g.to_csv(outdir / "trajectory_gametes.csv")
    sep = np.abs(traj_pqd.front_positions["p"] - traj_pqd.front_positions["q"])
    write_csv(outdir / "front_separation.csv", ["t", "separation"],
              np.column_stack([traj_pqd.times, sep]))
    return {
        "final_separation": float(sep[-1]),
        "stacked": bool(sep[-1] < traj_pqd.grid.dx),
        "gamete_sum_error": float(np.max(np.abs(
            sum(traj_g.fields[k] for k in ("u", "v", "w", "z")) - 1.0))),
    }


def run_speed(params: dict, outdir: Path) -> dict:
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
            "c1_series2": speed.c1_series(S, r),
            "c1_star": speed.c1_star(S, r),
        }
        if s is not None:
            row["speed_exact"] = s * exact
            row["speed_star"] = s * speed.c1_star(S, r)
            row["single_cline"] = speed.single_cline_speed(s, S)
            row["zero_recombination"] = speed.zero_recombination_speed(s, S)
        rows.append(row)
    header = list(rows[0])
    write_csv(outdir / "speed_table.csv", header,
              [[row[k] for k in header] for row in rows])
    return {"rows": len(rows)}


def run_compare(params: dict, outdir: Path) -> dict:
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
    return {"max_relative_gap": max(rep.relative_gap for rep in reports)}


def run_stability(params: dict, outdir: Path) -> dict:
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
        "adjoint_kernel_residual": stability.adjoint_kernel_residual(op_L, prof),
        "similarity_defect": stability.similarity_defect(op_L, prof),
        "solvability_ratio": stability.solvability_ratio(prof),
        "c1_exact": speed.c1_exact(S, r),
        "second_kernel_growth_rate": stability.second_kernel_growth_rate(prof),
        "expected_growth_rate": math.sqrt(S),
    }
    write_json(outdir / "residuals.json", report)
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
    ("compare", "fig3"): ({}, ["r_grid", "t_end", "dt", "dx", "initial_offset=0"]),
}

# (command, preset or model) -> the flags that run does not read
_UNREAD = {
    ("standing", "fig2"): ["S", "r"],  # fixed to its two regimes
    ("simulate", "fig1"): ["model", "eps", "init"],  # runs both pqd and gametes
    ("simulate", "pqd"): ["eps", "init"],
    ("simulate", "gametes"): ["eps", "init"],
    ("simulate", "reduced"): ["sA", "sB", "SA", "SB", "sigma2", "offset-p", "offset-q"],
}

_RUNNERS = {
    "simulate": run_simulate,
    "standing": run_standing,
    "speed": run_speed,
    "compare": run_compare,
    "stability": run_stability,
}


def _resolve(args: argparse.Namespace, command: str) -> tuple[dict, list[str]]:
    """Flags given win, then preset values, then the registry defaults.

    A flag that the preset or model does not read (``_UNREAD``) is a
    ``ConfigError`` rather than a value recorded but never used.

    ``params`` is the resolved configuration, the command included.
    ``defaulted`` lists the keys whose resolved value equals the registry
    default.
    """
    params = {"command": command}
    defaulted = []
    passed = vars(args)
    preset_vals = _PRESETS.get((command, passed.get("preset")), ({}, []))[0]
    for name, kwargs in _OPTIONS[command]:
        key = name.replace("-", "_")
        default = kwargs.get("default")
        value = passed.get(key, preset_vals.get(key, default))
        params[key] = value
        if value == default:
            defaulted.append(key)
    option = "preset" if params.get("preset") else "model"
    flags = [f"--{name}" for name in _UNREAD.get((command, params.get(option)), [])
             if name.replace("-", "_") in passed]
    if flags:
        raise ConfigError(f"--{option} {params[option]} does not use {', '.join(flags)}")
    return params, defaulted


def dispatch(command: str, params: dict, defaulted: list[str], outdir: Path,
             make_svg: bool, rid: str) -> None:
    """Run a resolved command into ``outdir``, plot its tables under ``make_svg``,
    and write its manifest, with run id ``rid``."""
    summary = _RUNNERS[command](params, outdir)
    if make_svg:
        from .svgplot import plot_tables

        plot_tables(outdir)
    assumed = _PRESETS.get((command, params.get("preset")), ({}, []))[1]
    _manifest(outdir, command, params, rid, defaulted, assumed, summary=summary)


def _as_parsed(kwargs: dict, value: str) -> str:
    """``value`` as its option's ``type`` reads it, by repr (so nan equals nan), or
    ``value`` itself if that fails: such a point runs, and fails, on its own."""
    try:
        return repr(kwargs["type"](value))
    except ValueError:
        return value


def run_sweep(args: argparse.Namespace, base: list[str],
              point: argparse.Namespace) -> tuple[Path, int]:
    """Run each point of the product through ``main`` on ``base``, parsed as ``point``.

    Returns the sweep directory and the worst exit code of its points.
    """
    command = args.subcommand
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    options = dict(_OPTIONS[command])  # --config, --out, --svg are the sweep's
    varied: dict[str, list[str]] = {}
    for item in args.vary:
        if "=" not in item:
            raise ConfigError(f"--vary needs KEY=V1,V2,..., got {item!r}")
        key, values = item.split("=", 1)
        key = key.strip()
        if key not in options:
            raise ConfigError(f"--vary key {key!r} unknown for {command!r}")
        if key in varied:
            raise ConfigError(f"--vary key {key!r} given more than once")
        varied[key] = [v.strip() for v in values.split(",") if v.strip()]
        if not varied[key]:
            raise ConfigError(f"--vary key {key!r} has no values")
        if len({_as_parsed(options[key], v) for v in varied[key]}) < len(varied[key]):
            raise ConfigError(f"--vary key {key!r} repeats a value")
    if not varied:
        raise ConfigError("sweep needs at least one --vary KEY=V1,V2,...")
    # each point's own varied flags and --out come last, and its config lines first
    given = [f"--{k}" for k in [*sorted(varied), "out", "config"]
             if getattr(point, k.replace("-", "_"), None) is not None]
    if given:
        raise ConfigError(f"the sweep sets {', '.join(given)} itself, not after -- or in --config")
    resolved = {"command": "sweep", "subcommand": command, "base": base,
                "vary": varied}
    rid = run_id({"command": "sweep", "resolved": resolved})
    root = _out_dir(args.out, f"sweep-{command}", rid)

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
            results = list(pool.map(_run, argvs))
    else:
        results = [_run(argv) for argv in argvs]
    codes = [code for code, _ in results]
    errors = {label: {"error": payload["error"], "message": payload["message"]}
              for label, (_, payload) in zip(labels, results) if payload is not None}
    _manifest(root, "sweep", resolved, rid, [], [], runs=labels,
              exit_codes=dict(zip(labels, codes)), errors=errors)
    return root, max(codes, default=EXIT_OK)


def _classify(exc: Exception) -> int:
    if isinstance(exc, (ConfigError, OSError)):  # OSError: an unwritable --out
        return EXIT_CONFIG
    if isinstance(exc, FieldInvariantError):
        # violations at t = 0 are bad setup, later ones are numerical
        return EXIT_INVARIANT if exc.diagnostics["t"] == 0.0 else EXIT_NUMERICAL
    if isinstance(exc, (ValueError, OverflowError, MemoryError)):  # bad or oversized parameters
        return EXIT_INVARIANT
    if isinstance(exc, ClinewaveError):
        return EXIT_NUMERICAL
    raise exc


def _error_payload(exc: Exception, code: int) -> dict:
    """What ``error.json`` records: the error, its exit code, and the
    diagnostics the exception carries, the keywords of its raise. They
    are copied as they are, except a ``snapshot`` of fields, which is
    summarised per field (finite min and max, count of non-finite nodes,
    and the worst node: the first non-finite one, else the one with the
    least margin to the admissible range) instead of being written out
    whole. Non-finite values are written as null, so the file stays
    strict JSON.
    """
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code,
               **getattr(exc, "diagnostics", {})}
    if "snapshot" in payload:
        summary = {}
        for tag, values in payload["snapshot"].items():
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
    return _run(list(sys.argv[1:] if argv is None else argv))[0]


def _run(argv: list[str]) -> tuple[int, dict | None]:
    """``main`` for one command line: its exit code and, if it failed, the
    ``error.json`` payload. Module-level, so a sweep's process pool can map it."""
    # base flags for swept runs follow a literal -- separator
    base: list[str] = []
    if argv and argv[0] == "sweep" and "--" in argv:
        split = argv.index("--")
        argv, base = argv[:split], argv[split + 1:]
    # --out, --config and --help ahead of the parse; all optional values, so no line fails
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--out", nargs="?")
    pre.add_argument("--config", nargs="?")
    pre.add_argument("-h", "--help", nargs="?", const=True)
    args = pre.parse_known_args(argv)[0]
    command = argv[0] if argv and argv[0] in (*_RUNNERS, "sweep") else None
    outdir = None  # the run's own directory, once its parameters resolve
    try:
        line = argv
        if command in _RUNNERS and not args.help:
            line = config_first(command, args.config, argv[1:])
        try:
            args = build_parser().parse_args(line)
            if command == "sweep":  # every point's line, parsed once here
                line = config_first(args.subcommand, args.config, base + ["--svg"] * args.svg)
                point = build_parser().parse_args(line)
        except SystemExit as exc:  # argparse has printed the reason
            if not exc.code:  # --help, --version
                return EXIT_OK, None
            raise ConfigError(f"invalid command line: {' '.join(line)}") from exc
        if args.command != command:  # a token, as --, ahead of the subcommand
            raise ConfigError(f"the subcommand must come first: {' '.join(argv)}")
        if command == "sweep":
            outdir, code = run_sweep(args, line[1:], point)
            print(outdir)
            return code, None
        params, defaulted = _resolve(args, command)
        preset = params.get("preset")
        rid = run_id({"command": command, "resolved": params})  # names the directory too
        outdir = _out_dir(args.out, f"{command}-{preset}" if preset else command, rid)
        dispatch(command, params, defaulted, outdir, args.svg, rid)
        print(outdir)
        return EXIT_OK, None
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        code = _classify(exc)
        payload = _error_payload(exc, code)
        if outdir is None and (args.out or command):
            outdir = _out_dir(args.out, command, run_id({"argv": argv}))
        try:
            if outdir is not None:  # none without a subcommand or --out
                write_json(outdir / "error.json", payload)
        except Exception:  # noqa: BLE001 - best-effort diagnostics
            pass
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return code, payload


if __name__ == "__main__":
    sys.exit(main())
