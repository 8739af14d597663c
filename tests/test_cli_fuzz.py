"""Seeded fuzz of the command line: whatever the values, a run ends with
exit code 0, 2, 3 or 4, and every non-zero exit leaves an ``error.json``.

Command lines are drawn from the option registry, ``cli._OPTIONS``: each
option is passed or left out at random, and a passed one takes a value near
its registry default, or with probability ``EDGE_P`` one of ``EDGES``.
``--r-grid`` takes a small grid or one of ``R_GRID_EDGES``, and ``--t-end``
stays short unless it draws an edge value. Each command line goes through
``cli._run`` in this process, one at a time. Every ``CONFIG_EVERY``-th
command line runs a second time with a random subset of its flags moved
into a ``--config`` file, and every ``SWEEP_EVERY``-th one with a flag runs
again as a one-point sweep on ``--threads 1``, which runs its point in this
process, so the test starts no process or thread: one flag goes under
``--vary``, a random subset of the rest into the sweep's ``--config`` file
and the others after its ``--``. Each rerun must end with the direct run's
exit code, and a successful one must write the same ``manifest.json``
bytes, as a failed sweep point must its ``error.json``.
"""

import contextlib
import io
import json
import random
import time

from clinewave import cli

SEED = 20261020
CASES = 100
EDGE_P = 0.08
EDGES = ["0", "-0.1", "nan", "inf", "1e300", "1e-300"]
R_GRID_EDGES = ["0.1:0.5:1e-300", "0.1:1e300:1", "0.1:0.5:0", "0.5:0.1:0.1",
                "0.1:0.5:nan", "0.2:0.2:1e300", "0:0.1:0.05", "1e-300:1e-300:1"]
# stand-ins for the options whose registry default is None
NONE_DEFAULTS = {"SA": 0.1, "SB": 0.1, "half-width": 60.0, "x-max": 60.0, "r": 0.2, "s": 0.01}
SKIP = {"config", "out", "svg"}
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INVARIANT, cli.EXIT_NUMERICAL}
CONFIG_EVERY = 5
SWEEP_EVERY = 5


def _near(rng: random.Random, default: float) -> float:
    if default == 0.0:  # asymmetries and offsets
        return round(rng.uniform(0.0, 0.05), 6)
    return float(f"{default * 2.0 ** rng.uniform(-1.0, 1.0):.6g}")


def _value(rng: random.Random, name: str, kwargs: dict) -> str:
    if "choices" in kwargs:
        return rng.choice(kwargs["choices"])
    if name == "r-grid":
        if rng.random() < EDGE_P:
            return rng.choice(R_GRID_EDGES)
        start = round(rng.uniform(0.1, 0.45), 3)
        return f"{start}:{round(start + rng.uniform(0.0, 0.1), 3)}:{round(rng.uniform(0.05, 0.1), 3)}"
    if rng.random() < EDGE_P:
        return rng.choice(EDGES)
    default = kwargs.get("default")
    default = NONE_DEFAULTS[name] if default is None else default
    if kwargs.get("type") is int:
        return str(max(1, round(_near(rng, default))))
    return repr(_near(rng, default))


def _command_line(rng: random.Random) -> list[str]:
    command = rng.choice(sorted(cli._OPTIONS))
    argv = [command]
    values = {}
    for name, kwargs in cli._OPTIONS[command]:
        if name not in SKIP and name != "t-end" and rng.random() < 0.5:
            values[name] = _value(rng, name, kwargs)
    # Most draws leave out the flags their command line cannot use, so that
    # they reach a run; the rest keep them and exercise the refusal.
    if rng.random() < 0.8:
        if command == "speed":  # --r or --r-grid, one of them
            keep = rng.choice(["r", "r-grid"])
            values.pop("r-grid" if keep == "r" else "r", None)
            values.setdefault(keep, _value(rng, keep, {}))
        which = values.get("preset", values.get("model", "pqd"))  # pqd: the registry default
        for name in cli._UNREAD.get((command, which), []):
            values.pop(name, None)
    if command in ("simulate", "compare"):  # short runs, a whole number of steps
        if rng.random() < EDGE_P:
            values["t-end"] = rng.choice(EDGES)
        else:
            try:
                dt = float(values.get("dt", 0.5 if values.get("preset") == "fig1" else 0.2))
            except ValueError:
                dt = 0.2
            steps = rng.randint(2, 10) if command == "simulate" else rng.randint(50, 80)
            values["t-end"] = repr(dt * steps) if 0.0 < dt < 1.0 else "2.0"
    for name, value in values.items():
        argv += [f"--{name}", value]
    return argv


def _with_config(rng: random.Random, argv: list[str], path) -> list[str]:
    """``argv`` with a random subset of its flags moved into a config file at ``path``."""
    pairs = list(zip(argv[1::2], argv[2::2]))
    moved = [rng.random() < 0.5 for _ in pairs]
    path.write_text("".join(f"{flag[2:]} = {value}\n"
                            for (flag, value), move in zip(pairs, moved) if move))
    kept = [token for pair, move in zip(pairs, moved) if not move for token in pair]
    return [argv[0], "--config", str(path)] + kept


def _as_sweep(rng: random.Random, argv: list[str], path) -> tuple[list[str], str]:
    """``argv`` as a one-point sweep, with a random one of its flags varied and
    a random subset of the rest in a config file at ``path``; and the point's label."""
    pairs = list(zip(argv[1::2], argv[2::2]))
    flag, value = pairs.pop(rng.randrange(len(pairs)))
    config_argv = _with_config(rng, argv[:1] + [token for pair in pairs for token in pair], path)
    label = f"{flag[2:]}={value}"
    return (["sweep", argv[0], "--vary", label, "--threads", "1"] + config_argv[1:3]
            + ["--"] + config_argv[3:]), label


def _run_quietly(argv: list[str], out) -> tuple[int, dict | None]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code, payload = cli._run(argv[:1] + ["--out", str(out)] + argv[1:])
    assert code in EXIT_CODES, argv
    if payload is not None:  # a failed run; a sweep's failed point writes its own
        error = json.loads((out / "error.json").read_text())
        assert (error["exit_code"], error["error"]) == (code, payload["error"]), argv
    return code, payload


def test_every_command_line_exits_with_a_known_code(tmp_path):
    rng = random.Random(SEED)
    split_rng = random.Random(SEED + 1)  # leaves the command-line draws as they are
    sweep_rng = random.Random(SEED + 2)
    start = time.perf_counter()
    seen = set()
    for case in range(CASES):
        argv = _command_line(rng)
        out = tmp_path / f"case{case}"
        code, payload = _run_quietly(argv, out)
        seen.add(code)
        if len(argv) > 1 and case % SWEEP_EVERY == 1:
            sweep_argv, label = _as_sweep(sweep_rng, argv, tmp_path / f"case{case}-sweep.txt")
            sweep_out = tmp_path / f"case{case}-sweep"
            sweep_code, _ = _run_quietly(sweep_argv, sweep_out)
            assert sweep_code == code, (argv, sweep_argv)
            runs = json.loads((sweep_out / "manifest.json").read_text())["runs"]
            assert runs == [label], (argv, sweep_argv)
            name = "manifest.json" if code == cli.EXIT_OK else "error.json"
            assert ((sweep_out / label / name).read_bytes()
                    == (out / name).read_bytes()), (argv, sweep_argv)
        if case % CONFIG_EVERY:
            continue
        config_argv = _with_config(split_rng, argv, tmp_path / f"case{case}.txt")
        config_out = tmp_path / f"case{case}-config"
        config_code, config_payload = _run_quietly(config_argv, config_out)
        assert config_code == code, (argv, config_argv)
        if code == cli.EXIT_OK:
            assert ((config_out / "manifest.json").read_bytes()
                    == (out / "manifest.json").read_bytes()), (argv, config_argv)
        else:
            assert config_payload["error"] == payload["error"], (argv, config_argv)
    assert time.perf_counter() - start < 10.0
    assert seen == EXIT_CODES  # the draws reach every outcome
