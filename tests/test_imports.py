"""Each command loads only the layers it runs.

`simulate`, `--help` and a sweep's own process need numpy and
`scipy.linalg` only; the standing-front, speed and stability layers and
the scipy stacks behind them load when a command that runs them is
dispatched, and `svgplot` only under `--svg`. `speed` and `compare` run the standing and speed layers but
never the stability layer or the `scipy.interpolate` behind it. The checks
run in a child process, since this one has imported every layer already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clinewave import genetics, pde, speed, stability, standing

ROOT = Path(__file__).resolve().parents[1]

HEAVY = ["scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse",
         "clinewave.standing", "clinewave.speed", "clinewave.stability", "clinewave.svgplot"]

# argv: output root, the runs' label, then the module names that must stay unloaded
_CHILD = """
import contextlib
import io
import json
import sys

out, label, heavy = sys.argv[1], sys.argv[2], sys.argv[3:]
loaded = {}
from clinewave import cli

loaded["import"] = [name for name in heavy if name in sys.modules]
few = ["--t-end", "0.8", "--dt", "0.2", "--record-every", "2"]
runs = {
    "help": ["simulate", "--help"],
    "pqd": ["simulate"] + few,
    "gametes": ["simulate", "--model", "gametes"] + few,
    "reduced-logistic": ["simulate", "--model", "reduced", "--init", "logistic"] + few,
    "sweep": ["sweep", "simulate", "--vary", "r=0.1,0.2", "--threads", "1", "--"] + few,
} if label == "simulate" else {
    "speed": ["speed", "--r", "0.2"],
    "compare": ["compare", "--r-grid", "0.5:0.5:0.1", "--t-end", "20"],
}
codes = {}
for label, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[label] = cli.main(argv[:1] + ["--out", f"{out}/{label}"] + argv[1:])
    loaded[label] = [name for name in heavy if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _child(tmp_path, label: str, heavy: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path), label] + heavy,
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_simulate_help_and_sweep_load_no_scipy_stack_beyond_linalg(tmp_path):
    result = _child(tmp_path, "simulate", HEAVY)
    assert result["codes"] == dict.fromkeys(
        ["help", "pqd", "gametes", "reduced-logistic", "sweep"], 0)
    assert result["loaded"] == dict.fromkeys(["import", *result["codes"]], [])


def test_speed_and_compare_load_no_stability_layer(tmp_path):
    result = _child(tmp_path, "speed", ["clinewave.stability", "scipy.interpolate"])
    assert result["codes"] == {"speed": 0, "compare": 0}
    assert result["loaded"] == {"import": [], "speed": [], "compare": []}


# the reduced model's formulas live in genetics; the discretized front in standing
HOMES = dict.fromkeys(["bistable_f", "bistable_f_prime", "logistic_g", "reduced_reaction",
                       "default_half_width"], genetics)
HOMES.update(linearization=standing, front_residual=standing)


@pytest.mark.parametrize("name", list(HOMES))
def test_each_reduced_model_formula_has_one_home(name):
    home = getattr(HOMES[name], name)
    assert home.__module__ == HOMES[name].__name__
    for module in (genetics, pde, standing, speed, stability):  # a module that binds it binds that one
        assert getattr(module, name, home) is home, module.__name__
