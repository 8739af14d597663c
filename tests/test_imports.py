"""Each command loads only the layers it runs.

`simulate`, `--help` and a sweep's own process need numpy and
`scipy.linalg` only; the standing-front, speed and stability layers and
the scipy stacks behind them load when a command that runs them is
dispatched. The check runs in a child process, since this one has
imported every layer already.
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
         "clinewave.standing", "clinewave.speed", "clinewave.stability"]

# argv: output root, then the module names that must stay unloaded
_CHILD = """
import contextlib
import io
import json
import sys

out, heavy = sys.argv[1], sys.argv[2:]
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
}
codes = {}
for label, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[label] = cli.main(argv + ["--out", f"{out}/{label}"])
    loaded[label] = [name for name in heavy if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_simulate_help_and_sweep_load_no_scipy_stack_beyond_linalg(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)] + HEAVY,
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == dict.fromkeys(
        ["help", "pqd", "gametes", "reduced-logistic", "sweep"], 0)
    assert result["loaded"] == dict.fromkeys(["import", *result["codes"]], [])


@pytest.mark.parametrize("name", ["bistable_f", "bistable_f_prime", "logistic_g",
                                  "reduced_reaction", "default_half_width"])
def test_each_reduced_model_formula_has_one_home(name):
    home = getattr(genetics, name)
    assert home.__module__ == "clinewave.genetics"
    assert getattr(standing, name) is home  # still importable from there
    for module in (pde, speed, stability):  # a module that binds it binds that one
        assert getattr(module, name, home) is home, module.__name__
