"""The benchmark's span targets still exist in the program.

perfbench/spans.py wraps the program's functions by name and reports a
target it cannot find as absent, which turns that layer's metrics into
null. These tests fail instead, at the refactor that removed the target.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clinewave import pde

ROOT = Path(__file__).resolve().parents[1]

# Installed in a child process, so the rebinding stays out of this one. A
# small reduced run checks that the wrapped simulator's hook still binds.
_INSTALL = """
import json
import numpy as np
import spans
from clinewave import pde

tracer = spans.Tracer()
spans.install(tracer)
tracer.enabled = True
grid = pde.Grid1D.symmetric(60.0, 0.5)
pde.simulate_reduced(pde.logistic_front(grid.x, 0.1), 0.1, 0.0, 0.1, grid,
                     pde.SimConfig(dt=0.5, t_end=2.0, record_every=2))
print(json.dumps({"absent": sorted(tracer.absent), "counts": dict(tracer.counts),
                  "spans": sorted({span[0] for span in tracer.spans})}))
"""


def test_every_span_target_is_present():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _INSTALL], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["absent"] == []
    # 241 nodes x 1 component x 4 steps, records at t = 0, 1, 2
    assert result["counts"] == {"pde.cell_steps": 241 * 4, "pde.records": 3}
    assert {"pde.simulate", "pde.cn_solve", "pde.front_tracking"} <= set(result["spans"])


@pytest.mark.parametrize("name", ["simulate_pqd", "simulate_gametes", "simulate_reduced"])
def test_simulators_bind_init_grid_and_cfg(name):
    # the benchmark's cell counter reads these three arguments by name
    assert {"init", "grid", "cfg"} <= set(inspect.signature(getattr(pde, name)).parameters)
