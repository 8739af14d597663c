"""Span tracing of clinewave's layers from outside the program.

Spans are recorded around calls into each layer's functions by replacing
the function object wherever a clinewave module binds it: the defining
module and every module that imported it by name (``stability`` binds
``simulate_reduced``, ``speed`` binds ``profile_from_quadrature``), and,
for library calls that cross a layer boundary, the caller's own binding
(``solve_banded`` in ``pde``, ``spsolve`` in ``speed``). A target that no
longer exists is reported as absent rather than as zero.

A span's layer is the part of its name before the first dot. Self time
is a span's duration minus the part of it that its child spans cover, so
the self times of all spans plus the time outside every span add up to
the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("genetics", "pde", "standing", "speed", "stability", "cli", "reporting")


class Tracer:
    """In-memory span recorder for one single-threaded process.

    ``spans`` holds ``[name, start, end, parent]`` lists, parent being the
    index of the enclosing span or -1. Wrappers record only while
    ``enabled`` is set, so benchmark checks made between operations stay
    out of the trace.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.marks: dict[str, float] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def mark(self, name: str) -> None:
        """Remember when an unbracketed phase (such as matrix assembly) began."""
        self.marks[name] = time.perf_counter()

    def close_mark(self, name: str) -> None:
        """Record the phase begun by ``mark`` as a finished child span."""
        start = self.marks.pop(name, None)
        if start is not None:
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, start, time.perf_counter(), parent])


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _union_length(children[i], start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def summarize(spans, wall_s: float) -> dict:
    """Per-name call counts, inclusive and self seconds, per-layer self
    seconds, and the wall time outside every top-level span."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    self_by_name: Counter = Counter()
    for (name, start, end, _parent), own in zip(spans, selfs):
        calls[name] += 1
        inclusive[name] += end - start
        self_by_name[name] += own
    layer_self = Counter()
    for name, own in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += own
    top = [(s, e) for _n, s, e, p in spans if p < 0]
    covered = _union_length(top, float("-inf"), float("inf"))
    return {
        "calls": dict(calls),
        "inclusive_s": dict(inclusive),
        "self_s": dict(self_by_name),
        "layer_self_s": {layer: layer_self.get(layer, 0.0) for layer in LAYERS},
        "unattributed_s": wall_s - covered,
    }


# ---------------------------------------------------------------------------
# Wrap targets
# ---------------------------------------------------------------------------


def _count_bytes(tracer, arguments, _result):
    try:
        tracer.counts["reporting.bytes_written"] += os.path.getsize(arguments["path"])
    except (KeyError, OSError, TypeError):
        pass


def _count_cells(tracer, arguments, _result):
    """Grid nodes x components x Strang steps, and records, from the request."""
    init, grid, cfg = arguments["init"], arguments["grid"], arguments["cfg"]
    components = 1 if getattr(init, "ndim", 2) == 1 else len(init)
    steps = int(round(cfg.t_end / cfg.dt))
    tracer.counts["pde.cell_steps"] += grid.n * components * steps
    tracer.counts["pde.records"] += steps // cfg.record_every + 1


def _count_nfev(tracer, _arguments, result):
    tracer.counts["standing.ode.nfev"] += int(getattr(result, "nfev", 0))


# (span name, defining module, attribute names, hook after each call)
TARGETS = [
    ("cli.main", "clinewave.cli", ["main"], None),
    ("cli.dispatch", "clinewave.cli", ["dispatch"], None),
    ("reporting.write", "clinewave.reporting", ["write_csv", "write_json"], _count_bytes),
    ("genetics.step", "clinewave.genetics", ["_step_arrays"], None),
    ("pde.simulate", "clinewave.pde",
     ["simulate_pqd", "simulate_gametes", "simulate_reduced"], _count_cells),
    ("pde.cn_solve", "clinewave.pde", ["solve_banded"], None),
    ("pde.front_tracking", "clinewave.pde",
     ["front_position_values", "instantaneous_speed"], None),
    ("standing.profile", "clinewave.standing",
     ["profile_from_quadrature", "profile_from_shooting"], None),
    ("standing.slope_law", "clinewave.standing", ["first_integral_P"], None),
    ("standing.ode", "clinewave.standing", ["solve_ivp"], _count_nfev),
    ("standing.diagnostics", "clinewave.standing",
     ["ode_residual", "symmetry_defect", "slope_law_defect", "decay_rate"], None),
    ("speed.bvp", "clinewave.speed", ["solve_traveling_bvp"], None),
    ("speed.bvp.linear_solve", "clinewave.speed", ["spsolve"], None),
    ("speed.c1_exact", "clinewave.speed", ["c1_exact"], None),
    ("speed.measure", "clinewave.speed", ["measure_full_system_speed"], None),
    ("speed.compare", "clinewave.speed", ["compare_speeds"], None),
    ("stability.assemble", "clinewave.stability", ["assemble_L", "assemble_M"], None),
    ("stability.eigensolve", "clinewave.stability", ["spectrum"], None),
    ("stability.diagnostics", "clinewave.stability",
     ["kernel_mode_residual", "adjoint_kernel_residual", "similarity_defect",
      "solvability_ratio", "second_kernel_growth_rate", "perturbation_projection"],
     None),
    ("stability.relaxation", "clinewave.stability", ["relaxation_shift"], None),
    ("stability.shift_fit", "clinewave.stability", ["minimize_scalar"], None),
]

# Newton-matrix assembly has no function of its own: it runs from the
# sparse-matrix constructor to the linear solve.
ASSEMBLY_SPAN = "speed.bvp.assembly"


def _wrap(tracer: Tracer, name: str, fn, hook):
    signature = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if name == "speed.bvp.linear_solve":
            tracer.close_mark(ASSEMBLY_SPAN)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return traced


def _rebind(original, replacement) -> int:
    """Replace ``original`` in every loaded clinewave module that binds it."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "clinewave" or mod_name.startswith("clinewave.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


class _SparseProxy(types.ModuleType):
    """Stands in for ``scipy.sparse`` in ``speed``; marks matrix construction."""

    def __init__(self, real, tracer: Tracer):
        super().__init__(real.__name__)
        self._real = real
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._real, attr)
        if attr != "lil_matrix":
            return value
        tracer = self._tracer

        def lil_matrix(*args, **kwargs):
            if tracer.enabled:
                tracer.mark(ASSEMBLY_SPAN)
            return value(*args, **kwargs)

        return lil_matrix


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; record the span names that do not."""
    for name, module_name, attrs, hook in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.add(name)
            continue
        found = 0
        for attr in attrs:
            original = getattr(module, attr, None)
            if callable(original):
                found += _rebind(original, _wrap(tracer, name, original, hook))
        if not found:
            tracer.absent.add(name)
    try:
        speed = importlib.import_module("clinewave.speed")
    except ImportError:
        speed = None
    sparse = getattr(speed, "sps", None)
    if sparse is not None and hasattr(sparse, "lil_matrix"):
        speed.sps = _SparseProxy(sparse, tracer)
    else:
        tracer.absent.add(ASSEMBLY_SPAN)
