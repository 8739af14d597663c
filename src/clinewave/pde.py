"""1-D reaction-diffusion integrators for the cline system and front tracking.

Three solvers share one driver (`_run`), a second-order IMEX scheme:
Crank-Nicolson diffusion and an Adams-Bashforth (AB2) reaction, one
reaction right-hand-side call per step, with no splitting error.

  * `simulate_pqd` integrates allele frequencies and linkage disequilibrium

        (p, q, D)_t = (s2/2) (p, q, D)_xx + genetics.pqd_reaction(p, q, D)
                      + (0, 0, s2 p_x q_x)

    with s2 the dispersal variance, on the allele rows and D; equal loci
    with q = p run as one allele row u = p = q (see `simulate_pqd`). The
    p_x q_x source is evaluated by central differences inside the
    reaction, from the state each step starts from.

  * `simulate_gametes` integrates the four gamete frequencies with
    reaction R(y) = exact one-generation map minus identity, applied
    pointwise; the pointwise sum of the fields is conserved.

  * `simulate_reduced` integrates the scalar equation for stacked clines
    in the rescaled frame (unit diffusion),

        u_t = u_xx + genetics.reduced_reaction(u, u_x, S, r, eps)
            = u_xx + (S (2u-1) + eps) (u (1-u) + (2/r) u_x^2),

    selection times heterozygosity plus the QLE disequilibrium (2/r) u_x^2,
    with u_x recomputed at every reaction call. Pass r = inf to drop the
    gradient coupling (plain bistable control). Speeds measured here convert
    to the original frame by the factor sigma/sqrt(2).

Each simulator only builds its reaction right-hand side, once per run;
the shared driver checks the initial data, steps, records and tracks the
fronts, and a run ends at t_end or at the first record its stop rule
accepts. Before it allocates or steps, a run is refused (`RunSizeError`)
beyond `MAX_STEPS` time steps, `MAX_NODES` grid nodes or
`MAX_RECORD_VALUES` recorded values; `check_size` refuses a size, however
large, before int() meets it. A step on no-flux boundaries for the whole
(components, nodes) state is u+ = 2y - u with
A y = u + (dt/2) (3/2 f(u) - 1/2 f(u-)), u- the previous state,
A = I - aT made symmetric at its edge rows, factored once per run by
LAPACK's `pttrf` and solved by one `pttrs` per step. The explicit
reaction is stable for dt (r + 2 max(SA, SB)) < 1; every preset runs at
0.15 or less. `Tridiagonal` is the one band type of the stability
operators and the BVP Newton Jacobian. Runs are deterministic given
their config; independent runs share no state.

Every reaction comes from `genetics`; this module imports nothing from
the standing-front, speed or stability layers, so a simulation loads
numpy and `scipy.linalg` only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from . import genetics
from .errors import (
    FieldInvariantError,
    FrontTrackingError,
    InsufficientSamplesError,
    RunSizeError,
)
from .genetics import FitnessParams, reduced_reaction

RANGE_TOL = 1e-6          # abort threshold for field-range violations
BOUNDARY_INIT_TOL = 1e-6  # required closeness of initial data to limit states

# Size limits of one run, checked before it allocates or steps (`RunSizeError`)
MAX_STEPS = 10_000_000             # time steps, t_end / dt
MAX_NODES = 1_000_000              # grid nodes
MAX_RECORD_VALUES = 100_000_000    # recorded values, rows x records x nodes (800 MB)

# Tags tracked by the vertex of |value| at its top node; the rest by their 1/2
# level crossing, every front decreasing except z, which rises.
_ABSMAX_TAGS = {"D", "v", "w"}


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with n nodes spanning [x_min, x_max]."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got n={self.n}")
        check_size("node count", self.n, MAX_NODES)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @staticmethod
    def symmetric(half_width: float, dx: float) -> "Grid1D":
        genetics.check_positive(dx=dx, **{"half-width": half_width})
        check_size("node count", 2.0 * (half_width / dx) + 1.0, MAX_NODES)  # before int(inf)
        half = int(round(half_width / dx))
        if half < 1:
            raise ValueError(f"need half-width > dx/2 for a node either side of x = 0, "
                             f"got half-width={half_width}, dx={dx}")
        return Grid1D(-half * dx, half * dx, 2 * half + 1)


@dataclass(frozen=True)
class SimConfig:
    """Time stepping and output controls for one simulation run."""

    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        genetics.check_positive(dt=self.dt)
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        steps = self.t_end / self.dt
        check_size("step count", steps, MAX_STEPS)
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"t_end={self.t_end} is not a whole number of steps dt={self.dt}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


def check_size(what: str, size: float, limit: int) -> None:
    """Raise `RunSizeError`, naming the size and its limit, for a size above the limit.
    A non-finite size is carried as the string "inf" or "nan", which strict JSON can hold."""
    if not size <= limit:
        shown = Decimal(size).normalize() if isinstance(size, int) else size  # past float range too
        raise RunSizeError(f"{what} of {shown:.6g} exceeds the limit {limit}", limit=limit,
                           size=size if -math.inf < size < math.inf else str(size))


def field_bounds(tag: str) -> tuple[float, float]:
    """Admissible range of a field: |D| <= 1/4, frequencies in [0, 1]."""
    return (-genetics.D_MAX, genetics.D_MAX) if tag == "D" else (0.0, 1.0)


def _out_of_range(tag: str, values: np.ndarray) -> bool:
    """The range rule: values within `field_bounds`, up to RANGE_TOL.

    Each bound is checked as ``not (value within bound)``, so a NaN, which
    compares false with everything, breaks the rule.
    """
    lo, hi = field_bounds(tag)
    return not (float(np.min(values)) >= lo - RANGE_TOL
                and float(np.max(values)) <= hi + RANGE_TOL)


@dataclass
class Trajectory:
    """Recorded history of a simulation run.

    fields maps tag -> array of shape (n_times, n_nodes); front_positions
    maps tag -> per-time tracked position (level crossing for monotone
    fronts, vertex of |value| for hump-shaped quantities). config_summary
    records the resolved run parameters for the manifest.
    """

    times: np.ndarray
    grid: Grid1D
    fields: dict[str, np.ndarray]
    front_positions: dict[str, np.ndarray] = field(default_factory=dict)
    config_summary: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """One row per (t, x) with every field as a column."""
        from .reporting import write_csv

        tags = sorted(self.fields)
        header = ["t", "x"] + tags
        nt = self.times.size
        nx = self.grid.n
        t_col = np.repeat(self.times, nx)
        x_col = np.tile(self.grid.x, nt)
        cols = [t_col, x_col] + [self.fields[tag].reshape(-1) for tag in tags]
        write_csv(path, header, np.column_stack(cols))

    def manifest(self) -> dict:
        from .reporting import run_id

        payload = {
            "grid": {"x_min": self.grid.x_min, "x_max": self.grid.x_max, "n": self.grid.n},
            "fields": sorted(self.fields),
            "times": {"start": float(self.times[0]), "end": float(self.times[-1]),
                      "count": int(self.times.size)},
            **self.config_summary,
        }
        payload["run_id"] = run_id(payload)
        return payload


def logistic_front(x: np.ndarray, S: float, center: float = 0.0) -> np.ndarray:
    """Decreasing tanh front with the natural width of a single cline."""
    k = math.sqrt(S) / 2.0
    return 0.5 - 0.5 * np.tanh(k * (x - center))


# ---------------------------------------------------------------------------
# Tridiagonal operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Tridiagonal A by its bands lower[i] = A[i+1, i], diag[i] = A[i, i], upper[i] = A[i, i+1],
    on the last axis: the stability operators and the BVP Newton Jacobian."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[..., :-1] += self.upper * u[..., 1:]
        out[..., 1:] += self.lower * u[..., :-1]
        return out

    def apply_transpose(self, u: np.ndarray) -> np.ndarray:
        return Tridiagonal(self.upper, self.diag, self.lower).apply(u)


def solve_banded(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """`dpttrs` in place on rhs.T, the F-ordered view of a C-ordered (rows, nodes) rhs, by
    the `dpttrf` factors (d, e). Named for the scipy solver the CN step once called: the
    benchmark's CN span wraps `pde.solve_banded`."""
    return dpttrs(*factors, rhs.T, overwrite_b=1)[0].T


def _check_boundary_init(fields: dict[str, np.ndarray]) -> None:
    """Front-shaped initial data must sit on a limit state at both edges.

    Spatially uniform fields pass: the no-flux boundary is exact for them
    and the guard exists to catch fronts truncated by a narrow domain.
    """
    for tag, arr in fields.items():
        if float(np.max(arr) - np.min(arr)) <= BOUNDARY_INIT_TOL:
            continue
        for edge in (arr[0], arr[-1]):
            if min(abs(edge), abs(edge - 1.0)) > BOUNDARY_INIT_TOL:
                raise FieldInvariantError(
                    f"initial {tag} boundary value {edge} is not within "
                    f"{BOUNDARY_INIT_TOL} of a limit state", t=0.0, snapshot={tag: arr},
                )


def _gradient(u: np.ndarray, dx: float) -> np.ndarray:
    """Central differences, one-sided at the edges: np.gradient(u, dx, axis=-1), bit for bit."""
    out = np.empty_like(u)
    np.subtract(u[..., 2:], u[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= 2.0 * dx
    out[..., 0] = (u[..., 1] - u[..., 0]) / dx
    out[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return out


def _front_of(tag: str, values: np.ndarray, x: np.ndarray) -> float:
    if tag in _ABSMAX_TAGS:  # parabola through the top node of |value| and its neighbours
        k = int(np.argmax(f := np.abs(values)))
        if 0 < k < f.size - 1 and (bend := f[k - 1] - 2.0 * f[k] + f[k + 1]) < 0.0:
            return float(x[k] + (x[k + 1] - x[k]) * (f[k - 1] - f[k + 1]) / (2.0 * bend))
        return float(x[k])  # an edge node, or no curvature (D = 0 at t = 0)
    try:
        return front_position_values(1.0 - values if tag == "z" else values, x)
    except FrontTrackingError:
        return math.nan


def _range_guard(t: float, fields: dict[str, np.ndarray], checked: list[str]) -> None:
    for tag in checked:  # the first tag of each state row: p = q checks its row once, as p
        if _out_of_range(tag, fields[tag]):
            if tag == "D":
                message = f"|D| exceeded 1/4 + {RANGE_TOL} at t={t}"
            else:
                message = f"{tag} left [0,1] by more than {RANGE_TOL} at t={t}"
            raise FieldInvariantError(message, t=t, snapshot=dict(fields))


def _run(init, tags, grid, cfg, nu, rhs, summary, stop=None, rows=slice(None)) -> Trajectory:
    """The one run driver: Crank-Nicolson diffusion, Adams-Bashforth reaction (CN-AB2).

    Each step solves

        A y = u_n + (dt/2) (3/2 f(u_n) - 1/2 f(u_n-1)),   u_n+1 = 2y - u_n

    with A the Crank-Nicolson matrix below and f = rhs: one reaction call
    per step, second order in dt (Ascher, Ruuth & Wetton 1995). The first
    step takes f(u_-1) = f(u_0), which is forward Euler. There is no
    splitting error, so a discrete steady state of reaction plus diffusion
    is a fixed point of the step. The explicit half is stable for
    dt |lambda| < 1 on the reaction's real spectrum. Records are the states
    of every record_every-th step and of the last, so the recorded bits do
    not depend on record_every. Finiteness is checked on the explicit
    right-hand side before every solve, ranges at the records.

    A run ends at t_end, or at the first record its stop rule accepts:
    stop(record) is asked with each stored record after t = 0, once the
    range guard has passed it, under the loop's errstate (overflow and
    invalid ignored).

    init (one array per state row, or a bare array for one row) is copied
    into the (rows, nodes) state and checked before the first step. Tag i
    records state row rows[i]; by default row i.
    rhs(state) -> d(state)/dt is built once per run by the simulator.
    summary names the model and its parameters; the config is added.
    """
    state = np.array(init, dtype=float, ndmin=2)
    row_of = np.arange(len(state))[rows]  # the state row each tag records
    checked = [tag for i, tag in enumerate(tags) if row_of[i] not in row_of[:i]]  # once a row
    _check_boundary_init(dict(zip(tags, state[rows])))
    _range_guard(0.0, dict(zip(tags, state[rows])), checked)
    n_steps = int(round(cfg.t_end / cfg.dt))
    records = -(-n_steps // cfg.record_every) + 1  # steps 0, k, 2k, ... and the last
    check_size(f"record store ({len(tags)} rows x {records} records x {grid.n} nodes)",
              len(tags) * records * grid.n, MAX_RECORD_VALUES)
    record_steps = list(range(0, n_steps + 1, cfg.record_every))
    if record_steps[-1] != n_steps:
        record_steps.append(n_steps)
    store = np.empty((len(tags), len(record_steps), grid.n))
    store[:, 0] = state[rows]
    slot = 1
    # Crank-Nicolson, A u+ = (I + a T) u + dt F with A = I - a T, a = nu dt / (2 dx^2),
    # T the second differences and F the AB2 reaction; a no-flux edge row mirrors
    # its inner neighbor into a ghost node, which doubles that neighbor's
    # coefficient. I + a T = 2I - A, so u+ = 2y - u with A y = u + (dt/2) F. Both
    # sides of A's edge rows are halved (weights `edges`), which leaves A symmetric
    # positive definite: diagonal 1 + 2a (1/2 + a at the edges), off-diagonal -a.
    a = nu * cfg.dt / (2.0 * grid.dx**2)
    edges = np.ones(grid.n)
    edges[[0, -1]] = 0.5
    factors = dpttrf(edges * (1.0 + 2.0 * a), np.full(grid.n - 1, -a))[:2]
    half = 0.5 * cfg.dt
    with np.errstate(over="ignore", invalid="ignore"):
        f_old = f = rhs(state)  # f(u_-1) = f(u_0): the first step is forward Euler
        for step in range(1, n_steps + 1):
            explicit = 1.5 * f - 0.5 * f_old
            explicit *= half
            explicit += state
            if not np.isfinite(explicit).all():
                raise FieldInvariantError(
                    f"state became non-finite at t={step * cfg.dt} "
                    "(reaction overshoot; reduce dt or smooth the initial data)",
                    t=step * cfg.dt, snapshot=dict(zip(tags, explicit[rows])),
                )
            explicit *= edges
            y = solve_banded(factors, explicit)
            y *= 2.0
            y -= state
            state = y
            if step % cfg.record_every == 0 or step == n_steps:
                _range_guard(step * cfg.dt, dict(zip(tags, state[rows])), checked)
                store[:, slot] = state[rows]
                slot += 1
                if stop is not None and stop(store[:, slot - 1]):
                    break
            if step < n_steps:
                f_old, f = f, rhs(state)
    fields = dict(zip(tags, store[:, :slot]))
    tracked, fronts = {}, {}
    for tag, row in zip(tags, row_of):
        if (key := (row, tag in _ABSMAX_TAGS, tag == "z")) not in tracked:  # row and rule
            tracked[key] = [_front_of(tag, rec, grid.x) for rec in fields[tag]]
        fronts[tag] = np.array(tracked[key])  # p = q tracks u once; q gets its own array
    return Trajectory(
        # integer step first, then dt: the same bits as step * dt in the loop
        times=np.array(record_steps[:slot]) * cfg.dt, grid=grid, fields=fields,
        front_positions=fronts, config_summary={**summary, "config": asdict(cfg)},
    )


# ---------------------------------------------------------------------------
# The three simulators
# ---------------------------------------------------------------------------


def simulate_pqd(init, fp: FitnessParams, grid: Grid1D, cfg: SimConfig) -> Trajectory:
    """Integrate the (p, q, D) system. Equal loci (sA = sB, SA = SB) started
    with q equal to p bit for bit keep p = q: they run the rows (u, D) and
    record u as p and q, the bits of the three-row run (`genetics.pqd_reaction`).
    The driver calls the reaction once per step, at the step's starting
    state, with the s2 p_x q_x source by central differences of that state.

    Args:
        init: tuple of three arrays (p, q, D) on the grid, fronts near
            (1, 1, 0) on the left and (0, 0, 0) on the right.
    """
    p, q, _ = start = np.array(init, dtype=float)
    one_row = fp.sA == fp.sB and fp.SA == fp.SB and p.tobytes() == q.tobytes()
    alleles = 1 if one_row else 2
    S, s = np.array([[fp.SA, fp.SB], [fp.sA, fp.sB]])[:, :alleles, None]  # per-row columns
    dx = grid.dx

    def rhs(state):
        out = np.empty_like(state)
        out[:-1], out[-1] = genetics.pqd_reaction(state, S, s, fp.r)
        slope = _gradient(state[:-1], dx)
        out[-1] += fp.sigma2 * slope[0] * slope[-1]
        return out

    return _run(start[[0, 2]] if one_row else start, ["p", "q", "D"], grid, cfg,
                fp.sigma2 / 2.0, rhs, {"model": "pqd", "params": asdict(fp)},
                rows=[0, 0, 1] if one_row else slice(None))


def simulate_gametes(init, fp: FitnessParams, grid: Grid1D, cfg: SimConfig) -> Trajectory:
    """Integrate the four-gamete reaction-diffusion system.

    The reaction is the per-generation net change of the exact recursion,
    R(y) = step(y) - y, whose components sum to zero pointwise; the step
    is one product with `genetics.fitness_tensor`, built once per run.
    """
    T = genetics.fitness_tensor(fp)

    def rhs(state):
        out = genetics._step_arrays(state, T)
        out -= state
        return out

    return _run(init, ["u", "v", "w", "z"], grid, cfg, fp.sigma2 / 2.0, rhs,
                {"model": "gametes", "params": asdict(fp)})


def simulate_reduced(init, S: float, eps: float, r: float,
                     grid: Grid1D, cfg: SimConfig, stop=None) -> Trajectory:
    """Integrate the reduced scalar equation for stacked clines.

    Works in the rescaled frame (unit diffusion); convert measured speeds
    to the original frame by multiplying with sigma/sqrt(2). The gradient
    coupling scales with 2/r; pass r = inf for the uncoupled bistable
    control. u_x is recomputed at each reaction call. init is one front on
    the grid, tagged u_reduced (any other shape is a ValueError); stop is
    the driver's stop rule (see `_run`).
    """
    if np.shape(init) != (grid.n,):
        raise ValueError(f"init must be one front of {grid.n} values, got shape {np.shape(init)}")
    dx = grid.dx

    def rhs(state):
        return reduced_reaction(state, _gradient(state, dx), S, r, eps)

    return _run(init, ["u_reduced"], grid, cfg, 1.0, rhs,
                {"model": "reduced", "params": {"S": S, "eps": eps, "r": r}}, stop)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def front_position_values(values: np.ndarray, x: np.ndarray) -> float:
    """Abscissa where a decreasing profile crosses 1/2.

    Linear interpolation between the bracketing nodes. A profile sitting
    exactly at 1/2 at a node crosses at that node. For a sharp step the
    convention lands midway between the two nodes.

    Raises:
        FrontTrackingError: no crossing, or more than one.
    """
    f = np.asarray(values, dtype=float) - 0.5
    signs = np.sign(f)
    # Treat exact zeros as crossings at the node itself.
    zero_nodes = np.where(signs == 0.0)[0]
    changes = np.where(signs[:-1] * signs[1:] < 0.0)[0]
    crossings = len(changes) + len(zero_nodes)
    if crossings == 0:
        raise FrontTrackingError("profile does not cross the level", crossings=0)
    if crossings > 1:
        raise FrontTrackingError(
            f"profile crosses the level {crossings} times", crossings=crossings
        )
    if len(zero_nodes) == 1:
        return float(x[zero_nodes[0]])
    i = changes[0]
    frac = f[i] / (f[i] - f[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def instantaneous_speed(traj: Trajectory, tag: str, window: tuple[float, float]) -> float:
    """Front speed of a tracked field: the least-squares slope of its
    positions over the time window.

    Raises:
        InsufficientSamplesError: fewer than 3 recorded positions in window.
    """
    if tag not in traj.front_positions:
        raise KeyError(f"no tracked front for tag {tag!r}")
    t = traj.times
    pos = traj.front_positions[tag]
    mask = (t >= window[0]) & (t <= window[1]) & np.isfinite(pos)
    samples = int(mask.sum())
    if samples < 3:
        raise InsufficientSamplesError(
            f"need >= 3 front samples in window {window}, got {samples}", samples=samples
        )
    return float(np.polyfit(t[mask], pos[mask], 1)[0])


def stacked_pqd_init(grid: Grid1D, S_like: float, sigma2: float,
                     offset_p: float = 0.0, offset_q: float = 0.0):
    """Front-like initial data for the full system, with D = 0.

    Front widths follow the standing-cline scale in the original frame,
    sqrt(sigma2/2)/sqrt(S). With offsets the two clines start apart.
    """
    scale = math.sqrt(sigma2 / 2.0)
    x = grid.x
    p = logistic_front(x / scale, S_like, center=offset_p / scale)
    q = logistic_front(x / scale, S_like, center=offset_q / scale)
    return p, q, np.zeros_like(x)
