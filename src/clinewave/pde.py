"""1-D reaction-diffusion integrators for the cline system and front tracking.

Three solvers share one Strang-split core: half reaction, full diffusion,
half reaction per step, with the adjacent half-reactions of consecutive
steps merged into one full reaction step except at records, the last
step among them (see `_run_strang`):

  * `simulate_pqd` integrates allele frequencies and linkage disequilibrium

        (p, q, D)_t = (s2/2) (p, q, D)_xx + genetics.pqd_reaction(p, q, D)
                      + (0, 0, s2 p_x q_x)

    with s2 the dispersal variance. The p_x q_x source is evaluated by
    central differences at every Runge-Kutta stage of the reaction
    substep; freezing it per substep costs an order of accuracy.

  * `simulate_gametes` integrates the four gamete frequencies with
    reaction R(y) = exact one-generation map minus identity, applied
    pointwise; the pointwise sum of the fields is conserved.

  * `simulate_reduced` integrates the scalar equation for stacked clines
    in the rescaled frame (unit diffusion),

        u_t = u_xx + genetics.reduced_reaction(u, u_x, S, r, eps)
            = u_xx + S f(u) + eps g(u) + (2/r)(S (2u-1) + eps) u_x^2,

    recomputing u_x at every Runge-Kutta stage so the split is strictly
    symmetric. Pass r = inf to drop the gradient coupling (plain bistable
    control). Speeds measured here convert to the original frame by the
    factor sigma/sqrt(2). A (k, n) initial state is k independent fronts.

Each simulator only builds its reaction right-hand side, once per run;
the shared driver copies and checks the initial data, steps, records and
tracks the fronts. A run ends at t_end, or at the first record its stop
rule accepts. It checks finiteness before every diffusion and the
field ranges at every record, since only recorded states are complete
Strang states. Diffusion acts on the whole (components, nodes)
state at once: one Crank-Nicolson step, a single tridiagonal solve with a
right-hand-side column per component, on no-flux boundaries, with the
one band type `Tridiagonal` that the stability operators and the BVP
Newton Jacobian share. Runs are deterministic given their config;
independent runs share no state.

Every reaction comes from `genetics`; this module imports nothing from
the standing-front, speed or stability layers, so a simulation loads
numpy and `scipy.linalg` only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded

from . import genetics
from .errors import (
    FieldInvariantError,
    FrontTrackingError,
    InsufficientSamplesError,
)
from .genetics import FitnessParams, reduced_reaction

RANGE_TOL = 1e-6          # abort threshold for field-range violations
BOUNDARY_INIT_TOL = 1e-6  # required closeness of initial data to limit states

# Tags tracked by argmax |value|; the rest by their 1/2 level crossing, every
# front decreasing except z, which rises.
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

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @staticmethod
    def symmetric(half_width: float, dx: float) -> "Grid1D":
        genetics.check_positive(dx=dx, **{"half-width": half_width})
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
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"t_end={self.t_end} is not a whole number of steps dt={self.dt}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


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
    fronts, argmax |value| for hump-shaped quantities). config_summary
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
    """Tridiagonal matrix A by its bands lower[i] = A[i+1, i], diag[i] = A[i, i]
    and upper[i] = A[i, i+1]; its methods act along the last axis."""

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

    @cached_property
    def _banded(self) -> np.ndarray:
        ab = np.zeros((3, self.diag.size))  # LAPACK's (upper, diagonal, lower) layout
        ab[0, 1:] = self.upper
        ab[1] = self.diag
        ab[2, :-1] = self.lower
        return ab

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # No finiteness scan: the run loop checks the state before each
        # diffusion, which also catches a non-finite solve (only by overflow).
        return solve_banded((1, 1), self._banded, rhs.T, check_finite=False).T


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
                    f"{BOUNDARY_INIT_TOL} of a limit state", 0.0, {tag: arr},
                )


def _rk4(rhs, y, dt):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _gradient(u: np.ndarray, dx: float) -> np.ndarray:
    """Central differences, one-sided at the edges: np.gradient(u, dx), bit for bit."""
    out = np.empty_like(u)
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dx
    out[0] = (u[1] - u[0]) / dx
    out[-1] = (u[-1] - u[-2]) / dx
    return out


def _front_of(tag: str, values: np.ndarray, x: np.ndarray) -> float:
    if tag in _ABSMAX_TAGS:
        return float(x[int(np.argmax(np.abs(values)))])
    f = 1.0 - values if tag == "z" else values
    try:
        return front_position_values(f, x)
    except FrontTrackingError:
        return math.nan


def _range_guard(t: float, fields: dict[str, np.ndarray]) -> None:
    for tag, arr in fields.items():
        if _out_of_range(tag, arr):
            if tag == "D":
                message = f"|D| exceeded 1/4 + {RANGE_TOL} at t={t}"
            else:
                message = f"{tag} left [0,1] by more than {RANGE_TOL} at t={t}"
            raise FieldInvariantError(message, t, dict(fields))


def _run_strang(init, tags, grid, cfg, nu, rhs, summary, stop=None) -> Trajectory:
    """The one run driver: Strang splitting with merged half-reactions.

    Each step is half reaction, diffusion, half reaction, but between two
    records the closing half of one step and the opening half of the next
    are taken as one RK4 step of length dt:

        R(dt/2) D R(dt) D ... R(dt) D R(dt/2)

    A record is taken every record_every steps and at the last step. The
    loop splits back into two halves only at records, so every recorded
    state is a complete Strang state and the scheme keeps Strang's second
    order with about half the reaction evaluations; at record_every = 1 it
    is the classic loop. The finiteness check runs before every diffusion;
    the range guard runs at the records, the only complete states.

    A run ends at t_end, or at the first record its stop rule accepts:
    stop(record) is asked with each stored record after t = 0, once the
    range guard has passed it, under the loop's errstate (overflow and
    invalid ignored).

    init (one array per tag, or a bare array for one component) is copied
    into the (components, nodes) state and checked before the first step.
    rhs(state) -> d(state)/dt, built once per run by the simulator, returns
    a fresh array on every call, since the RK4 stages are kept side by
    side. summary names the model and its parameters; the config is added.
    """
    state = np.array(init, dtype=float, ndmin=2)
    _check_boundary_init(dict(zip(tags, state)))
    _range_guard(0.0, dict(zip(tags, state)))
    n_steps = int(round(cfg.t_end / cfg.dt))
    record_steps = list(range(0, n_steps + 1, cfg.record_every))
    if record_steps[-1] != n_steps:
        record_steps.append(n_steps)
    store = np.empty((len(tags), len(record_steps), grid.n))
    store[:, 0] = state
    slot = 1
    # Crank-Nicolson, (I - a T) u+ = (I + a T) u with a = nu dt / (2 dx^2) and
    # T the second differences; a no-flux edge row mirrors its inner
    # neighbor into a ghost node, which doubles that neighbor's coefficient.
    inner = np.ones(grid.n - 2)
    lap = Tridiagonal(np.append(inner, 2.0), np.full(grid.n, -2.0), np.append(2.0, inner))
    a = nu * cfg.dt / (2.0 * grid.dx**2)
    implicit = Tridiagonal(-a * lap.lower, 1.0 - a * lap.diag, -a * lap.upper)
    half = 0.5 * cfg.dt
    lead = half  # reaction time before the next diffusion
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            state = _rk4(rhs, state, lead)
            if not np.isfinite(state).all():
                raise FieldInvariantError(
                    f"state became non-finite at t={step * cfg.dt} "
                    "(reaction overshoot; reduce dt or smooth the initial data)",
                    step * cfg.dt, dict(zip(tags, state)),
                )
            state = implicit.solve(state + a * lap.apply(state))
            if step % cfg.record_every == 0 or step == n_steps:
                state = _rk4(rhs, state, half)
                lead = half
                _range_guard(step * cfg.dt, dict(zip(tags, state)))
                store[:, slot] = state
                slot += 1
                if stop is not None and stop(store[:, slot - 1]):
                    break
            else:
                lead = cfg.dt
    fields = dict(zip(tags, store[:, :slot]))
    return Trajectory(
        # integer step first, then dt: the same bits as step * dt in the loop
        times=np.array(record_steps[:slot]) * cfg.dt,
        grid=grid, fields=fields,
        front_positions={tag: np.array([_front_of(tag, rec, grid.x) for rec in arr])
                         for tag, arr in fields.items()},
        config_summary={**summary, "config": asdict(cfg)},
    )


# ---------------------------------------------------------------------------
# The three simulators
# ---------------------------------------------------------------------------


def simulate_pqd(init, fp: FitnessParams, grid: Grid1D, cfg: SimConfig) -> Trajectory:
    """Integrate the (p, q, D) system.

    Args:
        init: tuple of three arrays (p, q, D) on the grid, fronts near
            (1, 1, 0) on the left and (0, 0, 0) on the right.
    """
    dx = grid.dx

    def rhs(state):
        p, q, D = state
        out = np.empty_like(state)
        out[0], out[1], out[2] = genetics.pqd_reaction(p, q, D, fp)
        out[2] += fp.sigma2 * _gradient(p, dx) * _gradient(q, dx)
        return out

    return _run_strang(init, ["p", "q", "D"], grid, cfg, fp.sigma2 / 2.0, rhs,
                       {"model": "pqd", "params": asdict(fp)})


def simulate_gametes(init, fp: FitnessParams, grid: Grid1D, cfg: SimConfig) -> Trajectory:
    """Integrate the four-gamete reaction-diffusion system.

    The reaction is the per-generation net change of the exact recursion,
    R(y) = step(y) - y, whose components sum to zero pointwise.
    """
    def rhs(state):
        return np.array(genetics._step_arrays(*state, fp)) - state

    return _run_strang(init, ["u", "v", "w", "z"], grid, cfg, fp.sigma2 / 2.0, rhs,
                       {"model": "gametes", "params": asdict(fp)})


def simulate_reduced(init, S: float, eps: float, r: float,
                     grid: Grid1D, cfg: SimConfig, stop=None) -> Trajectory:
    """Integrate the reduced scalar equation for stacked clines.

    Works in the rescaled frame (unit diffusion); convert measured speeds
    to the original frame by multiplying with sigma/sqrt(2). The gradient
    coupling scales with 2/r; pass r = inf for the uncoupled bistable
    control. u_x is recomputed at every Runge-Kutta stage. A (k, n) init
    is k independent fronts, each repeating its own run bit for bit and,
    for k > 1, tagged u_reduced0, u_reduced1, ...; one front is u_reduced.
    stop is the driver's stop rule (see `_run_strang`).
    """
    dx = grid.dx

    def rhs(state):
        return reduced_reaction(state, np.array([_gradient(u, dx) for u in state]), S, r, eps)

    rows = 1 if np.ndim(init) == 1 else len(init)
    tags = ["u_reduced"] if rows == 1 else [f"u_reduced{i}" for i in range(rows)]
    return _run_strang(init, tags, grid, cfg, 1.0, rhs,
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
        raise FrontTrackingError("profile does not cross the level", 0)
    if crossings > 1:
        raise FrontTrackingError(
            f"profile crosses the level {crossings} times", crossings
        )
    if len(zero_nodes) == 1:
        return float(x[zero_nodes[0]])
    i = changes[0]
    frac = f[i] / (f[i] - f[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def instantaneous_speed(traj: Trajectory, tag: str,
                        window: tuple[float, float] | None = None) -> float:
    """Front speed of a tracked field: the least-squares slope of its
    positions over the window (the whole run by default).

    Raises:
        InsufficientSamplesError: fewer than 3 recorded positions in window.
    """
    if tag not in traj.front_positions:
        raise KeyError(f"no tracked front for tag {tag!r}")
    t = traj.times
    pos = traj.front_positions[tag]
    if window is None:
        window = (float(t[0]), float(t[-1]))
    mask = (t >= window[0]) & (t <= window[1]) & np.isfinite(pos)
    if int(mask.sum()) < 3:
        raise InsufficientSamplesError(
            f"need >= 3 front samples in window {window}, got {int(mask.sum())}"
        )
    return float(np.polyfit(t[mask], pos[mask], 1)[0])


def stacked_pqd_init(grid: Grid1D, S_like: float, sigma2: float = 2.0,
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
