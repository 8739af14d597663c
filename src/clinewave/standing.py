"""Standing front of the symmetric reduced equation, by two independent routes.

The stationary profile solves

    u'' + S f(u) + (2 S / r) (2u - 1) (u')^2 = 0,      f(u) = u (2u - 1) (1 - u),

decreasing from 1 at -inf to 0 at +inf, normalized to u(0) = 1/2. The
equation admits a closed-form slope law: the squared slope at height u is

    P(u) = (r^2 / 8S) * (exp(y) - 1 - y),      y = (4S / r) (u - u^2),

which vanishes quadratically at u in {0, 1} and is positive in between.
Route one (`profile_from_quadrature`) is a plain quadrature of that law
in the height coordinate theta, u = 1/(1 + e^{2 theta}): the abscissa
x(theta) is the integral from 0 to theta of 2m/sqrt(P), m = u (1 - u),
which is smooth, even, and tends to 2/sqrt(S) in both tails, so neither
an ODE solver nor a tail patch is needed. `speed.c1_exact` sums the speed
coefficient's two integrals on the same Gauss-Legendre theta-panels. Route two
(`profile_from_shooting`) follows the phase-plane orbit leaving the
saddle (1, 0) along its unstable manifold y = sqrt(S) (x - 1) until it
meets u = 1/2, recenters, and mirrors. The two must coincide; their
agreement is the uniqueness check used throughout the test suite.

The discretized front lives here too: `front_residual`, the traveling-front
residual on a profile grid with pinned edges, and its Jacobian `linearization`,
which is `stability`'s L at eps = c = 0. `speed.solve_traveling_bvp` runs
Newton on the pair. Each profile stores the `pde.Grid1D` it was built on.
Constructed profiles are immutable value objects and all constructors
are pure functions, safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.optimize  # noqa: F401 - scipy.integrate loads it; first, peak RSS is 0.15 MB lower
from scipy.integrate import solve_ivp

from .errors import ClinewaveError, ConvergenceError, NoHeteroclinicError
from .genetics import bistable_f_prime, check_positive, default_half_width, reduced_reaction
from .pde import Grid1D, Tridiagonal

# Offset along the unstable manifold used to start the phase-plane shot.
SHOOTING_DELTA = 1e-8

SHOOTING_TOL = 1e-6  # largest gap allowed between the shot and the slope-law heights

# The quadrature: a 10-point Gauss-Legendre rule on theta-panels of this width,
# and the Newton iterations allowed to invert x(theta) at the grid nodes. The rule
# is leggauss(10)'s to the bit, tabulated so that no eigensolve runs at import:
# its five positive nodes, then their weights, mirrored.
_GL_HALF = np.array([float.fromhex(h) for h in """
    0x1.30e507891e27ap-3 0x1.bbcc009016adcp-2 0x1.5bdb9228de198p-1 0x1.bae995e9cb2f3p-1
    0x1.f2a3e062af2d8p-1 0x1.2e9de7014d6eep-2 0x1.13baa7a559c01p-2 0x1.c0b059d00bc30p-3
    0x1.32138c878efdep-3 0x1.1115f8b62dc1fp-4""".split()]).reshape(2, 5)
_GL_NODES = np.concatenate((-_GL_HALF[0, ::-1], _GL_HALF[0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[1, ::-1], _GL_HALF[1]))
_PANEL = 0.5
_NEWTON_MAX = 50

# Horner coefficients 1/14!, ..., 1/3! of the Taylor tail y^2/2 + ... + y^14/14!
# of exp(y) - 1 - y; the remainder is below 1e-19 for |y| < 0.3.
_EXPM1_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(14, 2, -1))


def _taylor_g(y):
    """(exp(y) - 1 - y) / y^2 by its Taylor series, for |y| < 0.3."""
    acc = 0.0
    for coef in _EXPM1_TAYLOR:
        acc = (acc + coef) * y
    return acc + 0.5


def first_integral_P(u, S: float, r: float):
    """Squared slope of the standing front at height ``u``.

    Evaluates (r^2/8S) exp((4S/r)(u - u^2)) - (r/2)(u - u^2) - r^2/(8S)
    in the cancellation-free form (r^2/8S) (exp(y) - 1 - y); positive on
    (0, 1) and exactly zero at the endpoints.
    """
    u = np.asarray(u, dtype=float)
    y = (4.0 * S / r) * (u - u ** 2)
    out = (r * r / (8.0 * S)) * np.where(np.abs(y) < 0.3, _taylor_g(y) * y * y, np.expm1(y) - y)
    return out if out.ndim else float(out)


def _dx_dtheta(theta: np.ndarray, S: float, r: float) -> np.ndarray:
    """dx/dtheta = 2m/sqrt(P) at u = 1/(1 + e^{2 theta}), m = u (1 - u) = sech^2(theta)/4.

    As sqrt(2 / (S g(y))), g(y) = (e^y - 1 - y)/y^2 >= 1/2, y = (4S/r) m, it
    neither cancels nor underflows, and rises to 2/sqrt(S) in the tails; the
    floor 0.3^2 below only keeps y = 0 out of the discarded branch. Both the
    abscissa x(theta) and `speed.c1_exact`'s denominator are its panel sums.
    """
    e = np.exp(-2.0 * np.abs(theta))
    y = (4.0 * S / r) * (e / ((1.0 + e) * (1.0 + e)))
    g = np.where(y < 0.3, _taylor_g(y), (np.expm1(y) - y) / np.maximum(y * y, 0.09))
    return np.sqrt(2.0 / (S * g))


def _panel_integrals(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrals of ``f`` over [lo, hi], elementwise, by Gauss-Legendre; an ``f``
    that stacks integrands on a leading axis gets a row of integrals for each."""
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * _GL_NODES
    return half * (f(nodes) @ _GL_WEIGHTS)


@dataclass(frozen=True)
class WaveProfile:
    """Monotone front profile on a uniform grid, normalized to u(0) = 1/2.

    Attributes:
        grid: the simulators' grid it is sampled on, symmetric about 0;
            ``x`` and ``dx`` are its nodes and spacing.
        u: profile heights, strictly decreasing in (0, 1).
        du: slopes at the nodes (negative on the interior).
        S, r: reaction and recombination parameters the profile solves for.
        method: construction route, one of {"shooting", "quadrature", "bvp"}.
        condition_ok: whether the barrier condition S < 4r holds; outside it
            construction is attempted anyway and this flag records the regime.
    """

    grid: Grid1D
    u: np.ndarray
    du: np.ndarray
    S: float
    r: float
    method: str

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    @property
    def dx(self) -> float:
        return self.grid.dx

    @property
    def condition_ok(self) -> bool:
        return bool(self.S < 4.0 * self.r)

    @cached_property
    def weight(self) -> np.ndarray:
        """Adjoint weight exp((4S/r)(u^2 - u)) along the profile."""
        return np.exp((4.0 * self.S / self.r) * (self.u * self.u - self.u))

    def to_csv(self, path) -> None:
        from .reporting import write_csv

        write_csv(path, ["x", "u", "du"], np.column_stack([self.x, self.u, self.du]))


def _exp_tail(x: np.ndarray, x_edge: float, u_edge: float, S: float, limit: float):
    """Matched exponential tail of a decreasing front past its node (x_edge, u_edge).

    The front relaxes to its limit state at the linear tail rate sqrt(S):
    height limit + (u_edge - limit) e^{-sqrt(S) |x - x_edge|}, with limit 0
    right of the node and 1 left of it. Returns (heights, slopes) at x. The
    phase-plane shot fills the nodes left of its start with it (limit 1).
    """
    rate = math.sqrt(S)
    decay = np.exp(-(rate * np.abs(x - x_edge)))
    excess = u_edge - limit
    return limit + excess * decay, -rate * abs(excess) * decay


@np.errstate(over="ignore", invalid="ignore")  # a slope law past double range: checked below
def profile_from_quadrature(
    S: float, r: float, x_max: float | None = None, dx: float = 0.02
) -> WaveProfile:
    """Build the standing front from its slope law u' = -sqrt(P(u)).

    Sums x(theta) over theta-panels of width ``_PANEL`` past the last node,
    then inverts it at the nodes x >= 0 by Newton steps, each started by
    linear interpolation in its panel and clipped to it, until every step
    is within 1e-14 (1 + theta), a few dozen roundings of x(theta). With
    e = exp(-2 theta) <= 1, u(x) = e/(1 + e) and u(-x) = 1/(1 + e), so
    u(0) = 1/2 exactly and the symmetry defect is their rounding.

    Raises:
        ConvergenceError: a node still moves after ``_NEWTON_MAX`` steps.
        ClinewaveError: the slopes are not finite or vanish at x = 0, where
            the slope law's terms leave double range (S/r or r^2/S extreme).
    """
    x_max = default_half_width(S) if x_max is None else x_max
    check_positive(S=S, r=r, dx=dx, x_max=x_max)
    grid = Grid1D.symmetric(x_max, dx)  # the simulators' layout; refuses an oversized grid
    if grid.n < 7:  # ode_residual's seven-point stencil
        raise ValueError(f"half-width x_max={x_max} at dx={dx} gives fewer than 7 nodes")
    xr = grid.x[grid.n // 2:]
    h = partial(_dx_dtheta, S=S, r=r)
    edges = np.zeros(1)  # x at theta = 0, _PANEL, 2 _PANEL, ...
    while edges[-1] < xr[-1]:  # dx/dtheta <= 2/sqrt(S): a lower bound on panels
        more = math.ceil(0.5 * math.sqrt(S) * (xr[-1] - edges[-1]) / _PANEL) + 1
        lo = _PANEL * np.arange(edges.size - 1, edges.size - 1 + more)
        edges = np.append(edges, edges[-1] + np.cumsum(_panel_integrals(h, lo, lo + _PANEL)))
    k = np.minimum(np.searchsorted(edges, xr, side="right") - 1, edges.size - 2)
    lo = _PANEL * k
    theta = lo + _PANEL * (xr - edges[k]) / (edges[k + 1] - edges[k])
    for _ in range(_NEWTON_MAX):
        step = (edges[k] + _panel_integrals(h, lo, theta) - xr) / h(theta)
        theta = np.clip(theta - step, lo, lo + _PANEL)
        if np.all(np.abs(step) <= 1e-14 * (1.0 + theta)):
            break
    else:
        raise ConvergenceError(f"quadrature Newton moving after {_NEWTON_MAX} steps: S={S}, r={r}")
    e = np.exp(-2.0 * theta)
    u = np.concatenate((1.0 / (1.0 + e[:0:-1]), e / (1.0 + e)))
    du = -np.sqrt(first_integral_P(u, S, r))  # P >= 0 on u in [0, 1]: no clamp needed
    if not (np.isfinite(du).all() and du[grid.n // 2] < 0.0):
        raise ClinewaveError(f"slope law out of double range at S={S}, r={r}: "
                             f"u'(0) = {du[grid.n // 2]}")
    return WaveProfile(grid=grid, u=u, du=du, S=S, r=r, method="quadrature")


def profile_from_shooting(reference: WaveProfile) -> WaveProfile:
    """Build the standing front by shooting along the saddle's unstable manifold.

    The phase-plane system (u, y) with u' = y, y' = -S f(u) - (2S/r)(2u-1) y^2
    is started a distance ``SHOOTING_DELTA`` from (1, 0) on the manifold
    y = sqrt(S)(u - 1) and followed until u meets 1/2, where it stops. The
    climb, recentred so that the crossing sits at x = 0, is the left half:
    transverse errors decay along the unstable manifold, so it is the
    accurate half. Nodes left of the shot's start lie on the manifold's
    linear tail 1 - u = delta e^{sqrt(S) x}. The right half is the point
    mirror u(x) = 1 - u(-x), with even slopes. In the regime S >= 4r the
    orbit is attempted all the same and the profile is flagged via
    ``condition_ok``.

    The shot is built at the (S, r) and on the grid of ``reference``, a
    quadrature profile, and checked against its heights.

    Raises:
        NoHeteroclinicError: the orbit dived below the escape guard
            10 sqrt(S) before reaching u = 1/2.
        ClinewaveError: the shot strays from ``reference`` by more than
            ``SHOOTING_TOL``.
    """
    S, r, x = reference.S, reference.r, reference.x
    sqrt_S = np.sqrt(S)
    y_guard = -10.0 * sqrt_S

    def rhs(_x, state):
        u, y = state.tolist()  # Python floats run the same arithmetic faster than NumPy scalars
        return [y, -reduced_reaction(u, y, S, r)]

    def crossing(_x, state):
        return state[0] - 0.5

    crossing.terminal = True

    def escape(_x, state):
        return state[1] - y_guard

    escape.terminal = True

    # Leave room for the climb out of the saddle (~ log(1/delta)/sqrt(S)).
    # The tolerances sit well below the ~1e-7 to which the two routes are
    # expected to agree.
    span = (np.log(1.0 / SHOOTING_DELTA) + 5.0) / sqrt_S
    sol = solve_ivp(
        rhs, (0.0, span), [1.0 - SHOOTING_DELTA, -sqrt_S * SHOOTING_DELTA],
        events=[crossing, escape], method="DOP853",
        dense_output=True, rtol=1e-13, atol=1e-16, max_step=0.25 / sqrt_S,
    )
    if sol.t_events[1].size > 0 or sol.t_events[0].size == 0:
        state = tuple(sol.y[:, -1]) if sol.y.size else (np.nan, np.nan)
        raise NoHeteroclinicError(
            f"orbit escaped before reaching u = 1/2 for S={S}, r={r}", escape_state=state
        )
    x_cross = float(sol.t_events[0][0])

    center = x.size // 2
    u = np.empty(x.size)
    du = np.empty(x.size)
    t = x[:center + 1] + x_cross  # the left half and the centre, in the shot's abscissa
    climb = t >= 0.0
    u[:center + 1][climb], du[:center + 1][climb] = sol.sol(t[climb])
    u[:center + 1][~climb], du[:center + 1][~climb] = _exp_tail(
        t[~climb], 0.0, 1.0 - SHOOTING_DELTA, S, 1.0)

    # Right half by the front's point symmetry; slopes are even in x.
    u[center + 1:] = 1.0 - u[:center][::-1]
    du[center + 1:] = du[:center][::-1]
    u[center] = 0.5

    profile = WaveProfile(grid=reference.grid, u=u, du=du, S=S, r=r, method="shooting")
    gap = float(np.max(np.abs(u - reference.u)))
    if gap > SHOOTING_TOL:
        raise ClinewaveError(
            f"shooting profile deviates from the slope-law profile by {gap:.3e} "
            f"> tol={SHOOTING_TOL:.3e}", gap=gap
        )
    return profile


def ode_residual(profile: WaveProfile) -> np.ndarray:
    """Pointwise defect of the standing equation along a constructed profile.

    u'' is formed by differentiating the stored slopes with a seven-point
    sixth-order stencil, so the check does not reuse the equation that
    produced the slopes. Returned on interior nodes (three dropped per side).
    On a correct profile it is the stencil's O(dx^6) truncation, largest on
    a steep front: at S = 0.85, r = 0.15 the sup is 5.6e-4, 1.1e-5, 1.9e-7,
    2.9e-9 at dx = 0.04, 0.02, 0.01, 0.005 (51-63x per halving).
    """
    u, du = profile.u, profile.du
    S, r = profile.S, profile.r
    dx = profile.dx
    d2u = (
        du[6:] - 9.0 * du[5:-1] + 45.0 * du[4:-2]
        - 45.0 * du[2:-4] + 9.0 * du[1:-5] - du[:-6]
    ) / (60.0 * dx)
    return d2u + reduced_reaction(u[3:-3], du[3:-3], S, r)


def front_residual(u: np.ndarray, c: float, eps: float, S: float, r: float, dx: float):
    """Interior residual of u'' + c u' + `genetics.reduced_reaction`(u, u', S, r, eps)
    by central differences, with the edges pinned at u = 1 on the left and
    u = 0 on the right. Returns the residual and the slopes u' it used."""
    full = np.concatenate(([1.0], u, [0.0]))
    upp = (full[2:] - 2.0 * full[1:-1] + full[:-2]) / (dx * dx)
    up = (full[2:] - full[:-2]) / (2.0 * dx)
    return upp + c * up + reduced_reaction(u, up, S, r, eps), up


def linearization(u: np.ndarray, du: np.ndarray, S: float, r: float, dx: float,
                  eps: float = 0.0, c: float = 0.0) -> Tridiagonal:
    """Jacobian of `front_residual` about interior values u with slopes du,
    the boundary values held fixed.

    At eps = c = 0 it is L: the eps and c terms come after L's, so there
    they add only zeros. The BVP's Newton loop passes its own eps and c.
    """
    b = (4.0 * S / r) * du * (2.0 * u - 1.0)
    diag = (-2.0 / dx**2 + S * (bistable_f_prime(u) + (4.0 / r) * du * du)
            + eps * (1.0 - 2.0 * u))
    off = b / (2.0 * dx) + (c + (4.0 / r) * eps * du) / (2.0 * dx)
    return Tridiagonal(1.0 / dx**2 - off[1:], diag, 1.0 / dx**2 + off[:-1])


def symmetry_defect(profile: WaveProfile) -> float:
    """max |u(-x) + u(x) - 1| over the grid."""
    return float(np.max(np.abs(profile.u + profile.u[::-1] - 1.0)))


def slope_law_defect(profile: WaveProfile) -> float:
    """max |u'(x)^2 - P(u(x))|, the first-integral conservation error."""
    P = first_integral_P(profile.u, profile.S, profile.r)
    return float(np.max(np.abs(profile.du**2 - P)))


def decay_rate(profile: WaveProfile, side: str = "right") -> float:
    """Exponential tail rate fitted over the outer quarter of the domain.

    Least-squares slope of log u (right tail) or log(1 - u) (left tail);
    the standing front decays at rate -sqrt(S) on the right and the
    mirrored rate +sqrt(S) on the left.

    Raises:
        ClinewaveError: tail not resolved (height above 1e-3 at the edge),
            or underflowed (a height of 0, whose log is undefined).
    """
    if side == "right":
        mask = profile.x >= profile.x[-1] / 2.0
        vals = profile.u[mask]
    elif side == "left":
        mask = profile.x <= profile.x[0] / 2.0
        vals = 1.0 - profile.u[mask]
    else:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    edge = vals[-1] if side == "right" else vals[0]
    if edge > 1e-3:
        raise ClinewaveError(
            f"tail not resolved: edge height {edge:.3e} > 1e-3; extend the domain",
            edge_height=edge,
        )
    return _log_slope(profile.x[mask], vals, f"{side} tail underflowed")


def _log_slope(x: np.ndarray, values: np.ndarray, lost: str) -> float:
    """Least-squares slope of log(values) against x, once every value is finite and positive."""
    if not np.all((values > 0.0) & (values < math.inf)):
        raise ClinewaveError(f"{lost} in its fitted quarter; narrow the domain")
    return float(np.polyfit(x, np.log(values), 1)[0])
