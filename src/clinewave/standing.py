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
an ODE solver nor a tail patch is needed. Route two
(`profile_from_shooting`) follows the phase-plane orbit leaving the
saddle (1, 0) along its unstable manifold y = sqrt(S) (x - 1) until it
meets u = 1/2, recenters, and mirrors. The two must coincide; their
agreement is the uniqueness check used throughout the test suite.

Constructed profiles are immutable value objects and all constructors
are pure functions, safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .errors import ClinewaveError, ConvergenceError, NoHeteroclinicError
from .genetics import check_positive, default_half_width, reduced_reaction

# Handover height for the phase-plane shot. Transverse errors near the
# receiving saddle grow like exp(+sqrt(S) x), so the shot must not chase
# the tail too deep; the matched exponential is accurate to O(height^2).
SHOOT_TAIL_CUTOFF = 1e-6

# Offset along the unstable manifold used to start the phase-plane shot.
SHOOTING_DELTA = 1e-8

SHOOTING_TOL = 1e-6  # largest gap allowed between the shot and the slope-law heights

# The quadrature: a 10-point Gauss-Legendre rule on theta-panels of this width,
# and the Newton iterations allowed to invert x(theta) at the grid nodes.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
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


def _expm1_minus(y):
    """exp(y) - 1 - y without cancellation for small y."""
    y = np.asarray(y, dtype=float)
    out = np.where(np.abs(y) < 0.3, _taylor_g(y) * y * y, np.expm1(y) - y)
    return out if out.ndim else float(out)


def first_integral_P(u, S: float, r: float):
    """Squared slope of the standing front at height ``u``.

    Evaluates (r^2/8S) exp((4S/r)(u - u^2)) - (r/2)(u - u^2) - r^2/(8S)
    in the cancellation-free form (r^2/8S) (exp(y) - 1 - y); positive on
    (0, 1) and exactly zero at the endpoints.
    """
    y = (4.0 * S / r) * (np.asarray(u, dtype=float) - np.asarray(u, dtype=float) ** 2)
    return (r * r / (8.0 * S)) * _expm1_minus(y)


def _slope(u, S: float, r: float):
    """Signed slope -sqrt(P(u)) with a defensive clamp at machine noise."""
    return -np.sqrt(np.maximum(first_integral_P(u, S, r), 0.0))


def _slope_scalar(u: float, S: float, r: float) -> float:
    """`_slope` at one height on Python floats, bit for bit, for `speed.c1_exact`'s
    integrand. ``u * u`` matches numpy's ``u ** 2`` (libm ``pow`` need not),
    and ``np.expm1`` stays because ``math.expm1`` can differ in the last bit.
    """
    y = (4.0 * S / r) * (u - u * u)
    e = _taylor_g(y) * y * y if abs(y) < 0.3 else float(np.expm1(y)) - y
    return -math.sqrt(max((r * r / (8.0 * S)) * e, 0.0))


def _dx_dtheta(theta: np.ndarray, S: float, r: float) -> np.ndarray:
    """dx/dtheta = 2m/sqrt(P) at u = 1/(1 + e^{2 theta}), m = u (1 - u) = sech^2(theta)/4.

    As sqrt(2 / (S g(y))), g(y) = (e^y - 1 - y)/y^2 >= 1/2, y = (4S/r) m, it
    neither cancels nor underflows, and rises to 2/sqrt(S) in the tails; the
    floor 0.3^2 below only keeps y = 0 out of the discarded branch.
    """
    e = np.exp(-2.0 * np.abs(theta))
    y = (4.0 * S / r) * (e / ((1.0 + e) * (1.0 + e)))
    g = np.where(y < 0.3, _taylor_g(y), (np.expm1(y) - y) / np.maximum(y * y, 0.09))
    return np.sqrt(2.0 / (S * g))


def _x_of_theta(lo: np.ndarray, hi: np.ndarray, S: float, r: float) -> np.ndarray:
    """Integral of `_dx_dtheta` over [lo, hi], elementwise, by Gauss-Legendre."""
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * _GL_NODES
    return half * (_dx_dtheta(nodes, S, r) @ _GL_WEIGHTS)


@dataclass(frozen=True)
class WaveProfile:
    """Monotone front profile on a uniform grid, normalized to u(0) = 1/2.

    Attributes:
        x: grid abscissae, uniform, symmetric about 0.
        u: profile heights, strictly decreasing in (0, 1).
        du: slopes at the nodes (negative on the interior).
        S, r: reaction and recombination parameters the profile solves for.
        method: construction route, one of {"shooting", "quadrature", "bvp"}.
        condition_ok: whether the barrier condition S < 4r holds; outside it
            construction is attempted anyway and this flag records the regime.
    """

    x: np.ndarray
    u: np.ndarray
    du: np.ndarray
    S: float
    r: float
    method: str

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def condition_ok(self) -> bool:
        return bool(self.S < 4.0 * self.r)

    @cached_property
    def weight(self) -> np.ndarray:
        """Adjoint weight exp((4S/r)(u^2 - u)) along the profile."""
        return np.exp((4.0 * self.S / self.r) * (self.u * self.u - self.u))

    def interp(self, x_new: np.ndarray) -> np.ndarray:
        """Cubic-spline evaluation with exponential extension beyond the grid."""
        return exp_tail_extension(self.x, self.u, self.S)(x_new)

    def to_csv(self, path) -> None:
        from .reporting import write_csv

        write_csv(path, ["x", "u", "du"], np.column_stack([self.x, self.u, self.du]))


def _exp_tail(x: np.ndarray, x_edge: float, u_edge: float, S: float, limit: float):
    """Matched exponential tail of a decreasing front past its node (x_edge, u_edge).

    The front relaxes to its limit state at the linear tail rate sqrt(S):
    height limit + (u_edge - limit) e^{-sqrt(S) |x - x_edge|}, with limit 0
    right of the node and 1 left of it. Returns (heights, slopes) at x.
    """
    rate = math.sqrt(S)
    decay = np.exp(-(rate * np.abs(x - x_edge)))
    excess = u_edge - limit
    return limit + excess * decay, -rate * abs(excess) * decay


def exp_tail_extension(x: np.ndarray, u: np.ndarray, S: float):
    """Evaluator of a front sampled at (x, u), extended past the grid.

    Inside [x[0], x[-1]] it is a cubic spline, built once here; beyond the
    grid it is the `_exp_tail` of the edge node.
    """
    spline = CubicSpline(x, u)
    x_lo, x_hi = x[0], x[-1]

    def evaluate(x_new: np.ndarray) -> np.ndarray:
        x_new = np.asarray(x_new, dtype=float)
        out = spline(np.clip(x_new, x_lo, x_hi))
        right = x_new > x_hi
        if np.any(right):
            out[right] = _exp_tail(x_new[right], x_hi, u[-1], S, 0.0)[0]
        left = x_new < x_lo
        if np.any(left):
            out[left] = _exp_tail(x_new[left], x_lo, u[0], S, 1.0)[0]
        return out

    return evaluate


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
    """
    x_max = default_half_width(S) if x_max is None else x_max
    check_positive(S=S, r=r, dx=dx, x_max=x_max)
    half = int(round(x_max / dx))
    if half < 3:  # ode_residual's seven-point stencil
        raise ValueError(f"x_max={x_max} at dx={dx} gives fewer than 7 nodes")
    x = np.arange(-half, half + 1) * dx
    xr = x[half:]
    edges = np.zeros(1)  # x at theta = 0, _PANEL, 2 _PANEL, ...
    while edges[-1] < xr[-1]:  # dx/dtheta <= 2/sqrt(S): a lower bound on panels
        more = math.ceil(0.5 * math.sqrt(S) * (xr[-1] - edges[-1]) / _PANEL) + 1
        lo = _PANEL * np.arange(edges.size - 1, edges.size - 1 + more)
        edges = np.append(edges, edges[-1] + np.cumsum(_x_of_theta(lo, lo + _PANEL, S, r)))
    k = np.minimum(np.searchsorted(edges, xr, side="right") - 1, edges.size - 2)
    lo = _PANEL * k
    theta = lo + _PANEL * (xr - edges[k]) / (edges[k + 1] - edges[k])
    for _ in range(_NEWTON_MAX):
        step = (edges[k] + _x_of_theta(lo, theta, S, r) - xr) / _dx_dtheta(theta, S, r)
        theta = np.clip(theta - step, lo, lo + _PANEL)
        if np.all(np.abs(step) <= 1e-14 * (1.0 + theta)):
            break
    else:
        raise ConvergenceError(f"quadrature Newton moving after {_NEWTON_MAX} steps: S={S}, r={r}")
    e = np.exp(-2.0 * theta)
    u = np.concatenate((1.0 / (1.0 + e[:0:-1]), e / (1.0 + e)))
    return WaveProfile(x=x, u=u, du=_slope(u, S, r), S=S, r=r, method="quadrature")


def profile_from_shooting(reference: WaveProfile) -> WaveProfile:
    """Build the standing front by shooting along the saddle's unstable manifold.

    The phase-plane system (u, y) with u' = y, y' = -S f(u) - (2S/r)(2u-1) y^2
    is started a distance ``SHOOTING_DELTA`` from (1, 0) on the manifold
    y = sqrt(S)(u - 1) and followed until u crosses 1/2; the crossing is
    recentred to x = 0 and the left half filled in by the symmetry
    u(-x) = 1 - u(x). In the regime S >= 4r the orbit is attempted all the
    same and the profile is flagged via ``condition_ok``.

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
        u, y = state
        return [y, -reduced_reaction(u, y, S, r)]

    def crossing(_x, state):
        return state[0] - 0.5

    def escape(_x, state):
        return state[1] - y_guard

    escape.terminal = True

    def tail_event(_x, state):
        return state[0] - SHOOT_TAIL_CUTOFF

    tail_event.terminal = True

    # Leave room for the climb out of the saddle (~ log(1/delta)/sqrt(S))
    # plus the grid's half-width. The tolerances sit well below the ~1e-7
    # to which the two routes are expected to agree.
    span = x[-1] + (np.log(1.0 / SHOOTING_DELTA) + 5.0) / sqrt_S
    sol = solve_ivp(
        rhs, (0.0, span), [1.0 - SHOOTING_DELTA, -sqrt_S * SHOOTING_DELTA],
        events=[crossing, escape, tail_event], method="DOP853",
        dense_output=True, rtol=1e-13, atol=1e-16, max_step=0.25 / sqrt_S,
    )
    if sol.t_events[1].size > 0 or sol.t_events[0].size == 0:
        state = tuple(sol.y[:, -1]) if sol.y.size else (np.nan, np.nan)
        raise NoHeteroclinicError(
            f"orbit escaped before reaching u = 1/2 for S={S}, r={r}", state
        )
    x_cross = float(sol.t_events[0][0])

    n = x.size
    center = n // 2
    u = np.empty(n)
    du = np.empty(n)

    x_end = sol.t[-1]
    right = x[center:] + x_cross
    inside = right <= x_end
    vals = sol.sol(right[inside])
    u[center:][inside] = vals[0]
    du[center:][inside] = vals[1]
    if not np.all(inside):
        u_edge = float(sol.sol(x_end)[0])
        u[center:][~inside], du[center:][~inside] = _exp_tail(
            right[~inside], x_end, u_edge, S, 0.0)

    # Left half by the front's point symmetry; slopes are even in x.
    u[:center] = 1.0 - u[center + 1:][::-1]
    du[:center] = du[center + 1:][::-1]
    u[center] = 0.5

    profile = WaveProfile(x=x, u=u, du=du, S=S, r=r, method="shooting")
    gap = float(np.max(np.abs(u - reference.u)))
    if gap > SHOOTING_TOL:
        raise ClinewaveError(
            f"shooting profile deviates from the slope-law profile by {gap:.3e} "
            f"> tol={SHOOTING_TOL:.3e}"
        )
    return profile


def ode_residual(profile: WaveProfile) -> np.ndarray:
    """Pointwise defect of the standing equation along a constructed profile.

    u'' is formed by differentiating the stored slopes with a seven-point
    sixth-order stencil, so the check does not reuse the equation that
    produced the slopes. Returned on interior nodes (three dropped per side).
    """
    u, du = profile.u, profile.du
    S, r = profile.S, profile.r
    dx = profile.dx
    d2u = (
        du[6:] - 9.0 * du[5:-1] + 45.0 * du[4:-2]
        - 45.0 * du[2:-4] + 9.0 * du[1:-5] - du[:-6]
    ) / (60.0 * dx)
    return d2u + reduced_reaction(u[3:-3], du[3:-3], S, r)


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
            f"tail not resolved: edge height {edge:.3e} > 1e-3; extend the domain"
        )
    if not np.all(vals > 0.0):
        raise ClinewaveError(f"{side} tail underflowed in its fitted quarter; narrow the domain")
    slope = np.polyfit(profile.x[mask], np.log(vals), 1)[0]
    return float(slope)
