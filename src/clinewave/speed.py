"""Wave-speed theory for weakly asymmetric stacked clines.

With a small directional advantage eps, the standing front starts to
travel at speed c(eps) = c1 eps + o(eps). The first-order coefficient has
two forms computed here:

  * `c1_exact`: the height-space quadrature

        c1 = [int_0^1 (r/4S)(1 - e^{-y(u)}) du]
             / [int_0^1 sqrt(P(u)) e^{-y(u)} du],       y(u) = (4S/r)(u - u^2),

    with P the squared-slope law of the standing front.

  * `c1_series`: the small-S/r expansion
    (1/sqrt(S)) (1 + (4/15)(S/r) + (2/45)(S/r)^2); `c1_star` keeps the
    first-order term only.

The x-space form, the Fredholm solvability ratio along a constructed
profile, is `stability.solvability_ratio`; the height-space quadrature
follows from it by the change of variable u = u0(x).

Limit cases with closed forms: a single cline travels at s/sqrt(S) with
an explicit tanh profile; fully linked clines (r = 0) behave as one locus
with doubled coefficients, giving 2s/sqrt(2S). They bracket c1,
1/sqrt(S) < c1 < sqrt(2)/sqrt(S), only for S/r below about 1.261:
c1 sqrt(S) depends on S/r alone and passes sqrt(2) there.

`solve_traveling_bvp` computes the genuinely nonlinear traveling wave by
Newton continuation on the discretized profile equation, with the phase
condition int (u - u0) u0' dx = 0 closing the system for the speed; it
is the independent check that c(eps)/eps -> c1 as eps -> 0. Its Newton
Jacobian is `stability.linearization` (L's stencil with eps and c), whose
`pde.Tridiagonal` bands go to `spsolve` as a sparse matrix.

`compare_speeds` runs the full (p, q, D) system and reports measured
original-frame front speeds against the predictions, which convert from
the rescaled frame by the factor sigma/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
import scipy.sparse as sps
from scipy.sparse.linalg import spsolve

from . import pde
from .errors import NewtonDivergenceError, QuadratureError
from .genetics import (
    FitnessParams,
    check_bistable,
    check_positive,
    default_half_width,
    reduced_reaction,
)
from .stability import linearization
from .standing import WaveProfile, _slope_scalar, profile_from_quadrature

# Newton stops once the residual and the phase defect fall below
# NEWTON_TOL / dx^2. The residual's second difference carries rounding of
# about 4 eps_machine / dx^2 ~ 9e-16 / dx^2, so a fixed tolerance would sit
# below that floor on fine grids; this one is 1e-12 at dx = 0.05.
NEWTON_TOL = 2.5e-15
NEWTON_MAX_ITER = 40      # Newton steps allowed per continuation stage
CONTINUATION_STEPS = 4    # eps stages, halving down from eps
BVP_GRID_DX = 0.05        # spacing of the standing profile the BVP starts from
QUAD_TOL = 1e-10          # relative tolerance of the c1_exact quadratures
TRANSIENT_FRACTION = 0.3  # leading share of a speed run left out of the fit


def c1_exact(S: float, r: float) -> float:
    """First-order speed coefficient by adaptive quadrature in height space.

    Raises:
        QuadratureError: the integrator's error estimate exceeds the
            requested relative tolerance.
    """
    check_positive(S=S, r=r)
    k = 4.0 * S / r

    def numerator(u):
        return -(r / (4.0 * S)) * math.expm1(-k * (u - u * u))

    def denominator(u):
        return -_slope_scalar(u, S, r) * math.exp(-k * (u - u * u))

    num, err_n = quad(numerator, 0.0, 1.0, epsabs=0.0, epsrel=QUAD_TOL, limit=200)
    den, err_d = quad(denominator, 0.0, 1.0, epsabs=0.0, epsrel=QUAD_TOL, limit=200)
    if err_n > 10.0 * QUAD_TOL * abs(num) or err_d > 10.0 * QUAD_TOL * abs(den):
        raise QuadratureError(
            f"speed quadrature did not converge to {QUAD_TOL}: "
            f"errors {err_n / abs(num):.2e}, {err_d / abs(den):.2e}"
        )
    return num / den


def c1_series(S: float, r: float, order: int = 2) -> float:
    """Small-S/r expansion of the speed coefficient, truncated at ``order``."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    check_positive(S=S, r=r)
    ratio = S / r
    total = 1.0
    if order >= 1:
        total += (4.0 / 15.0) * ratio
    if order >= 2:
        total += (2.0 / 45.0) * ratio * ratio
    return total / math.sqrt(S)


def c1_star(S: float, r: float) -> float:
    """First-order truncation (1/sqrt(S)) (1 + (4/15) S/r)."""
    return c1_series(S, r, order=1)


def single_cline_speed(s: float, S: float):
    """Speed s/sqrt(S) of one cline alone, plus its exact tanh profile.

    Returns:
        (speed, profile) where profile(x, t=0.0) evaluates the traveling
        front 1/2 - 1/2 tanh(sqrt(S)(x - speed t)/2).

    Raises:
        ValueError: outside the bistable window 0 < s < S.
    """
    check_bistable(s, S)
    speed = s / math.sqrt(S)

    def profile(x, t=0.0):
        return pde.logistic_front(np.asarray(x), S, center=speed * t)

    return speed, profile


def zero_recombination_speed(s: float, S: float) -> float:
    """Speed 2s/sqrt(2S) of fully linked clines (one locus, doubled effects)."""
    check_bistable(s, S)
    return 2.0 * s / math.sqrt(2.0 * S)


# ---------------------------------------------------------------------------
# Traveling-wave boundary value solver
# ---------------------------------------------------------------------------


def _traveling_residual(u, c, eps, S, r, dx, u_left, u_right):
    """Interior residual of u'' + c u' + S f + eps g + (2/r)(S(2u-1)+eps) u'^2."""
    full = np.concatenate(([u_left], u, [u_right]))
    upp = (full[2:] - 2.0 * full[1:-1] + full[:-2]) / (dx * dx)
    up = (full[2:] - full[:-2]) / (2.0 * dx)
    return upp + c * up + reduced_reaction(u, up, S, r, eps)


def solve_traveling_bvp(
    S: float,
    r: float,
    eps: float,
    u0: WaveProfile | None = None,
) -> tuple[float, WaveProfile]:
    """Traveling profile and speed by Newton continuation from the standing wave.

    The discretized profile equation on a pinned grid (u = 1 on the far
    left, 0 on the far right) is augmented with the phase condition
    int (u - u0) u0' dx = 0, which makes the speed c an unknown of the
    square system. eps is ramped geometrically from 0 so each Newton
    solve starts near its solution.

    Returns:
        (c, profile) with the residual below ``NEWTON_TOL / dx^2``.

    Raises:
        NewtonDivergenceError: a continuation stage failed to converge, or
            a Newton step came out singular or non-finite (e.g. a profile
            with zero slope gives the phase condition no weight).
        ValueError: eps NaN, negative, or too large for the perturbative
            branch (> 0.1 S).
    """
    check_positive(S=S, r=r)
    if not 0.0 <= eps <= 0.1 * S:
        raise ValueError(f"eps must lie in [0, 0.1 S] = [0, {0.1 * S}], got {eps}")
    if u0 is None:
        u0 = profile_from_quadrature(S, r, dx=BVP_GRID_DX)
    x, base, base_slope = u0.x, u0.u, u0.du
    dx = u0.dx
    tol = NEWTON_TOL / (dx * dx)
    u_left, u_right = 1.0, 0.0

    u = base[1:-1].copy()
    c = 0.0
    phase_weight = base_slope[1:-1] * dx

    if eps == 0.0:
        stages = [0.0]
    else:
        stages = [eps * (0.5 ** k) for k in range(CONTINUATION_STEPS - 1, -1, -1)]

    for eps_k in stages:
        for _ in range(NEWTON_MAX_ITER):
            res = _traveling_residual(u, c, eps_k, S, r, dx, u_left, u_right)
            phase = float(np.dot(u - base[1:-1], phase_weight))
            norm = max(float(np.max(np.abs(res))), abs(phase))
            if norm < tol:
                break
            full = np.concatenate(([u_left], u, [u_right]))
            up = (full[2:] - full[:-2]) / (2.0 * dx)
            J = linearization(u, up, S, r, dx, eps=eps_k, c=c)
            # Keller's bordering: the Jacobian is the tridiagonal T bordered
            # by the column dR/dc = u' and the phase row w. One solve
            # T [y z] = [-res u'] gives dc = (w.y + phase) / (w.z), du = y - z dc.
            T = sps.diags([J.lower, J.diag, J.upper], [-1, 0, 1], format="csc")
            y, z = spsolve(T, np.column_stack((-res, up))).T
            wz = float(np.dot(phase_weight, z))
            dc = (float(np.dot(phase_weight, y)) + phase) / wz if wz != 0.0 else math.nan
            du = y - z * dc
            if not (math.isfinite(dc) and np.isfinite(du).all()):
                raise NewtonDivergenceError(
                    f"singular Newton step at eps={eps_k} (w.z = {wz:.3e}) "
                    f"from residual {norm:.3e}", norm
                )
            u += du
            c += dc
        else:
            raise NewtonDivergenceError(
                f"Newton stalled at eps={eps_k} with residual {norm:.3e}", norm
            )

    values = np.concatenate(([u_left], u, [u_right]))
    slopes = np.gradient(values, dx)
    return c, WaveProfile(x=x, u=values, du=slopes, S=S, r=r, method="bvp")


# ---------------------------------------------------------------------------
# Theory versus full-system simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeedReport:
    """Measured front speed of the full system next to the predictions.

    Predicted coefficients are per unit eps in the rescaled frame;
    ``measured_speed`` is in the original frame, which relates to the
    rescaled one by the factor sigma/sqrt(2).
    """

    S: float
    r: float
    s: float
    sigma2: float
    c1_exact: float
    c1_series: float
    c1_star: float
    measured_speed: float

    @property
    def frame_factor(self) -> float:
        return math.sqrt(self.sigma2 / 2.0)

    @property
    def predicted_original(self) -> float:
        return self.s * self.c1_star * self.frame_factor

    @property
    def relative_gap(self) -> float:
        predicted = self.predicted_original
        return abs(self.measured_speed - predicted) / predicted

    def csv_row(self):
        return [self.S, self.r, self.s, self.sigma2, self.c1_exact, self.c1_series,
                self.c1_star, self.measured_speed, "original", self.relative_gap]

    CSV_HEADER = ["S", "r", "s", "sigma2", "c1_exact", "c1_series2", "c1_star",
                  "measured_speed", "frame", "relative_gap"]


def measure_full_system_speed(
    S: float, r: float, s: float, sigma2: float,
    t_end: float = 600.0, dt: float = 0.2, dx: float = 0.2,
) -> SpeedReport:
    """Run the (p, q, D) system with stacked fronts and fit the front speed.

    Original-frame simulation; the report carries the measured speed in
    the original frame and the gap against s * c1_star converted to it.
    The domain keeps `genetics.default_half_width` of tail clearance behind
    the front, and that plus twice the predicted travel ahead (s > 0).
    """
    check_bistable(s, S)  # s > 0: the predicted speed divides relative_gap
    check_positive(r=r, sigma2=sigma2, dx=dx, dt=dt)
    cfg = pde.SimConfig(dt=dt, t_end=t_end, record_every=max(1, int(round(2.0 / dt))))
    scale = math.sqrt(sigma2 / 2.0)
    clearance = default_half_width(S) * scale
    travel = 2.0 * s * c1_star(S, r) * scale * t_end
    behind = int(round(clearance / dx))
    ahead = int(round((clearance + travel) / dx))
    grid = pde.Grid1D(-behind * dx, ahead * dx, behind + ahead + 1)
    init = pde.stacked_pqd_init(grid, S, sigma2)
    fp = FitnessParams(sA=s, sB=s, SA=S, SB=S, r=r, sigma2=sigma2)
    traj = pde.simulate_pqd(init, fp, grid, cfg)
    measured = pde.instantaneous_speed(traj, "p", window=(TRANSIENT_FRACTION * t_end, t_end))
    return SpeedReport(
        S=S, r=r, s=s, sigma2=sigma2,
        c1_exact=c1_exact(S, r), c1_series=c1_series(S, r, 2), c1_star=c1_star(S, r),
        measured_speed=measured,
    )


def compare_speeds(sweep, t_end: float = 600.0, dt: float = 0.2,
                   dx: float = 0.2) -> list[SpeedReport]:
    """Theory-versus-simulation table over a sweep of (S, r, s, sigma2)."""
    return [
        measure_full_system_speed(S, r, s, sigma2, t_end=t_end, dt=dt, dx=dx)
        for (S, r, s, sigma2) in sweep
    ]
