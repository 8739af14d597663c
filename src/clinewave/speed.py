"""Wave-speed theory for weakly asymmetric stacked clines.

With a small directional advantage eps, the standing front starts to
travel at speed c(eps) = c1 eps + o(eps). The first-order coefficient has
two forms computed here:

  * `c1_exact`: the height-space quadrature

        c1 = [int_0^1 (r/4S)(1 - e^{-y(u)}) du]
             / [int_0^1 sqrt(P(u)) e^{-y(u)} du],       y(u) = (4S/r)(u - u^2),

    with P the squared-slope law of the standing front, summed in its
    height coordinate theta on `standing`'s Gauss-Legendre theta-panels.

  * `c1_series`: the small-S/r expansion
    (1/sqrt(S)) (1 + (4/15)(S/r) + (2/45)(S/r)^2); `c1_star` keeps the
    first-order term only.

The x-space form, the Fredholm solvability ratio along a constructed
profile, is `stability.solvability_ratio`; the height-space quadrature
follows from it by the change of variable u = u0(x).

Limit cases with closed forms: a single cline travels at s/sqrt(S) with
the logistic profile `pde.logistic_front`; fully linked clines (r = 0)
behave as one locus with doubled coefficients, giving 2s/sqrt(2S). They
bracket c1, 1/sqrt(S) < c1 < sqrt(2)/sqrt(S), only for S/r below about
1.261: c1 sqrt(S) depends on S/r alone and passes sqrt(2) there.

`solve_traveling_bvp` computes the genuinely nonlinear traveling wave by
Newton from the standing front on the discretized profile equation, with
the phase condition int (u - u0) u0' dx = 0 closing the system for the
speed; it is the independent check that c(eps)/eps -> c1 as eps -> 0. The
residual is `standing.front_residual` and its Jacobian `standing.linearization`
(L's stencil with eps and c), whose `pde.Tridiagonal` bands go to LAPACK
`gtsv` in one call per Newton step.

`compare_speeds` runs the full (p, q, D) system and reports measured
original-frame front speeds against the predictions, which convert from
the rescaled frame by the factor sigma/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps  # noqa: F401 - the benchmark's span tracer wraps speed.sps.lil_matrix
from scipy.linalg.lapack import dgtsv

from . import pde
from .errors import NewtonDivergenceError, QuadratureError
from .genetics import FitnessParams, check_bistable, check_positive, default_half_width
from .standing import (_PANEL, WaveProfile, _dx_dtheta, _panel_integrals, front_residual,
                       linearization, profile_from_quadrature)

# Newton stops once the residual and the phase defect fall below
# NEWTON_TOL / dx^2. The residual's second difference carries rounding of
# about 4 eps_machine / dx^2 ~ 9e-16 / dx^2, so a fixed tolerance would sit
# below that floor on fine grids; this one is 1e-12 at dx = 0.05.
NEWTON_TOL = 2.5e-15
NEWTON_MAX_ITER = 40      # Newton steps allowed per solve
NEWTON_MAX_RISES = 4      # steps in a row allowed to end above the smallest residual
BVP_GRID_DX = 0.05        # spacing of the standing profile the BVP starts from
QUAD_TOL = 1e-12          # largest move of c1_exact on half-width panels
C1_THETA_MAX = 12.0       # c1_exact's sums reach at least here: the tails are ~e^{-48} of them
C1_THETA_TAIL = 9.0       # and this far past the mass at (1/2) ln(4S/r): tails ~e^{-36}
TRANSIENT_FRACTION = 0.3  # leading share of a speed run left out of the fit


def c1_exact(S: float, r: float) -> float:
    """First-order speed coefficient by Gauss-Legendre sums in height space.

    u = 1/(1 + e^{2 theta}) gives du = -2m dtheta and u' = -2m/(dx/dtheta), with
    m = u (1 - u) = e/(1 + e)^2, e = e^{-2 theta} and y = (4S/r) m. Both are even, so
    c1 = (r/8S) int_0^inf m (1 - e^{-y}) dtheta / int_0^inf m^2 e^{-y} / (dx/dtheta) dtheta,
    summed to ``C1_THETA_MAX`` on `standing`'s panels and on half-width ones.

    Raises:
        QuadratureError: a sum is not finite and positive, or half-width
            panels move c1 by over ``QUAD_TOL``.
    """
    check_positive(S=S, r=r)

    def integrands(theta):
        e = np.exp(-2.0 * theta)
        m = e / ((1.0 + e) * (1.0 + e))
        y = (4.0 * S / r) * m
        # Past y = 0.3, e^{-y} / (dx/dtheta) = e^{-y/2} sqrt(S g e^{-y} / 2) with
        # g e^{-y} = (1 - e^{-y} - y e^{-y}) / y^2, so e^y, which overflows, never forms.
        ge = (-np.expm1(-y) - y * np.exp(-y)) / np.maximum(y * y, 0.09)
        weight = np.where(y < 0.3, np.exp(-y) / _dx_dtheta(theta, S, r),
                          np.exp(-0.5 * y) * np.sqrt(0.5 * S * ge))
        return np.stack((-m * np.expm1(-y), m * m * weight))

    sums = []
    theta_max = max(C1_THETA_MAX, 0.5 * (math.log(4.0 * S) - math.log(r)) + C1_THETA_TAIL)
    with np.errstate(all="ignore"):
        for width in (_PANEL, 0.5 * _PANEL):
            lo = width * np.arange(round(theta_max / width))
            sums += [float(v) for v in _panel_integrals(integrands, lo, lo + width).sum(axis=1)]
    num, den, num_half, den_half = sums
    if not all(0.0 < v < math.inf for v in sums):
        raise QuadratureError(f"c1 sums not finite and positive at S/r = {S / r:.6g}: {sums}",
                              sums=sums)
    gap = abs((num_half / den_half) / (num / den) - 1.0)
    if gap > QUAD_TOL:
        raise QuadratureError(f"half-width panels move c1 by {gap:.2e} > {QUAD_TOL}"
                              f" at S/r = {S / r:.6g}", gap=gap)
    return (r / (8.0 * S)) * num / den


def c1_series(S: float, r: float) -> float:
    """Two-term expansion (1/sqrt(S)) (1 + (4/15) S/r + (2/45) (S/r)^2)."""
    check_positive(S=S, r=r)
    ratio = S / r
    return (1.0 + (4.0 / 15.0) * ratio + (2.0 / 45.0) * ratio * ratio) / math.sqrt(S)


def c1_star(S: float, r: float) -> float:
    """First-order truncation (1/sqrt(S)) (1 + (4/15) S/r)."""
    check_positive(S=S, r=r)
    return (1.0 + (4.0 / 15.0) * (S / r)) / math.sqrt(S)


def single_cline_speed(s: float, S: float) -> float:
    """Speed s/sqrt(S) of one cline alone; its front is `pde.logistic_front`.

    Raises:
        ValueError: outside the bistable window 0 < s < S.
    """
    check_bistable(s, S)
    return s / math.sqrt(S)


def zero_recombination_speed(s: float, S: float) -> float:
    """Speed 2s/sqrt(2S) of fully linked clines (one locus, doubled effects)."""
    check_bistable(s, S)
    return 2.0 * s / math.sqrt(2.0 * S)


# ---------------------------------------------------------------------------
# Traveling-wave boundary value solver
# ---------------------------------------------------------------------------


def spsolve(J: pde.Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """J x = rhs for every column of rhs by one LAPACK `dgtsv` call, LU with partial
    pivoting, since J is not symmetric; all NaN at an exactly zero pivot (info > 0).
    Named for the sparse solver the Newton step once called: the benchmark's
    `speed.bvp.linear_solve` span wraps `speed.spsolve`."""
    x, info = dgtsv(J.lower, J.diag, J.upper, rhs)[3:]
    return x if info == 0 else np.full_like(x, math.nan)


def solve_traveling_bvp(
    S: float,
    r: float,
    eps: float,
    u0: WaveProfile | None = None,
) -> tuple[float, WaveProfile]:
    """Traveling profile and speed by Newton's method from the standing wave.

    The discretized profile equation on a pinned grid (u = 1 on the far
    left, 0 on the far right) is augmented with the phase condition
    int (u - u0) u0' dx = 0, which makes the speed c an unknown of the
    square system. At eps = 0 it is the discrete standing front that
    `stability.relaxation_shift` perturbs. Newton runs at the requested eps
    from (u0, c = 0) and converges in two to five steps for eps <= 0.1 S,
    S <= 0.85, S/r <= 8.5.
    At dx = 0.05, S >= 0.5 and S/r >= 10 (e.g. S = 0.5, r = 0.02), where the
    standing front's residual is 6 to 600, it stalls. Just before the stall
    it converges, to a residual near 1e-13, on a wrong speed: from the cold
    start at S = 0.5, eps = 1e-3, c / (eps c1_exact) - 1 is -1.40e-2 at
    r = 0.052 and -7.08e-2 at r = 0.051, and at r = 0.05 Newton diverges.
    ROADMAP item 21 (one continuation driver) owns the fix.

    Returns:
        (c, profile) with the residual below ``NEWTON_TOL / dx^2``.

    Raises:
        NewtonDivergenceError: Newton did not converge in ``NEWTON_MAX_ITER``
            steps or stayed above its smallest residual ``NEWTON_MAX_RISES``
            steps in a row, or a step came out singular or non-finite (e.g.
            a profile with zero slope gives the phase condition no weight).
        ValueError: eps NaN, negative, or too large for the perturbative
            branch (> 0.1 S).
    """
    check_positive(S=S, r=r)
    if not 0.0 <= eps <= 0.1 * S:
        raise ValueError(f"eps must lie in [0, 0.1 S] = [0, {0.1 * S}], got {eps}")
    if u0 is None:
        u0 = profile_from_quadrature(S, r, dx=BVP_GRID_DX)
    base, base_slope = u0.u, u0.du
    dx = u0.dx
    tol = NEWTON_TOL / (dx * dx)

    u = base[1:-1].copy()
    c = 0.0
    phase_weight = base_slope[1:-1] * dx
    best, rises = math.inf, 0

    for _ in range(NEWTON_MAX_ITER):
        res, up = front_residual(u, c, eps, S, r, dx)
        phase = float(np.dot(u - base[1:-1], phase_weight))
        norm = max(float(np.max(np.abs(res))), abs(phase))
        if norm < tol:
            break
        best, rises = (norm, 0) if norm < best else (best, rises + 1)
        if rises == NEWTON_MAX_RISES:
            raise NewtonDivergenceError(f"Newton diverged at eps={eps}: residual {norm:.3e}",
                                        last_residual=norm)
        J = linearization(u, up, S, r, dx, eps=eps, c=c)
        # Keller's bordering: the Jacobian is the tridiagonal J bordered
        # by the column dR/dc = u' and the phase row w. One solve
        # J [y z] = [-res u'] gives dc = (w.y + phase) / (w.z), du = y - z dc.
        y, z = spsolve(J, np.column_stack((-res, up))).T
        wz = float(np.dot(phase_weight, z))
        dc = (float(np.dot(phase_weight, y)) + phase) / wz if wz != 0.0 else math.nan
        du = y - z * dc
        if not (math.isfinite(dc) and np.isfinite(du).all()):
            raise NewtonDivergenceError(
                f"singular Newton step at eps={eps} (w.z = {wz:.3e}) "
                f"from residual {norm:.3e}", last_residual=norm
            )
        u += du
        c += dc
    else:
        raise NewtonDivergenceError(
            f"Newton stalled at eps={eps} with residual {norm:.3e}", last_residual=norm
        )

    values = np.concatenate(([1.0], u, [0.0]))
    slopes = np.gradient(values, dx)
    return c, WaveProfile(grid=u0.grid, u=values, du=slopes, S=S, r=r, method="bvp")


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


def _lab_params(S, r, s, sigma2, dx, dt) -> FitnessParams:
    """The checked model constants of one lab-frame speed run."""
    check_bistable(s, S)  # s > 0: the predicted speed divides relative_gap
    check_positive(r=r, sigma2=sigma2, dx=dx, dt=dt)
    return FitnessParams(sA=s, sB=s, SA=S, SB=S, r=r, sigma2=sigma2)


def measure_full_system_speed(
    S: float, r: float, s: float, sigma2: float, t_end: float, dt: float, dx: float,
) -> SpeedReport:
    """Run the (p, q, D) system with stacked fronts and fit the front speed.

    Original-frame simulation; the report carries the measured speed in
    the original frame and the gap against s * c1_star converted to it.
    The domain keeps `genetics.default_half_width` of tail clearance behind
    the front, and that plus twice the predicted travel ahead (s > 0).
    """
    fp = _lab_params(S, r, s, sigma2, dx, dt)
    # A record every 2 time units. Past MAX_STEPS steps a stride records only the
    # run's ends, so the cap changes no record; it keeps inf out of round().
    cfg = pde.SimConfig(dt=dt, t_end=t_end,
                        record_every=max(1, round(min(2.0 / dt, pde.MAX_STEPS))))
    scale = math.sqrt(sigma2 / 2.0)
    clearance = default_half_width(S) * scale
    travel = 2.0 * s * c1_star(S, r) * scale * t_end
    pde.check_size("node count", (2.0 * clearance + travel) / dx + 1.0, pde.MAX_NODES)
    behind = int(round(clearance / dx))
    ahead = int(round((clearance + travel) / dx))
    grid = pde.Grid1D(-behind * dx, ahead * dx, behind + ahead + 1)
    init = pde.stacked_pqd_init(grid, S, sigma2)
    traj = pde.simulate_pqd(init, fp, grid, cfg)
    measured = pde.instantaneous_speed(traj, "p", window=(TRANSIENT_FRACTION * t_end, t_end))
    return SpeedReport(
        S=S, r=r, s=s, sigma2=sigma2,
        c1_exact=c1_exact(S, r), c1_series=c1_series(S, r), c1_star=c1_star(S, r),
        measured_speed=measured,
    )


def compare_speeds(sweep, t_end: float, dt: float, dx: float) -> list[SpeedReport]:
    """Theory-versus-simulation table over a list of (S, r, s, sigma2)."""
    for point in sweep:  # every point is checked before the first run
        _lab_params(*point, dx, dt)
    return [
        measure_full_system_speed(S, r, s, sigma2, t_end=t_end, dt=dt, dx=dx)
        for (S, r, s, sigma2) in sweep
    ]
