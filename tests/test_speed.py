"""Unit tests for the wave-speed theory and the traveling-wave BVP solver."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import spsolve

from clinewave import speed
from clinewave.stability import linearization, solvability_ratio
from clinewave.errors import NewtonDivergenceError, ProfileTooShortError
from clinewave.speed import (
    _traveling_residual,
    SpeedReport,
    c1_exact,
    c1_series,
    c1_star,
    measure_full_system_speed,
    single_cline_speed,
    solve_traveling_bvp,
    zero_recombination_speed,
)
from clinewave.genetics import bistable_f_prime, default_half_width
from clinewave.pde import Grid1D, logistic_front, qle_disequilibrium
from clinewave.standing import profile_from_quadrature


@pytest.fixture(scope="module")
def profile_01():
    return profile_from_quadrature(0.1, 0.1)


class TestC1Exact:
    def test_deep_expansion_regime_matches_series(self):
        v = c1_exact(0.02, 0.5)
        assert v == pytest.approx(c1_series(0.02, 0.5, 2), rel=1e-4)

    def test_large_recombination_limit(self):
        # both integrands linearize and the ratio collapses to 1/sqrt(S)
        assert c1_exact(0.1, 50.0) == pytest.approx(1.0 / math.sqrt(0.1), rel=1e-3)

    def test_monotone_decreasing_in_recombination(self):
        vals = [c1_exact(0.1, r) for r in (0.1, 0.2, 0.3, 0.4, 0.5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_coefficient_sandwich(self):
        # Between free recombination (single-cline coefficient) and full
        # linkage (doubled-effects coefficient). Holds across the
        # weak-coupling regime S/r <= 1; beyond it the closure that the
        # coefficient is built on loses its meaning.
        pairs = [(0.1, r) for r in (0.1, 0.2, 0.3, 0.4, 0.5)]
        pairs += [(0.02, 0.5), (0.25, 0.25), (0.3, 0.5)]
        for (S, r) in pairs:
            lo = 1.0 / math.sqrt(S)
            hi = math.sqrt(2.0) / math.sqrt(S)
            assert lo < c1_exact(S, r) < hi

    def test_first_order_coefficient_extracted_numerically(self):
        # Oracle: fit (sqrt(S) c1 - 1) / (S/r) in the small-ratio limit;
        # the expansion coefficient is 4/15.
        r = 0.5
        for ratio in (1e-3, 1e-4):
            S = ratio * r
            dev = (c1_exact(S, r) * math.sqrt(S) - 1.0) / ratio
            assert dev == pytest.approx(4.0 / 15.0, rel=5e-3)

    def test_remainder_is_third_order(self):
        ratios = []
        for ratio in (0.05, 0.1, 0.2):
            S = ratio * 0.5
            gap = abs(c1_exact(S, 0.5) - c1_series(S, 0.5, 2))
            ratios.append(gap / ratio**3)
        assert max(ratios) / min(ratios) < 3.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            c1_exact(0.0, 0.1)
        # the series divided by r = 0 (ZeroDivisionError) in compare
        for series in (c1_series, c1_star):
            with pytest.raises(ValueError, match="r=0.0"):
                series(0.1, 0.0)


class TestC1Series:
    def test_order_zero_is_single_cline_coefficient(self):
        assert c1_series(0.09, 0.7, 0) == pytest.approx(1.0 / 0.3, rel=1e-14)

    def test_equal_parameters_give_19_15ths(self):
        S = 0.16
        assert c1_star(S, S) == pytest.approx((19.0 / 15.0) / math.sqrt(S), rel=1e-14)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            c1_series(0.1, 0.1, 3)


class TestProfileFormula:
    def test_matches_quadrature_route(self, profile_01):
        # Oracle: the height-space integral obtained from the x-space
        # solvability ratio by the change of variable u = u0(x).
        assert solvability_ratio(profile_01) == pytest.approx(
            c1_exact(0.1, 0.1), rel=1e-6
        )

    @pytest.mark.parametrize("S,r", [(0.6, 0.25), (0.25, 0.25), (0.3, 0.5)])
    def test_positivity(self, S, r):
        prof = profile_from_quadrature(S, r)
        assert solvability_ratio(prof) > 0.0

    def test_resolution_insensitivity(self):
        a = profile_from_quadrature(0.1, 0.1, dx=0.02)
        b = profile_from_quadrature(0.1, 0.1, dx=0.01)
        va = solvability_ratio(a)
        vb = solvability_ratio(b)
        assert abs(va - vb) < 1e-8

    def test_short_profile_rejected(self):
        short = profile_from_quadrature(0.1, 0.1, x_max=12.0, dx=0.02)
        with pytest.raises(ProfileTooShortError):
            solvability_ratio(short)


class TestClosedFormSpeeds:
    def test_single_cline_value(self):
        speed, _prof = single_cline_speed(0.01, 0.1)
        assert speed == pytest.approx(0.01 / math.sqrt(0.1), rel=1e-14)

    def test_single_cline_profile_solves_the_wave(self):
        speed, prof = single_cline_speed(0.02, 0.2)
        x = np.linspace(-30.0, 30.0, 2001)
        # translate by t: profile(x, t) = profile(x - speed t, 0)
        assert np.allclose(prof(x, t=3.0), prof(x - 3.0 * speed), atol=1e-14)

    def test_zero_recombination_value(self):
        assert zero_recombination_speed(0.01, 0.1) == pytest.approx(
            0.02 / math.sqrt(0.2), rel=1e-14
        )

    def test_bistability_window_enforced(self):
        with pytest.raises(ValueError):
            single_cline_speed(0.2, 0.1)
        with pytest.raises(ValueError):
            zero_recombination_speed(0.1, 0.1)


# Every library entry that takes S, r or s: the parameters it takes, and
# the call with the full triple (S, r, s).
QLE_GRID = Grid1D.symmetric(20.0, 0.1)
QLE_P = logistic_front(QLE_GRID.x, 0.1)
DOMAIN_ENTRIES = {
    "default_half_width": ("S", lambda S, r, s: default_half_width(S)),
    "profile_from_quadrature": ("Sr", lambda S, r, s: profile_from_quadrature(S, r)),
    "c1_exact": ("Sr", lambda S, r, s: c1_exact(S, r)),
    "c1_series": ("Sr", lambda S, r, s: c1_series(S, r)),
    "c1_star": ("Sr", lambda S, r, s: c1_star(S, r)),
    "single_cline_speed": ("Ss", lambda S, r, s: single_cline_speed(s, S)),
    "zero_recombination_speed": ("Ss", lambda S, r, s: zero_recombination_speed(s, S)),
    "measure_full_system_speed": (
        "Srs", lambda S, r, s: measure_full_system_speed(S, r, s, 2.0, t_end=10.0)),
    "solve_traveling_bvp": ("Sr", lambda S, r, s: solve_traveling_bvp(S, r, 0.0)),
    "qle_disequilibrium": ("r", lambda S, r, s: qle_disequilibrium(
        QLE_P, QLE_P, QLE_GRID, 2.0, r)),
}


@pytest.mark.parametrize("entry", sorted(DOMAIN_ENTRIES))
def test_each_domain_is_stated_once(entry):
    # one message per domain, whichever entry rejects the value
    takes, call = DOMAIN_ENTRIES[entry]
    bad = (0.0, -0.1, math.inf, math.nan)
    cases = []
    if "S" in takes:
        cases += [({"S": v}, f"need finite S > 0, got S={v}") for v in bad]
    if "r" in takes:
        cases += [({"r": v}, f"need finite r > 0, got r={v}") for v in bad]
    if "s" in takes:
        cases += [({"s": v}, f"need finite s > 0 and s < S, got s={v}, S=0.1")
                  for v in bad + (0.1, 0.2)]
    for values, message in cases:
        with pytest.raises(ValueError) as info:
            call(**({"S": 0.1, "r": 0.3, "s": 0.01} | values))
        assert str(info.value) == message


class TestTravelingBVP:
    def test_zero_eps_returns_standing_state(self, profile_01):
        c, prof = solve_traveling_bvp(0.1, 0.1, 0.0, u0=profile_01)
        assert abs(c) < 1e-12
        assert np.max(np.abs(prof.u - profile_01.u)) < 1e-4

    def test_first_order_law_by_richardson(self, profile_01):
        # Oracle: Richardson extrapolation of c(eps)/eps to eps -> 0 must
        # land on the quadrature coefficient.
        cx = c1_exact(0.1, 0.1)
        eps_pair = (1e-3, 1e-4)
        vals = {}
        for eps in eps_pair:
            c, _ = solve_traveling_bvp(0.1, 0.1, eps, u0=profile_01)
            vals[eps] = c / eps
        e2, e1 = eps_pair
        extrapolated = (e2 * vals[e1] - e1 * vals[e2]) / (e2 - e1)
        assert extrapolated == pytest.approx(cx, rel=1e-3)
        # the ratio error shrinks with eps
        assert abs(vals[1e-4] - cx) < abs(vals[1e-3] - cx)

    def test_phase_condition_enforced(self, profile_01):
        _, prof = solve_traveling_bvp(0.1, 0.1, 1e-3, u0=profile_01)
        h = prof.u - profile_01.u
        phase = np.trapezoid(h * profile_01.du, dx=profile_01.dx)
        assert abs(phase) < 1e-10

    def test_eps_bound_enforced(self, profile_01):
        for eps in (0.05, math.nan, -1e-3):  # above 0.1 S, NaN, negative
            with pytest.raises(ValueError):
                solve_traveling_bvp(0.1, 0.1, eps, u0=profile_01)

    def test_newton_divergence_reports_residual(self, profile_01, monkeypatch):
        monkeypatch.setattr(speed, "NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(speed, "CONTINUATION_STEPS", 1)
        with pytest.raises(NewtonDivergenceError) as err:
            solve_traveling_bvp(0.1, 0.1, 1e-3, u0=profile_01)
        assert err.value.last_residual > 0.0

    def test_zero_phase_weight_fails_at_the_first_step(self, profile_01, monkeypatch):
        # A profile with zero slope gives the phase condition no weight, so
        # the bordered system is singular; the solver must say so at once
        # with a finite residual, not iterate on NaN.
        flat = dataclasses.replace(profile_01, du=np.zeros_like(profile_01.du))
        solves = []

        def counting_spsolve(*args, **kwargs):
            solves.append(1)
            return spsolve(*args, **kwargs)

        monkeypatch.setattr(speed, "spsolve", counting_spsolve)
        with pytest.raises(NewtonDivergenceError) as err:
            solve_traveling_bvp(0.1, 0.1, 1e-3, u0=flat)
        assert len(solves) == 1
        assert math.isfinite(err.value.last_residual) and err.value.last_residual > 0.0


class TestBVPGridRefinement:
    """Newton's stopping test scales with the 1/dx^2 stencil, so the solve
    converges on fine grids, where a fixed 1e-12 sits below the rounding
    floor of the residual, and stays on the first-order law there at the
    criterion-05 tolerances."""

    @pytest.mark.parametrize("dx", [0.05, 0.025, 0.0125])
    def test_first_order_law_under_refinement(self, dx):
        u0 = profile_from_quadrature(0.1, 0.1, dx=dx)
        cx = c1_exact(0.1, 0.1)
        vals = {}
        for eps in (1e-3, 1e-4):
            c, prof = solve_traveling_bvp(0.1, 0.1, eps, u0=u0)
            vals[eps] = c / eps
            assert abs(np.trapezoid((prof.u - u0.u) * u0.du, dx=u0.dx)) < 1e-10
        extrapolated = (1e-3 * vals[1e-4] - 1e-4 * vals[1e-3]) / (1e-3 - 1e-4)
        assert abs(extrapolated - cx) / cx < 1e-3


def _reference_bvp(S, r, eps, u0):
    """Newton continuation with the whole bordered Jacobian assembled as a
    sparse (m+1) x (m+1) matrix and handed to one direct solve (the
    solver's default tolerance, iteration cap and four stages)."""
    x, base, dx = u0.x, u0.u, u0.dx
    m = x.size - 2
    u = base[1:-1].copy()
    c = 0.0
    phase_weight = u0.du[1:-1] * dx
    for eps_k in [eps * (0.5 ** k) for k in (3, 2, 1, 0)]:
        for _ in range(40):
            res = _traveling_residual(u, c, eps_k, S, r, dx, 1.0, 0.0)
            phase = float(np.dot(u - base[1:-1], phase_weight))
            if max(float(np.max(np.abs(res))), abs(phase)) < 1e-12:
                break
            full = np.concatenate(([1.0], u, [0.0]))
            up = (full[2:] - full[:-2]) / (2.0 * dx)
            coef = S * (2.0 * u - 1.0) + eps_k
            diag = (-2.0 / (dx * dx) + S * bistable_f_prime(u)
                    + eps_k * (1.0 - 2.0 * u) + (4.0 * S / r) * up * up)
            off_common = c / (2.0 * dx) + (2.0 / r) * coef * up / dx
            J = sps.lil_matrix((m + 1, m + 1))
            J.setdiag(diag)
            J.setdiag((1.0 / (dx * dx) + off_common)[:-1], 1)
            J.setdiag((1.0 / (dx * dx) - off_common)[1:], -1)
            J[:m, m] = up[:, np.newaxis]
            J[m, :m] = phase_weight
            delta = spsolve(J.tocsc(), -np.concatenate((res, [phase])))
            u += delta[:m]
            c += float(delta[m])
        else:
            raise AssertionError(f"reference Newton stalled at eps={eps_k}")
    return c, np.concatenate(([1.0], u, [0.0]))


class TestBorderedSolveMatchesReference:
    """The bordered (tridiagonal + Schur complement) Newton step reproduces
    the full bordered-matrix solve. Both stop on the same 1e-12 residual,
    which fixes c only to about 1e-11 relative, so the bound is absolute."""

    @pytest.mark.parametrize("r", [0.1, 0.15, 0.3, 0.45])
    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_same_speed_and_profile(self, r, eps):
        u0 = profile_from_quadrature(0.1, r, dx=0.05)
        c, prof = solve_traveling_bvp(0.1, r, eps, u0=u0)
        c_ref, u_ref = _reference_bvp(0.1, r, eps, u0)
        assert abs(c - c_ref) <= 1e-13
        assert np.max(np.abs(prof.u - u_ref)) <= 1e-12


class TestLinearizationIsTheResidualJacobian:
    """`stability.linearization` with c and eps is the Jacobian of the
    traveling-wave residual, column by column against central differences.
    The residual is at most cubic in each node value, so the differences
    carry only rounding and an h^2 term far below the bound."""

    @pytest.mark.parametrize("c, eps", [(0.0, 0.0), (0.3, 0.01), (-0.2, 0.007)])
    def test_matches_central_differences(self, c, eps):
        S, r = 0.1, 0.15
        u0 = profile_from_quadrature(S, r, x_max=20.0, dx=0.2)
        dx = u0.dx
        # off the standing wave, so every term of the residual is at work
        u = u0.u[1:-1] + 0.05 * np.sin(u0.x[1:-1])
        full = np.concatenate(([1.0], u, [0.0]))
        J = linearization(u, (full[2:] - full[:-2]) / (2.0 * dx), S, r, dx, eps=eps, c=c)
        dense = np.diag(J.diag) + np.diag(J.upper, 1) + np.diag(J.lower, -1)
        h = 1e-5
        fd = np.empty_like(dense)
        for j in range(u.size):
            step = np.zeros_like(u)
            step[j] = h
            fd[:, j] = (_traveling_residual(u + step, c, eps, S, r, dx, 1.0, 0.0)
                        - _traveling_residual(u - step, c, eps, S, r, dx, 1.0, 0.0)) / (2.0 * h)
        np.testing.assert_allclose(dense, fd, rtol=0.0, atol=1e-8)


class TestFullSystemComparison:
    def test_symmetric_case_is_standing(self):
        # sA = sB = 0 admits no directional push; the stacked front stays put.
        from clinewave import pde
        from clinewave.genetics import FitnessParams

        grid = pde.Grid1D.symmetric(130.0, 0.2)
        init = pde.stacked_pqd_init(grid, 0.1, 2.0)
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.5, sigma2=2.0)
        cfg = pde.SimConfig(dt=0.2, t_end=200.0, record_every=100)
        traj = pde.simulate_pqd(init, fp, grid, cfg)
        assert abs(pde.instantaneous_speed(traj, "p")) < grid.dx / 200.0

    @pytest.mark.parametrize("s", [0.0, -0.01, math.nan])
    def test_non_positive_s_rejected_before_the_run(self, monkeypatch, s):
        # s = 0 used to run every lab-frame simulation and only then divide
        # by the zero prediction in relative_gap
        from clinewave import pde

        def never(*_args):
            raise AssertionError("simulate_pqd called")

        monkeypatch.setattr(pde, "simulate_pqd", never)
        with pytest.raises(ValueError, match="s > 0"):
            measure_full_system_speed(0.1, 0.5, s, 2.0, t_end=10.0)

    def test_measured_speed_tracks_first_order_theory(self):
        rep = measure_full_system_speed(0.1, 0.5, 0.01, 2.0, t_end=400.0)
        assert rep.relative_gap < 0.10

    @pytest.mark.parametrize("r", [0.5, 0.15])
    def test_one_sided_domain_matches_the_symmetric_one(self, monkeypatch, r):
        # the reference route: a symmetric 40/sqrt(S) domain, padded for the
        # travel on both sides, edges at ~e^-40 from the limit states
        from clinewave import pde
        from clinewave.genetics import FitnessParams

        S, s, sigma2, t_end, dt, dx = 0.1, 0.01, 2.0, 150.0, 0.2, 0.2
        scale = math.sqrt(sigma2 / 2.0)
        travel = 2.0 * s * c1_star(S, r) * scale * t_end
        grid = pde.Grid1D.symmetric(40.0 / math.sqrt(S) * scale + travel, dx)
        fp = FitnessParams(sA=s, sB=s, SA=S, SB=S, r=r, sigma2=sigma2)
        cfg = pde.SimConfig(dt=dt, t_end=t_end, record_every=10)
        wide = pde.simulate_pqd(pde.stacked_pqd_init(grid, S, sigma2), fp, grid, cfg)
        expected = pde.instantaneous_speed(
            wide, "p", window=(speed.TRANSIENT_FRACTION * t_end, t_end))

        runs = []
        simulate = pde.simulate_pqd

        def keep(*args):
            runs.append(simulate(*args))
            return runs[-1]

        monkeypatch.setattr(pde, "simulate_pqd", keep)
        rep = measure_full_system_speed(S, r, s, sigma2, t_end=t_end, dt=dt, dx=dx)
        assert abs(rep.measured_speed / expected - 1.0) <= 1e-10
        (traj,) = runs
        assert traj.grid.n < grid.n / 2
        assert traj.times[-1] == t_end
        # the front keeps the tail clearance to both edges all run long
        fronts = traj.front_positions["p"]
        clearance = default_half_width(S) * scale - dx
        assert np.min(fronts - traj.grid.x_min) >= clearance
        assert np.min(traj.grid.x_max - fronts) >= clearance
        for tag, limits in (("p", (1.0, 0.0)), ("q", (1.0, 0.0)), ("D", (0.0, 0.0))):
            final = traj.fields[tag][-1]
            assert abs(final[0] - limits[0]) <= pde.BOUNDARY_INIT_TOL
            assert abs(final[-1] - limits[1]) <= pde.BOUNDARY_INIT_TOL

    def test_report_row_shape(self):
        rep = SpeedReport(S=0.1, r=0.5, s=0.01, sigma2=2.0, c1_exact=3.34,
                          c1_series=3.34, c1_star=3.33, measured_speed=0.033)
        assert len(rep.csv_row()) == len(SpeedReport.CSV_HEADER)
        assert rep.csv_row()[SpeedReport.CSV_HEADER.index("frame")] == "original"
        assert rep.predicted_original == pytest.approx(0.01 * 3.33, rel=1e-12)
        assert rep.relative_gap == pytest.approx(1.0 - 0.033 / 0.0333, rel=1e-12)
