"""Unit tests for the standing-front constructors and their diagnostics."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from clinewave import standing
from clinewave.errors import ClinewaveError, ConvergenceError, NoHeteroclinicError
from clinewave.pde import Grid1D
from clinewave.standing import (
    _GL_NODES,
    _GL_WEIGHTS,
    _exp_tail,
    _taylor_g,
    decay_rate,
    first_integral_P,
    ode_residual,
    profile_from_quadrature,
    profile_from_shooting,
    slope_law_defect,
    symmetry_defect,
    WaveProfile,
)

# The expensive profiles are shared across the module.


@pytest.fixture(scope="module")
def profile_01():
    return profile_from_quadrature(0.1, 0.1)


@pytest.fixture(scope="module")
def shot_01(profile_01):
    return profile_from_shooting(profile_01)


class TestFirstIntegral:
    def test_vanishes_at_endpoints(self):
        assert first_integral_P(0.0, 0.3, 0.2) == 0.0
        assert first_integral_P(1.0, 0.3, 0.2) == 0.0

    def test_midpoint_value_from_direct_evaluation(self):
        # (r^2/8S) e^1 - (r/2)/4 - r^2/8S at S = r = 0.1 is 0.0125 (e - 2).
        expected = 0.0125 * (math.e - 2.0)
        got = first_integral_P(0.5, 0.1, 0.1)
        assert got == pytest.approx(expected, rel=1e-13)
        assert math.sqrt(got) == pytest.approx(0.09475, rel=1e-3)

    def test_small_coupling_limit_is_quartic(self):
        # Oracle: second-order expansion of the exponential gives S (u - u^2)^2.
        S, r = 1e-3, 0.5
        u = np.linspace(0.0, 1.0, 201)
        diff = np.abs(first_integral_P(u, S, r) - S * (u - u**2) ** 2)
        assert np.max(diff) <= 2.0 * S**2 / r

    def test_positive_on_open_interval(self):
        for (S, r) in [(0.1, 0.1), (0.6, 0.25), (0.25, 0.25), (0.3, 0.5)]:
            u = np.linspace(0.01, 0.99, 99)
            assert np.all(first_integral_P(u, S, r) > 0.0)


def test_gauss_legendre_table_is_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


class TestQuadratureProfile:
    def test_normalization_and_monotonicity(self, profile_01):
        center = profile_01.x.size // 2
        assert profile_01.x[center] == 0.0
        assert profile_01.u[center] == pytest.approx(0.5, abs=1e-10)
        assert np.all(np.diff(profile_01.u) < 0.0)

    def test_symmetry(self):
        p = profile_from_quadrature(0.6, 0.25)
        assert symmetry_defect(p) < 1e-9

    def test_ode_residual(self, profile_01):
        assert np.max(np.abs(ode_residual(profile_01))) < 1e-8

    def test_ode_residual_is_the_stencil_truncation_on_a_steep_front(self):
        # fig2's condition-fails point: the sup defect is the seven-point
        # stencil's O(dx^6) truncation (2^6 = 64 per halving), not a profile
        # defect
        sups = [np.max(np.abs(ode_residual(profile_from_quadrature(0.85, 0.15, dx=dx))))
                for dx in (0.04, 0.02, 0.01)]
        assert sups[0] >= 40.0 * sups[1] and sups[1] >= 40.0 * sups[2]

    def test_tail_rate(self):
        p = profile_from_quadrature(0.25, 0.25)
        assert decay_rate(p) == pytest.approx(-0.5, rel=0.01)

    def test_left_tail_rate_by_symmetry(self):
        p = profile_from_quadrature(0.25, 0.25)
        assert decay_rate(p, side="left") == pytest.approx(0.5, rel=0.01)

    def test_logistic_limit(self):
        # Oracle: u' = -sqrt(S) u (1 - u) solved by the logistic front.
        S, r = 1e-3, 0.5
        p = profile_from_quadrature(S, r, x_max=400.0, dx=0.5)
        ref = 0.5 - 0.5 * np.tanh(math.sqrt(S) * p.x / 2.0)
        assert np.max(np.abs(p.u - ref)) < 5e-3

    def test_slope_law_is_exact_by_construction(self, profile_01):
        assert slope_law_defect(profile_01) < 1e-14

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            profile_from_quadrature(-0.1, 0.1)
        with pytest.raises(ValueError):
            profile_from_quadrature(0.1, 0.0)


def _scalar_slope(u, S, r):
    """-sqrt(P(u)) on Python floats, bit for bit as the profile's vector slope."""
    y = (4.0 * S / r) * (u - u * u)
    e = _taylor_g(y) * y * y if abs(y) < 0.3 else float(np.expm1(y)) - y
    return -math.sqrt(max((r * r / (8.0 * S)) * e, 0.0))


def _reference_half(x_half, end, S, r, cutoff=1e-10):
    """Heights at x_half (all on the side of 0 where ``end`` lies) by the
    earlier route: u' = -sqrt(P(u)) integrated out of u(0) = 1/2 by DOP853
    at rtol 1e-13, handing over to the matched exponential tail within
    ``cutoff`` of the limit state."""
    direction = 1.0 if end > 0 else -1.0
    limit = 0.5 - 0.5 * direction
    level = limit + direction * cutoff

    def handover(_x, y):
        return direction * (y[0] - level)

    handover.terminal = True
    sol = solve_ivp(
        lambda _x, y: [_scalar_slope(float(y[0]), S, r)], (0.0, end), [0.5],
        events=handover, method="DOP853", dense_output=True, rtol=1e-13,
        atol=1e-16, max_step=0.25 / np.sqrt(S),
    )
    x_stop = sol.t[-1]
    inside = np.abs(x_half) <= abs(x_stop)
    u = np.empty(x_half.size)
    u[inside] = sol.sol(x_half[inside])[0]
    if not np.all(inside):
        u[~inside] = _exp_tail(x_half[~inside], x_stop, float(sol.sol(x_stop)[0]), S, limit)[0]
    return u, not np.all(inside)


class TestQuadratureMatchesReference:
    """The height-space quadrature reproduces the ODE integration of the slope law."""

    @pytest.mark.parametrize("S,r,x_max,dx", [
        (0.6, 0.25, None, 0.02), (0.85, 0.15, None, 0.02),
        (0.1, 0.1, 60.0, 0.05), (0.1, 0.15, None, 0.05),
        (1e-3, 0.5, 400.0, 0.5),
        (2.0, 0.02, None, 0.02), (0.1, 50.0, None, 0.02),
        (0.1, 0.1, 80.0, 0.1),  # the reference hands over to its exponential tail
    ])
    def test_heights_match_the_ode_integration(self, S, r, x_max, dx):
        p = profile_from_quadrature(S, r, x_max=x_max, dx=dx)
        half = p.x.size // 2
        left, _ = _reference_half(p.x[:half], p.x[0], S, r)
        right, tail = _reference_half(p.x[half:], p.x[-1], S, r)
        assert np.max(np.abs(p.u - np.concatenate((left, right)))) <= 1e-11
        if (S, r, x_max) == (0.1, 0.1, 80.0):
            assert tail

    @pytest.mark.parametrize("x_max, dx", [(60.0, 0.05), (None, 0.02), (800.0, 0.5)])
    def test_nodes_are_the_simulator_grid(self, x_max, dx):
        # one layout: the profile's nodes and spacing are those of the grid a
        # simulator builds for the same half-width and dx, bit for bit
        p = profile_from_quadrature(0.1, 0.1, x_max=x_max, dx=dx)
        grid = Grid1D.symmetric(p.x[-1], dx)
        assert np.array_equal(p.x, grid.x) and np.array_equal(p.grid.x, p.x)
        assert p.grid == grid and p.dx == grid.dx == dx

    def test_deep_tails_and_exact_center(self):
        # theta reaches ~369 here, past where cosh(theta) and e^{2 theta} overflow;
        # the suite's filterwarnings = error fails the test on any RuntimeWarning
        p = profile_from_quadrature(0.85, 0.15, x_max=800.0, dx=0.5)
        center = p.x.size // 2
        assert p.x[center] == 0.0
        assert p.u[center] == 0.5
        assert np.all((p.u >= 0.0) & (p.u <= 1.0))
        assert np.all(np.diff(p.u) <= 0.0)
        assert p.u[0] == 1.0 and p.u[-1] < 1e-300

    def test_newton_terminates_at_large_coupling(self, monkeypatch):
        # S/r = 100: the steepest front of the suite still converges in 10 steps
        monkeypatch.setattr(standing, "_NEWTON_MAX", 10)
        p = profile_from_quadrature(2.0, 0.02)
        assert np.all(np.diff(p.u) <= 0.0)

    def test_newton_out_of_steps_raises(self, monkeypatch):
        monkeypatch.setattr(standing, "_NEWTON_MAX", 1)
        with pytest.raises(ConvergenceError):
            profile_from_quadrature(0.1, 0.1)


class TestShootingProfile:
    def test_orbit_reaches_the_midline(self, shot_01):
        center = shot_01.x.size // 2
        assert shot_01.u[center] == 0.5
        assert shot_01.du[center] < 0.0  # touches x = 1/2 at negative slope

    def test_cross_method_agreement(self, profile_01, shot_01):
        assert np.max(np.abs(profile_01.u - shot_01.u)) < 1e-6

    def test_slope_law_holds_along_the_orbit(self, shot_01):
        # The first integral is conserved by the phase flow, so this is a
        # genuine accuracy check for the shot (not a construction identity).
        assert slope_law_defect(shot_01) < 1e-8

    def test_condition_violated_regime_still_constructs(self):
        p = profile_from_shooting(profile_from_quadrature(0.85, 0.15))
        assert not p.condition_ok
        assert np.all(np.diff(p.u) < 0.0)
        assert symmetry_defect(p) < 1e-8

    def test_condition_flag_set_inside_regime(self, shot_01):
        assert shot_01.condition_ok

    def test_escape_guard_reports_state(self):
        # Extreme coupling drives the orbit below the guard before u = 1/2.
        with pytest.raises(NoHeteroclinicError) as err:
            profile_from_shooting(profile_from_quadrature(2.0, 0.02))
        assert len(err.value.diagnostics["escape_state"]) == 2


@pytest.fixture
def shots(monkeypatch):
    """The solutions `profile_from_shooting` gets from `solve_ivp`, in call order."""
    sols = []

    def capture(*args, **kwargs):
        sols.append(solve_ivp(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(standing, "solve_ivp", capture)
    return sols


class TestHalfOrbitShot:
    """The shot climbs from the saddle to u = 1/2 and mirrors the climb."""

    @pytest.mark.parametrize("S,r", [(0.6, 0.25), (0.85, 0.15)])  # fig2's two regimes
    def test_climb_ends_at_the_midline_and_matches_the_quadrature(self, shots, S, r):
        quad = profile_from_quadrature(S, r)
        shot = profile_from_shooting(quad)
        (sol,) = shots
        assert sol.status == 1 and sol.t[-1] == sol.t_events[0][0]  # stopped by the crossing
        assert sol.y[0, -1] == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(shot.u - quad.u)) < 1e-11

    def test_nodes_left_of_the_start_follow_the_linear_manifold(self, shots):
        S = 0.1
        shot = profile_from_shooting(profile_from_quadrature(S, 0.1, x_max=80.0, dx=0.05))
        t = shot.x + shots[0].t_events[0][0]  # the shot's own abscissa
        tail = t < 0.0
        assert 100 < np.count_nonzero(tail) < shot.x.size // 2
        # 1 - u = delta e^{sqrt(S) t} and du = -sqrt(S) (1 - u), to the
        # rounding of u near 1 and of 1 - delta
        gap = standing.SHOOTING_DELTA * np.exp(math.sqrt(S) * t[tail])
        assert np.max(np.abs(shot.u[tail] - (1.0 - gap))) <= 2.0**-52
        assert np.allclose(shot.du[tail], -math.sqrt(S) * gap, rtol=1e-7, atol=0.0)
        # the mirror carries the tail to the right edge
        assert np.array_equal(shot.u[::-1][tail], 1.0 - shot.u[tail])
        assert np.array_equal(shot.du[::-1], shot.du)

    def test_domain_shorter_than_the_climb(self, shots):
        p = profile_from_shooting(profile_from_quadrature(0.1, 0.1, x_max=30.0, dx=0.05))
        assert p.x[0] + shots[0].t_events[0][0] > 0.0  # every node is on the climb
        assert np.all(np.diff(p.u) < 0.0)
        assert symmetry_defect(p) < 1e-8
        assert slope_law_defect(p) < 1e-8


class TestDecayRateEdges:
    def test_exact_exponential_input(self):
        S = 0.2
        grid = Grid1D.symmetric(30.0, 0.05)
        x = grid.x
        u = np.exp(-math.sqrt(S) * x) / (1.0 + np.exp(-2.0 * math.sqrt(S) * x))
        # values only matter on the fitted quarter; build a WaveProfile shell
        u = np.clip(u, 0.0, 1.0)
        prof = WaveProfile(grid=grid, u=u, du=np.gradient(u, 0.05), S=S, r=0.25,
                           method="quadrature")
        assert decay_rate(prof) == pytest.approx(-math.sqrt(S), rel=1e-3)

    @pytest.mark.parametrize("S,r,x_max,dx", [(0.1, 0.1, 300.0, 0.05),
                                              (0.85, 0.15, 800.0, 0.5)])
    def test_underflowed_left_tail_raises(self, S, r, x_max, dx):
        # 1 - u rounds to 0 over the outer quarter once x_max > ~36/sqrt(S)
        prof = profile_from_quadrature(S, r, x_max=x_max, dx=dx)
        with pytest.raises(ClinewaveError, match="left tail underflowed"):
            decay_rate(prof, side="left")
        assert decay_rate(prof) == pytest.approx(-math.sqrt(S), rel=1e-2)

    def test_insufficient_tail_raises(self):
        grid = Grid1D.symmetric(2.0, 0.1)
        u = 0.5 - 0.2 * np.tanh(grid.x)
        prof = WaveProfile(grid=grid, u=u, du=np.gradient(u, 0.1), S=0.1, r=0.1,
                           method="quadrature")
        with pytest.raises(ClinewaveError):
            decay_rate(prof)
