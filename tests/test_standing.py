"""Unit tests for the standing-front constructors and their diagnostics."""

import math

import numpy as np
import pytest

from clinewave.errors import ClinewaveError, NoHeteroclinicError
from clinewave.standing import (
    _slope,
    _slope_scalar,
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


class TestScalarSlope:
    """The quadrature ODE's scalar right-hand side equals the vector slope law bit for bit."""

    @pytest.mark.parametrize("S,r", [(0.1, 0.1), (0.6, 0.25), (0.85, 0.15),
                                     (0.02, 0.5), (0.3, 0.5), (0.1, 50.0)])
    def test_bit_identical_to_vector_slope(self, S, r):
        u = [np.linspace(0.0, 1.0, 20001), [0.0, 1.0, 1e-10, 1.0 - 1e-10, 1e-300]]
        k = 4.0 * S / r
        if k / 4.0 >= 0.3:
            # heights where y = k (u - u^2) crosses the 0.3 Taylor/expm1 switch
            root = 0.5 * (1.0 - math.sqrt(1.0 - 1.2 / k))
            edge = np.array([root, 1.0 - root])
            u += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
        u = np.concatenate(u)
        vector = _slope(u, S, r)
        scalar = np.array([_slope_scalar(float(v), S, r) for v in u])
        assert vector.tobytes() == scalar.tobytes()


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
        assert len(err.value.escape_state) == 2


class TestDecayRateEdges:
    def test_exact_exponential_input(self):
        S = 0.2
        x = np.arange(-30.0, 30.0 + 0.05, 0.05)
        u = np.exp(-math.sqrt(S) * x) / (1.0 + np.exp(-2.0 * math.sqrt(S) * x))
        # values only matter on the fitted quarter; build a WaveProfile shell
        u = np.clip(u, 0.0, 1.0)
        prof = WaveProfile(x=x, u=u, du=np.gradient(u, 0.05), S=S, r=0.25,
                           method="quadrature")
        assert decay_rate(prof) == pytest.approx(-math.sqrt(S), rel=1e-3)

    def test_insufficient_tail_raises(self):
        x = np.arange(-2.0, 2.0 + 0.1, 0.1)
        u = 0.5 - 0.2 * np.tanh(x)
        prof = WaveProfile(x=x, u=u, du=np.gradient(u, 0.1), S=0.1, r=0.1,
                           method="quadrature")
        with pytest.raises(ClinewaveError):
            decay_rate(prof)
