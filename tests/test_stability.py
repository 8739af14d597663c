"""Unit tests for the linearized-operator spectra and relaxation dynamics."""

import math

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.optimize import minimize_scalar

from clinewave import pde, stability
from clinewave.errors import ConvergenceError, FieldInvariantError
from clinewave.genetics import reduced_reaction
from clinewave.pde import Grid1D, SimConfig, front_position_values, simulate_reduced
from clinewave.stability import (
    SETTLE_TOL,
    RelaxationResult,
    adjoint_kernel_residual,
    assemble_L,
    assemble_M,
    kernel_mode_residual,
    perturbation_projection,
    relaxation_shift,
    second_kernel_growth_rate,
    second_kernel_solution,
    similarity_defect,
    similarity_weight,
    solvability_ratio,
    spectrum,
)
from clinewave.speed import c1_exact
from clinewave.standing import exp_tail_extension, profile_from_quadrature

S, R = 0.1, 0.1


def _sparse(op):
    """Sparse matrix of a tridiagonal operator, built from its bands."""
    return sps.diags([op.lower, op.diag, op.upper], offsets=[-1, 0, 1]).tocsr()


@pytest.fixture(scope="module")
def u0():
    return profile_from_quadrature(S, R, x_max=60.0, dx=0.05)


@pytest.fixture(scope="module")
def op_L(u0):
    return assemble_L(u0)


@pytest.fixture(scope="module")
def op_M(u0):
    return assemble_M(u0)


class TestAssembly:
    def test_M_is_symmetric_by_construction(self, op_M):
        M = _sparse(op_M)
        assert abs(M - M.T).max() < 1e-12

    def test_boundary_row_diagonal_approaches_limit(self, op_M, u0):
        # c(x) -> -S in the tails, so edge diagonals approach -S - 2/dx^2.
        expected = -S - 2.0 / u0.dx**2
        assert op_M.diag[0] == pytest.approx(expected, rel=1e-6)
        assert op_M.diag[-1] == pytest.approx(expected, rel=1e-6)

    def test_similarity_with_the_weight(self, u0):
        assert similarity_defect(u0) < 1e-4

    def test_translation_mode_in_kernel(self, op_L, u0):
        # L applied to the discretized slope: O(dx^2) residual.
        assert kernel_mode_residual(op_L, u0) < 1e-3

    def test_coarse_grid_rejected(self):
        coarse = profile_from_quadrature(S, R, x_max=30.0, dx=0.5)
        with pytest.raises(ValueError):
            assemble_L(coarse)

    def test_transpose_swaps_bands(self, op_L, u0):
        probe = np.sin(u0.x[1:-1])
        expected = _sparse(op_L).T @ probe
        # same products, summed in another order
        np.testing.assert_allclose(op_L.apply_transpose(probe), expected,
                                   rtol=0.0, atol=1e-12 * np.abs(expected).max())


class TestSpectrum:
    def test_leading_eigenpair_is_translation_mode(self, op_L, u0):
        vals, vecs = spectrum(op_L, k=6)
        assert abs(vals[0]) < 1e-3
        du = u0.du[1:-1]
        cosine = abs(np.dot(vecs[:, 0], du)) / (
            np.linalg.norm(vecs[:, 0]) * np.linalg.norm(du))
        assert cosine > 0.999

    def test_no_positive_eigenvalues(self, op_L):
        vals, _ = spectrum(op_L, k=8)
        assert np.all(vals <= 1e-3)

    def test_spectral_gap(self, op_L):
        vals, _ = spectrum(op_L, k=2)
        assert vals[1] < -0.01

    def test_L_and_M_spectra_agree(self, op_L, op_M):
        vals_L, _ = spectrum(op_L, k=6)
        vals_M, _ = spectrum(op_M, k=6)
        assert np.max(np.abs(vals_L - vals_M)) < 1e-6

    def test_two_discrete_modes_above_the_essential_cluster(self, op_M):
        # Structure of the truncated spectrum: the kernel mode near 0,
        # one isolated eigenvalue in (-S, 0), and a dense cluster just
        # below -S standing in for the essential spectrum.
        vals, _ = spectrum(op_M, k=40)
        above = vals[vals > -S + 5e-3]
        assert above.size == 2
        assert abs(above[0]) < 1e-3
        cluster = vals[vals <= -S + 5e-3]
        assert cluster.size == 38
        # dense: neighbor gaps in the cluster font are tiny compared to S
        assert np.max(np.abs(np.diff(cluster[:10]))) < 0.2 * S

    def test_M_eigenvector_maps_to_L_eigenvector_through_weight(self, op_L, op_M, u0):
        vals_M, vecs_M = spectrum(op_M, k=1)
        w = similarity_weight(u0)
        mapped = vecs_M[:, 0] / w
        mapped /= np.linalg.norm(mapped)
        residual = op_L.apply(mapped) - vals_M[0] * mapped
        assert np.max(np.abs(residual)) < 1e-4


class TestAdjointKernel:
    def test_residual_small_at_baseline(self, u0):
        assert adjoint_kernel_residual(u0) < 1e-3

    def test_residual_refines_at_second_order(self):
        # Quartering under each halving of dx; the wide domain keeps the
        # truncated-tail boundary contribution out of the measurement.
        res = {}
        for dx in (0.05, 0.025, 0.0125):
            prof = profile_from_quadrature(S, R, x_max=80.0, dx=dx)
            res[dx] = adjoint_kernel_residual(prof)
        assert res[0.05] / res[0.025] == pytest.approx(4.0, rel=0.2)
        assert res[0.025] / res[0.0125] == pytest.approx(4.0, rel=0.2)

    def test_unweighted_slope_is_not_in_the_adjoint_kernel(self):
        # Negative control: residual refuses to vanish under refinement.
        res = {}
        for dx in (0.05, 0.025):
            prof = profile_from_quadrature(S, R, x_max=80.0, dx=dx)
            du = prof.du[1:-1]
            res[dx] = np.linalg.norm(assemble_L(prof).apply_transpose(du)) / np.linalg.norm(du)
        assert res[0.05] > 1e-2
        assert res[0.025] > 1e-2

    def test_solvability_identity_reproduces_speed_coefficient(self, u0):
        assert solvability_ratio(u0) == pytest.approx(
            c1_exact(S, R), rel=1e-6
        )


class TestSecondKernelSolution:
    def test_growth_rate_is_sqrt_S(self, u0):
        rate = second_kernel_growth_rate(u0)
        assert rate == pytest.approx(math.sqrt(S), rel=0.02)

    def test_vanishes_at_origin_and_grows_outward(self, u0):
        v0 = second_kernel_solution(u0)
        center = u0.x.size // 2
        assert v0[center] == 0.0
        assert abs(v0[-1]) > 1e3 * np.abs(v0[center + 1 : center + 50]).max()


class TestRelaxation:
    def test_translation_perturbation_shifts_by_minus_eps(self, u0):
        res = relaxation_shift(u0, u0.du, 0.02)
        assert res.shift_per_eps == pytest.approx(-1.0, abs=0.02)
        assert res.predicted_shift / 0.02 == pytest.approx(-1.0, rel=1e-6)

    def test_odd_perturbation_produces_no_shift(self, u0):
        h = u0.x * np.exp(-(u0.x**2))
        raw, _ = perturbation_projection(u0, h)
        assert abs(raw) < 1e-14
        res = relaxation_shift(u0, h, 0.02)
        assert abs(res.measured_shift) < 1e-3

    def test_shift_scales_linearly_and_matches_normalized_projection(self, u0):
        h = np.exp(-(u0.x**2))
        first = relaxation_shift(u0, h, 0.01)
        second = relaxation_shift(u0, h, 0.02)
        assert second.measured_shift / first.measured_shift == pytest.approx(2.0, rel=0.05)
        # the normalized projection is the prediction that matches the
        # dynamics; the raw integral misses by the normalization factor
        assert first.measured_shift == pytest.approx(first.predicted_shift, rel=0.01)
        assert abs(first.measured_shift - first.predicted_shift_unnormalized) > \
            10.0 * abs(first.measured_shift - first.predicted_shift)

    def test_amplitude_guard(self, u0):
        # 0 used to divide by zero, NaN to fail the range guard at t = 0
        for eps_amp in (0.0, math.nan, 0.2):
            with pytest.raises(ValueError):
                relaxation_shift(u0, u0.du, eps_amp)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_perturbation_rejected(self, u0, bad):
        h = u0.du.copy()
        h[h.size // 2] = bad
        with pytest.raises(ValueError, match="perturbation"):
            relaxation_shift(u0, h, 0.02)

    def test_nonconvergence_raises(self, u0):
        with pytest.raises(ConvergenceError):
            relaxation_shift(u0, u0.du, 0.02,
                             cfg=SimConfig(dt=0.25, t_end=2.0, record_every=8))


def oracle_relaxation_shift(u0, h, eps_amp, cfg):
    """The one-run route at equal times: the control and the perturbed run
    both go to t_end, then their records are scanned pairwise for the first
    settled one."""
    grid = Grid1D(float(u0.x[0]), float(u0.x[-1]), u0.x.size)
    control = simulate_reduced(u0.u, u0.S, 0.0, u0.r, grid, cfg)
    perturbed = simulate_reduced(u0.u + eps_amp * h, u0.S, 0.0, u0.r, grid, cfg)
    span = max(4.0 * abs(eps_amp), 8.0 * grid.dx)
    for i in range(1, perturbed.times.size):
        settled = control.fields["u_reduced"][i]
        state = perturbed.fields["u_reduced"][i]
        control_at = exp_tail_extension(grid.x, settled, u0.S)
        guess = front_position_values(state, grid.x) - front_position_values(settled, grid.x)
        shift = float(minimize_scalar(
            lambda d: float(np.sum((state - control_at(grid.x - d)) ** 2)),
            bounds=(guess - span, guess + span), method="bounded",
            options={"xatol": 1e-12}).x)
        dist = float(np.max(np.abs(state - control_at(grid.x - shift))))
        if dist < SETTLE_TOL:
            raw, normalized = perturbation_projection(u0, h)
            return RelaxationResult(shift, shift / eps_amp, raw, normalized,
                                    -eps_amp * normalized, -eps_amp * raw, dist,
                                    float(perturbed.times[i]))
    raise AssertionError("oracle did not settle")


class TestRelaxationLegs:
    """The control and the perturbed run are the two rows of one run, which
    stops at the first settled record."""

    # records at t = 20, 40, 60, 75: the even bump settles at 60, the odd
    # one at the end of the short last leg
    CFG = SimConfig(dt=0.25, t_end=75.0, record_every=80)

    @pytest.mark.parametrize("shape, t_settled", [("even", 60.0), ("odd", 75.0)])
    def test_equals_the_one_run_route(self, u0, shape, t_settled):
        bump = np.exp(-(u0.x**2))
        h = bump if shape == "even" else u0.x * bump
        res = relaxation_shift(u0, h, 0.02, self.CFG)
        assert res == oracle_relaxation_shift(u0, h, 0.02, self.CFG)
        assert res.t_settled == t_settled

    def test_legs_stop_at_the_settled_record(self, u0, monkeypatch):
        runs = []

        def recording(*args, **kwargs):
            runs.append(simulate_reduced(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(stability, "simulate_reduced", recording)
        cfg = SimConfig(dt=0.25, t_end=160.0, record_every=80)
        res = relaxation_shift(u0, np.exp(-(u0.x**2)), 0.02, cfg)
        # one two-row run, which stops at the settled record, not at t_end
        assert len(runs) == 1
        assert sorted(runs[0].fields) == ["u_reduced0", "u_reduced1"]
        assert runs[0].times.tolist() == [0.0, 20.0, 40.0, 60.0]
        assert res.t_settled == 60.0

    def test_result_does_not_depend_on_t_end(self, u0):
        # the control is compared at the same time, so t_end is only a cap
        h = np.exp(-(u0.x**2))
        short, long = (relaxation_shift(u0, h, 0.02, SimConfig(0.25, t_end, record_every=80))
                       for t_end in (160.0, 400.0))
        assert short == long

    # the 325th reaction call is the first RK4 stage of step 81: the opening
    # half, one substep per step to 80 and the closing half at its record
    @pytest.mark.parametrize("row", [0, 1], ids=["control", "perturbed"])
    def test_later_leg_failure_carries_absolute_time(self, u0, monkeypatch, row):
        calls = []

        def row_blows_up(u, du, *args):
            calls.append(1)
            out = reduced_reaction(u, du, *args)
            if len(calls) == 325:
                out[row] = math.inf
            return out

        monkeypatch.setattr(pde, "reduced_reaction", row_blows_up)
        cfg = SimConfig(dt=0.25, t_end=160.0, record_every=80)
        with pytest.raises(FieldInvariantError) as info:
            relaxation_shift(u0, np.exp(-(u0.x**2)), 0.02, cfg)
        # the failing step's four stages, then the finiteness check
        assert len(calls) == 328
        assert info.value.t == 20.25
        assert "at t=20.25 " in str(info.value)
        assert not np.isfinite(info.value.snapshot[f"u_reduced{row}"]).all()
        assert np.isfinite(info.value.snapshot[f"u_reduced{1 - row}"]).all()
