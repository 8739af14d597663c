"""Unit tests for the linearized-operator spectra and relaxation dynamics."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from clinewave import pde, stability
from clinewave.errors import ConvergenceError, FieldInvariantError, NewtonDivergenceError
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
from clinewave.speed import c1_exact, solve_traveling_bvp
from clinewave.standing import profile_from_quadrature

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

    def test_similarity_with_the_weight(self, op_L, u0):
        assert similarity_defect(op_L, u0) < 1e-4

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

    @pytest.mark.parametrize("assemble", [assemble_L, assemble_M], ids=["L", "M"])
    @pytest.mark.parametrize("move", [lambda u: u * (1.0 + 1e-14), lambda u: u + 1e-14,
                                      lambda u: u - 1e-14], ids=["scale", "up", "down"])
    def test_rounding_level_profile_change_keeps_every_sign(self, u0, assemble, move):
        # LAPACK's own signs flipped L's mode_1 or mode_5 under the scale and
        # up moves; vectors move by ~1e-13 and the sign rule holds
        _, vecs = spectrum(assemble(u0), k=6)
        _, moved = spectrum(assemble(dataclasses.replace(u0, u=move(u0.u))), k=6)
        assert np.max(np.abs(moved - vecs)) < 1e-9
        for v in (vecs, moved):
            lead = np.argmax(np.abs(v) >= 0.5 * np.abs(v).max(axis=0), axis=0)
            assert np.all(v[lead, np.arange(6)] > 0.0)

    def test_M_eigenvector_maps_to_L_eigenvector_through_weight(self, op_L, op_M, u0):
        vals_M, vecs_M = spectrum(op_M, k=1)
        w = similarity_weight(u0)
        mapped = vecs_M[:, 0] / w
        mapped /= np.linalg.norm(mapped)
        residual = op_L.apply(mapped) - vals_M[0] * mapped
        assert np.max(np.abs(residual)) < 1e-4


class TestAdjointKernel:
    def test_residual_small_at_baseline(self, op_L, u0):
        assert adjoint_kernel_residual(op_L, u0) < 1e-3

    def test_residual_refines_at_second_order(self):
        # Quartering under each halving of dx; the wide domain keeps the
        # truncated-tail boundary contribution out of the measurement.
        res = {}
        for dx in (0.05, 0.025, 0.0125):
            prof = profile_from_quadrature(S, R, x_max=80.0, dx=dx)
            res[dx] = adjoint_kernel_residual(assemble_L(prof), prof)
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
    CFG = SimConfig(dt=0.25, t_end=400.0, record_every=80)

    def test_translation_perturbation_shifts_by_minus_eps(self, u0):
        res = relaxation_shift(u0, u0.du, 0.02, self.CFG)
        assert res.shift_per_eps == pytest.approx(-1.0, abs=0.02)
        assert res.predicted_shift / 0.02 == pytest.approx(-1.0, rel=1e-6)

    def test_odd_perturbation_produces_no_shift(self, u0):
        h = u0.x * np.exp(-(u0.x**2))
        raw, _ = perturbation_projection(u0, h)
        assert abs(raw) < 1e-14
        res = relaxation_shift(u0, h, 0.02, self.CFG)
        assert abs(res.measured_shift) < 1e-3

    def test_shift_scales_linearly_and_matches_normalized_projection(self, u0):
        h = np.exp(-(u0.x**2))
        first = relaxation_shift(u0, h, 0.01, self.CFG)
        second = relaxation_shift(u0, h, 0.02, self.CFG)
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
                relaxation_shift(u0, u0.du, eps_amp, self.CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_perturbation_rejected(self, u0, bad):
        h = u0.du.copy()
        h[h.size // 2] = bad
        with pytest.raises(ValueError, match="perturbation"):
            relaxation_shift(u0, h, 0.02, self.CFG)

    def test_nonconvergence_raises(self, u0):
        with pytest.raises(ConvergenceError):
            relaxation_shift(u0, u0.du, 0.02,
                             cfg=SimConfig(dt=0.25, t_end=2.0, record_every=8))


def oracle_relaxation_shift(u0, h, eps_amp, cfg):
    """The two-run route at equal times: an unperturbed control and the
    perturbed front both run from u0 to t_end, then their records are scanned
    pairwise for the first settled one."""
    grid = Grid1D(float(u0.x[0]), float(u0.x[-1]), u0.x.size)
    control = simulate_reduced(u0.u, u0.S, 0.0, u0.r, grid, cfg)
    perturbed = simulate_reduced(u0.u + eps_amp * h, u0.S, 0.0, u0.r, grid, cfg)
    span = max(4.0 * abs(eps_amp), 8.0 * grid.dx)
    for i in range(1, perturbed.times.size):
        settled = control.fields["u_reduced"][i]
        state = perturbed.fields["u_reduced"][i]
        control_at = CubicSpline(grid.x, settled)
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


def _recording_runs(monkeypatch):
    """The `simulate_reduced` runs that `relaxation_shift` makes, in order."""
    runs = []

    def recording(*args, **kwargs):
        runs.append(simulate_reduced(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(stability, "simulate_reduced", recording)
    return runs


class TestRelaxationRun:
    """The perturbed front is one run from the eps = 0 BVP front, the discrete
    standing front, which stops at the first settled record."""

    # records at t = 20, 40, 60, 75: the even bump settles at 60, the odd
    # one at t_end = 75, the record every run takes at its last step
    CFG = SimConfig(dt=0.25, t_end=75.0, record_every=80)

    @pytest.mark.parametrize("shape, t_settled", [("even", 60.0), ("odd", 75.0)])
    def test_equals_the_one_run_route(self, u0, shape, t_settled, monkeypatch):
        bump = np.exp(-(u0.x**2))
        h = bump if shape == "even" else u0.x * bump
        oracle = oracle_relaxation_shift(u0, h, 0.02, self.CFG)
        runs = _recording_runs(monkeypatch)
        res = relaxation_shift(u0, h, 0.02, self.CFG)
        # one run, started on the BVP front, not on u0
        _, front = solve_traveling_bvp(u0.S, u0.r, 0.0, u0)
        assert [list(run.fields) for run in runs] == [["u_reduced"]]
        assert np.array_equal(runs[0].fields["u_reduced"][0], front.u + 0.02 * h)
        assert res.t_settled == oracle.t_settled == t_settled
        # the two routes differ by the control's O(dx^2) transient, which the
        # odd bump's zero shift does not see
        if shape == "even":
            assert res.measured_shift == pytest.approx(oracle.measured_shift, rel=1e-5)
        else:
            assert res.measured_shift == pytest.approx(oracle.measured_shift, abs=1e-9)
        assert (res.projection, res.projection_normalized) == \
            (oracle.projection, oracle.projection_normalized)

    def test_run_stops_at_the_settled_record(self, u0, monkeypatch):
        runs = _recording_runs(monkeypatch)
        cfg = SimConfig(dt=0.25, t_end=160.0, record_every=80)
        res = relaxation_shift(u0, np.exp(-(u0.x**2)), 0.02, cfg)
        # one one-row run, which stops at the settled record, not at t_end
        assert len(runs) == 1
        assert list(runs[0].fields) == ["u_reduced"]
        assert runs[0].times.tolist() == [0.0, 20.0, 40.0, 60.0]
        assert res.t_settled == 60.0

    def test_result_does_not_depend_on_t_end(self, u0):
        # the front compared with does not move, so t_end is only a cap
        h = np.exp(-(u0.x**2))
        short, long = (relaxation_shift(u0, h, 0.02, SimConfig(0.25, t_end, record_every=80))
                       for t_end in (160.0, 400.0))
        assert short == long

    # the 81st reaction call is f(u_80), the one call of step 81: one call per
    # step, each evaluating the state the step starts from
    def test_failure_past_the_first_record_carries_its_time(self, u0, monkeypatch):
        calls = []

        def blows_up(u, du, *args):
            calls.append(1)
            out = reduced_reaction(u, du, *args)
            if len(calls) == 81:
                out[0] = math.inf
            return out

        monkeypatch.setattr(pde, "reduced_reaction", blows_up)
        cfg = SimConfig(dt=0.25, t_end=160.0, record_every=80)
        with pytest.raises(FieldInvariantError) as info:
            relaxation_shift(u0, np.exp(-(u0.x**2)), 0.02, cfg)
        # the failing step's call, then the finiteness check
        assert len(calls) == 81
        assert info.value.diagnostics["t"] == 20.25
        assert "at t=20.25 " in str(info.value)
        snapshot = info.value.diagnostics["snapshot"]
        assert list(snapshot) == ["u_reduced"]
        assert not np.isfinite(snapshot["u_reduced"]).all()

    def test_bvp_front_rests_under_the_reduced_run(self, u0):
        # the control run from u0 only walked through this gap: u0 moves by
        # about 3e-6 over t = 160, the BVP front by about 8e-9, since its edge
        # rows are pinned where the run's are no-flux
        c, front = solve_traveling_bvp(u0.S, u0.r, 0.0, u0)
        assert abs(c) < 1e-12
        cfg = SimConfig(dt=0.25, t_end=160.0, record_every=640)
        moved = {name: np.max(np.abs(simulate_reduced(start, u0.S, 0.0, u0.r, u0.grid, cfg)
                                      .fields["u_reduced"][-1] - start))
                 for name, start in (("u0", u0.u), ("front", front.u))}
        assert moved["front"] < 1e-7 < 1e-6 < moved["u0"]

    def test_diverging_front_newton_raises_before_any_step(self, monkeypatch):
        # at S/r = 10 the eps = 0 Newton diverges from the quadrature profile;
        # the control run from it once blew up instead (t = 0.32 at dt = 0.02)
        stiff = profile_from_quadrature(0.5, 0.05, dx=0.05)
        runs = _recording_runs(monkeypatch)
        with pytest.raises(NewtonDivergenceError):
            relaxation_shift(stiff, np.exp(-(stiff.x**2)), 0.02, SimConfig(0.02, 2.0))
        assert runs == []
