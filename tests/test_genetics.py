"""Unit tests for the exact gamete recursion and its weak-selection limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinewave.errors import InfeasibleStateError
from clinewave.genetics import (
    FitnessParams,
    GameteFreqs,
    PQD,
    _recursion_numerators,
    from_pqd,
    mean_fitness,
    recursion_step_exact,
    recursion_step_first_order,
    to_pqd,
)

FP = FitnessParams(sA=0.01, sB=0.02, SA=0.1, SB=0.15, r=0.2, sigma2=2.0)


def oracle_mean_fitness(g: GameteFreqs, fp: FitnessParams) -> float:
    """Independent oracle: enumerate all sixteen ordered genotype pairs.

    Builds each pair's fitness from the per-locus genotype tables and
    multiplies, instead of using the hand-expanded quadratic form.
    """
    freqs = {"AB": g.u, "Ab": g.v, "aB": g.w, "ab": g.z}

    def locus_fitness(alleles, upper, s, S):
        count = sum(1 for a in alleles if a == upper)
        return {2: 1.0 + 2.0 * s, 1: 1.0 + s - S, 0: 1.0}[count]

    total = 0.0
    for gam1, y1 in freqs.items():
        for gam2, y2 in freqs.items():
            wA = locus_fitness((gam1[0], gam2[0]), "A", fp.sA, fp.SA)
            wB = locus_fitness((gam1[1], gam2[1]), "B", fp.sB, fp.SB)
            total += y1 * y2 * wA * wB
    return total


def oracle_numerators(g: GameteFreqs, fp: FitnessParams) -> list[float]:
    """Independent oracle: each of the sixteen ordered genotype pairs
    passes on its two parental gametes with probability (1 - r) / 2 each
    and its two recombinants with r / 2 each, weighted by its fitness.

    Recombination changes the gametes only in the double heterozygote;
    elsewhere the recombinants equal the parental gametes.
    """
    names = ["AB", "Ab", "aB", "ab"]
    freqs = dict(zip(names, (g.u, g.v, g.w, g.z)))

    def locus_fitness(alleles, upper, s, S):
        count = sum(1 for a in alleles if a == upper)
        return {2: 1.0 + 2.0 * s, 1: 1.0 + s - S, 0: 1.0}[count]

    nums = dict.fromkeys(names, 0.0)
    for gam1, y1 in freqs.items():
        for gam2, y2 in freqs.items():
            wA = locus_fitness((gam1[0], gam2[0]), "A", fp.sA, fp.SA)
            wB = locus_fitness((gam1[1], gam2[1]), "B", fp.sB, fp.SB)
            weight = y1 * y2 * wA * wB
            for gamete, prob in ((gam1, (1.0 - fp.r) / 2.0), (gam2, (1.0 - fp.r) / 2.0),
                                 (gam1[0] + gam2[1], fp.r / 2.0),
                                 (gam2[0] + gam1[1], fp.r / 2.0)):
                nums[gamete] += weight * prob
    return [nums[name] for name in names]


def random_gametes(rng, n):
    """Dirichlet-uniform sample of valid gamete frequency states."""
    raw = rng.dirichlet(np.ones(4), size=n)
    return [GameteFreqs(*row) for row in raw]


class TestMeanFitness:
    def test_monomorphic_ab_gamete(self):
        fp = FitnessParams(sA=0.1, sB=0.1, SA=0.2, SB=0.2, r=0.1)
        g = GameteFreqs(1.0, 0.0, 0.0, 0.0)
        assert mean_fitness(g, fp) == pytest.approx(1.44, abs=1e-15)

    def test_baseline_genotype(self):
        g = GameteFreqs(0.0, 0.0, 0.0, 1.0)
        assert mean_fitness(g, FP) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_state_against_enumeration_oracle(self):
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.2)
        g = GameteFreqs(0.25, 0.25, 0.25, 0.25)
        expected = oracle_mean_fitness(g, fp)
        # independent loci at these frequencies: (1 - SA/2)(1 - SB/2)
        assert expected == pytest.approx(0.95 * 0.95, abs=1e-15)
        assert mean_fitness(g, fp) == pytest.approx(expected, rel=1e-14)

    def test_random_states_against_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for g in random_gametes(rng, 50):
            assert mean_fitness(g, FP) == pytest.approx(
                oracle_mean_fitness(g, FP), rel=1e-13
            )


class TestExactRecursion:
    def test_monomorphic_fixed_point(self):
        g = GameteFreqs(1.0, 0.0, 0.0, 0.0)
        out = recursion_step_exact(g, FP)
        assert out.u == pytest.approx(1.0, abs=1e-15)

    def test_numerators_against_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        for g in random_gametes(rng, 100):
            nums = _recursion_numerators(g.u, g.v, g.w, g.z, FP)
            for got, expected in zip(nums, oracle_numerators(g, FP)):
                assert got == pytest.approx(expected, rel=1e-13)

    def test_numerators_sum_to_mean_fitness(self):
        rng = np.random.default_rng(11)
        for g in random_gametes(rng, 100):
            nums = _recursion_numerators(g.u, g.v, g.w, g.z, FP)
            assert sum(nums) == pytest.approx(oracle_mean_fitness(g, FP), rel=1e-14)

    def test_no_selection_linkage_equilibrium_is_preserved(self):
        # With D = 0 and selection off, recombination has nothing to undo.
        fp = FitnessParams(sA=0.0, sB=0.0, SA=1e-30, SB=1e-30, r=0.3)
        for (p, q) in [(0.3, 0.7), (0.5, 0.5), (0.9, 0.2)]:
            g = from_pqd(PQD(p, q, 0.0))
            out = recursion_step_exact(g, fp)
            assert to_pqd(out).D == pytest.approx(0.0, abs=1e-15)

    def test_relabeling_symmetry(self):
        # Swapping (u<->z, v<->w) relabels A<->a and B<->b; without
        # directional selection the step commutes with the relabeling.
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.15, r=0.2)
        g = GameteFreqs(0.4, 0.3, 0.2, 0.1)
        swapped = GameteFreqs(g.z, g.w, g.v, g.u)
        out = recursion_step_exact(g, fp)
        out_swapped = recursion_step_exact(swapped, fp)
        assert out_swapped.u == pytest.approx(out.z, rel=1e-14)
        assert out_swapped.v == pytest.approx(out.w, rel=1e-14)
        assert out_swapped.w == pytest.approx(out.v, rel=1e-14)
        assert out_swapped.z == pytest.approx(out.u, rel=1e-14)

    @given(
        raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_simplex_maps_into_itself(self, raw, seed):
        total = sum(raw)
        g = GameteFreqs(*(val / total for val in raw))
        out = recursion_step_exact(g, FP)
        vec = out.as_array()
        assert np.all(vec >= 0.0)
        assert np.all(vec <= 1.0)
        assert vec.sum() == pytest.approx(1.0, abs=1e-14)


class TestFirstOrderRecursion:
    def test_central_fixed_point(self):
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.2)
        out = recursion_step_first_order(PQD(0.5, 0.5, 0.0), fp, 1e-2)
        assert (out.p, out.q, out.D) == (0.5, 0.5, 0.0)

    def test_zero_disequilibrium_decouples(self):
        out = recursion_step_first_order(PQD(0.3, 0.8, 0.0), FP, 1e-2)
        assert out.D == 0.0
        # p update must not depend on q when D = 0
        out2 = recursion_step_first_order(PQD(0.3, 0.2, 0.0), FP, 1e-2)
        assert out.p == out2.p

    @pytest.mark.parametrize("state", [PQD(0.3, 0.7, 0.05), PQD(0.6, 0.4, -0.08)])
    def test_matches_scaled_exact_step_to_second_order(self, state):
        # Oracle: the exact recursion with all coefficients scaled by alpha.
        errors = {}
        for alpha in (1e-2, 1e-3):
            exact = to_pqd(recursion_step_exact(from_pqd(state), FP.scaled(alpha)))
            approx = recursion_step_first_order(state, FP, alpha)
            errors[alpha] = max(
                abs(exact.p - approx.p), abs(exact.q - approx.q), abs(exact.D - approx.D)
            )
        ratio = errors[1e-2] / errors[1e-3]
        assert ratio == pytest.approx(100.0, rel=0.15)

    def test_quadratic_error_slope_on_log_log_fit(self):
        state = PQD(0.35, 0.65, 0.06)
        alphas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        errs = []
        for alpha in alphas:
            exact = to_pqd(recursion_step_exact(from_pqd(state), FP.scaled(alpha)))
            approx = recursion_step_first_order(state, FP, alpha)
            errs.append(max(abs(exact.p - approx.p), abs(exact.q - approx.q),
                            abs(exact.D - approx.D)))
        slope = np.polyfit(np.log(alphas), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestChangeOfVariables:
    def test_uniform_state(self):
        s = to_pqd(GameteFreqs(0.25, 0.25, 0.25, 0.25))
        assert (s.p, s.q, s.D) == (0.5, 0.5, 0.0)

    def test_maximal_disequilibrium_corner(self):
        s = to_pqd(GameteFreqs(0.5, 0.0, 0.0, 0.5))
        assert (s.p, s.q, s.D) == (0.5, 0.5, 0.25)

    def test_roundtrip_on_random_states(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for g in random_gametes(rng, 1000):
            back = from_pqd(to_pqd(g))
            worst = max(worst, abs(back.u - g.u), abs(back.v - g.v),
                        abs(back.w - g.w), abs(back.z - g.z))
        assert worst < 1e-14

    def test_d_equals_u_minus_pq(self):
        rng = np.random.default_rng(5)
        for g in random_gametes(rng, 200):
            s = to_pqd(g)
            assert s.D == pytest.approx(g.u - s.p * s.q, abs=1e-15)

    def test_infeasible_state_rejected(self):
        with pytest.raises(InfeasibleStateError):
            from_pqd(PQD(0.9, 0.9, -0.2))  # u = 0.61, v = -0.11

    def test_boundary_noise_is_clamped(self):
        g = from_pqd(PQD(0.5, 0.5, 0.25))  # v, w exactly 0
        assert g.v == 0.0 and g.w == 0.0

    def test_disequilibrium_bound_on_simplex_grid(self):
        # |uz - vw| <= 1/4 on an exhaustive grid at resolution 0.05.
        step = 0.05
        vals = np.arange(0.0, 1.0 + step / 2, step)
        worst = 0.0
        for u in vals:
            for v in vals:
                if u + v > 1.0 + 1e-12:
                    break
                for w in vals:
                    z = 1.0 - u - v - w
                    if z < -1e-12:
                        break
                    worst = max(worst, abs(u * max(z, 0.0) - v * w))
        assert worst <= 0.25 + 1e-12


def test_fitness_params_validation():
    with pytest.raises(ValueError):
        FitnessParams(sA=0.2, sB=0.0, SA=0.1, SB=0.1, r=0.1)
    with pytest.raises(ValueError):
        FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.7)
    with pytest.raises(ValueError):
        FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.1, sigma2=-1.0)


def test_gamete_freqs_validation():
    with pytest.raises(ValueError):
        GameteFreqs(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        PQD(0.5, 0.5, 0.3)
