"""Unit tests for the exact gamete recursion and its weak-selection limit.

States are numpy rows (u, v, w, z), and the maps under test are the array
functions the spatial simulators run: `_step_arrays` (four-gamete model)
and `pqd_reaction` ((p, q, D) model).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinewave.genetics import (
    FitnessParams,
    _recursion_numerators,
    _step_arrays,
    gametes_from_pqd,
    pqd_reaction,
)

FP = FitnessParams(sA=0.01, sB=0.02, SA=0.1, SB=0.15, r=0.2, sigma2=2.0)


def locus_fitness(alleles, upper, s, S):
    count = sum(1 for a in alleles if a == upper)
    return {2: 1.0 + 2.0 * s, 1: 1.0 + s - S, 0: 1.0}[count]


def oracle_mean_fitness(g, fp: FitnessParams) -> float:
    """Independent oracle: enumerate all sixteen ordered genotype pairs.

    Builds each pair's fitness from the per-locus genotype tables and
    multiplies, instead of using the hand-expanded quadratic form.
    """
    freqs = dict(zip(("AB", "Ab", "aB", "ab"), g))
    total = 0.0
    for gam1, y1 in freqs.items():
        for gam2, y2 in freqs.items():
            wA = locus_fitness((gam1[0], gam2[0]), "A", fp.sA, fp.SA)
            wB = locus_fitness((gam1[1], gam2[1]), "B", fp.sB, fp.SB)
            total += y1 * y2 * wA * wB
    return total


def oracle_numerators(g, fp: FitnessParams) -> list[float]:
    """Independent oracle: each of the sixteen ordered genotype pairs
    passes on its two parental gametes with probability (1 - r) / 2 each
    and its two recombinants with r / 2 each, weighted by its fitness.

    Recombination changes the gametes only in the double heterozygote;
    elsewhere the recombinants equal the parental gametes.
    """
    names = ["AB", "Ab", "aB", "ab"]
    freqs = dict(zip(names, g))
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
    """Dirichlet-uniform sample of gamete states, one row (u, v, w, z) each."""
    return rng.dirichlet(np.ones(4), size=n)


def weak_selection_error(state, alpha):
    """Largest (p, q, D) gap after one generation between the exact step
    with every selection coefficient and r scaled by ``alpha`` and the
    first-order step, the state plus ``alpha`` times `pqd_reaction`."""
    fp = replace(FP, sA=FP.sA * alpha, sB=FP.sB * alpha, SA=FP.SA * alpha,
                 SB=FP.SB * alpha, r=FP.r * alpha)
    u, v, w, z = _step_arrays(*gametes_from_pqd(*state), fp)
    exact = (u + v, u + w, u * z - v * w)
    approx = [x + alpha * dx for x, dx in zip(state, pqd_reaction(*state, FP))]
    return max(abs(a - b) for a, b in zip(exact, approx))


class TestMeanFitness:
    # the mean fitness is the sum of the recursion numerators, the w-bar
    # that `_step_arrays` divides by
    def test_monomorphic_ab_gamete(self):
        fp = FitnessParams(sA=0.1, sB=0.1, SA=0.2, SB=0.2, r=0.1)
        assert sum(_recursion_numerators(1.0, 0.0, 0.0, 0.0, fp)) == pytest.approx(
            1.44, abs=1e-15)

    def test_baseline_genotype(self):
        assert sum(_recursion_numerators(0.0, 0.0, 0.0, 1.0, FP)) == pytest.approx(
            1.0, abs=1e-15)

    def test_uniform_state_against_enumeration_oracle(self):
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.2)
        g = np.full(4, 0.25)
        expected = oracle_mean_fitness(g, fp)
        # independent loci at these frequencies: (1 - SA/2)(1 - SB/2)
        assert expected == pytest.approx(0.95 * 0.95, abs=1e-15)
        assert sum(_recursion_numerators(*g, fp)) == pytest.approx(expected, rel=1e-14)

    def test_random_states_against_enumeration_oracle(self):
        states = random_gametes(np.random.default_rng(7), 50)
        wbar = sum(_recursion_numerators(*states.T, FP))
        for g, got in zip(states, wbar):
            assert got == pytest.approx(oracle_mean_fitness(g, FP), rel=1e-13)


class TestExactRecursion:
    def test_monomorphic_fixed_point(self):
        u, _, _, _ = _step_arrays(1.0, 0.0, 0.0, 0.0, FP)
        assert u == pytest.approx(1.0, abs=1e-15)

    def test_numerators_against_enumeration_oracle(self):
        states = random_gametes(np.random.default_rng(13), 100)
        nums = np.column_stack(_recursion_numerators(*states.T, FP))
        for g, row in zip(states, nums):
            for got, expected in zip(row, oracle_numerators(g, FP)):
                assert got == pytest.approx(expected, rel=1e-13)

    def test_numerators_sum_to_mean_fitness(self):
        states = random_gametes(np.random.default_rng(11), 100)
        wbar = sum(_recursion_numerators(*states.T, FP))
        for g, got in zip(states, wbar):
            assert got == pytest.approx(oracle_mean_fitness(g, FP), rel=1e-14)

    def test_no_selection_linkage_equilibrium_is_preserved(self):
        # With D = 0 and selection off, recombination has nothing to undo.
        fp = FitnessParams(sA=0.0, sB=0.0, SA=1e-30, SB=1e-30, r=0.3)
        for (p, q) in [(0.3, 0.7), (0.5, 0.5), (0.9, 0.2)]:
            u, v, w, z = _step_arrays(*gametes_from_pqd(p, q, 0.0), fp)
            assert u * z - v * w == pytest.approx(0.0, abs=1e-15)

    def test_relabeling_symmetry(self):
        # Reversing (u, v, w, z) relabels A<->a and B<->b; without
        # directional selection the step commutes with the relabeling.
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.15, r=0.2)
        g = np.array([0.4, 0.3, 0.2, 0.1])
        out = _step_arrays(*g, fp)
        out_swapped = _step_arrays(*g[::-1], fp)
        for got, expected in zip(out_swapped, out[::-1]):
            assert got == pytest.approx(expected, rel=1e-14)

    @given(
        raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_simplex_maps_into_itself(self, raw, seed):
        g = np.array(raw) / sum(raw)
        vec = np.array(_step_arrays(*g, FP))
        assert np.all(vec >= 0.0)
        assert np.all(vec <= 1.0)
        assert vec.sum() == pytest.approx(1.0, abs=1e-14)


class TestFirstOrderRecursion:
    def test_central_fixed_point(self):
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.2)
        assert pqd_reaction(0.5, 0.5, 0.0, fp) == (0.0, 0.0, 0.0)

    def test_zero_disequilibrium_decouples(self):
        dp, _, dD = pqd_reaction(0.3, 0.8, 0.0, FP)
        assert dD == 0.0
        # the p rate must not depend on q when D = 0
        assert dp == pqd_reaction(0.3, 0.2, 0.0, FP)[0]

    @pytest.mark.parametrize("state", [(0.3, 0.7, 0.05), (0.6, 0.4, -0.08)])
    def test_matches_scaled_exact_step_to_second_order(self, state):
        # Oracle: the exact recursion with all coefficients scaled by alpha.
        ratio = weak_selection_error(state, 1e-2) / weak_selection_error(state, 1e-3)
        assert ratio == pytest.approx(100.0, rel=0.15)

    def test_quadratic_error_slope_on_log_log_fit(self):
        alphas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        errs = [weak_selection_error((0.35, 0.65, 0.06), alpha) for alpha in alphas]
        slope = np.polyfit(np.log(alphas), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestChangeOfVariables:
    def test_uniform_state(self):
        u, v, w, z = np.full(4, 0.25)
        assert (u + v, u + w, u * z - v * w) == (0.5, 0.5, 0.0)

    def test_maximal_disequilibrium_corner(self):
        u, v, w, z = 0.5, 0.0, 0.0, 0.5
        assert (u + v, u + w, u * z - v * w) == (0.5, 0.5, 0.25)

    def test_roundtrip_on_random_states(self):
        u, v, w, z = random_gametes(np.random.default_rng(3), 1000).T
        back = gametes_from_pqd(u + v, u + w, u * z - v * w)
        worst = max(np.max(np.abs(b - g)) for b, g in zip(back, (u, v, w, z)))
        assert worst < 1e-14

    def test_d_equals_u_minus_pq(self):
        for u, v, w, z in random_gametes(np.random.default_rng(5), 200):
            p, q = u + v, u + w
            assert u * z - v * w == pytest.approx(u - p * q, abs=1e-15)

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
