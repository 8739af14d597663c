"""Unit tests for the exact gamete recursion, its weak-selection limit and
the reduced equation's reaction.

States are numpy rows (u, v, w, z), and the maps under test are the array
functions the spatial simulators run: `_step_arrays` with its
`fitness_tensor` (four-gamete model), `pqd_reaction` ((p, q, D) model) and
`reduced_reaction` (reduced scalar model).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinewave.genetics import (
    FitnessParams,
    _step_arrays,
    bistable_f,
    fitness_tensor,
    gametes_from_pqd,
    logistic_g,
    pqd_reaction,
    reduced_reaction,
)

FP = FitnessParams(sA=0.01, sB=0.02, SA=0.1, SB=0.15, r=0.2, sigma2=2.0)


def pqd_rates(p, q, D, fp):
    """`pqd_reaction` at one point of the three-row (p, q, D) state."""
    (dp, dq), dD = pqd_reaction(np.array([[p], [q], [D]], dtype=float),
                                np.array([[fp.SA], [fp.SB]]), np.array([[fp.sA], [fp.sB]]), fp.r)
    return float(dp[0]), float(dq[0]), float(dD[0])


def step(g, fp):
    """`_step_arrays` on gamete rows g = (u, v, w, z), each a scalar or an array."""
    return _step_arrays(np.array(g, dtype=float), fitness_tensor(fp))


def tensor_numerators(g, fp):
    """The numerators `_step_arrays` divides by their sum: T (y_j y_k)."""
    y = np.array(g, dtype=float)
    return fitness_tensor(fp) @ (y[:, None] * y).reshape(16, *y.shape[1:])


def bracket_numerators(u, v, w, z, fp: FitnessParams):
    """Oracle: the recursion's numerators as four hand-expanded brackets.

    Each gamete's numerator is its frequency times the summed fitness of
    the genotypes it forms, plus or minus the recombination flux
    (r het)(v w - u z) out of the double heterozygote, het being its fitness.
    """
    wAA, wAa = 1.0 + 2.0 * fp.sA, 1.0 + fp.sA - fp.SA
    wBB, wBb = 1.0 + 2.0 * fp.sB, 1.0 + fp.sB - fp.SB
    het = wAa * wBb
    flux = (fp.r * het) * (v * w - u * z)
    return (u * (wAA * wBB * u + wAA * wBb * v + wAa * wBB * w + het * z) + flux,
            v * (wAA * wBb * u + wAA * v + het * w + wAa * z) - flux,
            w * (wAa * wBB * u + het * v + wBB * w + wBb * z) - flux,
            z * (het * u + wAa * v + wBb * w + z) + flux)


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
    u, v, w, z = step(gametes_from_pqd(*state), fp)
    exact = (u + v, u + w, u * z - v * w)
    approx = [x + alpha * dx for x, dx in zip(state, pqd_rates(*state, FP))]
    return max(abs(a - b) for a, b in zip(exact, approx))


class TestMeanFitness:
    # the mean fitness is the sum of the recursion numerators, the w-bar
    # that `_step_arrays` divides by
    def test_monomorphic_ab_gamete(self):
        fp = FitnessParams(sA=0.1, sB=0.1, SA=0.2, SB=0.2, r=0.1, sigma2=2.0)
        assert sum(tensor_numerators([1.0, 0.0, 0.0, 0.0], fp)) == pytest.approx(
            1.44, abs=1e-15)

    def test_baseline_genotype(self):
        assert sum(tensor_numerators([0.0, 0.0, 0.0, 1.0], FP)) == pytest.approx(
            1.0, abs=1e-15)

    def test_uniform_state_against_enumeration_oracle(self):
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.2, sigma2=2.0)
        g = np.full(4, 0.25)
        expected = oracle_mean_fitness(g, fp)
        # independent loci at these frequencies: (1 - SA/2)(1 - SB/2)
        assert expected == pytest.approx(0.95 * 0.95, abs=1e-15)
        assert sum(tensor_numerators(g, fp)) == pytest.approx(expected, rel=1e-14)

    def test_random_states_against_enumeration_oracle(self):
        states = random_gametes(np.random.default_rng(7), 50)
        wbar = sum(tensor_numerators(states.T, FP))
        for g, got in zip(states, wbar):
            assert got == pytest.approx(oracle_mean_fitness(g, FP), rel=1e-13)


class TestExactRecursion:
    def test_monomorphic_fixed_point(self):
        u, _, _, _ = step([1.0, 0.0, 0.0, 0.0], FP)
        assert u == pytest.approx(1.0, abs=1e-15)

    def test_numerators_against_enumeration_oracle(self):
        states = random_gametes(np.random.default_rng(13), 100)
        nums = tensor_numerators(states.T, FP).T
        for g, row in zip(states, nums):
            for got, expected in zip(row, oracle_numerators(g, FP)):
                assert got == pytest.approx(expected, rel=1e-13)

    def test_numerators_sum_to_mean_fitness(self):
        states = random_gametes(np.random.default_rng(11), 100)
        wbar = sum(tensor_numerators(states.T, FP))
        for g, got in zip(states, wbar):
            assert got == pytest.approx(oracle_mean_fitness(g, FP), rel=1e-14)

    def test_tensor_matches_the_four_brackets(self):
        states = random_gametes(np.random.default_rng(17), 100).T
        brackets = np.array(bracket_numerators(*states, FP))
        assert np.abs(tensor_numerators(states, FP) - brackets).max() <= 1e-15
        assert np.abs(step(states, FP) - brackets / brackets.sum(axis=0)).max() <= 1e-15

    def test_flux_entries_cancel_in_each_column_sum(self):
        # off the (i, i, .) blocks T holds only the recombination flux, which
        # moves frequency between gametes and so adds nothing to the mean
        T = fitness_tensor(FP).reshape(4, 4, 4)
        flux = T.copy()
        flux[range(4), range(4)] = 0.0
        het = (1.0 + FP.sA - FP.SA) * (1.0 + FP.sB - FP.SB)
        assert np.count_nonzero(flux) == 8
        assert set(np.abs(flux[flux != 0.0])) == {FP.r * het}
        assert np.all(flux.sum(axis=0) == 0.0)

    def test_reversal_permutes_the_tensor_without_directional_selection(self):
        # reversing (u, v, w, z) relabels A<->a and B<->b, which maps gamete
        # i to 3 - i and the pair (j, k) to (3 - j, 3 - k)
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.15, r=0.2, sigma2=2.0)
        for params, symmetric in ((fp, True), (FP, False)):
            T = fitness_tensor(params).reshape(4, 4, 4)
            assert np.array_equal(T[::-1, ::-1, ::-1], T) == symmetric

    def test_no_selection_linkage_equilibrium_is_preserved(self):
        # With D = 0 and selection off, recombination has nothing to undo.
        fp = FitnessParams(sA=0.0, sB=0.0, SA=1e-30, SB=1e-30, r=0.3, sigma2=2.0)
        for (p, q) in [(0.3, 0.7), (0.5, 0.5), (0.9, 0.2)]:
            u, v, w, z = step(gametes_from_pqd(p, q, 0.0), fp)
            assert u * z - v * w == pytest.approx(0.0, abs=1e-15)

    def test_relabeling_symmetry(self):
        # Reversing (u, v, w, z) relabels A<->a and B<->b; without
        # directional selection the step commutes with the relabeling.
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.15, r=0.2, sigma2=2.0)
        g = np.array([0.4, 0.3, 0.2, 0.1])
        out = step(g, fp)
        out_swapped = step(g[::-1], fp)
        for got, expected in zip(out_swapped, out[::-1]):
            assert got == pytest.approx(expected, rel=1e-14)

    @given(
        raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_simplex_maps_into_itself(self, raw, seed):
        g = np.array(raw) / sum(raw)
        vec = step(g, FP)
        assert np.all(vec >= 0.0)
        assert np.all(vec <= 1.0)
        assert vec.sum() == pytest.approx(1.0, abs=1e-14)


class TestFirstOrderRecursion:
    def test_central_fixed_point(self):
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.2, sigma2=2.0)
        assert pqd_rates(0.5, 0.5, 0.0, fp) == (0.0, 0.0, 0.0)

    def test_zero_disequilibrium_decouples(self):
        dp, _, dD = pqd_rates(0.3, 0.8, 0.0, FP)
        assert dD == 0.0
        # the p rate must not depend on q when D = 0
        assert dp == pqd_rates(0.3, 0.2, 0.0, FP)[0]

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


ULP = np.finfo(float).eps


def reduced_terms(u, du, S, r, eps):
    """Oracle: the reduced reaction's three terms, summed term by term by the caller."""
    return (S * bistable_f(u), eps * logistic_g(u),
            (2.0 / r) * (S * (2.0 * u - 1.0) + eps) * du * du)


class TestReducedReaction:
    """`reduced_reaction` is one product, selection x (heterozygosity + QLE
    disequilibrium); it must be the reduced equation's sum of terms and the
    one-row (p, q, D) allele rate at the QLE disequilibrium, to rounding."""

    @settings(max_examples=400, deadline=None)
    @given(u=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           du=st.floats(-1.0, 1.0), S=st.floats(1e-3, 3.0), r=st.floats(0.02, 10.0),
           eps=st.sampled_from([0.0, 0.005, -0.005]))
    def test_product_matches_the_sum_of_terms(self, u, du, S, r, eps):
        terms = reduced_terms(u, du, S, r, eps)
        largest = max(abs(term) for term in terms)
        # a few ulps of the largest term; the floor covers subnormal inputs
        assert abs(reduced_reaction(u, du, S, r, eps) - sum(terms)) <= (
            8.0 * ULP * largest + np.finfo(float).tiny)

    @pytest.mark.parametrize("eps", [0.0, 0.005, -0.005])
    @pytest.mark.parametrize("S, r", [(0.1, 0.1), (0.1, 0.02), (1.0, 0.5)])
    def test_is_the_one_row_pqd_rate_at_the_qle_disequilibrium(self, S, r, eps):
        rng = np.random.default_rng(17)
        u = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 5000)])
        du = rng.uniform(-0.5, 0.5, u.size)
        D_qle = (2.0 / r) * du * du
        rate = pqd_reaction(np.array([u, D_qle]), np.array([[S]]), np.array([[eps]]), r)[0][0]
        largest = np.max(np.abs(reduced_terms(u, du, S, r, eps)), axis=0)
        assert np.all(np.abs(reduced_reaction(u, du, S, r, eps) - rate) <= 8.0 * ULP * largest)


def test_fitness_params_validation():
    with pytest.raises(ValueError):
        FitnessParams(sA=0.2, sB=0.0, SA=0.1, SB=0.1, r=0.1, sigma2=2.0)
    with pytest.raises(ValueError):
        FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.7, sigma2=2.0)
    with pytest.raises(ValueError):
        FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.1, sigma2=-1.0)
