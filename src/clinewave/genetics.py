"""Exact discrete-generation gamete dynamics at a single spatial point.

Two diallelic loci (alleles A/a and B/b) in a randomly mating diploid
population with non-overlapping generations. Heterozygotes pay a fitness
cost at each locus:

    AA: 1 + 2 sA     Aa: 1 + sA - SA     aa: 1
    BB: 1 + 2 sB     Bb: 1 + sB - SB     bb: 1

with multiplicative effects among loci. Recombination reshuffles the
double heterozygote AB|ab into Ab and aB gametes with probability ``r``.

The state is carried either as the four gamete frequencies
(u, v, w, z) = (AB, Ab, aB, ab), or equivalently as allele frequencies
plus linkage disequilibrium (p, q, D) with

    p = u + v,   q = u + w,   D = u z - v w = u - p q.

`_step_arrays` advances the gamete frequencies by one full generation
(random fusion, selection, recombination, gamete release); its change per
generation is the reaction the four-gamete spatial solver integrates, one
product with the (4, 16) `fitness_tensor` that a run builds once.
`pqd_reaction` is the weak-selection limit of that map: with all
selection coefficients and the recombination probability scaled by a
common small factor ``alpha``, one generation moves (p, q, D) by
``alpha`` times `pqd_reaction`, up to O(alpha^2). It is the reaction the
(p, q, D) spatial solver integrates. `gametes_from_pqd` maps (p, q, D)
to gamete frequencies.

The module also holds the formulas of the reduced scalar model of
stacked clines: the bistable and logistic terms, their combination
`reduced_reaction`, and the domain half-width `default_half_width`. It
imports nothing from scipy, so the simulators use these formulas without
loading the standing-front layer, which calls them too.

All functions are pure and act componentwise on numpy arrays; they are
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Linkage disequilibrium is bounded by 1/4 in absolute value on the simplex.
D_MAX = 0.25


def check_positive(**values: float) -> None:
    """Raise ValueError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"need finite {name} > 0, got {name}={value}")


def check_bistable(s: float, S: float) -> None:
    """Raise ValueError outside the bistable window: finite S > 0 and 0 < s < S."""
    check_positive(S=S)
    if not 0.0 < s < S:
        raise ValueError(f"need finite s > 0 and s < S, got s={s}, S={S}")


@dataclass(frozen=True)
class FitnessParams:
    """Model constants: selection strengths, recombination, dispersal.

    Attributes:
        sA, sB: directional advantage of A over a (resp. B over b), >= 0.
        SA, SB: heterozygote fitness costs, finite, > 0, sA < SA, sB < SB.
        r: recombination probability between the two loci, in [0, 1/2].
        sigma2: dispersal variance per generation (squared space units), > 0.
    """

    sA: float
    sB: float
    SA: float
    SB: float
    r: float
    sigma2: float

    def __post_init__(self):
        check_positive(SA=self.SA, SB=self.SB, sigma2=self.sigma2)
        if not (0.0 <= self.sA < self.SA):
            raise ValueError(f"need 0 <= sA < SA, got sA={self.sA}, SA={self.SA}")
        if not (0.0 <= self.sB < self.SB):
            raise ValueError(f"need 0 <= sB < SB, got sB={self.sB}, SB={self.SB}")
        if not (0.0 <= self.r <= 0.5):
            raise ValueError(f"recombination must lie in [0, 1/2], got {self.r}")


def fitness_tensor(fp: FitnessParams) -> np.ndarray:
    """The gamete recursion's numerators as one (4, 16) quadratic form T.

    Gamete 2a + b carries alleles a (A = 0) and b (B = 0), so the genotype
    fitnesses are W = kron(W_A, W_B) of the per-locus tables. Row i of T
    holds W's row i on the pairs (i, k), plus the recombination flux
    (r het)(v w - u z), het = W[0, 3], signed + for u and z, - for v and w,
    on pairs of the other half's rows, so it cancels in each column sum.
    """
    wAa, wBb = 1.0 + fp.sA - fp.SA, 1.0 + fp.sB - fp.SB  # heterozygotes
    W = np.kron([[1.0 + 2.0 * fp.sA, wAa], [wAa, 1.0]], [[1.0 + 2.0 * fp.sB, wBb], [wBb, 1.0]])
    T = np.zeros((4, 4, 4))
    T[range(4), range(4)] = W
    flux = fp.r * W[0, 3] * np.array([1.0, -1.0, -1.0, 1.0])
    T[:2, 2, 1], T[:2, 3, 0] = flux[:2], -flux[:2]
    T[2:, 1, 2], T[2:, 0, 3] = flux[2:], -flux[2:]
    return T.reshape(4, 16)


def _step_arrays(state, T):
    """One generation of the (4, ...) gamete state (u, v, w, z): the
    numerators T (y_j y_k) over their sum, the mean fitness identically."""
    num = T @ (state[:, None] * state).reshape(16, *state.shape[1:])
    num /= num.sum(axis=0)
    return num


def pqd_reaction(state, S, s, r: float):
    """Weak-selection rates (allele rows, dD) per generation of a stacked state.

    state is (p, q, D), with S = (SA, SB) and s = (sA, sB) as columns, or
    (u, D) for p = q = u at sA = sB, SA = SB, with one-row columns. With
    selA = SA (2p - 1) + sA and selB = SB (2q - 1) + sB,

        dp = selA p (1 - p) + selB D
        dq = selB q (1 - q) + selA D
        dD = -[r + (2p - 1) selA + (2q - 1) selB] D

    One row takes selB as selA, so (u, D) gets the bits of (p, D) in the
    three-row form. With D = 0 the two loci decouple.
    """
    alleles, D = state[:-1], state[-1]
    h = 2.0 * alleles - 1.0
    sel = S * h + s
    hs = h * sel
    return (sel * alleles * (1.0 - alleles) + sel[::-1] * D,
            ((-r - hs[0]) - hs[-1]) * D)


def gametes_from_pqd(p, q, D):
    """Gamete frequencies (u, v, w, z) with allele frequencies p, q and
    disequilibrium D, componentwise on arrays; no range check."""
    return (p * q + D, p * (1.0 - q) - D, (1.0 - p) * q - D, (1.0 - p) * (1.0 - q) + D)


def default_half_width(S: float) -> float:
    """Domain half-width that pushes tail values below ~5e-9.

    Scales like 1/sqrt(S); equals 60 at S = 0.1.
    """
    check_positive(S=S)
    return 60.0 * math.sqrt(0.1 / S)


def bistable_f(u):
    """Balanced bistable reaction term u (2u - 1) (1 - u)."""
    return u * (2.0 * u - 1.0) * (1.0 - u)


def bistable_f_prime(u):
    """Derivative of the balanced bistable term: -6u^2 + 6u - 1."""
    return -6.0 * u * u + 6.0 * u - 1.0


def logistic_g(u):
    """Unbalancing term u (1 - u)."""
    return u * (1.0 - u)


def reduced_reaction(u, du, S: float, r: float, eps: float = 0.0):
    """Reaction of the reduced equation at heights u with slopes du,

        S f(u) + eps g(u) + (2/r)(S(2u - 1) + eps) du^2
          = (S(2u - 1) + eps) (u (1 - u) + (2/r) du^2),

    evaluated as that product: the stacked locus's selection times its
    heterozygosity plus the QLE disequilibrium D = (2/r) du^2. It is the
    one-row `pqd_reaction` allele rate at that D.

    The one statement of the reduced model: the simulator, the BVP, the
    phase-plane shot and the standing-front residual all call it.
    """
    return (S * (2.0 * u - 1.0) + eps) * (u * (1.0 - u) + (2.0 / r) * du * du)
