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

`recursion_step_exact` advances the gamete frequencies by one full
generation (random fusion, selection, recombination, gamete release).
`recursion_step_first_order` is the weak-selection limit of that map,
obtained by scaling all selection coefficients and the recombination
probability by a common small factor ``alpha``: the state plus ``alpha``
times `pqd_reaction`, which is also the reaction term the (p, q, D)
spatial solver integrates.

All functions are pure and operate on value types; they are safe to call
concurrently. Scalar formulas accept numpy arrays componentwise, which
is what the spatial integrators rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStateError

# Tolerances for simplex membership and (p,q,D) feasibility checks.
SUM_TOL = 1e-12
FEAS_TOL = 1e-12

# Linkage disequilibrium is bounded by 1/4 in absolute value on the simplex.
D_MAX = 0.25


@dataclass(frozen=True)
class FitnessParams:
    """Model constants: selection strengths, recombination, dispersal.

    Attributes:
        sA, sB: directional advantage of A over a (resp. B over b), >= 0.
        SA, SB: heterozygote fitness costs, > 0, with sA < SA and sB < SB.
        r: recombination probability between the two loci, in [0, 1/2].
        sigma2: dispersal variance per generation (squared space units).
    """

    sA: float
    sB: float
    SA: float
    SB: float
    r: float
    sigma2: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.sA < self.SA):
            raise ValueError(f"need 0 <= sA < SA, got sA={self.sA}, SA={self.SA}")
        if not (0.0 <= self.sB < self.SB):
            raise ValueError(f"need 0 <= sB < SB, got sB={self.sB}, SB={self.SB}")
        if not (0.0 <= self.r <= 0.5):
            raise ValueError(f"recombination must lie in [0, 1/2], got {self.r}")
        if not (self.sigma2 > 0.0):
            raise ValueError(f"dispersal variance must be positive, got {self.sigma2}")

    def scaled(self, alpha: float) -> "FitnessParams":
        """All selection coefficients and r multiplied by ``alpha`` (weak-effects scaling)."""
        return FitnessParams(
            sA=self.sA * alpha,
            sB=self.sB * alpha,
            SA=self.SA * alpha,
            SB=self.SB * alpha,
            r=self.r * alpha,
            sigma2=self.sigma2,
        )


@dataclass(frozen=True)
class GameteFreqs:
    """Frequencies of the four gamete types AB, Ab, aB, ab."""

    u: float
    v: float
    w: float
    z: float

    def __post_init__(self):
        for name, val in (("u", self.u), ("v", self.v), ("w", self.w), ("z", self.z)):
            if not (-SUM_TOL <= val <= 1.0 + SUM_TOL):
                raise ValueError(f"gamete frequency {name}={val} outside [0, 1]")
        total = self.u + self.v + self.w + self.z
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"gamete frequencies sum to {total}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w, self.z])


@dataclass(frozen=True)
class PQD:
    """Allele frequencies and linkage disequilibrium (p, q, D)."""

    p: float
    q: float
    D: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError(f"allele frequencies must lie in [0, 1], got p={self.p}, q={self.q}")
        if abs(self.D) > D_MAX + FEAS_TOL:
            raise ValueError(f"linkage disequilibrium |D|={abs(self.D)} exceeds 1/4")


def _fitness_weights(fp: FitnessParams) -> tuple[float, float, float, float]:
    """Per-locus genotype fitnesses (homozygote AA-like, heterozygote) for both loci."""
    wAA = 1.0 + 2.0 * fp.sA
    wAa = 1.0 + fp.sA - fp.SA
    wBB = 1.0 + 2.0 * fp.sB
    wBb = 1.0 + fp.sB - fp.SB
    return wAA, wAa, wBB, wBb


def mean_fitness(g: GameteFreqs, fp: FitnessParams):
    """Population mean fitness after random fusion of gametes.

    The sum of the four recursion numerators, in which the recombination
    flux cancels: the w-bar that `_step_arrays` divides by.
    """
    return sum(_recursion_numerators(g.u, g.v, g.w, g.z, fp))


def _recursion_numerators(u, v, w, z, fp: FitnessParams):
    """Unnormalized next-generation gamete frequencies.

    Each gamete's numerator is its frequency times the summed fitness of
    the genotypes it forms (a four-term bracket over its partner), plus or
    minus the recombination flux (r het)(v w - u z) out of the double
    heterozygote, het being its fitness. The flux cancels in the sum, so
    the four numerators add up to the mean fitness identically, which is
    the conservation property the recursion relies on.
    """
    wAA, wAa, wBB, wBb = _fitness_weights(fp)
    het = wAa * wBb  # double-heterozygote fitness, the only genotype that recombines
    flux = (fp.r * het) * (v * w - u * z)
    return (u * (wAA * wBB * u + wAA * wBb * v + wAa * wBB * w + het * z) + flux,
            v * (wAA * wBb * u + wAA * v + het * w + wAa * z) - flux,
            w * (wAa * wBB * u + het * v + wBB * w + wBb * z) - flux,
            z * (het * u + wAa * v + wBb * w + z) + flux)


def _step_arrays(u, v, w, z, fp: FitnessParams):
    """Vectorized one-generation map on raw arrays.

    Divides by the sum of the numerators, which is the mean fitness
    identically, so the outputs sum to one up to rounding.
    """
    num_u, num_v, num_w, num_z = _recursion_numerators(u, v, w, z, fp)
    wbar = num_u + num_v + num_w + num_z
    return num_u / wbar, num_v / wbar, num_w / wbar, num_z / wbar


def recursion_step_exact(g: GameteFreqs, fp: FitnessParams) -> GameteFreqs:
    """Advance gamete frequencies by one full generation.

    Selection acts on the sixteen ordered diploid genotypes formed by
    random fusion; recombination reshuffles double heterozygotes. The
    output is renormalized by its exact sum to keep long iterations on
    the simplex despite rounding.
    """
    u, v, w, z = _step_arrays(g.u, g.v, g.w, g.z, fp)
    total = u + v + w + z
    return GameteFreqs(u / total, v / total, w / total, z / total)


def pqd_reaction(p, q, D, fp: FitnessParams):
    """Weak-selection rates of change (dp, dq, dD) per generation.

    The generator of the first-order map: with selA = SA (2p - 1) + sA and
    selB = SB (2q - 1) + sB,

        dp = selA p (1 - p) + selB D
        dq = selB q (1 - q) + selA D
        dD = -[r + (2p - 1) selA + (2q - 1) selB] D

    componentwise on arrays. With D = 0 the two loci decouple.
    """
    hA = 2.0 * p - 1.0
    hB = 2.0 * q - 1.0
    selA = fp.SA * hA + fp.sA
    selB = fp.SB * hB + fp.sB
    return (selA * p * (1.0 - p) + selB * D,
            selB * q * (1.0 - q) + selA * D,
            (-fp.r - hA * selA - hB * selB) * D)


def recursion_step_first_order(s: PQD, fp: FitnessParams, alpha: float) -> PQD:
    """Weak-selection one-generation map on (p, q, D): s + alpha * `pqd_reaction`.

    Limit of the exact recursion when every selection coefficient and
    the recombination probability are scaled by ``alpha``; correct to
    first order in ``alpha``.
    """
    dp, dq, dD = pqd_reaction(s.p, s.q, s.D, fp)
    return PQD(s.p + alpha * dp, s.q + alpha * dq, s.D + alpha * dD)


def to_pqd(g: GameteFreqs) -> PQD:
    """Allele frequencies and linkage disequilibrium of a gamete state."""
    return PQD(p=g.u + g.v, q=g.u + g.w, D=g.u * g.z - g.v * g.w)


def gametes_from_pqd(p, q, D):
    """Gamete frequencies (u, v, w, z) with allele frequencies p, q and
    disequilibrium D, componentwise on arrays; no range check."""
    return (p * q + D, p * (1.0 - q) - D, (1.0 - p) * q - D, (1.0 - p) * (1.0 - q) + D)


def from_pqd(s: PQD) -> GameteFreqs:
    """Reconstruct gamete frequencies from (p, q, D).

    Raises:
        InfeasibleStateError: if any reconstructed frequency falls
            outside [0, 1] by more than the feasibility tolerance.
            Noise inside the tolerance band is clamped to the boundary.
    """
    gametes = gametes_from_pqd(s.p, s.q, s.D)
    if min(gametes) < -FEAS_TOL or max(gametes) > 1.0 + FEAS_TOL:
        raise InfeasibleStateError(
            f"(p={s.p}, q={s.q}, D={s.D}) reconstructs gametes outside [0, 1]: {gametes}",
            gametes,
        )
    u, v, w, z = (min(max(y, 0.0), 1.0) for y in gametes)
    return GameteFreqs(u, v, w, z)
