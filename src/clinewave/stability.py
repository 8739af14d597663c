"""Spectral stability checks for the standing front.

Linearizing the standing-wave equation around the profile u0 gives

    L h = h'' + (4S/r) u0' (2u0 - 1) h' + S (f'(u0) + (4/r) u0'^2) h,

whose first-order coefficient is the derivative of (4S/r)(u0^2 - u0).
Conjugating by the positive weight exp((2S/r)(u0^2 - u0)) removes the
first-order term and leaves the Schroedinger form

    M k = k'' + c(x) k,      c(x) = (2S^2/r)(2u0 - 1) f(u0) + S f'(u0),

so L and M share their spectrum. c tends to -S in both tails: discrete
surrogates of the essential spectrum cluster below about -S, while the
translation mode u0' spans the kernel of L and the weighted slope

    psi = u0' exp((4S/r)(u0^2 - u0))

spans the kernel of the adjoint. The Fredholm solvability ratio
< psi, g(u0) + (2/r) u0'^2 > / < psi, -u0' > is the x-space form of the
first-order wave speed coefficient, whose height-space form is `speed.c1_exact`.

Both operators are assembled on the interior nodes of the profile grid
with second-order central stencils and pinned (zero) boundary rows, as
`pde.Tridiagonal` bands. L is `linearization` at eps = c = 0: the one
stencil of the linearized front equation, which with eps and c is also
the Newton Jacobian of `speed.solve_traveling_bvp`. Spectra are computed
on the exactly symmetrized tridiagonal form, so all reported eigenvalues
are real by construction; eigenvectors map back through the discrete
weight `similarity_weight`. Assembled operators are immutable;
independent parameter cases can run concurrently.

`relaxation_shift` closes the loop dynamically: a perturbed front and
an unperturbed control are evolved as the two rows of one run, which
stops at the first record where the perturbed row has settled on a
translate of the control at the same time; the run's t_end only caps
the search. The measured shift is compared with the
two candidate first-order predictions (the raw weighted projection and
its normalized variant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar

from .errors import ConvergenceError, ProfileTooShortError
from .pde import Grid1D, SimConfig, Tridiagonal, front_position_values, simulate_reduced
from .genetics import bistable_f, bistable_f_prime, logistic_g
from .standing import WaveProfile, exp_tail_extension

SETTLE_TOL = 1e-6  # sup distance to the shifted control that counts as settled
TAIL_WEIGHT_LIMIT = 1e-8  # share of an integral the tail corrections may carry


def linearization(u: np.ndarray, du: np.ndarray, S: float, r: float, dx: float,
                  eps: float = 0.0, c: float = 0.0) -> Tridiagonal:
    """Central-difference Jacobian of u'' + c u' + `genetics.reduced_reaction`
    (u, u', S, r, eps) about interior values u with slopes du, the boundary
    values held fixed.

    At eps = c = 0 it is L: the eps and c terms come after L's, so there
    they add only zeros. The BVP's Newton loop passes its own eps and c.
    """
    b = (4.0 * S / r) * du * (2.0 * u - 1.0)
    diag = (-2.0 / dx**2 + S * (bistable_f_prime(u) + (4.0 / r) * du * du)
            + eps * (1.0 - 2.0 * u))
    off = b / (2.0 * dx) + (c + (4.0 / r) * eps * du) / (2.0 * dx)
    return Tridiagonal(1.0 / dx**2 - off[1:], diag, 1.0 / dx**2 + off[:-1])


def assemble_L(u0: WaveProfile) -> Tridiagonal:
    """Discretize the linearization L around the standing profile, at its (S, r).

    Second-order central stencils on interior nodes; the profile slope
    data supplies the first-order coefficient. Pinned zero boundary rows
    stand in for decay at infinity.

    Raises:
        ValueError: grid too coarse to resolve the front (dx > 0.1/sqrt(S)).
    """
    _check_resolution(u0)
    return linearization(u0.u[1:-1], u0.du[1:-1], u0.S, u0.r, u0.dx)


def assemble_M(u0: WaveProfile) -> Tridiagonal:
    """Discretize the weight-conjugated symmetric form M = d^2/dx^2 + c(x)."""
    _check_resolution(u0)
    S, r, u, dx = u0.S, u0.r, u0.u[1:-1], u0.dx
    c = (2.0 * S * S / r) * (2.0 * u - 1.0) * bistable_f(u) + S * bistable_f_prime(u)
    off = np.full(u.size - 1, 1.0 / dx**2)
    return Tridiagonal(off, -2.0 / dx**2 + c, off)


def similarity_weight(u0: WaveProfile) -> np.ndarray:
    """W = exp((2S/r)(u0^2 - u0)) on the interior nodes: L = W^-1 M W."""
    u = u0.u[1:-1]
    return np.exp((2.0 * u0.S / u0.r) * (u * u - u))


def _check_resolution(u0: WaveProfile) -> None:
    limit = 0.1 / math.sqrt(u0.S)
    if u0.dx > limit:
        raise ValueError(f"grid too coarse: dx={u0.dx} exceeds 0.1/sqrt(S)={limit:.4g}")


def similarity_defect(u0: WaveProfile) -> float:
    """Defect of L - W^-1 M W acting on a smooth probe (O(dx^2)).

    The individual stencil bands of the two assemblies differ at O(1);
    the discrepancies cancel on smooth vectors, which is what similarity
    of the discretized operators means.
    """
    w = similarity_weight(u0)
    x = u0.x[1:-1]
    probe = np.exp(-((4.0 * x / float(x[-1] - x[0])) ** 2))
    lhs = assemble_L(u0).apply(probe)
    rhs = assemble_M(u0).apply(w * probe) / w
    return float(np.max(np.abs(lhs - rhs)))


def _symmetrize(op: Tridiagonal):
    """Exact diagonal similarity to a symmetric tridiagonal matrix.

    Returns (d, e, scale) with d the diagonal, e the symmetric
    off-diagonal sqrt(upper_i * lower_i), and scale the positive diagonal
    D with D^-1 A D symmetric; eigenvectors of A are D times those of
    the symmetric form. Requires upper_i * lower_i > 0, true whenever
    |b| dx < 2.
    """
    if np.any(op.upper <= 0.0) or np.any(op.lower <= 0.0):
        raise ValueError("operator not symmetrizable: nonpositive off-diagonal band")
    e = np.sqrt(op.upper * op.lower)
    log_scale = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(op.lower) - np.log(op.upper)))))
    log_scale -= log_scale.max()
    return op.diag.copy(), e, np.exp(log_scale)


def spectrum(op: Tridiagonal, k: int = 6):
    """The k largest eigenvalues (descending) and their eigenvectors.

    L, M and the transpose of L all reduce to a symmetric tridiagonal
    eigenproblem: M is symmetric as assembled, L and its transpose are
    diagonally similar to symmetric form, so the computed spectrum is
    exactly real. Eigenvectors come back in the operator's own frame,
    normalized to unit Euclidean norm.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d, e, scale = _symmetrize(op)
    n = d.size
    k = min(k, n)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(n - k, n - 1))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    out = vecs * scale[:, np.newaxis]
    out /= np.linalg.norm(out, axis=0, keepdims=True)
    return vals, out


def kernel_mode_residual(op_L: Tridiagonal, u0: WaveProfile) -> float:
    """sup |L u0'| / sup |u0'|: the translation mode should be annihilated."""
    du = u0.du[1:-1]
    return float(np.max(np.abs(op_L.apply(du))) / np.max(np.abs(du)))


def _adjoint_null_vector(u0: WaveProfile) -> np.ndarray:
    """psi = u0' exp((4S/r)(u0^2 - u0)) at the profile nodes."""
    return u0.du * u0.weight


def _pair_with_psi(u0: WaveProfile, f: np.ndarray) -> float:
    """int f psi dx by the trapezoid rule on the profile grid."""
    return float(np.trapezoid(f * _adjoint_null_vector(u0), dx=u0.dx))


def adjoint_kernel_residual(u0: WaveProfile, weighted: bool = True) -> float:
    """||L^T psi||_2 / ||psi||_2 for the weighted slope psi.

    On a uniform grid the quadrature weights of the discrete L^2 pairing
    cancel in the ratio, so the plain transpose is the adjoint. Passing
    ``weighted=False`` drops the exponential factor from psi; that vector
    is not in the adjoint kernel and the residual then refuses to vanish
    under refinement (negative control).
    """
    op = assemble_L(u0)
    psi = (_adjoint_null_vector(u0) if weighted else u0.du)[1:-1]
    return float(np.linalg.norm(op.apply_transpose(psi)) / np.linalg.norm(psi))


def solvability_ratio(u0: WaveProfile) -> float:
    """< psi, g(u0) + (2/r) u0'^2 > / < psi, -u0' >: the speed coefficient in x-space.

    Trapezoid quadrature plus matched-exponential corrections for the
    truncated tails; psi spans the adjoint kernel, so this is the
    solvability condition of the traveling branch.

    Raises:
        ProfileTooShortError: tail corrections exceed ``TAIL_WEIGHT_LIMIT``
            of either integral.
    """
    num = _pair_with_psi(u0, logistic_g(u0.u) + (2.0 / u0.r) * u0.du**2)
    den = _pair_with_psi(u0, -u0.du)

    # Past an edge at height h from its limit the front relaxes like h e^{-sqrt(S)|x|}
    # and the weight tends to 1: -h^2/2 more in num, -sqrt(S) h^2/2 in den (psi < 0).
    h_r, h_l = u0.u[-1], 1.0 - u0.u[0]
    num_tail = 0.5 * (h_r * h_r + h_l * h_l)
    den_tail = math.sqrt(u0.S) * num_tail
    if num_tail > TAIL_WEIGHT_LIMIT * abs(num) or den_tail > TAIL_WEIGHT_LIMIT * abs(den):
        raise ProfileTooShortError(
            f"tail weight {max(num_tail / abs(num), den_tail / abs(den)):.2e} "
            f"exceeds {TAIL_WEIGHT_LIMIT}; extend the profile domain"
        )
    return (num - num_tail) / (den - den_tail)


def second_kernel_solution(u0: WaveProfile) -> np.ndarray:
    """The unbounded second null solution v0 = u0' int_0^x (u0')^-2 e^{-(4S/r)(u0^2-u0)}.

    Built from the profile's exact slope data; the integrand grows like
    e^{2 sqrt(S) z} in the right tail, which is precisely the growth this
    function is used to verify (v0 ~ e^{+sqrt(S) x}).
    """
    integrand = 1.0 / (u0.du**2 * u0.weight)
    center = u0.x.size // 2
    cumulative = np.concatenate(([0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * u0.dx)))
    cumulative -= cumulative[center]
    return u0.du * cumulative


def second_kernel_growth_rate(u0: WaveProfile) -> float:
    """Tail growth rate of |v0| fitted over the outer right quarter."""
    v0 = second_kernel_solution(u0)
    mask = u0.x >= u0.x[-1] / 2.0
    return float(np.polyfit(u0.x[mask], np.log(np.abs(v0[mask])), 1)[0])


# ---------------------------------------------------------------------------
# Dynamic relaxation of a perturbed front
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelaxationResult:
    """Outcome of relaxing a perturbed standing front.

    measured_shift is the front displacement of the settled state
    relative to the unperturbed control at the same time; divide by the
    amplitude for the first-order rate. Both first-order predictions are
    reported: ``projection`` is the raw weighted integral
    int h u0' e^{(4S/r)(u0^2-u0)} dx and ``projection_normalized`` divides
    it by int u0'^2 e^{...} dx. Predicted displacements carry the minus
    sign from shifting a decreasing front.
    """

    measured_shift: float
    shift_per_eps: float
    projection: float
    projection_normalized: float
    predicted_shift: float
    predicted_shift_unnormalized: float
    final_distance: float
    t_settled: float


def perturbation_projection(u0: WaveProfile, h: np.ndarray) -> tuple[float, float]:
    """Weighted projection of a perturbation on the adjoint kernel.

    Returns (raw, normalized): the integral int h u0' e^{(4S/r)(u0^2-u0)} dx
    and the same divided by int u0'^2 e^{...} dx.
    """
    raw = _pair_with_psi(u0, np.asarray(h, float))
    return raw, raw / _pair_with_psi(u0, u0.du)


def relaxation_shift(
    u0: WaveProfile,
    h: np.ndarray,
    eps_amp: float,
    cfg: SimConfig = SimConfig(dt=0.25, t_end=400.0, record_every=80),
) -> RelaxationResult:
    """Relax u0 + eps_amp * h under the symmetric dynamics and measure the shift.

    The perturbed state is evolved with the reduced equation (eps = 0)
    beside an unperturbed control run from u0, as the two rows of one
    `simulate_reduced` run, and each perturbed record is compared with the
    control record at the same time. The common transient from the
    continuum profile to the attractor of the discrete dynamics cancels in
    that comparison: no O(dx^2) gap. The shift is the minimizer of the L2
    distance to the translated control, seeded by the front positions;
    settling means the remaining sup distance fell below ``SETTLE_TOL``,
    and the run stops at the first settled record. cfg.t_end only caps
    the search.

    Raises:
        ConvergenceError: distance still above tolerance at cfg.t_end.
        ValueError: |eps_amp| zero, NaN or above 0.05, the linear regime;
            a perturbation not finite or off the profile grid.
    """
    if not 0.0 < abs(eps_amp) <= 0.05:
        raise ValueError(f"need 0 < |eps_amp| <= 0.05 for the linear regime, got {eps_amp}")
    h = np.asarray(h, dtype=float)
    if h.shape != u0.x.shape or not np.isfinite(h).all():
        raise ValueError("perturbation must be finite and sampled on the profile grid")
    grid = Grid1D(float(u0.x[0]), float(u0.x[-1]), u0.x.size)
    span = max(4.0 * abs(eps_amp), 8.0 * grid.dx)
    fit = {"dist": math.inf}  # shift and sup distance at the last record

    def settled(record: np.ndarray) -> bool:
        control, state = record
        control_at = exp_tail_extension(grid.x, control, u0.S)
        guess = front_position_values(state, grid.x) - front_position_values(control, grid.x)
        shift = float(minimize_scalar(
            lambda d: float(np.sum((state - control_at(grid.x - d)) ** 2)),
            bounds=(guess - span, guess + span), method="bounded",
            options={"xatol": 1e-12}).x)
        fit.update(shift=shift, dist=float(np.max(np.abs(state - control_at(grid.x - shift)))))
        return fit["dist"] < SETTLE_TOL

    traj = simulate_reduced(np.stack((u0.u, u0.u + eps_amp * h)), u0.S, 0.0, u0.r,
                            grid, cfg, stop=settled)
    if not fit["dist"] < SETTLE_TOL:
        raise ConvergenceError(
            f"perturbation did not settle below {SETTLE_TOL} by t={cfg.t_end} "
            f"(last distance {fit['dist']:.3e})"
        )
    shift, dist = fit["shift"], fit["dist"]

    raw, normalized = perturbation_projection(u0, h)
    return RelaxationResult(
        measured_shift=shift,
        shift_per_eps=shift / eps_amp,
        projection=raw,
        projection_normalized=normalized,
        predicted_shift=-eps_amp * normalized,
        predicted_shift_unnormalized=-eps_amp * raw,
        final_distance=dist,
        t_settled=float(traj.times[-1]),
    )
