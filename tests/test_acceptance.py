"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The suite is self-contained; expensive artifacts
(profiles, simulations) are shared through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from clinewave import pde, speed, stability, standing
from clinewave.genetics import FitnessParams

CASES = [(0.6, 0.25), (0.1, 0.1), (0.25, 0.25)]


def check(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def profiles():
    out = {}
    for (S, r) in CASES:
        quad = standing.profile_from_quadrature(S, r)
        out[(S, r)] = (quad, standing.profile_from_shooting(quad))
    return out


@pytest.fixture(scope="module")
def profile_spectral():
    return standing.profile_from_quadrature(0.1, 0.1, x_max=60.0, dx=0.05)


@pytest.fixture(scope="module")
def fig1_runs():
    fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.1, sigma2=2.0)
    grid = pde.Grid1D.symmetric(140.0, 0.2)
    p, q, D = pde.stacked_pqd_init(grid, 0.1, 2.0, offset_p=-10.0, offset_q=10.0)
    cfg = pde.SimConfig(dt=0.5, t_end=3000.0, record_every=200)
    traj_pqd = pde.simulate_pqd((p, q, D), fp, grid, cfg)
    gametes = (p * q + D, p * (1 - q) - D, (1 - p) * q - D, (1 - p) * (1 - q) + D)
    traj_g = pde.simulate_gametes(gametes, fp, grid, cfg)
    return grid, traj_pqd, traj_g


def test_criterion_01_standing_cross_validation(profiles):
    worst = {"gap": 0.0, "res": 0.0, "sym": 0.0, "rate": 0.0}
    for (S, r), (quad, shot) in profiles.items():
        worst["gap"] = max(worst["gap"], float(np.max(np.abs(quad.u - shot.u))))
        for prof in (quad, shot):
            worst["res"] = max(worst["res"],
                               float(np.max(np.abs(standing.ode_residual(prof)))))
        worst["sym"] = max(worst["sym"], standing.symmetry_defect(quad))
        rate_err = abs(standing.decay_rate(quad) + math.sqrt(S)) / math.sqrt(S)
        worst["rate"] = max(worst["rate"], rate_err)
    ok = (worst["gap"] < 1e-6 and worst["res"] < 1e-6
          and worst["sym"] < 1e-8 and worst["rate"] < 0.01)
    check(1, ok,
          f"cross-method gap {worst['gap']:.2e} (<1e-6), ODE residual "
          f"{worst['res']:.2e} (<1e-6), symmetry {worst['sym']:.2e} (<1e-8), "
          f"tail-rate error {worst['rate']:.2%} (<1%)")


def test_criterion_02_first_integral_identity(profiles):
    worst = 0.0
    for (_S, _r), (quad, shot) in profiles.items():
        worst = max(worst, standing.slope_law_defect(quad),
                    standing.slope_law_defect(shot))
    check(2, worst < 1e-8,
          f"max |u'^2 - P(u)| = {worst:.2e} along all profiles (<1e-8)")


def test_criterion_03_speed_coefficient():
    gap = abs(speed.c1_exact(0.02, 0.5) - speed.c1_series(0.02, 0.5))
    rel = gap / speed.c1_exact(0.02, 0.5)
    grid_vals = [speed.c1_exact(0.1, r) for r in (0.1, 0.2, 0.3, 0.4, 0.5)]
    decreasing = all(a > b for a, b in zip(grid_vals, grid_vals[1:]))
    sandwich = all(
        1.0 / math.sqrt(S) < speed.c1_exact(S, r) < math.sqrt(2.0) / math.sqrt(S)
        for (S, r) in [(0.1, 0.1), (0.1, 0.2), (0.1, 0.3), (0.1, 0.4),
                       (0.1, 0.5), (0.02, 0.5)]
    )
    ok = rel < 1e-4 and decreasing and sandwich
    check(3, ok,
          f"series match {rel:.2e} (<1e-4), strictly decreasing in r: "
          f"{decreasing}, sandwich 1/sqrt(S) < c1 < sqrt(2)/sqrt(S): {sandwich}")


def test_criterion_04_profile_formula_consistency(profiles):
    worst = 0.0
    for (S, r), (quad, _shot) in profiles.items():
        cx = speed.c1_exact(S, r)
        worst = max(worst, abs(stability.solvability_ratio(quad) - cx) / cx)
    check(4, worst < 1e-6,
          f"x-space solvability ratio vs height-space quadrature {worst:.2e} (<1e-6)")


def test_criterion_05_bvp_first_order_law(profile_spectral):
    u0 = profile_spectral
    cx = speed.c1_exact(0.1, 0.1)
    vals = {}
    worst_phase = 0.0
    for eps in (1e-3, 1e-4):
        c, prof = speed.solve_traveling_bvp(0.1, 0.1, eps, u0=u0)
        vals[eps] = c / eps
        phase = abs(np.trapezoid((prof.u - u0.u) * u0.du, dx=u0.dx))
        worst_phase = max(worst_phase, phase)
    extrapolated = (1e-3 * vals[1e-4] - 1e-4 * vals[1e-3]) / (1e-3 - 1e-4)
    rel = abs(extrapolated - cx) / cx
    ok = rel < 1e-3 and worst_phase < 1e-10
    check(5, ok,
          f"Richardson c(eps)/eps -> {extrapolated:.6f} vs c1 {cx:.6f} "
          f"({rel:.2e} < 1e-3), phase condition {worst_phase:.2e} (<1e-10)")


def test_criterion_06_dynamic_speed():
    S, r = 0.1, 0.1
    eps = 0.01 * S
    cx = speed.c1_exact(S, r)
    predicted = eps * cx
    half = 40.0 / math.sqrt(S) + 1.5 * predicted * 2000.0
    grid = pde.Grid1D.symmetric(half, 0.1)
    init = standing.profile_from_quadrature(S, r, x_max=half, dx=0.1).u  # on grid's nodes
    cfg = pde.SimConfig(dt=0.2, t_end=2000.0, record_every=50)
    traj = pde.simulate_reduced(init, S, eps, r, grid, cfg)
    measured = pde.instantaneous_speed(traj, "u_reduced", window=(500.0, 2000.0))
    rel = abs(measured - predicted) / predicted

    s = 0.01
    true_speed = speed.single_cline_speed(s, S)
    half_c = 40.0 / math.sqrt(S) + 1.5 * true_speed * 1000.0
    grid_c = pde.Grid1D.symmetric(half_c, 0.1)
    cfg_c = pde.SimConfig(dt=0.2, t_end=1000.0, record_every=50)
    traj_c = pde.simulate_reduced(pde.logistic_front(grid_c.x, S), S, s, math.inf,
                                  grid_c, cfg_c)
    measured_c = pde.instantaneous_speed(traj_c, "u_reduced", window=(20.0, 1000.0))
    rel_c = abs(measured_c - true_speed) / true_speed

    ok = rel < 0.05 and rel_c < 0.02
    check(6, ok,
          f"reduced-front speed off theory by {rel:.2%} (<5%), "
          f"single-cline control off by {rel_c:.2%} (<2%)")


def test_criterion_07_stacking(fig1_runs):
    grid, traj_pqd, traj_g = fig1_runs
    sep = np.abs(traj_pqd.front_positions["p"] - traj_pqd.front_positions["q"])
    stacked_by = sep < grid.dx
    D_ok = float(np.max(np.abs(traj_pqd.fields["D"]))) <= 0.25
    total = sum(traj_g.fields[k] for k in ("u", "v", "w", "z"))
    conservation = float(np.max(np.abs(total - 1.0)))
    ok = bool(stacked_by.any()) and D_ok and conservation <= 1e-10
    t_stack = traj_pqd.times[int(np.argmax(stacked_by))] if stacked_by.any() else None
    check(7, ok,
          f"fronts offset 20 stack below dx={grid.dx} at t={t_stack} "
          f"(< t_end=3000), |D| <= 1/4: {D_ok}, gamete-sum error "
          f"{conservation:.2e} (<=1e-10)")


def test_criterion_08_full_system_speed_comparison():
    reports = speed.compare_speeds(
        [(0.1, r, 0.01, 2.0) for r in (0.5, 0.3, 0.2, 0.15)], t_end=600.0, dt=0.2, dx=0.2)
    gaps = [rep.relative_gap for rep in reports]
    monotone = all(a < b for a, b in zip(gaps, gaps[1:]))
    ok = gaps[0] < 0.10 and monotone
    check(8, ok,
          f"measured vs s*c1_star*sigma/sqrt(2) gap at r=0.5: {gaps[0]:.2%} "
          f"(<10%), gaps {[f'{g:.2%}' for g in gaps]} increase as r "
          f"decreases: {monotone}")


def test_criterion_09_spectral_stability(profile_spectral):
    op_L = stability.assemble_L(profile_spectral)
    vals, vecs = stability.spectrum(op_L, k=8)
    du = profile_spectral.du[1:-1]
    cosine = float(abs(np.dot(vecs[:, 0], du))
                   / (np.linalg.norm(vecs[:, 0]) * np.linalg.norm(du)))
    ok = (abs(vals[0]) < 1e-3 and cosine > 0.999
          and bool(np.all(vals <= 1e-3)) and vals[1] < -0.01)
    check(9, ok,
          f"lambda0 = {vals[0]:.2e} (|.|<1e-3), kernel cosine {cosine:.6f} "
          f"(>0.999), max eigenvalue {vals.max():.2e} (<=1e-3), gap "
          f"lambda1 = {vals[1]:.4f} (<-0.01)")


def test_criterion_10_adjoint_kernel(profile_spectral):
    res = {}
    for dx in (0.05, 0.025, 0.0125):
        prof = standing.profile_from_quadrature(0.1, 0.1, x_max=80.0, dx=dx)
        res[dx] = stability.adjoint_kernel_residual(stability.assemble_L(prof), prof)
    r1 = res[0.05] / res[0.025]
    r2 = res[0.025] / res[0.0125]
    rate = stability.second_kernel_growth_rate(profile_spectral)
    rate_rel = abs(rate - math.sqrt(0.1)) / math.sqrt(0.1)
    ok = (abs(r1 - 4.0) < 0.8 and abs(r2 - 4.0) < 0.8 and rate_rel < 0.02)
    check(10, ok,
          f"adjoint residual refinement ratios {r1:.2f}, {r2:.2f} (~4), "
          f"unbounded-solution growth rate {rate:.5f} vs sqrt(S) "
          f"({rate_rel:.2%} < 2%)")


def test_criterion_11_relaxation_shift(profile_spectral):
    u0 = profile_spectral
    cfg = pde.SimConfig(dt=0.25, t_end=400.0, record_every=80)
    bump = np.exp(-(u0.x**2))
    first = stability.relaxation_shift(u0, bump, 0.01, cfg)
    second = stability.relaxation_shift(u0, bump, 0.02, cfg)
    ratio = second.measured_shift / first.measured_shift
    odd = u0.x * np.exp(-(u0.x**2))
    raw, _ = stability.perturbation_projection(u0, odd)
    res_odd = stability.relaxation_shift(u0, odd, 0.02, cfg)
    ok = (abs(ratio - 2.0) < 0.1 and abs(raw) < 1e-12
          and abs(res_odd.measured_shift) < 1e-3)
    check(11, ok,
          f"shift doubling ratio {ratio:.4f} (2 +- 5%), zero-projection "
          f"perturbation moved the front by {abs(res_odd.measured_shift):.2e} "
          f"(<1e-3)")


def test_criterion_12_order_of_accuracy():
    # CN-AB2 time stepping: error against a dt/4 reference drops ~5x per
    # halving for a clean second-order scheme (4x if the reference were
    # exact).
    grid = pde.Grid1D.symmetric(130.0, 0.2)
    u0 = pde.logistic_front(grid.x, 0.1)
    ends = {}
    for dt in (0.4, 0.2, 0.1):
        cfg = pde.SimConfig(dt=dt, t_end=8.0, record_every=int(8.0 / dt))
        traj = pde.simulate_reduced(u0, 0.1, 0.005, 0.1, grid, cfg)
        ends[dt] = traj.fields["u_reduced"][-1]
    ratio = (np.max(np.abs(ends[0.4] - ends[0.1]))
             / np.max(np.abs(ends[0.2] - ends[0.1])))
    stepping_ok = 3.5 < ratio < 5.6

    # Quadrature refinement: the profile-based speed integral is already
    # converged at the working resolution.
    a = standing.profile_from_quadrature(0.1, 0.1, dx=0.02)
    b = standing.profile_from_quadrature(0.1, 0.1, dx=0.01)
    quad_shift = abs(stability.solvability_ratio(a) - stability.solvability_ratio(b))
    quad_ok = quad_shift < 1e-8

    ok = stepping_ok and quad_ok
    check(12, ok,
          f"dt halving ratio {ratio:.2f} (2nd order: ~4-5), "
          f"speed-integral change under grid doubling {quad_shift:.2e} (<1e-8)")
