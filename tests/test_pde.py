"""Unit tests for the spatial integrators, front tracking, and diagnostics."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from clinewave import genetics, pde
from clinewave.errors import (
    FieldInvariantError,
    FrontTrackingError,
    InsufficientSamplesError,
    RunSizeError,
)
from clinewave.genetics import FitnessParams
from clinewave.pde import (
    Grid1D,
    SimConfig,
    front_position_values,
    instantaneous_speed,
    simulate_gametes,
    simulate_pqd,
    simulate_reduced,
    stacked_pqd_init,
)
from clinewave.standing import profile_from_quadrature

SYMMETRIC_FP = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.1, sigma2=2.0)

SRC = Path(__file__).resolve().parents[1] / "src"

# A short gamete run on 20,001 nodes, large enough for OpenBLAS to split
# the fitness-tensor product over threads; prints the sha256 of its fields
# and fronts.
_GAMETE_DIGEST = """
import hashlib
from clinewave import genetics, pde

fp = genetics.FitnessParams(sA=0.01, sB=0.005, SA=0.1, SB=0.12, r=0.1, sigma2=2.0)
grid = pde.Grid1D.symmetric(100.0, 0.01)
p, q, D = pde.stacked_pqd_init(grid, 0.1, 2.0, offset_p=-2.5, offset_q=4.0)
traj = pde.simulate_gametes(genetics.gametes_from_pqd(p, q, D), fp, grid,
                            pde.SimConfig(dt=0.5, t_end=2.0, record_every=2))
digest = hashlib.sha256()
for tag in "uvwz":
    digest.update(traj.fields[tag].tobytes())
    digest.update(traj.front_positions[tag].tobytes())
print(grid.n, digest.hexdigest())
"""


class TestGridAndConfig:
    def test_grid_spacing(self):
        g = Grid1D(-10.0, 10.0, 201)
        assert g.dx == pytest.approx(0.1)
        assert g.x[0] == -10.0 and g.x[-1] == 10.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, -1.0, 100)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 2)
        # a half-width under dx/2 leaves no node off x = 0
        assert Grid1D.symmetric(0.11, 0.2).n == 3
        with pytest.raises(ValueError, match="half-width=0.05, dx=0.2"):
            Grid1D.symmetric(0.05, 0.2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, t_end=1.0)
        for dt, t_end in ((math.inf, 10.0), (math.nan, 10.0), (0.2, math.inf),
                          (0.2, math.nan), (0.2, -1.0), (0.3, 1.0), (0.6, 1.0)):
            with pytest.raises(ValueError):
                SimConfig(dt=dt, t_end=t_end)
        # whole step counts pass, rounding in t_end / dt included
        for dt, t_end in ((0.2, 200.0), (0.3, 0.8999999999999999), (0.1, 0.3), (0.25, 0.0)):
            SimConfig(dt=dt, t_end=t_end)

    def test_step_and_node_limits(self):
        SimConfig(dt=0.5, t_end=0.5 * pde.MAX_STEPS)
        for dt, t_end in ((0.5, 0.5 * (pde.MAX_STEPS + 1)), (1e-300, 2.27), (1e-300, 1e10)):
            with pytest.raises(RunSizeError, match="step count") as info:
                SimConfig(dt=dt, t_end=t_end)  # 1e10 / 1e-300 is inf
            assert info.value.diagnostics["limit"] == pde.MAX_STEPS
        Grid1D(0.0, 1.0, pde.MAX_NODES)
        with pytest.raises(RunSizeError, match="node count"):
            Grid1D(0.0, 1.0, pde.MAX_NODES + 1)
        # a half-width over dx above the float range is refused before int(inf)
        with pytest.raises(RunSizeError, match="node count") as info:
            Grid1D.symmetric(60.0, 1e-310)
        assert info.value.diagnostics["size"] == "inf"

    @pytest.mark.parametrize("call", [lambda: pde.check_size("x", 10**400, 10),
                                      lambda: Grid1D(0.0, 1.0, 10**400)],
                             ids=["check_size", "Grid1D"])
    def test_int_size_past_float_range_is_a_run_size_error(self, call):
        # formatting the message converted the int to float: OverflowError
        with pytest.raises(RunSizeError, match="1e\\+400 exceeds the limit") as info:
            call()
        assert info.value.diagnostics["size"] == 10**400
        assert info.value.diagnostics["limit"] in (10, pde.MAX_NODES)

    @pytest.mark.parametrize("record_every, records", [(4, 4), (5, 3), (1, 11), (20, 2)])
    def test_record_store_limit_is_the_store_size(self, monkeypatch, record_every, records):
        # the driver's record count is the store it would allocate: 10 steps
        # record at 0, k, 2k, ... and the last step
        grid = Grid1D.symmetric(80.0, 1.0)
        init = pde.logistic_front(grid.x, 0.1)
        cfg = SimConfig(dt=0.1, t_end=1.0, record_every=record_every)
        monkeypatch.setattr(pde, "MAX_RECORD_VALUES", records * grid.n - 1)
        with pytest.raises(RunSizeError, match=f"{records} records") as info:
            simulate_reduced(init, 0.1, 0.0, 0.1, grid, cfg)
        assert info.value.diagnostics["size"] == records * grid.n
        monkeypatch.setattr(pde, "MAX_RECORD_VALUES", records * grid.n)
        assert simulate_reduced(init, 0.1, 0.0, 0.1, grid, cfg).times.size == records

    def test_boundary_init_guard(self):
        grid = Grid1D.symmetric(5.0, 0.1)  # far too narrow for the front
        init = stacked_pqd_init(grid, 0.1, 2.0)
        with pytest.raises(FieldInvariantError):
            simulate_pqd(init, SYMMETRIC_FP, grid, SimConfig(dt=0.1, t_end=1.0))

    def test_field_range_validation(self):
        # the loop's guard rejects values out of range and NaN
        for tag, values in (("p", [0.0, 1.5, 0.0]), ("D", [0.0, 0.3, 0.0]),
                            ("p", [np.nan, 0.5, 0.0]), ("D", [0.0, np.nan, 0.0])):
            with pytest.raises(FieldInvariantError):
                pde._range_guard(1.0, {tag: np.array(values)}, [tag])


class TestSimulatePQD:
    def test_uniform_symmetric_state_is_stationary(self):
        grid = Grid1D.symmetric(20.0, 0.2)
        n = grid.n
        init = (np.full(n, 0.5), np.full(n, 0.5), np.zeros(n))
        cfg = SimConfig(dt=0.2, t_end=10.0, record_every=25)
        traj = simulate_pqd(init, SYMMETRIC_FP, grid, cfg)
        assert np.max(np.abs(traj.fields["p"][-1] - 0.5)) < 1e-13
        assert np.max(np.abs(traj.fields["D"][-1])) < 1e-13

    def test_offset_clines_attract_and_stack(self):
        # Symmetric selection, clines 20 apart: linkage disequilibrium
        # couples them and pulls the fronts together.
        grid = Grid1D.symmetric(140.0, 0.2)
        init = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-10.0, offset_q=10.0)
        cfg = SimConfig(dt=0.5, t_end=3000.0, record_every=200)
        traj = simulate_pqd(init, SYMMETRIC_FP, grid, cfg)
        sep = np.abs(traj.front_positions["p"] - traj.front_positions["q"])
        assert sep[0] == pytest.approx(20.0, abs=0.01)
        assert sep[-1] < grid.dx
        # ranges stay legal throughout
        assert np.min(traj.fields["p"]) > -1e-8
        assert np.max(traj.fields["p"]) < 1.0 + 1e-8
        assert np.max(np.abs(traj.fields["D"])) <= 0.25

    def test_positive_D_generated_between_approaching_fronts(self):
        grid = Grid1D.symmetric(140.0, 0.2)
        init = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-10.0, offset_q=10.0)
        cfg = SimConfig(dt=0.5, t_end=400.0, record_every=100)
        traj = simulate_pqd(init, SYMMETRIC_FP, grid, cfg)
        k = traj.times.size // 2
        mid = 0.5 * (traj.front_positions["p"][k] + traj.front_positions["q"][k])
        D_mid = traj.fields["D"][k][np.argmin(np.abs(grid.x - mid))]
        assert D_mid > 0.0


class TestSimulateGametes:
    def test_simplex_fixed_point_is_constant(self):
        grid = Grid1D.symmetric(20.0, 0.2)
        n = grid.n
        init = (np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n))
        cfg = SimConfig(dt=0.2, t_end=5.0, record_every=25)
        traj = simulate_gametes(init, SYMMETRIC_FP, grid, cfg)
        assert np.max(np.abs(traj.fields["u"][-1] - 1.0)) < 1e-13

    def test_counter_propagating_fronts_lock_and_conserve(self):
        # Clines 10 apart: the strip between them starts as aB gametes
        # (w large); u and z fronts counter-propagate until they lock at
        # a fixed residual offset, and the strip decays to the small
        # stationary double-heterozygote humps v = w = P(1-P) - D.
        grid = Grid1D.symmetric(140.0, 0.2)
        p, q, D = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-5.0, offset_q=5.0)
        init = (p * q + D, p * (1 - q) - D, (1 - p) * q - D, (1 - p) * (1 - q) + D)
        cfg = SimConfig(dt=0.5, t_end=800.0, record_every=160)
        traj = simulate_gametes(init, SYMMETRIC_FP, grid, cfg)
        total = sum(traj.fields[k] for k in ("u", "v", "w", "z"))
        assert np.max(np.abs(total - 1.0)) < 1e-10
        # u front (starting left) moves right, z front (starting right) moves left
        sep = np.abs(traj.front_positions["u"] - traj.front_positions["z"])
        assert traj.front_positions["u"][-1] > traj.front_positions["u"][0] + 1.0
        assert traj.front_positions["z"][-1] < traj.front_positions["z"][0] - 1.0
        assert sep[-1] < 0.5 * sep[0]
        assert abs(sep[-1] - sep[-2]) < 1e-6  # locked
        # the aB strip decays toward the stationary hump; v rises to meet it
        w_final = traj.fields["w"][-1].max()
        v_final = traj.fields["v"][-1].max()
        assert traj.fields["w"][0].max() > 0.6
        assert w_final < 0.2
        assert v_final == pytest.approx(w_final, rel=0.05)

    def test_fields_are_byte_identical_across_blas_threads(self):
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(SRC), env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", _GAMETE_DIGEST], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            n, digest = proc.stdout.split()
            assert int(n) >= 20_001
            digests.add(digest)
        assert len(digests) == 1

    def test_matches_pqd_route_for_weak_effects(self):
        # Oracle: the (p, q, D) integration of the same initial state with
        # coefficients scaled into the weak-effects regime.
        alpha = 0.1
        fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1 * alpha, SB=0.1 * alpha,
                           r=0.1 * alpha, sigma2=2.0)
        grid = Grid1D.symmetric(180.0, 0.4)
        p, q, D = stacked_pqd_init(grid, 0.1 * alpha, 2.0,
                                   offset_p=-3.0, offset_q=3.0)
        init_g = (p * q + D, p * (1 - q) - D, (1 - p) * q - D,
                  (1 - p) * (1 - q) + D)
        cfg = SimConfig(dt=0.5, t_end=200.0, record_every=80)
        traj_g = simulate_gametes(init_g, fp, grid, cfg)
        traj_p = simulate_pqd((p, q, D), fp, grid, cfg)
        p_from_g = traj_g.fields["u"][-1] + traj_g.fields["v"][-1]
        front_g = front_position_values(p_from_g, grid.x)
        front_p = traj_p.front_positions["p"][-1]
        assert abs(front_g - front_p) < 2.0 * grid.dx


class TestSimulateReduced:
    def test_standing_profile_barely_drifts(self):
        u0 = profile_from_quadrature(0.1, 0.1, x_max=60.0, dx=0.1)
        grid = Grid1D(-60.0, 60.0, u0.x.size)
        cfg = SimConfig(dt=0.2, t_end=100.0, record_every=100)
        traj = simulate_reduced(u0.u, 0.1, 0.0, 0.1, grid, cfg)
        drift = abs(traj.front_positions["u_reduced"][-1]
                    - traj.front_positions["u_reduced"][0])
        assert drift < grid.dx

    def test_positive_eps_moves_front_right(self):
        u0 = profile_from_quadrature(0.1, 0.1, x_max=60.0, dx=0.1)
        grid = Grid1D(-60.0, 60.0, u0.x.size)
        cfg = SimConfig(dt=0.2, t_end=200.0, record_every=100)
        traj = simulate_reduced(u0.u, 0.1, 0.01, 0.1, grid, cfg)
        positions = traj.front_positions["u_reduced"]
        assert positions[-1] > positions[0] + 10 * grid.dx

    def test_step_converges_to_steady_front_shape(self):
        S, r = 0.1, 0.1
        grid = Grid1D.symmetric(126.0, 0.1)
        step = np.where(grid.x <= 0.0, 1.0, 0.0)
        # brief fine-stepped phase while the discontinuity relaxes
        smooth = simulate_reduced(step, S, 0.0, r, grid,
                                  SimConfig(dt=0.005, t_end=5.0, record_every=1000))
        state = smooth.fields["u_reduced"][-1]
        traj = simulate_reduced(state, S, 0.0, r, grid,
                                SimConfig(dt=0.2, t_end=200.0, record_every=250))
        last = traj.fields["u_reduced"][-1]
        prev = traj.fields["u_reduced"][-2]
        shift = (traj.front_positions["u_reduced"][-1]
                 - traj.front_positions["u_reduced"][-2])
        aligned = np.interp(grid.x - shift, grid.x, prev)
        assert np.max(np.abs(last - aligned)) < 1e-3
        assert np.all(np.diff(last) <= 1e-12)

    def test_raw_step_overshoot_raises_numerical_failure(self):
        # at r = 0.01 the QLE term (2/r) u_x^2 of a raw step is 2e4 at the jump:
        # the explicit reaction overshoots [0, 1] in the first step
        grid = Grid1D.symmetric(126.0, 0.1)
        step = np.where(grid.x <= 0.0, 1.0, 0.0)
        with pytest.raises(FieldInvariantError, match=r"left \[0,1\] .* at t=0\.2$"):
            simulate_reduced(step, 0.1, 0.0, 0.01, grid,
                             SimConfig(dt=0.2, t_end=10.0))

    def test_strang_splitting_second_order(self):
        grid = Grid1D.symmetric(130.0, 0.2)
        u0 = pde.logistic_front(grid.x, 0.1)
        T, ends = 8.0, {}
        for dt in (0.4, 0.2, 0.1):
            cfg = SimConfig(dt=dt, t_end=T, record_every=int(T / dt))
            traj = simulate_reduced(u0, 0.1, 0.005, 0.1, grid, cfg)
            ends[dt] = traj.fields["u_reduced"][-1]
        err_coarse = np.max(np.abs(ends[0.4] - ends[0.1]))
        err_fine = np.max(np.abs(ends[0.2] - ends[0.1]))
        # clean second order against a dt/4 reference gives ratio 5
        assert err_coarse / err_fine == pytest.approx(5.0, abs=1.0)

    def test_pqd_splitting_second_order(self):
        fp = FitnessParams(sA=0.01, sB=0.005, SA=0.1, SB=0.12, r=0.1, sigma2=2.0)
        grid = Grid1D.symmetric(130.0, 0.2)
        init = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-3.0, offset_q=3.0)
        T, ends = 8.0, {}
        for dt in (0.4, 0.2, 0.1):
            cfg = SimConfig(dt=dt, t_end=T, record_every=int(T / dt))
            traj = simulate_pqd(init, fp, grid, cfg)
            ends[dt] = np.concatenate([traj.fields[k][-1] for k in ("p", "q", "D")])
        ratio = (np.max(np.abs(ends[0.4] - ends[0.1]))
                 / np.max(np.abs(ends[0.2] - ends[0.1])))
        assert ratio == pytest.approx(5.0, abs=1.0)

    # a = dt / (2 dx^2) = 2.5, 6.25 and 50
    @pytest.mark.parametrize("dt,steps", [(0.2, 50), (0.5, 20), (4.0, 20)])
    def test_crank_nicolson_decays_a_no_flux_mode_exactly(self, dt, steps):
        # S = eps = 0 and r = inf make the reaction exactly zero, so the run
        # is pure Crank-Nicolson. cos(k pi j / (n - 1)) with k even is an
        # eigenvector of the no-flux stencil with both edges at 1, eigenvalue
        # lam = -4 sin^2(k pi / (2 (n - 1))); each step multiplies it by
        # g = (1 + a lam) / (1 - a lam), a = dt / (2 dx^2). The highest mode,
        # k = n - 1, is (-1)^j with g near -1 (-0.990 at a = 50), where the
        # step's 2y - u cancels most.
        grid = Grid1D.symmetric(20.0, 0.2)
        n, a = grid.n, dt / (2.0 * grid.dx**2)
        cfg = SimConfig(dt=dt, t_end=steps * dt, record_every=5)
        done = np.arange(0, steps + 1, 5)
        for k in (4, n - 1):
            mode = np.cos(k * np.pi * np.arange(n) / (n - 1))
            lam = -4.0 * math.sin(k * math.pi / (2 * (n - 1))) ** 2
            g = (1.0 + a * lam) / (1.0 - a * lam)
            traj = simulate_reduced(0.5 + 0.5 * mode, 0.0, 0.0, math.inf, grid, cfg)
            expected = 0.5 + 0.5 * g ** done[:, np.newaxis] * mode
            assert np.max(np.abs(traj.fields["u_reduced"] - expected)) < 1e-12, k


def _reference_cnab2(init, grid, cfg, nu, make_reaction):
    """The CN-AB2 loop written the plain way, as the oracle for the core.

    Per-component Crank-Nicolson steps 2y - u with A y = u + (dt/2) F
    (A = I - aT, both sides of its edge rows halved, factored by dpttrf),
    F = 3/2 f(u_n) - 1/2 f(u_n-1) with f(u_-1) = f(u_0), np.gradient inside
    the reactions, and the reaction closure rebuilt at each step. The
    classical (I - aT) x = (I + aT) u solve differs from this step by
    rounding; `TestFactoredSolve` bounds that difference.
    Returns the states of every record_every-th step and of the last, and
    their times, step * dt in Python floats.
    """
    n, a = grid.n, nu * cfg.dt / (2.0 * grid.dx**2)
    diag = np.full(n, 1.0 + 2.0 * a)
    diag[0] = diag[-1] = 0.5 + a
    d, e, _ = dpttrf(diag, np.full(n - 1, -a))

    def diffuse(u, explicit):
        rhs = explicit.copy()
        rhs[0] *= 0.5
        rhs[-1] *= 0.5
        y = dpttrs(d, e, rhs[:, np.newaxis])[0][:, 0]
        return 2.0 * y - u

    state = np.array(init, dtype=float)
    records, times = [state.copy()], [0.0]
    n_steps = int(round(cfg.t_end / cfg.dt))
    f_old = None
    for step in range(1, n_steps + 1):
        f = make_reaction(state)(state)
        if f_old is None:
            f_old = f
        explicit = state + 0.5 * cfg.dt * (1.5 * f - 0.5 * f_old)
        state = np.array([diffuse(u, b) for u, b in zip(state, explicit)])
        f_old = f
        if step % cfg.record_every == 0 or step == n_steps:
            records.append(state.copy())
            times.append(step * cfg.dt)
    return np.array(records), np.array(times)


def _pqd_reaction(fp, dx):
    def make_reaction(_current):
        def rhs(state):
            p, q, D = state
            grad_term = fp.sigma2 * np.gradient(p, dx) * np.gradient(q, dx)
            selA = fp.SA * (2.0 * p - 1.0) + fp.sA
            selB = fp.SB * (2.0 * q - 1.0) + fp.sB
            dp = selA * p * (1.0 - p) + selB * D
            dq = selB * q * (1.0 - q) + selA * D
            dD = grad_term - (fp.r + (2.0 * p - 1.0) * selA + (2.0 * q - 1.0) * selB) * D
            return np.array([dp, dq, dD])

        return rhs

    return make_reaction


def _gamete_reaction(fp):
    T = genetics.fitness_tensor(fp)

    def make_reaction(_current):
        def rhs(state):
            return genetics._step_arrays(state, T) - state

        return rhs

    return make_reaction


def _reduced_reaction(S, eps, r, dx):
    def make_reaction(_current):
        def rhs(state):
            u = state[0]
            ux = np.gradient(u, dx)
            # the library's product form, selection x (heterozygosity + QLE D)
            du = (S * (2.0 * u - 1.0) + eps) * (u * (1.0 - u) + (2.0 / r) * ux * ux)
            return du[np.newaxis, :]

        return rhs

    return make_reaction


class TestStrangCoreMatchesReference:
    """The shared core is bit-identical to the plain CN-AB2 loop, whether
    every step is recorded or every 4th."""

    FP = FitnessParams(sA=0.01, sB=0.005, SA=0.1, SB=0.12, r=0.1, sigma2=2.0)

    def _compare(self, model, record_every):
        grid = Grid1D.symmetric(130.0, 0.2)
        dt = 0.2
        cfg = SimConfig(dt=dt, t_end=12 * dt, record_every=record_every)
        # "pqd-stacked": equal loci and equal offsets, which run as one row
        offsets = (2.0, 2.0) if model == "pqd-stacked" else (-3.0, 3.0)
        p, q, D = stacked_pqd_init(grid, 0.1, 2.0, *offsets)
        if model.startswith("pqd"):
            fp = SYMMETRIC_FP if model == "pqd-stacked" else self.FP
            init, tags = (p, q, D), ("p", "q", "D")
            traj = simulate_pqd(init, fp, grid, cfg)
            make_reaction = _pqd_reaction(fp, grid.dx)
        elif model == "gametes":
            init = (p * q + D, p * (1 - q) - D, (1 - p) * q - D, (1 - p) * (1 - q) + D)
            tags = ("u", "v", "w", "z")
            traj = simulate_gametes(init, self.FP, grid, cfg)
            make_reaction = _gamete_reaction(self.FP)
        else:
            init, tags = (p,), ("u_reduced",)
            traj = simulate_reduced(p, 0.1, 0.005, 0.1, grid, cfg)
            make_reaction = _reduced_reaction(0.1, 0.005, 0.1, grid.dx)
        nu = 1.0 if model == "reduced" else self.FP.sigma2 / 2.0
        expected, times = _reference_cnab2(init, grid, cfg, nu, make_reaction)
        assert traj.times.size == expected.shape[0] == 12 // record_every + 1
        assert np.array_equal(traj.times, times)
        for i, tag in enumerate(tags):
            assert np.array_equal(traj.fields[tag], expected[:, i]), tag
            fronts = [pde._front_of(tag, record, grid.x) for record in expected[:, i]]
            assert np.array_equal(traj.front_positions[tag], fronts), tag

    @pytest.mark.parametrize("model", ["pqd", "pqd-stacked", "gametes", "reduced"])
    def test_bit_identical(self, model):
        self._compare(model, record_every=1)

    @pytest.mark.parametrize("model", ["pqd", "pqd-stacked", "gametes", "reduced"])
    def test_bit_identical_merged_order(self, model):
        self._compare(model, record_every=4)


def _classical_cn_step(u, a):
    """(I - aT) x = (I + aT) u on no-flux edges by scipy's solve_banded, row by row."""
    n = u.shape[-1]
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -a
    ab[1] = 1.0 + 2.0 * a
    ab[0, 1] = ab[2, -2] = -2.0 * a
    explicit = u.copy()
    explicit[:, 1:-1] += a * (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2])
    explicit[:, 0] += a * (2.0 * u[:, 1] - 2.0 * u[:, 0])
    explicit[:, -1] += a * (2.0 * u[:, -2] - 2.0 * u[:, -1])
    return np.array([solve_banded((1, 1), ab, row) for row in explicit])


def _driver_cn_step(monkeypatch, u, a):
    """One step of the run driver on any (rows, nodes) data: a pure-diffusion
    run (zero reaction) of one step on unit spacing with nu = 2a, its
    initial-data and range guards switched off."""
    monkeypatch.setattr(pde, "_check_boundary_init", lambda fields: None)
    monkeypatch.setattr(pde, "_range_guard", lambda t, fields, checked: None)
    n = u.shape[-1]
    tags = [f"u{i}" for i in range(len(u))]
    traj = pde._run(u, tags, Grid1D(0.0, n - 1.0, n), SimConfig(dt=1.0, t_end=1.0),
                           2.0 * a, np.zeros_like, {})
    return np.array([traj.fields[tag][1] for tag in tags])


class TestFactoredSolve:
    """A run factors its symmetric CN matrix once by `dpttrf`; each step,
    2 A^-1 u - u by one `dpttrs`, is the classical CN solve up to rounding,
    and each state row gets the bits it would get alone."""

    # the CN matrices of the benchmark's workloads and a 3-node one
    @pytest.mark.parametrize("n, a", [(657, 2.5), (1401, 3.125), (1401, 6.25),
                                      (2401, 50.0), (3, 1.0)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_solve_banded(self, monkeypatch, n, a, k):
        u = np.random.default_rng(n + k).random((k, n))
        assert np.max(np.abs(_driver_cn_step(monkeypatch, u, a)
                             - _classical_cn_step(u, a))) <= 1e-14

    @pytest.mark.parametrize("n, a", [(657, 2.5), (2401, 50.0), (3, 1.0)])
    def test_each_row_steps_as_it_would_alone(self, monkeypatch, n, a):
        # the p = q one-row run relies on this: its row gets the bits of p and q
        u = np.random.default_rng(n).random((4, n))
        together = _driver_cn_step(monkeypatch, u, a)
        for i, row in enumerate(u):
            alone = _driver_cn_step(monkeypatch, row[np.newaxis], a)[0]
            assert np.array_equal(together[i], alone), i

    def test_one_factorization_per_run_and_one_solve_per_step(self, monkeypatch):
        counts = {"_run": 0, "dpttrf": 0, "solve_banded": 0}

        def counting(name, fn):
            def spy(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return spy

        for name in counts:
            monkeypatch.setattr(pde, name, counting(name, getattr(pde, name)))
        grid = Grid1D.symmetric(60.0, 0.5)
        cfg = SimConfig(dt=0.5, t_end=6 * 0.5, record_every=4)
        p, q, D = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-2.0, offset_q=2.0)
        simulate_pqd((p, q, D), SYMMETRIC_FP, grid, cfg)
        simulate_gametes(genetics.gametes_from_pqd(p, q, D), SYMMETRIC_FP, grid, cfg)
        simulate_reduced(p, 0.1, 0.005, 0.1, grid, cfg)
        assert counts == {"_run": 3, "dpttrf": 3, "solve_banded": 3 * 6}


class TestOneAlleleRow:
    """`simulate_pqd` runs p = q as one allele row exactly when the loci are
    equal and q is p bit for bit; anything short of that runs three rows."""

    GRID = Grid1D.symmetric(130.0, 0.2)
    CFG = SimConfig(dt=0.2, t_end=12 * 0.2, record_every=4)

    def _state_rows(self, monkeypatch, init, fp):
        rows = []
        run = pde._run

        def spy(init, *args, **kwargs):
            rows.append(len(init))
            return run(init, *args, **kwargs)

        monkeypatch.setattr(pde, "_run", spy)
        return rows, simulate_pqd(init, fp, self.GRID, self.CFG)

    def test_stacked_equal_loci_run_one_row(self, monkeypatch):
        rows, traj = self._state_rows(monkeypatch, stacked_pqd_init(self.GRID, 0.1, 2.0),
                                      SYMMETRIC_FP)
        assert rows == [2]
        assert list(traj.fields) == ["p", "q", "D"]
        assert np.array_equal(traj.fields["q"], traj.fields["p"])
        assert np.array_equal(traj.front_positions["q"], traj.front_positions["p"])
        # q is recorded into its own array
        assert not np.shares_memory(traj.fields["q"], traj.fields["p"])

    @pytest.mark.parametrize("one_row", [True, False])
    def test_fronts_are_tracked_once_per_state_row(self, monkeypatch, one_row):
        calls = []
        track = pde.front_position_values

        def spy(values, x):
            calls.append(1)
            return track(values, x)

        monkeypatch.setattr(pde, "front_position_values", spy)
        fp = SYMMETRIC_FP if one_row else dataclasses.replace(SYMMETRIC_FP, sB=1e-3)
        traj = simulate_pqd(stacked_pqd_init(self.GRID, 0.1, 2.0), fp, self.GRID, self.CFG)
        # D is tracked by the vertex of |D|; p and q by their crossing, once for u = p = q
        assert len(calls) == (1 if one_row else 2) * traj.times.size
        if one_row:
            assert np.array_equal(traj.front_positions["q"], traj.front_positions["p"])
            assert traj.front_positions["q"] is not traj.front_positions["p"]

    @pytest.mark.parametrize("one_row", [True, False])
    def test_ranges_are_checked_once_per_state_row(self, monkeypatch, one_row):
        checked = []
        rule = pde._out_of_range

        def spy(tag, values):
            checked.append(tag)
            return rule(tag, values)

        monkeypatch.setattr(pde, "_out_of_range", spy)
        fp = SYMMETRIC_FP if one_row else dataclasses.replace(SYMMETRIC_FP, sB=1e-3)
        traj = simulate_pqd(stacked_pqd_init(self.GRID, 0.1, 2.0), fp, self.GRID, self.CFG)
        # the shared u = p = q row is checked once, as p
        assert checked == (["p", "D"] if one_row else ["p", "q", "D"]) * traj.times.size
        p, q, D = stacked_pqd_init(self.GRID, 0.1, 2.0)
        p[p.size // 2] = q[q.size // 2] = 1.5
        with pytest.raises(FieldInvariantError, match=r"^p left \[0,1\] .* at t=0\.0$") as info:
            simulate_pqd((p, q, D), fp, self.GRID, self.CFG)
        assert list(info.value.diagnostics["snapshot"]) == ["p", "q", "D"]

    @pytest.mark.parametrize("change", ["q one ulp up", "signed zero", "sA != sB", "SA != SB"])
    def test_anything_short_of_exact_runs_three_rows(self, monkeypatch, change):
        p, q, D = stacked_pqd_init(self.GRID, 0.1, 2.0)
        q, fp = q.copy(), SYMMETRIC_FP
        if change == "q one ulp up":
            mid = int(np.argmin(np.abs(q - 0.5)))
            q[mid] = np.nextafter(q[mid], 1.0)
        elif change == "signed zero":  # equal under ==, not the same bits
            p = p.copy()
            p[-1], q[-1] = 0.0, -0.0
        elif change == "sA != sB":
            fp = dataclasses.replace(SYMMETRIC_FP, sB=1e-3)
        else:
            fp = dataclasses.replace(SYMMETRIC_FP, SB=0.11)
        rows, _ = self._state_rows(monkeypatch, (p, q, D), fp)
        assert rows == [3]


class TestStopRule:
    """A run ends at t_end or at the first record its stop rule accepts, and
    a reduced run is one front."""

    GRID = Grid1D.symmetric(130.0, 0.2)
    CFG = SimConfig(dt=0.2, t_end=12 * 0.2, record_every=4)  # records at steps 0, 4, 8, 12

    def _run(self, init, stop=None):
        return simulate_reduced(init, 0.1, 0.005, 0.1, self.GRID, self.CFG, stop=stop)

    def test_stops_at_the_first_accepted_record_on_the_uninterrupted_prefix(self):
        p = pde.logistic_front(self.GRID.x, 0.1)
        full = self._run(p)
        seen = []

        def second_record(record):
            seen.append(record.copy())
            return len(seen) == 2

        traj = self._run(p, stop=second_record)
        assert np.array_equal(traj.times, full.times[:3])
        assert np.array_equal(traj.fields["u_reduced"], full.fields["u_reduced"][:3])
        assert np.array_equal(traj.front_positions["u_reduced"],
                              full.front_positions["u_reduced"][:3])
        # asked at the records after t = 0 only, with the stored record
        assert len(seen) == 2
        for i, record in enumerate(seen, start=1):
            assert np.array_equal(record, full.fields["u_reduced"][i:i + 1])

    def test_a_rule_that_writes_into_its_record_leaves_later_records_alone(self):
        p = pde.logistic_front(self.GRID.x, 0.1)
        full = self._run(p)
        calls = []

        def scribble_on_the_first(record):
            calls.append(1)
            if len(calls) == 1:
                record[...] = 0.5
            return False

        traj = self._run(p, stop=scribble_on_the_first)
        assert np.array_equal(traj.times, full.times)
        # the rule wrote into its own copy; the run went on from its state
        assert np.array_equal(traj.fields["u_reduced"][2:], full.fields["u_reduced"][2:])
        assert np.array_equal(traj.front_positions["u_reduced"][2:],
                              full.front_positions["u_reduced"][2:])

    def test_a_1d_init_keeps_its_single_tag(self):
        traj = self._run(pde.logistic_front(self.GRID.x, 0.1), stop=lambda record: True)
        assert list(traj.fields) == list(traj.front_positions) == ["u_reduced"]
        assert traj.times.size == 2

    @pytest.mark.parametrize("shape", [(2, 1301), (1300,), (1, 1301), ()],
                             ids=["two-fronts", "short-front", "one-row-stack", "scalar"])
    def test_any_init_but_one_front_is_refused_by_its_shape(self, shape):
        init = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            self._run(init)


def _fig1_fields(model, cfg):
    """Recorded fields of a run on the fig1 grid, with the clines started
    close enough to stack by t = 400."""
    grid = Grid1D.symmetric(140.0, 0.2)
    init = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-2.5, offset_q=4.0)
    if model == "pqd":
        traj = simulate_pqd(init, SYMMETRIC_FP, grid, cfg)
    else:
        traj = simulate_gametes(genetics.gametes_from_pqd(*init), SYMMETRIC_FP, grid, cfg)
    return np.array([traj.fields[tag] for tag in sorted(traj.fields)])


class TestMergedStrangOrder:
    """The CN-AB2 step is second order in dt at one reaction call per step,
    and its records are plain step states."""

    # fig1's grid and record spacing (every 40 time units), one record after t = 0
    @pytest.mark.parametrize("model", ["pqd", "gametes"])
    def test_second_order_at_a_bounded_merge_cost(self, model):
        def error(dt):
            cfg = SimConfig(dt=dt, t_end=40.0, record_every=round(40.0 / dt))
            return np.max(np.abs(_fig1_fields(model, cfg)[:, -1] - fine))

        fine = _fig1_fields(model, SimConfig(dt=1 / 32, t_end=40.0, record_every=1280))[:, -1]
        # clean O(dt^2) against a dt/16 reference gives 4.05; measured 4.04 (pqd), 4.05
        assert error(0.5) / error(0.25) == pytest.approx(4.0, abs=0.4)
        # one call per step costs no accuracy: measured 6.2e-6 (pqd) and 9.8e-6
        # (gametes); the bounds are the errors of a two-call Strang step
        assert error(0.5) < {"pqd": 9e-6, "gametes": 2.4e-5}[model]

    @pytest.mark.parametrize("t_end, record_every, n_steps, records_before_last", [
        (400.0, 80, 800, 9),   # fig1 settings: records at every 80th step
        (5.0, 4, 10, 2),       # the last step is not a record
        (5.0, 1, 10, 9),       # every step recorded
    ])
    def test_reaction_evaluations(self, monkeypatch, t_end, record_every,
                                  n_steps, records_before_last):
        calls = []
        run = pde._run

        def counting(init, tags, grid, cfg, nu, rhs, summary):
            def counted(state):
                calls.append(1)
                return rhs(state)
            return run(init, tags, grid, cfg, nu, counted, summary)

        monkeypatch.setattr(pde, "_run", counting)
        traj = _fig1_fields("gametes", SimConfig(dt=0.5, t_end=t_end, record_every=record_every))
        assert traj.shape[1] == records_before_last + 2
        # one call per step, f(u_n) for step n + 1, whatever the records
        assert len(calls) == n_steps

    @pytest.mark.parametrize("model", ["pqd", "pqd-stacked", "gametes", "reduced"])
    def test_records_do_not_depend_on_record_every(self, model):
        grid = Grid1D.symmetric(130.0, 0.2)
        offsets = (2.0, 2.0) if model == "pqd-stacked" else (-3.0, 3.0)
        init = stacked_pqd_init(grid, 0.1, 2.0, *offsets)
        fp = SYMMETRIC_FP if model == "pqd-stacked" else TestStrangCoreMatchesReference.FP

        def run(record_every):
            cfg = SimConfig(dt=0.2, t_end=14 * 0.2, record_every=record_every)
            if model.startswith("pqd"):
                return simulate_pqd(init, fp, grid, cfg)
            if model == "gametes":
                return simulate_gametes(genetics.gametes_from_pqd(*init), fp, grid, cfg)
            return simulate_reduced(init[0], 0.1, 0.005, 0.1, grid, cfg)

        every, sparse = run(1), run(4)
        # steps 0, 4, 8, 12 and the last, 14
        shared = [0, 4, 8, 12, 14]
        assert np.array_equal(sparse.times, every.times[shared])
        for tag, fields in every.fields.items():
            assert np.array_equal(sparse.fields[tag], fields[shared]), tag
            assert np.array_equal(sparse.front_positions[tag],
                                  every.front_positions[tag][shared]), tag

    @pytest.mark.parametrize("model", ["pqd", "gametes"])
    def test_near_rest_fig1_run_matches_a_dt_over_8_reference(self, model):
        # fig1's grid at fig1's dt = 0.5 to t = 400, where the stacked clines
        # are near rest: a discrete steady state of reaction plus diffusion
        # is a fixed point of the step, so dt error does not pile up there.
        # Measured 4.0e-8 (pqd) and 8.2e-9 (gametes) from dt = 1/16
        ends = [_fig1_fields(model, SimConfig(dt=dt, t_end=400.0, record_every=round(400 / dt)))
                [:, -1] for dt in (0.5, 0.0625)]
        assert np.max(np.abs(ends[0] - ends[1])) < 1e-6

    def test_trailing_steps_end_in_a_record(self):
        # 10 steps recorded every 4th: the last two steps end in a record at t_end
        grid = Grid1D.symmetric(140.0, 0.2)
        init = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-2.5, offset_q=4.0)
        traj = simulate_pqd(init, SYMMETRIC_FP, grid,
                            SimConfig(dt=0.5, t_end=5.0, record_every=4))
        assert traj.times.tolist() == [0.0, 2.0, 4.0, 5.0]
        assert traj.front_positions["p"].size == 4
        # the state of step 10, bit for bit as when every step is recorded
        every = simulate_pqd(init, SYMMETRIC_FP, grid, SimConfig(dt=0.5, t_end=5.0))
        for tag in ("p", "q", "D"):
            assert np.array_equal(traj.fields[tag][-1], every.fields[tag][-1]), tag


class TestFrontTracking:
    def test_sharp_step_lands_midway(self):
        x = np.arange(0.0, 10.1, 0.5)
        vals = np.where(x <= 5.0, 1.0, 0.0)  # last 1 at node x=5.0
        assert front_position_values(vals, x) == pytest.approx(5.25)

    def test_analytic_front_location(self):
        grid = Grid1D.symmetric(30.0, 0.01)
        f = pde.logistic_front(grid.x, 0.1, center=3.0)
        assert front_position_values(f, grid.x) == pytest.approx(3.0, abs=1e-5)

    def test_node_exactly_at_level(self):
        x = np.array([0.0, 1.0, 2.0])
        assert front_position_values(np.array([1.0, 0.5, 0.0]), x) == 1.0

    @given(shift=st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, shift):
        grid = Grid1D.symmetric(40.0, 0.05)
        base = pde.logistic_front(grid.x, 0.1)
        moved = pde.logistic_front(grid.x, 0.1, center=shift)
        delta = (front_position_values(moved, grid.x)
                 - front_position_values(base, grid.x))
        assert delta == pytest.approx(shift, abs=grid.dx**2 * 2 + 1e-9)

    def test_hump_position_is_the_vertex_of_a_sampled_parabola(self):
        # dyadic nodes and values: every step of the vertex formula is exact
        x = np.arange(-8, 9) * 0.25
        for tag in ("D", "v", "w"):
            assert pde._front_of(tag, 8.0 - (x - 0.1875) ** 2, x) == 0.1875
            # a negative hump whose vertex falls midway between two tied nodes
            assert pde._front_of(tag, (x + 0.375) ** 2 / 8 - 2.0, x) == -0.375

    def test_hump_position_is_continuous_across_a_top_node_tie(self):
        # the top two nodes tie, then the second is one ulp higher and becomes
        # the argmax: both vertices are the midpoint between them
        grid = Grid1D.symmetric(20.0, 0.2)
        hump = np.exp(-((grid.x - 1.1) ** 2))
        k = int(np.argmax(hump))
        hump[k + 1] = hump[k]
        raised = hump.copy()
        raised[k + 1] = np.nextafter(hump[k], 2.0)
        assert int(np.argmax(raised)) == k + 1
        ends = [pde._front_of("v", values, grid.x) for values in (hump, raised)]
        assert abs(ends[0] - ends[1]) < 1e-12
        assert ends[0] == pytest.approx(0.5 * (grid.x[k] + grid.x[k + 1]), abs=1e-12)

    def test_hump_position_keeps_the_node_at_an_edge_or_without_curvature(self):
        x = np.arange(5) * 0.5
        assert pde._front_of("D", np.zeros(5), x) == 0.0  # D = 0 at t = 0
        assert pde._front_of("D", np.array([0.3, 0.2, 0.1, 0.0, 0.0]), x) == 0.0
        assert pde._front_of("w", np.array([0.0, 0.1, 0.2, 0.3, 0.4]), x) == 2.0
        assert pde._front_of("v", np.array([0.0, 0.1, 0.2, 0.3, 0.2]), x) == pytest.approx(1.5)

    def test_no_crossing_raises(self):
        x = np.arange(0.0, 1.01, 0.1)
        with pytest.raises(FrontTrackingError) as err:
            front_position_values(np.full(x.size, 0.8), x)
        assert err.value.diagnostics["crossings"] == 0

    def test_multiple_crossings_reports_count(self):
        x = np.linspace(0.0, 4.0 * math.pi, 200)
        with pytest.raises(FrontTrackingError) as err:
            front_position_values(0.5 + 0.4 * np.sin(x), x)
        assert err.value.diagnostics["crossings"] > 1


class TestInstantaneousSpeed:
    def _linear_trajectory(self, c):
        grid = Grid1D.symmetric(60.0, 0.1)
        times = np.linspace(0.0, 50.0, 26)
        fields = {"u_reduced": np.zeros((times.size, grid.n))}
        fronts = {"u_reduced": 1.5 + c * times}
        return pde.Trajectory(times=times, grid=grid, fields=fields,
                              front_positions=fronts)

    def test_exactly_linear_positions(self):
        traj = self._linear_trajectory(0.0321)
        assert instantaneous_speed(traj, "u_reduced", window=(0.0, 50.0)) == pytest.approx(
            0.0321, rel=1e-12)

    def test_standing_wave_speed_is_zero(self):
        u0 = profile_from_quadrature(0.1, 0.1, x_max=60.0, dx=0.1)
        grid = Grid1D(-60.0, 60.0, u0.x.size)
        cfg = SimConfig(dt=0.2, t_end=50.0, record_every=50)
        traj = simulate_reduced(u0.u, 0.1, 0.0, 0.1, grid, cfg)
        assert abs(instantaneous_speed(traj, "u_reduced", window=(0.0, 50.0))) < grid.dx / 50.0

    def test_window_too_small(self):
        traj = self._linear_trajectory(0.01)
        with pytest.raises(InsufficientSamplesError):
            instantaneous_speed(traj, "u_reduced", window=(0.0, 2.1))

    def test_unknown_tag(self):
        traj = self._linear_trajectory(0.01)
        with pytest.raises(KeyError):
            instantaneous_speed(traj, "q", window=(0.0, 50.0))


class TestTrajectoryExport:
    def test_csv_and_manifest_roundtrip(self, tmp_path):
        grid = Grid1D.symmetric(20.0, 0.5)
        init = (np.full(grid.n, 0.5), np.full(grid.n, 0.5), np.zeros(grid.n))
        cfg = SimConfig(dt=0.2, t_end=1.0, record_every=5)
        traj = simulate_pqd(init, SYMMETRIC_FP, grid, cfg)
        path = tmp_path / "out.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,D,p,q"
        assert len(lines) == 1 + traj.times.size * grid.n
        man = traj.manifest()
        assert man["grid"]["n"] == grid.n
        assert "run_id" in man and len(man["run_id"]) == 12

    def test_identical_runs_are_byte_identical(self, tmp_path):
        grid = Grid1D.symmetric(20.0, 0.5)
        init = (np.full(grid.n, 0.5), np.full(grid.n, 0.5), np.zeros(grid.n))
        cfg = SimConfig(dt=0.2, t_end=1.0, record_every=5)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        simulate_pqd(init, SYMMETRIC_FP, grid, cfg).to_csv(a)
        simulate_pqd(init, SYMMETRIC_FP, grid, cfg).to_csv(b)
        assert a.read_bytes() == b.read_bytes()
