"""Unit tests for the spatial integrators, front tracking, and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from clinewave import genetics, pde
from clinewave.errors import (
    FieldInvariantError,
    FrontTrackingError,
    InsufficientSamplesError,
)
from clinewave.genetics import FitnessParams, bistable_f, logistic_g
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
                pde._range_guard(1.0, {tag: np.array(values)})


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
        grid = Grid1D.symmetric(126.0, 0.1)
        step = np.where(grid.x <= 0.0, 1.0, 0.0)
        with pytest.raises(FieldInvariantError):
            simulate_reduced(step, 0.1, 0.0, 0.1, grid,
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

    @pytest.mark.parametrize("dt,steps", [(0.2, 50), (0.5, 20)])
    def test_crank_nicolson_decays_a_no_flux_mode_exactly(self, dt, steps):
        # S = eps = 0 and r = inf make the reaction exactly zero, so the run
        # is pure Crank-Nicolson. cos(k pi j / (n - 1)) with k even is an
        # eigenvector of the no-flux stencil with both edges at 1, eigenvalue
        # lam = -4 sin^2(k pi / (2 (n - 1))); each step multiplies it by
        # g = (1 + a lam) / (1 - a lam), a = dt / (2 dx^2).
        grid = Grid1D.symmetric(20.0, 0.2)
        k, n = 4, grid.n
        mode = np.cos(k * np.pi * np.arange(n) / (n - 1))
        lam = -4.0 * math.sin(k * math.pi / (2 * (n - 1))) ** 2
        a = dt / (2.0 * grid.dx**2)
        g = (1.0 + a * lam) / (1.0 - a * lam)
        cfg = SimConfig(dt=dt, t_end=steps * dt, record_every=5)
        traj = simulate_reduced(0.5 + 0.5 * mode, 0.0, 0.0, math.inf, grid, cfg)
        done = np.arange(0, steps + 1, 5)
        expected = 0.5 + 0.5 * g ** done[:, np.newaxis] * mode
        assert np.max(np.abs(traj.fields["u_reduced"] - expected)) < 1e-12


def _reference_strang(init, grid, cfg, nu, make_reaction, merged=False):
    """The Strang loop written the plain way, as the oracle for the core.

    Per-component validated solve_banded, np.gradient inside the
    reactions, and the reaction closure rebuilt at each substep entry.
    Classic order: half reaction, diffusion, half reaction at every step.
    Merged order: the two half-reactions between consecutive steps become
    one reaction over dt unless a record or the last step falls between.
    Returns the recorded states and their times, step * dt in Python floats.
    """
    n, a = grid.n, nu * cfg.dt / (2.0 * grid.dx**2)
    ab = np.zeros((3, n))
    ab[0, 1:] = -a
    ab[1] = 1.0 + 2.0 * a
    ab[2, :-1] = -a
    ab[0, 1] = ab[2, -2] = -2.0 * a

    def explicit(u, coef):
        out = u.copy()
        out[1:-1] += coef * (u[2:] - 2.0 * u[1:-1] + u[:-2])
        out[0] += coef * (2.0 * u[1] - 2.0 * u[0])
        out[-1] += coef * (2.0 * u[-2] - 2.0 * u[-1])
        return out

    def diffuse(u):
        return solve_banded((1, 1), ab, explicit(u, a))

    def rk4(rhs, y, dt):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    state = np.array(init, dtype=float)
    records, times = [state.copy()], [0.0]
    half = 0.5 * cfg.dt
    n_steps = int(round(cfg.t_end / cfg.dt))
    split = True  # the previous step closed with a half reaction
    for step in range(1, n_steps + 1):
        if split:
            state = rk4(make_reaction(state), state, half)
        state = np.array([diffuse(comp) for comp in state])
        recorded = step % cfg.record_every == 0
        split = not merged or recorded or step == n_steps
        if split:
            state = rk4(make_reaction(state), state, half)
        else:
            state = rk4(make_reaction(state), state, cfg.dt)
        if recorded:
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
    def make_reaction(_current):
        def rhs(state):
            u, v, w, z = state
            nu_, nv_, nw_, nz_ = genetics._step_arrays(u, v, w, z, fp)
            return np.array([nu_ - u, nv_ - v, nw_ - w, nz_ - z])

        return rhs

    return make_reaction


def _reduced_reaction(S, eps, r, dx):
    def make_reaction(_current):
        def rhs(state):
            u = state[0]
            ux = np.gradient(u, dx)
            du = (S * bistable_f(u) + eps * logistic_g(u)
                  + (2.0 / r) * (S * (2.0 * u - 1.0) + eps) * ux * ux)
            return du[np.newaxis, :]

        return rhs

    return make_reaction


class TestStrangCoreMatchesReference:
    """The shared core is bit-identical to the plain Strang loops: the
    classic order when every step is recorded, the merged order otherwise."""

    FP = FitnessParams(sA=0.01, sB=0.005, SA=0.1, SB=0.12, r=0.1, sigma2=2.0)

    def _compare(self, model, record_every, merged):
        grid = Grid1D.symmetric(130.0, 0.2)
        dt = 0.2
        cfg = SimConfig(dt=dt, t_end=12 * dt, record_every=record_every)
        p, q, D = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-3.0, offset_q=3.0)
        if model == "pqd":
            init, tags = (p, q, D), ("p", "q", "D")
            traj = simulate_pqd(init, self.FP, grid, cfg)
            make_reaction = _pqd_reaction(self.FP, grid.dx)
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
        expected, times = _reference_strang(init, grid, cfg, nu, make_reaction, merged)
        assert traj.times.size == expected.shape[0] == 12 // record_every + 1
        assert np.array_equal(traj.times, times)
        for i, tag in enumerate(tags):
            assert np.array_equal(traj.fields[tag], expected[:, i]), tag
            fronts = [pde._front_of(tag, record, grid.x) for record in expected[:, i]]
            assert np.array_equal(traj.front_positions[tag], fronts), tag

    @pytest.mark.parametrize("model", ["pqd", "gametes", "reduced"])
    def test_bit_identical(self, model):
        # every step recorded: nothing to merge, so the classic loop
        self._compare(model, record_every=1, merged=False)

    @pytest.mark.parametrize("model", ["pqd", "gametes", "reduced"])
    def test_bit_identical_merged_order(self, model):
        self._compare(model, record_every=4, merged=True)

    @pytest.mark.parametrize("model", ["pqd", "gametes", "reduced"])
    def test_restart_from_a_record_continues_bit_for_bit(self, model):
        # every run opens with a half reaction and every record closes with
        # one, so a run restarted from its record at step 4 repeats the rest
        grid = Grid1D.symmetric(130.0, 0.2)
        p, q, D = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-3.0, offset_q=3.0)
        simulate, init = {
            "pqd": (lambda y, cfg: simulate_pqd(y, self.FP, grid, cfg), (p, q, D)),
            "gametes": (lambda y, cfg: simulate_gametes(y, self.FP, grid, cfg),
                        genetics.gametes_from_pqd(p, q, D)),
            "reduced": (lambda y, cfg: simulate_reduced(y, 0.1, 0.005, 0.1, grid, cfg), p),
        }[model]
        full = simulate(init, SimConfig(dt=0.2, t_end=12 * 0.2, record_every=4))
        restart = simulate([arr[1] for arr in full.fields.values()],
                           SimConfig(dt=0.2, t_end=8 * 0.2, record_every=4))
        for tag, arr in full.fields.items():
            assert np.array_equal(restart.fields[tag], arr[1:]), tag


class TestStopRule:
    """A run ends at t_end or at the first record its stop rule accepts, and
    a (k, n) reduced run is k independent fronts."""

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

    def test_rows_run_as_independent_fronts_bit_for_bit(self):
        rows = np.stack([pde.logistic_front(self.GRID.x, 0.1, center=c) for c in (0.0, 3.0)])
        both = self._run(rows)
        assert sorted(both.fields) == ["u_reduced0", "u_reduced1"]
        for i, row in enumerate(rows):
            alone = self._run(row)
            tag = f"u_reduced{i}"
            assert np.array_equal(both.times, alone.times)
            assert np.array_equal(both.fields[tag], alone.fields["u_reduced"]), tag
            assert np.array_equal(both.front_positions[tag],
                                  alone.front_positions["u_reduced"]), tag


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
    """Merging half-reactions moves the answer far less than dt does."""

    @pytest.mark.parametrize("model", ["pqd", "gametes"])
    def test_gap_to_classic_order_is_below_its_discretisation_error(self, model):
        # record_every = 1 runs the classic order (pinned above)
        classic = _fig1_fields(model, SimConfig(dt=0.5, t_end=400.0))[:, ::80]
        merged = _fig1_fields(model, SimConfig(dt=0.5, t_end=400.0, record_every=80))
        fine = _fig1_fields(model, SimConfig(dt=0.125, t_end=400.0, record_every=320))
        gap = np.max(np.abs(merged - classic))
        error = np.max(np.abs(classic - fine))
        # merging two RK4 half steps into one full step changes only the
        # reaction's O(dt^4) error, against the splitting's O(dt^2)
        assert 0.0 < gap < 1e-2 * error

    @pytest.mark.parametrize("t_end, record_every, n_steps, records_before_last", [
        (400.0, 80, 800, 9),   # fig1 settings: records at every 80th step
        (5.0, 4, 10, 2),       # the last step is not a record
        (5.0, 1, 10, 9),       # every step recorded: the classic loop
    ])
    def test_reaction_evaluations(self, monkeypatch, t_end, record_every,
                                  n_steps, records_before_last):
        calls = []
        run_strang = pde._run_strang

        def counting(init, tags, grid, cfg, nu, rhs, summary):
            def counted(state):
                calls.append(1)
                return rhs(state)
            return run_strang(init, tags, grid, cfg, nu, counted, summary)

        monkeypatch.setattr(pde, "_run_strang", counting)
        _fig1_fields("gametes", SimConfig(dt=0.5, t_end=t_end, record_every=record_every))
        # four RK4 stages per reaction substep: one opening half, one
        # substep after each diffusion, one more half after each earlier record
        assert len(calls) == 4 * (1 + n_steps + records_before_last)

    def test_trailing_steps_end_in_a_record(self):
        # 10 steps recorded every 4th: the last two steps end in a record at t_end
        grid = Grid1D.symmetric(140.0, 0.2)
        init = stacked_pqd_init(grid, 0.1, 2.0, offset_p=-2.5, offset_q=4.0)
        traj = simulate_pqd(init, SYMMETRIC_FP, grid,
                            SimConfig(dt=0.5, t_end=5.0, record_every=4))
        assert traj.times.tolist() == [0.0, 2.0, 4.0, 5.0]
        assert traj.front_positions["p"].size == 4
        # a complete Strang state: the classic loop's at t = 5 up to the merge
        # gap (3e-9), where one step earlier is 6e-4 away
        classic = simulate_pqd(init, SYMMETRIC_FP, grid, SimConfig(dt=0.5, t_end=5.0))
        for tag in ("p", "q", "D"):
            assert np.max(np.abs(traj.fields[tag][-1] - classic.fields[tag][-1])) < 1e-7


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

    def test_no_crossing_raises(self):
        x = np.arange(0.0, 1.01, 0.1)
        with pytest.raises(FrontTrackingError) as err:
            front_position_values(np.full(x.size, 0.8), x)
        assert err.value.crossings == 0

    def test_multiple_crossings_reports_count(self):
        x = np.linspace(0.0, 4.0 * math.pi, 200)
        with pytest.raises(FrontTrackingError) as err:
            front_position_values(0.5 + 0.4 * np.sin(x), x)
        assert err.value.crossings > 1


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
        assert instantaneous_speed(traj, "u_reduced") == pytest.approx(0.0321, rel=1e-12)

    def test_standing_wave_speed_is_zero(self):
        u0 = profile_from_quadrature(0.1, 0.1, x_max=60.0, dx=0.1)
        grid = Grid1D(-60.0, 60.0, u0.x.size)
        cfg = SimConfig(dt=0.2, t_end=50.0, record_every=50)
        traj = simulate_reduced(u0.u, 0.1, 0.0, 0.1, grid, cfg)
        assert abs(instantaneous_speed(traj, "u_reduced")) < grid.dx / 50.0

    def test_window_too_small(self):
        traj = self._linear_trajectory(0.01)
        with pytest.raises(InsufficientSamplesError):
            instantaneous_speed(traj, "u_reduced", window=(0.0, 2.1))

    def test_unknown_tag(self):
        traj = self._linear_trajectory(0.01)
        with pytest.raises(KeyError):
            instantaneous_speed(traj, "q")


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
