import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnls3.ground_state as ground_state
from dnls3.errors import (
    DomainTooSmall,
    InadmissibleParameters,
    NoConvergence,
    WrongDimension,
)
from dnls3.evolution import orbit_distance
from dnls3.functionals import FunctionalReport, _parts, evaluate
from dnls3.grid import Grid, Kernel, State, norm_h1
from dnls3.ground_state import (
    GroundStateResult,
    SolverConfig,
    _descend,
    _project,
    h_curve,
    initial_ansatz,
    mu_scaling_check,
    mu_scan_points,
    pohozaev_residual,
    precondition,
    reports_below_level,
    resolvent_symbols,
    sample_below_level,
    solve_ground_state,
)
from dnls3.params import PhysParams, WaveParams

from tests.conftest import random_state

PHYS = PhysParams(1.0, 1.0, 1.0)
FAST = SolverConfig(restarts=1)


def _no_solve(*args, **kwargs):
    raise AssertionError("solved although the inputs are invalid")


@pytest.fixture(scope="module")
def gs_1d():
    return solve_ground_state(Grid(256, 40.0), PHYS, WaveParams(1.0, (0.0,)), FAST)


class TestAnsatz:
    def test_default_ansatz_on_manifold(self, grid1d_box):
        wave = WaveParams(1.0, (0.0,))
        state = initial_ansatz(grid1d_box, PHYS, wave)
        rep = evaluate(state, PHYS, wave)
        assert rep.N < 0
        assert abs(rep.K) < 1e-10 * max(1.0, rep.Lqc)

    def test_polarization_flip_changes_sign_of_N(self, grid1d_box):
        wave = WaveParams(1.0, (0.0,))
        mesh = grid1d_box.meshgrid()
        g = 2.0 * np.exp(-sum(X**2 for X in mesh) / 1.5**2)
        u = np.zeros((3, 1, *grid1d_box.shape), dtype=complex)
        u[0, 0] = g
        u[1, 0] = g
        u[2, 0] = -grid1d_box.deriv(g.astype(complex), 0)
        n_minus = evaluate(State(grid1d_box, u), PHYS, wave).N
        u[2, 0] = -u[2, 0]
        n_plus = evaluate(State(grid1d_box, u), PHYS, wave).N
        assert n_minus < 0 < n_plus
        assert abs(n_minus + n_plus) < 1e-12 * abs(n_minus)


class TestPrecondition:
    def test_zero(self, grid1d_box):
        wave = WaveParams(1.0, (0.0,))
        out = precondition(State.zeros(grid1d_box), PHYS, wave)
        assert np.max(np.abs(out.u)) == 0.0

    def test_symbol_positivity_fast_wave(self):
        g = Grid(128, 40.0)
        wave = WaveParams(1.0, (1.9,))
        for s in resolvent_symbols(g, PHYS, wave):
            assert np.min(1.0 / s) > 0

    def test_inverse_consistency(self, rng, grid1d_box):
        from dnls3.functionals import linear_symbols
        from tests.conftest import random_state

        wave = WaveParams(1.0, (0.5,))
        state = random_state(grid1d_box, rng)
        sym = linear_symbols(grid1d_box, PHYS, wave)
        forward = grid1d_box.ifft(
            np.stack([sym[j] * grid1d_box.fft(state.u[j]) for j in range(3)])
        )
        back = precondition(State(grid1d_box, forward), PHYS, wave)
        assert np.max(np.abs(back.u - state.u)) < 1e-12 * np.max(np.abs(state.u))

    def test_positive_definite_pairing(self, rng, grid1d_box):
        from tests.conftest import random_state

        wave = WaveParams(1.0, (0.5,))
        state = random_state(grid1d_box, rng)
        val = np.real(np.vdot(precondition(state, PHYS, wave).u, state.u))
        assert val > 0


class TestSolve:
    def test_converged_result_invariants(self, gs_1d):
        res = gs_1d
        assert res.mu > 0
        assert abs(res.report.K) <= 1e-8 * max(1.0, res.report.Lqc)
        assert res.histories[-1].residual[-1] < 1e-9
        assert res.report.pohozaev_residual() < 1e-6
        assert res.report.fourd_residual(res.mu) < 1e-6
        assert res.domain_converged

    def test_monotone_descent_history(self, grid1d_box):
        wave = WaveParams(1.0, (0.0,))
        start = initial_ansatz(grid1d_box, PHYS, wave)
        s_hist = _descend(grid1d_box, PHYS, wave, FAST, start)[2].S
        assert np.all(np.diff(s_hist) <= 1e-12 * (1.0 + np.abs(s_hist[:-1])))

    def test_resolution_robustness(self, gs_1d):
        fine = solve_ground_state(Grid(512, 40.0), PHYS, WaveParams(1.0, (0.0,)), FAST)
        assert abs(fine.mu - gs_1d.mu) / gs_1d.mu < 1e-4

    def test_cross_resolution_and_domain_oracle(self):
        # independent solve on a finer grid in a larger box at tighter tolerance
        wave = WaveParams(1.0, (0.0,))
        base = solve_ground_state(Grid(512, 40.0), PHYS, wave, FAST)
        oracle = solve_ground_state(
            Grid(1024, 60.0), PHYS, wave, SolverConfig(restarts=1, residual_tol=1e-11)
        )
        assert abs(base.mu - oracle.mu) / oracle.mu < 1e-4
        assert base.report.pohozaev_residual() < 1e-6
        assert abs(base.report.K) < 1e-8

    def test_deterministic_given_seed(self):
        cfg = SolverConfig(restarts=2, seed=7)
        g = Grid(256, 40.0)
        wave = WaveParams(1.0, (0.0,))
        a = solve_ground_state(g, PHYS, wave, cfg)
        b = solve_ground_state(g, PHYS, wave, cfg)
        assert a.mu == b.mu
        assert np.array_equal(a.phi.u, b.phi.u)

    def test_first_converged_descent_is_final(self, evaluate_calls):
        # the symmetries make further descents unneeded: restarts only bound the attempts
        g = Grid(256, 40.0)
        wave = WaveParams(1.0, (0.3,))
        one = solve_ground_state(g, PHYS, wave, SolverConfig(restarts=1))
        three = solve_ground_state(g, PHYS, wave, SolverConfig(restarts=3))
        assert evaluate_calls["calls"] == 2
        assert three.iterations == one.iterations
        assert np.array_equal(three.phi.u, one.phi.u)

    def test_failed_descents_all_run(self, grid1d_box):
        with pytest.raises(NoConvergence) as excinfo:
            solve_ground_state(grid1d_box, PHYS, WaveParams(1.0, (0.0,)), SolverConfig(max_iter=3, restarts=2))
        assert excinfo.value.iterations == 6
        assert excinfo.value.reason == "iteration_cap"

    def test_restarts_below_one_rejected(self):
        with pytest.raises(ValueError, match="restarts"):
            SolverConfig(restarts=0)

    def test_fractional_counts_rejected(self):
        # max_iter=10.5 ran 11 iterations, and restarts=1.5 and seed=1.5 failed
        # in range() and default_rng(); an integral float is kept as its int
        for name in ("max_iter", "seed", "restarts"):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: 1.5})
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: 10.5})
        config = SolverConfig(max_iter=10.0, seed=3.0, restarts=2.0)
        assert config == SolverConfig(max_iter=10, seed=3, restarts=2)
        assert all(isinstance(v, int) for v in (config.max_iter, config.seed, config.restarts))

    @pytest.mark.parametrize("value", [True, np.True_, "3"], ids=["bool", "numpy-bool", "string"])
    def test_strings_and_bools_rejected(self, value):
        # restarts=True and max_iter=True meant one descent of one iteration
        for name in ("max_iter", "seed", "restarts"):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})
        # "1e-9" raised TypeError in the comparison, and True was a tolerance of 1
        with pytest.raises(ValueError, match="residual_tol"):
            SolverConfig(residual_tol=value)

    def test_translated_starts_same_level(self):
        # restarts perturb the seed profile's center; the level is translation invariant
        g = Grid(256, 40.0)
        wave = WaveParams(1.0, (0.0,))
        a = solve_ground_state(g, PHYS, wave, SolverConfig(restarts=1, seed=1))
        b_start = initial_ansatz(g, PHYS, wave, center=(3.0,))
        b, rep, history = _descend(g, PHYS, wave, FAST, b_start)
        assert history.residual[-1] < 1e-9
        assert abs(rep.S - a.mu) / a.mu < 1e-6

    def test_inadmissible_rejected(self, grid1d_box):
        with pytest.raises(InadmissibleParameters):
            solve_ground_state(grid1d_box, PHYS, WaveParams(0.1, (1.0,)), FAST)

    def test_no_convergence_error(self, grid1d_box):
        with pytest.raises(NoConvergence):
            solve_ground_state(grid1d_box, PHYS, WaveParams(1.0, (0.0,)), SolverConfig(max_iter=3, restarts=1))

    def test_no_convergence_names_iteration_cap(self, grid1d_box):
        with pytest.raises(NoConvergence) as excinfo:
            solve_ground_state(grid1d_box, PHYS, WaveParams(1.0, (0.0,)), SolverConfig(max_iter=3, restarts=1))
        assert excinfo.value.reason == "iteration_cap"
        assert "iteration cap" in str(excinfo.value)

    def test_no_convergence_names_stall(self, grid1d_box):
        # below the rounding floor an accepted step no longer lowers the
        # residual, so the descent stops long before the iteration cap
        unreachable = SolverConfig(restarts=1, residual_tol=1e-300)
        with pytest.raises(NoConvergence) as excinfo:
            solve_ground_state(grid1d_box, PHYS, WaveParams(1.0, (0.0,)), unreachable)
        assert excinfo.value.reason == "residual_growth"
        assert excinfo.value.iterations < unreachable.max_iter
        assert "stalled" in str(excinfo.value)
        start = initial_ansatz(grid1d_box, PHYS, WaveParams(1.0, (0.0,)))
        assert _descend(grid1d_box, PHYS, WaveParams(1.0, (0.0,)), FAST, start)[2].termination == "converged"

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            solve_ground_state(Grid(128, 14.0), PHYS, WaveParams(1.0, (0.0,)), FAST)

    def test_domain_too_small_names_both_causes(self):
        # at omega 4 the plain 128-point grid passes on extent 8 and fails on 16 and 40: the
        # aliased product, not the box, leaves the mass, so the message names both causes
        with pytest.raises(DomainTooSmall) as excinfo:
            solve_ground_state(Grid(128, 40.0), PHYS, WaveParams(4.0, (0.0,)), FAST)
        message = str(excinfo.value)
        tail = float(re.search(r"tail mass (\S+) > 1e-6", message).group(1))
        assert 1e-6 < tail < 1.0
        assert "n=[128], extent=[40.0]" in message
        assert "box is too small" in message and "grid is too coarse" in message and "aliased product" in message
        # the descent converged: the guard refused the profile it reached
        assert [h.termination for h in excinfo.value.histories] == ["converged"]
        assert excinfo.value.record["termination"] == ["converged"]

    def test_unconverged_domain_flag(self):
        res = solve_ground_state(Grid(128, 18.0), PHYS, WaveParams(1.0, (0.0,)), FAST)
        assert res.tail_mass > 1e-8
        assert not res.domain_converged

    def test_inflated_state_beyond_well(self, gs_1d):
        # scaling a converged profile by 1.2 turns K negative with Lqc > 6 mu
        wave = gs_1d.wave
        rep = evaluate(State(gs_1d.phi.grid, 1.2 * gs_1d.phi.u), PHYS, wave)
        assert rep.K < 0
        assert rep.Lqc > 6.0 * gs_1d.mu


class CountingGenerator:
    """A numpy Generator that counts its calls and the normal variates it draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = {"standard_normal": 0, "uniform": 0}
        self.drawn = 0

    def standard_normal(self, size):
        self.calls["standard_normal"] += 1
        self.drawn += int(np.prod(size))
        return self.rng.standard_normal(size)

    def uniform(self, *args, **kwargs):
        self.calls["uniform"] += 1
        return self.rng.uniform(*args, **kwargs)


def synchronous_below_level(grid, phys, wave, mu, rng, n):
    """The well sampler drawn one round at a time, every rng call on the caller's thread.

    Returns the kept draws' Q, L, N and P columns and states, those with K < 0
    first, each side in draw order: the rows of ``reports_below_level`` and
    the states of ``sample_below_level`` for the same rng.
    """
    flags, rows, spectra, scales = [], [], [], []
    taken = taken_negative = attempts = 0
    per_round = max(1, ground_state.SAMPLE_ROUND_POINTS // (3 * grid.d * grid.size))
    while taken < n and attempts < 50 * n:
        b = min(n - taken, per_round, 50 * n - attempts)
        attempts += b
        negative = np.arange(b) < round(n / 2) - taken_negative
        F = grid.noise_spectrum(rng, (b, 3, grid.d), 2)
        Q, L, P = _parts(grid, F, phys)
        C = grid.coupling(F)
        flip = negative & (C.real > 0)
        N = np.where(flip, -C.real, C.real)
        batch = FunctionalReport.from_parts(Q, L, N, P, wave.omega, wave.c_array)
        target = rng.uniform(0.2, 0.95, size=b) * mu
        s = np.full(b, np.nan)
        for i in np.flatnonzero(N != 0.0):
            companion = np.zeros((1, 3, 3))
            companion[0, 0, 0] = -batch.Lqc[i] / 2.0 / N[i]
            companion[0, 0, 2] = target[i] / N[i]
            companion[0, 1, 0] = companion[0, 2, 1] = 1.0
            roots = np.linalg.eigvals(companion)[0]
            positive = roots.real[(np.abs(roots.imag) < 1e-10 * np.maximum(1.0, np.abs(roots))) & (roots.real > 0)]
            if positive.size:
                s[i] = positive.max() if negative[i] else positive.min()
        at = batch.scaled(s)
        kept = np.flatnonzero((at.S < mu) & np.where(negative, at.K < 0.0, at.K > 0.0))
        flags.append(negative[kept])
        rows.append((at.Q[kept], at.L[kept], at.N[kept], at.P[kept]))
        taken += len(kept)
        taken_negative += int(np.count_nonzero(negative[kept]))
        F[flip, 2] *= -1.0
        spectra.append(F[kept])
        scales.append(s[kept])
    order = np.argsort(~np.concatenate(flags), kind="stable")
    scales = np.concatenate(scales)[order].reshape(-1, *(1,) * (2 + grid.d))
    columns = tuple(np.concatenate(column)[order] for column in zip(*rows))
    return columns, scales * grid.ifft(np.concatenate(spectra)[order])


class TestSampleBelowLevel:
    @pytest.mark.parametrize("dealias", [False, True])
    def test_reports_are_the_samples_own(self, gs_1d, dealias):
        # each report is scaled from the unscaled draw's, not re-evaluated
        g = Grid(256, 40.0, dealias=dealias)
        samples = sample_below_level(g, PHYS, gs_1d.wave, gs_1d.mu, np.random.default_rng(7), 12)
        assert len(samples) == 12
        assert sum(rep.K < 0 for _, rep in samples) == 6
        for state, rep in samples:
            direct = evaluate(state, PHYS, gs_1d.wave)
            for name in ("Q", "L", "N"):
                assert getattr(rep, name) == pytest.approx(getattr(direct, name), rel=1e-12, abs=0.0), name
            assert np.all(np.abs(rep.P - direct.P) <= 1e-12 * direct.Q)
            # on the falling branch S and K are small differences of large
            # terms, so they are compared on the scale of their terms
            scale = abs(direct.L) + abs(direct.N) + abs(direct.omega * direct.Q) + abs(direct.cP)
            for name in ("E", "S", "K", "Lqc", "G", "G_display"):
                assert abs(getattr(rep, name) - getattr(direct, name)) <= 1e-12 * scale, name
            assert np.sign(rep.K) == np.sign(direct.K)
            assert np.sign(rep.N) == np.sign(direct.N)
            assert rep.S < gs_1d.mu

    def test_reports_without_states_are_the_same(self, gs_1d):
        # the same rng stream gives the samples' reports as one batch, bit for
        # bit and in the same order (K < 0 first), and leaves the rng in the same place
        g, wave = Grid(512, 40.0), WaveParams(1.0, (0.3,))
        rng_states, rng_reports = np.random.default_rng(7), np.random.default_rng(7)
        samples = sample_below_level(g, PHYS, wave, gs_1d.mu, rng_states, 200)
        batch = reports_below_level(g, PHYS, wave, gs_1d.mu, rng_reports, 200)
        for name in "QLNP":
            stacked = np.array([getattr(rep, name) for _, rep in samples])
            column = getattr(batch, name)
            assert column.shape == stacked.shape and column.tobytes() == stacked.tobytes(), name
        assert np.all(batch.K[:100] < 0.0) and np.all(batch.K[100:] > 0.0)
        assert rng_states.random() == rng_reports.random()

    @pytest.mark.parametrize("dealias", [False, True])
    def test_transforms_per_round(self, gs_1d, dealias, fft_calls):
        # each round draws its batch's spectrum, brings it to physical space
        # with one inverse transform and evaluates it with one coupling call;
        # one draw at a time took 4 per draw
        g = Grid(512, 40.0, dealias=dealias)
        rng = CountingGenerator(7)
        samples = sample_below_level(g, PHYS, WaveParams(1.0, (0.3,)), gs_1d.mu, rng, 200)
        assert len(samples) == 200
        rounds = rng.calls["standard_normal"]
        assert rounds <= 40
        assert fft_calls["calls"] <= 3 * rounds

    @pytest.mark.parametrize("dealias", [False, True])
    def test_reports_make_one_inverse_transform_per_draw(self, gs_1d, dealias, fft_calls):
        # the reports path never forms u: its inverse transforms carry the
        # 2d+1 rows u1, u2 and div u3 of each draw to the product grid, and it
        # makes no forward transform
        g = Grid(512, 40.0, dealias=dealias)
        rng = CountingGenerator(7)
        batch = reports_below_level(g, PHYS, WaveParams(1.0, (0.3,)), gs_1d.mu, rng, 200)
        assert len(batch.Q) == 200
        draws = rng.drawn // (3 * g.d * g.size * 2)
        product_points = 768 if dealias else 512
        assert fft_calls["inverse_points"] == draws * (2 * g.d + 1) * product_points
        assert fft_calls["points"] - fft_calls["inverse_points"] == 0

    @pytest.mark.parametrize(
        "points,n,level,seeds",
        [
            (512, 200, 1.0, range(2)),
            (512, 37, 1.0, range(6)),
            (512, 23, 1e4, range(6)),
            (512, 7, 3e4, range(6)),
            (512, 5, 1e8, range(6)),
            (512, 37, 1e8, range(2)),
            (512, 200, 3e4, range(1)),
            # below a negative level no draw is kept; in rounds of 21, the last
            # one before the cap of 2250 draws has 3
            (256, 45, -1.0, range(2)),
        ],
    )
    def test_sampler_matches_one_round_oracle(self, gs_1d, points, n, level, seeds):
        # the batched sampler's rows, states and the rng's position are those
        # of the oracle's round at a time with one eigensolve per draw, with
        # rejections (high levels reject rising-branch draws with N < 0) and
        # the 50 n cap
        g, wave = Grid(points, 40.0), WaveParams(1.0, (0.3,))
        for seed in seeds:
            self.assert_matches_synchronous(g, wave, level * gs_1d.mu, seed, n)

    @pytest.mark.parametrize(
        "grid,wave,n",
        [
            (Grid(512, 40.0, dealias=True), WaveParams(1.0, (0.3,)), 37),
            # a 2D round is one draw
            (Grid((128, 128), (20.0, 20.0)), WaveParams(1.0, (0.3, 0.1)), 6),
        ],
        ids=["1d-dealiased", "2d"],
    )
    def test_sampler_matches_one_round_oracle_on_other_grids(self, gs_1d, grid, wave, n):
        for seed in range(2):
            self.assert_matches_synchronous(grid, wave, gs_1d.mu, seed, n)

    @staticmethod
    def assert_matches_synchronous(grid, wave, mu, seed, n):
        rng_oracle = np.random.default_rng(seed)
        columns, states = synchronous_below_level(grid, PHYS, wave, mu, rng_oracle, n)
        after = rng_oracle.random()
        rng = np.random.default_rng(seed)
        batch = reports_below_level(grid, PHYS, wave, mu, rng, n)
        for name, column in zip("QLNP", columns):
            assert getattr(batch, name).shape == column.shape and getattr(batch, name).tobytes() == column.tobytes(), name
        assert rng.random() == after
        rng = np.random.default_rng(seed)
        samples = sample_below_level(grid, PHYS, wave, mu, rng, n)
        assert len(samples) == len(states) and np.array([state.u for state, _ in samples]).tobytes() == states.tobytes()
        for name, column in zip("QLNP", columns):
            assert np.array([getattr(rep, name) for _, rep in samples]).tobytes() == column.tobytes(), name
        assert rng.random() == after

    @pytest.mark.parametrize("failing_call", [2, 5])
    def test_draw_error_reaches_the_caller(self, gs_1d, failing_call):
        # a round's draw raises on the caller's thread, and the error leaves
        # the sampler with no thread started
        class FailingGenerator(CountingGenerator):
            def standard_normal(self, size):
                if self.calls["standard_normal"] + 1 == failing_call:
                    self.thread = threading.current_thread()
                    raise FloatingPointError("draw failed")
                return super().standard_normal(size)

        rng = FailingGenerator(7)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="draw failed"):
            reports_below_level(Grid(512, 40.0), PHYS, WaveParams(1.0, (0.3,)), gs_1d.mu, rng, 200)
        assert rng.thread is threading.main_thread()
        assert threading.active_count() == threads

    def test_round_error_stops_the_draws(self, gs_1d, monkeypatch):
        # a round that raises ends the draws: the rng was last called for that
        # round, and no thread is left behind
        g = Grid(512, 40.0)
        coupling, calls = Grid.coupling, []

        def failing_coupling(grid, F):
            calls.append(F.shape[0])
            if len(calls) == 3:
                raise FloatingPointError("round failed")
            return coupling(grid, F)

        monkeypatch.setattr(Grid, "coupling", failing_coupling)
        rng = CountingGenerator(7)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="round failed"):
            reports_below_level(g, PHYS, WaveParams(1.0, (0.3,)), gs_1d.mu, rng, 200)
        assert threading.active_count() == threads
        assert rng.calls == {"standard_normal": 3, "uniform": 3}

    def test_sampler_loads_no_thread_pool(self, gs_1d):
        # in a fresh interpreter, 200 samples of check's size draw every round
        # on the caller's thread and import no concurrent.futures
        code = (
            "import json, sys, numpy as np; "
            "from dnls3.grid import Grid; from dnls3.params import PhysParams, WaveParams; "
            "from dnls3.ground_state import reports_below_level; "
            "batch = reports_below_level(Grid(512, 40.0), PhysParams(1.0, 1.0, 1.0), WaveParams(1.0, (0.3,)), "
            f"{gs_1d.mu!r}, np.random.default_rng(7), 200); "
            "print(json.dumps([len(batch.Q), [m for m in sys.modules if m.startswith('concurrent.futures')]]))"
        )
        src = Path(ground_state.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert json.loads(run.stdout) == [200, []]

    def test_concurrent_samplers_keep_their_draws(self, gs_1d):
        # samplers on one shared grid, each with its own rng, in more threads than
        # cores, switching threads every microsecond: each gets the draws it gets
        # alone and never uses its rng from two threads at once
        class ExclusiveGenerator(CountingGenerator):
            def __init__(self, seed):
                super().__init__(seed)
                self.lock, self.busy, self.overlaps = threading.Lock(), 0, 0

            def alone(self, call, *args, **kwargs):
                with self.lock:
                    self.busy += 1
                    self.overlaps += self.busy > 1
                try:
                    return call(*args, **kwargs)
                finally:
                    with self.lock:
                        self.busy -= 1

            def standard_normal(self, size):
                return self.alone(super().standard_normal, size)

            def uniform(self, *args, **kwargs):
                return self.alone(super().uniform, *args, **kwargs)

        g, wave, seeds = Grid(256, 40.0), WaveParams(1.0, (0.3,)), range(4)
        alone = [reports_below_level(g, PHYS, wave, gs_1d.mu, np.random.default_rng(seed), 120) for seed in seeds]
        rngs, results = [ExclusiveGenerator(seed) for seed in seeds], {}

        def run(seed):
            results[seed] = reports_below_level(g, PHYS, wave, gs_1d.mu, rngs[seed], 120)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in seeds:
            assert results[seed].Q.tobytes() == alone[seed].Q.tobytes()
            assert rngs[seed].overlaps == 0

    def test_draws_stop_at_the_cap(self):
        # a ray solved for S = t mu with t < 1 ends above a negative level
        # mu, so every draw is rejected
        rng = CountingGenerator(7)
        assert sample_below_level(Grid(256, 40.0), PHYS, WaveParams(1.0, (0.0,)), -1.0, rng, 4) == []
        assert rng.drawn == 50 * 4 * 3 * 256 * 2


class TestProjectedIteration:
    def test_3d_default_config_converges(self):
        # the relative phase of u3 against u1 . conj(u2) is the stiff
        # direction here; without the phase alignment the descent stalls
        g = Grid((32, 32, 32), (20.0, 20.0, 20.0))
        wave = WaveParams(1.0, (0.0, 0.0, 0.0))
        start = initial_ansatz(g, PHYS, wave)
        _, rep, history = _descend(g, PHYS, wave, SolverConfig(), start)
        assert history.termination == "converged"
        assert history.residual[-1] < SolverConfig().residual_tol
        assert abs(rep.K) < 1e-8 * rep.Lqc
        s_hist = history.S
        assert np.all(np.diff(s_hist) <= 1e-12 * (1.0 + np.abs(s_hist[:-1])))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_transforms_per_iteration(self, dealias, fft_calls):
        # one product batch, which feeds the trial's report, its alignment
        # and its gradient: the trial is never transformed to physical space
        g = Grid(256, 40.0, dealias=dealias)
        wave = WaveParams(1.0, (0.3,))
        start = initial_ansatz(g, PHYS, wave)
        counts = []
        for max_iter in (2, 3):
            fft_calls["calls"] = 0
            history = _descend(g, PHYS, wave, SolverConfig(max_iter=max_iter, restarts=1), start)[2]
            assert history.termination == "iteration_cap"
            counts.append(fft_calls["calls"])
        assert counts[1] - counts[0] <= 2

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        dealias=st.booleans(),
        speed=st.floats(-1.0, 1.0),
    )
    def test_projection_aligns_phase_and_rescales(self, seed, d, dealias, speed):
        g = Grid((32,) * d, (12.0,) * d, dealias=dealias)
        wave = WaveParams(1.0, (speed,) + (0.0,) * (d - 1))
        state = random_state(g, np.random.default_rng(seed))
        before = evaluate(state, PHYS, wave)
        # C = N(U) - i N(U with u3 turned by i): N is the real part of C
        turned = State(g, state.u * np.array([1.0, 1.0, 1j]).reshape(3, *[1] * (d + 1)))
        abs_c = np.hypot(before.N, evaluate(turned, PHYS, wave).N)

        F, rep, dN = _project(Kernel(g), PHYS, wave, g.fft(state.u))
        after = evaluate(State(g, g.ifft(F)), PHYS, wave)
        lam2 = after.Q / before.Q
        lam = np.sqrt(lam2)
        assert after.L == pytest.approx(lam2 * before.L, rel=1e-12)
        assert np.allclose(after.P, lam2 * before.P, rtol=1e-12, atol=1e-12 * lam2 * before.Q)
        assert after.N / lam**3 == pytest.approx(-abs_c, rel=1e-12)
        assert after.N / lam**3 <= before.N + 1e-12 * abs_c
        assert abs(after.K) <= 1e-12 * after.Lqc
        # the report and nonlinear gradient carried through the projection are the projected state's own
        assert rep.S == pytest.approx(after.S, rel=1e-12, abs=1e-12 * after.Lqc)
        direct = Kernel(g).nonlinear_gradient(F)
        assert np.allclose(dN, direct, rtol=0, atol=1e-12 * np.max(np.abs(direct)))


# the grids and speeds on which the mixed descent is held to its oracles
MIXING_CASES = [(Grid(256, 40.0), (0.3,)), (Grid(256, 40.0, dealias=True), (0.2,)), (Grid((32, 32), (16.0, 16.0)), (0.2, 0.0))]
MIXING_IDS = ["1d-plain", "1d-dealiased", "2d"]


def lstsq_descent(grid, wave, config, start):
    """The descent as it mixed before its history sat in ring slots: (S, iterations, termination).

    The oracle of ``_descend``'s step: the history in lists, oldest first,
    with one dot product per Gram entry and per entry of the right-hand
    side, gamma from ``np.linalg.lstsq`` and the mix made one column at a
    time. The projection, the acceptance, the retry of a failed mixed trial,
    the halving and the stall window are ``_descend``'s.
    """
    sym_inv = resolvent_symbols(grid, PHYS, wave)
    weights = (1.0 + grid.k2) * grid.weight
    root = np.sqrt(weights)
    kernel = Kernel(grid)

    def iterate(F):
        projected = _project(kernel, PHYS, wave, F)
        if projected is None:
            return None
        F, rep, dN = projected
        Fpg = sym_inv * dN + F
        wpg = (root * Fpg).view(np.float64).ravel()
        return F, rep, Fpg, wpg, float(np.sqrt(np.dot(wpg, wpg) / np.sum(weights * np.abs(F) ** 2)))

    F, rep, Fpg, wpg, residual = iterate(grid.fft(start.u))
    dG, dW, best, stale, it = [], [], residual, 0, 0
    while residual >= config.residual_tol and it < config.max_iter:
        it += 1
        step, mixed = ground_state.STEP, bool(dG)
        if mixed:
            gram = [[np.dot(v, w) for w in dW] for v in dW]
            gamma = np.linalg.lstsq(gram, [np.dot(w, wpg) for w in dW], rcond=None)[0]
        while True:
            F_trial = F - step * Fpg
            if mixed:
                for g, d in zip(gamma, dG):
                    F_trial -= g * d
            trial = iterate(F_trial)
            if trial is not None and trial[1].S <= rep.S + 1e-12 * (1.0 + abs(rep.S)):
                break
            if mixed:
                mixed, dG, dW = False, [], []
                continue
            step *= 0.5
            if step < 1e-10:
                return rep.S, it, "invalid_step"
        if trial[4] < best:
            best, stale = trial[4], 0
        elif stale == ground_state.MEMORY:
            return rep.S, it, "residual_growth"
        else:
            stale += 1
        dG.append((trial[0] - F) - ground_state.STEP * (trial[2] - Fpg))
        dW.append(trial[3] - wpg)
        if len(dG) > ground_state.MEMORY:
            del dG[0], dW[0]
        F, rep, Fpg, wpg, residual = trial
    return rep.S, it, "converged" if residual < config.residual_tol else "iteration_cap"


class TestMomentum:
    @pytest.mark.parametrize("grid, c", MIXING_CASES, ids=MIXING_IDS)
    def test_same_minimizer_as_plain_iteration(self, monkeypatch, grid, c):
        # the iteration without mixing is the oracle: the same level, and
        # the same profile up to the translations and the gauge
        wave = WaveParams(1.0, c)
        start = initial_ansatz(grid, PHYS, wave)
        mixed, rep, history = _descend(grid, PHYS, wave, FAST, start)
        monkeypatch.setattr(ground_state, "MEMORY", 0)
        plain, rep0, history0 = _descend(grid, PHYS, wave, FAST, start)
        assert history.termination == history0.termination == "converged"
        assert abs(rep.S - rep0.S) <= 1e-12 * rep0.S
        assert orbit_distance(mixed, plain).distance <= 1e-7 * norm_h1(plain)
        assert history.iterations < history0.iterations
        assert history.mixed.any() and not history0.mixed.any()

    def test_rejected_mixed_trials_still_converge(self, monkeypatch):
        # on this coarse 2D grid a mixed trial raises S: it is retried as a
        # plain step and the history is dropped; the descent still reaches
        # the plain level
        g = Grid((32, 32), (16.0, 16.0))
        wave = WaveParams(1.0, (0.2, 0.0))
        start = initial_ansatz(g, PHYS, wave)
        monkeypatch.setattr(ground_state, "MEMORY", 0)
        _, rep0, _ = _descend(g, PHYS, wave, FAST, start)
        monkeypatch.undo()
        projections = {"calls": 0}
        project = ground_state._project

        def counting(*args):
            projections["calls"] += 1
            return project(*args)

        monkeypatch.setattr(ground_state, "_project", counting)
        _, rep, history = _descend(g, PHYS, wave, FAST, start)
        assert history.termination == "converged"
        assert history.residual[-1] < FAST.residual_tol
        assert abs(rep.S - rep0.S) <= 1e-12 * rep0.S
        # one projection of the start and one per iteration, plus the rejected trials
        assert projections["calls"] > history.iterations + 1
        # after the first step the history is never empty, so a plain step is a retry
        assert not history.mixed[2:].all()
        s_hist = history.S
        assert np.all(np.diff(s_hist) <= 1e-12 * (1.0 + np.abs(s_hist[:-1])))

    # Iterations a projected heavy-ball descent (step 0.9 plus 0.4 times the
    # previous move, the same safeguards, stopping when a plain step does not
    # lower the residual) takes from the same seed to stall at
    # residual_tol = 1e-300.
    HEAVY_BALL_STALL = {
        ("plain-64", 0.0): 81,
        ("plain-64", 0.9): 81,
        ("plain-64", 1.9): 78,
        ("plain-256", 0.0): 80,
        ("plain-256", 0.9): 100,
        ("plain-256", 1.9): 81,
        ("dealiased-512", 0.0): 97,
        ("dealiased-512", 0.9): 86,
        ("dealiased-512", 1.9): 76,
    }
    GRIDS = {"plain-64": Grid(64, 40.0), "plain-256": Grid(256, 40.0), "dealiased-512": Grid(512, 40.0, dealias=True)}

    @pytest.mark.parametrize("grid, c", list(HEAVY_BALL_STALL), ids=[f"{g}-c{c}" for g, c in HEAVY_BALL_STALL])
    def test_unreachable_tolerance_stalls(self, grid, c):
        # below the rounding floor the best residual stops falling: the
        # descent ends MEMORY + 1 accepted steps later, sooner than heavy-ball
        g, wave = self.GRIDS[grid], WaveParams(1.0, (c,))
        unreachable = SolverConfig(restarts=1, residual_tol=1e-300)
        _, rep, history = _descend(g, PHYS, wave, unreachable, initial_ansatz(g, PHYS, wave))
        assert history.termination == "residual_growth"
        assert history.iterations < self.HEAVY_BALL_STALL[grid, c]
        # the rejected last trial is the MEMORY + 1st in a row not to lower the best residual
        best = np.minimum.accumulate(history.residual)
        window = ground_state.MEMORY + 1
        assert history.residual[-window] == best[-1] < best[-window - 1]
        assert history.residual.min() < 1e-14
        s_hist = history.S
        assert np.all(np.diff(s_hist) <= 1e-12 * (1.0 + np.abs(s_hist[:-1])))

    def test_history_rows(self):
        g = Grid(256, 40.0)
        wave = WaveParams(1.0, (0.3,))
        res = solve_ground_state(g, PHYS, wave, FAST)
        (history,) = res.histories
        assert history.termination == "converged"
        assert len(history.S) == res.iterations + 1
        assert history.step[0] == 0.0 and not history.mixed[0]
        assert np.all(history.step[1:] > 0.0)
        assert history.S[-1] == res.mu
        # the first step has no history to mix
        assert not history.mixed[1]

    def test_iterations_count_the_rejected_last_trial(self, grid1d_box):
        # a converged descent begins one iteration per accepted trial; one
        # that stops on a rejected trial has begun that iteration too
        wave = WaveParams(1.0, (0.0,))
        start = initial_ansatz(grid1d_box, PHYS, wave)
        converged = _descend(grid1d_box, PHYS, wave, FAST, start)[2]
        assert converged.termination == "converged"
        assert converged.iterations == len(converged.S) - 1
        unreachable = SolverConfig(restarts=2, residual_tol=1e-300)
        stalled = _descend(grid1d_box, PHYS, wave, unreachable, start)[2]
        assert stalled.termination == "residual_growth"
        assert stalled.iterations == len(stalled.S)
        with pytest.raises(NoConvergence) as excinfo:
            solve_ground_state(grid1d_box, PHYS, wave, unreachable)
        histories = excinfo.value.histories
        assert [h.termination for h in histories] == ["residual_growth"] * 2
        assert excinfo.value.iterations == sum(h.iterations for h in histories) == sum(len(h.S) for h in histories)
        # a stalled descent reports the best residual it reached, not its last
        assert excinfo.value.residual == min(histories[-1].residual) < histories[-1].residual[-1]
        assert f"{excinfo.value.residual:.3e}" in str(excinfo.value)


class TestMixingStep:
    @pytest.mark.parametrize("grid, c", MIXING_CASES, ids=MIXING_IDS)
    def test_same_level_as_the_lstsq_mixing(self, grid, c):
        # the ring slots and the k x k solve reach the level of the list history and lstsq
        wave = WaveParams(1.0, c)
        start = initial_ansatz(grid, PHYS, wave)
        _, rep, history = _descend(grid, PHYS, wave, FAST, start)
        S, _, termination = lstsq_descent(grid, wave, FAST, start)
        assert history.termination == termination == "converged"
        assert abs(rep.S - S) <= 1e-12 * S

    @staticmethod
    def recorded_descent(monkeypatch, grid, wave, solve):
        """The descent's history, every projection it made and the fits ``solve`` made for it.

        Each fit is recorded as (projections made before it, Gram block, right-hand side).
        """
        projections, fits = [], []
        project = ground_state._project

        def recording_project(*args):
            projections.append(project(*args))
            return projections[-1]

        def recording_solve(a, b):
            fits.append((len(projections), a.copy(), b.copy()))
            return solve(len(fits), a, b)

        monkeypatch.setattr(ground_state, "_project", recording_project)
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        history = _descend(grid, PHYS, wave, FAST, initial_ansatz(grid, PHYS, wave))[2]
        monkeypatch.undo()
        return history, projections, fits

    def test_gram_block_is_the_ring_slots_gram(self, monkeypatch):
        # each fit sees the Gram matrix and right-hand side of the differences in their
        # ring slots: the i-th difference since the history was dropped sits in slot
        # i mod MEMORY, also after the ring wraps around
        g, wave = Grid(256, 40.0), WaveParams(1.0, (0.3,))
        solve = np.linalg.solve
        history, projections, fits = self.recorded_descent(monkeypatch, g, wave, lambda _, a, b: solve(a, b))
        # no trial was rejected, so the projections are the accepted states and nothing was dropped
        assert history.termination == "converged" and len(projections) == history.iterations + 1
        assert len(fits) == history.iterations - 1 > 2 * ground_state.MEMORY
        sym_inv = resolvent_symbols(g, PHYS, wave)
        root = np.sqrt((1.0 + g.k2) * g.weight)
        wpg = np.array([(root * (sym_inv * dN + F)).view(np.float64).ravel() for F, _, dN in projections])
        dW = np.diff(wpg, axis=0)
        for made, gram, rhs in fits:
            held = made - 1
            slots = np.empty((min(held, ground_state.MEMORY), dW.shape[1]))
            for i in range(held):
                slots[i % ground_state.MEMORY] = dW[i]
            norms = np.linalg.norm(slots, axis=1)
            # to rounding: a dot product's error is bounded by eps times the size times the norms
            assert np.all(np.abs(gram - slots @ slots.T) <= 1e-12 * np.outer(norms, norms))
            assert np.all(np.abs(rhs - slots @ wpg[held]) <= 1e-12 * norms * np.linalg.norm(wpg[held]))

    @pytest.mark.parametrize("fault", ["duplicated_row", "non_finite"])
    def test_failed_fit_takes_a_plain_step_and_drops_the_history(self, monkeypatch, fault):
        # the fit of iteration 5, over 4 differences, sees a history whose second row
        # repeats its first (an exactly singular Gram block) or returns a non-finite gamma
        g, wave = Grid(256, 40.0), WaveParams(1.0, (0.3,))
        solve = np.linalg.solve

        def duplicated(a):
            a = a.copy()
            a[1], a[:, 1] = a[0], a[:, 0]
            return a

        def faulty(count, a, b):
            if count != 4:
                return solve(a, b)
            return np.full(len(b), np.inf) if fault == "non_finite" else solve(duplicated(a), b)

        history, projections, fits = self.recorded_descent(monkeypatch, g, wave, faulty)
        with pytest.raises(np.linalg.LinAlgError):
            solve(duplicated(fits[3][1]), fits[3][2])
        assert history.termination == "converged"
        # the failed fit costs no projection: its trial is plain from the start
        assert len(projections) == history.iterations + 1
        assert [len(b) for _, _, b in fits[:6]] == [1, 2, 3, 4, 1, 2]
        assert history.mixed[4] and not history.mixed[5] and history.mixed[6]
        assert history.step[5] == ground_state.STEP
        _, rep, _ = _descend(g, PHYS, wave, FAST, initial_ansatz(g, PHYS, wave))
        assert abs(history.S[-1] - rep.S) <= 1e-12 * rep.S

    def test_non_finite_start_ends_the_descent(self, grid1d_box):
        # a NaN residual ended the loop at once and was labelled iteration_cap
        wave = WaveParams(1.0, (0.3,))
        u = initial_ansatz(grid1d_box, PHYS, wave).u.copy()
        u[0, 0, 100] = np.nan
        # the start's coupling is NaN: the phase NaN / NaN that would align it warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            history = _descend(grid1d_box, PHYS, wave, FAST, State(grid1d_box, u))[2]
        assert history.termination == "non_finite"
        assert history.iterations == 0 and np.isnan(history.residual[0])
        error = NoConvergence([history])
        assert error.reason == "non_finite" and "not finite" in str(error)

    @pytest.mark.parametrize("part", ["action", "residual"])
    def test_descent_going_non_finite_says_so(self, monkeypatch, grid1d_box, part):
        # the fourth projection, the trial of iteration 3, has an action of -inf (which
        # passes the acceptance test) or a NaN gradient: the descent ends after it
        wave = WaveParams(1.0, (0.3,))
        project, calls = ground_state._project, []

        def failing(*args):
            F, rep, dN = project(*args)
            calls.append(None)
            if len(calls) == 4:
                rep, dN = (dataclasses.replace(rep, S=-np.inf), dN) if part == "action" else (rep, dN * np.nan)
            return F, rep, dN

        monkeypatch.setattr(ground_state, "_project", failing)
        history = _descend(grid1d_box, PHYS, wave, FAST, initial_ansatz(grid1d_box, PHYS, wave))[2]
        assert history.termination == "non_finite"
        assert history.iterations == len(history.S) - 1 == 3 < FAST.max_iter
        assert not np.isfinite(history.S[-1] + history.residual[-1])


class TestStepHalving:
    def test_plain_step_that_raises_the_action_is_halved(self, monkeypatch, grid1d_box):
        # with a step of 3 the component rescalings' error grows by 1 - 2 * 3 = -5 per
        # step: the first plain trial raises S, and 3 / 4 is the first step that does not
        wave = WaveParams(1.0, (0.3,))
        start = initial_ansatz(grid1d_box, PHYS, wave)
        _, rep0, _ = _descend(grid1d_box, PHYS, wave, FAST, start)
        monkeypatch.setattr(ground_state, "STEP", 3.0)
        _, rep, history = _descend(grid1d_box, PHYS, wave, FAST, start)
        assert history.termination == "converged"
        assert history.step[1] == 0.75 and not history.mixed[1]
        assert np.all(np.diff(history.S) <= 1e-12 * (1.0 + np.abs(history.S[:-1])))
        assert abs(rep.S - rep0.S) <= 1e-12 * rep0.S

    def test_descent_whose_every_trial_fails_ends_invalid_step(self, monkeypatch, grid1d_box):
        # every trial after the start has an action of +inf, above any level: the plain
        # step is halved from STEP until it is below 1e-10, 0.9 / 2**33 being the last tried
        wave = WaveParams(1.0, (0.3,))
        project, calls = ground_state._project, []

        def rising(*args):
            F, rep, dN = project(*args)
            calls.append(None)
            return F, (rep if len(calls) == 1 else dataclasses.replace(rep, S=np.inf)), dN

        monkeypatch.setattr(ground_state, "_project", rising)
        history = _descend(grid1d_box, PHYS, wave, FAST, initial_ansatz(grid1d_box, PHYS, wave))[2]
        assert history.termination == "invalid_step"
        assert history.iterations == 1 and len(history.S) == 1
        assert len(calls) == 1 + 34
        error = NoConvergence([history])
        assert error.reason == "invalid_step" and "halving the step below 1e-10" in str(error)


class TestIdentities:
    def test_pohozaev_large_off_solution(self, grid1d_box):
        wave = WaveParams(1.0, (0.0,))
        state = initial_ansatz(grid1d_box, PHYS, wave)
        assert pohozaev_residual(state, PHYS, wave) > 1e-2

    def test_fourd_residual_off_minimizer(self, gs_1d):
        scaled_phi = State(gs_1d.phi.grid, 1.1 * gs_1d.phi.u)
        rep = evaluate(scaled_phi, gs_1d.phys, gs_1d.wave)
        assert rep.fourd_residual(rep.S) > 1e-2

    def test_mu_scaling_small(self, monkeypatch):
        # omega=1 point is exact by construction
        pts = mu_scaling_check(Grid(512, 40.0), PHYS, (0.0,), [1.0, 2.0], FAST)
        assert pts[0].rel_error == 0.0
        assert pts[1].rel_error < 1e-3
        assert pts[1].q_scaling_error < 1e-6
        # the margins of the omega=1e308 point pass float range: the scan is refused
        # before its first solve, with the error the CLI reports for the same omegas
        monkeypatch.setattr(ground_state, "solve_ground_state", _no_solve)
        with pytest.raises(InadmissibleParameters, match=r"\(omega, c\)=\(1e\+308, \[0.0\]\) is not admissible"):
            mu_scaling_check(Grid(512, 40.0), PHYS, (0.0,), [1.0, 2.0, 1e308], FAST)

    def test_mu_scaling_unit_failure_marks_every_point(self, monkeypatch):
        # the laws go through the unit-frequency solve: without it no point has a value
        def fail(grid, phys, wave, config):
            raise DomainTooSmall("tail")

        monkeypatch.setattr(ground_state, "solve_ground_state", fail)
        pts = mu_scaling_check(Grid(64, 10.0), PHYS, (0.0,), [0.5, 1.0], FAST)
        assert [p.status for p in pts] == ["DomainTooSmall"] * 2
        assert all(np.isnan([p.mu, p.mu_predicted, p.rel_error, p.q_scaling_error]).all() for p in pts)

    def test_mu_scan_unit_refuses_a_speed_past_float_range_without_warning(self):
        # its message formed sigma |c|^2 / 4 through np.linalg.norm, which warned "overflow encountered in dot"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InadmissibleParameters, match=r"sigma\*\|c\|\^2/4=inf"):
                mu_scan_points(PhysParams(), (1e200,), [1.0])

    def test_q_scaling_error_is_the_charge_law_of_separate_solves(self):
        # Q(omega, sqrt(omega) c0) = omega^{1-d/2} Q(1, c0) between independent solves
        grid, c0, omegas = Grid(512, 40.0), 0.3, [0.5, 2.0]
        pts = mu_scaling_check(grid, PHYS, (c0,), omegas, FAST)
        q1 = solve_ground_state(grid, PHYS, WaveParams(1.0, (c0,)), FAST).report.Q
        for pt, omega in zip(pts, omegas):
            q = solve_ground_state(grid, PHYS, WaveParams(omega, (np.sqrt(omega) * c0,)), FAST).report.Q
            law = omega ** (1 - grid.d / 2) * q1
            assert abs(pt.q_scaling_error - abs(q - law) / law) <= 1e-12
            assert pt.q_scaling_error < 1e-8


class TestScalingCurve:
    @pytest.mark.parametrize("scale", [0.0, -0.5, np.nan])
    def test_off_the_branch_raises(self, scale):
        wave = WaveParams(2.0, (0.3,))
        with pytest.raises(InadmissibleParameters, match="branch"):
            wave.on_curve(scale)
        with pytest.raises(InadmissibleParameters, match="branch"):
            wave.on_curve(omega=scale)

    def test_point_keeps_its_frequency_and_admissibility(self):
        wave = WaveParams(2.0, (0.3, -0.4))
        s, point = wave.on_curve(omega=0.5)
        assert (s, point.omega) == (0.5, 0.5)
        assert point.c == (0.15, -0.2)
        s, point = wave.on_curve(1.5)
        assert point.omega == 4.5 and np.array_equal(point.c_array, 1.5 * wave.c_array)
        # sigma = 1: (2, |c| = 0.5) is admissible, and so is every point of its curve
        assert point.admissible(PHYS) and wave.admissible(PHYS)

    def test_mu_scaling_solves_at_exactly_the_listed_omegas(self, monkeypatch):
        # sqrt(omega)^2 differs from omega in the last bit for most omegas (0.5 among them)
        omegas = [0.5, 0.7, 1.0, 3.0, 10.0]
        assert any(np.sqrt(w) ** 2 != w for w in omegas)
        solved = []

        def record(grid, phys, wave, config):
            solved.append(wave)
            return SimpleNamespace(mu=1.0, report=SimpleNamespace(Q=1.0))

        monkeypatch.setattr(ground_state, "solve_ground_state", record)
        pts = mu_scaling_check(Grid(64, 10.0), PHYS, (0.3,), omegas, FAST)
        assert [w.omega for w in solved] == [1.0, 0.5, 0.7, 3.0, 10.0]
        assert [w.c for w in solved] == [(0.3,)] + [(np.sqrt(w) * 0.3,) for w in (0.5, 0.7, 3.0, 10.0)]
        assert [p.omega for p in pts] == omegas
        # d = 1: the level law s^3 and the charge law s through the unit solve
        for p in pts:
            assert abs(p.mu_predicted - p.omega**1.5) <= 1e-14 * p.omega**1.5
            assert abs(p.q_scaling_error - abs(1.0 - np.sqrt(p.omega)) / np.sqrt(p.omega)) <= 1e-14


class TestCarriedReport:
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_solved_profile_is_not_evaluated_again(self, evaluate_calls, restarts):
        wave = WaveParams(1.0, (0.3,))
        res = solve_ground_state(Grid(256, 40.0), PHYS, wave, SolverConfig(restarts=restarts))
        # one evaluation, of the first ansatz: its descent converges and carries the report
        assert evaluate_calls["calls"] == 1
        rep = evaluate(res.phi, PHYS, wave)
        assert abs(res.report.pohozaev_residual() - pohozaev_residual(res.phi, PHYS, wave)) <= 1e-12
        assert abs(res.report.fourd_residual(res.mu) - rep.fourd_residual(res.mu)) <= 1e-12


class TestStabilityMarginAndThreshold:
    def test_margin_equals_charge_at_zero_speed(self, gs_1d):
        margin = gs_1d.report.stability_margin()
        assert abs(margin - gs_1d.report.Q) < 1e-10 * gs_1d.report.Q
        assert margin > 0
        # in M*: the display quantity omega Q + c.P reaches the level 0
        assert gs_1d.report.G_display >= 0


class TestHCurve:
    def test_h_curve_1d(self):
        rep = h_curve(Grid(256, 40.0), PHYS, WaveParams(1.0, (0.0,)), config=FAST)
        assert rep.rel_h1 < 2e-2
        assert rep.rel_h2 < 5e-2
        # closed-form curve should track the solved levels
        assert np.max(np.abs(rep.mu_values - rep.mu_curve_predicted) / rep.mu_values) < 1e-3

    @pytest.mark.parametrize("tau_step", [0.5, 0.8])
    def test_tau_step_off_the_curve_raises_before_solving(self, monkeypatch, tau_step):
        # at omega = 1 the point at tau = 2 tau_step has scale 1 - 2 tau_step <= 0
        solves = []
        monkeypatch.setattr(ground_state, "solve_ground_state", lambda *args: solves.append(args))
        with pytest.raises(InadmissibleParameters, match="tau_step"):
            h_curve(Grid(256, 40.0), PHYS, WaveParams(1.0, (0.3,)), tau_step=tau_step, config=FAST)
        assert solves == []

    def test_tau_step_just_below_the_bound_passes(self, monkeypatch):
        omega = 16.0
        tau_step = 0.5 * np.sqrt(omega) * (1.0 - 1e-9)
        solved = []

        def solve(grid, phys, wave, config):
            solved.append(wave)
            return SimpleNamespace(mu=1.0, report=SimpleNamespace(Q=1.0, cP=0.0))

        monkeypatch.setattr(ground_state, "solve_ground_state", solve)
        rep = h_curve(Grid(256, 40.0), PHYS, WaveParams(omega, (0.3,)), tau_step=tau_step, config=FAST)
        assert len(solved) == 5 and all(w.omega > 0 and w.c[0] > 0 for w in solved)
        assert solved[2] == WaveParams(omega, (0.3,))
        assert rep.mu_curve_predicted[-1] < 1e-20

    def test_h_curve_rejects_3d(self, monkeypatch):
        # refused before the first solve, with the error the CLI reports for the same grid
        g3 = Grid((8, 8, 8), (10.0, 10.0, 10.0))
        monkeypatch.setattr(ground_state, "solve_ground_state", _no_solve)
        with pytest.raises(WrongDimension, match="d=3"):
            h_curve(g3, PHYS, WaveParams(1.0, (0.0, 0.0, 0.0)), config=FAST)
