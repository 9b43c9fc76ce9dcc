import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls3.errors import (
    DegenerateNonlinearity,
    DomainTooSmall,
    InadmissibleParameters,
    NoConvergence,
    WrongDimension,
)
from dnls3.functionals import evaluate, potential
from dnls3.grid import Grid, State, norm_h1
from dnls3.ground_state import (
    AnsatzConfig,
    GroundStateResult,
    SolverConfig,
    _descend,
    _project,
    gwp2d_threshold,
    h_curve,
    identity_4minusd_check,
    initial_ansatz,
    mu_scaling_check,
    pohozaev_residual,
    precondition,
    resolvent_symbols,
    solve_ground_state,
    stability_margin,
)
from dnls3.params import PhysParams, WaveParams

from tests.conftest import random_state

PHYS = PhysParams(1.0, 1.0, 1.0)
FAST = SolverConfig(restarts=1)


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

    def test_zero_amplitude_degenerate(self, grid1d_box):
        with pytest.raises((DegenerateNonlinearity, ValueError)):
            initial_ansatz(grid1d_box, PHYS, WaveParams(1.0, (0.0,)), AnsatzConfig(amplitude=0.0))

    def test_polarization_flip_changes_sign_of_N(self, grid1d_box):
        from dnls3.functionals import potential

        wave = WaveParams(1.0, (0.0,))
        mesh = grid1d_box.meshgrid()
        g = 2.0 * np.exp(-sum(X**2 for X in mesh) / 1.5**2)
        u = np.zeros((3, 1, *grid1d_box.shape), dtype=complex)
        u[0, 0] = g
        u[1, 0] = g
        u[2, 0] = -grid1d_box.deriv(g.astype(complex), 0)
        n_minus = potential(State(grid1d_box, u))
        u[2, 0] = -u[2, 0]
        n_plus = potential(State(grid1d_box, u))
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
        val = np.real(grid1d_box.inner(state.u, precondition(state, PHYS, wave).u))
        assert val > 0


class TestSolve:
    def test_converged_result_invariants(self, gs_1d):
        res = gs_1d
        assert res.mu > 0
        assert abs(res.report.K) <= 1e-8 * max(1.0, res.report.Lqc)
        assert res.final_residual < 1e-9
        assert res.pohozaev_residual < 1e-6
        assert res.fourd_residual < 1e-6
        assert res.domain_converged

    def test_monotone_descent_history(self, grid1d_box):
        wave = WaveParams(1.0, (0.0,))
        start = initial_ansatz(grid1d_box, PHYS, wave)
        _, _, _, _, s_hist, _ = _descend(grid1d_box, PHYS, wave, FAST, start)
        s_hist = np.asarray(s_hist)
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
        assert base.pohozaev_residual < 1e-6
        assert abs(base.report.K) < 1e-8

    def test_deterministic_given_seed(self):
        cfg = SolverConfig(restarts=2, seed=7)
        g = Grid(256, 40.0)
        wave = WaveParams(1.0, (0.0,))
        a = solve_ground_state(g, PHYS, wave, cfg)
        b = solve_ground_state(g, PHYS, wave, cfg)
        assert a.mu == b.mu
        assert np.array_equal(a.phi.u, b.phi.u)

    def test_translated_starts_same_level(self):
        # restarts perturb the seed profile's center; the level is translation invariant
        g = Grid(256, 40.0)
        wave = WaveParams(1.0, (0.0,))
        a = solve_ground_state(g, PHYS, wave, SolverConfig(restarts=1, seed=1))
        b_start = initial_ansatz(g, PHYS, wave, AnsatzConfig(), center=(3.0,))
        b, rep, _, res, _, _ = _descend(g, PHYS, wave, FAST, b_start)
        assert res < 1e-9
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
        *_, termination = _descend(grid1d_box, PHYS, WaveParams(1.0, (0.0,)), FAST, start)
        assert termination == "converged"

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            solve_ground_state(Grid(128, 14.0), PHYS, WaveParams(1.0, (0.0,)), FAST)

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


class TestProjectedIteration:
    def test_3d_default_config_converges(self):
        # the relative phase of u3 against u1 . conj(u2) is the stiff
        # direction here; without the phase alignment the descent stalls
        g = Grid((32, 32, 32), (20.0, 20.0, 20.0))
        wave = WaveParams(1.0, (0.0, 0.0, 0.0))
        start = initial_ansatz(g, PHYS, wave)
        _, rep, _, residual, s_hist, termination = _descend(g, PHYS, wave, SolverConfig(), start)
        assert termination == "converged"
        assert residual < SolverConfig().residual_tol
        assert abs(rep.K) < 1e-8 * rep.Lqc
        assert np.all(np.diff(s_hist) <= 1e-12 * (1.0 + np.abs(s_hist[:-1])))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_transforms_per_iteration(self, dealias, fft_calls):
        # one inverse transform of the trial and one product batch, which
        # feeds the trial's report, its alignment and its gradient
        g = Grid(256, 40.0, dealias=dealias)
        wave = WaveParams(1.0, (0.3,))
        start = initial_ansatz(g, PHYS, wave)
        counts = []
        for max_iter in (2, 3):
            fft_calls["calls"] = 0
            *_, termination = _descend(g, PHYS, wave, SolverConfig(max_iter=max_iter, restarts=1), start)
            assert termination == "iteration_cap"
            counts.append(fft_calls["calls"])
        assert counts[1] - counts[0] <= 3

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
        abs_c = np.hypot(before.N, potential(turned))

        F, u, rep, products = _project(g, PHYS, wave, g.fft(state.u))
        after = evaluate(State(g, u), PHYS, wave)
        lam2 = after.Q / before.Q
        lam = np.sqrt(lam2)
        assert after.L == pytest.approx(lam2 * before.L, rel=1e-12)
        assert np.allclose(after.P, lam2 * before.P, rtol=1e-12, atol=1e-12 * lam2 * before.Q)
        assert after.N / lam**3 == pytest.approx(-abs_c, rel=1e-12)
        assert after.N / lam**3 <= before.N + 1e-12 * abs_c
        assert abs(after.K) <= 1e-12 * after.Lqc
        # the report and products carried through the projection are the projected state's own
        assert rep.S == pytest.approx(after.S, rel=1e-12, abs=1e-12 * after.Lqc)
        assert np.allclose(F, g.fft(u), rtol=0, atol=1e-12 * np.max(np.abs(F)))
        direct = g.coupling_spectra(F, u)
        assert np.allclose(products, direct, rtol=0, atol=1e-12 * np.max(np.abs(direct)))


class TestIdentities:
    def test_pohozaev_large_off_solution(self, grid1d_box):
        wave = WaveParams(1.0, (0.0,))
        state = initial_ansatz(grid1d_box, PHYS, wave)
        assert pohozaev_residual(state, PHYS, wave) > 1e-2

    def test_fourd_residual_off_minimizer(self, gs_1d):
        import dataclasses

        scaled_phi = State(gs_1d.phi.grid, 1.1 * gs_1d.phi.u)
        rep = evaluate(scaled_phi, gs_1d.phys, gs_1d.wave)
        fake = dataclasses.replace(gs_1d, phi=scaled_phi, mu=rep.S, report=rep)
        assert identity_4minusd_check(fake) > 1e-2

    def test_mu_scaling_small(self):
        # omega=1 point is exact by construction; the dilation cross-check
        # needs the finer grid to keep the sqrt(2)-dilated profile in band
        pts = mu_scaling_check(Grid(512, 40.0), PHYS, (0.0,), [1.0, 2.0], FAST)
        assert pts[0].rel_error == 0.0
        assert pts[1].rel_error < 1e-3
        assert pts[1].q_scaling_error < 1e-6


class TestStabilityMarginAndThreshold:
    def test_margin_equals_charge_at_zero_speed(self, gs_1d):
        m = stability_margin(gs_1d)
        assert abs(m.margin - gs_1d.report.Q) < 1e-10 * gs_1d.report.Q
        assert m.margin > 0
        assert m.in_mstar

    def test_margin_rejects_3d(self, gs_1d):
        import dataclasses

        g3 = Grid((8, 8, 8), (10.0, 10.0, 10.0))
        fake = dataclasses.replace(
            gs_1d, phi=State.zeros(g3), wave=WaveParams(1.0, (0.0, 0.0, 0.0))
        )
        with pytest.raises(WrongDimension):
            stability_margin(fake)

    def test_threshold_rejects_1d(self, gs_1d):
        with pytest.raises(WrongDimension):
            gwp2d_threshold(gs_1d)


class TestHCurve:
    def test_h_curve_1d(self):
        rep = h_curve(Grid(256, 40.0), PHYS, WaveParams(1.0, (0.0,)), config=FAST)
        assert rep.rel_h0 < 1e-10  # same solve
        assert rep.rel_h1 < 2e-2
        assert rep.rel_h2 < 5e-2
        # closed-form curve should track the solved levels
        assert np.max(np.abs(rep.mu_values - rep.mu_curve_predicted) / rep.mu_values) < 1e-3

    def test_h_curve_rejects_3d(self):
        g3 = Grid((8, 8, 8), (10.0, 10.0, 10.0))
        with pytest.raises(WrongDimension):
            h_curve(g3, PHYS, WaveParams(1.0, (0.0, 0.0, 0.0)), config=FAST)
