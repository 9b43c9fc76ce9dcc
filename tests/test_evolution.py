import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls3 import evolution
from dnls3.cli import run_subcommand
from dnls3.errors import FitWindowEmpty, InadmissibleParameters, NonFinite
from dnls3.evolution import (
    EvolutionTrace,
    EvolveConfig,
    _linear_phases,
    _orbit_to,
    coupling_rhs,
    decay_rate_fit,
    evolve,
    gauge_apply,
    h1_perturbation,
    orbit_distance,
    perturbed,
    sandwich_points,
    solitary_wave,
    stability_experiment,
    step,
)
from dnls3.functionals import FunctionalReport, WellMembership, _report, coercivity_certificate, evaluate, gauge_phases, linear_symbols
from dnls3.grid import Grid, Kernel, State, _norm_h1, norm_h1
from dnls3.ground_state import SolverConfig, solve_ground_state
from dnls3.params import MASSES, PhysParams, WaveParams
from dnls3.snapshot import save_field

from tests.conftest import band_limited_state, random_state, reference_nonlinear_gradient

PHYS = PhysParams(1.0, 1.0, 1.0)
WAVE0 = WaveParams(1.0, (0.0,))


def smooth_state(grid, amp=1.0):
    """Localized smooth three-component data with all couplings active."""
    mesh = grid.meshgrid()
    r2 = sum(X**2 for X in mesh)
    g = amp * np.exp(-r2)
    u = np.zeros((3, grid.d, *grid.shape), dtype=complex)
    u[0, 0] = g * np.exp(1j * mesh[0])
    u[1, 0] = 0.8 * g
    u[2, 0] = -grid.deriv(g.astype(complex), 0) * np.exp(0.5j * mesh[0])
    return State(grid, u)


def fd_deriv(f, h, axis):
    """4th-order centered difference, the independent discretization oracle."""
    return (
        -np.roll(f, -2, axis=axis)
        + 8 * np.roll(f, -1, axis=axis)
        - 8 * np.roll(f, 1, axis=axis)
        + np.roll(f, 2, axis=axis)
    ) / (12 * h)


def rhs(state):
    """Full right side -i (kappa k2 F + dN) of the flow, in physical space, from the coupling kernel."""
    g = state.grid
    kappa = np.array([PHYS.alpha, PHYS.beta, PHYS.gamma]).reshape(3, *[1] * (g.d + 1))
    F = g.fft(state.u)
    return g.ifft(-1j * (kappa * g.k2 * F + Kernel(g).nonlinear_gradient(F)))


class TestRhs:
    def test_zero_state(self, grid1d_box):
        assert np.max(np.abs(rhs(State.zeros(grid1d_box)))) == 0.0

    def test_linear_when_uncoupled(self):
        g = Grid(128, 20.0)
        state = smooth_state(g)
        u = state.u.copy()
        u[1] = 0.0
        u[2] = 0.0
        out = rhs(State(g, u))
        expected = 1j * PHYS.alpha * g.deriv(g.deriv(u[0], 0), 0)
        assert np.max(np.abs(out[0] - expected)) < 1e-12
        assert np.max(np.abs(out[1:])) < 1e-13

    def test_matches_finite_difference_oracle(self):
        def discrepancy(n):
            g = Grid(n, 20.0)
            h = g.spacing[0]
            state = smooth_state(g)
            u1, u2, u3 = state.u1, state.u2, state.u3
            div_u3 = fd_deriv(u3[0], h, -1)
            q = u1[0] * np.conj(u2[0])
            fd = np.zeros_like(state.u)
            lap = lambda f: fd_deriv(fd_deriv(f, h, -1), h, -1)
            fd[0, 0] = 1j * (PHYS.alpha * lap(u1[0]) + div_u3 * u2[0])
            fd[1, 0] = 1j * (PHYS.beta * lap(u2[0]) + np.conj(div_u3) * u1[0])
            fd[2, 0] = 1j * (PHYS.gamma * lap(u3[0]) - fd_deriv(q, h, -1))
            out = rhs(state)
            return np.max(np.abs(out - fd)), h, np.max(np.abs(out))

        err64, h, scale = discrepancy(64)
        err128, _, _ = discrepancy(128)
        # discrepancy is the oracle's own truncation: fourth order in h
        assert err64 < 20 * h**4 * scale
        assert 12 < err64 / err128 < 20


class TestLinearPropagator:
    """The exact linear flow, exp(-i kappa_j |xi|^2 t) on the spectrum."""

    @staticmethod
    def propagate(state, t):
        g = state.grid
        return g.ifft(_linear_phases(g, PHYS, t) * g.fft(state.u))

    def test_identity_at_zero_time(self, rng):
        g = Grid(64, 11.0)
        state = random_state(g, rng)
        out = self.propagate(state, 0.0)
        assert np.max(np.abs(out - state.u)) < 1e-14

    def test_single_mode_phase(self):
        g = Grid(64, 2 * np.pi)
        xi0 = 3.0
        u = np.zeros((3, 1, 64), dtype=complex)
        u[0, 0] = np.exp(1j * xi0 * g.axes[0])
        out = self.propagate(State(g, u), 0.37)
        expected = np.exp(-1j * PHYS.alpha * xi0**2 * 0.37) * u[0, 0]
        assert np.max(np.abs(out[0, 0] - expected)) < 1e-13

    def test_unitarity_and_reversal(self, rng):
        g = Grid(64, 11.0)
        state = random_state(g, rng)
        fwd = State(g, self.propagate(state, 0.83))
        mods = np.abs(g.fft(fwd.u))
        assert np.max(np.abs(mods - np.abs(g.fft(state.u)))) < 1e-13
        back = self.propagate(fwd, -0.83)
        assert np.max(np.abs(back - state.u)) < 1e-13


class TestStep:
    def test_zero_coupling_is_exact_propagator(self):
        g = Grid(128, 20.0)
        state = smooth_state(g)
        u = state.u.copy()
        u[1] = 0.0
        u[2] = 0.0
        state = State(g, u)
        out = step(state, PHYS, 0.01, "strang")
        exact = g.ifft(_linear_phases(g, PHYS, 0.01) * g.fft(state.u))
        assert np.max(np.abs(out.u - exact)) < 1e-14

    @pytest.mark.parametrize("scheme,min_slope", [("strang", 2.0), ("if_rk4", 3.9)])
    def test_self_convergence_order(self, scheme, min_slope):
        g = Grid(128, 20.0)
        state = smooth_state(g)
        T = 0.2

        def run(dt):
            U = state
            n = int(round(T / dt))
            for _ in range(n):
                U = step(U, PHYS, dt, scheme)
            return U

        ref = run(1.25e-4)
        dts = np.array([4e-3, 2e-3, 1e-3])
        errs = np.array([norm_h1(State(g, run(dt).u - ref.u)) for dt in dts])
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= min_slope

    def test_unknown_scheme(self, grid1d_box):
        with pytest.raises(ValueError):
            step(State.zeros(grid1d_box), PHYS, 0.01, "euler")

    @pytest.mark.parametrize("scheme", ["euler", "Strang", "", None])
    def test_unknown_scheme_refused_by_the_config(self, tmp_path, capsys, scheme):
        with pytest.raises(ValueError, match="unknown scheme"):
            EvolveConfig(scheme=scheme)
        out = tmp_path / "out"
        doc = {"grid": {"n": [64], "extent": [10.0]}, "evolve": {"scheme": scheme}}
        capsys.readouterr()
        assert run_subcommand(["evolve", "--config", json.dumps(doc), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("evolve.scheme: unknown scheme")
        assert not out.exists()

    def test_fractional_record_stride_rejected(self):
        # a stride of 2.5 recorded every 5 steps; an integral float is kept as its int
        with pytest.raises(ValueError, match="record_stride"):
            EvolveConfig(record_stride=2.5)
        assert EvolveConfig(record_stride=5.0).record_stride == 5
        assert isinstance(EvolveConfig(record_stride=5.0).record_stride, int)

    @pytest.mark.parametrize("value", [True, np.True_, "10"], ids=["bool", "numpy-bool", "string"])
    def test_string_and_bool_record_stride_rejected(self, value):
        # record_stride=True recorded every step
        with pytest.raises(ValueError, match="record_stride"):
            EvolveConfig(record_stride=value)

    @pytest.mark.parametrize("value", [True, np.True_, "1e-3"], ids=["bool", "numpy-bool", "string"])
    def test_string_and_bool_times_rejected(self, value):
        # dt=True stepped with dt = 1, and "1e-3" raised TypeError in the comparison
        for name in ("dt", "t_final"):
            with pytest.raises(ValueError, match=name):
                EvolveConfig(**{name: value})


class TestEvolve:
    def test_zero_stays_zero(self, grid1d_box):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            final, trace = evolve(
                State.zeros(grid1d_box), PHYS, WAVE0, EvolveConfig(dt=1e-2, t_final=0.1)
            )
        assert np.max(np.abs(final.u)) == 0.0
        assert np.all(trace.Q == 0.0)

    def test_zero_time_single_row(self, grid1d_box):
        state = smooth_state(grid1d_box)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            final, trace = evolve(state, PHYS, WAVE0, EvolveConfig(dt=1e-2, t_final=0.0))
        assert len(trace.times) == 1
        rep = evaluate(state, PHYS, WAVE0)
        assert trace.Q[0] == rep.Q
        assert np.array_equal(final.u, state.u) and final.u is not state.u

    def test_short_conservation(self):
        g = Grid(256, 40.0, dealias=True)
        state = smooth_state(g, amp=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, trace = evolve(state, PHYS, WAVE0, EvolveConfig(dt=1e-3, t_final=0.2, record_stride=20))
        assert trace.drift("Q") < 1e-10
        assert trace.drift("P") < 1e-10
        assert trace.drift("E") < 1e-6

    @pytest.mark.parametrize("scheme", ["strang", "if_rk4"])
    @pytest.mark.parametrize("n,dealias,c,dt", [(256, False, 0.3, 1e-3), (512, True, 0.2, 5e-4)], ids=["plain", "dealiased"])
    def test_each_gauge_charge_is_conserved(self, scheme, n, dealias, c, dt):
        # the gauge (e^{ia} u1, e^{ib} u2, e^{i(a-b)} u3) has two parameters, so
        # Q_a = (n1 + n3)/2 and Q_b = (n2 - n3)/2, n_j = ||u_j||^2, are each
        # conserved (Q = 2 Q_a + Q_b), while a perturbed ground state trades
        # mass between the components; kappa = (2, 1, 3) is a generic triple,
        # and dt kappa_max xi_max^2 < pi keeps the step below the split-step edge
        grid, wave, phys = Grid(n, 40.0, dealias=dealias), WaveParams(1.0, (c,)), PhysParams(2.0, 1.0, 3.0)
        start = perturbed(solve_ground_state(grid, phys, wave, SolverConfig()).phi, 5e-2, 0)
        end, _ = evolve(start, phys, wave, EvolveConfig(dt=dt, t_final=1.0, record_stride=1000, scheme=scheme))

        def masses(state):
            return np.array([np.sum(np.abs(u) ** 2) * grid.weight for u in state.u])

        def charges(n1, n2, n3):
            return np.array([(n1 + n3) / 2, (n2 - n3) / 2])

        before, after = masses(start), masses(end)
        assert np.max(np.abs(after - before) / before) > 1e-4
        # the bound of criterion 6's Q drift
        assert np.all(np.abs(charges(*after) - charges(*before)) < 1e-8 * np.abs(charges(*before)))

    def test_wellposedness_warning(self, grid1d_box):
        # alpha == gamma sits outside the known local theory
        with pytest.warns(UserWarning):
            evolve(
                State.zeros(grid1d_box),
                PhysParams(1.0, 1.0, 1.0),
                WAVE0,
                EvolveConfig(dt=1e-2, t_final=0.01),
            )

    def test_time_reversal_by_conjugation(self):
        # t -> -t with componentwise conjugation is an exact symmetry
        g = Grid(128, 20.0)
        state = smooth_state(g, amp=0.8)
        cfg = EvolveConfig(dt=1e-3, t_final=0.25, record_stride=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            U1, _ = evolve(state, PhysParams(1.0, 1.0, 0.5), WAVE0, cfg)
            back, _ = evolve(State(g, np.conj(U1.u)), PhysParams(1.0, 1.0, 0.5), WAVE0, cfg)
            # one-way self-convergence error as the comparison scale
            half = EvolveConfig(dt=5e-4, t_final=0.25, record_stride=1000)
            U1_half, _ = evolve(state, PhysParams(1.0, 1.0, 0.5), WAVE0, half)
        one_way = norm_h1(State(g, U1.u - U1_half.u))
        reversal = norm_h1(State(g, np.conj(back.u) - state.u))
        assert reversal < 10 * max(one_way, 1e-13)

    def test_divergence_event(self):
        g = Grid(64, 10.0)
        state = smooth_state(g, amp=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NonFinite) as excinfo:
                evolve(state, PHYS, WAVE0, EvolveConfig(dt=50.0, t_final=5000.0, record_stride=1))
        err = excinfo.value
        assert err.time > 0
        assert err.trace.divergence_time == err.time
        assert np.all(np.isfinite(err.trace.Q))


class TestGaugeAndSolitaryWave:
    def test_identity(self, rng):
        g = Grid(64, 11.0)
        state = random_state(g, rng)
        out = gauge_apply(state, 0.0)
        assert np.array_equal(out.u, state.u)
        snap = solitary_wave(state, WAVE0, 0.0)
        assert np.max(np.abs(snap.u - state.u)) < 1e-12

    def test_pi_gauge(self, rng):
        g = Grid(64, 11.0)
        state = random_state(g, rng)
        out = gauge_apply(state, np.pi)
        assert np.max(np.abs(out.u1 - state.u1)) < 1e-12
        assert np.max(np.abs(out.u2 + state.u2)) < 1e-12
        assert np.max(np.abs(out.u3 + state.u3)) < 1e-12

    def test_functionals_gauge_invariant(self, rng):
        g = Grid(64, 11.0)
        wave = WaveParams(1.0, (0.4,))
        state = random_state(g, rng)
        rep = evaluate(state, PHYS, wave)
        rep_g = evaluate(gauge_apply(state, 0.73), PHYS, wave)
        for name in ("Q", "L", "N", "S", "K"):
            assert abs(getattr(rep, name) - getattr(rep_g, name)) < 1e-12 * max(
                1.0, abs(getattr(rep, name))
            )


class TestOrbitDistance:
    def test_self_distance_zero(self):
        g = Grid(256, 40.0)
        phi = smooth_state(g)
        od = orbit_distance(phi, phi)
        assert od.distance < 1e-10

    def test_exact_orbit_point_recovery(self):
        g = Grid(256, 40.0)
        phi = smooth_state(g)
        y0 = 16 * g.spacing[0]
        moved = gauge_apply(State(g, g.translate(phi.u, y0)), 0.7)
        od = orbit_distance(moved, phi)
        assert od.distance < 1e-8
        assert abs(od.shift[0] - y0) < 1e-5
        # diagonal gauge: u1 carries twice the phase of u2/u3
        assert abs(od.phase1 - 1.4) < 1e-5
        assert abs(od.phase2 - 0.7) < 1e-5
        assert abs(od.theta - 0.7) < 1e-5

    @pytest.mark.parametrize("n,extent", [(256, 40.0), ((16, 32), (6.0, 9.0))])
    def test_transform_count(self, n, extent, fft_calls):
        # the spectra of U and phi, then the three gauge blocks' pairings in one batched transform
        g = Grid(n, extent)
        phi = smooth_state(g)
        moved = gauge_apply(phi, 0.3)
        before = fft_calls["calls"]
        orbit_distance(moved, phi)
        assert fft_calls["calls"] - before == 3

    def test_relative_phase_recovery(self):
        # a state gauged off the diagonal is still on the minimizer orbit
        g = Grid(256, 40.0)
        phi = smooth_state(g)
        u = phi.u.copy()
        u[0] *= np.exp(0.4j)
        u[1] *= np.exp(1.1j)
        u[2] *= np.exp(1j * (0.4 - 1.1))
        od = orbit_distance(State(g, u), phi)
        assert od.distance < 1e-8
        assert abs(od.phase1 - 0.4) < 1e-5
        assert abs(od.phase2 - 1.1) < 1e-5

    def test_noise_upper_bound(self, rng):
        g = Grid(256, 40.0)
        phi = smooth_state(g)
        delta = 1e-3
        noise = h1_perturbation(g, rng)
        od = orbit_distance(State(g, phi.u + delta * noise.u), phi)
        assert od.distance <= delta * (1 + 1e-6)

    def test_zero_state_distance_is_the_norm(self):
        # W = 0: the refine stops at once, with no step to scale
        g = Grid(256, 40.0)
        phi = smooth_state(g)
        zero = State.zeros(g)
        assert abs(orbit_distance(zero, phi).distance - norm_h1(phi)) <= 1e-14 * norm_h1(phi)
        assert abs(orbit_distance(phi, zero).distance - norm_h1(phi)) <= 1e-14 * norm_h1(phi)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            orbit_distance(smooth_state(Grid(64, 10.0)), smooth_state(Grid(128, 10.0)))

    def test_refine_converges_on_perturbed_ground_states(self, monkeypatch):
        # the states of a dealiased 1D stability run: a moved ground state
        # plus an H1 perturbation of size 1e-2. Within 10 Newton steps the
        # refine reaches a stationary point of the distance: no move of one
        # parameter by 1e-4 lowers the squared distance, computed by the
        # independent oracle, beyond the rounding floor of its O(100) norm
        monkeypatch.setattr(evolution, "REFINE_MAX_ITER", 10)
        g = Grid(512, 40.0, dealias=True)
        wave = WaveParams(1.0, (0.2,))
        phi = solve_ground_state(g, PHYS, wave, SolverConfig(restarts=1)).phi
        moved = solitary_wave(phi, wave, 0.5)
        for seed in range(8):
            U = State(g, moved.u + 1e-2 * h1_perturbation(g, np.random.default_rng(seed)).u)
            norm2 = norm_h1(U) ** 2 + norm_h1(phi) ** 2
            od = orbit_distance(U, phi)
            element = np.array([*od.shift, od.phase1, od.phase2])
            at = orbit_h1_distance(U, phi, element) ** 2
            for k in range(len(element)):
                for sign in (1.0, -1.0):
                    nearby = element.copy()
                    nearby[k] += sign * 1e-4
                    assert orbit_h1_distance(U, phi, nearby) ** 2 >= at - 1e-12 * norm2

    @pytest.mark.parametrize("grid", [Grid(256, 40.0), Grid((64, 64), (16.0, 16.0), dealias=True)], ids=["1d", "2d"])
    def test_distance_is_the_h1_distance_at_its_element(self, grid, rng):
        phi = smooth_state(grid)
        y = 0.37 * np.ones(grid.d)
        u = phi.u * np.exp(1j * np.array([0.9, 0.2, 0.7])).reshape(3, 1, *[1] * grid.d)
        U = State(grid, grid.translate(u, y) + 1e-2 * h1_perturbation(grid, rng).u)
        od = orbit_distance(U, phi)
        direct = orbit_h1_distance(U, phi, np.array([*od.shift, od.phase1, od.phase2]))
        assert abs(od.distance - direct) <= 1e-10 * direct

    def test_solitary_wave_snapshot_at_rounding_distance(self):
        # the gain form sqrt(norm2 - 2 gain) reads 1.6e-8 ||phi|| at t = 1,
        # and 0 where rounding leaves norm2 - 2 gain negative; the plain
        # grid's profile has Nyquist content, which the refine must move as
        # translate does
        wave = WaveParams(1.0, (0.2,))
        for g, times in ((Grid(512, 40.0, dealias=True), (0.5, 1.0)), (Grid(256, 40.0), (0.37, 0.5, 1.0))):
            phi = solve_ground_state(g, PHYS, wave, SolverConfig(restarts=1)).phi
            for t in times:
                assert orbit_distance(solitary_wave(phi, wave, t), phi).distance < 1e-12 * norm_h1(phi)


    @pytest.mark.parametrize(
        "grid",
        [Grid(256, 40.0), Grid(256, 40.0, dealias=True), Grid((32, 32), (16.0, 16.0))],
        ids=["1d-plain", "1d-dealiased", "2d"],
    )
    def test_pruned_scan_keeps_the_full_scan_winner(self, monkeypatch, grid):
        # without the refine the result is the scan's start, which must be,
        # bit for bit, the first maximum over every phase and every shift;
        # the states run from near the orbit (a peaked bound) to pure noise,
        # a plane wave (a flat bound) and zero (all ties)
        monkeypatch.setattr(evolution, "REFINE_MAX_ITER", 0)
        phi = smooth_state(grid)
        rng = np.random.default_rng(3)
        x = grid.meshgrid()[0]
        plane_wave = np.broadcast_to(np.exp(2j * np.pi * x / grid.extent[0]), phi.u.shape).copy()
        states = [State(grid, plane_wave), State.zeros(grid)]
        for delta in (1e-3, 1e-1, 1.0, 10.0):
            y = rng.uniform(-5.0, 5.0, grid.d)
            moved = grid.translate(phi.u, y) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            states.append(State(grid, moved + delta * h1_perturbation(grid, rng).u))
            states.append(State(grid, delta * h1_perturbation(grid, rng).u))
        extent = np.asarray(grid.extent)
        w = (1.0 + grid.k2) * grid.weight
        for U in states:
            W = np.sum(w * grid.fft(U.u) * np.conj(grid.fft(phi.u)), axis=1)
            A1, A2, A3 = (np.fft.ifftn(Wj).reshape(-1) * grid.size for Wj in W)
            bs = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
            eib = np.exp(1j * bs)[:, None]
            full = np.abs(A1[None, :] + eib * A3[None, :]) + np.real(np.conj(eib) * A2[None, :])
            i_b, i_shift = np.unravel_index(np.argmax(full), full.shape)
            y0 = np.array(np.unravel_index(i_shift, grid.shape)) * np.asarray(grid.spacing)
            a0 = float(np.angle(A1[i_shift] + np.exp(1j * bs[i_b]) * A3[i_shift]))
            od = orbit_distance(U, phi)
            assert np.array_equal(od.shift, (y0 + extent / 2.0) % extent - extent / 2.0)
            assert od.phase1 == a0 % (2.0 * np.pi)
            assert od.phase2 == bs[i_b] % (2.0 * np.pi)

    @pytest.mark.parametrize(
        "grid",
        [Grid(256, 40.0), Grid(512, 40.0, dealias=True), Grid((64, 64), (20.0, 20.0))],
        ids=["1d-plain", "1d-dealiased", "2d"],
    )
    def test_refine_matches_the_refine_that_rebuilds_its_terms(self, grid):
        # the phase table carried from the scan to the distance gives the distance and the
        # element of a refine that forms W e^{i p.kappa} afresh from p after each accepted
        # step and moves phi through gauge_phases and xi_full at the end, to rounding
        phi = smooth_state(grid)
        rng = np.random.default_rng(5)
        u = phi.u * np.exp(1j * np.array([0.9, 0.2, 0.7])).reshape(3, 1, *[1] * grid.d)
        states = [State.zeros(grid)]
        for delta in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
            moved = grid.translate(u, rng.uniform(-3.0, 3.0, grid.d))
            states.append(State(grid, moved + delta * h1_perturbation(grid, rng).u))
        for U in states:
            od = orbit_distance(U, phi)
            dist, shift, phase1, phase2 = reference_orbit_distance(U, phi)
            assert abs(od.distance - dist) <= 1e-14 * (norm_h1(U) or norm_h1(phi))
            assert np.all(np.abs(od.shift - shift) <= 1e-12)
            for got, want in ((od.phase1, phase1), (od.phase2, phase2)):
                assert abs((got - want + np.pi) % (2.0 * np.pi) - np.pi) <= 1e-12

    def test_half_angle_sine_is_the_imaginary_part_of_the_half_angle_exponential(self):
        # the rise test reads sin(x/2) off the trial step's e^{ix/2}; on this numpy they agree bit for bit
        x = np.concatenate([np.geomspace(1e-12, 1e2, 200_000), -np.geomspace(1e-12, 1e2, 200_000)])
        assert np.array_equal(np.exp(0.5j * x).imag.view(np.uint64), np.sin(x / 2.0).view(np.uint64))

    @pytest.mark.parametrize("grid", [Grid(256, 40.0), Grid((32, 32), (16.0, 16.0))], ids=["1d", "2d"])
    def test_overshooting_step_is_halved(self, monkeypatch, grid):
        # near the optimum G(p + t s) - G(p) = (t - t^2 / 2) q for the Newton step s: at
        # t = 2.2 the gain falls, so the refine goes on only by halving to 1.1 s, whose
        # error contracts by 0.1 per iteration; a refine that never accepted a halved
        # step would end at its scan's start, far from the unpatched distance
        phi = smooth_state(grid)
        rng = np.random.default_rng(5)
        u = phi.u * np.exp(1j * np.array([0.9, 0.2, 0.7])).reshape(3, 1, *[1] * grid.d)
        states = [
            State(grid, grid.translate(u, rng.uniform(-3.0, 3.0, grid.d)) + delta * h1_perturbation(grid, rng).u)
            for delta in (1.0, 1e-2, 1e-4)
        ]
        unpatched = [orbit_distance(U, phi).distance for U in states]
        ascent_step, overshoots = evolution._ascent_step, []

        def overshooting(*args):
            overshoots.append(None)
            return 2.2 * ascent_step(*args)

        monkeypatch.setattr(evolution, "_ascent_step", overshooting)
        for U, want in zip(states, unpatched):
            got = orbit_distance(U, phi).distance
            assert abs(got - want) <= 1e-10 * want
            assert got <= norm_h1(State(grid, U.u - phi.u))
        assert overshoots

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_state_that_is_not_finite_ends_the_refine(self, value):
        # its step is NaN, which no halving makes short: a loop that waited for a short
        # step or a rise never returned
        grid = Grid(64, 10.0)
        phi = smooth_state(grid)
        u = phi.u.copy()
        u[0, 0, 3] = value
        with np.errstate(invalid="ignore"):  # the transform of such a state warns as any would
            assert np.isnan(orbit_distance(State(grid, u), phi).distance)


def reference_orbit_distance(U, phi):
    """(distance, shift, phase1, phase2) of a refine that rebuilds its terms from p after each accepted step.

    The start is the first maximum of a scan of every shift and phase; each
    accepted Newton step forms T = W e^{-i s.(a, b)} e^{i y.xi} from p, the
    rise test forms its own sine, and the distance moves phi through
    ``gauge_phases`` and the shift exponential on ``Grid.xi_full``.
    """
    g = phi.grid
    d, size = g.d, g.size
    w = (1.0 + g.k2) * g.weight
    FU, FP = g.fft(U.u), g.fft(phi.u)
    W = np.sum(w * FU * np.conj(FP), axis=1)
    A1, A2, A3 = (np.fft.ifftn(Wj).reshape(-1) * size for Wj in W)
    bs = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    eib = np.exp(1j * bs)[:, None]
    i_b, i_shift = np.unravel_index(np.argmax(np.abs(A1 + eib * A3) + np.real(np.conj(eib) * A2)), (64, size))
    y0 = np.array(np.unravel_index(i_shift, g.shape)) * np.asarray(g.spacing)
    a0 = float(np.angle(A1[i_shift] + np.exp(1j * bs[i_b]) * A3[i_shift]))

    xi = np.array([np.broadcast_to(xk, g.shape).reshape(-1) for xk in g.xi_full])
    s = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    upper = np.triu_indices(d)
    basis = np.concatenate([np.ones((1, size)), xi, xi[upper[0]] * xi[upper[1]]]).T.astype(complex)
    W = W.reshape(3, size)
    curvature = float(np.sum(np.abs(W) * (np.sum(xi**2, axis=0) + np.sum(s**2, axis=1)[:, None])))

    def terms(p):
        return W * np.exp(-1j * (s @ p[d:]))[:, None] * np.exp(1j * (p[:d] @ xi))

    def rises(T, step):
        x = step[:d] @ xi - (s @ step[d:])[:, None]
        return np.sum((T * (2j * np.sin(x / 2.0) * np.exp(0.5j * x))).real) >= 0.0

    p = np.concatenate([y0, [a0, bs[i_b]]])
    T = terms(p)
    for _ in range(evolution.REFINE_MAX_ITER):
        M = T @ basis
        m0, m1, m2 = M[:, 0], M[:, 1 : 1 + d], M[:, 1 + d :]
        grad = np.concatenate([-m1.imag.sum(axis=0), s.T @ m0.imag])
        if not np.any(grad):
            break
        hess = np.empty((d + 2, d + 2))
        hess[upper] = hess[upper[::-1]] = -m2.real.sum(axis=0)
        hess[:d, d:] = m1.real.T @ s
        hess[d:, :d] = hess[:d, d:].T
        hess[d:, d:] = -(s.T * m0.real) @ s
        step = evolution._ascent_step(grad, hess, curvature)
        up = rises(T, step)
        while not up and np.linalg.norm(step) >= evolution.REFINE_STEP_TOL:
            step = step / 2.0
            up = rises(T, step)
        if up:
            p = p + step
            T = terms(p)
        if np.linalg.norm(step) < evolution.REFINE_STEP_TOL:
            break

    y, phases = p[:d], gauge_phases(p[d], p[d + 1])
    shifted = phases.reshape(3, 1, *[1] * d) * np.exp(-1j * sum(y[k] * g.xi_full[k] for k in range(d))) * FP
    extent = np.asarray(g.extent)
    return (
        float(np.sqrt(np.sum(w * np.abs(FU - shifted) ** 2))),
        (y + extent / 2.0) % extent - extent / 2.0,
        p[d] % (2.0 * np.pi),
        p[d + 1] % (2.0 * np.pi),
    )


def orbit_h1_distance(U, phi, element):
    """||U - translate(gauge(phi; a, b), y)||_H1 for element = (y, a, b), built in physical space."""
    g = phi.grid
    y, a, b = element[: g.d], element[g.d], element[g.d + 1]
    u = phi.u * np.exp(1j * np.array([a, b, a - b])).reshape(3, 1, *[1] * g.d)
    return norm_h1(State(g, U.u - g.translate(u, y)))


class TestDecayFit:
    def test_synthetic_exponential(self):
        g = Grid(512, 40.0)
        x = g.axes[0]
        u = np.zeros((3, 1, 512), dtype=complex)
        for j in range(3):
            u[j, 0] = np.exp(-2.0 * np.abs(x))
        rep = decay_rate_fit(State(g, u), PHYS, WAVE0)
        assert np.all(np.abs(rep.rates - 2.0) < 1e-3)
        assert abs(rep.p_max - 2.0) < 1e-12  # sigma0 = 1 at unit coefficients
        assert abs(rep.half_bound - 1.0) < 1e-12

    @staticmethod
    def radial_exponential(grid, rates):
        """A Bessel-like tail: component j's amplitude is exp(-rates[j] r) r^{-(d-1)/2}.

        Every vector entry is that over sqrt(d). The prefactor is taken at
        max(r, 1), so the center stays finite; the fit window lies beyond r = 1.
        """
        r = grid.radius()
        u = np.empty((3, grid.d, *grid.shape), dtype=complex)
        for j, a in enumerate(rates):
            u[j] = np.exp(-a * r) * np.maximum(r, 1.0) ** ((1 - grid.d) / 2) / np.sqrt(grid.d)
        return State(grid, u)

    @pytest.mark.parametrize("n, extent", [((64, 64), (40.0, 40.0)), ((64, 128), (30.0, 40.0))], ids=["square", "oblong"])
    def test_radial_bins_recover_the_rate_in_2d(self, n, extent):
        # the window's amplitudes are averaged over radial bins before the fit
        g, rates = Grid(n, extent), np.array([0.5, 1.0, 2.0])
        rep = decay_rate_fit(self.radial_exponential(g, rates), PHYS, WaveParams(1.0, (0.0, 0.0)))
        assert np.all(np.abs(rep.rates - rates) <= rep.fit_residuals)
        half = min(extent) / 2.0
        assert rep.window == (0.5 * half, 0.9 * half)

    def test_decay_subcommand_in_2d(self, tmp_path):
        g, rates = Grid((64, 64), (40.0, 40.0)), np.array([0.5, 1.0, 2.0])
        field = tmp_path / "radial.ldsf"
        save_field(self.radial_exponential(g, rates), field)
        doc = {
            "grid": {"n": [64, 64], "extent": [40.0, 40.0]},
            "wave": {"c": [0.0, 0.0]},
            "experiment": {"field": str(field)},
            "output": {"dir": str(tmp_path / "out")},
        }
        assert run_subcommand(["decay", "--config", json.dumps(doc)]) == 0
        payload = json.loads((tmp_path / "out" / "decay.json").read_text())
        assert np.all(np.abs(np.array(payload["rates"]) - rates) <= np.array(payload["fit_residuals"]))

    def test_speed_shrinks_bound(self):
        rep0 = decay_rate_fit(smooth_state(Grid(64, 20.0)), PHYS, WAVE0)
        wave_c = WaveParams(1.0, (0.8,))
        rep_c = decay_rate_fit(smooth_state(Grid(64, 20.0)), PHYS, wave_c)
        factor = 1.0 - np.sqrt(PHYS.sigma / 4.0) * 0.8
        assert abs(rep_c.p_max - rep0.p_max * factor) < 1e-12

    @pytest.mark.parametrize("c", [(0.0, 0.0), (0.3, 0.0)])
    def test_fit_meets_the_exact_rates_in_2d(self, c):
        # the fit lifts the Bessel tail's r^{-1/2} off the amplitude; read as
        # a plain exponential the slope missed the exact rates by 5.7-8.7%
        wave = WaveParams(1.0, c)
        res = solve_ground_state(Grid((128, 128), (20.0, 20.0), dealias=True), PHYS, wave, SolverConfig())
        rep = decay_rate_fit(res.phi, PHYS, res.wave)
        assert np.all(np.abs(rep.rates - rep.exact_rates) <= 0.02 * rep.exact_rates)

    @pytest.mark.parametrize("kappa", [(1.0, 1.0, 1.0), (1.0, 2.0, 1.0)])
    def test_fit_meets_the_exact_rates(self, kappa):
        # on a resolved grid the fitted tail rates are those of the linear tail equation
        phys, wave = PhysParams(*kappa), WaveParams(1.0, (0.3,))
        res = solve_ground_state(Grid(512, 40.0, dealias=True), phys, wave, SolverConfig(residual_tol=1e-11))
        rep = decay_rate_fit(res.phi, phys, res.wave)
        assert np.all(np.abs(rep.rates - rep.exact_rates) <= 5e-3 * rep.exact_rates)

    def test_exact_rates(self):
        # r_j = sqrt(4 m_j kappa_j omega - |c|^2) / (2 kappa_j), m = (2, 1, 1)
        rates = WaveParams(1.5, (0.3, -0.4)).tail_rates(PhysParams(2.0, 1.0, 3.0))
        exact = [np.sqrt(24.0 - 0.25) / 4.0, np.sqrt(6.0 - 0.25) / 2.0, np.sqrt(18.0 - 0.25) / 6.0]
        assert rates == pytest.approx(exact, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.tuples(*[st.floats(0.1, 10.0)] * 3),
        omega=st.floats(1e-3, 10.0),
        c=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
        ulps=st.one_of(st.none(), st.integers(-2, 2)),
    )
    # omega = 1e-323 (subnormal): the floor D_1 / (4 kappa_1) rounded up past the exact symbol m_1 omega
    @example(kappa=(0.109375, 1.0, 1.0), omega=1.0, c=[0.0], ulps=2)
    def test_admissible_exactly_when_every_tail_decays(self, kappa, omega, c, ulps):
        # with ulps, omega sits that many floats from the edge sigma |c|^2 / 4
        phys = PhysParams(*kappa)
        if ulps is not None:
            omega = phys.sigma * float(np.linalg.norm(c)) ** 2 / 4.0
            for _ in range(abs(ulps)):
                omega = np.nextafter(omega, np.inf if ulps > 0 else 0.0)
        wave = WaveParams(omega, tuple(c))
        admissible = wave.admissible(phys)
        assert admissible == (min(wave.tail_rates(phys)) > 0.0)
        if not admissible:
            return
        # the certificate holds wherever the pair is admissible; only an underflow at omega < 1e-300 may refuse it
        try:
            assert coercivity_certificate(phys, wave).min_coeff > 0.0
        except InadmissibleParameters:
            assert omega < 1e-300 and wave.speed > 0.0
        # symbol j is at least D_j / (4 kappa_j) = m_j omega - |c|^2 / (4 kappa_j) at every point, less rounding
        d = len(c)
        g = Grid((8,) * d, (10.0,) * d)
        symbols = linear_symbols(g, phys, wave)
        cdotxi = sum(ck * xk for ck, xk in zip(c, g.xi))
        column = (3, 1) + (1,) * d
        kappa, masses = phys.kappa.reshape(column), MASSES.reshape(column)
        floor = masses * omega - wave.speed**2 / (4.0 * kappa)
        slack = 8.0 * np.finfo(float).eps * (kappa * g.k2 + masses * omega + np.abs(cdotxi) + wave.speed**2 / (4.0 * kappa))
        assert np.all(symbols >= floor - slack)

    def test_empty_window(self):
        g = Grid(64, 20.0)
        with pytest.raises(FitWindowEmpty):
            decay_rate_fit(smooth_state(g), PHYS, WAVE0, window=(0.95, 0.96))


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestSpectralStepping:
    @pytest.mark.parametrize(
        "n,extent,dealias",
        [(128, 20.0, False), (128, 20.0, True), ((32, 32), (12.0, 12.0), True)],
    )
    def test_evolve_matches_step_loop(self, n, extent, dealias):
        g = Grid(n, extent, dealias=dealias)
        wave = WaveParams(1.0, (0.0,) * g.d)
        state = smooth_state(g, amp=0.8)
        dt, t_final = 1e-3, 0.0205  # 21 steps, the last one half as long
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            final, trace = evolve(state, PHYS, wave, EvolveConfig(dt=dt, t_final=t_final, record_stride=7))
        U, t, records = state, 0.0, [evaluate(state, PHYS, wave).Q]
        for i in range(1, 22):
            U = step(U, PHYS, min(dt, t_final - t))
            t = i * dt
            if i % 7 == 0 or i == 21:
                records.append(evaluate(U, PHYS, wave).Q)
        assert rel_diff(final.u, U.u) <= 1e-12
        assert rel_diff(trace.Q, np.array(records)) <= 1e-12
        assert trace.times[-1] == t_final

    def test_if_rk4_evolve_matches_step_loop(self):
        g = Grid(128, 20.0, dealias=True)
        state = smooth_state(g, amp=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            final, _ = evolve(state, PHYS, WAVE0, EvolveConfig(dt=1e-3, t_final=0.01, record_stride=4, scheme="if_rk4"))
        U = state
        for _ in range(10):
            U = step(U, PHYS, 1e-3, "if_rk4")
        assert rel_diff(final.u, U.u) <= 1e-12

    def test_dealiased_matches_plain_where_alias_free(self, rng):
        n = 128
        plain, padded = Grid(n, 20.0), Grid(n, 20.0, dealias=True)
        # band below n/3: by the 2/3 rule the plain products alias only
        # onto modes at or above n/3, so the two agree below n/3
        state = band_limited_state(plain, rng, 1.0 / 3.0)
        a = plain.fft(coupling_rhs(state, PHYS).u)
        b = padded.fft(coupling_rhs(State(padded, state.u), PHYS).u)
        low = np.abs(np.fft.fftfreq(n, d=1.0 / n)) < n / 3.0
        assert rel_diff(b[..., low], a[..., low]) <= 1e-12
        # band below n/4: the products stay inside the band, no aliasing at all
        state = band_limited_state(plain, rng, 0.25)
        a = coupling_rhs(state, PHYS).u
        b = coupling_rhs(State(padded, state.u), PHYS).u
        assert rel_diff(b, a) <= 1e-12

    @pytest.mark.parametrize("dealias", [False, True])
    def test_transform_counts(self, dealias, fft_calls):
        g = Grid(64, 20.0, dealias=dealias)
        state = smooth_state(g, amp=0.8)

        def count(fn):
            before = fft_calls["calls"]
            fn()
            return fft_calls["calls"] - before

        def run(n_steps):
            cfg = EvolveConfig(dt=1e-3, t_final=n_steps * 1e-3, record_stride=1000)
            return count(lambda: evolve(state, PHYS, WAVE0, cfg))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # same two records in both runs: the difference is 20 steps
            per_step = (run(40) - run(20)) / 20
        assert per_step <= 8
        assert count(lambda: step(state, PHYS, 1e-3)) <= 10


def reference_rk4_coupling(g, F, dt):
    """The RK4 coupling substep, operation for operation, on the reference kernel."""
    h = -1j * dt
    total = reference_nonlinear_gradient(g, F)
    stage = np.multiply(total, 0.5 * h)
    stage += F
    for weight in (0.5, 1.0):
        k = reference_nonlinear_gradient(g, stage)
        np.multiply(k, weight * h, out=stage)
        stage += F
        k *= 2.0
        total += k
    total += reference_nonlinear_gradient(g, stage)
    total *= h / 6.0
    total += F
    return total


def reference_evolve(state, wave, dt, t_final, stride, reference):
    """Strang steps, as ``evolve`` takes them, on the reference substep: final state and records.

    Each record reads the loop's spectrum through the same entry points as ``evolve``'s.
    """
    g = state.grid
    n_steps = int(np.ceil(t_final / dt - 1e-12))
    records = []
    orbit = _orbit_to(reference, g)

    def record(t, F):
        rep = _report(g, F, PHYS, wave)
        records.append([t, rep.Q, rep.E, *rep.P, rep.S, rep.K, _norm_h1(g, F), orbit(F).distance])

    F, t = g.fft(state.u), 0.0
    record(0.0, F)
    for i in range(1, n_steps + 1):
        dt_i = min(dt, t_final - t)
        half = _linear_phases(g, PHYS, dt_i / 2.0)
        F = reference_rk4_coupling(g, F * half, dt_i) * half
        t = i * dt if i < n_steps else t_final
        if i % stride == 0 or i == n_steps:
            record(t, F)
    return State(g, g.ifft(F)), np.array(records)


class TestStepperBitForBit:
    @pytest.mark.parametrize("n,extent", [(512, 40.0), ((32, 32), (12.0, 12.0))])
    def test_evolve_matches_reference_loop(self, n, extent):
        g = Grid(n, extent, dealias=True)
        wave = WaveParams(1.0, (0.2,) + (0.0,) * (g.d - 1))
        state = State(g, smooth_state(g, amp=0.8).u + random_state(g, np.random.default_rng(8), scale=0.1).u)
        dt, t_final = 1e-3, 0.0205  # 21 steps, the last one half as long
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            final, trace = evolve(state, PHYS, wave, EvolveConfig(dt=dt, t_final=t_final, record_stride=7), reference=state)
        expected_final, expected = reference_evolve(state, wave, dt, t_final, 7, state)
        assert np.array_equal(final.u, expected_final.u)
        recorded = np.column_stack([trace.times, trace.Q, trace.E, trace.P, trace.S, trace.K, trace.h1, trace.orbit_distance])
        assert np.array_equal(recorded, expected)


RECORD_GRIDS = [Grid(256, 40.0), Grid(256, 40.0, dealias=True), Grid((32, 32), (12.0, 12.0))]


def _record_case(g, seed):
    """A wave with a speed, a smooth reference phi and a state near its moved orbit, on grid g."""
    wave = WaveParams(1.0, (0.3,) + (0.1,) * (g.d - 1))
    phi = smooth_state(g, amp=0.8)
    moved = gauge_apply(State(g, g.translate(phi.u, np.full(g.d, 1.3))), 0.4)
    return wave, phi, State(g, moved.u + random_state(g, np.random.default_rng(seed), scale=0.05).u)


class TestSpectralRecords:
    @pytest.mark.parametrize("g", RECORD_GRIDS, ids=["1d", "1d-dealiased", "2d"])
    @pytest.mark.parametrize("with_reference", [False, True])
    def test_record_transforms(self, g, with_reference, fft_calls):
        # a record reads the loop's spectrum: the coupling's inverse transform, and the orbit scan's with a reference
        wave, phi, state = _record_case(g, 3)

        def calls(stride):
            before = fft_calls["calls"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                evolve(state, PHYS, wave, EvolveConfig(dt=1e-3, t_final=8e-3, record_stride=stride), reference=phi if with_reference else None)
            return fft_calls["calls"] - before

        # the same 8 steps, recorded 9 times and twice: the difference is 7 records
        per_record = (calls(1) - calls(1000)) / 7
        assert per_record <= (2 if with_reference else 1)

    @pytest.mark.parametrize("g", RECORD_GRIDS, ids=["1d", "1d-dealiased", "2d"])
    def test_spectral_entry_points_match_the_state_functions(self, g):
        wave, phi, state = _record_case(g, 4)
        F = g.fft(state.u)
        U = State(g, g.ifft(F))
        spectral, physical = _report(g, F, PHYS, wave), evaluate(U, PHYS, wave)
        scale = abs(physical.L) + abs(physical.N) + abs(physical.omega * physical.Q) + abs(physical.cP)
        for key in ("Q", "L", "N", "E", "P", "S", "K", "Lqc"):
            assert np.max(np.abs(getattr(spectral, key) - getattr(physical, key))) <= 1e-13 * scale
        h1 = norm_h1(U)
        assert abs(_norm_h1(g, F) - h1) <= 1e-14 * h1
        assert abs(_orbit_to(phi, g)(F).distance - orbit_distance(U, phi).distance) <= 1e-12 * h1

    @pytest.mark.parametrize("g", RECORD_GRIDS, ids=["1d", "1d-dealiased", "2d"])
    def test_prepared_orbit_is_the_orbit_distance_at_every_call(self, g):
        # one preparation serves many states, each with the bits of a fresh orbit_distance
        wave, phi, _ = _record_case(g, 5)
        orbit = _orbit_to(phi, g)
        for seed in (5, 6, 7):
            state = _record_case(g, seed)[2]
            a, b = orbit(g.fft(state.u)), orbit_distance(state, phi)
            assert (a.distance, a.phase1, a.phase2) == (b.distance, b.phase1, b.phase2)
            assert np.array_equal(a.shift, b.shift)

    def test_reference_on_another_grid_is_refused(self):
        g, other = Grid(64, 20.0), Grid(64, 20.0, dealias=True)
        state = smooth_state(g)
        with pytest.raises(ValueError, match="shared grid"):
            orbit_distance(state, State(other, state.u))
        with pytest.raises(ValueError, match="shared grid"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evolve(state, PHYS, WAVE0, EvolveConfig(dt=1e-3, t_final=1e-3), reference=State(other, state.u))


# a smooth localized state, fixed once: hypothesis varies the symmetry only
_SYM_PLAIN = smooth_state(Grid(64, 16.0), amp=0.8)
_SYM_PADDED = State(Grid(64, 16.0, dealias=True), _SYM_PLAIN.u)


class TestStepSymmetries:
    @settings(max_examples=25, deadline=None)
    @given(shift=st.integers(0, 63), dealias=st.booleans(), scheme=st.sampled_from(["strang", "if_rk4"]))
    def test_commutes_with_grid_translation(self, shift, dealias, scheme):
        state = _SYM_PADDED if dealias else _SYM_PLAIN
        g = state.grid
        moved = State(g, np.roll(state.u, shift, axis=-1))
        a = step(moved, PHYS, 2e-3, scheme).u
        b = np.roll(step(state, PHYS, 2e-3, scheme).u, shift, axis=-1)
        assert rel_diff(a, b) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(0.0, 2.0 * np.pi),
        b=st.floats(0.0, 2.0 * np.pi),
        dealias=st.booleans(),
    )
    def test_commutes_with_two_parameter_gauge(self, a, b, dealias):
        state = _SYM_PADDED if dealias else _SYM_PLAIN
        g = state.grid
        phases = np.exp(1j * np.array([a, b, a - b])).reshape(3, 1, 1)
        x = step(State(g, phases * state.u), PHYS, 2e-3).u
        y = phases * step(state, PHYS, 2e-3).u
        assert rel_diff(x, y) <= 1e-12


def _admissible(omega, fraction, direction):
    """A wave whose speed is the given fraction of the admissibility bound 2 sqrt(omega / sigma); sigma = 1 for PHYS."""
    return WaveParams(omega, tuple(fraction * 2.0 * np.sqrt(omega) * direction / np.linalg.norm(direction)))


class TestShiftedTraceAndWells:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        omega=st.floats(0.2, 3.0),
        omega2=st.floats(0.2, 3.0),
        fraction=st.floats(-0.9, 0.9),
        fraction2=st.floats(-0.9, 0.9),
        level=st.floats(0.05, 2.0),
    )
    def test_shift_matches_evaluation_and_wells_match_reports(self, seed, d, omega, omega2, fraction, fraction2, level):
        g = Grid(32, 10.0) if d == 1 else Grid((16, 16), (10.0, 10.0))
        rng = np.random.default_rng(seed)
        wave = _admissible(omega, fraction, rng.standard_normal(d))
        wave2 = _admissible(omega2, fraction2, rng.standard_normal(d))
        # a ray with N < 0 crosses K = 0 at the Nehari factor: K > 0 before it, K < 0 after
        base = random_state(g, rng)
        if evaluate(base, PHYS, wave).N > 0:
            base.u[2] *= -1.0
        lam = evaluate(base, PHYS, wave).nehari_factor()
        states = [State(g, s * lam * base.u) for s in (0.3, 0.9, 1.1, 3.0)]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, one = evolve(states[1], PHYS, wave, EvolveConfig(t_final=0.0))
        # S and K are affine in (omega, c): the record's Q, L = E - N, N and P give its report at any pair
        moved = FunctionalReport.from_parts(one.Q, one.E - one.N, one.N, one.P, wave2.omega, wave2.c_array)
        direct = evaluate(states[1], PHYS, wave2)
        scale = abs(direct.L) + abs(direct.N) + abs(direct.omega * direct.Q) + abs(direct.cP)
        assert abs(moved.S[0] - direct.S) <= 1e-12 * scale
        assert abs(moved.K[0] - direct.K) <= 1e-12 * scale

        # the well rule over a trace is the rule over each record's report
        reports = [evaluate(s, PHYS, wave) for s in states]
        trace = EvolutionTrace(
            times=np.arange(len(reports), dtype=float),
            Q=np.array([r.Q for r in reports]),
            E=np.array([r.E for r in reports]),
            P=np.array([r.P for r in reports]),
            S=np.array([r.S for r in reports]),
            K=np.array([r.K for r in reports]),
            h1=np.array([norm_h1(s) for s in states]),
        )
        mu = level * reports[1].S  # near the peak of S along the ray, so some records sit above mu
        at2 = FunctionalReport.from_parts(trace.Q, trace.E - trace.N, trace.N, trace.P, wave2.omega, wave2.c_array)
        wells = WellMembership.from_report(at2, mu)
        for i, state in enumerate(states):
            rep2 = evaluate(state, PHYS, wave2)
            scale2 = abs(rep2.L) + abs(rep2.N) + abs(rep2.omega * rep2.Q) + abs(rep2.cP)
            if min(abs(rep2.S - mu), abs(rep2.K), abs(rep2.N + 2.0 * mu)) <= 1e-10 * scale2:
                continue  # a boundary case up to rounding: the shift may decide it either way
            single = WellMembership.from_report(rep2, mu)
            scalars = (single.aplus, single.aminus, single.bplus, single.bminus, single.agree, single.none)
            assert all(type(flag) is bool for flag in scalars)
            assert (wells.aplus[i], wells.aminus[i], wells.bplus[i], wells.bminus[i]) == (
                single.aplus, single.aminus, single.bplus, single.bminus
            )
            assert wells.agree[i] == single.agree and wells.none[i] == single.none


class TestStabilityExperiment:
    @pytest.mark.parametrize("tau0", [1.0, 2.5, 0.0])
    def test_tau0_off_the_scaling_curve_raises(self, monkeypatch, tau0):
        # at omega = 1 the lower shifted pair ((1 - tau0)^2, c (1 - tau0)) is
        # admissible only for 0 < tau0 < 1: tau0 = 1 gives omega = 0, tau0 =
        # 2.5 a frequency above omega; the check comes before any evolution
        res = solve_ground_state(Grid(256, 40.0), PHYS, WaveParams(1.0, (0.3,)))

        def no_evolve(*args, **kwargs):
            raise AssertionError("evolved although a tau0 is off the scaling curve")

        monkeypatch.setattr(evolution, "evolve", no_evolve)
        with pytest.raises(InadmissibleParameters, match="tau0"):
            stability_experiment(res, 1e-3, EvolveConfig(dt=1e-3, t_final=0.01), tau0s=[0.5, tau0])
        # the same rule, through the scaling-curve map, is what the CLI checks before it solves
        with pytest.raises(InadmissibleParameters, match="tau0"):
            sandwich_points(res.wave, [0.5, tau0])
