from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dnls3.errors import DegenerateNonlinearity, InadmissibleParameters
from dnls3.functionals import (
    FunctionalReport,
    WellMembership,
    _parts,
    _report,
    action_gradient,
    coercivity_certificate,
    evaluate,
    gauge_phases,
    linear_symbols,
    nehari_rescale,
)
from dnls3.grid import Grid, Kernel, State, norm_h1
from dnls3.params import PhysParams, WaveParams

from tests.conftest import random_state

PHYS = PhysParams(1.0, 1.0, 1.0)


def wave1d(omega=1.0, c=0.0):
    return WaveParams(omega, (c,))


def gaussian_state(grid, amp=1.0, width=1.0, u3_sign=-1.0):
    """u1 = u2 = a exp(-|x|^2/w^2) e_1, u3 = u3_sign * d_1 of the same profile."""
    mesh = grid.meshgrid()
    r2 = sum(X**2 for X in mesh)
    g = amp * np.exp(-r2 / width**2)
    u = np.zeros((3, grid.d, *grid.shape), dtype=np.complex128)
    u[0, 0] = g
    u[1, 0] = g
    u[2, 0] = u3_sign * grid.deriv(g.astype(complex), 0)
    return State(grid, u)


class TestBasicFunctionals:
    def test_zero_state(self, grid1d_box):
        z = State.zeros(grid1d_box)
        rep = evaluate(z, PHYS, wave1d())
        assert rep.Q == 0.0
        assert rep.L == 0.0
        assert rep.N == 0.0
        assert np.all(rep.P == 0.0)

    def test_charge_pure_mode(self):
        g = Grid(64, 2 * np.pi)
        u = np.zeros((3, 1, 64), dtype=complex)
        u[0, 0] = np.exp(1j * g.axes[0])
        state = State(g, u)
        assert abs(evaluate(state, PHYS, wave1d()).Q - 2 * np.pi) < 1e-12

    def test_charge_direct_summation_oracle(self, rng):
        g = Grid((16, 16), (5.0, 7.0))
        state = random_state(g, rng, smooth=False)
        direct = 0.0
        for j, w in zip(range(3), (1.0, 0.5, 0.5)):
            for m in range(g.d):
                direct += w * np.sum(np.abs(state.u[j, m]) ** 2) * g.weight
        # Q comes from the spectrum; the physical-space sum is the oracle
        assert abs(evaluate(state, PHYS, WaveParams(1.0, (0.0, 0.0))).Q - direct) < 1e-12 * direct

    def test_potential_odd_integrand_vanishes(self):
        # u1 = u2 = u3 = real Gaussian: N = int g (g^2)' dx = 0
        g = Grid(256, 40.0)
        x = g.axes[0]
        prof = np.exp(-(x**2)).astype(complex)
        u = np.zeros((3, 1, 256), dtype=complex)
        u[0, 0] = u[1, 0] = u[2, 0] = prof
        assert abs(evaluate(State(g, u), PHYS, wave1d()).N) < 1e-10

    def test_potential_quadrature_oracle(self):
        # u1 = u2 = g, u3 = g' with g = exp(-x^2): N = 2 int g (g')^2 dx
        g = Grid(512, 40.0)
        state = gaussian_state(g, u3_sign=+1.0)
        expected, _ = quad(lambda x: 2 * np.exp(-(x**2)) * (-2 * x * np.exp(-(x**2))) ** 2, -20, 20)
        assert expected > 0
        assert abs(evaluate(state, PHYS, wave1d()).N - expected) < 1e-8 * expected

    def test_momentum_real_state_zero(self, rng):
        g = Grid(64, 11.0)
        u = rng.standard_normal((3, 1, 64)).astype(complex)
        assert np.max(np.abs(evaluate(State(g, u), PHYS, wave1d()).P)) < 1e-13

    def test_momentum_plane_wave(self):
        g = Grid(64, 2 * np.pi)
        u = np.zeros((3, 1, 64), dtype=complex)
        u[0, 0] = np.exp(1j * g.axes[0])
        P = evaluate(State(g, u), PHYS, wave1d()).P
        assert abs(P[0] - (-np.pi)) < 1e-12

    def test_momentum_direct_summation_oracle(self, rng):
        g = Grid(64, 9.0)
        state = random_state(g, rng)
        direct = np.zeros(1)
        for j in range(3):
            for m in range(1):
                f = state.u[j, m]
                df = g.deriv(f, 0)
                direct[0] += -0.5 * np.real(np.vdot(df, 1j * f)) * g.weight
        P = evaluate(state, PHYS, wave1d()).P
        assert abs(P[0] - direct[0]) < 1e-12 * max(1.0, abs(direct[0]))


class TestReport:
    def test_zero_state_report(self, grid1d_box):
        rep = evaluate(State.zeros(grid1d_box), PHYS, wave1d())
        assert rep.Q == rep.L == rep.N == rep.S == rep.K == 0.0

    def test_report_identities_random(self, rng):
        g = Grid(64, 13.0)
        wave = wave1d(1.3, 0.4)
        for _ in range(5):
            state = random_state(g, rng)
            res = evaluate(state, PHYS, wave).identity_residuals()
            assert max(res.values()) < 1e-13

    def test_ray_scaling_of_K(self, rng):
        # K(lam U) = lam^2 Lqc(U) + 3 lam^3 N(U)
        g = Grid(64, 13.0)
        wave = wave1d(1.0, 0.2)
        state = random_state(g, rng)
        rep = evaluate(state, PHYS, wave)
        for lam in (0.5, 2.0):
            rep_s = evaluate(State(g, lam * state.u), PHYS, wave)
            predicted = lam**2 * rep.Lqc + 3 * lam**3 * rep.N
            assert abs(rep_s.K - predicted) < 1e-12 * max(1.0, abs(predicted))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_scaled_report_matches_evaluation(self, dealias, rng):
        g = Grid((16, 16), (7.0, 9.0), dealias=dealias)
        wave = WaveParams(1.0, (0.2, -0.1))
        state = random_state(g, rng)
        rep = evaluate(state, PHYS, wave)
        for lam in (-0.7, 0.5, 2.0):
            algebraic = rep.scaled(lam)
            direct = evaluate(State(g, lam * state.u), PHYS, wave)
            for name in ("Q", "L", "N", "E", "S", "K", "Lqc", "G", "G_display"):
                a, b = getattr(algebraic, name), getattr(direct, name)
                assert abs(a - b) < 1e-12 * max(1.0, abs(b)), name
            assert np.max(np.abs(algebraic.P - direct.P)) < 1e-12 * max(1.0, np.max(np.abs(direct.P)))

    def test_K_is_ray_derivative_of_S(self, rng):
        g = Grid(64, 13.0)
        wave = wave1d(1.0, 0.3)
        state = random_state(g, rng)
        rep = evaluate(state, PHYS, wave)
        eps = 1e-5
        Sp = evaluate(State(g, (1 + eps) * state.u), PHYS, wave).S
        Sm = evaluate(State(g, (1 - eps) * state.u), PHYS, wave).S
        fd = (Sp - Sm) / (2 * eps)
        assert abs(rep.K - fd) < 1e-6 * max(1.0, abs(fd))

    def test_gauge_invariance(self, rng):
        g = Grid(64, 13.0)
        wave = wave1d(1.0, 0.3)
        state = random_state(g, rng)
        rep = evaluate(state, PHYS, wave)
        for theta in (0.3, 1.7, np.pi):
            phases = gauge_phases(2.0 * theta, theta).reshape(3, 1, 1)
            rep_g = evaluate(State(g, phases * state.u), PHYS, wave)
            for name in ("Q", "L", "N", "S", "K", "Lqc", "G"):
                a, b = getattr(rep, name), getattr(rep_g, name)
                assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("n,extent,c", [(64, 13.0, (0.3,)), ((16, 16), (7.0, 9.0), (0.2, -0.1))])
    def test_u3_sign_flip_negates_only_N(self, n, extent, c, dealias, rng):
        # the well sampler's negative half relies on this: u3 -> -u3 maps N to -N exactly and keeps Q, L and P
        g = Grid(n, extent, dealias=dealias)
        wave = WaveParams(1.0, c)
        state = random_state(g, rng)
        flipped = state.copy()
        flipped.u[2] *= -1.0
        rep, rep_f = evaluate(state, PHYS, wave), evaluate(flipped, PHYS, wave)
        assert (rep_f.Q, rep_f.L, rep_f.N) == (rep.Q, rep.L, -rep.N)
        assert np.array_equal(rep_f.P, rep.P)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        dealias=st.booleans(),
        batch=st.sampled_from([(1,), (3,), (2, 2)]),
    )
    def test_batched_parts_match_each_state(self, seed, d, dealias, batch):
        # leading batch axes run the same formulas as one state at a time
        g = Grid((32, 16)[:d], (7.0, 5.0)[:d], dealias=dealias)
        phys = PhysParams(1.0, 1.5, 0.7)
        rng = np.random.default_rng(seed)
        u = np.stack([random_state(g, rng).u for _ in range(int(np.prod(batch)))]).reshape(*batch, 3, d, *g.shape)
        F = g.fft(u)
        kernel = Kernel(g)
        batched = kernel.nonlinear_gradient(F)
        for i in np.ndindex(*batch):
            one = kernel.nonlinear_gradient(F[i])
            assert np.max(np.abs(batched[i] - one)) <= 1e-12 * np.max(np.abs(one))
        Q, L, P = _parts(g, F, phys)
        C = kernel.coupling(F)
        assert Q.shape == L.shape == C.shape == batch and P.shape == (*batch, d)
        for i in np.ndindex(*batch):
            q, l, p = _parts(g, F[i], phys)
            c = kernel.coupling(F[i])
            assert Q[i] == pytest.approx(q, rel=1e-12, abs=0.0)
            assert L[i] == pytest.approx(l, rel=1e-12, abs=0.0)
            assert abs(C[i] - c) <= 1e-12 * np.linalg.norm(batched[i][2]) * np.linalg.norm(F[i][2]) * g.weight
            assert np.max(np.abs(P[i] - p)) <= 1e-12 * (q + l)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 3]),
        dealias=st.booleans(),
        batch=st.sampled_from([(), (3,), (2, 2)]),
    )
    def test_parts_are_the_quadrature_sums(self, seed, d, dealias, batch):
        # the moments give the plain sums over the spectrum: sum |F|^2,
        # sum k2 |F|^2 and sum xi_k |F|^2; C is one vdot per state with the
        # kernel's gradient block
        g = Grid((16, 8, 8)[:d], (7.0, 5.0, 6.0)[:d], dealias=dealias)
        phys = PhysParams(1.0, 1.5, 0.7)
        rng = np.random.default_rng(seed)
        u = np.stack([random_state(g, rng).u for _ in range(int(np.prod(batch)))]).reshape(*batch, 3, d, *g.shape)
        F = g.fft(u)
        kernel = Kernel(g)
        dN = kernel.nonlinear_gradient(F)
        Q, L, P = _parts(g, F, phys)
        C = kernel.coupling(F)
        absF2 = np.abs(F) ** 2
        rows = tuple(range(-d - 1, 0))  # a component's vector rows and the grid
        mass, k2_mass = np.sum(absF2, axis=rows), np.sum(g.k2 * absF2, axis=rows)
        Q_sum = (mass[..., 0] + 0.5 * mass[..., 1] + 0.5 * mass[..., 2]) * g.weight
        L_sum = 0.5 * (phys.alpha * k2_mass[..., 0] + phys.beta * k2_mass[..., 1] + phys.gamma * k2_mass[..., 2]) * g.weight
        assert np.all(np.abs(Q - Q_sum) <= 1e-13 * Q_sum)
        assert np.all(np.abs(L - L_sum) <= 1e-13 * L_sum)
        for k in range(d):
            P_sum = -0.5 * np.sum(g.xi[k] * absF2, axis=(-d - 2, *rows)) * g.weight
            P_abs = 0.5 * np.sum(np.abs(g.xi[k]) * absF2, axis=(-d - 2, *rows)) * g.weight
            assert np.all(np.abs(P[..., k] - P_sum) <= 1e-13 * P_abs)
        for i in np.ndindex(*batch):
            C_sum = np.vdot(dN[i][2], F[i][2]) * g.weight
            C_abs = np.sum(np.abs(dN[i][2]) * np.abs(F[i][2])) * g.weight
            assert abs(np.asarray(C)[i] - C_sum) <= 1e-13 * C_abs

    def test_translation_invariance(self, rng):
        g = Grid(64, 13.0)
        wave = wave1d(1.0, 0.3)
        state = random_state(g, rng)
        rep = evaluate(state, PHYS, wave)
        # grid-aligned shift: exact invariance even with band-edge content
        shifted = State(g, g.translate(state.u, 17 * g.spacing[0]))
        rep_t = evaluate(shifted, PHYS, wave)
        for name in ("Q", "L", "N", "S", "K"):
            a, b = getattr(rep, name), getattr(rep_t, name)
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_translation_invariance_smooth_profile(self):
        # decaying smooth profiles keep the invariance for fractional shifts too
        g = Grid(256, 40.0)
        wave = wave1d(1.0, 0.3)
        state = gaussian_state(g)
        rep = evaluate(state, PHYS, wave)
        rep_t = evaluate(State(g, g.translate(state.u, 1.2345)), PHYS, wave)
        for name in ("Q", "L", "N", "S", "K"):
            a, b = getattr(rep, name), getattr(rep_t, name)
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def _same_field(a, b) -> bool:
    """Equal bit for bit: the same value, the same None, or the same array."""
    return (a is None and b is None) or np.array_equal(a, b)


class TestReportInputs:
    @pytest.mark.parametrize("n, c", [((64,), (0.0, 0.0)), ((8, 8), (0.3,)), ((8, 8, 8), (0.0, 0.0))], ids=["1d-2c", "2d-1c", "3d-2c"])
    def test_wave_of_another_dimension_refused(self, n, c):
        # a config cannot get here: it refuses a wave.c whose length is not the grid's d
        g = Grid(n, (10.0,) * len(n))
        wave = WaveParams(1.0, c)
        match = f"wave speed has {len(c)} components but grid is {g.d}-dimensional"
        with pytest.raises(ValueError, match=match):
            _report(Kernel(g), g.fft(State.zeros(g).u), PHYS, wave)
        with pytest.raises(ValueError, match=match):
            evaluate(State.zeros(g), PHYS, wave)


class TestBatchReport:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]), b=st.integers(0, 6))
    def test_stacked_parts_give_each_states_report(self, seed, d, b):
        rng = np.random.default_rng(seed)
        Q, L = rng.uniform(0.0, 10.0, (2, b))
        N, P = rng.normal(size=b), rng.normal(size=(b, d))
        omega, c, lam = rng.uniform(0.1, 3.0), rng.normal(size=d), rng.uniform(0.1, 3.0, b)
        batch = FunctionalReport.from_parts(Q, L, N, P, omega, c)
        scaled = batch.scaled(lam)
        for report in (batch, scaled):
            assert report.S.shape == (b,) and report.P.shape == (b, d)
            assert (report.G_display is None) == (d == 3)
        for i in range(b):
            single = FunctionalReport.from_parts(Q[i], L[i], N[i], P[i], omega, c)
            for one, many in ((single, batch), (single.scaled(lam[i]), scaled)):
                for f in fields(FunctionalReport):
                    value = getattr(many, f.name)
                    row = value if f.name in ("omega", "c") or value is None else value[i]
                    assert _same_field(getattr(one, f.name), row), f.name
            mu = 0.5 * single.S
            wells, flags = WellMembership.from_report(single, mu), WellMembership.from_report(batch, mu)
            assert (wells.aplus, wells.bminus, wells.agree) == (flags.aplus[i], flags.bminus[i], flags.agree[i])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_of_zero(self, d):
        empty = FunctionalReport.from_parts(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros((0, d)), 1.0, np.ones(d))
        assert empty.S.shape == empty.K.shape == empty.cP.shape == (0,)
        assert empty.scaled(np.zeros(0)).P.shape == (0, d)
        assert WellMembership.from_report(empty, 1.0).agree.shape == (0,)


class TestActionGradient:
    def test_zero_state(self, grid1d_box):
        out = action_gradient(State.zeros(grid1d_box), PHYS, wave1d())
        assert np.max(np.abs(out.u)) == 0.0

    def test_directional_derivative_oracle(self, rng):
        g = Grid(64, 13.0)
        wave = wave1d(1.1, 0.4)
        eps = 1e-6
        for _ in range(20):
            U = random_state(g, rng)
            V = random_state(g, rng)
            grad = action_gradient(U, PHYS, wave)
            pairing = float(np.real(np.vdot(V.u, grad.u))) * g.weight
            Sp = evaluate(State(g, U.u + eps * V.u), PHYS, wave).S
            Sm = evaluate(State(g, U.u - eps * V.u), PHYS, wave).S
            fd = (Sp - Sm) / (2 * eps)
            assert abs(pairing - fd) < 1e-6 * max(1.0, abs(fd))

    def test_symbols_positive_when_admissible(self):
        g = Grid(128, 40.0)
        wave = wave1d(1.0, 1.9)
        assert wave.admissible(PHYS)
        for sym in linear_symbols(g, PHYS, wave):
            assert np.min(sym) > 0


class TestTransformCounts:
    """Transforms per call."""

    def test_evaluate(self, rng, fft_calls):
        # the state's spectrum, then C's inverse transform, on a plain and a dealiased grid
        for g in (Grid(64, 13.0), Grid(64, 13.0, dealias=True)):
            state = random_state(g, rng)
            before = fft_calls["calls"]
            evaluate(state, PHYS, wave1d(1.0, 0.2))
            assert fft_calls["calls"] - before <= 2

    def test_action_gradient(self, rng, fft_calls):
        g = Grid(64, 13.0)
        state = random_state(g, rng)
        before = fft_calls["calls"]
        action_gradient(state, PHYS, wave1d(1.0, 0.2))
        assert fft_calls["calls"] - before <= 4


class TestNehariRescale:
    def test_fixed_point_on_manifold(self):
        g = Grid(256, 40.0)
        state = gaussian_state(g)
        lam, scaled = nehari_rescale(state, PHYS, wave1d())
        lam2, _ = nehari_rescale(scaled, PHYS, wave1d())
        assert abs(lam2 - 1.0) < 1e-10

    def test_rescaled_K_residual(self):
        g = Grid(256, 40.0)
        state = gaussian_state(g, u3_sign=-1.0)
        rep0 = evaluate(state, PHYS, wave1d())
        assert rep0.N < 0
        lam, scaled = nehari_rescale(state, PHYS, wave1d())
        rep = evaluate(scaled, PHYS, wave1d())
        assert abs(rep.K) <= 1e-10 * max(1.0, abs(rep.Lqc))

    def test_degenerate_coupling(self):
        g = Grid(256, 40.0)
        x = g.axes[0]
        prof = np.exp(-(x**2)).astype(complex)
        u = np.zeros((3, 1, 256), dtype=complex)
        u[0, 0] = u[1, 0] = u[2, 0] = prof  # N = 0 exactly up to rounding
        with pytest.raises(DegenerateNonlinearity):
            nehari_rescale(State(g, u), PHYS, wave1d())


class TestCoercivity:
    def test_zero_speed_certificate(self):
        cert = coercivity_certificate(PhysParams(1.0, 2.0, 3.0), wave1d(1.0, 0.0))
        assert cert.A == (0.25, 0.5, 0.75)
        assert cert.grad_coeffs == (0.5, 1.0, 1.5)
        assert min(cert.mass_coeffs) > 0

    def test_fast_admissible_wave(self):
        # sigma = 1, |c| = 1.9: admissible since 1 > 0.9025
        cert = coercivity_certificate(PHYS, wave1d(1.0, 1.9))
        assert cert.min_coeff > 0

    def test_boundary_rejected(self):
        with pytest.raises(InadmissibleParameters):
            coercivity_certificate(PHYS, wave1d(0.25, 1.0))  # omega == sigma |c|^2 / 4

    def test_lower_bound_on_random_states(self, rng):
        g = Grid(32, 10.0)
        for omega, c in [(1.0, 0.0), (1.0, 1.5), (2.5, 2.0), (0.5, 1.0)]:
            wave = wave1d(omega, c)
            cert = coercivity_certificate(PHYS, wave)
            for _ in range(50):
                state = random_state(g, rng, smooth=False)
                rep = evaluate(state, PHYS, wave)
                h1sq = norm_h1(state) ** 2
                assert rep.Lqc > 0
                assert rep.Lqc >= cert.min_coeff * h1sq * (1 - 1e-12)


class TestWellClassification:
    def test_zero_state_no_flags(self, grid1d_box):
        m = WellMembership.from_report(evaluate(State.zeros(grid1d_box), PHYS, wave1d()), 1.0)
        assert m.none

    def test_small_states_in_plus_wells(self):
        g = Grid(256, 40.0)
        _, on_manifold = nehari_rescale(gaussian_state(g), PHYS, wave1d())
        mu_proxy = evaluate(on_manifold, PHYS, wave1d()).S  # >= true level
        small = State(g, 0.1 * on_manifold.u)
        m = WellMembership.from_report(evaluate(small, PHYS, wave1d()), mu_proxy)
        assert m.aplus and m.bplus and not m.aminus and not m.bminus

    def test_boundary_state_unclassified(self):
        # a state sitting exactly at its own level is excluded (strict inequalities)
        g = Grid(256, 40.0)
        _, on_manifold = nehari_rescale(gaussian_state(g), PHYS, wave1d())
        rep = evaluate(on_manifold, PHYS, wave1d())
        m = WellMembership.from_report(rep, rep.S)
        assert m.none


class TestStabilityG:
    def test_zero_state(self, grid1d_box):
        assert evaluate(State.zeros(grid1d_box), PHYS, wave1d()).G == 0.0

    def test_d1_display_is_half_G(self, rng):
        g = Grid(64, 13.0)
        wave = wave1d(1.0, 0.4)
        rep = evaluate(random_state(g, rng), PHYS, wave)
        assert abs(rep.G - 2 * rep.G_display) < 1e-12 * max(1.0, abs(rep.G))

    def test_d2_real_state_zero(self, rng):
        g = Grid((16, 16), (10.0, 10.0))
        u = rng.standard_normal((3, 2, 16, 16)).astype(complex)
        wave = WaveParams(1.0, (0.3, 0.1))
        rep = evaluate(State(g, u), PHYS, wave)
        assert abs(rep.G) < 1e-12
        assert abs(rep.G_display) < 1e-12


class TestL2Scaling:
    """The charge-preserving dilation lam^{d/2} U(lam x), built in closed form."""

    def test_scaling_laws_1d(self):
        g = Grid(512, 40.0)
        state = gaussian_state(g)
        wave = wave1d()
        rep = evaluate(state, PHYS, wave)
        for lam in (0.5, 2.0):
            out = gaussian_state(g, lam ** (g.d / 2), 1 / lam, -1 / lam)
            rep_s = evaluate(out, PHYS, wave)
            assert abs(rep_s.Q - rep.Q) < 1e-8 * rep.Q
            assert abs(rep_s.L - lam**2 * rep.L) < 1e-6 * rep.L
            assert abs(rep_s.N - lam ** (g.d / 2 + 1) * rep.N) < 1e-6 * abs(rep.N)

    def test_momentum_scaling(self):
        g = Grid(512, 40.0)
        state = gaussian_state(g)
        # give it momentum with a resolvable carrier
        k0 = 2 * np.pi * 4 / 40.0
        carrier = np.exp(1j * k0 * g.axes[0])
        state = State(g, state.u * carrier)
        P = evaluate(state, PHYS, wave1d()).P
        lam = 2.0
        out = gaussian_state(g, lam ** (g.d / 2), 1 / lam, -1 / lam)
        out = State(g, out.u * np.exp(1j * k0 * lam * g.axes[0]))
        P_s = evaluate(out, PHYS, wave1d()).P
        assert abs(P_s[0] - lam * P[0]) < 1e-6 * abs(P[0])
