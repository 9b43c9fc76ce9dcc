import json
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls3.cli import run_subcommand
from dnls3.evolution import EvolveConfig, _advance, _linear_phases, evolve, h1_perturbation, step
from dnls3.functionals import evaluate, gauge_phases, nehari_rescale
from dnls3.grid import Grid, Kernel, State, norm_h1
from dnls3.ground_state import SolverConfig, _descend, initial_ansatz, reports_below_level, sample_below_level
from dnls3.params import PhysParams, WaveParams

from tests.conftest import band_limited_state, random_state, reference_nonlinear_gradient


def scratch_arrays(kernel: Kernel):
    """Every array the kernel keeps in its scratch."""
    stack = [vars(kernel)]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)


def fingerprint(value):
    """The identity and the bits of a value, and of every item a list or tuple of it holds."""
    if isinstance(value, np.ndarray):
        return id(value), value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return id(value), tuple(fingerprint(item) for item in value)
    return id(value), repr(value)


def dft_direct(f):
    """Quadratic-cost unitary DFT, the independent oracle for the FFT path."""
    n = len(f)
    j = np.arange(n)
    W = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    return W @ f


class TestTransforms:
    def test_constant_field_is_dc_mode(self):
        g = Grid(32, 10.0)
        F = g.fft(np.ones(32, dtype=complex))
        assert abs(F[0] - np.sqrt(32)) < 1e-12
        assert np.max(np.abs(F[1:])) < 1e-12

    def test_pure_mode_single_coefficient(self):
        g = Grid(64, 2 * np.pi)
        f = np.exp(1j * 3 * g.axes[0])
        F = np.abs(g.fft(f))
        assert np.sum(F > 1e-10) == 1

    def test_roundtrip_matches_direct_dft(self, rng):
        g = Grid(16, 5.0)
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        F = g.fft(f)
        # fftshift-free comparison: both index coefficients identically
        assert np.max(np.abs(F - dft_direct(f))) < 1e-12 * np.max(np.abs(F))
        back = g.ifft(F)
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("n,extent", [(8, 1.0), (16, 7.5), (64, 40.0), ((16, 16), (5.0, 8.0))])
    def test_roundtrip_matrix(self, n, extent, rng):
        g = Grid(n, extent)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        err = np.max(np.abs(g.ifft(g.fft(f)) - f)) / np.max(np.abs(f))
        assert err < 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(12, 10.0)  # not a power of two
        with pytest.raises(ValueError):
            Grid(4, 10.0)  # too small
        with pytest.raises(ValueError):
            Grid(16, -1.0)
        with pytest.raises(ValueError):
            Grid((16, 16, 16, 16), (1.0, 1.0, 1.0, 1.0))

    def test_fractional_points_rejected(self):
        # int() would truncate 512.7 to a 512-point grid; an integral float is a count
        with pytest.raises(ValueError, match="512.7"):
            Grid(512.7, 40.0)
        with pytest.raises(ValueError, match="16.5"):
            Grid((16, 16.5), (1.0, 1.0))
        assert Grid(512.0, 40.0) == Grid(512, 40.0)

    @pytest.mark.parametrize("count", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_infinite_and_nan_points_rejected(self, count):
        # int() raised OverflowError on inf and an unnamed ValueError on NaN
        with pytest.raises(ValueError, match="points per axis"):
            Grid(count, 40.0)
        with pytest.raises(ValueError, match="points per axis"):
            Grid((16, count), (1.0, 1.0))

    @pytest.mark.parametrize(
        "n,extent,named",
        [
            ("512", 40.0, "points per axis .* got '512'"),
            (64, "40", "box length per axis .* got '40'"),
            (64, True, "box length per axis .* got True"),
            ((16, True), (1.0, 1.0), "points per axis .* got True"),
            (16, (1.0, np.True_), "box length per axis .* got np.True_"),
        ],
        ids=["string-count", "string-extent", "bool-extent", "bool-count", "numpy-bool-extent"],
    )
    def test_strings_and_bools_rejected(self, n, extent, named):
        # "512" built a 512-point grid through int(), and True a box of length 1
        with pytest.raises(ValueError, match=f"{named}$"):
            Grid(n, extent)
        assert Grid(np.int64(16), np.float64(1.0)) == Grid(16, 1.0)

    @pytest.mark.parametrize(
        "n,extent",
        [
            (256, 5e-324), (16, 1e-300), ((8, 8, 8), (1e-120, 1e-120, 1e-120)), ((16, 16), (5.03e-153, 5.03e-153)),
            (64, 1e300), ((16, 16), (2e154, 2e154)), ((8, 8, 8), (1e154, 1e154, 1e154)),
        ],
        ids=["zero-spacing", "infinite-k2", "zero-cell", "corner-k2", "infinite-r2", "corner-r2", "infinite-cell"],
    )
    def test_box_past_float_range_rejected(self, n, extent):
        # the spacing of 5e-324 underflowed to 0 and fftfreq raised ZeroDivisionError, 1e-300
        # built a grid with 14 of 16 k2 entries infinite, and the 3D cell weighed 0; on the
        # 2D grid each axis's (pi / h)^2 is about 1e308, and their sum passes float range.
        # At the other end a box of 1e300 overflowed the seed's |x|^2, the 2D corner's
        # |x|^2 = 2e308 passes float range though each axis's 1e308 does not, and the 3D
        # cell of 1e154 / 8 per axis weighed inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="box length per axis"):
                Grid(n, extent)
            g = Grid(16, 5.03e-153)
        assert g.weight > 0 and np.isfinite(g.k2).all() and np.isfinite(np.concatenate(g.moments)).all()


class TestDerivatives:
    def test_eigenfunction(self):
        g = Grid(64, 2 * np.pi)
        f = np.exp(1j * g.axes[0])
        df = g.deriv(f, 0)
        assert np.max(np.abs(df - 1j * f)) < 1e-12

    def test_constant_derivative_zero(self):
        g = Grid(32, 7.0)
        assert np.max(np.abs(g.deriv(np.ones(32, dtype=complex), 0))) < 1e-13

    def test_gaussian_matches_fd4_oracle(self):
        g = Grid(256, 20.0)
        x = g.axes[0]
        f = np.exp(-(x**2)).astype(complex)
        h = g.spacing[0]
        # 4th-order centered stencil as the independent oracle
        fd = (-np.roll(f, -2) + 8 * np.roll(f, -1) - 8 * np.roll(f, 1) + np.roll(f, 2)) / (12 * h)
        spectral = g.deriv(f, 0)
        # agreement is limited by the oracle's own O(h^4) truncation
        assert np.max(np.abs(spectral - fd)) < 10 * h**4

    def test_every_resolvable_mode_exact(self):
        g = Grid(32, 4.0)
        x = g.axes[0]
        for m in range(-15, 16):
            xi = 2 * np.pi * m / 4.0
            f = np.exp(1j * xi * x)
            err = np.max(np.abs(g.deriv(f, 0) - 1j * xi * f))
            assert err < 1e-11 * max(1.0, abs(xi))

    def test_axis_out_of_range(self):
        g = Grid(16, 3.0)
        with pytest.raises(ValueError):
            g.deriv(np.ones(16, dtype=complex), 1)


class TestVectorCalculus:
    def test_div_grad_equals_laplacian(self, rng):
        # derivatives and k2 zero the same Nyquist mode
        g = Grid((16, 16), (3.0, 5.0))
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        lhs = sum(g.deriv(g.deriv(f, k), k) for k in range(g.d))
        rhs = g.apply_multiplier(f, -g.k2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_gradient_of_constant(self):
        g = Grid((16, 16), (3.0, 3.0))
        ones = np.ones(g.shape, dtype=complex)
        assert max(np.max(np.abs(g.deriv(ones, k))) for k in range(g.d)) < 1e-13

    def test_divergence_analytic(self):
        # v = (sin(2 pi x / Lx), 0) has div = (2 pi / Lx) cos(2 pi x / Lx)
        g = Grid((32, 16), (7.0, 3.0))
        X, _ = g.meshgrid()
        k = 2 * np.pi / 7.0
        v = np.zeros((2, *g.shape), dtype=complex)
        v[0] = np.sin(k * X)
        div = sum(g.deriv(v[m], m) for m in range(g.d))
        assert np.max(np.abs(div - k * np.cos(k * X))) < 1e-12


class TestMultipliers:
    def test_identity_multiplier(self, rng):
        g = Grid(32, 6.0)
        f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.max(np.abs(g.apply_multiplier(f, np.ones(32)) - f)) < 1e-13

    def test_minus_k2_reproduces_laplacian(self, rng):
        g = Grid(32, 6.0)
        f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        out = g.apply_multiplier(f, -g.k2)
        assert np.max(np.abs(out - g.deriv(g.deriv(f, 0), 0))) < 1e-12 * max(1.0, np.max(np.abs(out)))

    def test_resolvent_inverse_pair(self, rng):
        g = Grid(64, 12.0)
        alpha, omega = 1.0, 1.0
        c = 0.7
        sym = alpha * g.k2 + 2 * omega - c * g.xi[0]
        assert np.min(sym) > 0
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        back = g.apply_multiplier(g.apply_multiplier(f, 1.0 / sym), sym)
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    def test_nonfinite_multiplier_rejected(self):
        g = Grid(16, 3.0)
        m = np.ones(16)
        m[3] = np.inf
        with pytest.raises(ValueError):
            g.apply_multiplier(np.ones(16, dtype=complex), m)


def norm_l2(g: Grid, f: np.ndarray) -> float:
    """Rectangle-rule L2 norm, the quadrature every functional uses."""
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * g.weight))


class TestQuadratureAndNorms:
    def test_pure_mode_norm(self):
        g = Grid(64, 2 * np.pi)
        f = np.exp(1j * g.axes[0])
        assert abs(norm_l2(g, f) ** 2 - 2 * np.pi) < 1e-12

    def test_parseval(self, rng):
        g = Grid((16, 32), (3.0, 9.0))
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        a = norm_l2(g, f)
        b = norm_l2(g, g.fft(f))
        assert abs(a - b) < 1e-10 * a

    def test_trig_polynomial_integral(self):
        # degree < n/2 trigonometric polynomial integrates exactly
        g = Grid(32, 2 * np.pi)
        x = g.axes[0]
        f = 2.0 + np.cos(3 * x) - 0.5 * np.sin(7 * x) + 0.25 * np.cos(15 * x)
        assert abs(np.sum(f) * g.weight - 2.0 * 2 * np.pi) < 1e-11 * (2 * 2 * np.pi)

    def test_h1_norm_consistency(self, rng):
        g = Grid((16, 16), (5.0, 7.0))
        state = random_state(g, rng)
        direct = norm_l2(g, state.u) ** 2
        for j in range(3):
            for m in range(g.d):
                for k in range(g.d):
                    direct += norm_l2(g, g.deriv(state.u[j, m], k)) ** 2
        assert abs(norm_h1(state) ** 2 - direct) < 1e-13 * direct


class TestStateAndScaling:
    def test_state_shape_validation(self):
        g = Grid(16, 3.0)
        with pytest.raises(ValueError):
            State(g, np.zeros((3, 2, 16), dtype=complex))

    def test_translate_matches_roll(self, rng):
        g = Grid(64, 8.0)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f = g.ifft(g.fft(f) / (1 + g.k2))
        shifted = g.translate(f, 3 * g.spacing[0])
        assert np.max(np.abs(shifted - np.roll(f, 3))) < 1e-11

    def test_tail_and_alias_mass(self):
        g = Grid(64, 20.0)
        x = g.axes[0]
        f = np.exp(-(x**2)).astype(complex)
        assert g.tail_mass(f) < 1e-10
        edge = np.exp(-((x - 9.5) ** 2)).astype(complex)
        assert g.tail_mass(edge) > 0.1


class TestNoise:
    """Library noise has no Nyquist mode: derivatives zero it, so noise there would never be smoothed."""

    @staticmethod
    def nyquist_share(g: Grid, u: np.ndarray) -> float:
        """Share of the L2 mass in modes with a Nyquist index on some axis."""
        nyquist = np.zeros(g.shape, dtype=bool)
        for k, nk in enumerate(g.n):
            nyquist[(slice(None),) * k + (nk // 2,)] = True
        power = np.abs(g.fft(u)) ** 2
        return float(np.sum(power[..., nyquist]) / np.sum(power))

    @pytest.mark.parametrize(
        "grid",
        [Grid(512, 40.0), Grid(512, 40.0, dealias=True), Grid((32, 16), (10.0, 8.0))],
        ids=["plain", "dealiased", "2d"],
    )
    def test_noise_has_no_nyquist_mode(self, grid):
        rng = np.random.default_rng(3)
        states = [h1_perturbation(grid, rng).u for _ in range(3)]
        wave = WaveParams(1.0, (0.2,) * grid.d)
        states += [state.u for state, _ in sample_below_level(grid, PhysParams(), wave, 10.0, rng, 4)]
        assert len(states) == 7
        for u in states:
            assert self.nyquist_share(grid, u) < 1e-20


def double_padding_rows(g: Grid, F: np.ndarray) -> np.ndarray:
    """Band spectra of (div u3) u2, conj(div u3) u1 and u1 . conj(u2), by an independent oracle.

    The band interpolants (Nyquist dropped) are multiplied on a 2x grid,
    where quadratic products are exact, and truncated back to the band.
    """
    modes = [np.fft.fftfreq(nk, d=1.0 / nk).astype(int) for nk in g.n]
    keep = np.ix_(*[m != -nk // 2 for m, nk in zip(modes, g.n)])
    to_fine = np.ix_(*[m % (2 * nk) for m, nk in zip(modes, g.n)])
    axes = tuple(range(-g.d, 0))

    def fine_values(F):
        band = np.zeros_like(F)
        band[(..., *keep)] = F[(..., *keep)]
        fine = np.zeros((*F.shape[: F.ndim - g.d], *[2 * nk for nk in g.n]), dtype=complex)
        fine[(..., *to_fine)] = band
        return np.fft.ifftn(fine, axes=axes, norm="forward") / np.sqrt(g.size)

    def band_spectrum(values):
        F = np.fft.fftn(values, axes=axes)[(..., *to_fine)] * np.sqrt(g.size) / 2**g.d / g.size
        out = np.zeros_like(F)
        out[(..., *keep)] = F[(..., *keep)]
        return out

    u1, u2 = fine_values(F[0]), fine_values(F[1])
    div3 = fine_values(sum(g.ik[k] * F[2, k] for k in range(g.d)))
    return band_spectrum(np.concatenate([div3 * u2, np.conj(div3) * u1, [np.sum(u1 * np.conj(u2), axis=0)]]))


def reference_coupling(g: Grid, F: np.ndarray):
    """C = (u3, grad(u1 . conj(u2))) by Parseval off the oracle's gradient block, and the sum of its terms' moduli."""
    lead = F.shape[: -g.d - 2]
    grad_pair = reference_nonlinear_gradient(g, F).reshape(*lead, 3, -1)[..., 2, :]
    u3 = F.reshape(*lead, 3, -1)[..., 2, :]
    return np.vecdot(grad_pair, u3) * g.weight, np.sum(np.abs(grad_pair) * np.abs(u3), axis=-1) * g.weight


def gradient_from_rows(g: Grid, rows: np.ndarray) -> np.ndarray:
    """dN = (-(div u3) u2, -conj(div u3) u1, grad(u1 . conj(u2))) assembled from product rows."""
    d = g.d
    return np.stack([-rows[:d], -rows[d : 2 * d], np.stack([ik * rows[2 * d] for ik in g.ik])])


class TestCouplingKernel:
    def test_dealias_flag_in_equality(self):
        assert Grid(64, 10.0) == Grid(64, 10.0)
        assert Grid(64, 10.0) != Grid(64, 10.0, dealias=True)
        assert len({Grid(64, 10.0), Grid(64, 10.0, dealias=True)}) == 2

    @pytest.mark.parametrize("n,extent", [(64, 10.0), ((16, 32), (6.0, 9.0))])
    def test_padded_product_exact_below_quarter_band(self, n, extent, rng):
        # factors below n/4 have products inside the band: plain and padded agree
        plain, padded = Grid(n, extent), Grid(n, extent, dealias=True)
        state = band_limited_state(plain, rng, 0.25)
        a, b = state.u1, np.conj(state.u2)
        exact = plain.product_sum(a, b)
        assert np.max(np.abs(padded.product_sum(a, b) - exact)) < 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n,extent", [(32, 10.0), ((16, 8), (6.0, 9.0))])
    def test_padded_products_match_double_padding(self, n, extent, rng):
        g = Grid(n, extent, dealias=True)
        kernel = Kernel(g)
        state = random_state(g, rng, smooth=False)
        F = g.fft(state.u)
        expected = gradient_from_rows(g, double_padding_rows(g, F))
        dN = kernel.nonlinear_gradient(F)
        assert np.max(np.abs(dN - expected)) < 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]), dealias=st.booleans())
    def test_coupling_flow_matches_double_padding(self, seed, d, dealias):
        # -i dN is the coupling flow (i (div u3) u2, i conj(div u3) u1,
        # -i grad q); plain grids are exact only while the products stay in
        # the band, so they get states below n/4
        n = {1: (32,), 2: (16, 8), 3: (8, 8, 8)}[d]
        g = Grid(n, (7.0, 5.0, 6.0)[:d], dealias=dealias)
        kernel = Kernel(g)
        rng = np.random.default_rng(seed)
        state = random_state(g, rng, smooth=False) if dealias else band_limited_state(g, rng, 0.25)
        F = g.fft(state.u)
        rows = double_padding_rows(g, F)
        expected = np.stack([1j * rows[:d], 1j * rows[d : 2 * d], np.stack([xi * rows[2 * d] for xi in g.xi])])
        flow = -1j * kernel.nonlinear_gradient(F)
        assert np.max(np.abs(flow - expected)) < 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_kernel_rows(self, dealias, rng):
        g = Grid((16, 32), (6.0, 9.0), dealias=dealias)
        kernel = Kernel(g)
        state = band_limited_state(g, rng, 0.25)
        F = g.fft(state.u)
        dN = kernel.nonlinear_gradient(F)
        div3 = sum(g.deriv(state.u3[k], k) for k in range(g.d))
        pair = np.sum(state.u1 * np.conj(state.u2), axis=0)
        expected = np.stack([
            -div3 * state.u2,
            -np.conj(div3) * state.u1,
            np.stack([g.deriv(pair, k) for k in range(g.d)]),
        ])
        assert np.max(np.abs(g.ifft(dN) - expected)) < 1e-12 * np.max(np.abs(expected))
        # C is the rectangle rule of (u3, grad(u1 . conj(u2))) on the same fields
        C = np.vdot(expected[2], state.u3) * g.weight
        assert abs(g.coupling(F) - C) < 1e-12 * np.sum(np.abs(expected[2]) * np.abs(state.u3)) * g.weight

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("n,extent", [(64, 12.0), ((16, 8), (6.0, 9.0))])
    def test_results_do_not_alias(self, n, extent, dealias, rng):
        # a result held from one call must survive later calls on other states
        g = Grid(n, extent, dealias=dealias)
        kernel = Kernel(g)
        a, b = random_state(g, rng), random_state(g, rng, scale=3.0)
        Fa, Fb = g.fft(a.u), g.fft(b.u)
        kept_Fa = Fa.copy()
        dN = kernel.nonlinear_gradient(Fa)
        kept = dN.copy()
        other = kernel.nonlinear_gradient(Fb)
        g.coupling(Fb)
        assert np.array_equal(dN, kept)
        assert not np.shares_memory(dN, other) and not np.shares_memory(dN, Fa)
        assert np.array_equal(Fa, kept_Fa)
        phys = PhysParams(1.0, 1.0, 1.0)
        kept_a = a.u.copy()
        for scheme in ("strang", "if_rk4"):
            first = step(a, phys, 1e-3, scheme)
            kept = first.u.copy()
            step(b, phys, 1e-3, scheme)
            assert np.array_equal(first.u, kept)
            assert np.array_equal(a.u, kept_a)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 3]),
        dealias=st.booleans(),
        lead=st.sampled_from([(), (3,), (2, 2)]),
    )
    def test_coupling_matches_the_spectral_oracle_and_its_symmetries(self, seed, d, dealias, lead):
        # bounds are relative to the sum of the moduli of C's terms
        g = Grid({1: (32,), 2: (16, 8), 3: (8, 8, 8)}[d], (7.0, 5.0, 6.0)[:d], dealias=dealias)
        rng = np.random.default_rng(seed)
        shape = (*lead, 3, d, *g.shape)
        u = g.ifft(g.fft(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / (1.0 + g.k2))
        F = g.fft(u)
        C = g.coupling(F)
        expected, scale = reference_coupling(g, F)
        assert np.shape(C) == lead
        assert np.all(np.abs(C - expected) <= 1e-13 * scale)
        for i in np.ndindex(*lead):
            assert abs(C[i] - g.coupling(F[i])) <= 1e-14 * scale[i]
        # the gauge (e^{ia} u1, e^{ib} u2, e^{i(a-b)} u3) and grid-aligned rolls keep C
        a, b, theta = rng.uniform(0.0, 2.0 * np.pi, 3)
        gauged = F * gauge_phases(a, b).reshape(3, *[1] * (d + 1))
        rolled = g.fft(np.roll(u, tuple(rng.integers(1, g.n)), axis=tuple(range(-d, 0))))
        for moved in (gauged, rolled):
            assert np.all(np.abs(g.coupling(moved) - C) <= 1e-13 * scale)
        # turning u3 by e^{i theta} turns C by e^{i theta}, and negating u3 negates C exactly
        turned, negated = F.copy(), F.copy()
        turned.reshape(*lead, 3, -1)[..., 2, :] *= np.exp(1j * theta)
        negated.reshape(*lead, 3, -1)[..., 2, :] *= -1.0
        assert np.all(np.abs(g.coupling(turned) - np.exp(1j * theta) * C) <= 1e-13 * scale)
        assert np.array_equal(g.coupling(negated), -C)


def smooth_spectrum(g: Grid, rng: np.random.Generator, lead: tuple = ()) -> np.ndarray:
    """The spectrum of a random smooth state, or of a batch of them with batch axes ``lead``."""
    shape = (*lead, 3, g.d, *g.shape)
    return g.fft(g.ifft(g.fft(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / (1.0 + g.k2)))


class TestKernelOracle:
    """The lean kernel against the reference kernel, bit for bit."""

    @pytest.mark.parametrize("lead", [(), (2,), (2, 2)])
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_exactly(self, d, dealias, lead):
        # a kernel serves one state: a batch is refused, and the kernel that
        # refused it still gives the reference dN of a state
        g = Grid({1: (32,), 2: (16, 8), 3: (8, 8, 8)}[d], (7.0, 5.0, 6.0)[:d], dealias=dealias)
        kernel = Kernel(g)
        rng = np.random.default_rng(100 * d + 10 * dealias + len(lead))
        if lead:
            with pytest.raises(ValueError, match="shape"):
                kernel.nonlinear_gradient(smooth_spectrum(g, rng, lead))
        F = smooth_spectrum(g, rng)
        kept_F = F.copy()
        result = kernel.nonlinear_gradient(F)
        expected = reference_nonlinear_gradient(g, F)
        assert result.shape == expected.shape
        assert np.array_equal(result, expected)
        # the contract: the result is the kernel's own
        other = kernel.nonlinear_gradient(F)
        assert not np.shares_memory(result, F)
        assert not np.shares_memory(result, other)
        assert np.array_equal(F, kept_F)

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reused_scratch_matches_reference(self, d, dealias):
        # one kernel keeps its scratch across calls: interleave the kernel on
        # states and the grid's C over batch shapes, each call on a new state,
        # so a stale pad region or a buffer the two calls share would show
        g = Grid({1: (32,), 2: (16, 8), 3: (8, 8, 8)}[d], (7.0, 5.0, 6.0)[:d], dealias=dealias)
        kernel = Kernel(g)
        rng = np.random.default_rng(7 + 10 * d + dealias)
        for lead in ((), (2,), (3,), ()):
            for coupling in (False, True, True, False):
                if coupling:
                    F = smooth_spectrum(g, rng, lead)
                    expected, scale = reference_coupling(g, F)
                    assert np.all(np.abs(g.coupling(F) - expected) <= 1e-13 * scale)
                else:
                    F = smooth_spectrum(g, rng)
                    assert np.array_equal(kernel.nonlinear_gradient(F), reference_nonlinear_gradient(g, F))

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_writes_into_out_exactly(self, d, dealias, lead):
        g = Grid({1: (32,), 2: (16, 8), 3: (8, 8, 8)}[d], (7.0, 5.0, 6.0)[:d], dealias=dealias)
        kernel = Kernel(g)
        rng = np.random.default_rng(200 + 100 * d + 10 * dealias + len(lead))
        if lead:
            # a batch and its own out are refused, and nothing is written
            batch = smooth_spectrum(g, rng, lead)
            out = np.full(batch.shape, np.nan, dtype=np.complex128)
            with pytest.raises(ValueError, match="shape"):
                kernel.nonlinear_gradient(batch, out=out)
            assert np.all(np.isnan(out))
        F = smooth_spectrum(g, rng)
        expected = reference_nonlinear_gradient(g, F)
        # stale values in the caller's array must not reach the result
        out = np.full(expected.shape, np.nan, dtype=np.complex128)
        result = kernel.nonlinear_gradient(F, out=out)
        assert result is out
        assert np.array_equal(out, expected)
        assert not np.shares_memory(out, F)
        assert not any(np.shares_memory(out, buffer) for buffer in scratch_arrays(kernel))

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    def test_out_may_be_the_spectrum(self, d, dealias, rng):
        # F is read in full before out is written
        g = Grid({1: (32,), 2: (16, 8)}[d], (7.0, 5.0)[:d], dealias=dealias)
        kernel = Kernel(g)
        F = g.fft(random_state(g, rng).u)
        expected = reference_nonlinear_gradient(g, F)
        assert np.array_equal(kernel.nonlinear_gradient(F, out=F), expected)
        assert np.array_equal(F, expected)

    def test_out_of_another_shape_or_type_is_refused(self, rng):
        g = Grid(32, 7.0)
        kernel = Kernel(g)
        F = g.fft(random_state(g, rng).u)
        for out in (np.empty((2, *F.shape), dtype=np.complex128), np.empty(F.shape, dtype=np.complex64)):
            with pytest.raises(ValueError):
                kernel.nonlinear_gradient(F, out=out)

    @pytest.mark.parametrize(
        "g", [Grid(512, 40.0, dealias=True), Grid((32, 32), (10.0, 10.0), dealias=True)], ids=["1d", "2d"]
    )
    def test_call_allocates_only_its_result(self, g, rng):
        # after a first call has built the scratch, a kernel call allocates
        # little beyond its result, and into a caller's array next to nothing
        # (in 2D a multiply broadcast along the rows would buffer a product
        # row); C keeps no scratch, so it allocates its working set: the
        # weighted rows, the 2d+1 rows of values on the product grid and, in
        # d >= 2, one product row for the pair sum
        kernel = Kernel(g)
        F = g.fft(random_state(g, rng).u)
        out = np.empty_like(F)
        kernel.nonlinear_gradient(F)
        tracemalloc.start()
        try:
            result = kernel.nonlinear_gradient(F)
            kernel_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            kernel.nonlinear_gradient(F, out=out)
            out_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.reset_peak()
            g.coupling(F)
            coupling_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        row = int(np.prod(g._product_shape)) * 16
        assert kernel_peak <= 1.25 * result.nbytes
        assert out_peak <= 4096
        assert coupling_peak <= F.nbytes + (2 * g.d + 1) * row + (row if g.d > 1 else 0) + 4096

    def test_strang_step_allocates_only_its_rk4_arrays(self, rng):
        # the RK4 substep makes its stage sum, stage input and stage derivative
        # once and the kernel writes into them, so after a warm-up step a step
        # allocates little beyond those three, and a kernel call into a
        # caller's array next to nothing
        g = Grid(512, 40.0, dealias=True)
        kernel = Kernel(g)
        half = _linear_phases(g, PhysParams(), 5e-4)
        F = _advance(kernel, g.fft(random_state(g, rng).u), 1e-3, "strang", half, None)
        out = np.empty_like(F)
        tracemalloc.start()
        try:
            F = _advance(kernel, F, 1e-3, "strang", half, None)
            step_peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kernel.nonlinear_gradient(F, out=out)
            kernel_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert step_peak <= 3 * F.nbytes + 4096
        assert kernel_peak <= 4096


class TestKernelBuilds:
    def test_only_dN_builds_kernel_scratch(self, monkeypatch):
        # C keeps no scratch, so a one-shot report, a Nehari rescale and the well
        # sampler build no kernel; an evolve builds one for its steps, and its
        # records, the orbit distance's included, build none
        builds, build = [], Kernel.__init__

        def counted(kernel, grid):
            builds.append(grid)
            build(kernel, grid)

        monkeypatch.setattr(Kernel, "__init__", counted)
        g, phys, wave = Grid(512, 40.0), PhysParams(), WaveParams(1.0, (0.3,))
        state = initial_ansatz(g, phys, wave)
        rep = evaluate(state, phys, wave)
        nehari_rescale(state, phys, wave)
        assert len(reports_below_level(g, phys, wave, rep.S, np.random.default_rng(7), 200).Q) == 200
        assert builds == []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evolve(state, phys, wave, EvolveConfig(dt=1e-3, t_final=5e-3, record_stride=2), reference=state)
        assert builds == [g]


KERNEL_GRIDS = {1: ((32,), (7.0,)), 2: ((16, 8), (7.0, 5.0)), 3: ((8, 8, 8), (7.0, 5.0, 6.0))}


class TestGridIsAValue:
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_no_attribute_changes(self, d, dealias):
        # every attribute stays the same object with the same bits through the
        # kernel, C on several batch shapes, a descent, an evolve with a
        # reference and the well sampler
        g = Grid(*KERNEL_GRIDS[d], dealias=dealias)
        before = {name: fingerprint(value) for name, value in vars(g).items()}
        phys, wave = PhysParams(), WaveParams(1.0, (0.2,) + (0.0,) * (d - 1))
        kernel, rng = Kernel(g), np.random.default_rng(d)
        for lead in ((), (2,), (3,), ()):
            F = g.fft(random_state(g, rng).u)
            kernel.nonlinear_gradient(F)
            g.coupling(F * np.ones((*lead, 1, 1, *[1] * d)))
        state = initial_ansatz(g, phys, wave)
        _descend(g, phys, wave, SolverConfig(max_iter=5), state)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evolve(state, phys, wave, EvolveConfig(dt=1e-3, t_final=3e-3, record_stride=1), reference=state)
        reports_below_level(g, phys, wave, 10.0, rng, 4)
        g.product_sum(state.u1, np.conj(state.u2))
        assert {name: fingerprint(value) for name, value in vars(g).items()} == before

    def test_threads_share_one_grid(self):
        # four threads on one grid, each with its own kernel, alternate dN and C
        # of two states and C of the pair of them, while switching threads
        # every microsecond (sharing the grid's kernel scratch, this got about
        # a tenth of the results wrong); C is the grid's, with no scratch at all
        g = Grid(64, 10.0, dealias=True)
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(4):
            pair = g.fft(np.stack([random_state(g, rng).u for _ in range(2)]))
            cases.append(([(F, reference_nonlinear_gradient(g, F), g.coupling(F)) for F in pair], pair, g.coupling(pair)))
        wrong = [0] * len(cases)

        def run(i):
            kernel = Kernel(g)
            states, pair, C_pair = cases[i]
            for _ in range(500):
                for F, dN, C in states:
                    wrong[i] += not np.array_equal(kernel.nonlinear_gradient(F), dN)
                    wrong[i] += not np.array_equal(g.coupling(F), C)
                wrong[i] += not np.array_equal(g.coupling(pair), C_pair)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [0] * len(cases)


class TestGridInputs:
    @pytest.mark.parametrize("n, extent", [([64], [10.0, 10.0]), ([8, 8], [10.0]), ([8, 8], [10.0, 10.0, 10.0])])
    def test_n_and_extent_of_other_lengths_refused(self, tmp_path, capsys, n, extent):
        with pytest.raises(ValueError, match="n and extent must have the same length"):
            Grid(n, extent)
        # through a config the grid's own check names it, before any write
        out = tmp_path / "out"
        doc = {"grid": {"n": n, "extent": extent}, "wave": {"c": [0.0] * len(n)}}
        capsys.readouterr()
        assert run_subcommand(["gs", "--config", json.dumps(doc), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("grid: n and extent must have the same length")
        assert not out.exists()
