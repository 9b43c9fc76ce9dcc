import itertools

import numpy as np
import pytest
import scipy.fft

from dnls3.grid import Grid, State


def random_state(grid: Grid, rng: np.random.Generator, smooth: bool = True, scale: float = 1.0) -> State:
    """Seeded random state; optionally smoothed so derivatives stay O(1)."""
    shape = (3, grid.d, *grid.shape)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if smooth:
        u = grid.ifft(grid.fft(u) / (1.0 + grid.k2) ** 2)
    return State(grid, scale * u)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid1d():
    return Grid(64, 2 * np.pi)


@pytest.fixture
def grid1d_box():
    return Grid(256, 40.0)


@pytest.fixture
def grid2d():
    return Grid((32, 32), (20.0, 20.0))


def band_limited_state(grid: Grid, rng: np.random.Generator, fraction: float) -> State:
    """Seeded random state whose spectrum vanishes at |mode number| >= fraction * n per axis."""
    shape = (3, grid.d, *grid.shape)
    F = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for k, nk in enumerate(grid.n):
        modes = np.abs(np.fft.fftfreq(nk, d=1.0 / nk))
        bshape = [1] * grid.d
        bshape[k] = nk
        F = F * (modes < fraction * nk).reshape(bshape)
    return State(grid, grid.ifft(F))


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts the transforms made through numpy.fft or scipy.fft while the test runs.

    ``calls`` counts the calls, ``points`` the points of their inputs and
    ``inverse_points`` those of the inverse transforms alone. An entry point
    that calls another wrapped entry point counts once.
    """
    counter = {"calls": 0, "points": 0, "inverse_points": 0}
    depth = [0]
    for module in (np.fft, scipy.fft):
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            original = getattr(module, name)

            def counted(*args, _original=original, _inverse=name.startswith("i"), **kwargs):
                if depth[0] == 0:
                    counter["calls"] += 1
                    # numpy.fft names the input a, scipy.fft x
                    points = np.size(args[0] if args else kwargs.get("a", kwargs.get("x")))
                    counter["points"] += points
                    counter["inverse_points"] += points if _inverse else 0
                depth[0] += 1
                try:
                    return _original(*args, **kwargs)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(module, name, counted)
    return counter


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Counts functional evaluations while the test runs, in every module that imports ``evaluate``."""
    from dnls3 import cli, functionals, ground_state

    counter = {"calls": 0}
    original = functionals.evaluate

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    for module in (functionals, ground_state, cli):
        monkeypatch.setattr(module, "evaluate", counted)
    return counter


def reference_nonlinear_gradient(g: Grid, F: np.ndarray) -> np.ndarray:
    """The coupling kernel written plainly: an exact oracle for ``Kernel.nonlinear_gradient``.

    Every symbol, product and sum is formed by the same floating-point
    operations in the same order as the library's kernel, by plainer
    means: the whole spectrum is weighted, zero-padded by copying blocks,
    and cut back block by block with per-call indices. Results must agree
    bit for bit.
    """
    d = g.d
    space = (slice(None),) * d

    def row(index):
        return (..., index) + space

    if g.dealias:
        product_shape = tuple(3 * nk // 2 for nk in g.n)
        halves = [
            ((slice(0, nk // 2), slice(0, nk // 2)), (slice(nk // 2, nk), slice(mk - nk // 2, mk)))
            for nk, mk in zip(g.n, product_shape)
        ]
        blocks = [tuple(zip(*pairs)) for pairs in itertools.product(*halves)]
        pad = g.band / np.sqrt(g.size)
        unpad = g.band * (np.sqrt(g.size) / int(np.prod(product_shape)))
    else:
        product_shape = g.shape
        blocks = [(space, space)]
        pad = unpad = 1.0 / np.sqrt(g.size)
    ones = np.ones(g.shape)
    pad_symbols = np.array([[pad * ones] * d, [pad * ones] * d, [pad * ik * ones for ik in g.ik]])
    unpad_symbols = np.array([-unpad * ones] * (2 * d) + [unpad * ik * ones for ik in g.ik])

    def fftn(f, norm):
        return np.fft.fft(f, norm=norm) if d == 1 else np.fft.fftn(f, axes=tuple(range(-d, 0)), norm=norm)

    def ifftn(f, norm):
        return np.fft.ifft(f, norm=norm) if d == 1 else np.fft.ifftn(f, axes=tuple(range(-d, 0)), norm=norm)

    def product_values(rows):
        if g.dealias:
            fine = np.zeros((*rows.shape[: rows.ndim - d], *product_shape), dtype=np.complex128)
            for band, padded in blocks:
                fine[(..., *padded)] = rows[(..., *band)]
            rows = fine
        return ifftn(rows, "forward")

    def cut(spectra, symbols, out):
        r = spectra.shape[-d - 1]
        for band, padded in blocks:
            source = spectra[(..., *padded)]
            np.multiply(source, symbols[(slice(0, r), *band)], out=out[(..., slice(0, r), *band)])
            if out.shape[-d - 1] > r:
                np.multiply(source[row(slice(r - 1, r))], symbols[(slice(r, None), *band)], out=out[(..., slice(r, None), *band)])

    lead = F.shape[: -d - 2]
    first, second, last = row(slice(0, d)), row(slice(d, 2 * d)), row(2 * d)
    weighted = F * pad_symbols
    rows = weighted.reshape(*lead, 3 * d, *g.shape)
    for k in range(1, d):
        rows[last] += rows[row(2 * d + k)]
    values = product_values(rows[row(slice(0, 2 * d + 1))])
    u1, u2, div = values[first], values[second], values[row(slice(2 * d, 2 * d + 1))]
    pair = np.conjugate(u2)
    pair *= u1
    products = np.empty((*lead, 2 * d + 1, *product_shape), dtype=np.complex128)
    np.multiply(div, u2, out=products[first])
    np.add.reduce(pair, axis=-d - 1, out=products[last])
    np.conjugate(div, out=div)
    np.multiply(div, u1, out=products[second])
    out = np.empty(F.shape, dtype=np.complex128)
    cut(fftn(products, "backward"), unpad_symbols, out.reshape(*lead, 3 * d, *g.shape))
    return out
