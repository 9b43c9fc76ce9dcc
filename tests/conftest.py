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

    An entry point that calls another wrapped entry point counts once.
    """
    counter = {"calls": 0}
    depth = [0]
    for module in (np.fft, scipy.fft):
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                if depth[0] == 0:
                    counter["calls"] += 1
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
    from dnls3 import cli, evolution, functionals, ground_state

    counter = {"calls": 0}
    original = functionals.evaluate

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    for module in (functionals, ground_state, evolution, cli):
        monkeypatch.setattr(module, "evaluate", counted)
    return counter
