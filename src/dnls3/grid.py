"""Periodic uniform grids, FFT-based operators, quadrature and norms.

Everything downstream works on a periodic box [-extent_k/2, extent_k/2)^d
sampled on a power-of-two tensor grid. Scalar fields are complex arrays of
shape ``grid.shape``; vector fields stack d components on a leading axis;
the three-component unknown is a ``State`` holding an array of shape
``(3, d, *grid.shape)``.

Conventions fixed here once and used consistently everywhere:

* transforms are unitary (``norm="ortho"``),
* one rule for the Nyquist mode: derivatives zero it, translations move
  it, and library noise has none. The derivative wavenumbers ``xi`` (and
  ``ik`` and ``k2`` built from them) are 0 at the Nyquist index, so every
  resolvent/propagator symbol matches the differential operators it is
  meant to invert or exponentiate; translations use the full set
  ``xi_full``, so grid-aligned shifts are exact circular rolls; noise is
  drawn through ``noise_spectrum``, whose ``band`` mask is 0 at every
  mode with a Nyquist index on some axis,
* quadrature is the rectangle rule with weight ``prod(spacing)``, which is
  spectrally exact for resolved trigonometric polynomials.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _entries(value) -> np.ndarray:
    """The entries of a number or a sequence of them, each as it is: none is converted."""
    return np.atleast_1d(np.asarray(value, dtype=object))


def _setting(value, name: str, whole: bool = False, above=None, least=None):
    """``value`` judged by the one rule for a numeric setting: a float, or an int if ``whole``.

    A setting is an int or a float, Python's or numpy's (a bool or a string
    is not one), that a float holds finitely, above ``above`` and at least
    ``least`` where they are given, and whole (512.0 counts as 512, 512.7 is
    refused) if ``whole``. Anything else, NaN, an infinity and an int past
    float range among them, raises a ValueError naming ``name``. Every test
    compares the value as it is, so a Python int is never converted to a
    float to be judged.
    """
    if (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
        and (not whole or isinstance(value, numbers.Integral) or float(value).is_integer())
        and (above is None or value > above)
        and (least is None or value >= least)
    ):
        return int(value) if whole else float(value)
    bounds = "".join(f" {op} {v}" for op, v in ((">", above), (">=", least)) if v is not None)
    kind = "whole" if whole else "real"
    raise ValueError(f"{name} must be a {kind} number{bounds} that a float holds finitely, got {value!r}")


class Grid:
    """Uniform periodic grid on [-extent_k/2, extent_k/2) per axis.

    Parameters
    ----------
    n : int or sequence of int
        Points per axis; each is a whole setting (``_setting``) that is a
        power of two >= 8 and that an array can index: 512.0 counts as 512,
        512.7 is refused, and so are "512", True and 2**1100.
    extent : float or sequence of float
        Box length per axis, a positive finite setting: "40" and True are
        refused, and so is a box so small that the cell's volume underflows
        to 0 or the grid's wavenumbers or their squares pass float range.
    dealias : bool
        If True, quadratic products (the only nonlinearity) are evaluated
        alias-free by 3/2 zero padding, which for quadratic terms gives the
        same guarantee the 2/3 rule targets but without discarding the top
        band of the fields themselves. Off by default: the states of
        interest are spectrally well resolved, where aliasing is negligible.

    A grid is a value: it compares and hashes by (n, extent, dealias), and
    nothing it holds changes after ``__init__``, the symbols and splits of
    the coupling kernel included. So threads may share one grid. The
    kernel's scratch lives in a ``Kernel`` built on the grid, one per loop
    or per thread.
    """

    def __init__(self, n, extent, dealias: bool = False):
        n = tuple(_setting(count, "points per axis", whole=True, least=8) for count in _entries(n))
        for count in n:
            if not (_is_power_of_two(count) and count <= sys.maxsize):
                raise ValueError(f"points per axis must be powers of two that an array can index, got {count}")
        extent = tuple(_setting(ek, "box length per axis", above=0) for ek in _entries(extent))
        if len(n) != len(extent):
            raise ValueError("n and extent must have the same length")
        d = len(n)
        if not 1 <= d <= 3:
            raise ValueError(f"dimension must be 1..3, got {d}")

        self.d = d
        self.n = n
        self.extent = extent
        self.dealias = bool(dealias)
        self.spacing = tuple(ek / nk for ek, nk in zip(extent, n))
        self.shape = n
        self.size = int(np.prod(n))
        #: quadrature weight of one cell
        self.weight = math.prod(self.spacing)
        # every derived number must fit in a float: the cell, the Nyquist wavenumbers
        # pi / h and |xi|^2 at the corner mode, which bounds k2 and the symbols on it
        if not (self.weight > 0 and sum((np.pi / h) * (np.pi / h) for h in self.spacing) < np.inf):
            raise ValueError(f"box length per axis {list(extent)} is too small for {list(n)} points: its cell or wavenumbers pass float range")
        # and the cell's weight and |x|^2 at the box's corner, which bounds every radius on the grid
        if not (self.weight < np.inf and sum((ek / 2.0) * (ek / 2.0) for ek in extent) < np.inf):
            raise ValueError(f"box length per axis {list(extent)} is too large: its cell or squared corner radius passes float range")
        self._spatial_axes = tuple(range(-d, 0))
        space = (slice(None),) * d

        # per-axis coordinates and wavenumbers, broadcastable over the grid
        self.axes = []
        self.xi_full = []  # translation wavenumbers (Nyquist included)
        self.xi = []  # derivative wavenumbers (Nyquist zeroed)
        #: 0 at every mode with a Nyquist index on some axis, 1 elsewhere
        self.band = np.ones(self.shape)
        for k in range(d):
            x = -extent[k] / 2.0 + self.spacing[k] * np.arange(n[k])
            xi = 2.0 * np.pi * np.fft.fftfreq(n[k], d=self.spacing[k])
            xi_d = xi.copy()
            xi_d[n[k] // 2] = 0.0
            bshape = [1] * d
            bshape[k] = n[k]
            self.axes.append(x)
            self.xi_full.append(xi.reshape(bshape))
            self.xi.append(xi_d.reshape(bshape))
            self.band[(slice(None),) * k + (n[k] // 2,)] = 0.0
        self.ik = [1j * xk for xk in self.xi]
        self.k2 = sum(xk**2 for xk in self.xi)
        #: per axis k, the moment rows (1, xi_k^2, xi_k) as the columns of an (n_k, 3)
        #: array: a marginal of |F|^2 along axis k times them gives its mass, its
        #: sum of xi_k^2 |F|^2 and its sum of xi_k |F|^2. The last axis's rows come
        #: twice each, (2 n_k, 3), to meet the squares of a spectrum's real and
        #: imaginary parts side by side, as its float64 view holds them
        self.moments = []
        for k, xk in enumerate(self.xi):
            rows = np.stack([np.ones(n[k]), xk.ravel() ** 2, xk.ravel()], axis=-1)
            self.moments.append(np.repeat(rows, 2, axis=0) if k == d - 1 else rows)

        if dealias:
            # quadratic products are formed on the 3/2-padded grid; the
            # Nyquist mode has no symmetric partner in the band, so it is
            # excluded from dealiased products (its content is at rounding
            # level for resolved fields)
            self._product_shape = tuple(3 * nk // 2 for nk in n)
            # per axis, the nonnegative modes keep their index and the
            # negative ones (Nyquist first) move to the top of the padded
            # axis: split into halves of n/2 modes, the band's two halves are
            # the first and the third of the padded axis's three, so one
            # strided view of the padded grid holds the whole band
            self._band_split = tuple(v for nk in n for v in (2, nk // 2))
            self._product_split = tuple(v for nk in n for v in (3, nk // 2))
            band_modes = (slice(None, None, 2), slice(None)) * d
            fine_size = int(np.prod(self._product_shape))
            # unitary band spectrum -> unnormalized fine spectrum, and back
            pad = self.band / np.sqrt(self.size)
            unpad = self.band * (np.sqrt(self.size) / fine_size)
        else:
            self._product_shape = self._band_split = self._product_split = self.shape
            band_modes = space
            pad = unpad = 1.0 / np.sqrt(self.size)
        #: C's quadrature weight on the product grid, signed for the integration by parts
        self._coupling_weight = -self.weight * self.size / int(np.prod(self._product_shape))
        # symbols of the coupling kernel, in the state's layout: the pad
        # weights u1 and u2 by the band scale and u3 by the terms i xi_k of
        # div u3; the unpad folds the transform scale into the symbols
        # (-1, -1, i xi) of the gradient
        ones = np.ones(self.shape)
        rows = (3, d, *self.shape)
        self._pad_symbols = np.array([pad * ones] * (2 * d) + [pad * ik * ones for ik in self.ik]).reshape(rows)
        self._unpad_symbols = np.array([-unpad * ones] * (2 * d) + [unpad * ik * ones for ik in self.ik]).reshape(rows)

        #: the band's modes on the split product grid
        self._band_modes = (..., *band_modes)

    # -- coordinates -------------------------------------------------------

    def meshgrid(self):
        """Coordinate arrays X_1..X_d of shape ``grid.shape``."""
        return np.meshgrid(*self.axes, indexing="ij")

    def radius(self) -> np.ndarray:
        """Euclidean distance from the box center."""
        mesh = self.meshgrid()
        return np.sqrt(sum(X**2 for X in mesh))

    # -- transforms and multipliers ----------------------------------------

    def _fftn(self, f: np.ndarray, norm: str, out: np.ndarray | None = None) -> np.ndarray:
        # the 1-D entry point skips fftn's per-call axis bookkeeping and
        # returns the same values bit for bit; with ``out`` (which may be
        # ``f``) every axis is transformed into it, with no temporaries
        if self.d == 1:
            return np.fft.fft(f, norm=norm, out=out)
        return np.fft.fftn(f, axes=self._spatial_axes, norm=norm, out=out)

    def _ifftn(self, F: np.ndarray, norm: str, out: np.ndarray | None = None) -> np.ndarray:
        if self.d == 1:
            return np.fft.ifft(F, norm=norm, out=out)
        return np.fft.ifftn(F, axes=self._spatial_axes, norm=norm, out=out)

    def fft(self, f: np.ndarray) -> np.ndarray:
        """Unitary forward transform over the trailing spatial axes."""
        return self._fftn(f, "ortho")

    def ifft(self, F: np.ndarray) -> np.ndarray:
        return self._ifftn(F, "ortho")

    def apply_multiplier(self, f: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Pointwise multiplication by ``m`` in frequency space.

        ``m`` must broadcast against the grid shape and be finite at every
        grid wavenumber.
        """
        m = np.asarray(m)
        if not np.all(np.isfinite(m)):
            raise ValueError("multiplier has non-finite values at grid wavenumbers")
        return self.ifft(m * self.fft(f))

    def deriv(self, f: np.ndarray, axis: int) -> np.ndarray:
        """Spectral partial derivative along spatial axis ``axis`` (0-based)."""
        if not 0 <= axis < self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        return self.ifft(self.ik[axis] * self.fft(f))

    def translate(self, f: np.ndarray, y) -> np.ndarray:
        """Evaluate f(x - y) by a spectral phase shift.

        Uses the full wavenumber set (Nyquist included) so grid-aligned
        shifts reproduce an exact circular roll.
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        phase = np.exp(sum(-1j * y[k] * self.xi_full[k] for k in range(self.d)))
        return self.ifft(phase * self.fft(f))

    def noise_spectrum(self, rng: np.random.Generator, lead: tuple, power: int) -> np.ndarray:
        """Unitary spectrum of smoothed Gaussian noise, shape ``(*lead, *shape)``.

        White complex Gaussian noise is drawn as a spectrum (its unitary
        transform has the same law, so no transform is spent on it) and
        multiplied by ``band / (1 + k2)^power``: the noise has no Nyquist mode.
        """
        noise = rng.standard_normal((*lead, *self.shape, 2)).view(np.complex128)[..., 0]
        noise *= self.band / (1.0 + self.k2) ** power
        return noise

    # -- quadratic products --------------------------------------------------

    def _product_values(self, weighted: np.ndarray) -> np.ndarray:
        """Values on the product grid of band spectra already weighted by the pad symbols.

        ``weighted`` has shape ``(..., *shape)``, and one inverse transform
        makes the values: in place on a plain grid, and on a dealiased grid
        into a new array of shape ``(..., *product_shape)`` that zero-pads
        them onto the 3/2 grid.
        """
        if not self.dealias:
            return self._ifftn(weighted, "forward", out=weighted)
        lead = weighted.shape[: -self.d]
        fine = np.zeros((*lead, *self._product_split), dtype=np.complex128)
        fine[self._band_modes] = weighted.reshape(*lead, *self._band_split)
        fine = fine.reshape(*lead, *self._product_shape)
        return self._ifftn(fine, "forward", out=fine)

    def product_sum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sum over the leading axis of pointwise products a_m * b_m.

        Alias-free on a dealiased grid: both factors go to the product grid
        in one batched transform (``_product_values``), the same path as ``coupling``.
        """
        if not self.dealias:
            return np.sum(a * b, axis=0)
        values = self._product_values(self.fft(np.stack([a, b])) * self._pad_symbols[0, 0])
        spectrum = self._fftn(np.sum(values[0] * values[1], axis=0), "backward").reshape(self._product_split)
        unpad_scale = -self._unpad_symbols[0, 0].reshape(self._band_split)
        return self.ifft((spectrum[self._band_modes] * unpad_scale).reshape(self.shape))

    def coupling(self, F: np.ndarray):
        """C = (u3, grad(u1 . conj(u2))) of the state with spectrum F, or of each state of a batch.

        ``F`` is the unitary spectrum of a state, shape ``(3, d, *shape)``, or
        of a batch, shape ``(..., 3, d, *shape)``; C is a complex scalar for a
        state, an array over the batch axes for a batch. N = Re C, and turning
        u3 by e^{i theta} turns C by e^{i theta}. Integrated by parts,
        C = -(div u3, u1 . conj(u2)): F times its pad symbols gives the band
        rows of u1, u2 and the terms of div u3, summed into one row, and these
        2d+1 rows go to the product grid in one inverse transform
        (``_product_values``). C is the rectangle rule there of the pair sum's
        conjugate times div u3. By Parseval that is the C of ``Kernel``'s dN,
        also when dealiasing, as the pair sum's aliased modes fall outside the
        band of div u3. No forward transform is made and nothing is kept: a
        call allocates its weighted rows, which a plain grid transforms in
        place, the padded values on a dealiased grid and, in d >= 2, one
        product row for the pair sum.
        """
        d = self.d
        lead = F.shape[: -d - 2]
        weighted = np.multiply(F, self._pad_symbols).reshape(*lead, 3 * d, -1)
        for k in range(1, d):
            weighted[..., 2 * d, :] += weighted[..., 2 * d + k, :]
        values = self._product_values(weighted[..., : 2 * d + 1, :].reshape(*lead, 2 * d + 1, *self.shape))
        values = values.reshape(*lead, 2 * d + 1, -1)
        u1, u2 = values[..., :d, :], values[..., d : 2 * d, :]
        # the pair terms conj(u2) u1 are formed in place in the rows of u2; in
        # 1D the pair term is the pair sum
        np.conjugate(u2, out=u2)
        np.multiply(u2, u1, out=u2)
        pair = u2[..., 0, :] if d == 1 else np.add.reduce(u2, axis=-2)
        return np.vecdot(pair, values[..., 2 * d, :]) * self._coupling_weight

    # -- diagnostics ---------------------------------------------------------

    def tail_mass(self, f: np.ndarray, smooth: float = 0.0) -> float:
        """Relative quadrature mass in the outer 10% of the half-box.

        A point is in the tail region when any coordinate exceeds
        0.9*extent_k/2 in magnitude. Used to flag profiles whose decay is
        not contained by the box.

        With ``smooth`` > 0 the field is first convolved with a Gaussian of
        that width (a spectral multiplier), which annihilates broadband
        truncation ringing at the band edge while passing the smooth
        envelope: the result then measures whether the *resolved* profile
        is contained by the box, independently of discretization noise.
        """
        if smooth > 0.0:
            mult = np.exp(-0.5 * smooth**2 * self.k2)
            f = self.apply_multiplier(f, mult)
        mesh = self.meshgrid()
        outer = np.zeros(self.shape, dtype=bool)
        for k in range(self.d):
            outer |= np.abs(mesh[k]) > 0.9 * self.extent[k] / 2.0
        mass = np.abs(f) ** 2
        total = np.sum(mass)
        if total == 0.0:
            return 0.0
        # collapse any leading component axes before masking
        mass = mass.reshape(-1, *self.shape).sum(axis=0)
        return float(mass[outer].sum() / total)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.extent == other.extent
            and self.dealias == other.dealias
        )

    def __hash__(self):
        return hash((self.n, self.extent, self.dealias))

    def __repr__(self):
        return f"Grid(n={self.n}, extent={self.extent}, dealias={self.dealias})"


class Kernel:
    """The scratch of dN (``nonlinear_gradient``) for one state on one grid, kept across calls.

    ``Kernel(grid)`` builds the scratch for a spectrum of shape
    ``(3, d, *grid.shape)``, and every call reuses it. Each loop builds one
    kernel and keeps it (a descent, an evolve), and each one-shot dN builds
    its own (``action_gradient``, ``coupling_rhs``, ``step``). C needs no
    scratch: it is ``Grid.coupling``. A kernel must not run on several
    threads at once; threads may share its grid, each with its own kernel.
    """

    def __init__(self, grid: Grid):
        """The scratch, as named views set on the kernel.

        First the band rows (3d rows, in F's layout): F times its pad
        symbols, and later the band of the transformed products, which the
        unpad symbols multiply into the result. Then three buffers of 2d+1
        rows on the product grid: the padded spectra, zeroed once (only the
        band is ever written, so the padding stays zero), the values (on a
        plain grid, the padded spectra transformed in place) and the
        products, transformed in place. The rows a call transforms are one
        contiguous block (a transform of a strided block costs numpy a copy
        of it), and so is each row a product reads or writes. F's rows u1, u2
        and u3, the terms of div u3 summed into row 2d, go to the same rows
        of the padded spectra, and the pair sum takes the last product row.
        """
        self.grid = grid
        d = grid.d
        rows = 2 * d + 1
        band = grid._band_modes[1:]
        weighted = np.empty((3 * d, *grid._band_split), dtype=np.complex128)
        fine = np.zeros((rows, *grid._product_split), dtype=np.complex128)
        padded = fine.reshape(rows, *grid._product_shape)
        values = np.empty_like(padded) if grid.dealias else padded
        products = np.empty_like(padded)
        spectra = products.reshape(rows, *grid._product_split)
        # the band goes back to the band rows: product rows 0..2d as they are,
        # then the pair row once per row of grad (for d = 1, one block)
        direct = 3 * d if d == 1 else 2 * d
        self.cut = [(spectra[(slice(0, direct), *band)], weighted[:direct])]
        if d > 1:
            self.cut.append((spectra[(slice(2 * d, 2 * d + 1), *band)], weighted[2 * d :]))
        # the conjugates go to rows that are free until the products take them:
        # conj(u2) and conj(div u3) as a block whose last row is not among the
        # rows of conj(div u3) u1. In 1D the pair term is the pair sum and goes
        # straight to its row; otherwise the d terms are summed into it from
        # the rows (div u3) u2 takes last
        conj, self.pair_terms = (products[:2], products[2:]) if d == 1 else (products[d:], products[:d])
        # the weighted rows u1, u2 and div u3, and the band they go to
        self.kept = weighted[:rows]
        self.band = fine[(slice(None), *band)]
        self.weighted = weighted.reshape(3, d, *grid.shape)
        self.terms = [(weighted[2 * d], weighted[2 * d + k]) for k in range(1, d)]
        self.padded, self.values, self.products = padded, values, products
        # the rows: u1, then u2 and div u3 (the last row), adjacent rows
        # conjugated in one call, and the products that take their places and
        # the pair sum
        self.u1, self.u2_div, self.pair = values[:d], values[d:], products[2 * d]
        self.conj_u2_div, self.conj_u2 = conj, conj[:d]
        # the factors and the product of conj(div u3) u1 and (div u3) u2, one
        # row of u1 or u2 at a time: a multiply broadcast along the rows
        # buffers a product row
        self.conj_div_u1 = [(conj[d], values[k], products[d + k]) for k in range(d)]
        self.div_u2 = [(values[2 * d], values[d + k], products[k]) for k in range(d)]

    def nonlinear_gradient(self, F: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Spectrum of dN, the coupling part of the action gradient, of the state with spectrum F.

        ``F`` is the unitary spectrum of one state, shape ``(3, d, *shape)``;
        a spectrum of any other shape is refused with a ValueError. The
        result has the shape of ``F`` and holds the spectra of

            dN = (-(div u3) u2, -conj(div u3) u1, grad(u1 . conj(u2))),

        so that the action gradient is its linear part plus dN and the
        coupling flow is i dt U = dN. All 3d rows of the band are weighted,
        one contiguous block, before the 2d+1 rows u1, u2 and div u3 are
        copied into the padded grid (a ufunc on a strided block buffers it);
        they go to the product grid in one inverse transform of all their
        rows, the products are formed there, and one forward transform
        brings them back; the transform scale and the symbols (-1, -1, i xi)
        are folded into the multiply that cuts out the band. Every
        intermediate lives in the kernel's scratch (``__init__``) and both
        transforms write into it. In d >= 2 the products of div u3 and its
        conjugate are formed one row of u1 or u2 at a time: a multiply
        broadcast along the rows buffers a product row.

        With ``out``, a complex128 array of F's shape, the result is written
        there and ``out`` is returned, and the call allocates next to
        nothing. F is read in full before ``out`` is written, so ``out`` may
        be F itself or share memory with it; the one memory it may not share
        is the kernel's scratch, which no call hands out. Without ``out`` the
        result is a new array that shares no memory with F, the scratch or
        another call's result, and the call allocates little beyond it.
        """
        shape = self.weighted.shape
        if F.shape != shape or (out is not None and (out.shape != shape or out.dtype != np.complex128)):
            raise ValueError(f"F and out must be arrays of shape {shape}, out a complex128 one")
        grid = self.grid
        np.multiply(F, grid._pad_symbols, out=self.weighted)
        for div, term in self.terms:
            np.add(div, term, out=div)
        np.copyto(self.band, self.kept)
        grid._ifftn(self.padded, "forward", out=self.values)
        # conj(u2) and conj(div u3); each product keeps the conjugate as its
        # first factor and u1 or u2 as its second
        np.conjugate(self.u2_div, out=self.conj_u2_div)
        np.multiply(self.conj_u2, self.u1, out=self.pair_terms)
        for factors in self.conj_div_u1:
            np.multiply(*factors)
        if grid.d > 1:
            np.add.reduce(self.pair_terms, axis=0, out=self.pair)
        for factors in self.div_u2:
            np.multiply(*factors)
        grid._fftn(self.products, "backward", out=self.products)
        # the band is copied out before it is multiplied: a ufunc reading the
        # strided band would buffer a copy of it
        for source, rows in self.cut:
            np.copyto(rows, source)
        if out is None:
            out = np.empty(shape, dtype=np.complex128)
        return np.multiply(self.weighted, grid._unpad_symbols, out=out)


#: per-axis box length by dimension. At unit frequency the 1D default keeps the
#: ground-state tail at 3e-16 (n = 512); the 2D default misses the Pohozaev gate
#: of ``check`` and the 3D default raises DomainTooSmall (ROADMAP item 3)
DEFAULT_EXTENT = {1: 40.0, 2: 30.0, 3: 20.0}


@dataclass
class State:
    """The three-component vector unknown on one grid.

    ``u`` has shape ``(3, d, *grid.shape)``: components j=1..3, each a
    d-vector of complex scalar fields.
    """

    grid: Grid
    u: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (3, self.grid.d, *self.grid.shape)
        self.u = np.ascontiguousarray(self.u, dtype=np.complex128)
        if self.u.shape != expected:
            raise ValueError(f"state shape {self.u.shape} != expected {expected}")

    @classmethod
    def zeros(cls, grid: Grid) -> "State":
        return cls(grid, np.zeros((3, grid.d, *grid.shape), dtype=np.complex128))

    @property
    def u1(self) -> np.ndarray:
        return self.u[0]

    @property
    def u2(self) -> np.ndarray:
        return self.u[1]

    @property
    def u3(self) -> np.ndarray:
        return self.u[2]

    def copy(self) -> "State":
        return State(self.grid, self.u.copy())

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)))


def norm_h1(state: State) -> float:
    """H1 norm: sqrt(sum_j ||u_j||^2 + ||grad u_j||^2), read off the unitary spectrum (``_norm_h1``)."""
    return _norm_h1(state.grid, state.grid.fft(state.u))


def _norm_h1(grid: Grid, F: np.ndarray) -> float:
    """H1 norm of the state with spectrum F."""
    return float(np.sqrt(np.sum((1.0 + grid.k2) * np.abs(F) ** 2) * grid.weight))
