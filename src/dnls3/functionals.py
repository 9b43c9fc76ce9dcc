"""Conserved and variational functionals of the three-component system.

For U = (u1, u2, u3) the basic quantities are

    Q  = (1/2) sum_j m_j ||u_j||^2, m = MASSES = (2, 1, 1)      (charge)
    L  = (alpha/2)||grad u1||^2 + (beta/2)||grad u2||^2
         + (gamma/2)||grad u3||^2                               (kinetic)
    N  = Re (u3, grad(u1 . conj(u2)))_L2                        (coupling)
    E  = L + N                                                  (energy)
    P_k = -(1/2) sum_j Re (i u_j, d_k u_j)_L2                   (momentum)

and, for a frequency/speed pair (omega, c),

    S   = E + omega Q + c.P          (action)
    K   = 2L + 3N + 2 omega Q + 2 c.P   (ray derivative of S at lambda=1)
    Lqc = K - 3N                     (quadratic part of the action)
    G   = (4-2d) omega Q + (3-d) c.P (stability weight)

with the algebraic identities S = K/3 + Lqc/6 and N = -2S + K.

All integrals use the grid's rectangle rule; derivatives and momenta are
evaluated spectrally (Parseval), so the identities hold to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNonlinearity, InadmissibleParameters
from .grid import Grid, Kernel, State
from .params import MASSES, PhysParams, WaveParams


@dataclass
class FunctionalReport:
    """Every functional of one state, or of a batch of states or records, at one (omega, c).

    A batch report holds an array over the batch in each field, P a row of d per state.
    """

    Q: float
    L: float
    N: float
    E: float
    P: np.ndarray
    S: float
    K: float
    Lqc: float
    G: float
    G_display: float | None
    omega: float
    c: np.ndarray

    @classmethod
    def from_parts(cls, Q, L, N, P: np.ndarray, omega: float, c: np.ndarray) -> "FunctionalReport":
        """Assemble the report from its four basic functionals, of one state or of a batch.

        P has the shape of Q, L and N plus a last axis of d. A batch's fields are
        those of its states' own reports, bit for bit: cP is summed row by row.
        """
        P = np.asarray(P)
        d = P.shape[-1]
        cP = (P * c).sum(axis=-1)
        E = L + N
        S = E + omega * Q + cP
        K = 2.0 * L + 3.0 * N + 2.0 * omega * Q + 2.0 * cP
        Lqc = K - 3.0 * N
        G = (4.0 - 2.0 * d) * omega * Q + (3.0 - d) * cP
        G_display = {1: omega * Q + cP, 2: cP}.get(d)
        return cls(Q=Q, L=L, N=N, E=E, P=P, S=S, K=K, Lqc=Lqc, G=G, G_display=G_display, omega=omega, c=c)

    def scaled(self, lam) -> "FunctionalReport":
        """Report of lam*U, lam a scalar or one per state: Q, L and P scale by lam^2, N by lam^3."""
        lam2 = lam * lam
        return FunctionalReport.from_parts(
            lam2 * self.Q, lam2 * self.L, lam2 * lam * self.N, np.asarray(lam2)[..., None] * self.P, self.omega, self.c
        )

    def nehari_factor(self) -> float:
        """lambda = -Lqc / (3N), which puts lambda*U on the zero set of K.

        Raises DegenerateNonlinearity when N is numerically zero.
        """
        if abs(self.N) < 1e-14 * (1.0 + abs(self.Lqc)):
            raise DegenerateNonlinearity(f"N={self.N:.3e} too small relative to Lqc={self.Lqc:.3e}")
        return -self.Lqc / (3.0 * self.N)

    @property
    def cP(self) -> float:
        return (self.P * self.c).sum(axis=-1)

    def identity_residuals(self) -> dict:
        """Relative residuals of the linear report identities."""
        scale = abs(self.L) + abs(self.N) + abs(self.omega * self.Q) + abs(self.cP) + 1e-300
        return {
            "S_definition": abs(self.S - (self.E + self.omega * self.Q + self.cP)) / scale,
            "S_from_K_Lqc": abs(self.S - (self.K / 3.0 + self.Lqc / 6.0)) / scale,
            "N_from_S_K": abs(self.N - (-2.0 * self.S + self.K)) / scale,
            "K_decomposition": abs(self.K - (2.0 * self.L + 3.0 * self.N + 2.0 * self.omega * self.Q + 2.0 * self.cP)) / scale,
        }

    def nehari_residual(self) -> float:
        """Distance from the constraint K = 0, |K| / max(1, Lqc)."""
        return abs(self.K) / max(1.0, self.Lqc)

    def pohozaev_residual(self) -> float:
        """Normalized residual of the dilation identity 2L + (d/2+1)N + c.P = 0."""
        d = self.P.shape[-1]
        terms = (2.0 * self.L, (d / 2.0 + 1.0) * self.N, self.cP)
        return abs(sum(terms)) / (sum(abs(t) for t in terms) + 1e-30)

    def fourd_residual(self, mu: float) -> float:
        """Residual of 2 omega Q + c.P = (4-d) mu, normalized by (4-d) mu.

        Holds for a minimizer at level mu.
        """
        rhs = (4.0 - self.P.shape[-1]) * mu
        return abs(2.0 * self.omega * self.Q + self.cP - rhs) / abs(rhs)

    def stability_margin(self) -> float:
        """G / (2 omega); positive favors stability."""
        return self.G / (2.0 * self.omega)


def evaluate(state: State, phys: PhysParams, wave: WaveParams) -> FunctionalReport:
    """Evaluate the full functional report.

    The functionals are defined for any (omega, c); classification and
    solving require admissibility, which is checked where they happen.
    The report is ``_report`` of the state's spectrum, on a kernel of its
    own: one forward and one inverse transform.
    """
    return _report(Kernel(state.grid), state.grid.fft(state.u), phys, wave)


def _report(kernel: Kernel, F: np.ndarray, phys: PhysParams, wave: WaveParams) -> FunctionalReport:
    """The report of the state with spectrum F: Q, L and P from ``_parts``, N = Re C from ``kernel.coupling``.

    One inverse transform, the coupling's; ``evolve`` records its spectrum through it, on its own kernel.
    """
    if wave.d != kernel.grid.d:
        raise ValueError(f"wave speed has {wave.d} components but grid is {kernel.grid.d}-dimensional")
    Q, L, P = _parts(kernel.grid, F, phys)
    return FunctionalReport.from_parts(Q, L, kernel.coupling(F).real, P, wave.omega, wave.c_array)


def _parts(grid: Grid, F: np.ndarray, phys: PhysParams):
    """(Q, L, P) of the state with spectrum F: the quadratic functionals.

    Every part is read off the spectrum: the transform is unitary, so Q sums
    |F|^2 as it would |u|^2. Q, L and P are moments of |F|^2: per axis k,
    the marginal of |F|^2 over the vector rows and the other axes, one row
    per component, times the moment rows (1, xi_k^2, xi_k) of
    ``Grid.moments`` gives each component's mass, its sum xi_k^2 |F|^2
    (k2 = sum_k xi_k^2) and its sum xi_k |F|^2, with no full-grid product.
    |F|^2 is held as the squares of F's real and imaginary parts, side by
    side as F's float64 view has them; the last axis's moment rows take
    them in pairs. In 1D the marginal is those squares, reshaped; in d >= 2
    they are summed over the vector rows as they are formed, which leaves
    2/d of |F|^2's entries as the only array of the grid's size. The
    coupling C, whose real part is N, comes from ``Kernel.coupling``.

    ``F`` has shape ``(..., 3, d, *grid.shape)``, contiguous: leading axes
    are batch axes, each part has their shape (P with d entries more), and a
    state without them gets scalars and a d-vector P.
    """
    d = grid.d
    lead = F.shape[: -d - 2]
    real = F.view(np.float64)
    if d == 1:
        squares = real * real
    else:
        vectors = real.reshape(*lead, 3, d, -1)
        squares = np.einsum("...vx,...vx->...x", vectors, vectors).reshape(*lead, 3, *grid.shape[:-1], -1)
    spatial = tuple(range(-d, 0))
    moments = []
    for k, rows in enumerate(grid.moments):
        marginal = squares if d == 1 else squares.sum(axis=spatial[:k] + spatial[k + 1 :])
        moments.append((marginal.reshape(-1, len(rows)) @ rows).reshape(*lead, 3, 3))
    mass = moments[0][..., 0]
    # halving and doubling are exact, so this gives the bits of n1 + n2/2 + n3/2
    m1, m2, m3 = MASSES.tolist()
    Q = 0.5 * (m1 * mass[..., 0] + m2 * mass[..., 1] + m3 * mass[..., 2]) * grid.weight
    k2_parts = sum(m[..., 1] for m in moments)
    L = 0.5 * (phys.alpha * k2_parts[..., 0] + phys.beta * k2_parts[..., 1] + phys.gamma * k2_parts[..., 2]) * grid.weight
    P = np.stack([m[..., 2].sum(axis=-1) for m in moments], axis=-1) * (-0.5 * grid.weight)
    return Q, L, P


def action_gradient(state: State, phys: PhysParams, wave: WaveParams) -> State:
    """L2 gradient of the action: Re <grad, V> is the derivative of S along V.

    Component expressions (m = ``params.MASSES``):

        G_j = -kappa_j Lap(u_j) + m_j omega u_j + i (c.grad) u_j + dN_j

    with nonlinear parts dN = (-(div u3) u2, -(conj div u3) u1,
    +grad(u1.conj(u2))) from the coupling kernel (``Kernel``, one of its
    own), the same kernel as the coupling functional, so this stays its
    exact gradient also in dealiased mode.
    """
    g = state.grid
    F = g.fft(state.u)
    return State(g, g.ifft(linear_symbols(g, phys, wave) * F + Kernel(g).nonlinear_gradient(F)))


def linear_symbols(grid: Grid, phys: PhysParams, wave: WaveParams) -> np.ndarray:
    """Fourier symbols of the three linear operators in the action gradient, as one array.

    Row j is kappa_j |xi|^2 + m_j omega - c.xi, at least D_j / (4 kappa_j)
    everywhere (``WaveParams.margins``), so strictly positive on the whole
    grid whenever (omega, c) is admissible. The shape (3, 1, *grid.shape)
    multiplies a spectrum, or a batch of spectra, as it stands.
    """
    c = wave.c_array
    cdotxi = sum(c[k] * grid.xi[k] for k in range(grid.d))
    column = (3, 1) + (1,) * grid.d
    return phys.kappa.reshape(column) * grid.k2 + (MASSES * wave.omega).reshape(column) - cdotxi


def nehari_rescale(state: State, phys: PhysParams, wave: WaveParams):
    """Scale U to the zero set of K: lambda = -Lqc(U) / (3 N(U)).

    K(lambda U) = lambda^2 Lqc(U) + 3 lambda^3 N(U) vanishes at this lambda,
    so the rescaled state satisfies the constraint to rounding. Raises
    DegenerateNonlinearity when the coupling N is numerically zero.
    """
    lam = evaluate(state, phys, wave).nehari_factor()
    return lam, State(state.grid, lam * state.u)


@dataclass(frozen=True)
class CoercivityCertificate:
    """Explicit constants certifying positivity of the quadratic part.

    With A_j = (kappa_j + |c|^2 / (4 m_j omega)) / 4, one per component,
    Lqc(U) decomposes into six weighted squared norms plus a manifestly
    nonnegative cross term, so

        Lqc(U) >= min_coeff * ||U||_{H1}^2 .

    The gradient coefficients kappa_j - 2 A_j and the mass coefficients
    m_j omega - |c|^2 / (8 A_j) are formed from the margins D_j
    (``WaveParams.margins``), as D_j / (8 m_j omega) and
    m_j omega D_j / (D_j + 2 |c|^2), so each is positive exactly when
    the pair is admissible, short of underflow.
    """

    A: tuple
    grad_coeffs: tuple
    mass_coeffs: tuple
    min_coeff: float


def coercivity_certificate(phys: PhysParams, wave: WaveParams) -> CoercivityCertificate:
    """The certificate of an admissible pair; InadmissibleParameters otherwise.

    Also raised when a coefficient underflows to 0, which needs omega below
    about 1e-300 with c != 0.
    """
    wave.require_admissible(phys)
    c2 = wave.speed**2
    mass_omega = MASSES * wave.omega
    margins = wave.margins(phys)
    A = (phys.kappa + c2 / (4.0 * mass_omega)) / 4.0
    grad_coeffs = margins / (8.0 * mass_omega)
    mass_coeffs = mass_omega * (margins / (margins + 2.0 * c2))
    min_coeff = float(min(grad_coeffs.min(), mass_coeffs.min()))
    if not min_coeff > 0.0:
        raise InadmissibleParameters(f"certificate degenerate at omega={wave.omega}: min coefficient {min_coeff}")
    return CoercivityCertificate(tuple(A.tolist()), tuple(grad_coeffs.tolist()), tuple(mass_coeffs.tolist()), min_coeff)


@dataclass(frozen=True)
class WellMembership:
    """Potential-well flags of one state below/above the minimization level mu.

    aplus/aminus use the sign of K, bplus/bminus the position of N relative
    to -2 mu; both require S < mu strictly. Boundary states get no flag.
    Built from the report of a batch, each flag is an array with one entry
    per state or record.
    """

    aplus: bool | np.ndarray
    aminus: bool | np.ndarray
    bplus: bool | np.ndarray
    bminus: bool | np.ndarray

    @property
    def none(self):
        return _plain(np.logical_not(self.aplus | self.aminus | self.bplus | self.bminus))

    @property
    def agree(self):
        """The K-sign and N-position descriptions of the wells coincide."""
        return _plain((self.aplus == self.bplus) & (self.aminus == self.bminus))

    @classmethod
    def from_report(cls, rep, mu: float) -> "WellMembership":
        """Flags of the states a report describes; the zero state (Q = 0) gets none.

        ``rep`` is a FunctionalReport, of one state or of a batch, or anything
        with Q, S, K and N of one shape, such as an EvolutionTrace at its own
        pair; the rule applies elementwise.
        """
        below = (rep.Q > 0.0) & (rep.S < mu)
        return cls(
            aplus=_plain(below & (rep.K > 0.0)),
            aminus=_plain(below & (rep.K < 0.0)),
            bplus=_plain(below & (rep.N > -2.0 * mu)),
            bminus=_plain(below & (rep.N < -2.0 * mu)),
        )


def _plain(flags):
    """A Python bool for a scalar flag, the boolean array otherwise."""
    return bool(flags) if np.ndim(flags) == 0 else flags


def gauge_phases(a, b) -> np.ndarray:
    """Phases (e^{ia}, e^{ib}, e^{i(a-b)}) of the two-parameter gauge, stacked on a new first axis.

    The solitary wave's gauge at angle theta is a = 2 theta, b = theta.
    """
    return np.array([np.exp(1j * a), np.exp(1j * b), np.exp(1j * (a - b))])
