"""Conserved and variational functionals of the three-component system.

For U = (u1, u2, u3) the basic quantities are

    Q  = ||u1||^2 + ||u2||^2/2 + ||u3||^2/2                     (charge)
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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNonlinearity, NonpositiveLevel
from .grid import Grid, State
from .params import PhysParams, WaveParams

_KAPPA = ("alpha", "beta", "gamma")


def charge(state: State) -> float:
    g = state.grid
    w = np.array([1.0, 0.5, 0.5])
    return float(np.tensordot(w, np.abs(state.u) ** 2, axes=([0], [0])).sum() * g.weight)


def kinetic(state: State, phys: PhysParams) -> float:
    g = state.grid
    F = g.fft(state.u)
    per_component = np.sum(g.k2 * np.abs(F) ** 2, axis=tuple(range(1, F.ndim)))
    kappa = np.array([phys.alpha, phys.beta, phys.gamma])
    return float(0.5 * np.dot(kappa, per_component) * g.weight)


def _coupling(grid: Grid, F: np.ndarray, Qhat: np.ndarray) -> complex:
    """C = (u3, grad q) by Parseval, from the state and pair-product spectra; N = Re C.

    Rotating u3 by e^{i theta} turns C into e^{i theta} C.
    """
    C = 0j
    for k in range(grid.d):
        C += complex(np.sum(F[2, k] * np.conj(grid.ik[k] * Qhat)))
    return C * grid.weight


def potential(state: State) -> float:
    """Coupling term N = Re (u3, grad(u1 . conj(u2)))."""
    g = state.grid
    F = g.fft(state.u)
    return _coupling(g, F, g.coupling_spectra(F, state.u, pair_only=True)).real


def energy(state: State, phys: PhysParams) -> float:
    return kinetic(state, phys) + potential(state)


def momentum(state: State) -> np.ndarray:
    g = state.grid
    F2 = np.abs(g.fft(state.u)) ** 2
    P = np.empty(g.d)
    for k in range(g.d):
        P[k] = -0.5 * np.sum(g.xi[k] * F2) * g.weight
    return P


@dataclass
class FunctionalReport:
    """Every functional of one state at one (omega, c), evaluated in one pass."""

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
    def from_parts(cls, Q: float, L: float, N: float, P: np.ndarray, omega: float, c: np.ndarray) -> "FunctionalReport":
        """Assemble the report from its four basic functionals."""
        d = len(P)
        cP = float(np.dot(c, P))
        E = L + N
        S = E + omega * Q + cP
        K = 2.0 * L + 3.0 * N + 2.0 * omega * Q + 2.0 * cP
        Lqc = K - 3.0 * N
        G = (4.0 - 2.0 * d) * omega * Q + (3.0 - d) * cP
        if d == 1:
            G_display = omega * Q + cP
        elif d == 2:
            G_display = cP
        else:
            G_display = None
        return cls(Q=Q, L=L, N=N, E=E, P=P, S=S, K=K, Lqc=Lqc, G=G, G_display=G_display, omega=omega, c=c)

    def scaled(self, lam: float) -> "FunctionalReport":
        """Report of lam*U: Q, L and P scale by lam^2, N by lam^3."""
        lam2 = lam * lam
        return FunctionalReport.from_parts(
            lam2 * self.Q, lam2 * self.L, lam2 * lam * self.N, lam2 * self.P, self.omega, self.c
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
        return float(np.dot(self.c, self.P))

    def identity_residuals(self) -> dict:
        """Relative residuals of the linear report identities."""
        scale = abs(self.L) + abs(self.N) + abs(self.omega * self.Q) + abs(self.cP) + 1e-300
        return {
            "S_definition": abs(self.S - (self.E + self.omega * self.Q + self.cP)) / scale,
            "S_from_K_Lqc": abs(self.S - (self.K / 3.0 + self.Lqc / 6.0)) / scale,
            "N_from_S_K": abs(self.N - (-2.0 * self.S + self.K)) / scale,
            "K_decomposition": abs(self.K - (2.0 * self.L + 3.0 * self.N + 2.0 * self.omega * self.Q + 2.0 * self.cP)) / scale,
        }


def evaluate(state: State, phys: PhysParams, wave: WaveParams, warn_inadmissible: bool = False) -> FunctionalReport:
    """Evaluate the full functional report.

    The functionals are defined for any (omega, c); classification and
    solving require admissibility, so by default no warning is emitted here.
    """
    if warn_inadmissible and not wave.admissible(phys):
        warnings.warn(
            f"(omega={wave.omega}, |c|={wave.speed}) is not admissible; "
            "classification results are meaningless",
            stacklevel=2,
        )
    if wave.d != state.grid.d:
        raise ValueError(f"wave speed has {wave.d} components but grid is {state.grid.d}-dimensional")
    return _report(state, state.grid.fft(state.u), phys, wave)


def _report(state: State, F: np.ndarray, phys: PhysParams, wave: WaveParams) -> FunctionalReport:
    """The functional report of a state whose spectrum F the caller holds."""
    Q, L, C, P = _parts(state, F, phys, state.grid.coupling_spectra(F, state.u, pair_only=True))
    return FunctionalReport.from_parts(Q, L, C.real, P, wave.omega, wave.c_array)


def _parts(state: State, F: np.ndarray, phys: PhysParams, Qhat: np.ndarray):
    """(Q, L, C, P) of a state whose spectrum F and pair-product spectrum Qhat the caller holds.

    C is the complex coupling of _coupling; the coupling functional is N = Re C.
    """
    g = state.grid
    absF2 = np.abs(F) ** 2

    Q = float(np.sum(np.abs(state.u1) ** 2) + 0.5 * np.sum(np.abs(state.u2) ** 2) + 0.5 * np.sum(np.abs(state.u3) ** 2)) * g.weight
    spatial = tuple(range(1, F.ndim))
    kin_parts = np.sum(g.k2 * absF2, axis=spatial)
    L = float(0.5 * (phys.alpha * kin_parts[0] + phys.beta * kin_parts[1] + phys.gamma * kin_parts[2]) * g.weight)

    P = np.empty(g.d)
    for k in range(g.d):
        P[k] = -0.5 * float(np.sum(g.xi[k] * absF2)) * g.weight

    return Q, L, _coupling(g, F, Qhat), P


def action_gradient(state: State, phys: PhysParams, wave: WaveParams) -> State:
    """L2 gradient of the action: Re <grad, V> is the derivative of S along V.

    Component expressions (m1, m2, m3 = 2, 1, 1):

        G_j = -kappa_j Lap(u_j) + m_j omega u_j + i (c.grad) u_j + nonlinear_j

    with nonlinear parts -(div u3) u2, -(conj div u3) u1 and +grad(u1.conj(u2)).
    """
    g = state.grid
    F = g.fft(state.u)
    return State(g, g.ifft(_gradient_spectrum(g, F, g.coupling_spectra(F, state.u), phys, wave)))


def _gradient_spectrum(g: Grid, F: np.ndarray, products: np.ndarray, phys: PhysParams, wave: WaveParams) -> np.ndarray:
    """Spectrum of the action gradient of a state from its spectrum F and coupling products.

    ``products`` is ``g.coupling_spectra(F, ...)``, the same kernel as the
    coupling functional, so this stays its exact gradient also in dealiased
    mode.
    """
    d = g.d
    out = np.empty_like(F)
    for j, sym in enumerate(linear_symbols(g, phys, wave)):
        out[j] = sym * F[j]
    out[0] -= products[:d]
    out[1] -= products[d : 2 * d]
    for k in range(d):
        out[2, k] += g.ik[k] * products[2 * d]
    return out


def linear_symbols(grid: Grid, phys: PhysParams, wave: WaveParams):
    """Fourier symbols of the three linear operators in the action gradient.

    symbol_j = kappa_j |xi|^2 + m_j omega - c.xi, strictly positive on the
    whole grid whenever (omega, c) is admissible.
    """
    c = wave.c_array
    cdotxi = sum(c[k] * grid.xi[k] for k in range(grid.d))
    kappa = (phys.alpha, phys.beta, phys.gamma)
    masses = (2.0, 1.0, 1.0)
    return [k * grid.k2 + m * wave.omega - cdotxi for k, m in zip(kappa, masses)]


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

    With A_j as below, Lqc(U) decomposes into six weighted squared norms
    plus a manifestly nonnegative cross term, so

        Lqc(U) >= min_coeff * ||U||_{H1}^2 .
    """

    A1: float
    A2: float
    A3: float
    grad_coeffs: tuple
    mass_coeffs: tuple
    min_coeff: float


def coercivity_certificate(phys: PhysParams, wave: WaveParams) -> CoercivityCertificate:
    wave.require_admissible(phys)
    c2 = wave.speed**2
    omega = wave.omega
    A1 = 0.25 * (phys.alpha + c2 / (8.0 * omega))
    A2 = 0.25 * (phys.beta + c2 / (4.0 * omega))
    A3 = 0.25 * (phys.gamma + c2 / (4.0 * omega))
    grad_coeffs = (phys.alpha - 2.0 * A1, phys.beta - 2.0 * A2, phys.gamma - 2.0 * A3)
    mass_coeffs = (
        2.0 * omega - c2 / (8.0 * A1),
        omega - c2 / (8.0 * A2),
        omega - c2 / (8.0 * A3),
    )
    min_coeff = min(*grad_coeffs, *mass_coeffs)
    if min_coeff <= 0:
        # cannot happen under admissibility; guards against rounding at the boundary
        raise ArithmeticError(f"certificate degenerate: min coefficient {min_coeff}")
    return CoercivityCertificate(A1, A2, A3, grad_coeffs, mass_coeffs, min_coeff)


@dataclass(frozen=True)
class WellMembership:
    """Potential-well flags of one state below/above the minimization level mu.

    aplus/aminus use the sign of K, bplus/bminus the position of N relative
    to -2 mu; both require S < mu strictly. Boundary states get no flag.
    """

    aplus: bool
    aminus: bool
    bplus: bool
    bminus: bool

    @property
    def none(self) -> bool:
        return not (self.aplus or self.aminus or self.bplus or self.bminus)

    @property
    def agree(self) -> bool:
        """The K-sign and N-position descriptions of the wells coincide."""
        return self.aplus == self.bplus and self.aminus == self.bminus

    @classmethod
    def from_report(cls, rep: FunctionalReport, mu: float) -> "WellMembership":
        """Flags of the state a report describes; the zero state (Q = 0) gets none."""
        below = rep.Q > 0.0 and rep.S < mu
        return cls(
            aplus=below and rep.K > 0.0,
            aminus=below and rep.K < 0.0,
            bplus=below and rep.N > -2.0 * mu,
            bminus=below and rep.N < -2.0 * mu,
        )


def classify_well(state: State, phys: PhysParams, wave: WaveParams, mu: float) -> WellMembership:
    if mu <= 0:
        raise NonpositiveLevel(f"mu={mu} must be positive")
    return WellMembership.from_report(evaluate(state, phys, wave), mu)


def stability_g(state: State, phys: PhysParams, wave: WaveParams) -> float:
    """The raw stability weight G = (4-2d) omega Q + (3-d) c.P."""
    return evaluate(state, phys, wave).G


@dataclass
class ScaledState:
    """Result of the charge-preserving dilation, with resolution diagnostics."""

    state: State
    aliasing_mass: float
    tail_mass: float


def l2_scaling(state: State, lam: float, alias_tol: float = 1e-8) -> ScaledState:
    """Charge-preserving dilation lam^{d/2} U(lam x) by spectral interpolation.

    On well-resolved fields and lam in [1/2, 2]: Q is invariant, L scales by
    lam^2, N by lam^{d/2+1} and P by lam. Raises ResolutionLoss when the
    dilated field leaks more than ``alias_tol`` of its mass past the
    resolvable band.
    """
    from .errors import ResolutionLoss

    g = state.grid
    scaled = lam ** (g.d / 2.0) * g.scale_coordinates(state.u, lam)
    out = State(g, scaled)
    alias = g.aliasing_mass(out.u)
    tail = g.tail_mass(out.u)
    if alias > alias_tol:
        raise ResolutionLoss(f"aliasing mass {alias:.3e} exceeds {alias_tol:.1e} at lambda={lam}")
    return ScaledState(out, alias, tail)


def gauge_phases(theta: float) -> np.ndarray:
    """Column of phases (e^{2 i theta}, e^{i theta}, e^{i theta})."""
    return np.array([np.exp(2j * theta), np.exp(1j * theta), np.exp(1j * theta)])
