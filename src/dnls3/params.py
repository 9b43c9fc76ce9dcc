"""Dispersion coefficients and solitary-wave parameters.

The model has three positive dispersion coefficients (alpha, beta, gamma).
A solitary wave is labelled by a frequency omega and a speed vector c; the
pair is admissible when omega > sigma*|c|^2/4, which makes the three
frequency-shifted resolvent symbols strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InadmissibleParameters


@dataclass(frozen=True)
class PhysParams:
    """Dispersion coefficients of the three components.

    The sign-definite case alpha, beta, gamma > 0 is required; the
    all-negative case reduces to it by the reflection (t, x) -> (-t, -x)
    and is not handled here.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        # written so that NaN and inf fail it
        if not all(0 < v < np.inf for v in (self.alpha, self.beta, self.gamma)):
            raise ValueError("dispersion coefficients must be positive and finite")

    @property
    def sigma(self) -> float:
        """1 / min(2*alpha, beta, gamma); governs admissibility of (omega, c)."""
        return 1.0 / min(2.0 * self.alpha, self.beta, self.gamma)

    @property
    def sigma0(self) -> float:
        """min(2/alpha, 1/beta, 1/gamma); governs the exponential decay bound."""
        return min(2.0 / self.alpha, 1.0 / self.beta, 1.0 / self.gamma)


@dataclass(frozen=True)
class WaveParams:
    """Frequency omega and speed vector c of a solitary wave; ``on_curve`` maps it along its scaling curve."""

    omega: float
    c: tuple = field(default=(0.0,))

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(ck) for ck in np.atleast_1d(self.c)))

    @property
    def d(self) -> int:
        return len(self.c)

    @property
    def c_array(self) -> np.ndarray:
        return np.asarray(self.c, dtype=float)

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.c_array))

    def admissible(self, phys: PhysParams) -> bool:
        """omega > sigma |c|^2 / 4, written as 4 min(2 alpha, beta, gamma) omega > |c|^2.

        That form rounds as ``tail_rates`` does, so the two agree to the last bit.
        """
        return 4.0 * min(2.0 * phys.alpha, phys.beta, phys.gamma) * self.omega > self.speed**2

    def tail_rates(self, phys: PhysParams) -> np.ndarray:
        """Exact decay rates r_j = sqrt(4 m_j kappa_j omega - |c|^2) / (2 kappa_j) of a profile's tails.

        In the tail the profile equation is linear, -kappa_j Lap u_j +
        m_j omega u_j + i c.grad u_j = 0 with m = (2, 1, 1) and
        kappa = (alpha, beta, gamma), so |u_j| falls as exp(-r_j |x|) (in
        d >= 2 times |x|^{-(d-1)/2}). A component whose root is not real
        gets 0, so min_j r_j > 0 exactly when the pair is admissible.
        """
        kappa = np.array([phys.alpha, phys.beta, phys.gamma])
        return np.sqrt(np.maximum(4.0 * np.array([2.0, 1.0, 1.0]) * kappa * self.omega - self.speed**2, 0.0)) / (2.0 * kappa)

    def on_curve(self, scale: float | None = None, omega: float | None = None) -> tuple:
        """(s, pair) for the point (s^2 omega, s c) of the scaling curve through this pair.

        Give s, or the point's frequency, kept exactly, with s = sqrt(frequency / omega).
        Psi(x) -> s Psi(s x) maps the profiles here to those at the point, so the level
        scales by s^(4-d) and the charge by s^(2-d); admissibility is kept. Raises
        InadmissibleParameters unless s > 0, the branch through this pair.
        """
        if omega is None:
            omega = scale * scale * self.omega
        else:
            scale = math.sqrt(max(omega / self.omega, 0.0))
        if not scale > 0.0:
            raise InadmissibleParameters(f"scale {scale:g} is off the branch s > 0 of the scaling curve (s^2 omega, s c)")
        return scale, WaveParams(float(omega), tuple(scale * self.c_array))

    def require_admissible(self, phys: PhysParams) -> None:
        if not self.admissible(phys):
            raise InadmissibleParameters(
                f"omega={self.omega} <= sigma*|c|^2/4={phys.sigma * self.speed ** 2 / 4.0}: not admissible"
            )
