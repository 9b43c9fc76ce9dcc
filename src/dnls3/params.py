"""Dispersion coefficients and solitary-wave parameters.

The model has three positive dispersion coefficients kappa = (alpha, beta,
gamma) and masses m = (2, 1, 1): the linear part of component j has the
symbol kappa_j |xi|^2 + m_j omega - c.xi for a solitary wave of frequency
omega and speed vector c. Over all xi that symbol is least at xi = c/(2 kappa_j),
where it equals D_j / (4 kappa_j) with the margin D_j = 4 m_j kappa_j omega - |c|^2.
The pair is admissible when every margin is positive, omega > sigma*|c|^2/4;
the tail rates, the decay bound and the coercivity certificate are read off
the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InadmissibleParameters
from .grid import _entries, _setting

#: Masses m_j of the three components: the frequency enters symbol j as m_j omega
MASSES = np.array([2.0, 1.0, 1.0])
MASSES.flags.writeable = False


@dataclass(frozen=True)
class PhysParams:
    """Dispersion coefficients of the three components.

    The sign-definite case alpha, beta, gamma > 0 is required; the
    all-negative case reduces to it by the reflection (t, x) -> (-t, -x)
    and is not handled here. Each is a positive setting (``_setting``),
    kept as a float: True, "1", NaN and 2**1100 are refused.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _setting(getattr(self, name), name, above=0))

    @property
    def kappa(self) -> np.ndarray:
        """The dispersion coefficients (alpha, beta, gamma) as one array, in the order of ``MASSES``."""
        return np.array([self.alpha, self.beta, self.gamma])

    @property
    def sigma(self) -> float:
        """1 / min_j m_j kappa_j = 1 / min(2*alpha, beta, gamma); governs admissibility of (omega, c)."""
        return 1.0 / float(np.min(MASSES * self.kappa))

    @property
    def well_posedness_unknown(self) -> bool:
        """(alpha - gamma)(beta + gamma) = 0, to 1e-14: outside the regime where the Cauchy problem is known to be well posed."""
        return abs((self.alpha - self.gamma) * (self.beta + self.gamma)) < 1e-14

    @property
    def sigma0(self) -> float:
        """min_j m_j / kappa_j = min(2/alpha, 1/beta, 1/gamma); governs the exponential decay bound."""
        return float(np.min(MASSES / self.kappa))


@dataclass(frozen=True)
class WaveParams:
    """Frequency omega and speed vector c of a solitary wave; ``on_curve`` maps it along its scaling curve.

    omega and each component of c (a number or a sequence of them) are
    settings (``_setting``), kept as floats.
    """

    omega: float
    c: tuple = field(default=(0.0,))

    def __post_init__(self):
        object.__setattr__(self, "omega", _setting(self.omega, "omega"))
        object.__setattr__(self, "c", tuple(_setting(ck, "c") for ck in _entries(self.c)))

    @property
    def d(self) -> int:
        return len(self.c)

    @property
    def c_array(self) -> np.ndarray:
        return np.asarray(self.c, dtype=float)

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.c_array))

    def margins(self, phys: PhysParams) -> np.ndarray:
        """The margins D_j = 4 m_j kappa_j omega - |c|^2, one per component.

        Symbol j, kappa_j |xi|^2 + m_j omega - c.xi, is at least D_j / (4 kappa_j)
        for every xi, with equality at xi = c / (2 kappa_j). They are formed in
        floats, |c|^2 as the sum of the c_k^2, so a margin past float range is
        inf or NaN with no warning.
        """
        c2 = sum(ck * ck for ck in self.c)
        return np.array([4.0 * m * k * self.omega - c2 for m, k in zip(MASSES.tolist(), phys.kappa.tolist())])

    def admissible(self, phys: PhysParams) -> bool:
        """omega > sigma |c|^2 / 4, that is, every margin D_j is positive and finite.

        4 m_j is exact and rounding is monotone, so this is 4 min(2 alpha, beta,
        gamma) omega > |c|^2 to the last bit, and ``tail_rates`` agrees with it.
        A pair whose margins pass float range is refused.
        """
        D = self.margins(phys)
        return bool(np.all((D > 0.0) & (D < np.inf)))

    def tail_rates(self, phys: PhysParams) -> np.ndarray:
        """Exact decay rates r_j = sqrt(D_j) / (2 kappa_j) of a profile's tails.

        In the tail the profile equation is linear, -kappa_j Lap u_j +
        m_j omega u_j + i c.grad u_j = 0, so |u_j| falls as exp(-r_j |x|) (in
        d >= 2 times |x|^{-(d-1)/2}). A component whose margin is not positive
        gets 0, so min_j r_j > 0 exactly when the pair is admissible or has a
        margin past float range.
        """
        return np.sqrt(np.maximum(self.margins(phys), 0.0)) / (2.0 * phys.kappa)

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
                f"(omega, c)=({self.omega}, {list(self.c)}) is not admissible at kappa={phys.kappa.tolist()}: its margins "
                f"4 m_j kappa_j omega - |c|^2 = {self.margins(phys).tolist()} must be finite and positive"
            )
