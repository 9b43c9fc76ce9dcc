"""Ground states: constrained minimization of the action and its diagnostics.

The minimizer of S over the zero set of K (the natural constraint obtained
by differentiating S along rays) is computed by a projected fixed-step
iteration of Petviashvili type:

    1. evaluate the action gradient,
    2. apply the inverse of its linear part (the three frequency-shifted
       resolvents), which equalizes spectral stiffness,
    3. step against it with the fixed step STEP, and
    4. project the trial (see _project): rotate u3 so that the complex
       coupling C = (u3, grad(u1 . conj(u2))) is real and negative, then
       rescale onto the constraint with lambda = -Lqc / (3N).

The phase rotation removes the one direction that neither the gauge nor
the rescaling controls (the relative phase of u3 against u1 . conj(u2));
without it no fixed step near 1 converges. The step is halved only while
a projected trial is invalid or raises the action, and the iteration stops
when an accepted step fails to lower the preconditioned residual. The
minimizer is a stationary point of the unconstrained action because the
constraint's Lagrange multiplier vanishes there.

The module also verifies the structural identities of converged profiles:
the dilation (Pohozaev-type) identity, the (4-d) charge/momentum identity,
the frequency power law of the minimal action level, the scaling-curve
derivatives, and the two-dimensional charge threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateNonlinearity,
    DomainTooSmall,
    NoConvergence,
    ResolutionLoss,
    WrongDimension,
)
from .functionals import (
    FunctionalReport,
    _gradient_spectrum,
    _parts,
    evaluate,
    l2_scaling,
    linear_symbols,
    nehari_rescale,
)
from .grid import Grid, State
from .params import PhysParams, WaveParams


@dataclass(frozen=True)
class AnsatzConfig:
    """Gaussian seed profile: u1 = u2 = a exp(-|x|^2/w^2) e1, u3 = -d1 of it.

    This polarization makes the coupling term strictly negative, so the
    Nehari rescaling is well defined. With ``carrier`` enabled and c != 0,
    gauge-structured plane-wave phases (2k, k, k) with k ~ c/2 (rounded to
    grid wavenumbers) are attached; they lower the initial action without
    touching the coupling term.
    """

    amplitude: float = 2.0
    width: float = 1.5
    carrier: bool = True


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 20000
    residual_tol: float = 1e-9
    ansatz: AnsatzConfig = field(default_factory=AnsatzConfig)
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.residual_tol <= 0:
            raise ValueError("the residual tolerance must be positive")


@dataclass
class GroundStateResult:
    phi: State
    mu: float
    iterations: int
    final_residual: float
    report: FunctionalReport
    pohozaev_residual: float
    fourd_residual: float
    stability_margin: float
    tail_mass: float
    phys: PhysParams
    wave: WaveParams
    domain_converged: bool


def resolvent_symbols(grid: Grid, phys: PhysParams, wave: WaveParams):
    """Inverse symbols 1/(kappa_j |xi|^2 + m_j omega - c.xi) of the linear part."""
    wave.require_admissible(phys)
    return [1.0 / s for s in linear_symbols(grid, phys, wave)]


def precondition(g_state: State, phys: PhysParams, wave: WaveParams) -> State:
    """Apply the three resolvents componentwise (positive-definite smoothing)."""
    grid = g_state.grid
    sym = resolvent_symbols(grid, phys, wave)
    F = grid.fft(g_state.u)
    out = np.empty_like(F)
    for j in range(3):
        out[j] = sym[j] * F[j]
    return State(grid, grid.ifft(out))


def initial_ansatz(
    grid: Grid,
    phys: PhysParams,
    wave: WaveParams,
    ansatz: AnsatzConfig | None = None,
    center=None,
) -> State:
    """Nehari-projected Gaussian seed, optionally shifted to ``center``."""
    wave.require_admissible(phys)
    ansatz = ansatz or AnsatzConfig()
    mesh = grid.meshgrid()
    if center is None:
        center = np.zeros(grid.d)
    r2 = sum((X - y) ** 2 for X, y in zip(mesh, np.atleast_1d(center)))
    g = ansatz.amplitude * np.exp(-r2 / ansatz.width**2)
    u = np.zeros((3, grid.d, *grid.shape), dtype=np.complex128)
    u[0, 0] = g
    u[1, 0] = g
    u[2, 0] = -grid.deriv(g.astype(complex), 0)
    if ansatz.carrier and wave.speed > 0:
        # gauge-structured carrier: phases (2 theta, theta, theta) with a
        # linear theta = k.x, k rounded to grid wavenumbers for periodicity
        theta = np.zeros(grid.shape)
        for k in range(grid.d):
            dk = 2 * np.pi / grid.extent[k]
            kk = np.round(wave.c[k] / 2.0 / dk) * dk
            theta = theta + kk * mesh[k]
        u[0] *= np.exp(2j * theta)
        u[1] *= np.exp(1j * theta)
        u[2] *= np.exp(1j * theta)
    _, state = nehari_rescale(State(grid, u), phys, wave)
    return state


# The fixed step. At the minimizer the component rescalings (a u1, b u2, c u3)
# with abc = 1 are exact eigenvectors of the preconditioned Hessian with
# eigenvalue 2, so a step t scales their error by 1 - 2t: a step of 1 leaves
# them oscillating undamped, 0.9 contracts them by 0.8 per iteration.
STEP = 0.9


def _project(grid: Grid, phys: PhysParams, wave: WaveParams, F: np.ndarray):
    """Align the coupling phase of the state with spectrum F, then rescale it onto the constraint.

    u3 turns by the phase that makes C = (u3, grad(u1 . conj(u2))) real and
    negative, so N = -|C| while Q, L and P stay; lambda = -Lqc / (3N) then
    zeroes K. The report and coupling products of the result follow from
    the trial's one product batch. Returns (F, u, report, products) of the
    projected state, or None when C vanishes.
    """
    d = grid.d
    u = grid.ifft(F)
    products = grid.coupling_spectra(F, u)
    Q, L, C, P = _parts(State(grid, u), F, phys, products[2 * d])
    rep = FunctionalReport.from_parts(Q, L, -abs(C), P, wave.omega, wave.c_array)
    try:
        lam = rep.nehari_factor()
    except DegenerateNonlinearity:
        return None
    phase = -np.conj(C) / abs(C)
    factors = np.array([lam, lam, lam * phase]).reshape(3, *[1] * (F.ndim - 1))
    # (div u3) u2 turns with u3, conj(div u3) u1 against it, u1 . conj(u2) not at all
    products *= lam * lam
    products[:d] *= phase
    products[d : 2 * d] *= np.conj(phase)
    return factors * F, factors * u, rep.scaled(lam), products


def _descend(grid, phys, wave, config, start: State):
    """Projected fixed-step iteration from one start.

    Steps by STEP against the preconditioned gradient and projects the trial
    (_project), halving the step only while the trial is invalid or raises S
    beyond a 1e-12 rounding slack; stops with the state before an accepted
    step that fails to lower the preconditioned residual. Returns (state,
    report, iterations, residual, action_history, termination), where
    termination is "converged" or a NoConvergence reason.
    """
    sym_inv = np.stack(resolvent_symbols(grid, phys, wave))[:, None]
    weights = (1.0 + grid.k2) * grid.weight

    def iterate(F):
        """The projection of spectrum F with its preconditioned gradient and residual, or None."""
        projected = _project(grid, phys, wave, F)
        if projected is None:
            return None
        F, u, rep, products = projected
        Fpg = sym_inv * _gradient_spectrum(grid, F, products, phys, wave)
        res = float(np.sqrt(np.sum(weights * np.abs(Fpg) ** 2) / np.sum(weights * np.abs(F) ** 2)))
        return F, u, rep, Fpg, res

    current = iterate(grid.fft(start.u))
    if current is None:
        raise DegenerateNonlinearity("the start has no valid Nehari projection")
    F, u, rep, Fpg, residual = current
    s_history = [rep.S]

    it = 0
    while residual >= config.residual_tol and it < config.max_iter:
        it += 1
        step = STEP
        # a non-finite action fails the comparison too
        while (trial := iterate(F - step * Fpg)) is None or not trial[2].S <= rep.S + 1e-12 * (1.0 + abs(rep.S)):
            step *= 0.5
            if step < 1e-10:
                return State(grid, u), rep, it, residual, s_history, "invalid_step"
        if trial[4] >= residual:
            return State(grid, u), rep, it, residual, s_history, "residual_growth"
        F, u, rep, Fpg, residual = trial
        s_history.append(rep.S)

    termination = "converged" if residual < config.residual_tol else "iteration_cap"
    return State(grid, u), rep, it, residual, s_history, termination


def solve_ground_state(
    grid: Grid, phys: PhysParams, wave: WaveParams, config: SolverConfig | None = None
) -> GroundStateResult:
    """Best-of-restarts constrained minimization of the action.

    Deterministic for a given (config, seed). Raises NoConvergence when no
    restart meets the residual tolerance, DomainTooSmall when the winner
    leaks more than 1e-6 of its mass into the outer 10% of the box.
    """
    config = config or SolverConfig()
    wave.require_admissible(phys)
    rng = np.random.default_rng(config.seed)

    best = None
    total_iters = 0
    last_residual = np.inf
    for r in range(max(1, config.restarts)):
        if r == 0:
            center = None
            ansatz = config.ansatz
        else:
            center = rng.uniform(-config.ansatz.width, config.ansatz.width, size=grid.d)
            ansatz = replace(
                config.ansatz,
                amplitude=config.ansatz.amplitude * float(rng.uniform(0.7, 1.4)),
            )
        start = initial_ansatz(grid, phys, wave, ansatz, center=center)
        U, rep, iters, residual, _, termination = _descend(grid, phys, wave, config, start)
        total_iters += iters
        last_residual = residual
        if residual < config.residual_tol and (best is None or rep.S < best[1].S):
            best = (U, rep, residual)

    if best is None:
        raise NoConvergence(total_iters, last_residual, termination)

    U, rep, residual = best
    mu = rep.S
    tail = grid.tail_mass(U.u)
    result = GroundStateResult(
        phi=U,
        mu=mu,
        iterations=total_iters,
        final_residual=residual,
        report=rep,
        pohozaev_residual=pohozaev_residual(U, phys, wave),
        fourd_residual=0.0,
        stability_margin=rep.G / (2.0 * wave.omega),
        tail_mass=tail,
        phys=phys,
        wave=wave,
        domain_converged=tail < 1e-8,
    )
    result.fourd_residual = identity_4minusd_check(result)
    # box-adequacy guard on the resolved envelope: smoothing filters out
    # band-edge truncation ringing, which is a resolution (not domain) issue
    # and is already visible through result.tail_mass / domain_converged
    envelope_tail = grid.tail_mass(U.u, smooth=3.0 * max(grid.spacing))
    if envelope_tail > 1e-6:
        raise DomainTooSmall(f"resolved-profile tail mass {envelope_tail:.3e} > 1e-6; enlarge the box")
    return result


def pohozaev_residual(phi: State, phys: PhysParams, wave: WaveParams) -> float:
    """Normalized residual of the dilation identity 2L + (d/2+1)N + c.P = 0."""
    rep = evaluate(phi, phys, wave)
    d = phi.grid.d
    terms = (2.0 * rep.L, (d / 2.0 + 1.0) * rep.N, rep.cP)
    return abs(sum(terms)) / (sum(abs(t) for t in terms) + 1e-30)


def fourd_residual(rep: FunctionalReport, mu: float) -> float:
    """Residual of 2 omega Q + c.P = (4-d) mu for the profile a report describes, normalized by (4-d) mu."""
    d = len(rep.P)
    lhs = 2.0 * rep.omega * rep.Q + rep.cP
    rhs = (4.0 - d) * mu
    return abs(lhs - rhs) / abs(rhs)


def identity_4minusd_check(result: GroundStateResult) -> float:
    """Residual of 2 omega Q + c.P = (4-d) mu, normalized by (4-d) mu."""
    return fourd_residual(result.report, result.mu)


@dataclass
class MuScalePoint:
    omega: float
    mu: float
    mu_predicted: float
    rel_error: float
    q_scaling_error: float


def mu_scaling_check(
    grid: Grid,
    phys: PhysParams,
    c0,
    omegas,
    config: SolverConfig | None = None,
) -> list[MuScalePoint]:
    """Verify mu(omega, sqrt(omega) c0) = omega^{2-d/2} mu(1, c0).

    Each point is an independent solve; the unit-frequency profile is also
    mapped through the frequency rescaling map Psi_omega(x) =
    sqrt(omega) Psi(sqrt(omega) x) to cross-check the charge power law
    Q(Psi_omega) = omega^{1-d/2} Q(Psi).
    """
    config = config or SolverConfig()
    c0 = np.atleast_1d(np.asarray(c0, dtype=float))
    d = grid.d
    base_wave = WaveParams(1.0, tuple(c0))
    base = solve_ground_state(grid, phys, base_wave, config)

    out = []
    for omega in omegas:
        wave = WaveParams(float(omega), tuple(np.sqrt(omega) * c0))
        if omega == 1.0:
            res = base
        else:
            res = solve_ground_state(grid, phys, wave, config)
        predicted = omega ** (2.0 - d / 2.0) * base.mu
        rel = abs(res.mu - predicted) / res.mu

        # secondary cross-check of the rescaling map; NaN when the dilated
        # profile is not resolvable on this grid
        try:
            scaled = l2_scaling(base.phi, float(np.sqrt(omega)))
            psi_omega = State(grid, omega ** ((2.0 - d) / 4.0) * scaled.state.u)
            q_scaled = evaluate(psi_omega, phys, wave).Q
            q_pred = omega ** (1.0 - d / 2.0) * base.report.Q
            q_err = abs(q_scaled - q_pred) / abs(q_pred)
        except ResolutionLoss:
            q_err = float("nan")
        out.append(MuScalePoint(float(omega), res.mu, predicted, rel, q_err))
    return out


@dataclass
class HCurveReport:
    """Scaling-curve restriction of the minimal action level around tau = 0.

    ``mu_values[i]`` is the independently solved level at parameters
    ((sqrt(omega)-tau_i)^2, c (sqrt(omega)-tau_i)/sqrt(omega)). Closed forms
    come from the converged profile at tau = 0:

        h(0)   = mu
        h'(0)  = -(2 omega Q + c.P)/sqrt(omega)
        h''(0) = (3-d)(2 omega Q + c.P)/omega
    """

    taus: np.ndarray
    mu_values: np.ndarray
    mu_curve_predicted: np.ndarray
    h0: float
    fd_h1: float
    fd_h2: float
    closed_h1: float
    closed_h2: float
    rel_h0: float
    rel_h1: float
    rel_h2: float


def h_curve(
    grid: Grid,
    phys: PhysParams,
    wave: WaveParams,
    tau_step: float | None = None,
    config: SolverConfig | None = None,
) -> HCurveReport:
    """Compare finite-difference derivatives of the level curve to closed forms."""
    d = grid.d
    if d not in (1, 2):
        raise WrongDimension("scaling-curve analysis is defined for d in {1, 2}")
    config = config or SolverConfig()
    sw = float(np.sqrt(wave.omega))
    s = tau_step if tau_step is not None else 0.05 * sw
    taus = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * s

    mus = np.empty(5)
    center = None
    for i, tau in enumerate(taus):
        w_tau = WaveParams((sw - tau) ** 2, tuple(wave.c_array * (sw - tau) / sw))
        res = solve_ground_state(grid, phys, w_tau, config)
        mus[i] = res.mu
        if tau == 0.0:
            center = res

    # closed-form curve from the unit-frequency level via the power law
    unit_wave = WaveParams(1.0, tuple(wave.c_array / sw))
    unit = solve_ground_state(grid, phys, unit_wave, config)
    mu_curve_pred = (sw - taus) ** (4 - d) * unit.mu

    fd_h1 = (mus[3] - mus[1]) / (2 * s)
    fd_h2 = (-mus[0] + 16 * mus[1] - 30 * mus[2] + 16 * mus[3] - mus[4]) / (12 * s**2)

    rep = center.report
    qp = 2.0 * wave.omega * rep.Q + rep.cP
    closed_h1 = -qp / sw
    closed_h2 = (3.0 - d) * qp / wave.omega

    return HCurveReport(
        taus=taus,
        mu_values=mus,
        mu_curve_predicted=mu_curve_pred,
        h0=mus[2],
        fd_h1=fd_h1,
        fd_h2=fd_h2,
        closed_h1=closed_h1,
        closed_h2=closed_h2,
        rel_h0=abs(mus[2] - center.mu) / center.mu,
        rel_h1=abs(fd_h1 - closed_h1) / abs(closed_h1),
        rel_h2=abs(fd_h2 - closed_h2) / max(abs(closed_h2), 1e-300),
    )


@dataclass
class StabilityMargin:
    margin: float
    in_mstar: bool


def stability_margin(result: GroundStateResult, eta_probe: float = 0.0) -> StabilityMargin:
    """h''(0)/2 - Q evaluated in closed form: equals G/(2 omega).

    ``in_mstar`` reports whether the display quantity (omega Q + c.P for
    d=1, c.P for d=2) reaches the probe level eta.
    """
    d = result.phi.grid.d
    if d not in (1, 2):
        raise WrongDimension("the stability margin is defined for d in {1, 2}")
    rep = result.report
    margin = rep.G / (2.0 * result.wave.omega)
    return StabilityMargin(margin, bool(rep.G_display >= eta_probe))


def gwp2d_threshold(result: GroundStateResult) -> float:
    """Charge threshold Q - E for global existence in two dimensions."""
    if result.phi.grid.d != 2:
        raise WrongDimension("the charge threshold is a two-dimensional statement")
    rep = result.report
    return rep.Q - rep.E


def sample_below_level(
    grid: Grid,
    phys: PhysParams,
    wave: WaveParams,
    mu: float,
    rng: np.random.Generator,
    n: int,
    negative_fraction: float = 0.5,
):
    """Random states with action strictly below ``mu``, on both sides of K = 0.

    A smooth random draw U is scaled so that S(sU) = t mu with t drawn from
    (0.2, 0.95): along the ray, S(sU) = s^2 Lqc/2 + s^3 N rises to its peak
    at the constraint crossing and falls afterwards when N < 0, so the
    rising-branch root gives K > 0 and the falling-branch root K < 0.
    Returns a list of (state, report) pairs.
    """
    out = []
    want_negative = int(round(n * negative_fraction))
    attempts = 0
    while len(out) < n and attempts < 50 * n:
        attempts += 1
        take_negative = len(out) < want_negative
        shape = (3, grid.d, *grid.shape)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = grid.ifft(grid.fft(u) / (1.0 + grid.k2) ** 2)
        state = State(grid, u)
        rep = evaluate(state, phys, wave)
        if take_negative and rep.N >= 0:
            continue
        target = float(rng.uniform(0.2, 0.95)) * mu
        roots = np.roots([rep.N, rep.Lqc / 2.0, 0.0, -target])
        roots = sorted(r.real for r in roots if abs(r.imag) < 1e-10 * max(1, abs(r)) and r.real > 0)
        if not roots:
            continue
        s = roots[-1] if take_negative else roots[0]
        scaled = State(grid, s * state.u)
        rep_s = evaluate(scaled, phys, wave)
        if rep_s.S >= mu:
            continue
        if take_negative and rep_s.K >= 0:
            continue
        if not take_negative and rep_s.K <= 0:
            continue
        out.append((scaled, rep_s))
    return out
