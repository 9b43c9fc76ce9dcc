"""Ground states: constrained minimization of the action and its diagnostics.

The minimizer of S over the zero set of K (the natural constraint obtained
by differentiating S along rays) is computed by preconditioned descent:

    1. evaluate the action gradient,
    2. apply the inverse of its linear part (the three frequency-shifted
       resolvents), which equalizes spectral stiffness,
    3. step against it, with the step size steered by the residual norm
       (see _descend), and
    4. rescale the iterate back onto the constraint with
       lambda = -Lqc / (3N).

On the constraint the quadratic part controls the squared H1 norm
(coercivity certificate), so plain descent converges; the minimizer is a
stationary point of the unconstrained action because the constraint's
Lagrange multiplier vanishes there.

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
    _report,
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
    step_size: float = 0.5
    ansatz: AnsatzConfig = field(default_factory=AnsatzConfig)
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.residual_tol <= 0 or self.step_size <= 0:
            raise ValueError("tolerances and step sizes must be positive")


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


def _descend(grid, phys, wave, config, start: State):
    """Projected preconditioned descent from one start.

    The step is monitored retroactively through the preconditioned-residual
    norm, which stays accurately computable long after action differences
    drop below rounding: when the residual (or, materially, the action)
    grows, the step is undone and halved; after a long streak of clean
    contractions it is grown again, but never past a ceiling recorded at
    the last instability. The report of each Nehari-rescaled trial follows
    algebraically from the trial's own report. Returns (state, report,
    iterations, residual, action_history, termination), where termination
    is "converged" or one of the NoConvergence reasons.
    """
    sym_inv = np.stack(resolvent_symbols(grid, phys, wave))[:, None]
    weights = (1.0 + grid.k2) * grid.weight

    def pgrad(state, F):
        Fpg = sym_inv * _gradient_spectrum(state, F, phys, wave)
        h1 = np.sqrt(np.sum(weights * np.abs(F) ** 2))
        res = float(np.sqrt(np.sum(weights * np.abs(Fpg) ** 2))) / max(h1, 1e-300)
        return grid.ifft(Fpg), res

    U = start
    F = grid.fft(U.u)
    rep = _report(U, F, phys, wave)
    step = config.step_size
    ceiling = 4.0 * config.step_size
    streak = 0
    s_history = [rep.S]

    it = 0
    pg, residual = pgrad(U, F)
    while it < config.max_iter:
        it += 1
        if residual < config.residual_tol:
            return U, rep, it, residual, s_history, "converged"

        trial = State(grid, U.u - step * pg)
        F_trial = grid.fft(trial.u)
        rep_trial = _report(trial, F_trial, phys, wave)
        try:
            lam = rep_trial.nehari_factor()
            rep_new = rep_trial.scaled(lam)
            valid = rep_new.N < 0 and np.isfinite(rep_new.S)
        except DegenerateNonlinearity:
            valid = False
        if not valid:
            step *= 0.5
            streak = 0
            if step < 1e-10:
                return U, rep, it, residual, s_history, "invalid_step"
            continue

        projected = State(grid, lam * trial.u)
        F_new = lam * F_trial
        pg_new, res_new = pgrad(projected, F_new)
        worse_res = res_new > residual
        worse_S = rep_new.S > rep.S + 1e-12 * (1.0 + abs(rep.S))
        if worse_res or worse_S:
            ceiling = min(ceiling, step)
            step *= 0.5
            streak = 0
            if step < 1e-10:
                return U, rep, it, residual, s_history, "residual_growth"
            continue

        U, rep, pg, residual = projected, rep_new, pg_new, res_new
        s_history.append(rep.S)
        streak += 1
        if streak >= 25 and step < 0.9 * ceiling:
            step = min(step * 1.1, 0.9 * ceiling)
            streak = 0

    termination = "converged" if residual < config.residual_tol else "iteration_cap"
    return U, rep, it, residual, s_history, termination


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
