"""Ground states: constrained minimization of the action and its diagnostics.

The minimizer of S over the zero set of K (the natural constraint obtained
by differentiating S along rays) is computed by a projected fixed-point
iteration of Petviashvili type, accelerated by Anderson mixing:

    1. evaluate the action gradient,
    2. apply the inverse of its linear part (the three frequency-shifted
       resolvents), which equalizes spectral stiffness,
    3. step against it with the fixed step STEP, and combine that step with
       the last MEMORY ones so that the preconditioned gradients'
       differences best cancel the current one (Anderson, J. ACM 12, 1965):
       the differences sit in fixed ring slots, and the combination solves
       the at most MEMORY x MEMORY normal equations of their Gram matrix,
       and
    4. project the trial (see _project): rotate u3 so that the complex
       coupling C = (u3, grad(u1 . conj(u2))) is real and negative, then
       rescale onto the constraint with lambda = -Lqc / (3N).

The phase rotation removes the one direction that neither the gauge nor
the rescaling controls (the relative phase of u3 against u1 . conj(u2));
without it no fixed step near 1 converges. A mixed trial that is invalid or
raises the action, or whose Gram matrix is singular, is retried as a plain
step and the history is dropped, and only a plain step is halved; the
iteration stops when MEMORY + 1 steps in a row fail to lower the best
preconditioned residual, or when it reaches a state that is not finite.
The minimizer is a stationary point of the unconstrained action because
the constraint's Lagrange multiplier vanishes there.

The module also verifies the structural identities of converged profiles:
the dilation (Pohozaev-type) identity, the (4-d) charge/momentum identity,
the frequency power laws of the minimal action level and of the charge, and
the scaling-curve derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNonlinearity, DomainTooSmall, InadmissibleParameters, NoConvergence, WrongDimension
from .functionals import FunctionalReport, _parts, evaluate, gauge_phases, linear_symbols, nehari_rescale
from .grid import Grid, Kernel, State, _setting
from .params import PhysParams, WaveParams


@dataclass(frozen=True)
class SolverConfig:
    """Descent settings.

    ``restarts`` bounds the number of descents: a descent from a translated
    seed (center drawn from the nonnegative ``seed``) runs only after the
    previous one failed to converge. Each field is a setting (``_setting``):
    the counts and the seed whole, the tolerance positive; 3.0 counts as 3,
    and 1.5, True, "3" and 2**1100 are refused.
    """

    max_iter: int = 20000
    residual_tol: float = 1e-9
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        for name, least in (("max_iter", 1), ("seed", 0), ("restarts", 1)):
            object.__setattr__(self, name, _setting(getattr(self, name), name, whole=True, least=least))
        object.__setattr__(self, "residual_tol", _setting(self.residual_tol, "residual_tol", above=0))


@dataclass
class GroundStateResult:
    """A converged ground state: its profile, its report and every descent made.

    ``histories`` holds one DescentHistory per descent, in order; the last
    one converged. The level, the identity residuals
    (``report.pohozaev_residual()``, ``report.fourd_residual(mu)``), the
    stability margin (``report.stability_margin()``), the final residual
    and the terminations are read off the report and the histories.
    """

    phi: State
    report: FunctionalReport
    tail_mass: float
    phys: PhysParams
    wave: WaveParams
    histories: tuple

    @property
    def mu(self) -> float:
        """The minimal action level: the action of the profile."""
        return self.report.S

    @property
    def iterations(self) -> int:
        """Iterations of all descents."""
        return sum(h.iterations for h in self.histories)

    @property
    def domain_converged(self) -> bool:
        """The profile leaves less than 1e-8 of its mass in the outer 10% of the box."""
        return self.tail_mass < 1e-8


def resolvent_symbols(grid: Grid, phys: PhysParams, wave: WaveParams) -> np.ndarray:
    """Inverse symbols 1/(kappa_j |xi|^2 + m_j omega - c.xi) of the linear part, shaped as ``linear_symbols``."""
    wave.require_admissible(phys)
    return 1.0 / linear_symbols(grid, phys, wave)


def precondition(g_state: State, phys: PhysParams, wave: WaveParams) -> State:
    """Apply the three resolvents componentwise (positive-definite smoothing)."""
    grid = g_state.grid
    return State(grid, grid.ifft(resolvent_symbols(grid, phys, wave) * grid.fft(g_state.u)))


# Width of the Gaussian seed and half-width of the range its restart centers
# are drawn from. The projection fixes the amplitude and the action is
# invariant under translations and the gauge, so it only sets where the
# descent starts.
SEED_WIDTH = 1.5


def initial_ansatz(grid: Grid, phys: PhysParams, wave: WaveParams, center=None) -> State:
    """Nehari-projected Gaussian seed, optionally shifted to ``center``.

    u1 = u2 = exp(-|x - center|^2 / SEED_WIDTH^2) e1 and u3 = -d1 of it: this
    polarization makes the coupling term strictly negative, so the Nehari
    rescaling, which fixes the amplitude, is well defined. For c != 0,
    gauge-structured plane-wave phases (2k, k, k) with k ~ c/2 (rounded to
    grid wavenumbers) are attached; they lower the initial action without
    touching the coupling term.
    """
    wave.require_admissible(phys)
    mesh = grid.meshgrid()
    if center is None:
        center = np.zeros(grid.d)
    r2 = sum((X - y) ** 2 for X, y in zip(mesh, np.atleast_1d(center)))
    g = np.exp(-r2 / SEED_WIDTH**2)
    u = np.zeros((3, grid.d, *grid.shape), dtype=np.complex128)
    u[0, 0] = g
    u[1, 0] = g
    u[2, 0] = -grid.deriv(g.astype(complex), 0)
    if wave.speed > 0:
        # gauge-structured carrier: phases (2 theta, theta, theta) with a
        # linear theta = k.x, k rounded to grid wavenumbers for periodicity
        theta = np.zeros(grid.shape)
        for k in range(grid.d):
            dk = 2 * np.pi / grid.extent[k]
            kk = np.round(wave.c[k] / 2.0 / dk) * dk
            theta = theta + kk * mesh[k]
        u *= gauge_phases(2.0 * theta, theta)[:, None]
    _, state = nehari_rescale(State(grid, u), phys, wave)
    return state


# The fixed step. At the minimizer the component rescalings (a u1, b u2, c u3)
# with abc = 1 are exact eigenvectors of the preconditioned Hessian with
# eigenvalue 2, so a step t scales their error by 1 - 2t: a step of 1 leaves
# them oscillating undamped, 0.9 contracts them by 0.8 per iteration.
STEP = 0.9

# The depth of the Anderson mixing: how many of the latest differences of
# iterates and of their preconditioned gradients each trial combines. On a
# linear map, mixing with unbounded depth is GMRES (Walker & Ni, SIAM J.
# Numer. Anal. 49, 2011), so the depth is the Krylov space kept: it has to
# hold the outlying eigenvalues of the preconditioned Hessian (2 for the
# component rescalings) beside the bulk, whose lower edge near 0.16 sets the
# plain iteration's rate 0.85. The depth also sets the stall window (MEMORY
# + 1 accepted steps), and the 3D 32^3, extent-12 descent holds its best
# residual for 6 steps while S falls, so a depth of 4 stops it early.
# Summed over 21 1D grids and waves, depths 6, 8, 10 and 16 take 599, 504,
# 466 and 436 iterations (the 2D 128^2 and 3D 32^3 descents 20 to 22 and 30
# or 31 at all four), while each difference held costs two arrays of the
# state's size: 8 takes most of the gain at half the memory of 16.
MEMORY = 8


def _project(kernel: Kernel, phys: PhysParams, wave: WaveParams, F: np.ndarray):
    """Align the coupling phase of the state with spectrum F, then rescale it onto the constraint.

    u3 turns by the phase that makes C = (u3, grad(u1 . conj(u2))) real and
    negative, so N = -|C| while Q, L and P stay; lambda = -Lqc / (3N) then
    zeroes K. The report and the nonlinear gradient dN of the result follow
    from the trial's spectrum and its one product batch, with no transform
    of the trial to physical space. Returns (F, report, dN) of the projected
    state, or None when C vanishes. A state whose C is not finite has no
    phase to align: it comes back unprojected, with its report, whose S is
    not finite either. ``kernel`` is the descent's, on F's grid.
    """
    dN = kernel.nonlinear_gradient(F)
    Q, L, P = _parts(kernel.grid, F, phys)
    # C = (u3, grad(u1 . conj(u2))) by Parseval, off the gradient block of dN
    C = np.vecdot(dN[2].reshape(-1), F[2].reshape(-1)) * kernel.grid.weight
    rep = FunctionalReport.from_parts(Q, L, -abs(C), P, wave.omega, wave.c_array)
    if not np.isfinite(C):
        return F, rep, dN
    try:
        lam = rep.nehari_factor()
    except DegenerateNonlinearity:
        return None
    phase = -np.conj(C) / abs(C)
    column = (3, *[1] * (F.ndim - 1))
    factors = np.array([lam, lam, lam * phase]).reshape(column)
    # -(div u3) u2 turns with u3, -conj(div u3) u1 against it, grad(u1 . conj(u2)) not at all
    dN *= (lam * lam * np.array([phase, np.conj(phase), 1.0])).reshape(column)
    return factors * F, rep.scaled(lam), dN


@dataclass(frozen=True)
class DescentHistory:
    """One descent: one row per state (the start, then each accepted trial) and how it ended.

    ``S`` and ``residual`` are the projected state's action and
    preconditioned residual, ``step`` the step that reached it (0 at the
    start) and ``mixed`` whether its trial was mixed from the history.
    ``termination`` is "converged" or a NoConvergence reason.
    ``iterations`` counts the iterations begun: one per accepted trial,
    plus the last one when its trial was rejected ("invalid_step",
    "residual_growth").
    """

    S: np.ndarray
    residual: np.ndarray
    step: np.ndarray
    mixed: np.ndarray
    iterations: int
    termination: str


def _descend(grid, phys, wave, config, start: State):
    """Projected fixed-point iteration from one start, with Anderson mixing.

    The map is G(F) = F - STEP Fpg(F), a step against the preconditioned
    gradient. The trial G(F_k) - sum_i gamma_i (G(F_{i+1}) - G(F_i)) runs
    over the last MEMORY iterates, gamma solving the normal equations of the
    least-squares fit of Fpg_k by the differences Fpg_{i+1} - Fpg_i in the
    residual's weighted inner product: a k x k system of their Gram matrix,
    k <= MEMORY. The differences sit in two blocks of MEMORY slots, allocated
    once and filled in ring order, so the fit's right-hand side, the Gram
    matrix's new row and the mixing are each one matrix-vector product. The
    trial is projected (_project) and accepted when it is valid and does
    not raise S beyond a 1e-12 rounding slack. A mixed trial that fails, or
    whose Gram matrix is singular or gives a non-finite gamma, is retried
    plain, G(F_k), and the history is dropped; only a plain step is halved.
    An accepted trial that does not lower the best residual so far, after
    MEMORY accepted ones that did not either, ends the descent with the
    state before it. S thus never rises, and each iteration makes one
    projection unless a trial is rejected. A state whose action or residual
    is not finite ends the descent ("non_finite"), and "iteration_cap" means
    max_iter iterations were made. The descent holds spectra only; its final
    state is transformed once, when it ends. Its projections share one
    kernel, built once per descent.
    Returns (state, report, history), history a DescentHistory.
    """
    sym_inv = resolvent_symbols(grid, phys, wave)
    kernel = Kernel(grid)
    weights = (1.0 + grid.k2) * grid.weight
    root = np.sqrt(weights)

    def iterate(F):
        """The projection of spectrum F with its preconditioned gradient and residual, or None.

        The gradient comes twice: as Fpg, and weighted as real numbers (wpg),
        whose dot products are the residual's inner product.
        """
        projected = _project(kernel, phys, wave, F)
        if projected is None:
            return None
        F, rep, dN = projected
        # the resolvents invert the linear part of the gradient exactly
        Fpg = sym_inv * dN
        Fpg += F
        wpg = (root * Fpg).view(np.float64).ravel()
        res = float(np.sqrt(np.dot(wpg, wpg) / np.sum(weights * np.abs(F) ** 2)))
        return F, rep, Fpg, wpg, res

    current = iterate(grid.fft(start.u))
    if current is None:
        raise DegenerateNonlinearity("the start has no valid Nehari projection")
    F, rep, Fpg, wpg, residual = current
    rows = [(rep.S, residual, 0.0, False)]

    def finish(termination):
        S, res, steps, mixed = (np.array(column) for column in zip(*rows))
        return State(grid, grid.ifft(F)), rep, DescentHistory(S, res, steps, mixed, it, termination)

    # the history in two blocks of MEMORY ring slots: differences of G (complex
    # rows held through their float64 view, real and imaginary parts side by
    # side) and of the weighted gradient, and the Gram matrix of the latter, in
    # slot order. Of the differences written since the history was last
    # dropped, ``held``, the last MEMORY fill the leading slots, so a slice
    # [:held] reads them
    (dG, dW), gram = np.empty((2, MEMORY, wpg.size)), np.empty((MEMORY, MEMORY))
    held, best, stale, it = 0, residual, 0, 0
    while (finite := np.isfinite(rep.S) and np.isfinite(residual)) and residual >= config.residual_tol and it < config.max_iter:
        it += 1
        step, mixed = STEP, held > 0
        if mixed:
            try:
                gamma = np.linalg.solve(gram[:held, :held], dW[:held] @ wpg)
                mixed = bool(np.isfinite(gamma).all())
            except np.linalg.LinAlgError:  # a singular Gram matrix
                mixed = False
        while True:
            F_trial = F - step * Fpg
            if mixed:
                F_trial -= (gamma @ dG[:held]).view(np.complex128).reshape(F.shape)
            trial = iterate(F_trial)
            # a non-finite action fails the comparison too
            if trial is not None and trial[1].S <= rep.S + 1e-12 * (1.0 + abs(rep.S)):
                break
            if mixed:
                mixed = False
                continue
            step *= 0.5
            if step < 1e-10:
                return finish("invalid_step")
        if trial[4] < best:
            best, stale = trial[4], 0
        elif stale == MEMORY:
            return finish("residual_growth")
        else:
            stale += 1
        if MEMORY:
            # the next slot in ring order; a plain step drops the history (it was empty, or its mix failed)
            held, slot = (held + 1, held % MEMORY) if mixed else (1, 0)
            dG[slot] = ((trial[0] - F) - STEP * (trial[2] - Fpg)).view(np.float64).ravel()
            np.subtract(trial[3], wpg, out=dW[slot])
            gram[slot, :held] = gram[:held, slot] = dW[:held] @ dW[slot]
        F, rep, Fpg, wpg, residual = trial
        rows.append((rep.S, residual, step, mixed))

    return finish("non_finite" if not finite else "converged" if residual < config.residual_tol else "iteration_cap")


@np.errstate(over="ignore", invalid="ignore")
def solve_ground_state(
    grid: Grid, phys: PhysParams, wave: WaveParams, config: SolverConfig | None = None
) -> GroundStateResult:
    """Constrained minimization of the action: the first descent that converges.

    The action is invariant under translations and the gauge, and the
    Nehari projection removes any amplitude, so a descent from the centered
    seed that converges is final. Only when it fails does a further descent
    start, from a seed translated by a center drawn from ``config.seed``, up
    to ``config.restarts`` descents in all. The result keeps each
    descent's DescentHistory. Deterministic for a given (config, seed).
    Raises NoConvergence, carrying every descent's history, when no descent
    meets the residual tolerance, and DomainTooSmall, carrying the same
    histories (the last one converged), when the profile leaks more than
    1e-6 of its mass into the outer 10% of the box, whether the box is too
    small or the grid too coarse. A number
    past float range says so through the result, not through numpy's
    overflow and invalid-value warnings, which the solve does not raise: a
    seed whose Lqc is not finite raises DegenerateNonlinearity, and a
    descent whose action or residual is not finite ends "non_finite".
    """
    config = config or SolverConfig()
    wave.require_admissible(phys)
    rng = np.random.default_rng(config.seed)

    center = None
    histories = []
    for _ in range(config.restarts):
        start = initial_ansatz(grid, phys, wave, center=center)
        # the descent carries the profile's report, so the identities need no second evaluation
        U, rep, history = _descend(grid, phys, wave, config, start)
        histories.append(history)
        if history.termination == "converged":
            break
        center = rng.uniform(-SEED_WIDTH, SEED_WIDTH, size=grid.d)
    else:
        raise NoConvergence(histories)

    # box-adequacy guard on the resolved envelope: smoothing filters out
    # band-edge truncation ringing, which is a resolution (not domain) issue
    # and is already visible through the result's tail_mass / domain_converged;
    # the mass a coarse grid's aliased product leaves in the tail survives it,
    # so the message names both causes
    envelope_tail = grid.tail_mass(U.u, smooth=3.0 * max(grid.spacing))
    if envelope_tail > 1e-6:
        raise DomainTooSmall(
            f"resolved-profile tail mass {envelope_tail:.3e} > 1e-6 on n={list(grid.n)}, extent={list(grid.extent)}: "
            "the box is too small for the profile's decay (enlarge it), or the grid is too coarse "
            "and its aliased product leaves mass there (add points or dealias)",
            histories,
        )
    return GroundStateResult(U, rep, grid.tail_mass(U.u), phys, wave, tuple(histories))


def pohozaev_residual(phi: State, phys: PhysParams, wave: WaveParams) -> float:
    """Normalized residual of the dilation identity 2L + (d/2+1)N + c.P = 0."""
    return evaluate(phi, phys, wave).pohozaev_residual()


@dataclass
class MuScalePoint:
    omega: float
    mu: float
    mu_predicted: float
    rel_error: float
    q_scaling_error: float
    #: "ok", or the name of the error that stopped the point's solve (its values are then NaN)
    status: str = "ok"


def mu_scan_points(phys: PhysParams, c0, omegas) -> tuple:
    """The unit pair (1, c0) of ``mu_scaling_check``'s scaling curve and its (scale, pair) point at each omega.

    Each point is ``unit.on_curve(omega=omega)``, solved at exactly that
    omega. Raises InadmissibleParameters naming the unit pair unless it is
    admissible (the frequency of the wave c0 came with plays no part; the
    message forms sigma |c|^2 / 4 in floats, |c|^2 as the sum of the c_k^2,
    so a speed past float range reads inf with no warning), and naming the
    first point whose pair is not admissible (``WaveParams.require_admissible``:
    at omega 1e308 its margins pass float range).
    """
    unit = WaveParams(1.0, c0)
    if not unit.admissible(phys):
        bound = phys.sigma * sum(ck * ck for ck in unit.c) / 4.0
        raise InadmissibleParameters(f"the unit pair (1, c)=(1, {list(unit.c)}) of the mu scan is not admissible: 1 <= sigma*|c|^2/4={bound}")
    points = [unit.on_curve(omega=omega) for omega in omegas]
    for _, wave in points:
        wave.require_admissible(phys)
    return unit, points


def mu_scaling_check(
    grid: Grid,
    phys: PhysParams,
    c0,
    omegas,
    config: SolverConfig | None = None,
) -> list[MuScalePoint]:
    """Verify the frequency power laws of the solved ground states.

    Each omega is solved at exactly that frequency, at the point (omega, s c0)
    of the scaling curve through the unit pair (1, c0) (``mu_scan_points``,
    which judges the unit pair and every point before the first solve), where
    s = sqrt(omega) and the level and the charge follow

        mu(omega, s c0) = s^(4-d) mu(1, c0)   (rel_error)
        Q(omega, s c0)  = s^(2-d) Q(1, c0)    (q_scaling_error)

    Each point is an independent solve, compared with the law through the
    unit-frequency solve. An inadmissible point (such as omega 1e308, whose
    margins pass float range) raises InadmissibleParameters before any
    solve. A point whose solve fails (NoConvergence, DomainTooSmall or
    DegenerateNonlinearity) is kept with NaN values and the error's name as
    its ``status``; when the unit-frequency solve fails, every point carries
    that failure.
    """
    config = config or SolverConfig()
    unit, points = mu_scan_points(phys, c0, omegas)
    d = grid.d

    def solve(wave):
        try:
            return solve_ground_state(grid, phys, wave, config)
        except (NoConvergence, DomainTooSmall, DegenerateNonlinearity) as exc:
            return type(exc).__name__

    base = solve(unit)
    out = []
    for omega, (s, wave) in zip(omegas, points):
        res = base if omega == 1.0 or isinstance(base, str) else solve(wave)
        if isinstance(res, str):
            out.append(MuScalePoint(wave.omega, np.nan, np.nan, np.nan, np.nan, res))
            continue
        predicted = s ** (4 - d) * base.mu
        rel = abs(res.mu - predicted) / res.mu

        q_pred = s ** (2 - d) * base.report.Q
        q_err = abs(res.report.Q - q_pred) / abs(q_pred)
        out.append(MuScalePoint(wave.omega, res.mu, predicted, rel, q_err))
    return out


@dataclass
class HCurveReport:
    """Scaling-curve restriction of the minimal action level around tau = 0.

    ``mu_values[i]`` is the independently solved level h(tau_i) at the
    point of the scaling curve through (omega, c) with scale
    s_i = 1 - tau_i/sqrt(omega), and ``mu_curve_predicted[i]`` the level
    law s_i^(4-d) h(0) through the level at tau = 0. Closed forms come from
    the converged profile at tau = 0:

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
    rel_h1: float
    rel_h2: float


def h_curve_points(grid: Grid, phys: PhysParams, wave: WaveParams, tau_step: float | None = None):
    """The taus -2..2 tau_step of ``h_curve`` (tau_step defaults to 0.05 sqrt(omega)) and their points, judged.

    Each point is the (scale, pair) of ``wave.on_curve`` at scale 1 - tau/sqrt(omega).
    Raises WrongDimension unless the grid has d in {1, 2}, where the
    scaling-curve analysis is defined; InadmissibleParameters naming
    tau_step when 2 tau_step >= sqrt(omega) takes the last point off the
    branch; and InadmissibleParameters naming the first point whose pair is
    not admissible (``WaveParams.require_admissible``: at omega 2e307 the
    margins of the tau = -2 tau_step point pass float range).
    """
    if grid.d not in (1, 2):
        raise WrongDimension(f"scaling-curve analysis is defined for d in {{1, 2}}, not d={grid.d}")
    sw = float(np.sqrt(wave.omega))
    step = 0.05 * sw if tau_step is None else tau_step
    taus = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * step
    try:
        points = [wave.on_curve(1.0 - tau / sw) for tau in taus]
    except InadmissibleParameters as exc:
        raise InadmissibleParameters(f"tau_step={step:g}: 2 tau_step must be below sqrt(omega)={sw:g}; {exc}") from None
    for _, w_tau in points:
        w_tau.require_admissible(phys)
    return taus, points


def h_curve(
    grid: Grid,
    phys: PhysParams,
    wave: WaveParams,
    tau_step: float | None = None,
    config: SolverConfig | None = None,
) -> HCurveReport:
    """Compare finite-difference derivatives of the level curve to closed forms.

    ``h_curve_points`` judges the dimension, tau_step and every point before the first solve.
    """
    d = grid.d
    config = config or SolverConfig()
    taus, points = h_curve_points(grid, phys, wave, tau_step)
    results = [solve_ground_state(grid, phys, w_tau, config) for _, w_tau in points]
    mus = np.array([res.mu for res in results])
    center = results[2]

    # the level law along the curve, through the tau = 0 level
    mu_curve_pred = np.array([s for s, _ in points]) ** (4 - d) * center.mu

    step = taus[3]  # the taus are -2, -1, 0, 1 and 2 steps
    fd_h1 = (mus[3] - mus[1]) / (2 * step)
    fd_h2 = (-mus[0] + 16 * mus[1] - 30 * mus[2] + 16 * mus[3] - mus[4]) / (12 * step**2)

    qp = 2.0 * wave.omega * center.report.Q + center.report.cP
    closed_h1 = -qp / np.sqrt(wave.omega)
    closed_h2 = (3.0 - d) * qp / wave.omega
    rel_h1 = abs(fd_h1 - closed_h1) / abs(closed_h1)
    rel_h2 = abs(fd_h2 - closed_h2) / max(abs(closed_h2), 1e-300)
    return HCurveReport(taus, mus, mu_curve_pred, center.mu, fd_h1, fd_h2, closed_h1, closed_h2, rel_h1, rel_h2)


#: Complex points a round of the well sampler draws, over all its states:
#: small states share each round's transforms, and the cap bounds the memory
#: of a round (about 10 draws of a 512-point 1D state, one 2D 128^2 draw);
#: the sampler holds one round's draws at a time. It fixes the rounds and so
#: the order of the rng calls: a given rng gives the same draws whatever the
#: sampler keeps of them.
SAMPLE_ROUND_POINTS = 2**14


def sample_below_level(
    grid: Grid,
    phys: PhysParams,
    wave: WaveParams,
    mu: float,
    rng: np.random.Generator,
    n: int,
):
    """Random states with action strictly below ``mu``, on both sides of K = 0.

    A smooth random draw U is scaled so that S(sU) = t mu with t drawn from
    (0.2, 0.95): along the ray, S(sU) = s^2 Lqc/2 + s^3 N rises to its peak
    at the constraint crossing and falls afterwards when N < 0, so the
    rising-branch root gives K > 0 and the falling-branch root K < 0.
    Returns a list of (state, report) pairs, those with K < 0
    (round(n / 2) of them) first, each side in draw order; the reports are
    the rows of ``reports_below_level``'s batch for the same rng, and the
    states come from one inverse transform of the kept draws' spectra.

    Draws come in rounds: each round draws every state still missing, at
    most SAMPLE_ROUND_POINTS complex points in all, as one batch of shape
    ``(b, 3, d, *grid.shape)``. Its spectrum is drawn directly and smoothed
    by ``Grid.noise_spectrum`` (power 2, no Nyquist mode), and its t right
    after it, on the caller's thread (see ``_below_level``). It is
    evaluated off the spectrum into one batch report, by ``_parts`` and
    ``Kernel.coupling``, whose one batched inverse transform of the rows u1,
    u2 and div u3 is the round's only transform, and its ray equations are
    solved by one batched eigensolve of their companion matrices (the one
    ``np.roots`` makes per polynomial); the report of sU follows from that of U (FunctionalReport.scaled). A draw
    meant for K < 0 whose N is positive has its u3 negated: that maps N to
    -N and keeps Q, L and P, and the smoothed Gaussian law is symmetric
    under u3 -> -u3, so the law of the draws kept is that of draws with
    N < 0. At most 50 n states are drawn; fewer than n are returned only
    when that cap is hit.
    """
    spectra = []
    report, order = _below_level(grid, phys, wave, mu, rng, n, spectra)
    if not order.size:
        return []
    u = grid.ifft(np.concatenate([F for F, _ in spectra])[order])
    s = np.concatenate([s for _, s in spectra])[order]
    rows = zip(report.Q, report.L, report.N, report.P)
    return [(State(grid, s_i * u_i), FunctionalReport.from_parts(*row, report.omega, report.c)) for s_i, u_i, row in zip(s, u, rows)]


def reports_below_level(
    grid: Grid,
    phys: PhysParams,
    wave: WaveParams,
    mu: float,
    rng: np.random.Generator,
    n: int,
) -> FunctionalReport:
    """One batch report of ``sample_below_level``'s states for the same rng, without the states.

    Its rows are the kept draws, those with K < 0 first, each side in draw
    order, and the rng is left where ``sample_below_level`` leaves it. Each
    round keeps only the report rows of its kept draws, so the memory holds
    one round's draws and n rows of scalars.
    """
    return _below_level(grid, phys, wave, mu, rng, n)[0]


def _below_level(grid, phys, wave, mu, rng, n, spectra: list | None = None):
    """The draws of sample_below_level: the batch report of those kept and the order it puts them in.

    Each round keeps the K < 0 flags and the (Q, L, N, P) rows of sU of the
    draws it kept; the report holds them with K < 0 first, each side in draw
    order, and ``order`` maps its rows to the kept draws in draw order.
    Their C, whose real part is N, comes from ``Kernel.coupling``, on one
    kernel per call: after the first round only a round of another size,
    such as the shorter last one, rebuilds its scratch. Given a list
    ``spectra``, each round also appends (spectra, s) of its kept draws, u3
    negated where the draw was flipped; without it no spectrum outlives its
    round.

    A round's two rng calls, its spectrum and then its t, are made on the
    caller's thread right before the round is evaluated, so they come in the
    order of one round at a time. Drawing the next round on a worker thread
    while this one is evaluated pays only while a second core is free, which
    the sampler cannot observe: on a 2-core host where two threads of numpy
    transforms ran in 0.99-1.09 of their sequential time, 200 samples on the
    plain 512-point grid took 15.1-16.5 ms on the caller's thread alone and
    16.7-18.0 ms with such a worker.
    """
    flags, rows = [np.zeros(0, dtype=bool)], [(np.zeros(0),) * 3 + (np.zeros((0, grid.d)),)]
    taken = taken_negative = attempts = 0  # draws kept, those among them meant for K < 0, draws made
    want_negative = round(n / 2)
    per_round = max(1, SAMPLE_ROUND_POINTS // (3 * grid.d * grid.size))
    kernel = Kernel(grid)
    while taken < n and attempts < 50 * n:
        b = min(n - taken, per_round, 50 * n - attempts)
        attempts += b
        F = grid.noise_spectrum(rng, (b, 3, grid.d), 2)
        t = rng.uniform(0.2, 0.95, size=b)
        negative = np.arange(b) < want_negative - taken_negative
        Q, L, P = _parts(grid, F, phys)
        C = kernel.coupling(F)
        flip = negative & (C.real > 0)
        N = np.where(flip, -C.real, C.real)
        batch = FunctionalReport.from_parts(Q, L, N, P, wave.omega, wave.c_array)
        # S(sU) = t mu as the cubic N s^3 + (Lqc/2) s^2 - t mu = 0; a draw with
        # N exactly 0 (a null event) has no cubic and is not kept
        live = np.flatnonzero(N != 0.0)
        companion = np.zeros((len(live), 3, 3))
        companion[:, 0, 0] = -batch.Lqc[live] / 2.0 / N[live]
        companion[:, 0, 2] = t[live] * mu / N[live]
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        roots = np.linalg.eigvals(companion)
        real = (np.abs(roots.imag) < 1e-10 * np.maximum(1.0, np.abs(roots))) & (roots.real > 0)
        # the falling-branch root is the largest positive one, the rising-branch root the smallest
        largest = np.where(real, roots.real, -np.inf).max(axis=1)
        smallest = np.where(real, roots.real, np.inf).min(axis=1)
        # a draw without its root keeps s = NaN, which fails both tests below
        s = np.full(b, np.nan)
        s[live] = np.where(negative[live], largest, smallest)
        s[np.isinf(s)] = np.nan
        at = batch.scaled(s)
        kept = np.flatnonzero((at.S < mu) & np.where(negative, at.K < 0.0, at.K > 0.0))
        flags.append(negative[kept])
        rows.append((at.Q[kept], at.L[kept], at.N[kept], at.P[kept]))
        taken += len(kept)
        taken_negative += int(np.count_nonzero(flags[-1]))
        if spectra is not None:
            F[flip, 2] *= -1.0
            spectra.append((F[kept], s[kept]))
    order = np.argsort(~np.concatenate(flags), kind="stable")
    Q, L, N, P = (np.concatenate(column)[order] for column in zip(*rows))
    return FunctionalReport.from_parts(Q, L, N, P, wave.omega, wave.c_array), order
