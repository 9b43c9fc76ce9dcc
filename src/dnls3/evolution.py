"""Time integration and dynamical diagnostics.

The flow is

    dt u1 = i (alpha Lap u1 + (div u3) u2)
    dt u2 = i (beta  Lap u2 + (div conj(u3)) u1)
    dt u3 = i (gamma Lap u3 - grad(u1 . conj(u2)))

that is, i dt U = -kappa Lap U + dN: the flow is Hamiltonian, i dt U is the
energy part of the action gradient, and dN = (-(div u3) u2,
-conj(div u3) u1, grad(u1 . conj(u2))) is its nonlinear part. The linear
part is diagonal in frequency and solved exactly by unitary multipliers;
the coupling-only flow has the right side rhs = -i dN. The default scheme
is Strang splitting: half a linear step, one full step of the
coupling-only system by classical RK4 (the coupling is a
first-order-derivative nonlinearity, mild over one step between the
smoothing linear half-steps), half a linear step. An integrating-factor
RK4 on the full right side is provided for order studies.

Both schemes work on the spectrum. Each RK stage makes one call to the
coupling kernel for dN (``Kernel.nonlinear_gradient``, the same kernel the
action gradient uses, which serves one state): one inverse transform of the
rows (u1, u2, div u3), zero-padded once onto the 3/2 grid when dealiasing,
the three products, and one forward transform of their rows back to the
band. RK4 takes the complex step h = -i dt on dN and forms its stage
inputs and stage sum in place.
Both ``step`` and ``evolve`` take a step through ``_advance``, which for
Strang multiplies the spectrum in place by the half-step phases, takes the
RK4 substep and multiplies by them again. ``step`` builds a kernel
(``grid.Kernel``) for its one step; ``evolve`` builds one per run for its
steps, keeps the state as a spectrum from start to end and builds the
linear phases once per step size. Its records read the spectrum and need
no kernel: the report (``functionals._report``, whose C is
``Grid.coupling``), the H1 norm (``grid._norm_h1``) and, with a
reference, the orbit distance of
``_orbit_to``, which prepares the reference once per run; its refine
carries one table of phase factors from the scan's start to the distance,
with one complex exponential per trial step. A record makes one
transform, the coupling's, and one more with a reference, the orbit
scan's. The final state is transformed back once. A Strang step
costs 8 transforms, and ``step`` adds one forward and one inverse
transform around it.

Where a step's time goes: 8 transforms is the floor for Strang splitting
with an RK4 substep and 3/2 padding. On the dealiased 512-point 1D grid
each kernel call makes two, each of 3 rows of 768 points, and
they take about 39 of the call's 55 us and about 155 of a step's 241 us
(BENCH_26.json); about an eighth of a transform's time is numpy's Python
wrapper (BENCH_18.json). The rest of the call is 8 small numpy calls: the pad's
multiply and its copy into the padded grid, one conjugate of u2 and
div u3 (adjacent rows), the three products, and the unpad's copy of the
band into contiguous rows and its multiply into the result. The RK4
substep makes its stage sum, stage input and stage derivative once and
the kernel writes each stage's dN into one of them (``out``), so a step
makes 3 state-sized arrays. The rest of the step is 13 in-place RK4 stage
operations, the linear phases and the finiteness check; each of these
calls costs little beyond numpy's per-call overhead on arrays of this
size. Two merges that
would save a call more are slower with numpy >= 2.3, which buffers a
copy of an operand broadcast along an outer axis or of a reversed row
block: one multiply of both conjugates by u1, and one conjugate written
in reversed row order. ``scipy.fft`` transforms the kernel's rows about
13% faster, but importing it costs 0.32-0.40 s in every fresh process, so
the transforms stay in ``numpy.fft``.

Charge and momentum are conserved exactly by the linear flow and by the
coupling flow separately, so their numerical drift is set by the RK4
truncation of the substep (fourth order); the energy is exchanged between
the split pieces and drifts at the splitting's second order. This is what
the conservation monitors measure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitWindowEmpty, InadmissibleParameters, NonFinite
from .functionals import FunctionalReport, WellMembership, _report, gauge_phases
from .grid import Grid, Kernel, State, _norm_h1, _setting, norm_h1
from .params import PhysParams, WaveParams

SCHEMES = ("strang", "if_rk4")
#: Newton steps the orbit-distance refine takes at most; from the scan's start it needs a few
REFINE_MAX_ITER = 20
#: A refine step shorter than this, in (y, a, b), ends the refine
REFINE_STEP_TOL = 1e-12


@dataclass(frozen=True)
class EvolveConfig:
    """Time-stepping parameters.

    ``dt=None`` selects the conservative default 1e-3 * min(spacing)^2 /
    max(alpha, beta, gamma). The linear phases are handled exactly; the
    step's limit is the split-step resonance edge near
    dt * kappa * xi_max^2 = pi, about 300 times above this default on the
    512-point, extent-40 grid (ROADMAP item 2). The acceptance-scale
    experiments override it explicitly. ``dt`` (unless None), ``t_final``
    and ``record_stride`` are settings (``_setting``): a positive step, a
    nonnegative end time and a whole stride >= 1.
    """

    dt: float | None = None
    t_final: float = 1.0
    record_stride: int = 10
    scheme: str = "strang"

    def __post_init__(self):
        if self.dt is not None:
            object.__setattr__(self, "dt", _setting(self.dt, "dt", above=0))
        object.__setattr__(self, "t_final", _setting(self.t_final, "t_final", least=0))
        object.__setattr__(self, "record_stride", _setting(self.record_stride, "record_stride", whole=True, least=1))
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")

    def effective_dt(self, grid: Grid, phys: PhysParams) -> float:
        if self.dt is not None:
            return self.dt
        return 1e-3 * min(grid.spacing) ** 2 / float(phys.kappa.max())


@dataclass
class EvolutionTrace:
    """Recorded time series of conserved and variational quantities."""

    times: np.ndarray
    Q: np.ndarray
    E: np.ndarray
    P: np.ndarray  # (n_records, d)
    S: np.ndarray
    K: np.ndarray
    h1: np.ndarray
    orbit_distance: np.ndarray | None = None
    divergence_time: float | None = None

    @property
    def N(self) -> np.ndarray:
        return -2.0 * self.S + self.K

    def drift(self, name: str) -> float:
        """Max relative deviation of a conserved quantity from its start.

        Momentum components are normalized by max(|P_k(0)|, Q(0)): the
        momentum of the data may be zero or tiny, and a conserved-to-
        rounding quantity should not look large only because its initial
        value happens to vanish; the charge shares its quadratic scale.
        """
        series = getattr(self, name)
        if series.ndim == 1:
            series = series[:, None]
        ref = np.abs(series[0])
        if name == "P":
            ref = np.maximum(ref, abs(self.Q[0]))
        ref = np.where(ref > 0, ref, 1.0)
        return float(np.max(np.abs(series - series[0]) / ref))


def coupling_rhs(state: State, phys: PhysParams) -> State:
    """Time derivative of the coupling-only system (no Laplacians): -i dN, on a kernel of its own."""
    g = state.grid
    return State(g, g.ifft(-1j * Kernel(g).nonlinear_gradient(g.fft(state.u))))


def _linear_phases(grid: Grid, phys: PhysParams, t: float) -> np.ndarray:
    """Symbols exp(-i kappa_j |xi|^2 t) of the linear flow, broadcasting over a spectrum."""
    return np.exp(-1j * t * phys.kappa.reshape(3, *[1] * (grid.d + 1)) * grid.k2)


def _rk4_coupling(kernel: Kernel, F: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of the coupling-only system i dt F = dN, on the spectrum.

    The right side is -i dN, so the stages take the complex step h = -i dt.
    The stage sum, the stage input and the stage derivative are three
    arrays made once per call: the kernel writes each stage's dN into one
    of them, and the stage inputs and the stage sum are formed in place. F
    is not written.
    """
    h = -1j * dt
    total, stage, k = np.empty_like(F), np.empty_like(F), np.empty_like(F)
    kernel.nonlinear_gradient(F, out=total)  # becomes k1 + 2 k2 + 2 k3 + k4
    np.multiply(total, 0.5 * h, out=stage)
    stage += F
    for weight in (0.5, 1.0):
        kernel.nonlinear_gradient(stage, out=k)
        np.multiply(k, weight * h, out=stage)
        stage += F
        k *= 2.0
        total += k
    total += kernel.nonlinear_gradient(stage, out=k)
    total *= h / 6.0
    total += F
    return total


def _if_rk4_step(kernel: Kernel, F0: np.ndarray, dt: float, half: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Integrating-factor RK4 on the full right side (exact linear phases), on the spectrum.

    ``half`` and ``full`` are the linear phases over dt/2 and dt; the
    coupling stages take the complex step h = -i dt, as in _rk4_coupling.
    """
    h = -1j * dt
    a = kernel.nonlinear_gradient(F0)
    b = kernel.nonlinear_gradient(half * (F0 + 0.5 * h * a))
    c = kernel.nonlinear_gradient(half * F0 + 0.5 * h * b)
    d = kernel.nonlinear_gradient(full * F0 + h * half * c)
    return full * F0 + (h / 6.0) * (full * a + 2.0 * half * (b + c) + d)


def _advance(kernel: Kernel, F: np.ndarray, dt: float, scheme: str, half: np.ndarray, full: np.ndarray | None) -> np.ndarray:
    """One step of ``scheme`` on the spectrum F, with the linear phases over dt/2 and dt, on ``kernel``.

    A Strang step multiplies F in place by ``half`` and returns a new
    spectrum; ``full`` is read only by if_rk4.
    """
    if scheme == "if_rk4":
        return _if_rk4_step(kernel, F, dt, half, full)
    F *= half
    F = _rk4_coupling(kernel, F, dt)
    F *= half
    return F


def step(state: State, phys: PhysParams, dt: float, scheme: str = "strang") -> State:
    """One time step, on a kernel of its own; order 2 (strang) or 4 (if_rk4)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    g = state.grid
    half = _linear_phases(g, phys, dt / 2.0)
    full = _linear_phases(g, phys, dt) if scheme == "if_rk4" else None
    return State(g, g.ifft(_advance(Kernel(g), g.fft(state.u), dt, scheme, half, full)))


def evolve(
    state: State,
    phys: PhysParams,
    wave: WaveParams,
    config: EvolveConfig,
    reference: State | None = None,
):
    """Integrate to t_final, recording functionals every record_stride steps.

    With ``reference`` given, the orbit distance to its translation/gauge
    orbit is recorded as well; potential-well flags of the records are
    WellMembership.from_report(trace, mu). A non-finite state ends the run:
    the divergence time is recorded in the partial trace attached to the
    NonFinite error.

    The state is carried as its spectrum from start to end: each step is
    ``_advance`` with the linear phases of its step size, built once, and
    each record reads the spectrum through ``_report``, ``_norm_h1`` and the
    orbit distance of ``_orbit_to``, whose reference part is built once per
    run. The steps share one kernel, built once per run; the records build none.
    The final state is transformed back once; with no step taken it is a
    copy of the input.
    """
    if phys.well_posedness_unknown:
        warnings.warn(
            "(alpha - gamma)(beta + gamma) = 0: outside the known well-posedness "
            "regime; integrating anyway",
            stacklevel=2,
        )
    grid = state.grid
    kernel = Kernel(grid)
    dt = config.effective_dt(grid, phys)
    n_steps = int(np.ceil(config.t_final / dt - 1e-12)) if config.t_final > 0 else 0

    rows = {k: [] for k in ("t", "Q", "E", "P", "S", "K", "h1", "orbit")}
    orbit = _orbit_to(reference, grid) if reference is not None else None

    def record(t, F):
        rep = _report(grid, F, phys, wave)
        for key in ("Q", "E", "P", "S", "K"):
            rows[key].append(getattr(rep, key))
        rows["t"].append(t)
        rows["h1"].append(_norm_h1(grid, F))
        if orbit is not None:
            rows["orbit"].append(orbit(F).distance)

    def build_trace(divergence_time=None):
        return EvolutionTrace(
            times=np.asarray(rows["t"]),
            P=np.reshape(rows["P"], (len(rows["t"]), grid.d)),
            h1=np.asarray(rows["h1"]),
            orbit_distance=np.asarray(rows["orbit"]) if reference is not None else None,
            divergence_time=divergence_time,
            **{key: np.asarray(rows[key]) for key in ("Q", "E", "S", "K")},
        )

    F = grid.fft(state.u)
    record(0.0, F)
    phases = {}  # step size -> linear phases over its half and its whole
    t = 0.0
    for i in range(1, n_steps + 1):
        dt_i = min(dt, config.t_final - t)
        if dt_i not in phases:
            phases[dt_i] = (_linear_phases(grid, phys, dt_i / 2.0), _linear_phases(grid, phys, dt_i))
        F = _advance(kernel, F, dt_i, config.scheme, *phases[dt_i])
        t = i * dt if i < n_steps else config.t_final
        if not np.isfinite(F).all():
            raise NonFinite(t, build_trace(divergence_time=t))
        if i % config.record_stride == 0 or i == n_steps:
            record(t, F)
    return State(grid, grid.ifft(F)) if n_steps else state.copy(), build_trace()


def gauge_apply(state: State, theta: float) -> State:
    """Multiply components by the gauge phases (e^{2i theta}, e^{i theta}, e^{i theta})."""
    return State(state.grid, gauge_phases(2.0 * theta, theta).reshape(3, 1, *([1] * state.grid.d)) * state.u)


def solitary_wave(phi: State, wave: WaveParams, t: float) -> State:
    """Exact solitary-wave snapshot: gauge at omega*t, profile shifted by c*t."""
    g = phi.grid
    shifted = g.translate(phi.u, wave.c_array * t)
    return gauge_apply(State(g, shifted), wave.omega * t)


@dataclass
class OrbitDistance:
    """Distance to the minimizer orbit, with the realizing symmetry element.

    ``phase1`` and ``phase2`` are the phases applied to the u1 and u2 blocks
    of the reference profile; the u3 block carries phase1 - phase2. The
    one-parameter solitary-wave gauge is the diagonal phase1 = 2 theta,
    phase2 = theta.
    """

    distance: float
    shift: np.ndarray
    phase1: float
    phase2: float

    @property
    def theta(self) -> float:
        """Diagonal gauge angle (meaningful when phase1 is twice phase2)."""
        return self.phase2


def orbit_distance(state: State, phi: State) -> OrbitDistance:
    """H1 distance to the symmetry orbit of ``phi``.

    The system's invariances acting on a stationary profile are the
    translations and the two-parameter gauge (e^{ia} u1, e^{ib} u2,
    e^{i(a-b)} u3); all of them map minimizers to minimizers, so the
    distance minimized over this group is still an upper bound on the
    distance to the full minimizer set. The one-parameter gauge of the
    solitary wave is the diagonal a = 2 theta, b = theta; perturbations
    generically drift the relative u2/u3 phase, so searching only the
    diagonal would grow secularly in time.

    With the blockwise weighted cross-spectra W_j = sum w FU_j conj(FP_j),
    the squared distance is ||U||^2 + ||phi||^2 - 2 G(y, a, b), where the
    gain G = Re(e^{-ia} A1(y) + e^{-ib} A2(y) + e^{-i(a-b)} A3(y)) and
    A_j(y) = sum_xi W_j e^{i y.xi}. All grid-aligned shifts are paired at
    once through inverse transforms of the W_j; for each shift the phase
    pair reduces to a one-dimensional circle search (the u1 phase has a
    closed form given the relative phase), made only at the shifts whose
    bound |A1| + |A2| + |A3| reaches the best gain of the shift with the
    largest bound, which leaves the winner that of a scan of every shift.
    The winner is refined over
    (y, a, b) by a safeguarded Newton ascent on G: G is a trigonometric
    polynomial, so its gradient and Hessian are exact, read off the moments
    sum_xi W_j {1, xi_k, xi_k xi_l} e^{i y.xi} in one product per iteration.
    A Newton step that is not an ascent direction is replaced by a gradient
    step scaled by a bound on the curvature of G; each step is halved until
    G does not fall, judged by G's change summed term by term without
    cancellation. The refine stops when a step falls below REFINE_STEP_TOL
    or the gradient vanishes (a zero state stops at once), after at most
    REFINE_MAX_ITER steps. The result's gain is thus at least that of the
    scan's start, which contains the identity, so the result never exceeds
    ||U - phi||_{H1}. The refine holds one table of phase factors,
    E_j = e^{i p.kappa_j} at its element p = (y, a, b) with
    kappa_j = (xi, -s_j) and s_j block j's weights of (a, b), from the
    scan's start to the result: a trial step x = step.kappa_j makes one
    exponential, h = e^{ix/2}, whose imaginary part is the sin(x/2) of G's
    change, and an accepted step multiplies E by h^2. The distance is
    computed directly at the result, as the weighted norm of FU - conj(E) FP,
    phi moved blockwise by the table: the gain form's difference of O(norm2)
    terms has a floor near sqrt(eps norm2). The scan, the refine and the
    distance move phi with the full wavenumbers ``Grid.xi_full``, as
    ``Grid.translate`` does.

    This is the distance of ``_orbit_to(phi, grid)`` at the state's
    spectrum; ``evolve`` prepares its reference that way once per run.
    """
    return _orbit_to(phi, state.grid)(state.grid.fft(state.u))


def _orbit_to(phi: State, grid: Grid):
    """The distance to the symmetry orbit of ``phi``, as a function of a state's spectrum on ``grid``.

    The function returns the ``OrbitDistance`` that ``orbit_distance`` does.
    What depends on phi and the grid alone is built here, once: phi's
    spectrum, the H1 weights, the wavenumber rows, the moment basis and the
    factors of the curvature bound. ``evolve`` prepares its reference so.
    """
    if grid != phi.grid:
        raise ValueError("orbit distance requires a shared grid")
    d, size = grid.d, grid.size
    w = (1.0 + grid.k2) * grid.weight
    FP = grid.fft(phi.u)
    conj_FP = np.conj(FP)

    # best u1-phase given the relative phase b: |A1 + e^{ib} A3| absorbs the
    # u3 term, leaving a circle search over b
    bs = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    eib = np.exp(1j * bs)[:, None]

    # with p = (y, a, b), block j of the gain is Re sum_xi T_j for the terms
    # T_j = W_j e^{i p.kappa_j}, kappa_j = (xi, -s_j), s_j the block's weights of (a, b)
    xi = np.array([np.broadcast_to(xk, grid.shape).reshape(-1) for xk in grid.xi_full])
    s = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    upper = np.triu_indices(d)
    basis = np.concatenate([np.ones((1, size)), xi, xi[upper[0]] * xi[upper[1]]]).T.astype(complex)
    kappa2 = np.sum(xi**2, axis=0) + np.sum(s**2, axis=1)[:, None]  # |kappa_j|^2
    extent = np.asarray(grid.extent)

    def distance(FU: np.ndarray) -> OrbitDistance:
        # weighted cross-spectra per gauge block
        W = np.sum(w * FU * conj_FP, axis=1)
        # pairings against phi translated to each grid offset, the three blocks in one transform
        A1, A2, A3 = grid._ifftn(W, "forward").reshape(3, -1)

        def scan(shifts):
            return np.abs(A1[shifts] + eib * A3[shifts]) + np.real(np.conj(eib) * A2[shifts])

        # no phase gains more than |A1| + |A2| + |A3| at a shift, so only the
        # shifts whose bound reaches the best phase of the most promising one
        # (less a rounding slack) can hold the winner; scanning them in index
        # order keeps the winner, ties included, that of the full scan
        bound = np.abs(A1) + np.abs(A2) + np.abs(A3)
        top = int(np.argmax(bound))
        floor = scan(np.array([top])).max() - 1e-12 * bound[top]
        shifts = np.flatnonzero(~(bound < floor))
        pair = scan(shifts)
        i_b, i_cand = np.unravel_index(np.argmax(pair), pair.shape)
        i_shift = shifts[i_cand]
        idx = np.unravel_index(i_shift, grid.shape)
        y0 = np.array([grid.spacing[k] * idx[k] for k in range(d)])
        b0 = bs[i_b]
        a0 = float(np.angle(A1[i_shift] + np.exp(1j * b0) * A3[i_shift]))

        W = W.reshape(3, size)
        # G's curvature is at most sum |W_j| |kappa_j|^2: the gradient step's scale
        curvature = float(np.sum(np.abs(W) * kappa2))

        def phase_rows(q):
            return q[:d] @ xi - (s @ q[d:])[:, None]  # q.kappa_j, one row per block

        # the table E_j = e^{i p.kappa_j}: from the scan's start, each accepted step
        # multiplies in its factors, and at the end it moves phi blockwise
        p = np.concatenate([y0, [a0, b0]])
        E = np.exp(1j * phase_rows(p))
        for _ in range(REFINE_MAX_ITER):
            T = W * E
            # moments sum_xi T_j {1, xi_k, xi_k xi_l} give G's gradient and Hessian
            M = T @ basis
            m0, m1, m2 = M[:, 0], M[:, 1 : 1 + d], M[:, 1 + d :]
            grad = np.concatenate([-m1.imag.sum(axis=0), s.T @ m0.imag])
            if not np.any(grad):
                break
            hess = np.empty((d + 2, d + 2))
            hess[upper] = hess[upper[::-1]] = -m2.real.sum(axis=0)
            hess[:d, d:] = m1.real.T @ s
            hess[d:, :d] = hess[:d, d:].T
            hess[d:, d:] = -(s.T * m0.real) @ s
            step = _ascent_step(grad, hess, curvature)
            while True:
                # G's change over the step, Re sum T (e^{ix} - 1) with e^{ix} - 1 =
                # 2i sin(x/2) e^{ix/2} and sin(x/2) = Im e^{ix/2}: it keeps its relative
                # accuracy near the optimum, where the difference of two gains
                # drowns in their O(norm2) rounding; a step that is not finite (a state
                # that is not) ends the halving as a short one does
                h = np.exp(0.5j * phase_rows(step))
                up = np.sum((T * (2j * h.imag * h)).real) >= 0.0
                if up or not np.linalg.norm(step) >= REFINE_STEP_TOL:
                    break
                step = step / 2.0
            if up:
                p = p + step
                E *= h * h
            # the last, short step is still taken when G does not fall
            if np.linalg.norm(step) < REFINE_STEP_TOL:
                break

        moved = np.conj(E).reshape(3, 1, *grid.shape) * FP
        dist = float(np.sqrt(np.sum(w * np.abs(FU - moved) ** 2)))
        return OrbitDistance(
            dist,
            (p[:d] + extent / 2.0) % extent - extent / 2.0,
            float(p[d] % (2.0 * np.pi)),
            float(p[d + 1] % (2.0 * np.pi)),
        )

    return distance


def _ascent_step(grad: np.ndarray, hess: np.ndarray, curvature: float) -> np.ndarray:
    """The Newton step of a maximization when it ascends, else the gradient over ``curvature``."""
    try:
        step = -np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        return grad / curvature
    if not np.all(np.isfinite(step)) or grad @ step <= 0.0:
        return grad / curvature
    return step


def h1_perturbation(grid: Grid, rng: np.random.Generator) -> State:
    """Smoothed Gaussian noise with unit H1 norm.

    White noise is shaped by the inverse of (1 - Lap) so the perturbation
    is H1-generic but not dominated by the highest modes; it is drawn as a
    spectrum by ``Grid.noise_spectrum`` and has no Nyquist mode.
    """
    state = State(grid, grid.ifft(grid.noise_spectrum(rng, (3, grid.d), 1)))
    return State(grid, state.u / norm_h1(state))


def perturbed(phi: State, delta: float, seed: int) -> State:
    """phi + delta h, h the ``h1_perturbation`` drawn from ``default_rng(seed)``; phi itself when delta is 0."""
    if delta == 0.0:
        return phi
    return State(phi.grid, phi.u + delta * h1_perturbation(phi.grid, np.random.default_rng(seed)).u)


@dataclass
class SandwichCheck:
    """Membership monitoring at one frequency-shifted parameter pair.

    The shifted pairs (omega_pm, c_pm) bracket (omega, c) along the scaling
    curve; data near the ground-state orbit lies below both shifted levels
    with the coupling term N pinched between -2 mu_plus and -2 mu_minus,
    which forces the sign of the shifted Nehari values along the flow.
    """

    tau0: float
    omega_plus: float
    omega_minus: float
    mu_plus: float
    mu_minus: float
    in_bplus_initial: bool
    in_bminus_initial: bool
    in_bplus_all: bool
    in_bminus_all: bool
    k_plus_sign_constant: bool
    k_minus_sign_constant: bool


@dataclass
class StabilityReport:
    delta: float
    trace: EvolutionTrace
    max_orbit_distance: float
    final_orbit_distance: float
    sandwich: list


def sandwich_points(wave: WaveParams, tau0s=None) -> list:
    """(tau0, plus, minus) for each tau0 (default 0.05 sqrt(omega)) of the stability sandwich.

    ``plus`` and ``minus`` are the (scale, pair) of ``wave.on_curve`` at scales 1 +- tau0/sqrt(omega).
    A tau0 outside (0, sqrt(omega)) raises InadmissibleParameters naming it: from sqrt(omega) on,
    the lower point is off the curve's branch.
    """
    sw = float(np.sqrt(wave.omega))
    points = []
    for tau0 in [0.05 * sw] if tau0s is None else tau0s:
        if not tau0 > 0.0:
            raise InadmissibleParameters(f"tau0={tau0:g} is not positive")
        try:
            points.append((tau0, wave.on_curve(1.0 + tau0 / sw), wave.on_curve(1.0 - tau0 / sw)))
        except InadmissibleParameters as exc:
            raise InadmissibleParameters(f"tau0={tau0:g} is not below sqrt(omega)={sw:g}: {exc}") from None
    return points


def stability_experiment(
    result,
    delta: float,
    config: EvolveConfig,
    tau0s=None,
    seed: int = 0,
) -> StabilityReport:
    """Evolve a perturbed ground state and monitor orbital closeness.

    The profile is perturbed by ``delta`` times a unit-H1 random field
    (``perturbed``), evolved to t_final, and compared at every record time
    against the translation/gauge orbit of the unperturbed profile.
    Membership in the frequency-shifted potential wells is monitored at the
    points of ``sandwich_points``, checked before anything is evolved: the
    records' report there follows from their Q, L = E - N, N and P, and the
    level there is s^(4-d) mu for the point's scale s.
    """
    phi = result.phi
    phys, wave = result.phys, result.wave
    d = phi.grid.d
    points = sandwich_points(wave, tau0s)

    _, trace = evolve(perturbed(phi, delta, seed), phys, wave, config, reference=phi)

    L, N = trace.E - trace.N, trace.N
    checks = []
    for tau0, (s_p, w_p), (s_m, w_m) in points:
        plus = FunctionalReport.from_parts(trace.Q, L, N, trace.P, w_p.omega, w_p.c_array)
        minus = FunctionalReport.from_parts(trace.Q, L, N, trace.P, w_m.omega, w_m.c_array)
        mu_p, mu_m = s_p ** (4 - d) * result.mu, s_m ** (4 - d) * result.mu
        bplus = WellMembership.from_report(plus, mu_p).bplus
        bminus = WellMembership.from_report(minus, mu_m).bminus
        checks.append(
            SandwichCheck(
                tau0=float(tau0),
                omega_plus=w_p.omega,
                omega_minus=w_m.omega,
                mu_plus=mu_p,
                mu_minus=mu_m,
                in_bplus_initial=bool(bplus[0]),
                in_bminus_initial=bool(bminus[0]),
                in_bplus_all=bool(np.all(bplus)),
                in_bminus_all=bool(np.all(bminus)),
                k_plus_sign_constant=bool(np.all(np.sign(plus.K) == np.sign(plus.K[0]))),
                k_minus_sign_constant=bool(np.all(np.sign(minus.K) == np.sign(minus.K[0]))),
            )
        )

    return StabilityReport(
        delta=delta,
        trace=trace,
        max_orbit_distance=float(np.max(trace.orbit_distance)),
        final_orbit_distance=float(trace.orbit_distance[-1]),
        sandwich=checks,
    )


@dataclass
class DecayReport:
    """Tail decay rates per component against the admissibility bound and the exact rates.

    ``rates[j]`` is the fitted slope of -log|phi_j| over the radial window;
    the analysis guarantees exponential decay with any rate below
    p_max / 2 where p_max = sqrt(4 omega sigma0) (1 - sqrt(sigma/(4 omega)) |c|).
    ``exact_rates[j]`` is the rate of the linear tail equation
    (``WaveParams.tail_rates``), which a fit on a resolved grid meets; a fit
    far from it measures something else, such as a resolution floor.
    """

    rates: np.ndarray
    p_max: float
    half_bound: float
    window: tuple
    fit_residuals: np.ndarray
    exact_rates: np.ndarray


def decay_window(grid: Grid, window=(0.5, 0.9)) -> tuple:
    """The grid points of ``decay_rate_fit``'s window on ``grid``: (r, inside, (r_lo, r_hi)).

    The window [lo, hi] is a fraction of the half-box, min(extent) / 2,
    giving [r_lo, r_hi]; ``inside`` marks the flattened grid points whose
    radius lies in it, and r holds their radii. Raises FitWindowEmpty when
    no grid point lies in it.
    """
    half = min(grid.extent) / 2.0
    r_lo, r_hi = window[0] * half, window[1] * half
    r = grid.radius().ravel()
    inside = (r >= r_lo) & (r <= r_hi)
    if not np.any(inside):
        raise FitWindowEmpty(f"no grid points with radius in [{r_lo:.3g}, {r_hi:.3g}]")
    return r[inside], inside, (r_lo, r_hi)


def decay_rate_fit(
    phi: State, phys: PhysParams, wave: WaveParams, window: tuple = (0.5, 0.9)
) -> DecayReport:
    """Least-squares tail slope of log amplitude vs radius, per component.

    The window is a fraction of the half-box (the outer 10% is excluded by
    default: periodic wrap contaminates it), and its radii come from
    ``decay_window``, which raises FitWindowEmpty before any fit when it
    holds no grid point. For d >= 2 amplitudes are radially bin-averaged
    before fitting. The fit is of log(amp r^{(d-1)/2}): the tail of the
    linear tail equation is a Bessel tail, e^{-rate r} times r^{-(d-1)/2},
    and the factor lifts that prefactor off (in 1D it is r^0 = 1).
    """
    g = phi.grid
    r, inside, (r_lo, r_hi) = decay_window(g, window)

    p_max = float(np.sqrt(4.0 * wave.omega * phys.sigma0) * (1.0 - np.sqrt(phys.sigma / (4.0 * wave.omega)) * wave.speed))

    rates = np.empty(3)
    residuals = np.empty(3)
    for j in range(3):
        amp = np.sqrt(np.sum(np.abs(phi.u[j]) ** 2, axis=0)).ravel()[inside]
        if g.d == 1:
            rr, aa = r, amp
        else:
            nbins = max(8, int((r_hi - r_lo) / max(g.spacing)))
            edges = np.linspace(r_lo, r_hi, nbins + 1)
            which = np.digitize(r, edges) - 1
            which = np.clip(which, 0, nbins - 1)
            sums = np.bincount(which, weights=amp, minlength=nbins)
            counts = np.bincount(which, minlength=nbins)
            good = counts > 0
            rr = 0.5 * (edges[:-1] + edges[1:])[good]
            aa = sums[good] / counts[good]
        log_amp = np.log(aa * rr ** ((g.d - 1) / 2) + 1e-300)
        slope, intercept = np.polyfit(rr, log_amp, 1)
        rates[j] = -slope
        residuals[j] = float(np.sqrt(np.mean((log_amp - (slope * rr + intercept)) ** 2)))

    return DecayReport(
        rates=rates,
        p_max=p_max,
        half_bound=p_max / 2.0,
        window=(float(r_lo), float(r_hi)),
        fit_residuals=residuals,
        exact_rates=wave.tail_rates(phys),
    )
