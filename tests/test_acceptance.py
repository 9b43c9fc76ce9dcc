"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live; they also appear in captured output). The heavier dynamics
criteria reuse session-scoped ground-state solves.
"""

import json
import time
import warnings

import numpy as np
import pytest

from dnls3.cli import run_subcommand
from dnls3.config import parse_config
from dnls3.errors import ValidationError
from dnls3.evolution import (
    EvolveConfig,
    decay_rate_fit,
    evolve,
    h1_perturbation,
    solitary_wave,
    stability_experiment,
)
from dnls3.functionals import WellMembership, coercivity_certificate, evaluate
from dnls3.grid import Grid, State, norm_h1
from dnls3.ground_state import (
    SolverConfig,
    h_curve,
    mu_scaling_check,
    sample_below_level,
    solve_ground_state,
)
from dnls3.params import PhysParams, WaveParams
from dnls3.snapshot import load_field, save_field

PHYS = PhysParams(1.0, 1.0, 1.0)
SOLVER = SolverConfig(restarts=1)

warnings.filterwarnings("ignore", message=".*well-posedness.*")


def report(criterion: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def grid_1d():
    return Grid(512, 40.0)


@pytest.fixture(scope="module")
def grid_1d_da():
    return Grid(512, 40.0, dealias=True)


@pytest.fixture(scope="module")
def gs_c0(grid_1d):
    return solve_ground_state(grid_1d, PHYS, WaveParams(1.0, (0.0,)), SOLVER)


@pytest.fixture(scope="module")
def gs_c05(grid_1d):
    return solve_ground_state(grid_1d, PHYS, WaveParams(1.0, (0.5,)), SOLVER)


@pytest.fixture(scope="module")
def gs_c0_da(grid_1d_da):
    return solve_ground_state(grid_1d_da, PHYS, WaveParams(1.0, (0.0,)), SOLVER)


def test_criterion_01_identity_suite(gs_c0, gs_c05):
    t0 = time.time()
    details = []
    ok = True
    for res in (gs_c0, gs_c05):
        k_res = abs(res.report.K) / max(1.0, res.report.Lqc)
        ident = max(res.report.identity_residuals().values())
        poho, fourd = res.report.pohozaev_residual(), res.report.fourd_residual(res.mu)
        ok &= k_res < 1e-8 and poho < 1e-6
        ok &= fourd < 1e-6 and ident < 1e-13
        details.append(f"c={res.wave.c[0]}: |K|={k_res:.1e} poho={poho:.1e} 4-d={fourd:.1e} skl={ident:.1e}")
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report("criterion 1 (identity suite)", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_02_mu_scaling(grid_1d):
    t0 = time.time()
    pts1 = mu_scaling_check(grid_1d, PHYS, (0.0,), [0.5, 2.0, 4.0], SOLVER)
    worst_1d = max(p.rel_error for p in pts1)
    grid2 = Grid((128, 128), (30.0, 30.0), dealias=True)
    pts2 = mu_scaling_check(grid2, PHYS, (0.3, 0.0), [2.0], SOLVER)
    err_2d = pts2[0].rel_error
    elapsed = time.time() - t0
    ok = worst_1d < 1e-3 and err_2d < 3e-3 and elapsed < 600.0
    report(
        "criterion 2 (mu scaling)",
        ok,
        f"d=1 worst={worst_1d:.2e} (<1e-3), d=2 err={err_2d:.2e} (<3e-3), {elapsed:.0f}s",
    )


def test_criterion_03_2d_zero_energy():
    grid2 = Grid((256, 256), (30.0, 30.0))
    res = solve_ground_state(grid2, PHYS, WaveParams(1.0, (0.0, 0.0)), SOLVER)
    e_over_l = abs(res.report.E) / res.report.L
    thr = res.report.Q - res.report.E
    thr_err = abs(thr - res.mu) / res.mu
    ok = e_over_l < 1e-6 and thr_err < 1e-6
    report(
        "criterion 3 (2d zero energy / charge threshold)",
        ok,
        f"|E|/L={e_over_l:.2e} (<1e-6), |Q-E-mu|/mu={thr_err:.2e} (<1e-6)",
    )


def test_criterion_04_coercivity():
    rng = np.random.default_rng(42)
    grid = Grid(32, 10.0)
    failures = 0
    for _ in range(50):
        omega = float(rng.uniform(0.3, 4.0))
        speed = 0.99 * 2.0 * np.sqrt(omega / PHYS.sigma) * float(rng.uniform(0.0, 1.0))
        wave = WaveParams(omega, (speed,))
        cert = coercivity_certificate(PHYS, wave)
        if cert.min_coeff <= 0:
            failures += 1
            continue
        shape = (3, 1, 32)
        for _ in range(1000):
            u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            state = State(grid, u)
            rep = evaluate(state, PHYS, wave)
            if rep.Lqc <= 0:
                failures += 1
                break
    report(
        "criterion 4 (coercivity)",
        failures == 0,
        f"50 parameter samples x 1000 states, {failures} failures",
    )


def test_criterion_05_well_equality():
    grid = Grid(256, 40.0)
    res = solve_ground_state(grid, PHYS, WaveParams(1.0, (0.0,)), SOLVER)
    rng = np.random.default_rng(5)
    samples = sample_below_level(grid, PHYS, res.wave, res.mu, rng, 200)
    disagreements = 0
    for _, rep in samples:
        if (rep.K > 0) != (rep.N > -2.0 * res.mu):
            disagreements += 1
        if (rep.K < 0) != (rep.N < -2.0 * res.mu):
            disagreements += 1
    ok = len(samples) == 200 and disagreements == 0
    report(
        "criterion 5 (potential-well equality)",
        ok,
        f"{len(samples)} states below mu, {disagreements} disagreements",
    )


def test_criterion_06_conservation(gs_c0_da):
    grid = gs_c0_da.phi.grid
    wave = gs_c0_da.wave
    rng = np.random.default_rng(0)
    noise = h1_perturbation(grid, rng)
    perturbed = State(grid, gs_c0_da.phi.u + 1e-3 * noise.u)
    _, tr = evolve(perturbed, PHYS, wave, EvolveConfig(dt=1e-3, t_final=1.0, record_stride=100))
    drifts = {name: tr.drift(name) for name in ("Q", "E", "P")}
    bound_ok = all(v < 1e-8 for v in drifts.values())

    # order-2 ratio measured where the dt^2 term dominates: the half-scaled
    # profile (far from the solitary orbit, so the splitting error is active)
    half = State(grid, 0.5 * gs_c0_da.phi.u)
    ratios = {}
    for dt in (1e-3, 5e-4):
        _, tr_h = evolve(half, PHYS, wave, EvolveConfig(dt=dt, t_final=1.0, record_stride=100))
        ratios[dt] = tr_h.drift("E")
    ratio = ratios[1e-3] / ratios[5e-4]
    ok = bound_ok and 3.5 <= ratio <= 4.5
    report(
        "criterion 6 (conservation)",
        ok,
        f"drifts Q={drifts['Q']:.1e} E={drifts['E']:.1e} P={drifts['P']:.1e} (<1e-8), "
        f"E-drift ratio dt/dt2={ratio:.2f} (in [3.5,4.5])",
    )


def test_criterion_07_solitary_propagation(grid_1d_da):
    wave = WaveParams(1.0, (0.5,))
    res = solve_ground_state(grid_1d_da, PHYS, wave, SOLVER)
    U1, _ = evolve(res.phi, PHYS, wave, EvolveConfig(dt=1e-3, t_final=1.0, record_stride=1000))
    exact = solitary_wave(res.phi, wave, 1.0)
    err = norm_h1(State(grid_1d_da, U1.u - exact.u)) / norm_h1(res.phi)
    report("criterion 7 (solitary-wave propagation)", err < 1e-4, f"rel H1 error {err:.2e} (<1e-4)")


def test_criterion_08_orbital_stability(grid_1d_da):
    t0 = time.time()
    delta = 1e-2
    details = []
    ok = True
    for c in (0.0, 0.2):
        res = solve_ground_state(grid_1d_da, PHYS, WaveParams(1.0, (c,)), SOLVER)
        rep = stability_experiment(
            res, delta, EvolveConfig(dt=1e-3, t_final=50.0, record_stride=500), seed=3
        )
        sw = rep.sandwich[0]
        ok &= rep.max_orbit_distance < 10 * delta
        ok &= sw.k_plus_sign_constant and sw.k_minus_sign_constant
        details.append(
            f"c={c}: sup dist={rep.max_orbit_distance:.3e} (<{10 * delta:.0e}), "
            f"K+/- sign const={sw.k_plus_sign_constant}/{sw.k_minus_sign_constant}, "
            f"sandwich init={sw.in_bplus_initial and sw.in_bminus_initial}"
        )
    elapsed = time.time() - t0
    ok &= elapsed < 900.0
    report("criterion 8 (orbital stability)", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_09_h_curve(grid_1d):
    rep = h_curve(grid_1d, PHYS, WaveParams(1.0, (0.0,)), config=SOLVER)
    ok = rep.rel_h1 < 2e-2 and rep.rel_h2 < 5e-2
    report(
        "criterion 9 (h-curve derivatives)",
        ok,
        f"h'(0) rel={rep.rel_h1:.2e} (<2e-2), h''(0) rel={rep.rel_h2:.2e} (<5e-2)",
    )


def test_criterion_10_decay(grid_1d):
    tight = SolverConfig(restarts=1, residual_tol=1e-11)
    res = solve_ground_state(grid_1d, PHYS, WaveParams(1.0, (0.0,)), tight)
    rep = decay_rate_fit(res.phi, PHYS, res.wave)
    min_rate = float(np.min(rep.rates))
    # synthetic calibration
    x = grid_1d.axes[0]
    u = np.zeros((3, 1, 512), dtype=complex)
    for j in range(3):
        u[j, 0] = np.exp(-2.0 * np.abs(x))
    cal = decay_rate_fit(State(grid_1d, u), PHYS, res.wave)
    cal_err = float(np.max(np.abs(cal.rates - 2.0)))
    ok = rep.half_bound == 1.0 and min_rate >= 0.9 and cal_err < 1e-3
    report(
        "criterion 10 (exponential decay)",
        ok,
        f"min rate={min_rate:.3f} (>=0.9=0.9*p_max/2), calibration err={cal_err:.1e} (<1e-3)",
    )


def test_criterion_11_infrastructure(tmp_path, gs_c0):
    # bit-exact snapshot round trip
    path = tmp_path / "phi.ldsf"
    save_field(gs_c0.phi, path)
    back = load_field(path)
    roundtrip_ok = np.array_equal(back.u, gs_c0.phi.u)

    # config validation rejects inadmissible parameters
    bad = json.dumps(
        {"physics": {"alpha": 1, "beta": 1, "gamma": 1}, "wave": {"omega": 0.1, "c": [1.0]}}
    )
    try:
        parse_config(bad)
        validation_ok = False
    except ValidationError:
        validation_ok = True

    # byte-reproducible CLI outputs for a fixed config and seed
    blobs = []
    for name in ("a", "b"):
        doc = {
            "physics": {"alpha": 1, "beta": 1, "gamma": 1},
            "wave": {"omega": 1, "c": [0]},
            "grid": {"d": 1, "n": [256], "extent": [40]},
            "solver": {"restarts": 1},
            "evolve": {"dt": 1e-2, "t_final": 0.05, "record_stride": 2},
            "experiment": {"delta": 1e-3},
            "output": {"dir": str(tmp_path / name)},
        }
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        code = run_subcommand(["evolve", "--config", str(cfg), "--seed", "11"])
        assert code == 0
        echoed = json.loads((tmp_path / name / "effective_config.json").read_text())
        echoed.pop("output")  # the directories differ by construction
        blobs.append(
            (tmp_path / name / "trace.csv").read_bytes()
            + json.dumps(echoed, sort_keys=True).encode()
        )
    repro_ok = blobs[0] == blobs[1]

    ok = roundtrip_ok and validation_ok and repro_ok
    report(
        "criterion 11 (infrastructure)",
        ok,
        f"roundtrip={roundtrip_ok}, validation={validation_ok}, reproducible={repro_ok}",
    )


def test_invariant_aplus_flow_bound(gs_c0_da):
    """Flow invariance of the well and the uniform H1 bound, sampled."""
    grid = gs_c0_da.phi.grid
    wave = gs_c0_da.wave
    cert = coercivity_certificate(PHYS, wave)
    rng = np.random.default_rng(9)
    # half the draws have K < 0; the flow is run on the 10 with K > 0
    samples = [(s, r) for s, r in sample_below_level(grid, PHYS, wave, gs_c0_da.mu, rng, 20) if r.K > 0]
    ok = len(samples) == 10
    for state, rep0 in samples:
        _, tr = evolve(state, PHYS, wave, EvolveConfig(dt=1e-3, t_final=1.0, record_stride=100))
        ok &= bool(np.all(tr.K > 0))
        bound = 6.0 * rep0.S / cert.min_coeff * (1.0 + 1e-3)
        ok &= bool(np.all(tr.h1**2 <= bound))
        ok &= bool(np.all(WellMembership.from_report(tr, gs_c0_da.mu).aplus))
    report(
        "invariant (A+ flow invariance and H1 bound)",
        ok,
        f"{len(samples)} positive-well samples over T=1",
    )


# ROADMAP item 13(a): the criteria that take no time step, at a dispersion triple with
# alpha != gamma and no tie among the m_j kappa_j (2, 1, 3), with the tolerances of (1, 1, 1)
GENERIC = PhysParams(2.0, 1.0, 3.0)


def test_criterion_01_identity_suite_generic(grid_1d):
    t0 = time.time()
    details = []
    ok = True
    for c in (0.0, 0.5):
        res = solve_ground_state(grid_1d, GENERIC, WaveParams(1.0, (c,)), SOLVER)
        k_res = abs(res.report.K) / max(1.0, res.report.Lqc)
        ident = max(res.report.identity_residuals().values())
        poho, fourd = res.report.pohozaev_residual(), res.report.fourd_residual(res.mu)
        ok &= k_res < 1e-8 and poho < 1e-6
        ok &= fourd < 1e-6 and ident < 1e-13
        details.append(f"c={c}: |K|={k_res:.1e} poho={poho:.1e} 4-d={fourd:.1e} skl={ident:.1e}")
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report("criterion 1 (identity suite) at kappa=(2, 1, 3)", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_02_mu_scaling_generic(grid_1d):
    # the 1D half of criterion 2
    t0 = time.time()
    pts = mu_scaling_check(grid_1d, GENERIC, (0.0,), [0.5, 2.0, 4.0], SOLVER)
    worst = max(p.rel_error for p in pts)
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 600.0
    report("criterion 2 (mu scaling) at kappa=(2, 1, 3)", ok, f"d=1 worst={worst:.2e} (<1e-3), {elapsed:.0f}s")


def test_criterion_05_well_equality_generic():
    grid = Grid(256, 40.0)
    res = solve_ground_state(grid, GENERIC, WaveParams(1.0, (0.0,)), SOLVER)
    rng = np.random.default_rng(5)
    samples = sample_below_level(grid, GENERIC, res.wave, res.mu, rng, 200)
    disagreements = 0
    for _, rep in samples:
        if (rep.K > 0) != (rep.N > -2.0 * res.mu):
            disagreements += 1
        if (rep.K < 0) != (rep.N < -2.0 * res.mu):
            disagreements += 1
    ok = len(samples) == 200 and disagreements == 0
    report(
        "criterion 5 (potential-well equality) at kappa=(2, 1, 3)",
        ok,
        f"{len(samples)} states below mu, {disagreements} disagreements",
    )


def test_criterion_09_h_curve_generic(grid_1d):
    rep = h_curve(grid_1d, GENERIC, WaveParams(1.0, (0.0,)), config=SOLVER)
    ok = rep.rel_h1 < 2e-2 and rep.rel_h2 < 5e-2
    report(
        "criterion 9 (h-curve derivatives) at kappa=(2, 1, 3)",
        ok,
        f"h'(0) rel={rep.rel_h1:.2e} (<2e-2), h''(0) rel={rep.rel_h2:.2e} (<5e-2)",
    )


def test_criterion_10_decay_generic(grid_1d):
    tight = SolverConfig(restarts=1, residual_tol=1e-11)
    res = solve_ground_state(grid_1d, GENERIC, WaveParams(1.0, (0.0,)), tight)
    rep = decay_rate_fit(res.phi, GENERIC, res.wave)
    min_rate = float(np.min(rep.rates))
    # at c = 0 the half bound p_max / 2 is the slowest exact tail rate min_j r_j, sqrt(1/3) here
    slowest = float(np.min(res.wave.tail_rates(GENERIC)))
    # synthetic calibration
    x = grid_1d.axes[0]
    u = np.zeros((3, 1, 512), dtype=complex)
    for j in range(3):
        u[j, 0] = np.exp(-2.0 * np.abs(x))
    cal = decay_rate_fit(State(grid_1d, u), GENERIC, res.wave)
    cal_err = float(np.max(np.abs(cal.rates - 2.0)))
    ok = rep.half_bound == slowest and min_rate >= 0.9 * rep.half_bound and cal_err < 1e-3
    report(
        "criterion 10 (exponential decay) at kappa=(2, 1, 3)",
        ok,
        f"min rate={min_rate:.3f} (>={0.9 * rep.half_bound:.3f}=0.9*p_max/2, p_max/2={rep.half_bound:.6f}, "
        f"min_j r_j={slowest:.6f}), calibration err={cal_err:.1e} (<1e-3)",
    )
