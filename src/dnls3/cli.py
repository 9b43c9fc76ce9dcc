"""Command-line driver tying the modules into reproducible experiments.

Subcommands: gs, evolve, check, mu-scan, h-curve, stability, decay.
Every run writes into its output directory:

    effective_config.json   the fully-defaulted config that was executed
    manifest.json           config hash, seed, format version, wall clock
    <subcommand outputs>    field snapshots (.ldsf), CSV series, JSON reports

Exit codes: 0 success, 2 invalid configuration or input files, 3 numerical
failure (no convergence, divergence, domain too small). Errors also emit a
one-line JSON record on stderr. All outputs other than the manifest (which
records the wall clock) are byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config
from .errors import (
    DegenerateNonlinearity,
    Dnls3Error,
    DomainTooSmall,
    FitWindowEmpty,
    FormatError,
    InadmissibleParameters,
    LengthMismatch,
    NoConvergence,
    NonFinite,
    ParseError,
    ResolutionLoss,
    UnsupportedVersion,
    ValidationError,
)
from .evolution import decay_rate_fit, evolve, h1_perturbation, stability_experiment
from .functionals import WellMembership, coercivity_certificate, evaluate
from .grid import State
from .ground_state import (
    fourd_residual,
    h_curve,
    mu_scaling_check,
    pohozaev_residual,
    sample_below_level,
    solve_ground_state,
)
from .snapshot import FORMAT_VERSION, load_field, save_field

USER_ERRORS = (
    ParseError,
    ValidationError,
    InadmissibleParameters,
    FormatError,
    LengthMismatch,
    UnsupportedVersion,
)
NUMERICAL_ERRORS = (
    NoConvergence,
    DomainTooSmall,
    NonFinite,
    DegenerateNonlinearity,
    ResolutionLoss,
    FitWindowEmpty,
)


def _fmt(x) -> str:
    return f"{x:.17g}"


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _report_dict(rep) -> dict:
    return {
        "Q": rep.Q,
        "L": rep.L,
        "N": rep.N,
        "E": rep.E,
        "P": list(rep.P),
        "S": rep.S,
        "K": rep.K,
        "Lqc": rep.Lqc,
        "G": rep.G,
        "G_display": rep.G_display,
    }


def _load_config(args, experiment: str) -> RunConfig:
    cfg = parse_config(args.config, experiment=experiment)
    if args.seed is not None:
        cfg.solver = dataclasses.replace(cfg.solver, seed=args.seed)
        cfg.seed = args.seed
        cfg.effective["solver"]["seed"] = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
        cfg.effective["output"]["dir"] = args.out
    return cfg


def _prepare_outdir(cfg: RunConfig) -> Path:
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "effective_config.json", "w") as fh:
        fh.write(json.dumps(cfg.effective, sort_keys=True, indent=2))
        fh.write("\n")
    return outdir


def _write_manifest(outdir: Path, cfg: RunConfig, subcommand: str, started: float) -> None:
    _write_json(
        outdir / "manifest.json",
        {
            "subcommand": subcommand,
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "field_format_version": FORMAT_VERSION,
            "wall_clock_seconds": time.time() - started,
        },
    )


def _ground_state_payload(res) -> dict:
    return {
        "mu": res.mu,
        "iterations": res.iterations,
        "final_residual": res.final_residual,
        "pohozaev_residual": res.pohozaev_residual,
        "fourd_residual": res.fourd_residual,
        "stability_margin": res.stability_margin,
        "tail_mass": res.tail_mass,
        "domain_converged": res.domain_converged,
        "report": _report_dict(res.report),
    }


def _cmd_gs(cfg: RunConfig, outdir: Path) -> int:
    res = solve_ground_state(cfg.grid, cfg.phys, cfg.wave, cfg.solver)
    save_field(res.phi, outdir / "ground_state.ldsf")
    _, passed = _identity_gates(res.phi, res.report, res.mu, cfg)
    payload = dict(_ground_state_payload(res), identities_passed=passed, thresholds=CHECK_THRESHOLDS)
    _write_json(outdir / "ground_state.json", payload)
    return 0


def _load_experiment_field(cfg: RunConfig) -> State:
    """The snapshot named by experiment.field, placed on the config grid.

    Snapshots do not store the dealiasing flag, so the config grid supplies
    it; a snapshot whose points or box differ from the config grid is
    rejected.
    """
    path = cfg.experiment["field"]
    state = load_field(path)
    g, want = state.grid, cfg.grid
    if g.n != want.n or g.extent != want.extent:
        raise ValidationError(
            "experiment.field",
            f"{path} holds n={list(g.n)}, extent={list(g.extent)}; the config grid has "
            f"n={list(want.n)}, extent={list(want.extent)}",
        )
    return State(want, state.u)


def _initial_state(cfg: RunConfig):
    """Initial data for evolve/stability: solved ground state or a file."""
    exp = cfg.experiment
    source = exp.get("source", "ground_state")
    if source == "file":
        return _load_experiment_field(cfg), None, None
    res = solve_ground_state(cfg.grid, cfg.phys, cfg.wave, cfg.solver)
    state = res.phi
    scale = float(exp.get("scale", 1.0))
    if scale != 1.0:
        state = State(state.grid, scale * state.u)
    delta = float(exp.get("delta", 0.0))
    if delta != 0.0:
        rng = np.random.default_rng(int(exp.get("perturbation_seed", cfg.seed)))
        state = State(state.grid, state.u + delta * h1_perturbation(state.grid, rng).u)
    return state, res.phi, res


def _cmd_evolve(cfg: RunConfig, outdir: Path) -> int:
    state, reference, _ = _initial_state(cfg)
    _, trace = evolve(state, cfg.phys, cfg.wave, cfg.evolve, reference=reference)
    d = cfg.grid.d
    header = ["t", "Q", "E", *[f"P_{k + 1}" for k in range(d)], "S", "K", "h1norm"]
    if trace.orbit_distance is not None:
        header.append("orbit_dist")
    rows = []
    for i, t in enumerate(trace.times):
        row = [t, trace.Q[i], trace.E[i], *trace.P[i], trace.S[i], trace.K[i], trace.h1[i]]
        if trace.orbit_distance is not None:
            row.append(trace.orbit_distance[i])
        rows.append(row)
    _write_csv(outdir / "trace.csv", header, rows)
    return 0


CHECK_THRESHOLDS = {
    "identity_max": 1e-13,
    "nehari_K": 1e-8,
    "pohozaev": 1e-6,
    "fourd": 1e-6,
}


def _identity_gates(phi: State, rep, mu: float, cfg: RunConfig):
    """Residuals of the four identities that CHECK_THRESHOLDS gate, and whether all of them pass."""
    residuals = {
        "identity_max": max(rep.identity_residuals().values()),
        "nehari_K": abs(rep.K) / max(1.0, rep.Lqc),
        "pohozaev": pohozaev_residual(phi, cfg.phys, cfg.wave),
        "fourd": fourd_residual(rep, mu),
    }
    return residuals, all(residuals[key] < limit for key, limit in CHECK_THRESHOLDS.items())


def _cmd_check(cfg: RunConfig, outdir: Path) -> int:
    exp = cfg.experiment
    if "field" in exp:
        phi = _load_experiment_field(cfg)
        rep = evaluate(phi, cfg.phys, cfg.wave)
        mu = rep.S
    else:
        res = solve_ground_state(cfg.grid, cfg.phys, cfg.wave, cfg.solver)
        phi, rep, mu = res.phi, res.report, res.mu

    gates, identities_passed = _identity_gates(phi, rep, mu, cfg)

    cert = coercivity_certificate(cfg.phys, cfg.wave)
    rng = np.random.default_rng(cfg.seed)
    n_samples = int(exp.get("samples", 200))
    samples = sample_below_level(phi.grid, cfg.phys, cfg.wave, mu, rng, n_samples)
    disagreements = 0
    lqc_nonpositive = 0
    for _, srep in samples:
        if srep.Lqc <= 0:
            lqc_nonpositive += 1
        if not WellMembership.from_report(srep, mu).agree:
            disagreements += 1

    passed = identities_passed and cert.min_coeff > 0 and disagreements == 0 and lqc_nonpositive == 0
    _write_json(
        outdir / "check.json",
        {
            "mu": mu,
            "identity_residuals": rep.identity_residuals(),
            "nehari_K_residual": gates["nehari_K"],
            "pohozaev_residual": gates["pohozaev"],
            "fourd_residual": gates["fourd"],
            "identities_passed": identities_passed,
            "coercivity": {
                "A": [cert.A1, cert.A2, cert.A3],
                "grad_coeffs": list(cert.grad_coeffs),
                "mass_coeffs": list(cert.mass_coeffs),
                "min_coeff": cert.min_coeff,
            },
            "well_samples": len(samples),
            "well_disagreements": disagreements,
            "lqc_nonpositive": lqc_nonpositive,
            "thresholds": CHECK_THRESHOLDS,
            "passed": passed,
            "report": _report_dict(rep),
        },
    )
    return 0 if passed else 3


def _cmd_mu_scan(cfg: RunConfig, outdir: Path) -> int:
    exp = cfg.experiment
    c0 = exp.get("c0", list(cfg.wave.c))
    omegas = exp.get("omegas", [0.5, 1.0, 2.0, 4.0])
    points = mu_scaling_check(cfg.grid, cfg.phys, c0, omegas, cfg.solver)
    rows = [
        [p.omega, p.mu, p.mu_predicted, p.rel_error, p.q_scaling_error] for p in points
    ]
    _write_csv(outdir / "mu_scan.csv", ["omega", "mu", "mu_predicted", "rel_error", "q_scaling_error"], rows)
    return 0


def _cmd_h_curve(cfg: RunConfig, outdir: Path) -> int:
    tau_step = cfg.experiment.get("tau_step")
    rep = h_curve(cfg.grid, cfg.phys, cfg.wave, tau_step=tau_step, config=cfg.solver)
    rows = [
        [rep.taus[i], rep.mu_values[i], rep.mu_curve_predicted[i]] for i in range(len(rep.taus))
    ]
    _write_csv(outdir / "h_curve.csv", ["tau", "mu", "mu_curve_predicted"], rows)
    _write_json(
        outdir / "h_curve.json",
        {
            "h0": rep.h0,
            "fd_h1": rep.fd_h1,
            "fd_h2": rep.fd_h2,
            "closed_h1": rep.closed_h1,
            "closed_h2": rep.closed_h2,
            "rel_h0": rep.rel_h0,
            "rel_h1": rep.rel_h1,
            "rel_h2": rep.rel_h2,
        },
    )
    return 0


def _cmd_stability(cfg: RunConfig, outdir: Path) -> int:
    exp = cfg.experiment
    res = solve_ground_state(cfg.grid, cfg.phys, cfg.wave, cfg.solver)
    delta = float(exp.get("delta", 1e-2))
    tau0s = exp.get("tau0s")
    report = stability_experiment(
        res, delta, cfg.evolve, tau0s=tau0s, seed=int(exp.get("perturbation_seed", cfg.seed))
    )
    trace = report.trace
    d = cfg.grid.d
    header = ["t", "Q", "E", *[f"P_{k + 1}" for k in range(d)], "S", "K", "h1norm", "orbit_dist"]
    rows = [
        [t, trace.Q[i], trace.E[i], *trace.P[i], trace.S[i], trace.K[i], trace.h1[i], trace.orbit_distance[i]]
        for i, t in enumerate(trace.times)
    ]
    _write_csv(outdir / "stability.csv", header, rows)
    _write_json(
        outdir / "verdict.json",
        {
            "delta": delta,
            "max_orbit_distance": report.max_orbit_distance,
            "final_orbit_distance": report.final_orbit_distance,
            "bounded_by_10_delta": report.max_orbit_distance < 10 * delta if delta > 0 else None,
            "sandwich": [dataclasses.asdict(c) for c in report.sandwich],
        },
    )
    return 0


def _cmd_decay(cfg: RunConfig, outdir: Path) -> int:
    exp = cfg.experiment
    if "field" in exp:
        phi = _load_experiment_field(cfg)
    else:
        phi = solve_ground_state(cfg.grid, cfg.phys, cfg.wave, cfg.solver).phi
    window = tuple(exp.get("window", (0.5, 0.9)))
    rep = decay_rate_fit(phi, cfg.phys, cfg.wave, window=window)
    _write_json(
        outdir / "decay.json",
        {
            "rates": list(rep.rates),
            "p_max": rep.p_max,
            "half_bound": rep.half_bound,
            "window": list(rep.window),
            "fit_residuals": list(rep.fit_residuals),
        },
    )
    return 0


COMMANDS = {
    "gs": _cmd_gs,
    "evolve": _cmd_evolve,
    "check": _cmd_check,
    "mu-scan": _cmd_mu_scan,
    "h-curve": _cmd_h_curve,
    "stability": _cmd_stability,
    "decay": _cmd_decay,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnls3",
        description="Ground states, evolution and identity checks for the three-component derivative NLS system",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file or literal JSON text")
        p.add_argument("--seed", type=int, default=None, help="override the solver/perturbation seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def run_subcommand(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.time()
    try:
        cfg = _load_config(args, args.subcommand)
        outdir = _prepare_outdir(cfg)
        code = COMMANDS[args.subcommand](cfg, outdir)
        _write_manifest(outdir, cfg, args.subcommand, started)
        return code
    except USER_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NonFinite):
            record["divergence_time"] = exc.time
        print(json.dumps(record), file=sys.stderr)
        return 3
    except Dnls3Error as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
