"""Command-line driver tying the modules into reproducible experiments.

Subcommands: gs, evolve, check, mu-scan, h-curve, stability, decay.
Every run writes into its output directory:

    effective_config.json   the fully-defaulted config that was executed
    manifest.json           config hash, seed, format version, regime flag,
                            exit code, error record, wall clock
    <subcommand outputs>    field snapshots (.ldsf), CSV series, JSON reports

Exit codes: 0 success, 2 invalid configuration or input files (USER_ERRORS),
refused before any solve and before the output directory is made, 3
numerical failure (no convergence, divergence, domain too small, a
degenerate coupling). Errors also emit a one-line JSON record on stderr,
the error's ``record``. A failed run keeps what explains it, written by
``run_subcommand`` alone, whichever subcommand failed: the descents the
error carries go to solver_history.csv (their terminations are in the
record), its trace up to a divergence to the subcommand's own trace file
(TRACE_FILES), and the record to the manifest, whose ``error`` is null on
success. All outputs other than the manifest (which records the wall
clock) are byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, _judged, _path, parse_config
from .errors import Dnls3Error
from .errors import FitWindowEmpty, FormatError, InadmissibleParameters, LengthMismatch, ParseError, UnsupportedVersion, ValidationError, WrongDimension
from .evolution import decay_rate_fit, decay_window, evolve, perturbed, sandwich_points, stability_experiment
from .functionals import WellMembership, coercivity_certificate, evaluate
from .grid import State
from .ground_state import MuScalePoint, h_curve, h_curve_points, mu_scaling_check, mu_scan_points, reports_below_level, solve_ground_state
from .snapshot import FORMAT_VERSION, load_field, save_field

# the errors of a run's inputs (exit 2); every other Dnls3Error is a numerical failure (exit 3)
USER_ERRORS = (ParseError, ValidationError, InadmissibleParameters, WrongDimension, FitWindowEmpty, FormatError, LengthMismatch, UnsupportedVersion)


def _fmt(x) -> str:
    return x if isinstance(x, str) else f"{x:.17g}"


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as sorted, indented JSON; numpy scalars and arrays are written as their Python values."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=lambda v: v.tolist())
        fh.write("\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_trace_csv(path: Path, trace) -> None:
    """One row per record: t, Q, E, P_k, S, K, h1norm, and orbit_dist when the trace has it."""
    d = trace.P.shape[1]
    header = ["t", "Q", "E", *[f"P_{k + 1}" for k in range(d)], "S", "K", "h1norm"]
    columns = [trace.times, trace.Q, trace.E, *trace.P.T, trace.S, trace.K, trace.h1]
    if trace.orbit_distance is not None:
        header.append("orbit_dist")
        columns.append(trace.orbit_distance)
    _write_csv(path, header, zip(*columns))


def _report_dict(rep) -> dict:
    """The report's fields, less the pair (omega, c) it was evaluated at."""
    return {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name not in ("omega", "c")}


def _load_config(args, experiment: str) -> RunConfig:
    cfg = parse_config(args.config, experiment=experiment)
    # the flags pass the rules of the keys they override; --seed's text is read as the JSON value it spells
    if args.seed is not None:
        cfg.solver = _judged("solver.seed", lambda text: dataclasses.replace(cfg.solver, seed=json.loads(text)), args.seed)
    if args.out is not None:
        cfg.output_dir = _path(args.out, "output.dir")
    return cfg


def _prepare_outdir(cfg: RunConfig) -> Path:
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "effective_config.json", cfg.effective)
    except OSError as exc:
        raise ValidationError("output.dir", f"{outdir} is not a writable directory: {exc}") from exc
    return outdir


def _write_manifest(outdir: Path, cfg: RunConfig, subcommand: str, started: float, code: int, error: dict | None) -> None:
    """The run's identity, its regime flag (``PhysParams.well_posedness_unknown``), exit code, error record (None on success) and wall clock."""
    _write_json(
        outdir / "manifest.json",
        {
            "subcommand": subcommand,
            "config_hash": cfg.config_hash(),
            "seed": cfg.solver.seed,
            "field_format_version": FORMAT_VERSION,
            "well_posedness_unknown": cfg.phys.well_posedness_unknown,
            "exit_code": code,
            "error": error,
            "wall_clock_seconds": time.time() - started,
        },
    )


def _write_solver_history(path: Path, histories) -> None:
    """One row per state of each descent: its start (iteration 0), then each accepted step."""
    rows = [
        (k, i, h.S[i], h.residual[i], h.step[i], int(h.mixed[i]))
        for k, h in enumerate(histories)
        for i in range(len(h.S))
    ]
    _write_csv(path, ["descent", "iteration", "S", "residual", "step", "mixed"], rows)


def _cmd_gs(cfg: RunConfig, outdir: Path, field) -> int:
    res = solve_ground_state(cfg.grid, cfg.phys, cfg.wave, cfg.solver)
    save_field(res.phi, outdir / "ground_state.ldsf")
    _write_solver_history(outdir / "solver_history.csv", res.histories)
    _write_json(
        outdir / "ground_state.json",
        {
            **_identity_block(res.report, res.mu),
            "iterations": res.iterations,
            "final_residual": res.histories[-1].residual[-1],
            "stability_margin": res.report.stability_margin(),
            "tail_mass": res.tail_mass,
            "domain_converged": res.domain_converged,
            "termination": [h.termination for h in res.histories],
        },
    )
    return 0


def _read_field(cfg: RunConfig) -> State | None:
    """The snapshot named by experiment.field, placed on the config grid; None without one.

    Snapshots do not store the dealiasing flag, so the config grid supplies
    it; a snapshot on other points or another box is rejected.
    """
    path = cfg.experiment.get("field")
    if path is None:
        return None
    try:
        state = load_field(path)
    except OSError as exc:
        raise ValidationError("experiment.field", f"cannot read {path}: {exc}") from exc
    g, want = state.grid, cfg.grid
    if g.n != want.n or g.extent != want.extent:
        raise ValidationError(
            "experiment.field",
            f"{path} holds n={list(g.n)}, extent={list(g.extent)}; the config grid has "
            f"n={list(want.n)}, extent={list(want.extent)}",
        )
    return State(want, state.u)


def _start_profile(cfg: RunConfig, field: State | None):
    """The profile a run starts from, the ``field`` snapshot or the solved ground state, and the solve's result or None."""
    if field is not None:
        return field, None
    res = solve_ground_state(cfg.grid, cfg.phys, cfg.wave, cfg.solver)
    return res.phi, res


def _cmd_evolve(cfg: RunConfig, outdir: Path, field) -> int:
    # a solved start is its own orbit-distance reference; a snapshot start has none
    state, res = _start_profile(cfg, field)
    reference = None if res is None else state
    state = perturbed(state, cfg.experiment["delta"], cfg.solver.seed)
    _, trace = evolve(state, cfg.phys, cfg.wave, cfg.evolve, reference=reference)
    _write_trace_csv(outdir / TRACE_FILES["evolve"], trace)
    return 0


CHECK_THRESHOLDS = {
    "identity_max": 1e-13,
    "nehari_K": 1e-8,
    "pohozaev": 1e-6,
    "fourd": 1e-6,
}


def _identity_block(rep, mu: float) -> dict:
    """The keys that ground_state.json and check.json share, read off the report at level ``mu``.

    They are mu, the Pohozaev and (4-d) residuals, ``identities_passed`` (each of
    the four residuals that CHECK_THRESHOLDS gate is below its threshold), the
    thresholds and the report.
    """
    residuals = {
        "identity_max": max(rep.identity_residuals().values()),
        "nehari_K": rep.nehari_residual(),
        "pohozaev": rep.pohozaev_residual(),
        "fourd": rep.fourd_residual(mu),
    }
    return {
        "mu": mu,
        "pohozaev_residual": residuals["pohozaev"],
        "fourd_residual": residuals["fourd"],
        "identities_passed": all(residuals[key] < limit for key, limit in CHECK_THRESHOLDS.items()),
        "thresholds": CHECK_THRESHOLDS,
        "report": _report_dict(rep),
    }


def _cmd_check(cfg: RunConfig, outdir: Path, field) -> int:
    phi, res = _start_profile(cfg, field)
    rep = evaluate(phi, cfg.phys, cfg.wave) if res is None else res.report
    mu = rep.S
    identities = _identity_block(rep, mu)

    cert = coercivity_certificate(cfg.phys, cfg.wave)
    rng = np.random.default_rng(cfg.solver.seed)
    wanted = cfg.experiment["samples"]
    # the flags of all samples at once, from their batch report; the states are not kept
    batch = reports_below_level(phi.grid, cfg.phys, cfg.wave, mu, rng, wanted)
    samples = len(batch.Q)
    disagreements = int(np.count_nonzero(~WellMembership.from_report(batch, mu).agree))
    lqc_nonpositive = int(np.count_nonzero(batch.Lqc <= 0))

    # a well check passes on the samples it asked for, not on fewer
    passed = (
        identities["identities_passed"]
        and cert.min_coeff > 0
        and samples == wanted
        and disagreements == 0
        and lqc_nonpositive == 0
    )
    _write_json(
        outdir / "check.json",
        {
            **identities,
            "identity_residuals": rep.identity_residuals(),
            "nehari_K_residual": rep.nehari_residual(),
            "coercivity": {
                "A": list(cert.A),
                "grad_coeffs": list(cert.grad_coeffs),
                "mass_coeffs": list(cert.mass_coeffs),
                "min_coeff": cert.min_coeff,
            },
            "well_samples": samples,
            "well_disagreements": disagreements,
            "lqc_nonpositive": lqc_nonpositive,
            "passed": passed,
        },
    )
    return 0 if passed else 3


def _cmd_mu_scan(cfg: RunConfig, outdir: Path, field) -> int:
    points = mu_scaling_check(cfg.grid, cfg.phys, cfg.wave.c, cfg.experiment["omegas"], cfg.solver)
    header = [f.name for f in dataclasses.fields(MuScalePoint)]
    _write_csv(outdir / "mu_scan.csv", header, map(dataclasses.astuple, points))
    # the points that solved are written; a run with a failed point still fails
    return 0 if all(p.status == "ok" for p in points) else 3


def _cmd_h_curve(cfg: RunConfig, outdir: Path, field) -> int:
    rep = h_curve(cfg.grid, cfg.phys, cfg.wave, tau_step=cfg.experiment["tau_step"], config=cfg.solver)
    # the three series go to the CSV, every scalar field to the JSON
    series = ("taus", "mu_values", "mu_curve_predicted")
    _write_csv(outdir / "h_curve.csv", ["tau", "mu", "mu_curve_predicted"], zip(*(getattr(rep, k) for k in series)))
    scalars = {k: v for k, v in dataclasses.asdict(rep).items() if k not in series}
    _write_json(outdir / "h_curve.json", scalars)
    return 0


def _cmd_stability(cfg: RunConfig, outdir: Path, field) -> int:
    res = solve_ground_state(cfg.grid, cfg.phys, cfg.wave, cfg.solver)
    delta = cfg.experiment["delta"]
    report = stability_experiment(res, delta, cfg.evolve, tau0s=cfg.experiment["tau0s"], seed=cfg.solver.seed)
    _write_trace_csv(outdir / TRACE_FILES["stability"], report.trace)
    _write_json(
        outdir / "verdict.json",
        {
            "delta": delta,
            "max_orbit_distance": report.max_orbit_distance,
            "final_orbit_distance": report.final_orbit_distance,
            "bounded_by_10_delta": report.max_orbit_distance < 10 * abs(delta) if delta != 0 else None,
            "sandwich": [dataclasses.asdict(c) for c in report.sandwich],
        },
    )
    return 0


def _cmd_decay(cfg: RunConfig, outdir: Path, field) -> int:
    phi, _ = _start_profile(cfg, field)
    rep = decay_rate_fit(phi, cfg.phys, cfg.wave, window=tuple(cfg.experiment["window"]))
    _write_json(outdir / "decay.json", dataclasses.asdict(rep))
    return 0


# the trace file of each subcommand that integrates, on success and up to a divergence alike
TRACE_FILES = {"evolve": "trace.csv", "stability": "stability.csv"}

# each experiment's judge of its inputs, the library call its experiment makes
# first, run beside reading experiment.field before the output directory
# exists and before any solve
PRECHECKS = {
    "mu-scan": lambda cfg: mu_scan_points(cfg.phys, cfg.wave.c, cfg.experiment["omegas"]),
    "h-curve": lambda cfg: h_curve_points(cfg.grid, cfg.phys, cfg.wave, cfg.experiment["tau_step"]),
    "stability": lambda cfg: sandwich_points(cfg.wave, cfg.experiment["tau0s"]),
    "decay": lambda cfg: decay_window(cfg.grid, cfg.experiment["window"]),
}

COMMANDS = {
    "gs": _cmd_gs,
    "evolve": _cmd_evolve,
    "check": _cmd_check,
    "mu-scan": _cmd_mu_scan,
    "h-curve": _cmd_h_curve,
    "stability": _cmd_stability,
    "decay": _cmd_decay,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused by every call in the process."""
    parser = argparse.ArgumentParser(
        prog="dnls3",
        description="Ground states, evolution and identity checks for the three-component derivative NLS system",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file or literal JSON text")
        p.add_argument("--seed", default=None, help="the run seed, a JSON number: overrides solver.seed")
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
        # a run's inputs are read and checked before it writes anything
        field = _read_field(cfg)
        if args.subcommand in PRECHECKS:
            PRECHECKS[args.subcommand](cfg)
        outdir = _prepare_outdir(cfg)
        code, error = COMMANDS[args.subcommand](cfg, outdir, field), None
    except USER_ERRORS as exc:
        print(json.dumps(exc.record), file=sys.stderr)
        return 2
    except Dnls3Error as exc:
        # a numerical failure comes after the output directory exists: what explains it is written there
        code, error = 3, exc.record
        print(json.dumps(error), file=sys.stderr)
        if exc.histories:
            _write_solver_history(outdir / "solver_history.csv", exc.histories)
        if exc.trace is not None:
            _write_trace_csv(outdir / TRACE_FILES[args.subcommand], exc.trace)
    _write_manifest(outdir, cfg, args.subcommand, started, code, error)
    return code


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
