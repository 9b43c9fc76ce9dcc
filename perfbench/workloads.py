"""The benchmark's three workloads.

Each workload is a closed loop with one client: operation i starts when
operation i-1 has returned. Operation 0 is the warm-up. ``draw(i)`` makes
operation i's input from ``numpy.random.default_rng([seed, i])`` alone, so
a seed fixes every input however many operations a run gets through, and
the library only ever sees the drawn values.

``op(i)`` is the operation a user runs; ``traced_op(i, tracer)`` makes the
same public calls with spans around them. Both return the operation's work
units (time steps or pipelines) and raise on an exception or a failed gate.
"""

from __future__ import annotations

import json
import warnings
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from dnls3.cli import run_subcommand
from dnls3.config import parse_config
from dnls3.errors import NonFinite
from dnls3.evolution import EvolutionTrace, EvolveConfig, h1_perturbation, orbit_distance, stability_experiment, step
from dnls3.functionals import evaluate
from dnls3.grid import Grid, State, norm_h1
from dnls3.ground_state import SolverConfig, solve_ground_state
from dnls3.params import PhysParams, WaveParams
from dnls3.snapshot import load_field

import gates

PHYS = PhysParams(1.0, 1.0, 1.0)

# alpha = gamma puts every workload in the regime the library warns about on
# each evolve call; the acceptance suite filters the same warning
warnings.filterwarnings("ignore", message=".*well-posedness.*")


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def record(tracer, U: State, wave: WaveParams, reference: State, rows: dict) -> None:
    """The record ``evolve`` makes at each stride, with spans around each call."""
    with span(tracer, "evolution.record"):
        with span(tracer, "functionals.evaluate"):
            rep = evaluate(U, PHYS, wave)
        with span(tracer, "grid.norm_h1"):
            h1 = norm_h1(U)
    with span(tracer, "evolution.orbit_distance"):
        dist = orbit_distance(U, reference).distance
    for key, value in (("Q", rep.Q), ("E", rep.E), ("P", rep.P), ("S", rep.S), ("K", rep.K), ("h1", h1), ("orbit", dist)):
        rows[key].append(value)


class Orbit1D:
    """Criterion 8, shortened: perturbed 1D ground state, dealiased Strang steps.

    Step arrays are 24 KiB, so numpy's per-call overhead dominates; this is
    where padding and batching changes to the spectral kernel show. The
    profile solve is set-up, not timed work.
    """

    name = "orbit-1d"
    unit = "steps"
    nominal_op_s = 2.0
    delta = 1e-2
    evolve = EvolveConfig(dt=1e-3, t_final=0.5, record_stride=500)

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int, tracer=None) -> None:
        self.seed = seed
        with span(tracer, "grid.init"):
            self.grid = Grid(512, 40.0, dealias=True)
        self.wave = WaveParams(1.0, (0.2,))
        with span(tracer, "ground_state.solve") as s:
            self.result = solve_ground_state(self.grid, PHYS, self.wave, SolverConfig(restarts=1))
        if s is not None:
            s.units = self.result.iterations
        res = self.result
        gates.check_ground_state(res.phi, PHYS, res.wave, res.mu)
        self.state = res.phi

    def draw(self, i: int) -> int:
        """The perturbation seed of operation i."""
        return int(op_rng(self.seed, i).integers(2**31))

    def op(self, i: int) -> int:
        report = stability_experiment(self.result, self.delta, self.evolve, seed=self.draw(i))
        gates.check_orbit(report.trace, self.delta)
        return self.n_steps

    @property
    def n_steps(self) -> int:
        return int(round(self.evolve.t_final / self.evolve.dt))

    def traced_op(self, i: int, tracer) -> int:
        phi = self.result.phi
        rng = np.random.default_rng(self.draw(i))
        with span(tracer, "evolution.h1_perturbation"):
            U = State(self.grid, phi.u + self.delta * h1_perturbation(self.grid, rng).u)
        rows = {k: [] for k in ("Q", "E", "P", "S", "K", "h1", "orbit")}
        record(tracer, U, self.wave, phi, rows)
        for k in range(1, self.n_steps + 1):
            with span(tracer, "evolution.step"):
                U = step(U, PHYS, self.evolve.dt, self.evolve.scheme)
            if not U.is_finite():
                raise NonFinite(k * self.evolve.dt)
            if k % self.evolve.record_stride == 0 or k == self.n_steps:
                record(tracer, U, self.wave, phi, rows)
        trace = EvolutionTrace(
            times=np.arange(len(rows["Q"])),
            Q=np.asarray(rows["Q"]),
            E=np.asarray(rows["E"]),
            P=np.asarray(rows["P"]).reshape(len(rows["Q"]), 1),
            S=np.asarray(rows["S"]),
            K=np.asarray(rows["K"]),
            h1=np.asarray(rows["h1"]),
            orbit_distance=np.asarray(rows["orbit"]),
        )
        gates.check_orbit(trace, self.delta)
        self.state = U
        return self.n_steps

    def probe_target(self):
        return self.grid, self.state, self.wave, self.result.mu, self.result.phi


class Verify1D:
    """One CLI pipeline per operation: ``gs`` then ``check`` on its snapshot.

    Plain 1D grid, so a dealiasing-only change predicts no effect here; the
    check evaluates thousands of small independent random states, and this
    is the only workload that writes snapshots and goes through config and
    cli.
    """

    name = "verify-1d"
    unit = "pipelines"
    nominal_op_s = 0.6
    samples = 200

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int, tracer=None) -> None:
        self.seed = seed
        base = {
            "physics": {"alpha": PHYS.alpha, "beta": PHYS.beta, "gamma": PHYS.gamma},
            "wave": {"omega": 1.0, "c": [0.3]},
            "grid": {"d": 1, "n": [512], "extent": [40.0], "dealias": False},
            "solver": {"restarts": 3},
        }
        self.gs_dir = self.workdir / "gs"
        self.check_dir = self.workdir / "check"
        self.snapshot = self.gs_dir / "ground_state.ldsf"
        gs_cfg = dict(base, output={"dir": str(self.gs_dir)})
        check_cfg = dict(
            base,
            experiment={"field": str(self.snapshot), "samples": self.samples},
            output={"dir": str(self.check_dir)},
        )
        self.gs_config = self.workdir / "gs.json"
        self.check_config = self.workdir / "check.json"
        self.gs_config.write_text(json.dumps(gs_cfg))
        self.check_config.write_text(json.dumps(check_cfg))
        # the CLI builds its own grid per run; this one times Grid construction
        # at the pipeline's size for setup_s and grid.init_ms
        with span(tracer, "grid.init"):
            self.grid = Grid(512, 40.0)

    def draw(self, i: int) -> int:
        """The ``--seed`` both subcommands of operation i get."""
        return int(op_rng(self.seed, i).integers(2**31))

    def op(self, i: int, tracer=None) -> int:
        seed = str(self.draw(i))
        with span(tracer, "cli.gs"):
            gs_code = run_subcommand(["gs", "--config", str(self.gs_config), "--seed", seed])
        with span(tracer, "cli.check"):
            check_code = run_subcommand(["check", "--config", str(self.check_config), "--seed", seed])
        gates.check_pipeline(
            gs_code, check_code, self.check_dir / "check.json", self.snapshot, self.workdir / "round_trip.ldsf"
        )
        return 1

    traced_op = op

    def probe_target(self):
        phi = load_field(self.snapshot)
        cfg = parse_config(str(self.check_config), experiment="check")
        mu = evaluate(phi, cfg.phys, cfg.wave).S
        return phi.grid, phi, cfg.wave, mu, phi

    def probe_solve(self, i: int):
        """The solve the pipeline's gs makes for operation i, run directly."""
        cfg = parse_config(str(self.gs_config), experiment="gs")
        return solve_ground_state(cfg.grid, cfg.phys, cfg.wave, replace(cfg.solver, seed=self.draw(i)))


WORKLOADS = {w.name: w for w in (Orbit1D, Verify1D)}
