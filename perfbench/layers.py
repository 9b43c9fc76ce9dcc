"""Per-layer probes and the per-layer metrics of the traced run.

A probe calls one public function on the state the workload itself
produced, inside a span of the same name the traced pass uses, so a layer's
figures come from the workload's own operations where it runs them and
from probes on its own state where it does not. Metrics are read back from
the spans by name.
"""

from __future__ import annotations

import json

import numpy as np

from dnls3.config import parse_config
from dnls3.evolution import coupling_rhs, h1_perturbation, step
from dnls3.functionals import action_gradient, evaluate, nehari_rescale
from dnls3.grid import State
from dnls3.ground_state import precondition, sample_below_level
from dnls3.snapshot import load_field, save_field

from workloads import PHYS, Orbit1D, record, span

#: Repetitions of each cheap probe; its time is the median.
PROBE_REPEATS = 7

#: Per-layer metric names and units, in report order.
PER_LAYER = {
    "grid.fft_calls": "count",
    "grid.fft_points": "count",
    "grid.fft_time_share": "ratio",
    "grid.product_ms": "ms",
    "grid.init_ms": "ms",
    "functionals.evaluate_ms": "ms",
    "functionals.evaluate_fft_calls": "count",
    "functionals.action_gradient_ms": "ms",
    "functionals.action_gradient_fft_calls": "count",
    "functionals.nehari_rescale_ms": "ms",
    "ground_state.iterations": "count",
    "ground_state.iter_ms": "ms",
    "ground_state.fft_calls_per_iter": "count",
    "ground_state.precondition_ms": "ms",
    "ground_state.sample_ms": "ms",
    "evolution.step_ms_p50": "ms",
    "evolution.step_ms_p99": "ms",
    "evolution.step_fft_calls": "count",
    "evolution.coupling_rhs_ms": "ms",
    "evolution.record_ms": "ms",
    "evolution.orbit_distance_ms": "ms",
    "snapshot.save_ms": "ms",
    "snapshot.load_ms": "ms",
    "snapshot.bytes": "bytes",
    "config.parse_ms": "ms",
    "cli.gs_s": "s",
    "cli.check_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "host.ref_fft_ms": "ms",
}


def _repeat(tracer, name: str, fn) -> None:
    for _ in range(PROBE_REPEATS):
        with span(tracer, name):
            fn()


def run_probes(workload, tracer) -> int:
    """Probe every layer the traced pass left without spans.

    Returns the snapshot size of the workload's state in bytes, computed
    from the array size and the header layout.
    """
    grid, state, wave, mu, reference = workload.probe_target()
    gradient = action_gradient(state, PHYS, wave)
    seen = {s.name for s in tracer.spans}

    _repeat(tracer, "grid.product_sum", lambda: grid.product_sum(state.u1, np.conj(state.u2)))
    _repeat(tracer, "functionals.evaluate", lambda: evaluate(state, PHYS, wave))
    _repeat(tracer, "functionals.action_gradient", lambda: action_gradient(state, PHYS, wave))
    _repeat(tracer, "functionals.nehari_rescale", lambda: nehari_rescale(state, PHYS, wave))
    _repeat(tracer, "ground_state.precondition", lambda: precondition(gradient, PHYS, wave))
    _repeat(tracer, "evolution.coupling_rhs", lambda: coupling_rhs(state, PHYS))
    if "evolution.step" not in seen:
        _repeat(tracer, "evolution.step", lambda: step(state, PHYS, Orbit1D.evolve.dt))
    if "evolution.record" not in seen:
        rng = np.random.default_rng(0)
        perturbed = State(grid, reference.u + Orbit1D.delta * h1_perturbation(grid, rng).u)
        rows = {k: [] for k in ("Q", "E", "P", "S", "K", "h1", "orbit")}
        for _ in range(3):
            record(tracer, perturbed, wave, reference, rows)
    if "ground_state.solve" not in seen:
        with span(tracer, "ground_state.solve") as s:
            s.units = workload.probe_solve(1).iterations

    with span(tracer, "ground_state.sample") as s:
        s.units = len(sample_below_level(grid, PHYS, wave, mu, np.random.default_rng(0), 3))

    path = workload.workdir / "probe.ldsf"
    _repeat(tracer, "snapshot.save", lambda: save_field(state, path))
    _repeat(tracer, "snapshot.load", lambda: load_field(path))
    config = json.dumps({
        "wave": {"omega": wave.omega, "c": list(wave.c)},
        "grid": {"d": grid.d, "n": list(grid.n), "extent": list(grid.extent), "dealias": grid.dealias},
        "experiment": {"samples": 200},
    })
    _repeat(tracer, "config.parse", lambda: parse_config(config, experiment="check"))
    return 12 + 16 * grid.d + 16 * state.u.size


def _ms(spans) -> float:
    return 1e3 * float(np.median([s.duration for s in spans])) if spans else 0.0


def _mean_calls(spans) -> float:
    return float(np.mean([s.fft_calls for s in spans])) if spans else 0.0


def per_layer_metrics(tracer, counter_pass: dict, pass_wall: float, untraced_wall: float,
                      units: int, snapshot_bytes: int, ref_fft_ms: float) -> dict:
    """Assemble every per-layer metric from the spans and the traced pass."""
    by = {name: tracer.named(name) for name in {s.name for s in tracer.spans}}
    get = lambda name: by.get(name, [])  # noqa: E731

    solves = get("ground_state.solve")
    iterations = sum(s.units for s in solves)
    steps = [s.duration * 1e3 for s in get("evolution.step")]
    samples = get("ground_state.sample")
    accepted = sum(s.units for s in samples)
    covered = sum(s.duration for s in tracer.top_level_within(counter_pass["start"], counter_pass["end"]))

    values = {
        "grid.fft_calls": counter_pass["calls"] / units,
        "grid.fft_points": counter_pass["points"] / units,
        "grid.fft_time_share": counter_pass["seconds"] / pass_wall,
        "grid.product_ms": _ms(get("grid.product_sum")),
        "grid.init_ms": _ms(get("grid.init")),
        "functionals.evaluate_ms": _ms(get("functionals.evaluate")),
        "functionals.evaluate_fft_calls": _mean_calls(get("functionals.evaluate")),
        "functionals.action_gradient_ms": _ms(get("functionals.action_gradient")),
        "functionals.action_gradient_fft_calls": _mean_calls(get("functionals.action_gradient")),
        "functionals.nehari_rescale_ms": _ms(get("functionals.nehari_rescale")),
        "ground_state.iterations": iterations / len(solves),
        "ground_state.iter_ms": 1e3 * sum(s.duration for s in solves) / iterations,
        "ground_state.fft_calls_per_iter": sum(s.fft_calls for s in solves) / iterations,
        "ground_state.precondition_ms": _ms(get("ground_state.precondition")),
        "ground_state.sample_ms": 1e3 * sum(s.duration for s in samples) / max(accepted, 1),
        "evolution.step_ms_p50": float(np.percentile(steps, 50)),
        "evolution.step_ms_p99": float(np.percentile(steps, 99)),
        "evolution.step_fft_calls": _mean_calls(get("evolution.step")),
        "evolution.coupling_rhs_ms": _ms(get("evolution.coupling_rhs")),
        "evolution.record_ms": _ms(get("evolution.record")),
        "evolution.orbit_distance_ms": _ms(get("evolution.orbit_distance")),
        "snapshot.save_ms": _ms(get("snapshot.save")),
        "snapshot.load_ms": _ms(get("snapshot.load")),
        "snapshot.bytes": snapshot_bytes,
        "config.parse_ms": _ms(get("config.parse")),
        "cli.gs_s": _ms(get("cli.gs")) / 1e3,
        "cli.check_s": _ms(get("cli.check")) / 1e3,
        "trace.coverage": covered / pass_wall,
        "trace.overhead_frac": pass_wall / untraced_wall - 1.0,
        "host.ref_fft_ms": ref_fft_ms,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
