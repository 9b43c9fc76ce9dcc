"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench`` (about
a minute on two cores). They are outside the library's own test path
on purpose: their job is to keep the benchmark honest, not to gate the
library.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import run  # noqa: E402
import scipy.fft  # noqa: E402
from spans import FftCounter, Tracer  # noqa: E402
from workloads import PHYS, WORKLOADS  # noqa: E402

from dnls3.grid import Grid, State  # noqa: E402
from dnls3.ground_state import SolverConfig, solve_ground_state  # noqa: E402
from dnls3.params import WaveParams  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "bytes")]


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """Last-line result of one shortest run (``repeat`` forces a fresh run)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted(workload, trace):
    result = bench(workload, 11, trace)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["orbit-1d", "verify-1d"])
def test_traced_counts_repeat_at_one_seed(workload):
    first = bench(workload, 11, 1)["metrics"]
    second = bench(workload, 11, 1, repeat=1)["metrics"]
    for name in COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["grid.fft_calls"]["value"] > 0 and first["ground_state.iterations"]["value"] > 0


def test_orbit_trace_is_covered_by_layer_spans():
    assert bench("orbit-1d", 11, 1)["metrics"]["trace.coverage"]["value"] >= 0.9


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seed_fixes_the_generated_inputs(workload, tmp_path):
    def inputs(seed):
        wl = WORKLOADS[workload](tmp_path)
        wl.setup(seed)
        return [repr(wl.draw(i)) for i in range(4)]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


@pytest.fixture(scope="module")
def ground_state_1d():
    return solve_ground_state(Grid(256, 40.0), PHYS, WaveParams(1.0, (0.0,)), SolverConfig(restarts=1))


def test_off_constraint_state_counts_as_failed(ground_state_1d):
    res = ground_state_1d
    gates.check_ground_state(res.phi, PHYS, res.wave, res.mu)
    off = State(res.phi.grid, 1.05 * res.phi.u)
    loop = run.Loop()
    assert loop.attempt(lambda: gates.check_ground_state(off, PHYS, res.wave, res.mu)) == 0
    assert loop.failures == Counter({"GateFailed:nehari_K": 1})
    assert len(loop.latencies) == 1


def test_fft_counter_charges_both_libraries_to_the_innermost_span():
    tracer = Tracer()
    a = np.ones((3, 64), dtype=complex)
    original = np.fft.fftn
    with FftCounter(tracer) as counter:
        with tracer.span("outer") as outer:
            np.fft.fftn(a, axes=(-1,))
            with tracer.span("inner") as inner:
                scipy.fft.ifftn(a, axes=(-1,))
                np.fft.fft(a)
    assert np.fft.fftn is original
    assert counter.calls == 3 and counter.points == 3 * a.size
    assert (outer.self_calls, outer.fft_calls, inner.fft_calls) == (1, 3, 2)
    assert inner.fft_bytes == 4 * a.nbytes


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
