"""dnls3 benchmark: one workload per process, seeded, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orbit-1d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it are a readable report. ``--workload all`` runs each
workload in its own child process, relays each report and ends with one
combined result line.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: one BLAS/OpenMP thread, so the figures
# do not depend on how many cores the host lends the process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("orbit-1d", "verify-1d")
#: Set-ups per run; setup_s reports their median plus the median import time.
SETUP_REPEATS = 3
#: Seconds a child of ``--workload all`` may take before it is stopped.
CHILD_TIMEOUT = 900

END_TO_END = {
    "setup_s": "s",
    "op_norm_s": "s",
    "peak_rss_mb": "MB",
}
#: Gauge time op_norm_s scales the operations to: about what the gauge takes
#: on the 2-core Intel Xeon host the benchmark was written on.
REF_NOMINAL_MS = 5.0
#: Fresh interpreters timed for the import part of setup_s.
IMPORT_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def gauge_ms() -> float:
    """Host-speed gauge: median time of 15 fixed numpy batches.

    A batch makes 100 forward and inverse transforms of a fixed 2 x 512
    array, each with a pointwise product and a sum, as the workloads do on
    their states. The gauge runs no library code, so a faster library
    leaves it as it is, while a slower host slows it.
    """
    a = np.random.default_rng(0).standard_normal((2, 512)) + 0j
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(100):
            b = np.fft.ifftn(np.fft.fftn(a, axes=(1,)), axes=(1,))
            float(np.sum(np.abs(a * b) ** 2))
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def scale(times, gauges):
    """Each time times REF_NOMINAL_MS over the mean of the gauges before and after it."""
    return [t * REF_NOMINAL_MS / ((a + b) / 2) for t, a, b in zip(times, gauges, gauges[1:])]


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    p = int(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Loop:
    """Closed loop with one client: times each operation, counts failures by name."""

    def __init__(self):
        self.failures = Counter()
        self.latencies: list[float] = []

    def attempt(self, fn) -> int:
        """Run one operation; return its work units, or 0 when it failed."""
        import gates

        t0 = time.perf_counter()
        try:
            units = fn()
        except Exception as exc:  # every failure is counted, none stops the run
            self.failures[gates.failure_name(exc)] += 1
            traceback.print_exc(file=sys.stderr)
            units = 0
        self.latencies.append(time.perf_counter() - t0)
        return units


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the library and the benchmark."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).resolve().parent)!r}]\n"
        "import layers\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=CHILD_TIMEOUT)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Run one workload in this process and return its report."""
    import layers
    from spans import FftCounter, Tracer
    from workloads import WORKLOADS

    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
    try:
        wl = WORKLOADS[name](workdir)
        ref_before = gauge_ms()
        tracer = Tracer() if trace else None
        counter = FftCounter(tracer) if trace else None

        # set-ups between host gauges; each set-up's time is scaled like an
        # operation's, since the profile solve drifts with the host as they do
        setup_times, gauges = [], [ref_before]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            if trace:
                with counter:
                    wl.setup(seed, tracer)
            else:
                wl.setup(seed)
            setup_times.append(time.perf_counter() - t0)
            gauges.append(gauge_ms())

        loop = Loop()
        attempt = loop.attempt
        attempt(lambda: wl.op(0))  # warm-up, outside every timed region
        warm_up = loop.latencies.pop()

        report = {
            "workload": name, "seed": seed, "trace": int(trace), "unit": wl.unit,
            "setup_s": import_s + statistics.median(scale(setup_times, gauges)),
            "import_s": import_s,
        }
        if not trace:
            # Operations, each followed by the host gauge, while the next one
            # would end nearer to the measuring time, at the pace so far, than
            # the last one did. Each operation's time is scaled by the mean of
            # the gauges around it: the host's speed drifts by tens of percent
            # between and within runs, and the gauge, which does not run the
            # library, drifts with it.
            t0 = time.perf_counter()
            gauges = [gauge_ms()]
            units, i = 0, 1
            while i == 1 or (time.perf_counter() - t0) * (i - 0.5) / (i - 1) <= seconds:
                units += attempt(lambda i=i: wl.op(i))
                gauges.append(gauge_ms())
                i += 1
            lat = list(loop.latencies)
            report.update(wall_s=sum(lat), units=units, latencies=lat, gauge_ms=statistics.median(gauges),
                          op_norm_s=statistics.median(scale(lat, gauges)))
        else:
            # a fixed number of operations, so that the counts repeat exactly
            n_pass = max(1, round(seconds / wl.nominal_op_s / 2))
            t0 = time.perf_counter()
            for i in range(1, n_pass + 1):
                attempt(lambda i=i: wl.op(i))
            untraced_wall = time.perf_counter() - t0
            with counter:
                before = (counter.calls, counter.points, counter.seconds)
                start = time.perf_counter()
                units = sum(attempt(lambda i=i: wl.traced_op(i, tracer)) for i in range(1, n_pass + 1))
                end = time.perf_counter()
                counted = {
                    "calls": counter.calls - before[0],
                    "points": counter.points - before[1],
                    "seconds": counter.seconds - before[2],
                    "start": start,
                    "end": end,
                }
                snapshot_bytes = layers.run_probes(wl, tracer)
            report.update(wall_s=end - start, units=units, latencies=loop.latencies[n_pass:])
        ref_after = gauge_ms()
        report.update(
            attempted=1 + len(loop.latencies),
            failures=dict(loop.failures),
            warm_up_s=warm_up,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ref_fft_ms=(ref_before, ref_after),
        )
        if trace:
            report["per_layer"] = layers.per_layer_metrics(
                tracer, counted, end - start, untraced_wall, max(units, 1), snapshot_bytes,
                (ref_before + ref_after) / 2.0,
            )
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still uses it


def result_line(report: dict) -> dict:
    failed = sum(report["failures"].values())
    if report["trace"]:
        metrics = report["per_layer"]
    else:
        values = {
            "setup_s": report["setup_s"],
            "op_norm_s": report["op_norm_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": report["attempted"], "failed": failed, "metrics": metrics}


def summary_lines(report: dict, env: str) -> list[str]:
    """Readable report: every end-to-end metric with its unit and sample count."""
    name, lat = report["workload"], report["latencies"]
    failed = sum(report["failures"].values())
    names = ", ".join(f"{k} x{v}" for k, v in sorted(report["failures"].items())) or "none"
    lines = [
        f"# {env}",
        f"# workload {name} seed {report['seed']} trace {report['trace']}: "
        f"{len(lat)} timed operations after 1 warm-up of {report['warm_up_s']:.3f} s",
        f"setup_s      {report['setup_s']:.4f} s   (median of {IMPORT_REPEATS} imports {report['import_s']:.3f} s + median of {SETUP_REPEATS} set-ups, "
        f"each scaled by {REF_NOMINAL_MS} ms / the mean gauge around it)",
        f"op_s         {statistics.median(lat):.4f} s   median, n={len(lat)} operations",
        *([f"op_norm_s    {report['op_norm_s']:.4f} s   median of each operation x {REF_NOMINAL_MS} ms / the mean "
           f"gauge around it (median gauge {report['gauge_ms']:.3f} ms), n={len(lat)} operations"]
          if "op_norm_s" in report else []),
        f"wall_s       {report['wall_s']:.4f} s   ({report['units']} {report['unit']}"
        f"{' in the traced pass' if report['trace'] else ''})",
        f"peak_rss_mb  {report['peak_rss_mb']:.1f} MB",
        f"failed_ratio {failed}/{report['attempted']} = {failed / report['attempted']:.4f}   failures: {names}",
    ]
    if name == "orbit-1d":
        lines.append(f"steps_per_s  {report['units'] / report['wall_s']:.2f} 1/s   records included, n={report['units']} steps")
    else:
        tail = tail_percentile(lat)
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it"
        lines.append(f"verify_s     {statistics.median(lat):.4f} s   median, {tail_text}, n={len(lat)} pipelines")
    before, after = report["ref_fft_ms"]
    lines.append(f"host.ref_fft_ms before {before:.3f} after {after:.3f}")
    if report["trace"]:
        for key, m in report["per_layer"].items():
            lines.append(f"{key:40s} {m['value']:.6g} {m['unit']}")
    return lines


def environment() -> str:
    return (f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__} "
            f"nproc {os.cpu_count()} cpu {cpu_model()!r} threads 1")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    # a terminated run still removes its work directory and reaps its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse_args(argv)
    if not (SRC / "dnls3" / "__init__.py").is_file():
        print(f"error: no dnls3 sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import dnls3

    if Path(dnls3.__file__).resolve().parent != SRC / "dnls3":
        print(f"error: dnls3 imported from {dnls3.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_seconds())
    for line in summary_lines(report, environment()):
        print(line)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
