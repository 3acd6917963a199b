"""Run one workload's job list in this process and report its measurements.

Started by ``run.py`` as a fresh child interpreter, so that the peak RSS it
reports is the workload's own.  The job list is run in passes, one closed
loop with one client: each job starts when the previous one returns, and
its output is checked between jobs, outside the timed call.  Passes repeat
until the time budget is spent.

Job times are reported in reference-speed seconds.  On a shared machine
other tenants change the speed of this process: on two shared Xeon vCPUs a
fixed pure-Python loop ran from 64 to 160 times per half second within one
minute, and the median pass time of one job list moved by a third between
runs minutes apart.  So a fixed reference kernel is timed between jobs
(outside the timed calls, at most every PROBE_EVERY_S), and every time
measured in a pass is scaled by REFERENCE_S over the median kernel time of
that pass.  A change to ``atiyah`` leaves the kernel alone, so it still
moves the scaled times in full.  ``wall_s`` sums each job's median scaled
time over the passes; the latency percentiles are taken over every scaled
time of every pass.

``setup_s`` is the median of the cold starts made after each untraced
pass, each scaled the same way by kernel times taken just before and after
it.

Untraced (``--trace 0``) it prints the end-to-end measurements; traced it
alternates untraced and traced passes and prints the per-layer metrics.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import tracing
import workloads

MIN_PASSES = 3  # untraced passes; a traced run makes at least two traced ones
COLD_STARTS_PER_PASS = 2
SETUP_CALL = ("classify", "--rank", "2", "--torsion", "4")
SPANS_DIR = ".perfbench-spans"
PROBE_EVERY_S = 0.05
REFERENCE_S = 0.0005  # the kernel's time at the reference speed


def _kernel() -> int:
    """Dict updates and integer products, like the calculator's inner loops."""
    acc: dict[int, int] = {}
    for i in range(4000):
        key = i % 397
        acc[key] = acc.get(key, 0) + i * i
    return len(acc)


def probe() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def cold_start(src: str) -> float:
    """Reference-speed wall time of ``python -m atiyah.cli classify ...`` in a
    fresh interpreter, scaled by the kernel times around it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probes = [probe() for _ in range(3)]
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "atiyah.cli", *SETUP_CALL], env=env,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)
    elapsed = time.perf_counter() - start
    probes += [probe() for _ in range(3)]
    return elapsed * REFERENCE_S / statistics.median(probes)


def _run_job(job):
    """(seconds, exit status, output) of a CLI job, (seconds, None, result) of
    a library job; only the call is timed."""
    import atiyah
    import atiyah.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if job.argv:
                result = atiyah.cli.main(list(job.argv))
            else:
                torsion, a, r, b, s = job.pair
                ctx = atiyah.TorsionContext(torsion)
                result = atiyah.oracle_check(ctx, ctx.bundle(a, r), ctx.bundle(b, s))
        except Exception as exc:  # a traceback is a failed job, not a crashed run
            result = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if not job.argv:
        return elapsed, None, result
    if result != 0:
        result = f"{result} ({err.getvalue().strip()})"
    return elapsed, result, out.getvalue()


@dataclass
class Pass:
    """Measured latencies, kernel times, failures and output bytes of one pass."""

    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0

    @property
    def scale(self) -> float:
        """Factor from measured to reference-speed seconds in this pass."""
        return REFERENCE_S / statistics.median(self.probes)


def run_pass(jobs, checker, tracer=None) -> Pass:
    result = Pass(probes=[probe()])
    last_probe = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        elapsed, status, output = _run_job(job)
        if tracer is not None:
            tracer.job = None
        result.latencies.append(elapsed)
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            result.probes.append(probe())
            last_probe = time.perf_counter()
        problem = checker.check(job, status, output)
        if problem:
            result.failures.append(f"{' '.join(job.argv) or job.pair}: {problem}")
        if job.argv:
            result.output_bytes += len(output.encode())
    return result


def scaled(passes: list[Pass]) -> list[list[float]]:
    """The reference-speed latencies of each pass."""
    return [[x * p.scale for x in p.latencies] for p in passes]


def wall(passes: list[Pass]) -> float:
    """The sum over jobs of each job's median reference-speed latency."""
    return sum(statistics.median(times) for times in zip(*scaled(passes)))


def _passes(jobs, checker, seconds, tracer, src):
    """Run passes until the next one would overrun ``seconds``.

    Untraced: at least MIN_PASSES passes, each followed by cold starts.
    Traced: untraced and traced passes alternate, at least two of each.
    Returns the untraced passes, the traced ones, the per-layer metrics of
    each traced pass and the cold-start times.
    """
    deadline = time.perf_counter() + seconds
    plain, traced, layer_metrics, setup = [], [], [], []
    while True:
        started = time.perf_counter()
        plain.append(run_pass(jobs, checker))
        if tracer is None:
            setup += [cold_start(src) for _ in range(COLD_STARTS_PER_PASS)]
        else:
            checker.validate_s, checker.validated = 0.0, 0
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(jobs, checker, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.pass_metrics()
            metrics["schema.validate_s"] = checker.validate_s
            metrics = {k: v * p.scale if k.endswith("_s") and v is not None else v
                       for k, v in metrics.items()}
            metrics["cli.output_bytes"] = p.output_bytes
            metrics["schema.validated"] = checker.validated
            traced.append(p)
            layer_metrics.append(metrics)
        took = time.perf_counter() - started
        enough = len(traced) >= 2 if tracer else len(plain) >= MIN_PASSES
        if enough and time.perf_counter() + took > deadline:
            return plain, traced, layer_metrics, setup


def _combine(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """The median over traced passes for times; counts must agree on every pass."""
    merged, unsteady = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if values[0] is None:
            merged[name] = None
        elif name.endswith("_s"):
            merged[name] = statistics.median(values)
        else:
            merged[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(f"{name} differs between passes: {values}")
    return merged, unsteady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import atiyah
    import atiyah.cli
    import atiyah.schema

    if not os.path.abspath(atiyah.__file__).startswith(src + os.sep):
        print(f"atiyah imported from {atiyah.__file__}, not from {src}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed)
    checker = checks.Checker(atiyah.schema.REPORT_SCHEMA)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layer_metrics, setup = _passes(jobs, checker, args.seconds, tracer, src)
    every = plain + traced
    failures = [f for p in every for f in p.failures]
    result = {
        "attempted": len(jobs) * len(every),
        "failed": len(failures),
        "jobs": len(jobs),
        "measured_walls": [round(sum(p.latencies), 3) for p in plain],
        "scales": [round(p.scale, 3) for p in plain],
        "failures": failures[:5],
    }
    if tracer:
        metrics, unsteady = _combine(layer_metrics)
        metrics["trace.overhead_s"] = wall(traced) - wall(plain)
        result.update(metrics=metrics, unsteady=unsteady, missing=tracer.missing)
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(SPANS_DIR, f"{args.workload}-{args.seed}.jsonl"))
    else:
        latencies_ms = [x * 1000 for times in scaled(plain) for x in times]
        result["samples"] = len(latencies_ms)
        result["metrics"] = {
            "wall_s": wall(plain),
            "job_p50_ms": statistics.median(latencies_ms),
            "job_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
