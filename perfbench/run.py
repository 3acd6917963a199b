"""The atiyah benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under ``src/``.
The job stream runs in a fresh child interpreter (``worker.py``).  With
``--trace 0`` the result holds the end-to-end metrics that ``BENCHMARK.json``
lists, ``setup_s`` among them: the cold start of a fresh interpreter that
imports ``atiyah`` and answers one small CLI call.  With ``--trace 1`` it
holds the per-layer metrics, from spans recorded around the calls into each
module.  The last line of standard output is the result; notes go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKER_TIMEOUT_S = 150


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "atiyah", "__init__.py")):
        print("no src/atiyah here: run from the root of an atiyah checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    command = [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker ran longer than {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"worker exited with {child.returncode}", file=sys.stderr)
        return child.returncode
    report = json.loads(child.stdout.strip().splitlines()[-1])
    measured = report["metrics"]

    metrics = {}
    for entry in listed:
        name = entry["name"]
        if name not in measured:
            print(f"the worker does not measure {name}", file=sys.stderr)
            return 2
        metrics[name] = {"value": measured[name], "unit": entry["unit"]}

    print(f"{report['jobs']} jobs; untraced passes took {report['measured_walls']} s as measured, "
          f"scaled by {report['scales']} to reference speed; "
          f"{report['failed']} of {report['attempted']} jobs failed", file=sys.stderr)
    for line in report["failures"] + report.get("unsteady", []):
        print(f"  {line}", file=sys.stderr)
    if args.trace:
        for target in report["missing"]:
            print(f"absent boundary: {target}", file=sys.stderr)
        layers = {k: v for k, v in measured.items() if k.endswith(".self_s")}
        total = sum(layers.values()) or 1.0
        print("self-time share: " + ", ".join(
            f"{k.removesuffix('.self_s')} {v / total:.1%}"
            for k, v in sorted(layers.items(), key=lambda kv: -kv[1])), file=sys.stderr)
    else:
        print(f"job_p90_ms over {report['samples']} latencies "
              f"({len(report['measured_walls'])} passes)", file=sys.stderr)

    print(json.dumps({
        "correct": report["failed"] == 0 and not report.get("unsteady"),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
