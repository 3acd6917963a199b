"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]

Prints, for every metric, the median of the runs and the distance between
their first and third quartiles as a share of the median (the spread the
end-to-end bounds in ``BENCHMARK.json`` must exceed), then one JSON line with
all values.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = args.seconds or json.load(fh)["run_seconds"]

    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, run, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        if len(vals) < 2 or any(v is None for v in vals):
            print(f"{name:24s} values {vals}")
            continue
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:24s} median {median:12.6g}  spread {spread:7.2%}  "
              f"values {' '.join(f'{v:.4g}' for v in vals)}")
    print(f"failed jobs or incorrect runs: {failed}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                      "metrics": summary, "values": values}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
