"""Run the benchmark over several seeds and report each metric's median
and quartile spread (interquartile range over median).

    python3 perfbench/spread.py --workload cli-session --seeds 1 2 3 4 5

Runs are sequential; each run's last stdout line is parsed as the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {res['correct']} attempted "
              f"{res['attempted']} failed {res['failed']}  " + "  ".join(
                  f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
              flush=True)
        for key, m in res["metrics"].items():
            values.setdefault(key, []).append(m["value"])
    for key, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = 0.0
        print(f"{key:32s} median {med:12.5g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
