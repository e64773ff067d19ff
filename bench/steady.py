"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1] [--seconds 25]

Runs bench/run.py once per (workload, seed), with tracing off, and prints
per workload and metric the median, the quartiles and the spread, which
is (q3 - q1) / median as statistics.quantiles(values, n=4) gives them,
together with the share of failed operations.  The bounds in
BENCHMARK.json are set from this output.  Raw values go to
bench/out/steady-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)

    raw = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ) + f" attempted={result['attempted']} failed={result['failed']} correct={result['correct']}", flush=True)
        raw[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed share {sorted(shares)}; all correct {all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"  {metric}: median {median:.4g} q1 {q1:.4g} q3 {q3:.4g} spread {(q3 - q1) / median:.3f}")
    out = BENCH / "out" / f"steady-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
