"""Benchmark of motivic_zeta: seeded workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of exact-algebra,
counts-small-q, counts-large-q, twisted-lfun, or "all".  The job list is
made from the seed; each round runs the whole list once in a fresh
interpreter (child.py), so every cache of the library starts empty, as it
does for a CLI user.  Rounds run back to back until S seconds have passed.

--trace 0 reports the end-to-end metrics: wall_s (median round time),
setup_s (median time from interpreter start to parsed inputs, over at
least five starts) and peak_rss_mb (median peak resident memory of a
round).  --trace 1 alternates plain and traced rounds and reports the
per-layer metrics of tracing.py, plus trace.overhead_s.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracing import COUNT_UNITS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

OUT = BENCH / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def child_env(root):
    """The fixed environment of every child interpreter."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "LC_ALL": "C.UTF-8",
    }


def spawn(root, workdir, *flags):
    """Run child.py once; returns its result and the set-up time."""
    result_path = workdir / "result.json"
    if result_path.exists():
        result_path.unlink()
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(workdir), *flags],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"child {' '.join(flags)} failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    return result, result["setup_end"] - started


def write_jobs(workdir, jobs):
    for slot, job in enumerate(jobs):
        if job["op"] == "cli":
            job["slot"] = slot
            if job["input"] is not None:
                (workdir / f"{slot}.in.json").write_text(json.dumps(job["input"]))
    (workdir / "jobs.json").write_text(json.dumps({"jobs": jobs}))


def run_workload(root, workload, seed, seconds, traced):
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-s{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    try:
        return _run_workload(root, workdir, workload, seed, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(root, workdir, workload, seed, seconds, traced):
    jobs = make_jobs(workload, seed)
    write_jobs(workdir, jobs)
    spawn(root, workdir, "--setup-only")  # compiles bytecode; not measured

    plain, tracing, setups = [], [], []
    spans_kept = False
    start = time.monotonic()
    while True:
        for flags in ([], ["--trace"]) if traced else ([],):
            result, setup = spawn(root, workdir, *flags)
            setups.append(setup)
            (tracing if flags else plain).append(result)
            if flags and not spans_kept:
                shutil.move(str(workdir / "spans.jsonl"), OUT / f"trace-{workload}-seed{seed}.jsonl")
                spans_kept = True
        if time.monotonic() - start >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(root, workdir, "--setup-only")[1])

    rounds = plain + tracing
    attempted = sum(len(r["jobs"]) for r in rounds)
    failed = sum(1 for r in rounds for j in r["jobs"] if j["problems"])
    unexpected = sorted({f"{j['id']}: {j['problems'][0]}" for r in rounds for j in r["jobs"] if j["problems"] and not j["fault"]})

    walls = [r["wall_s"] for r in plain]
    if traced:
        metrics = layer_metrics(tracing, walls)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "env": child_env(Path("<checkout>")),
        "python": sys.version.split()[0],
        "rounds": [{"wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"], "traced": r in tracing} for r in rounds],
        "setup_s": setups,
        "jobs": [
            {"id": j["id"], "seconds": [r["jobs"][i]["seconds"] for r in rounds], "fault": j["fault"], "problems": j["problems"]}
            for i, j in enumerate(rounds[0]["jobs"])
        ],
        "unexpected_problems": unexpected,
        "metrics": metrics,
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(detail, indent=1))
    return {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}, unexpected


def layer_metrics(tracing, walls):
    per_round = [r["layers"] for r in tracing]
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(r["wall_s"] for r in tracing) - statistics.median(walls)
        elif units[name] in COUNT_UNITS:
            value = per_round[0][name]
            if any(r[name] != value for r in per_round):
                print(f"warning: {name} differs between traced rounds", file=sys.stderr)
        else:
            value = statistics.median(r[name] for r in per_round)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "motivic_zeta" / "__init__.py").is_file():
        print("run from the root of a motivic-zeta checkout: src/motivic_zeta is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            summary, unexpected = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        for problem in unexpected:
            print(f"{name}: WRONG {problem}", file=sys.stderr)
        print(f"{name}: attempted {summary['attempted']} failed {summary['failed']} correct {summary['correct']}")
        for metric, m in summary["metrics"].items():
            print(f"{name}/{metric} {m['value']:.6g} {m['unit']}")
        prefix = f"{name}/" if len(names) > 1 else ""
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["metrics"].update({prefix + k: v for k, v in summary["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
