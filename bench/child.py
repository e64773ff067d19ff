"""One round of a workload in a fresh interpreter.

    python3 bench/child.py ROUND_DIR [--trace] [--setup-only]

Reads ROUND_DIR/jobs.json (written by run.py), imports motivic_zeta,
parses the inputs into library objects, runs every job once, then checks
every output against reference.py and writes ROUND_DIR/result.json (and,
with --trace, ROUND_DIR/spans.jsonl).  The set-up end is reported as a
time.monotonic() reading, which on Linux is comparable across processes,
so run.py can time set-up from before this interpreter started.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv):
    round_dir = Path(argv[0])
    traced = "--trace" in argv
    spec = json.loads((round_dir / "jobs.json").read_text())

    import motivic_zeta as mz
    import motivic_zeta.cli  # noqa: F401  (the CLI jobs call mz.cli.main)

    import jobs as ops

    prepared = [ops.prepare(mz, job, round_dir) for job in spec["jobs"]]
    setup_end = time.monotonic()
    if "--setup-only" in argv:
        (round_dir / "result.json").write_text(json.dumps({"setup_end": setup_end}))
        return

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    outputs, errors, job_s = [], [], []
    start = time.perf_counter()
    for job, prep in zip(spec["jobs"], prepared):
        t = time.perf_counter()
        try:
            if tracer:
                out = tracer.job_span(job["id"], lambda: ops.run(mz, job, prep))
            else:
                out = ops.run(mz, job, prep)
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        job_s.append(time.perf_counter() - t)
        outputs.append(out)
        errors.append(err)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        tracer.uninstall()
        with open(round_dir / "spans.jsonl", "w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")

    results = []
    for job, out, err, seconds in zip(spec["jobs"], outputs, errors, job_s):
        if err is None:
            try:
                problems = ops.verify(job, out)
            except Exception:  # a malformed output is a wrong output
                problems = [f"check raised: {traceback.format_exc(limit=1)}"]
        else:
            problems = [err]
        results.append({"id": job["id"], "fault": job["fault"], "problems": problems, "seconds": seconds})

    (round_dir / "result.json").write_text(
        json.dumps(
            {
                "setup_end": setup_end,
                "wall_s": wall,
                "peak_rss_mb": peak_kb / 1024.0,
                "jobs": results,
                "layers": tracer.metrics() if tracer else None,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1:])
