"""One cold job of one workload, in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --workload certify3 [--trace] [--setup-only] [--scale tiny]

The package is imported from the checkout's `src/`, never from an
installed copy.  `ready_at` is the CLOCK_MONOTONIC time at which the
imports and the workload's inputs are ready; the parent subtracts the time
it started this process to get set-up time.  With --trace the job runs
under the tracer and the per-layer metrics are included.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _import_rookalg():
    if not (SRC / "rookalg" / "__init__.py").is_file():
        sys.exit(f"worker: no rookalg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rookalg

    if SRC not in Path(rookalg.__file__).resolve().parents:
        sys.exit(f"worker: imported rookalg from {rookalg.__file__}, not from {SRC}")
    return rookalg


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--scale", default="full")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _import_rookalg()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    job = workloads.WORKLOADS[args.workload](workloads.SCALES[args.scale], OUT_DIR)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    job.run()
    job_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = tracer.metrics() if tracer is not None else None
    attempted, failed, notes = job.check()
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}.json")
    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "job_s": job_s,
                "rss_mb": rss_mb,
                "attempted": attempted,
                "failed": failed,
                "notes": notes,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
