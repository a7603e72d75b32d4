"""rookalg benchmark: one workload, one seed, printed metrics and a JSON last line.

    python3 bench/run.py --workload build4|certify3 --seed N --seconds S --trace 0|1

Every job runs in a fresh interpreter (bench/worker.py), so the package's
module-level caches start empty, as they do for a user of the CLI.

--trace 0 measures the end-to-end metrics: it starts set-up probes (fresh
interpreters that import rookalg and make the inputs, then exit), then runs
cold jobs one after another until the next would end past --seconds (at
least one), and reports medians.  --trace 1 runs one job under the tracer
and reports the per-layer metrics.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; a full record with the run
context is written to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("build4", "certify3")
SETUP_PROBES = 5
DEADLINE_S = 170.0     # a run must end within 180 s; leave room for the report
REFERENCE_LOOP = 3_000_000


class BenchError(Exception):
    pass


def spawn(workload: str, deadline: float, *flags: str) -> dict:
    """Run the worker once; adds `setup_s`, measured from just before the start."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, *flags]
    # fixed string hashing, so no set iteration order can vary between runs
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(flags)} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready_at"] - started
    return out


def reference_loop_s() -> float:
    """A fixed pure-Python loop; recorded to explain noise, never used to rescale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_context(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
        "reference_loop_s": reference_loop_s(),
    }


def end_to_end(workload: str, seconds: int, deadline: float) -> tuple[dict, dict, list]:
    spawn(workload, deadline, "--setup-only")  # fills the bytecode cache; not counted
    setups = [spawn(workload, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    jobs = []
    t0 = time.monotonic()
    while True:
        job = spawn(workload, deadline)
        jobs.append(job)
        now = time.monotonic()
        if now - t0 + job["job_s"] > seconds or now + 1.5 * job["job_s"] > deadline:
            break
    setups += [j["setup_s"] for j in jobs]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (statistics.median(j["job_s"] for j in jobs), "s"),
        "peak_rss_mb": (statistics.median(j["rss_mb"] for j in jobs), "MB"),
    }
    samples = {"setup_s": len(setups), "job_s": len(jobs), "peak_rss_mb": len(jobs)}
    return metrics, samples, jobs


UNITS = {"_s": "s", "_per_s": "1/s", "_ratio": "ratio", "_bytes": "bytes"}


def per_layer(workload: str, deadline: float) -> tuple[dict, dict, list]:
    job = spawn(workload, deadline, "--trace")
    metrics = {}
    for name, value in job["metrics"].items():
        unit = "count"
        for suffix, u in UNITS.items():
            if name.endswith(suffix):
                unit = u
        metrics[name] = (value, unit)
    metrics["trace.job_s"] = (job["job_s"], "s")
    samples = {name: 1 for name in metrics}
    return metrics, samples, [job]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.monotonic()
    if not (ROOT / "src" / "rookalg" / "__init__.py").is_file():
        print(f"bench: no rookalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    context = run_context(args.seed)
    deadline = start + DEADLINE_S
    try:
        if args.trace:
            metrics, samples, jobs = per_layer(args.workload, deadline)
        else:
            metrics, samples, jobs = end_to_end(args.workload, args.seconds, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    notes = [n for j in jobs for n in j["notes"]]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("context " + json.dumps(context))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}  (samples {samples[name]})")
    print(f"fail_frac {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    for note in notes[:10]:
        print(f"FAILED {note}")
    if args.trace:
        _print_overhead(args.workload, metrics["trace.job_s"][0])

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "context": context,
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "jobs": [{"job_s": j["job_s"], "setup_s": j["setup_s"], "rss_mb": j["rss_mb"]} for j in jobs],
    }
    out = OUT_DIR / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _print_overhead(workload: str, traced_job_s: float) -> None:
    """Traced job_s minus the median untraced job_s of earlier runs in this checkout."""
    untraced = []
    for path in OUT_DIR.glob(f"result-{workload}-trace0-seed*.json"):
        untraced.append(json.loads(path.read_text(encoding="utf-8"))["metrics"]["job_s"]["value"])
    if untraced:
        base = statistics.median(untraced)
        print(
            f"tracing overhead {traced_job_s - base:.4g} s ({(traced_job_s - base) / base:+.1%})"
            f" against the median job_s of {len(untraced)} untraced runs"
        )
    else:
        print("tracing overhead unknown: no untraced run of this workload in this checkout yet")


if __name__ == "__main__":
    raise SystemExit(main())
