"""qdpair benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every timed repetition is a fresh child
process (``bench/child.py``) that imports qdpair from ``src/`` and runs
one workload body, cold, as a command-line user sees it.  One untimed
warm-up child runs first; after it, children run one at a time.  The
benchmark sets no BLAS or OpenMP thread variables: children inherit the
environment as it is.

With ``--trace 0`` the last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``).  With ``--trace 1`` children
alternate untraced and traced, and the metrics are the per-layer ones
plus ``trace.overhead_s``.  Outputs of every child are checked against
references computed apart from the program (``checks.py``).
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
ROOT = BENCH.parent
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

# Timed repetitions per run at least, whatever --seconds says.
MIN_REPS = 3
# Traced children per traced run at least, so that exact counts are
# compared between two of them.
MIN_TRACED = 2
CHILD_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def run_child(job: dict, work: Path, trace_path=None) -> dict:
    job = dict(job, trace=str(trace_path) if trace_path else None)
    if job.get("out"):
        shutil.rmtree(job["out"], ignore_errors=True)
    job_path = work / f"job-{job['kind']}.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"),
                           str(job_path)], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Run:
    """Children of one benchmark run, their checks and their failures."""

    def __init__(self, name: str, seed: int, toy: bool):
        self.name = name
        make_jobs, self.check = workloads.WORKLOADS[name]
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.warm, self.body = make_jobs(seed, self.work, toy)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def checked(self, job, trace_path=None):
        """Run one child and check its outputs; None when it failed."""
        try:
            res = run_child(job, self.work, trace_path)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"{self.name}: {exc}", file=sys.stderr)
            return None
        for msg in self.check(job, res["outputs"]):
            self.problems.append(msg)
            print(f"{self.name}: check failed: {msg}", file=sys.stderr)
        return res

    def timed(self, trace_path=None):
        self.attempted += 1
        res = self.checked(self.body, trace_path)
        if res is None:
            self.failed += 1
        else:
            print(f"{self.name}: wall {res['wall_s']:.4f} s, set-up "
                  f"{res['setup_s']:.4f} s, peak RSS {res['maxrss_kb']} kB",
                  file=sys.stderr)
        return res

    def warm_up(self):
        if self.checked(self.warm) is None:
            raise SystemExit(f"{self.name}: warm-up child failed")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(run: Run, seconds: float, min_reps: int) -> dict:
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        res = run.timed()
        if res is not None:
            results.append(res)
        took = time.perf_counter() - t
        if run.attempted >= min_reps and \
                time.perf_counter() - start + took > seconds:
            break
    if not results:
        raise SystemExit(f"{run.name}: every timed child failed")
    return {
        "wall_s": _metric(statistics.median(r["wall_s"] for r in results), "s"),
        "setup_s": _metric(statistics.median(r["setup_s"] for r in results),
                           "s"),
        "peak_rss_mb": _metric(max(r["maxrss_kb"] for r in results) / 1024.0,
                               "MiB"),
    }


def measure_traced(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced children; per-layer metrics come from
    the traced ones, counts must repeat exactly between them."""
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        a = run.timed()
        b = run.timed(trace_dir / f"{run.name}-{len(traced)}.jsonl")
        if a is not None:
            plain.append(a["wall_s"])
        if b is not None:
            traced.append(b)
        took = time.perf_counter() - t
        if len(traced) >= MIN_TRACED and plain and \
                time.perf_counter() - start + took > seconds:
            break
        if run.attempted >= 4 * MIN_TRACED and len(traced) < MIN_TRACED:
            raise SystemExit(f"{run.name}: traced children keep failing")
    layers = traced[0]["trace"]
    metrics = {}
    for key, value in layers.items():
        if key.endswith(".s"):
            value = statistics.median(r["trace"][key] for r in traced)
        elif any(r["trace"][key] != value for r in traced):
            run.problems.append(f"count {key} differs between traced runs")
        metrics[key] = _metric(value, tracing.unit(key))
    overhead = statistics.median(r["wall_s"] for r in traced) \
        - statistics.median(plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="smoke run: toy inputs, one timed repetition")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qdpair" / "__init__.py").is_file():
        print(f"no qdpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    inherited = {v: os.environ[v] for v in THREAD_VARS if v in os.environ}
    print(f"inherited thread variables: {inherited or 'none'}",
          file=sys.stderr)

    run = Run(args.workload, args.seed, args.toy)
    run.warm_up()
    if args.trace:
        metrics = measure_traced(run, args.seconds)
    else:
        metrics = measure(run, args.seconds, 1 if args.toy else MIN_REPS)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
