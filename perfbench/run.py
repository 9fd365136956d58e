#!/usr/bin/env python3
"""gstower benchmark: one workload per call, in its own process.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 35 --trace 0

Runs the workload in a fresh single-threaded Python process with numpy's
BLAS pinned to one thread, checks every result, and prints each metric
with its unit and sample count, then a run record, then (last line) the
result object {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, in seconds at a reference speed (see
speed.py; the raw ones are in the run record); --trace 1 makes a
separate traced run and reports the per-layer metrics, including the
tracing overhead.  Set-up time is the median over SETUP_PROBES extra
set-up-only processes and the measuring process itself.  Each run is
also appended to
.perfbench/runs.jsonl; traced runs write their spans there too.

Exits non-zero without a result line when the worker fails, for example
when the library sources under src/ are missing.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("decide", "sweep", "grouplab")
SETUP_PROBES = 4
#: the whole run, probes included, must end well inside three minutes
RUN_LIMIT_S = 170.0

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, extra: list[str], timeout: float) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **PINNED_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"worker printed no result:\n{proc.stdout[-2000:]}") from exc


def commit() -> str:
    # the ceiling keeps git from looking above the checkout for a repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, one pass (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        setups = [] if args.trace else [
            run_worker(args, ["--setup-only"], timeout=60) for _ in range(SETUP_PROBES)
        ]
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        result = run_worker(args, [], timeout=budget)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result)
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in setups),
                              "unit": "s", "samples": len(setups)}
    attempted, failed = result["attempted"], result["failed"]
    fail_frac = failed / attempted if attempted else 1.0

    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")
    print(f"{'fail_frac':40s} {fail_frac:>14.6g} ratio  n={attempted}")
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "cpu_count": os.cpu_count(),
        "input_digest": result["digest"],
        "rounds": result["rounds"],
        "round_walls": result["round_walls"],
        "fail_frac": fail_frac,
        "metrics": metrics,
    }
    if "raw_metrics" in result:
        record["kernel_s"] = result["kernel_s"]
        record["raw_metrics"] = {
            **result["raw_metrics"],
            "setup_s": statistics.median(r["raw_setup_s"] for r in setups),
        }
    if "spans" in result:
        record["spans"] = result["spans"]
    print(json.dumps({"record": record}))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
