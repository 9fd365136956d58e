"""One workload in one process: set up, measure, check, report.

`run.py` starts this with numpy's BLAS pinned to one thread.  It prints a
single JSON object for `run.py` to read.  With --setup-only it stops
after set-up and reports only the set-up time (scaled to the reference
speed by a gauge reading taken right after it, see `speed`, and raw) and
the input digest.

Set-up is everything before the first timed call: importing gstower
(which pulls in numpy) and generating the seeded inputs.  After it the
worker runs the batch.  Without --trace it runs the rounds of a pass
(`workloads.rounds`) over and over, at least one whole pass, skipping a
round that its last run predicts would end past --seconds, until none
fits; with
--trace it runs the batch once in plain order measured and then once
traced.  The first run of each operation is checked in full; later runs
must reproduce its result exactly.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED_DECIDE = HERE / "expected_decide.json"
OUT_DIR = ROOT / ".perfbench"


def _failure_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_round(ops, indices, tracer, gauge=None):
    """Time the operations `indices` of `ops`, in order; an operation that
    raises is recorded and the round goes on.  As in `timeit`, the cyclic
    garbage collector is off while timing and runs between rounds, so its
    pauses do not land on whichever operation happens to trigger them.
    With a `speed.Gauge`, it is read at the start and end of the round
    and before an operation when it is due.  Returns the round's wall
    time, each operation's start and duration, results and errors."""
    starts, times, results, errors = [], [], [], []
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        if gauge:
            gauge.read()
        for i in indices:
            if gauge and gauge.due():
                gauge.read()
            op = ops[i]
            t = time.perf_counter()
            try:
                with tracer.operation(i, op.label):
                    results.append(op.run())
                errors.append(None)
            except Exception as exc:  # the run continues; the op counts as failed
                results.append(None)
                errors.append(_failure_text(exc))
            starts.append(t)
            times.append(time.perf_counter() - t)
        if gauge:
            gauge.read()
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return wall, starts, times, results, errors


class Ledger:
    """Attempted and failed operations, and the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, str | None] = {}

    def record(self, ops, indices, results, errors) -> None:
        for i, result, error in zip(indices, results, errors):
            op = ops[i]
            first = i not in self.reference
            problems = [error] if error else []
            if not problems and first:
                try:
                    problems = op.check(result)
                except Exception as exc:  # a check that raises is a failed op
                    problems = [f"check raised {_failure_text(exc)}"]
            summary = None if problems else repr(result)
            if first:
                self.reference[i] = summary
            elif not problems and summary != self.reference[i]:
                problems = ["result differs from the first run"]
            self.attempted += op.weight
            if problems:
                self.failed += op.weight
                self.problems.extend(f"{op.label}: {p}" for p in problems[:1])


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    11th largest value, with its percentile rank (the largest value when
    there are too few samples)."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(ops, samples) -> dict:
    """The measured metrics of the untraced rounds, as name -> {value,
    unit, samples}.  Each operation's time is the median of its timings
    (`samples[i]`); the wall time of the batch is the sum of those
    medians, which a burst of load on another process of the machine
    during one round does not move much, and the latencies are the median
    and tail over the operations.  The sample count of the wall time is
    the fewest timings any operation's median rests on."""
    weight = sum(op.weight for op in ops)
    per_op = [statistics.median(s) for s in samples]
    wall = sum(per_op)
    fewest = min(len(s) for s in samples)
    tail_value, tail_pct = tail(per_op)
    return {
        "wall_s": {"value": wall, "unit": "s", "samples": fewest},
        "ops_per_s": {"value": weight / wall, "unit": "1/s", "samples": fewest},
        "latency_p50_s": {"value": statistics.median(per_op), "unit": "s", "samples": len(per_op)},
        "latency_tail_s": {"value": tail_value, "unit": "s", "samples": len(per_op),
                           "percentile": tail_pct},
    }


def measure(workload: str, data, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import inputs
    import tracing
    import workloads

    committed = None
    if workload == "decide" and seed == inputs.DEFAULT_SEED and not smoke:
        expected = json.loads(EXPECTED_DECIDE.read_text())
        if expected["digest"] != inputs.digest(data):
            raise RuntimeError(f"{EXPECTED_DECIDE.name} belongs to other inputs; regenerate it")
        committed = expected["verdicts"]
    null = tracing.NullTracer()
    ledger = Ledger()
    ops = workloads.make_ops(workload, data, committed, null)
    if trace:
        plain = list(range(len(ops)))
        wall, _, _, results, errors = run_round(ops, plain, null)
        ledger.record(ops, plain, results, errors)
        del results
        out = {"rounds": 1, "round_walls": [wall]}
        tracer = tracing.Tracer()
        ops = workloads.make_ops(workload, data, committed, tracer)
        tracer.install(tracing.bindings())
        try:
            traced = run_round(ops, plain, tracer)
        finally:
            tracer.uninstall()
        ledger.record(ops, plain, *traced[3:])
        labels = {i: op.label for i, op in enumerate(ops)}
        layers = tracing.layer_metrics(tracer.spans, labels)
        layers["trace.overhead_s"] = (traced[0] - wall, "s")
        out["metrics"] = {k: {"value": v, "unit": u, "samples": 1} for k, (v, u) in layers.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        out["spans"] = str(spans_path.relative_to(ROOT))
    else:
        schedule = workloads.rounds(workload, ops)
        gauge = speed.Gauge()
        timings = []  # (operation, start, duration)
        walls: list[float] = []
        last: dict[int, float] = {}  # round -> its last wall time
        n = len(schedule)
        k = skipped = 0
        start = time.perf_counter()
        while skipped < n:
            r = k % n
            k += 1
            if k > n:
                # a whole pass is done; run a round only if, as long as it
                # took last time, it still ends within --seconds
                if smoke or time.perf_counter() - start + last[r] > seconds:
                    skipped += 1
                    continue
            skipped = 0
            wall, starts, times, results, errors = run_round(ops, schedule[r], null, gauge)
            ledger.record(ops, schedule[r], results, errors)
            del results  # keep memory flat across rounds
            walls.append(wall)
            last[r] = wall
            timings.extend(zip(schedule[r], starts, times))
        raw = [[] for _ in ops]
        scaled = [[] for _ in ops]
        for i, t0, t in timings:
            raw[i].append(t)
            factor = speed.REFERENCE_KERNEL_S / gauge.around(t0, t0 + t) if ops[i].scaled else 1.0
            scaled[i].append(t * factor)
        out = {"rounds": len(walls), "round_walls": walls,
               "kernel_s": statistics.median(v for _, v in gauge.readings),
               "raw_metrics": {k: m["value"] for k, m in end_to_end(ops, raw).items()}}
        out["metrics"] = end_to_end(ops, scaled)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB", "samples": 1}
    out.update(attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems[:20])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import gstower  # noqa: F401  (set-up cost: the package and numpy)
    import inputs
    import workloads  # noqa: F401

    data = inputs.generate(args.workload, args.seed, args.smoke)
    digest = inputs.digest(data)
    setup_s = time.perf_counter() - _T0
    # the gauge right after set-up scales it like the measured timings
    result = {"setup_s": setup_s * speed.REFERENCE_KERNEL_S / speed.read(),
              "raw_setup_s": setup_s, "digest": digest}
    if not args.setup_only:
        result.update(measure(args.workload, data, args.seed, args.seconds, bool(args.trace), args.smoke))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
