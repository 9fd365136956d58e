#!/usr/bin/env python3
"""Reproduce the minimal-order search end to end and print the evidence.

Runs the greedy cap-respecting search for the smallest dimension-sequence
sum compatible with the relaxed inequality, prints every violated stage
with its exact witness, then (optionally) sweeps the whole capped box on
indices 1..p - 2 one unit below the optimum to confirm nothing smaller
works.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gstower.search import brute_force_infeasibility, min_order_search


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=11, help="prime, at least 11")
    parser.add_argument("--ab", default="1,1", help="abelianization pair a,b")
    parser.add_argument(
        "--skip-sweep",
        action="store_true",
        help="skip the exhaustive confirmation sweep below the optimum",
    )
    args = parser.parse_args(argv)
    # exit 1 means the sweep found a counterexample, so a bad argument
    # exits 2 with a one-line reason, as the gstower CLI does
    try:
        a, b = (int(x) for x in args.ab.split(","))
    except ValueError:
        print(f"error: --ab takes two integers a,b, got {args.ab!r}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    try:
        result = min_order_search(args.p, a, b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"p = {args.p}, abelianization (a, b) = ({a}, {b})")
    print(f"violated stages before the optimum: {len(result.violation_trace)}")
    for step in result.violation_trace:
        seq = ",".join(str(x) for x in step.sequence)
        print(
            f"  sum {step.total:2d}  a = ({seq})"
            f"  witness t = {step.witness}  value = {step.witness_value}"
        )
    seq = ",".join(str(x) for x in result.sequence.as_list())
    print(f"minimal sum: {result.min_sum} at a = ({seq})")
    print(f"order exponent bound: {result.order_exponent_bound}")
    print(f"greedy search time: {time.monotonic() - t0:.2f}s")

    if args.skip_sweep:
        return 0
    t0 = time.monotonic()
    # the same indices 1..p - 2 the greedy search caps
    sweep = brute_force_infeasibility(args.p, result.min_sum - 1, args.p - 2)
    print(
        f"sweep below optimum: {sweep.examined} sequences on n <= {sweep.n_max} "
        f"with sum <= {sweep.sum_limit}, all violated: {sweep.all_violated}"
    )
    print(f"sweep time: {time.monotonic() - t0:.2f}s")
    if not sweep.all_violated:
        for ex in sweep.holds_examples:
            print(f"  counterexample: {ex}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
