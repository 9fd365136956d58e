#!/usr/bin/env python3
"""Cross-check the built-in groups against the analytic machinery.

The groups are cyclic:1-3, elemab:1-3 and heisenberg (orders up to p^3)
at every requested prime.  For each built-in presentation this measures
the augmentation-ideal filtration directly from the multiplication table
and compares it with the transform of the dimension-subgroup sequence, checks
the central-series product formula, replays the defect recursion against
directly computed kernel dimensions, and evaluates the strengthened
inequality on the measured data.  Everything here is computed from the
finite tables; the analytic side never sees the group.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gstower.group_lab import (
    augmentation_powers,
    builtin_presentation,
    dimension_subgroups,
    lazard_check,
    verify_recursion,
)
from gstower.gs_check import strict_corollary_check
from gstower.jennings import jennings_transform

KINDS = ("cyclic:1", "cyclic:2", "cyclic:3", "elemab:1", "elemab:2", "elemab:3", "heisenberg")


def report_one(kind: str, p: int) -> bool:
    pres = builtin_presentation(kind, p)
    G = pres.target  # one table, so the group algebra is filtered once
    print(f"{kind} at p = {p}: order {G.order}, exponent {G.exponent()}")

    c = augmentation_powers(G)
    _, a = dimension_subgroups(G)
    # equal tuples: the same order and the same c_n
    jennings_ok = jennings_transform(a).c == c
    print(f"  dimension sequence: {a.as_dict()}")
    print(f"  filtration gaps (measured): {c}")
    print(f"  transform agreement: {jennings_ok}")

    lz = lazard_check(G)
    print(f"  product formula at all {lz.chain_length} levels: {lz.all_match}")

    rec = verify_recursion(pres)
    print(f"  defect recursion (direct vs predicted): {rec.ok}")
    print(f"    direct:    {rec.e_direct}")
    print(f"    predicted: {rec.e_expected}")

    strict = strict_corollary_check(pres.profile(), a)
    print(f"  strengthened inequality holds: {strict.holds}")
    return jennings_ok and lz.all_match and rec.ok and strict.holds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--primes", default="3,5", help="comma-separated odd primes to test"
    )
    args = parser.parse_args(argv)
    primes = [int(x) for x in args.primes.split(",")]

    t0 = time.monotonic()
    bad = []
    for p in primes:
        for kind in KINDS:
            if not report_one(kind, p):
                bad.append((kind, p))
            print()
    print(f"total time: {time.monotonic() - t0:.2f}s")
    if bad:
        print(f"FAILED: {bad}", file=sys.stderr)
        return 1
    print("all cross-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
