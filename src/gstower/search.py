"""Minimal-order search for two-generator groups with relation degrees
{3, 7}, and the exhaustive cross-check of its optimality.

The greedy search pushes dimension counts into the lowest open index
(lowest indices shrink the comparison product fastest), re-checking the
relaxed inequality after every increment.  Because the greedy sequence
minimizes the product pointwise among cap-respecting sequences of equal
sum, a violated greedy stage rules out every sequence of that sum; the
brute-force routine verifies this downstream of nothing, by direct
enumeration with exact witnesses.  It confirms each row of sequences
that differ only in the last index by one comparison at the row's top
entry; every sequence is still counted and confirmed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import upper_caps
from .gs_check import (
    CheckMode,
    RelationProfile,
    check_inequality,
    lhs_at,
    relaxed_at,
    relaxed_target,
)
from .jennings import DimensionSequence, is_prime
from .series import positive_on_open_unit_interval


class CapExhaustedError(RuntimeError):
    """Every cap through the validity limit was reached without the
    inequality holding."""


@dataclass(frozen=True)
class GreedyStep:
    """One violated stage of the greedy search."""

    sequence: tuple[int, ...]
    total: int
    witness: Fraction
    witness_value: Fraction


@dataclass(frozen=True)
class SearchResult:
    min_sum: int
    sequence: DimensionSequence
    violation_trace: tuple[GreedyStep, ...]
    ab: tuple[int, int]
    order_exponent_bound: int


def _trim(seq: list[int]) -> tuple[int, ...]:
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def min_order_search(p: int, a: int = 1, b: int = 1) -> SearchResult:
    """Smallest cap-respecting sum for which the relaxed inequality holds,
    with the full violated-stage trace.

    The abelianization parameters (a, b) only add the prime-power-index
    correction 2(a-1) + (b-a) to the exponent bound: for p >= 11 those
    indices sit beyond the searched range and cannot interact with it.
    """
    if not is_prime(p) or p <= 7:
        raise ValueError("the cap table requires a prime p >= 11")
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    profile = RelationProfile(2, (3, 7))
    caps = upper_caps(p, p - 2, ztype_37=True)
    seq = [0] * caps.n_max
    seq[0] = min(2, caps.cap(1))
    trace: list[GreedyStep] = []
    while True:
        dimseq = DimensionSequence.from_values(p, seq)
        report = check_inequality(profile, dimseq, CheckMode.RELAXED)
        if report.holds:
            break
        trace.append(
            GreedyStep(
                sequence=_trim(seq),
                total=sum(seq),
                witness=report.witness,
                witness_value=report.witness_value,
            )
        )
        for i in range(caps.n_max):
            if seq[i] < caps.cap(i + 1):
                seq[i] += 1
                break
        else:
            raise CapExhaustedError(
                f"all caps through n = {caps.n_max} exhausted at sum {sum(seq)}"
            )
    min_sum = sum(seq)
    exponent = min_sum + 2 * (a - 1) + (b - a)
    return SearchResult(
        min_sum=min_sum,
        sequence=DimensionSequence.from_values(p, seq),
        violation_trace=tuple(trace),
        ab=(a, b),
        order_exponent_bound=exponent,
    )


@dataclass(frozen=True)
class BruteForceResult:
    prime: int
    sum_limit: int
    n_max: int
    examined: int
    all_violated: bool
    holds_examples: tuple[tuple[int, ...], ...]
    #: sequences no prepared point confirmed, so the full positivity
    #: decision ran on them
    full_decisions: int


# Rationals tried first when confirming a violation; 1/2 kills almost
# everything, the cluster near 0.55 handles the near-feasible sequences.
_FAST_POINTS = (
    Fraction(1, 2),
    Fraction(5, 9),
    Fraction(11, 20),
    Fraction(4, 7),
    Fraction(3, 5),
    Fraction(5, 8),
    Fraction(2, 3),
)


def brute_force_infeasibility(
    p: int, sum_limit: int, n_max: int = 9
) -> BruteForceResult:
    """Enumerate every cap-respecting sequence on indices 1..n_max with
    sum <= sum_limit and confirm each violates the relaxed inequality.

    Sequences are visited in lexicographic order (index 1 slowest),
    depth first with each branch bounded by the sum still allowed.  Each
    violation is confirmed by an exact nonpositive evaluation at a
    rational point (fast path, in integers), falling back to the full
    positivity decision when no prepared point works.  gs_check owns the
    target: `lhs_at` gives the left side at 1/2, `relaxed_at` tests the
    other points and `relaxed_target` is the full decision's polynomial.
    Any sequence for which the inequality actually holds is reported, and
    all_violated set False.

    Fixing a_1..a_(n_max - 1) leaves a row a_(n_max) = 0..top, with top
    the cap or the sum still allowed.  With n = n_max, the test at
    t = u/v for a_n = e reads L_num v^W <= N (1 - (u/v)^n)^e, W and N
    taken over the prefix, and the right side shrinks as e grows: when
    the top entry is violated at t = 1/2, so is the whole row, and one
    comparison confirms its top + 1 sequences.  Only a row whose top
    entry is not violated there is tested entry by entry.  `examined`
    counts every sequence of every row.
    """
    if not is_prime(p) or p <= 7:
        raise ValueError("the cap table requires a prime p >= 11")
    if sum_limit < 0:
        raise ValueError(f"the sum limit must be >= 0, got {sum_limit}")
    profile = RelationProfile(2, (3, 7))
    cap_list = upper_caps(p, n_max, ztype_37=True).as_list()
    # seq[n] = a_n; level 0 is a dummy with the one entry 0, so that
    # every row has a parent level, the one row of n_max = 1 too
    caps = [0, *cap_list]
    seq = [0] * (n_max + 1)
    # t = 1/2 tests every sequence: with L(1/2) = num / den and
    # W = sum n a_n, the test num 2^W <= den prod (2^n - 1)^(a_n) reads
    # off these tables
    num, den = lhs_at(profile, Fraction(1, 2))
    factor_pows = [[((1 << n) - 1) ** e for e in range(cap + 1)] for n, cap in enumerate(caps)]
    max_weight = sum(n * cap for n, cap in enumerate(caps))
    thresholds = [num << w for w in range(max_weight + 1)]
    # the other points, tried in order on a sequence 1/2 does not confirm
    rest = _FAST_POINTS[1:] + tuple(
        Fraction(k, 20) for k in range(1, 20) if Fraction(k, 20) not in _FAST_POINTS
    )
    last, last_cap = factor_pows[n_max], cap_list[-1]
    examined = 0
    full_decisions = 0
    holds_examples: list[tuple[int, ...]] = []

    def confirm_elsewhere() -> None:
        """Try every other point on a sequence t = 1/2 did not confirm."""
        nonlocal full_decisions
        a = DimensionSequence.from_values(p, seq[1:])
        if any(relaxed_at(profile, a, t) <= 0 for t in rest):
            return
        full_decisions += 1
        if positive_on_open_unit_interval(relaxed_target(profile, a)).holds:
            holds_examples.append(_trim(seq[1:]))

    def confirm_row(top: int, prod: int, weight: int) -> None:
        """Confirm a row entry by entry: its top entry is not violated at
        t = 1/2, so some of its entries may not be."""
        for e in range(top + 1):
            if thresholds[weight + n_max * e] > prod * last[e]:
                seq[n_max] = e
                confirm_elsewhere()
        seq[n_max] = 0

    def walk(n: int, budget: int, prod: int, weight: int) -> None:
        # prod and weight cover indices 1..n-1 at the first point
        nonlocal examined
        row = factor_pows[n]
        top = min(caps[n], budget)
        if n + 1 < n_max:
            for e in range(top + 1):
                seq[n] = e
                walk(n + 1, budget - e, prod * row[e], weight + n * e)
        else:
            # a_1..a_n fixed: the row a_(n_max) = 0..row_top, settled at
            # its top entry when that is violated
            for e in range(top + 1):
                seq[n] = e
                prod_e, weight_e = prod * row[e], weight + n * e
                row_top = min(last_cap, budget - e)
                examined += row_top + 1
                if thresholds[weight_e + n_max * row_top] > prod_e * last[row_top]:
                    confirm_row(row_top, prod_e, weight_e)
        seq[n] = 0

    walk(0, sum_limit, den, 0)
    return BruteForceResult(
        prime=p,
        sum_limit=sum_limit,
        n_max=n_max,
        examined=examined,
        all_violated=not holds_examples,
        holds_examples=tuple(holds_examples),
        full_decisions=full_decisions,
    )
