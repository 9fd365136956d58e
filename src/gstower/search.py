"""Minimal-order search for two-generator groups with relation degrees
{3, 7}, and the exhaustive cross-check of its optimality.

The greedy search pushes dimension counts into the lowest open index
(lowest indices shrink the comparison product fastest), re-checking the
relaxed inequality after every increment.  Because the greedy sequence
minimizes the product pointwise among cap-respecting sequences of equal
sum, a violated greedy stage rules out every sequence of that sum; the
brute-force routine verifies this downstream of nothing, by direct
enumeration with exact witnesses.  It confirms a whole subtree of its
walk by one comparison at t = 1/2, on the completion that raises every
open entry as far as the caps and the sum allow; a single sequence left
open there is tried at t = 5/9 and then decided in full.  Every sequence
is still counted and confirmed.
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
    #: sequences that neither t = 1/2 nor t = 5/9 confirmed, so the full
    #: positivity decision ran on them
    full_decisions: int


# The one point tried between 1/2 and the full decision.  Below the
# optimum the sequences 1/2 leaves open are near-feasible, with their dip
# near 0.55: of the windows (p, sum, nmax) = (11, 22, 9) and (13, 22, 10),
# three sequences get past 1/2 and 5/9 confirms all three.  The decision
# is complete, so more points could only spare it some decisions.
_SECOND_POINT = Fraction(5, 9)


def brute_force_infeasibility(
    p: int, sum_limit: int, n_max: int = 9
) -> BruteForceResult:
    """Enumerate every cap-respecting sequence on indices 1..n_max with
    sum <= sum_limit and confirm each violates the relaxed inequality.

    Sequences are visited in lexicographic order (index 1 slowest),
    depth first with each branch bounded by the sum still allowed.  Each
    violation is confirmed by an exact nonpositive value, in integers, at
    t = 1/2 or else at t = 5/9, falling back to the full positivity
    decision when neither confirms it.  gs_check owns the target:
    `lhs_at` gives the left side at 1/2, `relaxed_at` tests 5/9 and
    `relaxed_target` is the full decision's polynomial.
    Any sequence for which the inequality actually holds is reported, and
    all_violated set False.

    Every node of the walk, with a_1..a_(n-1) fixed, budget B and the
    indices n..n_max open, is tested once at t = 1/2 on its top
    completion, every open a_i raised to min(cap_i, B).  Raising an entry
    only shrinks the product prod (1 - t^i)^(a_i), so when the top
    completion is violated, so is every completion under the node, and
    one comparison confirms the whole subtree: `examined` adds the number
    of its cap-respecting completions of sum <= B.  Only nodes whose top
    completion is not violated are split; a fully fixed sequence is the
    same test with nothing open, and goes on to 5/9 when it is not
    violated at 1/2.
    """
    if not is_prime(p) or p <= 7:
        raise ValueError("the cap table requires a prime p >= 11")
    if sum_limit < 0:
        raise ValueError(f"the sum limit must be >= 0, got {sum_limit}")
    profile = RelationProfile(2, (3, 7))
    # no table runs past the sum limit, whatever the caps (cap_29 is
    # 39 650 at p = 31); caps[n] and seq[n] = a_n are indexed from 1
    cap_list = upper_caps(p, n_max, ztype_37=True).as_list()
    caps = [0, *(min(cap, sum_limit) for cap in cap_list)]
    seq = [0] * (n_max + 1)
    # t = 1/2 tests a sequence: with L(1/2) = num / den and W = sum n a_n,
    # it is violated there when num 2^W <= den prod (2^n - 1)^(a_n)
    num, den = lhs_at(profile, Fraction(1, 2))
    factor_pows = [[((1 << n) - 1) ** e for e in range(cap + 1)] for n, cap in enumerate(caps)]
    # over the open indices n..n_max at budget B, each raised to
    # min(cap_i, B): top_prod[n][B] = prod (2^i - 1)^min(cap_i, B),
    # top_weight[n][B] = sum i min(cap_i, B), and count[n][B] the number
    # of cap-respecting completions of sum <= B; row n_max + 1 is empty
    top_prod = [[1] * (sum_limit + 1) for _ in range(n_max + 2)]
    top_weight = [[0] * (sum_limit + 1) for _ in range(n_max + 2)]
    count = [[1] * (sum_limit + 1) for _ in range(n_max + 2)]
    for n in range(n_max, 0, -1):
        pows, cap, below = factor_pows[n], caps[n], count[n + 1]
        for B in range(sum_limit + 1):
            top = min(cap, B)
            top_prod[n][B] = pows[top] * top_prod[n + 1][B]
            top_weight[n][B] = n * top + top_weight[n + 1][B]
            count[n][B] = sum(below[B - e] for e in range(top + 1))
    examined = 0
    full_decisions = 0
    holds_examples: list[tuple[int, ...]] = []

    def walk(n: int, budget: int, prod: int, weight: int) -> None:
        # prod = den prod (2^i - 1)^(a_i) and weight = sum i a_i over the
        # fixed indices 1..n-1
        nonlocal examined, full_decisions
        if num << (weight + top_weight[n][budget]) <= prod * top_prod[n][budget]:
            examined += count[n][budget]
            return
        if n > n_max:
            examined += 1
            a = DimensionSequence.from_values(p, seq[1:])
            if relaxed_at(profile, a, _SECOND_POINT) > 0:
                full_decisions += 1
                if positive_on_open_unit_interval(relaxed_target(profile, a)).holds:
                    holds_examples.append(_trim(seq[1:]))
            return
        row = factor_pows[n]
        for e in range(min(caps[n], budget) + 1):
            seq[n] = e
            walk(n + 1, budget - e, prod * row[e], weight + n * e)
        seq[n] = 0

    walk(1, sum_limit, den, 0)
    return BruteForceResult(
        prime=p,
        sum_limit=sum_limit,
        n_max=n_max,
        examined=examined,
        all_violated=not holds_examples,
        holds_examples=tuple(holds_examples),
        full_decisions=full_decisions,
    )
