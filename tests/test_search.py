"""Greedy minimal-sum search and the brute-force infeasibility oracle.

The target values (sequence, sum 23, the 1/2 and near-0.55 witnesses) are
the published ones; the exact witness fractions are whatever the decision
procedure isolates, pinned only by the sign condition.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gstower.bounds import upper_caps
from gstower.gs_check import (
    CheckMode,
    RelationProfile,
    check_inequality,
    gs_lhs_poly,
    relaxed_product_poly,
)
from gstower.jennings import DimensionSequence
from gstower.search import brute_force_infeasibility, min_order_search
from gstower.series import positive_on_open_unit_interval

MINIMAL_SEQUENCE = (2, 1, 1, 1, 2, 2, 3, 5, 6)


def test_search_lands_on_the_published_sequence():
    res = min_order_search(11, 1, 1)
    assert tuple(res.sequence.as_list()) == MINIMAL_SEQUENCE
    assert res.min_sum == 23
    assert res.order_exponent_bound == 23


def test_search_independent_of_the_prime():
    # caps do not vary with p in the searched range, so p = 13 agrees
    res11 = min_order_search(11)
    res13 = min_order_search(13)
    assert res11.sequence.as_list() == res13.sequence.as_list()
    assert res11.min_sum == res13.min_sum


def test_first_violated_stage_is_the_bare_start():
    res = min_order_search(11)
    first = res.violation_trace[0]
    assert first.sequence == (2,)
    assert first.witness == Fraction(1, 2)
    assert first.witness_value < 0


def test_last_violated_stage_witness_sits_near_055():
    res = min_order_search(11)
    last = res.violation_trace[-1]
    assert last.sequence == (2, 1, 1, 1, 2, 2, 3, 5, 5)
    assert last.total == 22
    assert Fraction(1, 2) < last.witness < Fraction(3, 5)
    assert last.witness_value <= 0


def test_every_trace_stage_is_an_exact_violation():
    res = min_order_search(11)
    profile = RelationProfile(2, (3, 7))
    assert len(res.violation_trace) == 21
    for step in res.violation_trace:
        a = DimensionSequence.from_values(11, step.sequence)
        report = check_inequality(profile, a, CheckMode.RELAXED)
        assert not report.holds


def test_final_sequence_passes_relaxed():
    res = min_order_search(11)
    profile = RelationProfile(2, (3, 7))
    assert check_inequality(profile, res.sequence, CheckMode.RELAXED).holds


def test_ab_correction():
    # exponent bound = (min_sum - 2) + a + b
    assert min_order_search(11, 1, 1).order_exponent_bound == 23
    assert min_order_search(11, 1, 2).order_exponent_bound == 24
    assert min_order_search(11, 2, 2).order_exponent_bound == 25


def test_small_prime_rejected():
    with pytest.raises(ValueError):
        min_order_search(7)
    with pytest.raises(ValueError):
        min_order_search(12)


def _lowest_index_fill(caps, total):
    """As much mass as the caps allow at the lowest indices, trimmed."""
    out = []
    for n in range(1, caps.n_max + 1):
        if total == 0:
            break
        out.append(min(total, caps.cap(n)))
        total -= out[-1]
    return tuple(out)


def test_greedy_fill_packs_lowest_indices_first():
    # every stage of the greedy walk is the lowest-index fill of its sum
    caps = upper_caps(11, 9, ztype_37=True)
    res = min_order_search(11)
    for step in res.violation_trace:
        assert step.sequence == _lowest_index_fill(caps, step.total)
    assert _lowest_index_fill(caps, 23) == MINIMAL_SEQUENCE
    assert tuple(res.sequence.as_list()) == MINIMAL_SEQUENCE


def test_greedy_fill_respects_caps_and_total():
    # the stages run through every sum from the start at 2 up to 22
    caps = upper_caps(11, 9, ztype_37=True)
    res = min_order_search(11)
    assert [step.total for step in res.violation_trace] == list(range(2, 23))
    for step in res.violation_trace:
        assert sum(step.sequence) == step.total
        for n, v in enumerate(step.sequence, start=1):
            assert 0 <= v <= caps.cap(n)


def test_brute_force_small_window():
    # caps (2,1,1,1,2) on n <= 5 span 3*2*2*2*3 = 72 boxes, all of sum <= 7
    res = brute_force_infeasibility(11, 10, n_max=5)
    assert res.examined == 72
    assert res.all_violated
    assert res.holds_examples == ()


def test_brute_force_finds_the_feasible_sequence_when_allowed():
    # raising the sum limit to 23 admits the minimal feasible sequence
    res = brute_force_infeasibility(11, 23)
    assert not res.all_violated
    assert MINIMAL_SEQUENCE in res.holds_examples


def test_brute_force_at_the_published_sum_limit():
    res = brute_force_infeasibility(11, 22)
    assert res.examined == 46604
    assert res.all_violated


def test_brute_force_reports_where_the_inequality_holds():
    res = brute_force_infeasibility(11, 26)
    assert res.examined == 46656
    assert not res.all_violated
    assert res.holds_examples == (
        (2, 1, 1, 1, 2, 2, 3, 4, 7),
        (2, 1, 1, 1, 2, 2, 3, 4, 8),
        (2, 1, 1, 1, 2, 2, 3, 5, 6),
        (2, 1, 1, 1, 2, 2, 3, 5, 7),
        (2, 1, 1, 1, 2, 2, 3, 5, 8),
    )
    # only the holding sequences escape every prepared rational point
    assert res.full_decisions == 5


def test_brute_force_at_the_benchmark_window_at_p13():
    # the benchmark's largest sweep: 46 604 rows of the last index, each
    # settled by its top entry, hold 450 074 sequences
    res = brute_force_infeasibility(13, 22, n_max=10)
    assert res.examined == 450074
    assert res.all_violated
    assert res.full_decisions == 0


def test_brute_force_over_the_whole_proven_range_at_p13():
    # caps are proven for every n <= p - 2; no pruning, every sequence
    # of sum <= 22 on indices 1..11 is confirmed
    res = brute_force_infeasibility(13, 22, 11)
    assert res.examined == 3036321
    assert res.all_violated
    assert res.full_decisions == 0


def test_negative_sum_limit_rejected():
    with pytest.raises(ValueError):
        brute_force_infeasibility(11, -1)


# ---------------------------------------------------------------------------
# the sweep against the box-filter, Fraction-product sweep it replaced
# ---------------------------------------------------------------------------

_ORACLE_POINTS = (
    Fraction(1, 2),
    Fraction(5, 9),
    Fraction(11, 20),
    Fraction(4, 7),
    Fraction(3, 5),
    Fraction(5, 8),
    Fraction(2, 3),
)


def _oracle_brute_force(p, sum_limit, n_max):
    """Reference: filter the full product box by sum, confirm with
    Fraction products at the prepared points, else decide in full and
    count the full decision."""
    profile = RelationProfile(2, (3, 7))
    cap_list = upper_caps(p, n_max, ztype_37=True).as_list()
    lhs = gs_lhs_poly(profile)
    points = _ORACLE_POINTS + tuple(
        Fraction(k, 20) for k in range(1, 20) if Fraction(k, 20) not in _ORACLE_POINTS
    )
    lhs_at = {t: lhs(t) for t in points}
    factor_pow = [[]]
    for n in range(1, n_max + 1):
        factor_pow.append(
            [{t: (1 - t ** n) ** e for t in points} for e in range(cap_list[n - 1] + 1)]
        )

    def confirmed_at_a_point(seq):
        for t in points:
            prod = Fraction(1)
            for n, e in enumerate(seq, start=1):
                if e:
                    prod *= factor_pow[n][e][t]
            if lhs_at[t] - prod <= 0:
                return True
        return False

    examined = 0
    full_decisions = 0
    holds_examples = []
    for seq in itertools.product(*(range(c + 1) for c in cap_list)):
        if sum(seq) > sum_limit:
            continue
        examined += 1
        if confirmed_at_a_point(seq):
            continue
        full_decisions += 1
        target = lhs - relaxed_product_poly(DimensionSequence.from_values(p, list(seq)))
        if positive_on_open_unit_interval(target).holds:
            trimmed = list(seq)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            holds_examples.append(tuple(trimmed))
    return examined, not holds_examples, tuple(holds_examples), full_decisions


def _summary(res):
    return res.examined, res.all_violated, res.holds_examples, res.full_decisions


@settings(deadline=None, max_examples=40)
@given(
    p=st.sampled_from([11, 13]),
    n_max=st.integers(1, 7),
    sum_limit=st.integers(0, 30),
)
def test_brute_force_matches_the_fraction_oracle(p, n_max, sum_limit):
    # caps on n <= 7 total 12, so every one of these windows is violated
    assert _summary(brute_force_infeasibility(p, sum_limit, n_max)) == \
        _oracle_brute_force(p, sum_limit, n_max)


@pytest.mark.parametrize("p", [11, 13])
def test_brute_force_matches_the_fraction_oracle_where_it_holds(p):
    # n_max = 9 reaches the feasible sequences from sum 23 on; their rows
    # mix held and violated entries, which are confirmed one by one
    res = brute_force_infeasibility(p, 24)
    assert not res.all_violated
    assert _summary(res) == _oracle_brute_force(p, 24, 9)
