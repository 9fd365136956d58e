"""Upper caps from free Lie algebra dimension counts.

The n <= 9 row of EXPECTED_CAPS is the published table; the extension
through n = 15 was frozen from an independent evaluation of the Witt-style
sum (Moebius inversion over divisors, binomial weights) done with plain
integer arithmetic before this module existed.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gstower.bounds import (
    CapProfile,
    RangeExceededError,
    labute_g,
    moebius,
    upper_caps,
)

# g_n for d = 2 generators, relation degree parameter k = 3, n = 1..15
EXPECTED_CAPS = [2, 1, 1, 1, 2, 2, 4, 5, 8, 11, 18, 25, 40, 58, 90]


def test_moebius_values():
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_moebius_rejects_nonpositive():
    with pytest.raises(ValueError):
        moebius(0)


def test_caps_table_through_15():
    assert [labute_g(n, 2, 3) for n in range(1, 16)] == EXPECTED_CAPS


def test_published_caps_row():
    caps = upper_caps(11, 9)
    assert caps.as_list() == [2, 1, 1, 1, 2, 2, 4, 5, 8]
    assert caps.cap(7) == 4


def test_ztype_refinement_lowers_a7():
    caps = upper_caps(11, 9, ztype_37=True)
    assert caps.cap(7) == 3
    assert caps.as_list() == [2, 1, 1, 1, 2, 2, 3, 5, 8]
    # untouched elsewhere
    assert upper_caps(11, 9).as_list()[:6] == caps.as_list()[:6]


def test_caps_only_defined_below_p_minus_1():
    with pytest.raises(RangeExceededError):
        upper_caps(5, 4)
    with pytest.raises(RangeExceededError):
        upper_caps(11, 10)
    # and the largest allowed index works
    assert upper_caps(11, 9).n_max == 9


def test_cap_lookup_range():
    caps = upper_caps(11, 9)
    with pytest.raises(RangeExceededError):
        caps.cap(10)
    with pytest.raises(RangeExceededError):
        caps.cap(0)


def test_caps_p17_cover_the_example_sequence():
    caps = upper_caps(17, 15, ztype_37=True)
    example = [2, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 5, 7, 5, 4]
    assert all(example[n - 1] <= caps.cap(n) for n in range(1, 16))


def _fraction_labute_g(n, d, k):
    """The defining sum with its rational weights j/top * C(top, i)."""
    total = Fraction(0)
    for j in range(1, n + 1):
        if n % j or moebius(n // j) == 0:
            continue
        inner = Fraction(0)
        for i in range(j // k + 1):
            top = j + (1 - k) * i
            inner += Fraction((-1) ** i) * Fraction(j, top) * math.comb(top, i) * d ** (j - k * i)
        total += moebius(n // j) * inner
    return total / n


def _necklace_count(n, d):
    return sum(moebius(n // j) * d ** j for j in range(1, n + 1) if n % j == 0) // n


def test_necklace_counts():
    # classical: 9 binary necklaces of length 6, 18 ternary of length 4;
    # a relator deeper than n leaves the necklace count
    assert labute_g(6, 2, 7) == 9
    assert labute_g(4, 3, 5) == 18
    assert labute_g(1, 5, 2) == 5


@given(
    n=st.integers(min_value=1, max_value=39),
    d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=2, max_value=11),
)
def test_labute_g_matches_the_fraction_sum(n, d, k):
    assert labute_g(n, d, k) == _fraction_labute_g(n, d, k)


@given(
    n=st.integers(min_value=1, max_value=20),
    d=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=3, max_value=7),
)
def test_labute_g_is_a_nonnegative_integer(n, d, k):
    # the defining sum is rational; integrality is the content of the count
    value = labute_g(n, d, k)
    assert isinstance(value, int)
    assert value >= 0


@given(n=st.integers(min_value=1, max_value=16), d=st.integers(min_value=2, max_value=3))
def test_large_k_reduces_to_necklaces(n, d):
    # once k exceeds n no correction term survives and the count is the
    # plain necklace number
    assert labute_g(n, d, n + 1) == _necklace_count(n, d)
    assert labute_g(n, d, n + 5) == _necklace_count(n, d)


def test_necklace_consistency_with_moebius_sum():
    for n in range(1, 13):
        direct = sum(moebius(n // j) * 2 ** j for j in range(1, n + 1) if n % j == 0)
        assert labute_g(n, 2, n + 1) == direct // n


def test_cap_profile_is_frozen():
    caps = upper_caps(11, 5)
    with pytest.raises(AttributeError):
        caps.cap_values = ()
