"""Dimension sequences and the filtration transform.

The order-3 cyclic oracle (c = 0,1,2,3) and the order-27 nonabelian
oracle (c = 0,1,3,7,11,16,20,24,26,27) were measured independently by the
group-algebra rank computation in group_lab; the values are frozen here
so this module stands on its own.
"""
import pytest
from hypothesis import example, given, settings, strategies as st

from gstower.jennings import (
    DimensionSequence,
    InvalidPrimeError,
    is_prime,
    jennings_transform,
    pn_inverse_poly,
)

CYCLIC3_C = (0, 1, 2, 3)
HEIS27_C = (0, 1, 3, 7, 11, 16, 20, 24, 26, 27)


def test_primality():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


class TestDimensionSequence:
    def test_zero_entries_are_dropped(self):
        a = DimensionSequence.from_values(5, [2, 0, 1])
        assert a.as_dict() == {1: 2, 3: 1}
        assert a.support == (1, 3)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            DimensionSequence.from_values(5, [2, -1])

    def test_nonprime_rejected(self):
        with pytest.raises(InvalidPrimeError):
            DimensionSequence.from_values(6, [1])

    def test_order_and_weighted_degree(self):
        a = DimensionSequence.from_dict(3, {1: 2, 2: 1})
        assert a.order_exponent == 3
        assert a.weighted_degree == 4  # 1*2 + 2*1
        assert a.max_index == 2
        assert a.get(1) == 2 and a.get(5) == 0

    def test_as_list_pads_with_zeros(self):
        a = DimensionSequence.from_dict(3, {1: 1, 4: 2})
        assert a.as_list() == [1, 0, 0, 2]


def test_pn_inverse_poly():
    # (1 - t^2)/(1 - t^6) inverts to 1 + t^2 + t^4 at p = 3.
    assert [int(c) for c in pn_inverse_poly(2, 3).coeffs] == [1, 0, 1, 0, 1]
    assert [int(c) for c in pn_inverse_poly(1, 2).coeffs] == [1, 1]


def test_cyclic_order_3_oracle():
    a = DimensionSequence.from_values(3, [1])
    data = jennings_transform(a)
    assert data.b == (1, 1, 1)
    assert tuple(data.c_at(n) for n in range(4)) == CYCLIC3_C
    assert data.order == 3
    assert data.stabilization_index == 2  # (p-1) * weighted degree
    assert data.c_at(100) == 3


def test_heisenberg_27_oracle():
    a = DimensionSequence.from_dict(3, {1: 2, 2: 1})
    data = jennings_transform(a)
    assert tuple(data.c_at(n) for n in range(len(HEIS27_C))) == HEIS27_C
    assert data.order == 27
    assert data.stabilization_index == 8


def test_transform_matches_direct_polynomial_product():
    # For a = {a_1 = 1, a_2 = 1} at p = 3 the expansion is
    # (1 + t + t^2)(1 + t^2 + t^4); multiply by hand:
    #   1 + t + 2t^2 + t^3 + 2t^4 + t^5 + t^6
    a = DimensionSequence.from_dict(3, {1: 1, 2: 1})
    data = jennings_transform(a)
    assert data.b == (1, 1, 2, 1, 2, 1, 1)
    assert data.order == 9


def test_stabilization_and_order_are_linked():
    a = DimensionSequence.from_dict(5, {1: 2, 3: 1})
    data = jennings_transform(a)
    n_stab = data.stabilization_index
    assert n_stab == 4 * (1 * 2 + 3 * 1)
    assert data.c_at(n_stab + 1) == 5 ** 3
    assert data.c_at(n_stab + 1) == data.order


@settings(deadline=None, max_examples=50)
@given(
    p=st.sampled_from([2, 3, 5]),
    entries=st.dictionaries(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=3,
    ),
)
def test_transform_invariants(p, entries):
    a = DimensionSequence.from_dict(p, entries)
    data = jennings_transform(a)
    # expansion coefficients count a basis, so they are nonnegative and
    # the partial sums climb monotonically to the group order
    assert all(b >= 0 for b in data.b)
    assert data.b[0] == 1
    cs = [data.c_at(n) for n in range(data.stabilization_index + 2)]
    assert cs[0] == 0
    assert cs[1] == 1
    assert all(x <= y for x, y in zip(cs, cs[1:]))
    assert cs[-1] == p ** a.order_exponent
    assert len(data.b) - 1 == data.stabilization_index


@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(min_value=1, max_value=6),
)
def test_pn_inverse_poly_shape(p, n):
    poly = pn_inverse_poly(n, p)
    assert poly.degree == (p - 1) * n
    nonzero = [k for k, c in enumerate(poly.coeffs) if c != 0]
    assert nonzero == [n * j for j in range(p)]


def _sliding_window_factor(coeffs, n, p):
    """Oracle: the full-length product by 1 + t^n + ... + t^((p-1)n), one
    coefficient at a time, out[i] = out[i-n] + in[i] - in[i-pn]."""
    pn = p * n
    out = [0] * (len(coeffs) + n * (p - 1))
    for i in range(len(out)):
        v = out[i - n] if i >= n else 0
        if i < len(coeffs):
            v += coeffs[i]
        if 0 <= i - pn < len(coeffs):
            v -= coeffs[i - pn]
        out[i] = v
    return out


@settings(deadline=None, max_examples=150)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13, 17]),
    values=st.lists(st.integers(min_value=0, max_value=6), max_size=6),
)
@example(p=2, values=[])
@example(p=3, values=[])
@example(p=2, values=[1])  # N = 1, odd
@example(p=2, values=[0, 0, 1])  # N = 3, odd
@example(p=2, values=[2, 0, 1])  # N = 5, odd
@example(p=17, values=[6, 6, 6, 6, 6, 6])
@example(p=17, values=[1])  # half length 9 < p: the numerator is just 1
@example(p=13, values=[0] * 11 + [1])  # index 12 past the numerator length 6
@example(p=31, values=[2, 1, 1, 1, 2])
def test_transform_matches_the_sliding_window_oracle(p, values):
    a = DimensionSequence.from_values(p, values)
    coeffs = [1]
    for n, an in a.entries:
        for _ in range(an):
            coeffs = _sliding_window_factor(coeffs, n, p)
    c = [0]
    for v in coeffs:
        c.append(c[-1] + v)
    data = jennings_transform(a)
    assert data.b == tuple(coeffs)
    assert data.c == tuple(c)
    assert data.b == data.b[::-1]
