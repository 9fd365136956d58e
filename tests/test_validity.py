"""Validity reports, the defect recursion, and the exact two-sided
evaluation of the counting identity.

Frozen oracles: the order-3 cyclic defect tail (0,0,0,0,1,2,2,...) was
verified against the group-algebra kernel computation; the identity value
5/8 at t = 1/2 is worked by hand in the test body.
"""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gstower.group_lab import augmentation_powers, build_group
from gstower.gs_check import RelationProfile
from gstower.jennings import DimensionSequence, jennings_transform
from gstower.validity import (
    NotStabilizedError,
    default_profile,
    defect_recursion,
    gs_equality_eval,
    is_valid,
    mildness_defect,
    stabilized_defect,
)

F = Fraction

P17_EXAMPLE = [2, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 5, 7, 5, 4]

CYCLIC3_PROFILE = RelationProfile(1, (3,))
CYCLIC3_A = DimensionSequence.from_values(3, [1])
CYCLIC3_C = (0, 1, 2, 3)


def test_default_profile_is_two_generators_levels_3_7():
    prof = default_profile()
    assert prof.d == 2
    assert prof.levels == (3, 7)


class TestESequence:
    def test_cyclic_3_defects(self):
        # c = (0,1,2,3,3,3,...); e_n = c_n + c_{n-3} - c_{n-1} - 1
        e = defect_recursion(CYCLIC3_C, 1, (3,), 10)
        assert e == (0, 0, 0, 0, 1, 2, 2, 2, 2, 2)

    def test_terminal_value(self):
        assert stabilized_defect(CYCLIC3_PROFILE, 3) == 2
        # two relations, two generators: (2+1-2)*order - 1
        assert stabilized_defect(default_profile(), 17 ** 50) == 17 ** 50 - 1

    def test_short_horizon(self):
        assert defect_recursion(CYCLIC3_C, 1, (3,), 1) == (0,)
        assert defect_recursion(CYCLIC3_C, 1, (3,), 0) == ()
        assert defect_recursion(CYCLIC3_C, 1, (3,), -2) == ()


class TestIsValid:
    def test_published_example_is_valid(self):
        a = DimensionSequence.from_values(17, P17_EXAMPLE)
        report = is_valid(a)
        assert report.valid
        assert report.verdict == "VALID"
        assert report.order_exponent == 50
        assert report.c_limit == 17 ** 50
        assert report.e_limit == 17 ** 50 - 1
        assert report.first_failure is None
        assert report.caps_ok and report.e_nonnegative and report.stabilized

    def test_early_defect_failure(self):
        # a = {a_1 = 2} at p = 11: e_3 = c_3 - 2 c_2 + c_0 + c_{-4} - 1
        #                              = 6 - 2*3 + 0 + 0 - 1 = -1
        a = DimensionSequence.from_values(11, [2])
        report = is_valid(a)
        assert not report.valid
        assert report.first_failure == "e_3 = -1 is negative"

    def test_cap_failure_reported_first(self):
        a = DimensionSequence.from_values(17, [3])
        report = is_valid(a)
        assert not report.valid
        assert "cap" in report.first_failure

    def test_caps_not_asserted_for_other_profiles(self):
        # a_1 = 3 breaks the two-generator caps, but with d = 3 the cap
        # table does not apply; failure, if any, must come from the
        # recursion itself
        a = DimensionSequence.from_values(17, [3])
        report = is_valid(a, RelationProfile(3, (3, 7, 7)))
        assert report.first_failure is None or "cap" not in report.first_failure

    def test_report_is_reproducible(self):
        a = DimensionSequence.from_values(17, P17_EXAMPLE)
        assert is_valid(a) == is_valid(a)

    @settings(deadline=None, max_examples=60)
    @given(
        p=st.sampled_from([3, 5, 7, 11]),
        entries=st.dictionaries(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=3),
            min_size=1,
            max_size=3,
        ),
        d=st.integers(min_value=0, max_value=4),
        levels=st.lists(st.integers(min_value=2, max_value=7), max_size=3),
        margin=st.integers(min_value=1, max_value=5),
    )
    def test_the_tail_is_e_limit(self, p, entries, d, levels, margin):
        # why ValidityReport.stabilized is always True: past N + max(levels,
        # 1), every c of the recursion is the order
        a = DimensionSequence.from_dict(p, entries)
        profile = RelationProfile(d, tuple(levels))
        report = is_valid(a, profile, horizon_margin=margin)
        n_stab = jennings_transform(a).stabilization_index
        tail = report.e[n_stab + max(profile.max_level, 1):]
        assert len(tail) == margin
        assert set(tail) == {report.e_limit}
        assert report.stabilized

    def test_horizon_margin_guard(self):
        a = DimensionSequence.from_values(17, P17_EXAMPLE)
        with pytest.raises(ValueError):
            is_valid(a, horizon_margin=0)


class TestEqualityEval:
    def test_cyclic_3_at_one_half(self):
        # lhs = 1 - 1/2 + (1/2)^3 = 5/8
        lhs, rhs = gs_equality_eval(CYCLIC3_A, CYCLIC3_PROFILE, F(1, 2))
        assert lhs == F(5, 8)
        assert rhs == F(5, 8)

    def test_cyclic_3_at_several_points(self):
        for t in (F(1, 4), F(1, 3), F(2, 5), F(9, 10)):
            lhs, rhs = gs_equality_eval(CYCLIC3_A, CYCLIC3_PROFILE, t)
            assert lhs == rhs

    def test_limit_convention_at_zero(self):
        lhs, rhs = gs_equality_eval(CYCLIC3_A, CYCLIC3_PROFILE, F(0))
        assert lhs == 1 and rhs == 1

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            gs_equality_eval(CYCLIC3_A, CYCLIC3_PROFILE, F(1))
        with pytest.raises(ValueError):
            gs_equality_eval(CYCLIC3_A, CYCLIC3_PROFILE, F(-1, 2))

    def test_published_example_equality(self):
        a = DimensionSequence.from_values(17, P17_EXAMPLE)
        lhs, rhs = gs_equality_eval(a, default_profile(), F(1, 2))
        assert lhs == rhs

    def test_supplied_consistent_sequences_accepted(self):
        data = jennings_transform(CYCLIC3_A)
        horizon = 12
        c = tuple(data.c_at(n) for n in range(horizon + 1))
        e = defect_recursion(c, 1, (3,), horizon)
        lhs, rhs = gs_equality_eval(CYCLIC3_A, CYCLIC3_PROFILE, F(1, 2), c=c, e=e)
        assert lhs == rhs == F(5, 8)

    def test_perturbed_defects_rejected(self):
        data = jennings_transform(CYCLIC3_A)
        horizon = 12
        c = tuple(data.c_at(n) for n in range(horizon + 1))
        e = list(defect_recursion(c, 1, (3,), horizon))
        e[-1] += 1
        with pytest.raises(NotStabilizedError):
            gs_equality_eval(CYCLIC3_A, CYCLIC3_PROFILE, F(1, 2), c=c, e=tuple(e))

    @settings(deadline=None, max_examples=40)
    @given(
        entries=st.dictionaries(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=2),
            min_size=1,
            max_size=3,
        ),
        num=st.integers(min_value=1, max_value=9),
        d=st.integers(min_value=1, max_value=3),
        levels=st.lists(st.integers(min_value=2, max_value=6), max_size=3),
    )
    def test_identity_holds_for_arbitrary_data(self, entries, num, d, levels):
        # the two sides agree identically whenever c and e come from the
        # same dimension sequence, whatever the profile; this is a pure
        # rearrangement of the counting recursion
        a = DimensionSequence.from_dict(3, entries)
        profile = RelationProfile(d, tuple(levels))
        t = F(num, 10)
        lhs, rhs = gs_equality_eval(a, profile, t)
        assert lhs == rhs


class TestMildness:
    def test_free_prefix_has_zero_defects(self):
        # a = (2,1,2) matches the rank-2 free filtration through n = 4,
        # so the first defects vanish
        a = DimensionSequence.from_values(5, [2, 1, 2])
        defects = mildness_defect(a, RelationProfile(2, ()), horizon=4)
        assert defects == (0, 0, 0, 0)

    def test_departure_is_visible(self):
        a = DimensionSequence.from_values(5, [2, 1, 2])
        defects = mildness_defect(a, RelationProfile(2, ()), horizon=6)
        assert defects[4] != 0

    def test_relator_profile_shifts_defects(self):
        defects = mildness_defect(CYCLIC3_A, CYCLIC3_PROFILE, horizon=8)
        assert defects == (0, 0, 0, 0, 1, 2, 2, 2)


def _per_index_recursion(c_at, d, levels, horizon):
    """Oracle: e_n from c_at calls for every n and every level."""
    out = []
    for n in range(1, horizon + 1):
        v = c_at(n) - d * c_at(n - 1) - 1
        for k in levels:
            v += c_at(n - k)
        out.append(v)
    return tuple(out)


def _measured(kind, p):
    """A measured codimension tuple and its per-index reading."""
    c = augmentation_powers(build_group(kind, p))

    def c_at(n):
        if n <= 0:
            return 0
        return c[min(n, len(c) - 1)]

    return c, c_at


_CYCLIC3 = jennings_transform(CYCLIC3_A)
_TUPLES = {
    **{(kind, p): _measured(kind, p)
       for kind, p in (("cyclic:2", 2), ("heisenberg", 3), ("elemab:2", 3))},
    # runs past N + 1 = 3 with trailing order entries, the shape that
    # gs_equality_eval(c=...) accepts
    ("cyclic:1 to c_12", 3): (
        tuple(_CYCLIC3.c_at(n) for n in range(13)), _CYCLIC3.c_at
    ),
}


@settings(deadline=None, max_examples=150)
@given(
    source=st.one_of(
        st.sampled_from(sorted(_TUPLES)),
        st.tuples(
            st.sampled_from([2, 3, 5, 7]),
            st.lists(st.integers(min_value=0, max_value=3), max_size=5),
        ),
    ),
    d=st.integers(min_value=0, max_value=3),
    levels=st.one_of(
        st.just(()),
        st.just((3, 3, 3)),
        st.lists(st.integers(min_value=2, max_value=60), max_size=4).map(tuple),
    ),
    horizon=st.integers(min_value=-5, max_value=40),
)
@example(source=(3, [1]), d=2, levels=(50,), horizon=10)
@example(source=(3, [1]), d=2, levels=(3, 3, 3), horizon=10)
@example(source=("heisenberg", 3), d=2, levels=(2, 45, 45), horizon=10)
@example(source=(3, [1]), d=2, levels=(), horizon=0)
@example(source=(3, [1]), d=2, levels=(7,), horizon=-3)
@example(source=("cyclic:1 to c_12", 3), d=1, levels=(3,), horizon=5)
@example(source=("cyclic:1 to c_12", 3), d=1, levels=(3,), horizon=20)
@example(source=("cyclic:1 to c_12", 3), d=1, levels=(3,), horizon=-5)
def test_defect_recursion_matches_the_per_index_loop(source, d, levels, horizon):
    if isinstance(source[0], str):
        c, c_at = _TUPLES[source]
    else:
        data = jennings_transform(DimensionSequence.from_values(*source))
        c, c_at = data.c, data.c_at
    assert defect_recursion(c, d, levels, horizon) == _per_index_recursion(
        c_at, d, levels, horizon
    )
