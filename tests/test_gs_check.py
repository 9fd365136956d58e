"""Presentation inequality checks, level-pair classification, thresholds."""
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gstower import gs_check, series
from gstower.gs_check import (
    CheckMode,
    InvalidHypothesisError,
    RelationProfile,
    check_inequality,
    classify_ztypes,
    gs_lhs_poly,
    medgs_threshold,
    medgs_violation_sample,
    relaxed_product_poly,
    strict_corollary_check,
    ztype_pair_poly,
)
from gstower.jennings import DimensionSequence, pn_inverse_poly
from gstower.series import (
    DescartesCertificate,
    ExactPoly,
    PositivityReport,
    Verdict,
    ZeroPolynomialError,
)

F = Fraction

# every HOLDS certificate met in this module is replayed by gstower.certify
pytestmark = pytest.mark.usefixtures("holds_are_certified")


class TestRelationProfile:
    def test_levels_sorted_and_counted(self):
        prof = RelationProfile(2, (7, 3, 3))
        assert prof.levels == (3, 3, 7)
        assert prof.r == 3
        assert prof.max_level == 7

    def test_from_counts(self):
        prof = RelationProfile.from_counts(2, {3: 1, 7: 1})
        assert prof.levels == (3, 7)

    def test_level_below_2_rejected(self):
        with pytest.raises(ValueError):
            RelationProfile(2, (1,))

    def test_empty_profile_allowed(self):
        prof = RelationProfile(2, ())
        assert prof.r == 0
        assert prof.max_level == 0


def test_lhs_poly():
    # d = 2, levels (3, 7): 1 - 2t + t^3 + t^7
    coeffs = gs_lhs_poly(RelationProfile(2, (3, 7))).coeffs
    assert [int(c) for c in coeffs] == [1, -2, 0, 1, 0, 0, 0, 1]


def test_ztype_pair_poly_is_the_lhs():
    assert ztype_pair_poly(3, 5).coeffs == gs_lhs_poly(RelationProfile(2, (3, 5))).coeffs


def test_relaxed_product_poly():
    # a = {a_1 = 2}: (1 - t)^2 = 1 - 2t + t^2
    a = DimensionSequence.from_values(11, [2])
    assert [int(c) for c in relaxed_product_poly(a).coeffs] == [1, -2, 1]


@settings(deadline=None, max_examples=60)
@given(
    entries=st.dictionaries(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=5),
        max_size=5,
    )
)
@example(entries={})  # the empty product is 1
@example(entries={2: 3, 7: 1})  # gaps in the support
@example(entries={1: 2, 5: 4, 11: 2})
def test_relaxed_product_poly_is_the_product_of_its_factors(entries):
    a = DimensionSequence.from_dict(11, entries)
    expected = ExactPoly.one()
    for n, an in entries.items():
        expected = expected * ExactPoly.from_coeffs([1] + [0] * (n - 1) + [-1]) ** an
    assert relaxed_product_poly(a) == expected


class TestZtypeClassification:
    def test_exactly_three_pairs_survive(self):
        assert classify_ztypes(21) == {(3, 3), (3, 5), (3, 7)}

    def test_stable_for_larger_and_even_horizons(self):
        expected = {(3, 3), (3, 5), (3, 7)}
        assert classify_ztypes(9) == expected
        assert classify_ztypes(10) == expected
        assert classify_ztypes(31) == expected

    def test_horizon_below_9_rejected(self):
        with pytest.raises(ValueError):
            classify_ztypes(7)

    def test_individual_verdicts(self):
        from gstower.series import positive_on_open_unit_interval

        for pair in [(3, 3), (3, 5), (3, 7)]:
            assert positive_on_open_unit_interval(ztype_pair_poly(*pair)).holds
        for pair in [(3, 9), (5, 5), (5, 7), (9, 9)]:
            report = positive_on_open_unit_interval(ztype_pair_poly(*pair))
            assert report.verdict is Verdict.VIOLATED
            assert ztype_pair_poly(*pair)(report.witness) <= 0


def test_check_inequality_exact_vs_relaxed():
    # the a_1 = 2 start is violated in both senses at p = 11
    profile = RelationProfile(2, (3, 7))
    a = DimensionSequence.from_values(11, [2])
    relaxed = check_inequality(profile, a, CheckMode.RELAXED)
    exact = check_inequality(profile, a, CheckMode.EXACT)
    assert relaxed.verdict is Verdict.VIOLATED
    assert exact.verdict is Verdict.VIOLATED


def test_check_inequality_holds_for_cyclic_data():
    # d = 1, one level-3 relation, a = {a_1 = 1} at p = 3: the order-3
    # cyclic group data satisfies the exact inequality
    profile = RelationProfile(1, (3,))
    a = DimensionSequence.from_values(3, [1])
    assert check_inequality(profile, a, CheckMode.EXACT).holds


def test_exact_holds_certificate_is_pinned():
    # (0, 1/2) is one leaf; (1/2, 1) splits into (1/2, 5/8), (5/8, 3/4)
    # and (3/4, 1).  f = t^2 h with h of degree 39, negative at t^3 to
    # t^11; the heads of degree 12 and 24 do not settle at depth 2, and
    # 48 is past the degree, so the proof is on all of h.
    profile = RelationProfile(2, (3, 7))
    a = DimensionSequence.from_values(3, [2, 3, 3])
    report = check_inequality(profile, a, CheckMode.EXACT)
    assert report.certificate == DescartesCertificate(
        leaves=((1, 0), (3, 4), (3, 5), (2, 3)),
        head_degree=39, k0=2, k1=0,
    )


#: the published p = 11 minimum of the relaxed search, levels (3, 7)
P11_PROFILE = RelationProfile(2, (3, 7))
P11_MINIMUM = DimensionSequence.from_values(11, [2, 1, 1, 1, 2, 2, 3, 5, 6])


def _timed(decide):
    started = time.perf_counter()
    report = decide()
    return report, time.perf_counter() - started


# The budgets include replaying each certificate (holds_are_certified).

# f = t^8 h, times (1 - t) in strict mode.  In exact mode h is
# 2 + 2t - 4t^2 - 8t^3 - 5t^4 - 7t^5 - 5t^6 - 4t^7 + 4t^8 + 11t^9 + ...,
# with its last negative coefficient at t^7, and every later one >= 0.
# So the heads tried have degree 8, 16 and 32.  The head of degree 8 is
# 2 + 2 - 4 - 8 - 5 - 7 - 5 - 4 + 4 = -25 at t = 1, below 0, so it has a
# root in (1/2, 1); the right half of the head of degree 16 still has two
# sign variations at depth 2; the head of degree 32 has none on either
# half.  In strict mode the last negative coefficient is at t^9, and the
# head of degree 40 settles the same way.  No scan runs, and the root
# transform of h (degree 1479 and 2958) is never taken.

def test_published_p11_minimum_holds_in_exact_mode_within_budget(scan_calls):
    report, seconds = _timed(lambda: check_inequality(P11_PROFILE, P11_MINIMUM, CheckMode.EXACT))
    assert report.holds
    assert (report.certificate.head_degree, report.certificate.leaves) == (32, ((1, 0), (1, 1)))
    assert (report.certificate.k0, report.certificate.k1) == (8, 0)
    assert scan_calls == []
    assert seconds < 1.0


def test_published_p11_minimum_holds_in_strict_mode_within_budget(scan_calls):
    report, seconds = _timed(lambda: strict_corollary_check(P11_PROFILE, P11_MINIMUM))
    assert report.holds
    assert (report.certificate.head_degree, report.certificate.leaves) == (40, ((1, 0), (1, 1)))
    assert (report.certificate.k0, report.certificate.k1) == (8, 1)
    assert scan_calls == []
    assert seconds < 5.0


@pytest.mark.parametrize("p", [23, 31])
@pytest.mark.parametrize("mode, head_degree", [("exact", 16), ("strict", 20)])
def test_published_minimum_at_larger_p_holds_on_a_short_head_within_budget(
        p, mode, head_degree, scan_calls, monkeypatch):
    # The same sequence and levels.  h has degree 3255 (exact) and 6510
    # (strict) at p = 23, 4439 and 8878 at p = 31; its last negative
    # coefficient is at t^7 or t^9 as at p = 11, and the heads of degree
    # 16 and 20, the second tried, settle.  Nothing past the head is
    # evaluated: neither h nor f is read at 1/2, and the certificate
    # carries no value.
    a = DimensionSequence.from_values(p, [2, 1, 1, 1, 2, 2, 3, 5, 6])
    lengths = []
    ieval = series._ieval_scaled
    monkeypatch.setattr(series, "_ieval_scaled",
                        lambda q, t: lengths.append(len(q)) or ieval(q, t))
    monkeypatch.setattr(ExactPoly, "__call__", lambda f, t: pytest.fail("f evaluated"))
    if mode == "exact":
        report, seconds = _timed(lambda: check_inequality(P11_PROFILE, a, CheckMode.EXACT))
    else:
        report, seconds = _timed(lambda: strict_corollary_check(P11_PROFILE, a))
    assert report.holds
    assert report.certificate.head_degree == head_degree
    assert lengths and max(lengths) <= head_degree + 1
    assert scan_calls == []
    assert seconds < 0.5


@pytest.mark.parametrize("mode, head_lengths", [("exact", [17, 33]), ("strict", [21, 41])])
def test_a_violated_target_past_one_half_takes_no_transform_of_h(
        mode, head_lengths, monkeypatch):
    # a_9 = 5, one below the p = 11 minimum, is VIOLATED, first at 4/7 in
    # the scan of denominators up to 12.  Its heads are walked first and
    # do not settle, but h itself (1390 coefficients in exact mode, 2779
    # in strict) is never transformed: the scan runs before its walk.
    # witness_value is f(4/7) in closed form: J(t) = prod_n ((1 - t^(11n))
    # / (1 - t^n))^(a_n) of degree N = 10 * sum(n a_n) = 1390, and the
    # strict slack (1 - d + r)(1 - 11^-22) t^(N + 7), with 1 - d + r = 1
    # and 22 = sum(a_n).
    a = DimensionSequence.from_values(11, [2, 1, 1, 1, 2, 2, 3, 5, 5])
    lengths = []
    transform = series._descartes_transform
    monkeypatch.setattr(series, "_descartes_transform",
                        lambda q: lengths.append(len(q)) or transform(q))
    if mode == "exact":
        report = check_inequality(P11_PROFILE, a, CheckMode.EXACT)
    else:
        report = strict_corollary_check(P11_PROFILE, a)
    t = F(4, 7)
    jennings = 1
    for n, a_n in a.entries:
        jennings *= ((1 - t ** (11 * n)) / (1 - t ** n)) ** a_n
    lhs = 1 - 2 * t + t ** 3 + t ** 7
    if mode == "strict":
        lhs -= (1 - F(1, 11 ** 22)) * t ** (1390 + 7)
    assert (report.verdict, report.witness, report.witness_value) == \
        (Verdict.VIOLATED, t, lhs * jennings - 1)
    assert lengths == head_lengths


def _decide(mode, profile, a):
    if mode == "strict":
        return strict_corollary_check(profile, a)
    return check_inequality(profile, a, CheckMode(mode.upper()))


def _expanded_target(mode, profile, a):
    """The target as ExactPoly products and a Fraction slack: the oracle
    for the value at 1/2 read from the product form and for the target
    built as one integer list."""
    lhs = gs_lhs_poly(profile)
    if mode == "relaxed":
        product = ExactPoly.one()
        for n, an in a.entries:
            product = product * ExactPoly.from_coeffs([1] + [0] * (n - 1) + [-1]) ** an
        return lhs - product
    jp = ExactPoly.one()
    for n, an in a.entries:
        jp = jp * pn_inverse_poly(n, a.prime) ** an
    if mode == "strict":
        slack = (1 - profile.d + profile.r) * (1 - F(1, a.prime ** a.order_exponent))
        lhs = lhs - ExactPoly.monomial(jp.degree + profile.max_level, slack)
    return lhs * jp - ExactPoly.one()


@settings(deadline=None, max_examples=120)
@given(
    mode=st.sampled_from(["relaxed", "exact", "strict"]),
    p=st.sampled_from([2, 3, 5, 7]),
    d=st.integers(min_value=0, max_value=4),
    levels=st.lists(st.integers(min_value=2, max_value=9), max_size=5),
    entries=st.dictionaries(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=2),
        max_size=3,
    ),
)
@example(mode="exact", p=3, d=2, levels=[3, 7], entries={})  # empty a
@example(mode="strict", p=3, d=2, levels=[3, 7], entries={})  # no slack: p^0 - 1 = 0
@example(mode="exact", p=5, d=2, levels=[3, 7], entries={2: 2, 5: 1})  # gapped support
@example(mode="strict", p=5, d=2, levels=[3, 7], entries={1: 2, 4: 1})  # r = d
@example(mode="relaxed", p=3, d=2, levels=[], entries={1: 1})  # r = 0
@example(mode="strict", p=3, d=0, levels=[], entries={1: 1, 2: 1})  # r = d = 0
@example(mode="exact", p=3, d=0, levels=[], entries={})  # the zero target
@example(mode="relaxed", p=3, d=3, levels=[3, 3, 3], entries={1: 1, 2: 1})
def test_value_at_one_half_and_integer_target_match_the_expanded_target(
        mode, p, d, levels, entries):
    # Negative at 1/2 is the VIOLATED report the decider gives first, and
    # then no target is built; else the decider gets exactly the oracle's
    # normalized target.
    if mode == "strict":
        d = min(d, len(levels))
    profile = RelationProfile(d, tuple(levels))
    a = DimensionSequence.from_dict(p, entries)
    expected = _expanded_target(mode, profile, a)
    at_half = expected(F(1, 2))
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gs_check, "positive_on_open_unit_interval", built.append)
        report = _decide(mode, profile, a)
    if built:
        assert built == [expected]
        assert at_half >= 0
    else:
        assert report == PositivityReport(Verdict.VIOLATED, F(1, 2), at_half)
        assert at_half < 0


@settings(deadline=None, max_examples=150)
@given(
    d=st.integers(min_value=0, max_value=4),
    levels=st.lists(st.integers(min_value=2, max_value=9), max_size=5),
    entries=st.dictionaries(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
        max_size=3,
    ),
    t=st.integers(min_value=2, max_value=24).flatmap(
        lambda v: st.integers(min_value=1, max_value=v - 1).map(lambda u: F(u, v))),
)
@example(d=3, levels=[3, 3, 3], entries={1: 1, 2: 1}, t=F(1, 2))  # negative at 1/2
@example(d=2, levels=[3, 7], entries={1: 2, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2}, t=F(5, 9))
@example(d=1, levels=[], entries={1: 1}, t=F(1, 3))  # the zero target
def test_relaxed_value_at_a_point_is_the_scaled_relaxed_target(d, levels, entries, t):
    # v^(m+W) (lhs - relaxed product)(u/v) for reduced u/v, in integers;
    # negative at 1/2, it is the VIOLATED value check_inequality reports
    profile = RelationProfile(d, tuple(levels))
    a = DimensionSequence.from_dict(7, entries)
    lhs = gs_lhs_poly(profile)
    v = t.denominator
    assert gs_check.lhs_at(profile, t) == (v ** lhs.degree * lhs(t), v ** lhs.degree)
    scale = v ** (lhs.degree + a.weighted_degree)
    assert gs_check.relaxed_at(profile, a, t) == scale * (lhs - relaxed_product_poly(a))(t)
    at_half = F(gs_check.relaxed_at(profile, a, F(1, 2)), 2 ** (lhs.degree + a.weighted_degree))
    assert at_half == (lhs - relaxed_product_poly(a))(F(1, 2))
    if at_half < 0:
        report = check_inequality(profile, a, CheckMode.RELAXED)
        assert report == PositivityReport(Verdict.VIOLATED, F(1, 2), at_half)


#: d = 3 and three relations at level 3 fail at 1/2 in every mode
NEGATIVE_AT_HALF = RelationProfile(3, (3, 3, 3)), DimensionSequence.from_values(3, [1, 1])


@pytest.mark.parametrize("mode, value", [
    ("relaxed", F(-1, 2)), ("exact", F(-659, 512)), ("strict", F(-15865, 12288)),
])
def test_a_target_negative_at_one_half_is_decided_without_expanding_it(mode, value, monkeypatch):
    def refuse(*args):
        raise AssertionError("a target negative at 1/2 was expanded")

    monkeypatch.setattr(gs_check, "jennings_transform", refuse)
    monkeypatch.setattr(gs_check, "positive_on_open_unit_interval", refuse)
    report = _decide(mode, *NEGATIVE_AT_HALF)
    assert report == PositivityReport(Verdict.VIOLATED, F(1, 2), value)


@pytest.mark.parametrize("mode, d, values", [
    ("exact", 0, []),  # 1 * 1 - 1
    ("relaxed", 1, [1]),  # lhs = 1 - t equals the product
    ("strict", 0, []),  # the slack (1 - 0 + 0)(1 - p^0) is 0
])
def test_the_zero_target_reaches_the_decider_and_raises(mode, d, values):
    # its value at 1/2 is 0, not negative, so no verdict is read there
    with pytest.raises(ZeroPolynomialError):
        _decide(mode, RelationProfile(d, ()), DimensionSequence.from_values(3, values))


def test_feasible_sequence_passes_relaxed():
    # the minimal p = 11 sequence found by the search
    profile = RelationProfile(2, (3, 7))
    a = DimensionSequence.from_values(11, [2, 1, 1, 1, 2, 2, 3, 5, 6])
    assert check_inequality(profile, a, CheckMode.RELAXED).holds


@settings(deadline=None, max_examples=30)
@given(
    entries=st.dictionaries(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
        max_size=4,
    )
)
@example(entries={1: 2, 2: 2, 3: 2})  # strict HOLDS, so all three do
def test_exact_implies_relaxed(entries):
    # strict => exact => relaxed.  For r >= d the strict slack term
    # (1 - d + r)(1 - p^-A) t^(N+m) * jennings_poly is >= 0 on (0,1), so
    # clearing the strict bar clears the exact one.  Pointwise on (0,1)
    # the reciprocal expansion bound sits above the bare product
    # (1-t^n)^(a_n), so clearing the exact bar clears the relaxed one;
    # the greedy search relies on the contrapositive
    profile = RelationProfile(2, (3, 7))
    a = DimensionSequence.from_dict(11, entries)
    strict = strict_corollary_check(profile, a)
    exact = check_inequality(profile, a, CheckMode.EXACT)
    relaxed = check_inequality(profile, a, CheckMode.RELAXED)
    assert exact.holds or not strict.holds
    assert relaxed.holds or not exact.holds


class TestThresholds:
    def test_published_values(self):
        assert medgs_threshold(2, 2) == 1
        assert medgs_threshold(3, 3) == 4
        assert medgs_threshold(2, 3) == F(32, 27)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            medgs_threshold(0, 2)
        with pytest.raises(ValueError):
            medgs_threshold(2, 1)

    @pytest.mark.parametrize("d, m, r", [(0, 3, 1), (-1, 3, 1), (2, 1, 1), (2, 3, 0)])
    def test_violation_sample_bad_arguments(self, d, m, r):
        # d = 0 used to give the point 0, d < 0 a complex float root, and
        # m = 1 or r = 0 a division by zero
        with pytest.raises(ValueError):
            medgs_violation_sample(d, m, r)

    def test_violation_sample_below_threshold(self):
        # r = 3 <= 4 = threshold(3,3): the sampled point must certify
        # 1 - 3t + 3t^3 <= 0 somewhere, so finiteness is ruled out
        t, value = medgs_violation_sample(3, 3, 3)
        assert 0 < t < 1
        assert value <= 0

    def test_no_violation_above_threshold(self):
        # r = 5 > 4: the polynomial is strictly positive even at the
        # would-be minimizer
        _, value = medgs_violation_sample(3, 3, 5)
        assert value > 0


class TestStrictCorollary:
    def test_cyclic_3_holds(self):
        profile = RelationProfile(1, (3,))
        a = DimensionSequence.from_values(3, [1])
        assert strict_corollary_check(profile, a).holds

    def test_requires_r_at_least_d(self):
        profile = RelationProfile(3, (3, 3))
        a = DimensionSequence.from_values(3, [1])
        with pytest.raises(InvalidHypothesisError):
            strict_corollary_check(profile, a)

    def test_published_certificate_is_pinned(self):
        # strict --p 3 --d 1 --levels 3 --a 1: the target is
        # (1 - t + t^3 - (2/3) t^5)(1 + t + t^2) - 1
        #   = (1/3) t^4 (1 - t)(3 + 4t + 2t^2),
        # and h = 3 + 4t + 2t^2 has positive coefficients, so its head of
        # degree 0, the constant 3, lies below it on (0, 1), and (0, 1) is
        # the one leaf.
        report = strict_corollary_check(
            RelationProfile(1, (3,)), DimensionSequence.from_values(3, [1])
        )
        assert report.certificate == DescartesCertificate(
            leaves=((0, 0),), head_degree=0, k0=4, k1=1,
        )
