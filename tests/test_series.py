"""Exact polynomial arithmetic and the positivity decision procedure.

Oracle values are worked by hand in the comments; nothing here depends on
the modules under test for its expected numbers.
"""
import sys
import time
from fractions import Fraction
from math import comb, gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gstower import series
from gstower.series import (
    DescartesCertificate,
    ExactPoly,
    NoRationalWitnessError,
    Verdict,
    ZeroPolynomialError,
    _bernstein,
    _de_casteljau,
    _descartes_transform,
    _descartes_walk,
    _idiv_exact,
    _ieval_scaled,
    _imul,
    _iprimitive,
    _split,
    _strip_unit_interval_roots,
    positive_on_open_unit_interval,
)
from sturm_oracle import _sturm_chain, sturm_isolating_intervals, sturm_positivity
from taylor_walk_oracle import taylor_walk

# every HOLDS certificate met in this module is replayed by gstower.certify
pytestmark = pytest.mark.usefixtures("holds_are_certified")

F = Fraction


def P(*coeffs) -> ExactPoly:
    return ExactPoly.from_coeffs([F(c) for c in coeffs])


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_multiplication_matches_hand_convolution():
    # (1 + 2t)(3 - t + t^2):
    #   t^0: 1*3 = 3
    #   t^1: 1*(-1) + 2*3 = 5
    #   t^2: 1*1 + 2*(-1) = -1
    #   t^3: 2*1 = 2
    assert (P(1, 2) * P(3, -1, 1)).coeffs == (F(3), F(5), F(-1), F(2))


def test_addition_and_subtraction():
    assert (P(1, 2, 3) + P(0, -2)).coeffs == (F(1), F(0), F(3))
    assert (P(1, 2, 3) - P(1, 2, 3)).degree == -1


def test_degree_and_trailing_zero_normalization():
    assert P(1, 0, 0).degree == 0
    assert P(0).degree == -1
    assert ExactPoly(()).degree == -1
    assert P(0, 0, 5).degree == 2


def test_power():
    # (1 + t)^4 = 1 + 4t + 6t^2 + 4t^3 + t^4
    assert (P(1, 1) ** 4).coeffs == (F(1), F(4), F(6), F(4), F(1))
    assert (P(2, 1) ** 0).coeffs == (F(1),)


def test_evaluation_is_exact():
    # f = 2t^3 - 2t + 1:  f(1/2) = 1/4 - 1 + 1 = 1/4
    #                     f(1/3) = 2/27 - 2/3 + 1 = 11/27
    f = P(1, -2, 0, 2)
    assert f(F(1, 2)) == F(1, 4)
    assert f(F(1, 3)) == F(11, 27)
    assert f(F(0)) == 1
    assert f(F(1)) == 1


def test_monomial_constructor():
    m = ExactPoly.monomial(3, F(5, 7))
    assert m.coeffs == (F(0), F(0), F(0), F(5, 7))


@given(
    st.lists(st.fractions(max_denominator=30), max_size=6),
    st.lists(st.fractions(max_denominator=30), max_size=6),
    st.fractions(max_denominator=50),
)
def test_arithmetic_commutes_with_evaluation(cs1, cs2, x):
    f = ExactPoly.from_coeffs(cs1)
    g = ExactPoly.from_coeffs(cs2)
    assert (f + g)(x) == f(x) + g(x)
    assert (f * g)(x) == f(x) * g(x)
    assert (f - g)(x) == f(x) - g(x)
    assert (f + g) - g == f  # the normalized form compares by value


# ---------------------------------------------------------------------------
# positivity on the open unit interval
# ---------------------------------------------------------------------------

def test_positive_despite_interior_dip(scan_calls):
    # 2t^3 - 2t + 1 dips to 1 - 4/(3*sqrt(3)) ~ 0.2302 near t ~ 0.577 but
    # stays positive.  On (0, 1), with q_j the coefficients,
    #   sum q_j (1 + x)^(3 - j) = (1+x)^3 - 2(1+x)^2 + 2 = x^3 + x^2 - x + 1
    # has two variations, so bisect.  Left half 8 q(x/2) = 2x^3 - 8x + 8:
    #   8(1+x)^3 - 8(1+x)^2 + 2 = 8x^3 + 16x^2 + 8x + 2.
    # Right half, its shift 2x^3 + 6x^2 - 2x + 2:
    #   2(1+x)^3 - 2(1+x)^2 + 6(1+x) + 2 = 2x^3 + 4x^2 + 8x + 8.
    # Neither half has a variation.  f(1/2) = 1/4 - 1 + 1 = 1/4.  The
    # root's variations send h through the scan of denominators up to 12
    # first; the walk then ends at depth 1 without a root, so the scan
    # of the larger denominators never runs.  The one head tried, past the
    # last negative coefficient, is 1 - 2t + 0t^2, negative at t = 1, so
    # the proof is on h itself, of degree 3.
    report = positive_on_open_unit_interval(P(1, -2, 0, 2))
    assert report.verdict is Verdict.HOLDS
    assert report.certificate == DescartesCertificate(
        leaves=((1, 0), (1, 1)), sample_point=F(1, 2), sample_value=F(1, 4),
        head_degree=3, k0=0, k1=0,
    )
    assert [dens for _, *dens in scan_calls] == [[3, 12]]


def test_violated_with_rational_witness():
    # t^3 + t - 1 is negative at 1/2: 1/8 + 1/2 - 1 = -3/8
    f = P(-1, 1, 0, 1)
    report = positive_on_open_unit_interval(f)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness is not None
    assert 0 < report.witness < 1
    assert f(report.witness) <= 0
    assert report.witness_value == f(report.witness)


def test_trivially_positive():
    assert positive_on_open_unit_interval(P(1, 0, 1)).holds


def test_endpoint_zeros_are_ignored():
    # t - t^2 = t(1 - t) vanishes only at the endpoints.
    assert positive_on_open_unit_interval(P(0, 1, -1)).holds


def test_interior_touch_point_is_a_violation():
    # (2t - 1)^2 = 4t^2 - 4t + 1 is zero at 1/2, so not strictly positive.
    f = P(1, -4, 4)
    report = positive_on_open_unit_interval(f)
    assert report.verdict is Verdict.VIOLATED
    assert f(report.witness) == 0


def test_negative_constant_polynomial():
    report = positive_on_open_unit_interval(P(-3))
    assert report.verdict is Verdict.VIOLATED
    assert report.witness_value == -3


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        positive_on_open_unit_interval(P(0))


def test_irrational_touch_point_has_no_rational_witness():
    # 4t^4 - 4t^2 + 1 = (2t^2 - 1)^2 touches zero only at 1/sqrt(2); every
    # rational point evaluates positive, so no exact witness can exist.
    with pytest.raises(NoRationalWitnessError):
        positive_on_open_unit_interval(P(1, 0, -4, 0, 4))


def test_huge_constant_does_not_slow_the_irrational_touch_point():
    # (2t^2 - 1)^2 (10^30 + t): the rational-root search must not factor
    # the 31-digit constant coefficient before giving up.
    started = time.perf_counter()
    with pytest.raises(NoRationalWitnessError):
        positive_on_open_unit_interval(P(-1, 0, 2) ** 2 * P(10 ** 30, 1))
    assert time.perf_counter() - started < 1.0


@settings(deadline=None, max_examples=40)
@example(a=123456789012345678901234567891, b=987654321098765432109876543211)
@given(st.integers(1, 10 ** 12), st.integers(2, 10 ** 12))
def test_touch_point_with_a_large_denominator_is_the_witness(a, b):
    # (b t - a)^2 (t + 1) is positive on (0, 1) except at a/b, where it
    # vanishes, so a/b is the only possible witness.
    assume(a < b and gcd(a, b) == 1)
    started = time.perf_counter()
    report = positive_on_open_unit_interval(P(-a, b) ** 2 * P(1, 1))
    assert time.perf_counter() - started < 1.0
    assert report.verdict is Verdict.VIOLATED
    assert report.witness == F(a, b)
    assert report.witness_value == 0


def test_dense_sampling_agrees_with_the_dip_value():
    # Sampling is not part of the decision procedure; this pins the shape
    # of the HOLDS example above so a wrong sign convention cannot hide.
    f = P(1, -2, 0, 2)
    samples = [f(F(k, 512)) for k in range(1, 512)]
    assert min(samples) > 0
    assert min(float(s) for s in samples) == pytest.approx(0.2302, abs=5e-3)


@st.composite
def small_int_polys(draw):
    coeffs = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=7))
    return ExactPoly.from_coeffs([F(c) for c in coeffs])


@settings(deadline=None, max_examples=60)
@given(small_int_polys())
def test_decision_consistent_with_rational_sampling(f):
    if f.degree == -1:
        return
    report = positive_on_open_unit_interval(f)
    samples = [f(F(k, 64)) for k in range(1, 64)]
    if report.holds:
        assert all(v > 0 for v in samples)
    else:
        assert report.witness_value <= 0
        assert f(report.witness) == report.witness_value


@settings(deadline=None, max_examples=40)
@given(small_int_polys(), small_int_polys())
def test_product_of_positive_is_positive(f, g):
    if f.degree == -1 or g.degree == -1:
        return
    rf = positive_on_open_unit_interval(f)
    rg = positive_on_open_unit_interval(g)
    if rf.holds and rg.holds:
        assert positive_on_open_unit_interval(f * g).holds


# ---------------------------------------------------------------------------
# integer core against the rational arithmetic it replaced
# ---------------------------------------------------------------------------

def _fraction_rem(a, b):
    """Reference: remainder of a mod b by rational long division."""
    r = [F(c) for c in a]
    while r and len(r) >= len(b):
        q = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= q * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _fraction_sturm_chain(h):
    chain = [[F(c) for c in h]]
    d = [i * c for i, c in enumerate(chain[0])][1:]
    while d and d[-1] == 0:
        d.pop()
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            rem = _fraction_rem(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


def _fraction_eval(a, t):
    acc = F(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _sign(v):
    return (v > 0) - (v < 0)


int_coeff_lists = st.lists(
    st.integers(min_value=-40, max_value=40), min_size=2, max_size=9
).filter(lambda cs: cs[-1] != 0)


@settings(deadline=None, max_examples=150)
@given(int_coeff_lists)
def test_integer_sturm_chain_matches_fraction_signs(h):
    chain = _sturm_chain(h)
    reference = _fraction_sturm_chain(h)
    assert len(chain) == len(reference)
    for member, ref in zip(chain, reference):
        assert all(isinstance(c, int) for c in member)
        for t in (F(0), F(1, 2), F(1)):
            assert _sign(_ieval_scaled(member, t)) == _sign(_fraction_eval(ref, t))


def _bernstein_eval(b, x):
    """sum_k b_k C(n, k) x^k (1 - x)^(n - k)."""
    n = len(b) - 1
    return sum(c * comb(n, k) * x ** k * (1 - x) ** (n - k) for k, c in enumerate(b))


@given(int_coeff_lists, st.fractions(min_value=0, max_denominator=60))
def test_descartes_transform_and_de_casteljau_halves_evaluate_as_substitutions(q, x):
    n = len(q) - 1
    assert _fraction_eval(_descartes_transform(q)[::-1], x) == \
        (1 + x) ** n * _fraction_eval(q, 1 / (1 + x))
    # the node's vector is M q in the Bernstein basis, M = lcm_k C(n, k),
    # and each half is 2^n M q on its half of (0, 1)
    m = lcm(*(comb(n, k) for k in range(n + 1)))
    b = _bernstein(_descartes_transform(q))
    left, right = _de_casteljau(b)
    assert _bernstein_eval(b, x) == m * _fraction_eval(q, x)
    assert _bernstein_eval(left, x) == m * 2 ** n * _fraction_eval(q, x / 2)
    assert _bernstein_eval(right, x) == m * 2 ** n * _fraction_eval(q, (1 + x) / 2)


@given(int_coeff_lists, st.fractions(max_denominator=60))
def test_scaled_evaluation_has_the_sign_of_the_fraction_value(a, t):
    assert _sign(_ieval_scaled(a, t)) == _sign(_fraction_eval(a, t))


@given(int_coeff_lists, int_coeff_lists)
def test_exact_division_recovers_the_primitive_factor(a, b):
    assert _idiv_exact(_imul(a, b), b) == _iprimitive(list(a))


# ---------------------------------------------------------------------------
# Descartes bisection against the Sturm-chain decider it replaced
# ---------------------------------------------------------------------------

def _isolating_intervals(h_sf):
    """The intervals (lo, hi] that bisecting (0, 1] at midpoints yields
    around the root cells of the squarefree h_sf, one root each."""
    return _split(F(0), F(1), _descartes_walk(h_sf).cells)


def _decide(decider, f):
    try:
        return decider(f)
    except NoRationalWitnessError:
        return None


@st.composite
def _factor(draw):
    """A small integer polynomial of degree 1 or 2, b t - a with a root
    a/b in (0, 1), or (b t - a)(cb t - (ca + 1)) with two roots 1/(cb)
    apart, where the small-denominator scan often finds no witness."""
    kind = draw(st.sampled_from((0, 0, 1, 2)))
    if kind == 0:
        return P(*draw(st.lists(st.integers(-12, 12), min_size=2, max_size=3)
                       .filter(lambda cs: cs[-1] != 0)))
    b = draw(st.integers(2, 120))
    a = draw(st.integers(1, b - 1))
    if kind == 1:
        return P(-a, b)
    c = draw(st.integers(1, 4))
    return P(-a, b) * P(-(c * a + 1), c * b)


@st.composite
def products_with_repeats(draw):
    """c * prod q_i^(e_i) with exponents up to 3, so most products are
    not squarefree."""
    f = P(draw(st.sampled_from([-3, -1, 1, 2])))
    for _ in range(draw(st.integers(1, 3))):
        f = f * draw(_factor()) ** draw(st.integers(1, 3))
    return f


@settings(deadline=None, max_examples=300)
@example(P(1, 0, 1) ** 2 * P(2, -1))
@example((P(-4, 95) * P(-2, 47)) ** 3)
@example(P(1, 0, -4, 0, 4) * P(3, 1))
@example(P(0, 1) ** 2 * P(1, -1) ** 3 * P(-1, 3) ** 2)
@example((P(-1, 64) * P(-3, 64) * P(-5, 128)) ** 2)
@given(products_with_repeats())
def test_descartes_decides_like_the_sturm_oracle(f):
    with mock.patch.object(series, "_irem", wraps=series._irem) as irem:
        new = _decide(positive_on_open_unit_interval, f)
    old = _decide(sturm_positivity, f)
    h, _, _ = _strip_unit_interval_roots(f)
    # Euclid only where a root repeats (or a cluster stalls the walk)
    assert not irem.called or len(_sturm_chain(h)[-1]) > 1
    if old is None or new is None:
        assert old is new
        return
    assert (new.verdict, new.witness, new.witness_value) == \
        (old.verdict, old.witness, old.witness_value)
    if new.holds:
        assert old.certificate.roots_in_interval == 0
        assert new.certificate.sample_value == old.certificate.sample_value
    if len(h) > 1:
        h_sf, intervals = sturm_isolating_intervals(h)
        assert _isolating_intervals(h_sf) == intervals
        walk = _descartes_walk(h, series._MAX_DEPTH)
        if not walk.stalled:
            # the decider's cells of h itself, simple or dyadic roots
            assert _split(F(0), F(1), walk.cells) == intervals


@st.composite
def golod_shafarevich_forms(draw):
    """t^k0 (1 - t)^k1 h, where h has negative coefficients only among its
    first 12 and a nonnegative tail, the shape of the package's targets:
    1 - dt + ... on the relator side times a series with positive
    coefficients."""
    head = [draw(st.integers(1, 40))] + draw(st.lists(st.integers(-40, 25), max_size=11))
    tail = draw(st.lists(st.integers(0, 30), max_size=48))
    return P(*[0] * draw(st.integers(0, 2)), *head, *tail) * P(1, -1) ** draw(st.integers(0, 2))


# t (1 - t) (1 - t + t^2 + 3t^3 + 5t^4): the head 1 - t + t^2 past the
# last negative coefficient has no variation on (0, 1), so it settles
SETTLED_ON_A_HEAD = P(0, 1) * P(1, -1) * P(1, -1, 1, 3, 5)


@settings(deadline=None, max_examples=200)
@example(SETTLED_ON_A_HEAD)
@given(golod_shafarevich_forms())
def test_golod_shafarevich_forms_are_decided_like_the_sturm_oracle(f):
    # every HOLDS, proved on a head of h or on h itself, is replayed by
    # the module's holds_are_certified
    new = _decide(positive_on_open_unit_interval, f)
    old = _decide(sturm_positivity, f)
    if old is None or new is None:
        assert old is new
        return
    assert (new.verdict, new.witness, new.witness_value) == \
        (old.verdict, old.witness, old.witness_value)
    if f == SETTLED_ON_A_HEAD:
        h, _, _ = _strip_unit_interval_roots(f)
        assert new.certificate.head_degree == 2 < len(h) - 1


@settings(deadline=None, max_examples=300)
@example(P(1, 0, 1) ** 2 * P(2, -1))
@example((P(-4, 95) * P(-2, 47)) ** 3)
@example(P(1, 0, -4, 0, 4) * P(3, 1))
@example(P(0, 1) ** 2 * P(1, -1) ** 3 * P(-1, 3) ** 2)
@example((P(-1, 64) * P(-3, 64) * P(-5, 128)) ** 2)
@given(products_with_repeats())
def test_the_bernstein_walk_walks_like_the_taylor_walk(f):
    h, _, _ = _strip_unit_interval_roots(f)
    for depth in (2, series._MAX_DEPTH):
        walk = _descartes_walk(h, depth)
        assert (walk.leaves, walk.cells, walk.stalled) == taylor_walk(h, depth)
    # stopped at depth 2 and resumed, it ends as if run to the bound at once
    walk = _descartes_walk(h, 2).resume(series._MAX_DEPTH)
    assert (walk.leaves, walk.cells, walk.stalled) == taylor_walk(h, series._MAX_DEPTH)


def test_holds_on_a_repeated_factor(scan_calls):
    # (1 + t^2)^2 (2 - t) is decided on h itself, with no gcd taken.  The
    # transform sum q_j (1 + x)^(n - j) is multiplicative: 1 + t^2 gives
    # (1 + x)^2 + 1 = x^2 + 2x + 2 and 2 - t gives 2(1 + x) - 1 = 2x + 1,
    # so h's has positive coefficients only and (0, 1) is the one leaf,
    # settled without the small-denominator scan.  h = 2 - t + 4t^2 - 2t^3
    # + 2t^4 - t^5 has its last negative coefficient at its degree, so
    # there is no shorter head.  f(1/2) = (5/4)^2 (3/2) = 75/32.
    report = positive_on_open_unit_interval(P(1, 0, 1) ** 2 * P(2, -1))
    assert report.certificate == DescartesCertificate(
        leaves=((0, 0),), sample_point=F(1, 2), sample_value=F(75, 32),
        head_degree=5, k0=0, k1=0,
    )
    assert scan_calls == []


def test_a_touch_point_is_found_by_the_scan_before_any_walk():
    # (3t - 1)^2 (1 + t)^200 (3 + 4t + 2t^2) >= 0 is zero at 1/3, the
    # scan's second point.  Its root node has variations, so the scan runs
    # before h is bisected; walking h first would halve down to the depth
    # bound around the double root.  Only heads of h, shorter than h, are
    # walked before the scan, and none deeper than depth 2: h has degree
    # 204 and negative coefficients at t^45 to t^57, so the heads tried
    # have degree 58, which is negative at 1/2, and 116, whose walk stalls
    # at depth 2.
    f = P(-1, 3) ** 2 * P(1, 1) ** 200 * P(3, 4, 2)
    h, _, _ = _strip_unit_interval_roots(f)
    walked = []
    walk = series._descartes_walk
    started = time.perf_counter()
    with mock.patch.object(series, "_descartes_walk",
                           lambda q, *args: walked.append((q, *args)) or walk(q, *args)):
        report = positive_on_open_unit_interval(f)
    assert time.perf_counter() - started < 0.5
    assert all(len(q) < len(h) and q == h[:len(q)] and args == [series._EARLY_DEPTH]
               for q, *args in walked)
    assert (report.verdict, report.witness, report.witness_value) == \
        (Verdict.VIOLATED, F(1, 3), 0)


def test_violated_through_the_divided_chain():
    # ((95t - 4)(47t - 2))^3 is negative only between 4/95 ~ 0.04211 and
    # 2/47 ~ 0.04255; no rational of denominator <= 24 lies there, so the
    # witness comes from the roots of h / gcd(h, h').  At 87/2048:
    # 95*87 - 4*2048 = 73 and 47*87 - 2*2048 = -7, so
    # f = (73 * -7 / 2048^2)^3 = -511^3 / 2^66.
    report = positive_on_open_unit_interval((P(-4, 95) * P(-2, 47)) ** 3)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness == F(87, 2048)
    assert report.witness_value == F(-511 ** 3, 2 ** 66)


def test_simple_roots_past_the_scan_take_no_euclid():
    # (95t - 4)(47t - 2) is negative only between 4/95 and 2/47, past the
    # scan as above.  Both roots are simple, so the walk of h isolates
    # them in cells of one variation and no gcd is taken.  Bisecting
    # (0, 1] at midpoints separates them at (43/1024, 87/2048] and
    # (87/2048, 11/256]; h(87/2048) = 73 * -7 / 2048^2 = -511 / 2^22.
    with mock.patch.object(series, "_irem", wraps=series._irem) as irem:
        report = positive_on_open_unit_interval(P(-4, 95) * P(-2, 47))
    assert (report.verdict, report.witness, report.witness_value) == \
        (Verdict.VIOLATED, F(87, 2048), F(-511, 2 ** 22))
    assert not irem.called


@pytest.mark.parametrize("f, verdict, depths", [
    # two simple roots between 4/95 and 2/47, past the scan (see above):
    # the walk stalls at depth 2, so the scan goes on to denominator 24
    # and the walk resumes to the bound
    (P(-4, 95) * P(-2, 47), Verdict.VIOLATED, [2, series._MAX_DEPTH]),
    # (20t - 10)^2 + 1 > 0, whose root transform 101x^2 - 198x + 101 has
    # two variations: the walk halves (0, 1) once and ends without a root
    (P(101, -400, 400), Verdict.HOLDS, [2]),
])
def test_the_walked_decision_scans_and_walks_in_order(f, verdict, depths):
    # h is evaluated once at 1/2 and then at each reduced u/q in (0, 1)
    # with q <= 12, before the walk runs to depth 2; only a walk that
    # meets a root or stalls sends h on through q <= 24 before it resumes.
    # One root transform is taken, before the scan.  The walk is a full
    # binary tree whose terminal nodes are its leaves and cells (h has no
    # root at 0, 1 or a midpoint), and each of its internal nodes is
    # split by one de Casteljau triangle, none twice.
    events, splits, walks = [], [], []
    evaluate, resume, split = series._ieval_scaled, series._Walk.resume, series._de_casteljau

    def logged_resume(walk, max_depth=None):
        events.append(("walk", max_depth))
        walks.append(walk)
        return resume(walk, max_depth)

    with mock.patch.object(series, "_descartes_transform",
                           wraps=series._descartes_transform) as transform, \
            mock.patch.object(series, "_de_casteljau", lambda b: splits.append(b) or split(b)), \
            mock.patch.object(series, "_ieval_scaled",
                              lambda h, t: events.append(t) or evaluate(h, t)), \
            mock.patch.object(series._Walk, "resume", logged_resume):
        report = positive_on_open_unit_interval(f)
    assert report.verdict is verdict
    assert transform.call_count == 1

    def scanned(lo, hi):
        return [F(u, q) for q in range(lo, hi + 1) for u in range(1, q) if gcd(u, q) == 1]

    expected = [F(1, 2)] + scanned(3, 12) + [("walk", 2)]
    if len(depths) > 1:
        expected += scanned(13, 24) + [("walk", series._MAX_DEPTH)]
    assert events[:len(expected)] == expected
    assert [e for e in events if isinstance(e, tuple)] == [("walk", d) for d in depths]
    walk = walks[0]
    assert all(w is walk for w in walks) and not walk.stalled
    assert len(splits) == len(walk.leaves) + len(walk.cells) - 1 >= 1


def test_dyadic_roots_are_found_at_the_midpoints():
    # ((64t - 1)(64t - 3)(128t - 5))^2 >= 0: its roots 1/64, 5/128 and
    # 3/64 are dyadic with denominators past the scan.  Bisecting (0, 1] at
    # midpoints, (0, 1/16] still holds all three; (0, 1/32] holds 1/64
    # alone, and (1/32, 1/16] splits at 3/64 and then at 5/128, whose
    # right-closed halves hold one root each.  The first interval has
    # h > 0 at both ends, h(0) = 15^2 and h(1/32) = 1, and its rational
    # root 1/64 is the witness.
    f = (P(-1, 64) * P(-3, 64) * P(-5, 128)) ** 2
    h_sf = _iprimitive(_imul(_imul([-1, 64], [-3, 64]), [-5, 128]))
    assert _isolating_intervals(h_sf) == [
        (F(0), F(1, 32)), (F(1, 32), F(5, 128)), (F(5, 128), F(3, 64))
    ]
    report = positive_on_open_unit_interval(f)
    assert (report.witness, report.witness_value) == (F(1, 64), 0)


def test_holds_runs_no_euclid(monkeypatch):
    # HOLDS is proved by bisection alone, even where it needs to split;
    # only a root of h in (0, 1) sends it through Euclid
    calls = []
    irem = series._irem
    monkeypatch.setattr(series, "_irem", lambda a, b: calls.append(len(a)) or irem(a, b))
    for f in (P(1, -2, 0, 2), P(3, -1) * P(1, 0, 1) * P(5, -2, 1), P(101, -400, 400)):
        report = positive_on_open_unit_interval(f)
        assert report.holds
    assert calls == []


def test_a_cluster_past_the_depth_bound_still_holds():
    # (2^40 t - a)^2 + 1 has the roots (a +- i) / 2^40, so Descartes needs
    # about 40 bisections to clear them, past the bound of 32.  Euclid
    # then finds no real root, and bisection finishes without the bound.
    a = 3 * 2 ** 38 + 12345
    f = P(-a, 2 ** 40) ** 2 + P(1)
    report = positive_on_open_unit_interval(f)
    assert report.holds
    assert max(k for k, _ in report.certificate.leaves) > series._MAX_DEPTH
    assert sturm_positivity(f).holds


def test_a_cluster_past_the_recursion_limit_still_holds():
    # the same cluster 2^-1100 wide: every walk is a loop, so the 1100
    # halvings it needs meet no recursion limit
    a = 3 * 2 ** 1098 + 12345
    report = positive_on_open_unit_interval(P(-a, 2 ** 1100) ** 2 + P(1))
    assert report.holds
    assert max(k for k, _ in report.certificate.leaves) > sys.getrecursionlimit()


@pytest.mark.parametrize("b, a, witness, value", [
    (2 ** 1100, 2 ** 1099 + 12345, F(2 ** 1099 + 12345, 2 ** 1100), 0),
    (3 * 2 ** 1100, 3 * 2 ** 1099 + 12346, F(2 ** 1100 + 8231, 2 ** 1101), F(-1, 4)),
], ids=["dyadic", "not-dyadic"])
def test_a_root_pair_past_the_recursion_limit_is_violated(b, a, witness, value):
    # (bt - a)(bt - a - 1) is negative only between its roots a/b and
    # (a + 1)/b.  _split separates their cells after about 1100 midpoint
    # splits, past the recursion limit, so it is a loop.  For b = 2^1100
    # both roots are dyadic, and the left one is the witness, with f = 0.
    # For b = 3 * 2^1100 neither is; 2a + 1 = 3 (2^1100 + 8231), so the
    # roots' midpoint (2a + 1) / 2b is dyadic, and there bt - a = 1/2.
    report = positive_on_open_unit_interval(P(-a, b) * P(-a - 1, b))
    assert report.verdict is Verdict.VIOLATED
    assert (report.witness, report.witness_value) == (witness, value)
