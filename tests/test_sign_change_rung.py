"""The one-sign-change rung of the positivity decision against the ladder
it shortcuts.

When no head of h settles and h(0) > 0, h(1) > 0 and the coefficients of
h change sign at most once, Descartes' rule of signs leaves h no root in
(0, 1), and the decision returns the complete walk of h without a scan.
The ladder without the rung (tests/ladder_oracle.py) must give the same
verdict, witness, value and certificate on every polynomial.
"""
from unittest import mock

from hypothesis import given, settings, strategies as st

from gstower import series
from gstower.certify import check_certificate
from gstower.series import (
    DescartesCertificate,
    ExactPoly,
    NoRationalWitnessError,
    _strip_unit_interval_roots,
    _variations,
    positive_on_open_unit_interval,
)
from ladder_oracle import ladder_positivity


def _outcome(decide, f):
    """The report's fields, or the error's type where there is no witness."""
    try:
        r = decide(f)
    except NoRationalWitnessError:
        return NoRationalWitnessError
    return r.verdict, r.witness, r.witness_value, r.certificate


def _with_factors(h, k0, k1):
    """t^k0 (1 - t)^k1 h as an ExactPoly."""
    f = ExactPoly._normalized([0] * k0 + list(h))
    return f * ExactPoly((1, -1)) ** k1


def _agrees_with_the_ladder(f):
    got = _outcome(positive_on_open_unit_interval, f)
    assert got == _outcome(ladder_positivity, f)
    if got is not NoRationalWitnessError and got[3] is not None:
        check_certificate(f, got[3])
    return got


@st.composite
def _one_sign_change(draw):
    """Coefficients positive, then negative (zeros between), with the sum,
    h(1), moved to a drawn value by the first or the last coefficient, so
    the one sign change stays."""
    gap = st.integers(0, 3)
    pos = draw(st.lists(st.integers(0, 60), min_size=1, max_size=30))
    neg = draw(st.lists(st.integers(0, 60), min_size=1, max_size=30))
    h = [1 + pos[0]] + pos[1:] + [0] * draw(gap) + [-x for x in neg[:-1]] + [-1 - neg[-1]]
    delta = draw(st.sampled_from([1, -1])) * draw(st.integers(1, 40)) - sum(h)
    h[0 if delta > 0 else -1] += delta
    return h


_factors = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(_one_sign_change(), _factors)
def test_one_sign_change_matches_the_ladder(h, factors):
    assert _variations(h) == 1
    f = _with_factors(h, *factors)
    verdict = _agrees_with_the_ladder(f)[0]
    # h(1) > 0 leaves the root past 1; h(1) < 0 puts it in (0, 1)
    assert (verdict is series.Verdict.HOLDS) == (sum(h) > 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=16).filter(any), _factors)
def test_random_polynomials_match_the_ladder(h, factors):
    _agrees_with_the_ladder(_with_factors(h, *factors))


@settings(max_examples=200, deadline=None)
@given(_one_sign_change().filter(lambda h: sum(h) > 0), _factors)
def test_the_rung_scans_nothing(h, factors):
    # h ends negative, so no head shorter than h is tried: the complete
    # walk of h decides, with no scan and no Euclid
    f = _with_factors(h, *factors)
    stripped, k0, k1 = _strip_unit_interval_roots(f)
    with mock.patch.object(series, "_small_denominator_scan") as scan, \
            mock.patch.object(series, "_irem") as irem:
        report = positive_on_open_unit_interval(f)
    assert report.holds and not scan.called and not irem.called
    leaves = tuple(series._descartes_walk(stripped).leaves)
    assert report.certificate == DescartesCertificate(leaves, len(stripped) - 1, k0, k1)
    check_certificate(f, report.certificate)
