"""The certificate checker: it accepts what the decider proves and
rejects each kind of broken certificate."""
from dataclasses import replace
from fractions import Fraction

import pytest

from gstower.certify import InvalidCertificateError, check_certificate
from gstower.series import DescartesCertificate, ExactPoly, positive_on_open_unit_interval

F = Fraction


def P(*coeffs) -> ExactPoly:
    return ExactPoly.from_coeffs([F(c) for c in coeffs])


# 400t^2 - 400t + 101 = (20t - 10)^2 + 1 > 0, f(1/2) = 1.  On (0, 1),
# 101(1 + x)^2 - 400(1 + x) + 400 = 101x^2 - 198x + 101 has two sign
# variations, so the proof needs the two halves.  Its last negative
# coefficient is at t^1, and a head past it is all of f, of degree 2.
DIP = P(101, -400, 400)
DIP_CERTIFICATE = DescartesCertificate(((1, 0), (1, 1)), F(1, 2), F(1), 2, 0, 0)


def test_the_decider_certificate_is_accepted():
    assert positive_on_open_unit_interval(DIP).certificate == DIP_CERTIFICATE
    check_certificate(DIP, DIP_CERTIFICATE)


def test_endpoint_roots_of_f_are_allowed():
    # t^2 (1 - t) (1 + t) vanishes at 0 and 1 only
    f = P(0, 0, 1, 0, -1)
    check_certificate(f, positive_on_open_unit_interval(f).certificate)


# a finer tiling is a proof too: halving an interval never adds variations
QUARTERS = ((2, 0), (2, 1), (2, 2), (2, 3))


def test_a_finer_tiling_is_accepted():
    check_certificate(DIP, replace(DIP_CERTIFICATE, leaves=QUARTERS))


@pytest.mark.parametrize("dropped", range(4))
def test_a_dropped_leaf_leaves_a_gap(dropped):
    leaves = QUARTERS[:dropped] + QUARTERS[dropped + 1:]
    with pytest.raises(InvalidCertificateError, match="do not cover"):
        check_certificate(DIP, replace(DIP_CERTIFICATE, leaves=leaves))


def test_a_leaf_too_deep_to_tile_is_rejected_before_any_work():
    with pytest.raises(InvalidCertificateError, match="deeper"):
        check_certificate(DIP, replace(DIP_CERTIFICATE, leaves=((10 ** 9, 0), (1, 1))))


def test_a_repeated_leaf_lies_outside():
    with pytest.raises(InvalidCertificateError, match="outside"):
        check_certificate(DIP, replace(DIP_CERTIFICATE, leaves=((1, 0), (1, 1), (1, 1))))


def test_a_leaf_with_a_sign_variation_is_rejected():
    with pytest.raises(InvalidCertificateError, match="sign variation"):
        check_certificate(DIP, replace(DIP_CERTIFICATE, leaves=((0, 0),)))


def test_a_root_at_a_dyadic_end_is_rejected():
    # (4t - 1)^2 (1 + t) is zero at 1/4 only; on (0, 1/4), (1/4, 1/2) and
    # (1/2, 1) it has no sign variation, but it vanishes at 1/4
    f = P(-1, 4) ** 2 * P(1, 1)
    cert = DescartesCertificate(((2, 0), (2, 1), (1, 1)), F(1, 2), f(F(1, 2)), 3, 0, 0)
    with pytest.raises(InvalidCertificateError, match="vanishes at an end"):
        check_certificate(f, cert)


def test_a_nonpositive_sample_is_rejected():
    # -DIP has no root in (0, 1) either, and the leaves prove it, but it
    # is negative there
    cert = replace(DIP_CERTIFICATE, sample_value=F(-1))
    with pytest.raises(InvalidCertificateError, match="not positive"):
        check_certificate(-DIP, cert)


def test_a_sample_value_that_f_does_not_take_is_rejected():
    with pytest.raises(InvalidCertificateError, match="not positive"):
        check_certificate(DIP, replace(DIP_CERTIFICATE, sample_value=F(2)))


# t (1 - t) h for h = 1 - t + t^2 + 3t^3 + 5t^4.  The last negative
# coefficient of h is at t^1, and its head 1 - t + t^2 is below h on
# (0, 1), with the transform (1 + x)^2 - (1 + x) + 1 = x^2 + x + 1: no
# variation, so (0, 1) is the one leaf of the head of degree 2.
HEADED = P(0, 1) * P(1, -1) * P(1, -1, 1, 3, 5)
HEADED_CERTIFICATE = DescartesCertificate(((0, 0),), F(1, 2), HEADED(F(1, 2)), 2, 1, 1)


def test_the_decider_proves_on_a_head():
    assert positive_on_open_unit_interval(HEADED).certificate == HEADED_CERTIFICATE
    check_certificate(HEADED, HEADED_CERTIFICATE)


def test_a_negative_coefficient_past_the_head_is_rejected():
    # with 5t^4 turned to -5t^4, h(1) = -1 and f < 0 near 1; f(1/2) > 0
    # still, and the head is the same
    f = P(0, 1) * P(1, -1) * P(1, -1, 1, 3, -5)
    cert = replace(HEADED_CERTIFICATE, sample_value=f(F(1, 2)))
    with pytest.raises(InvalidCertificateError, match="past the head is negative"):
        check_certificate(f, cert)


def test_a_head_below_the_last_negative_coefficient_is_rejected():
    with pytest.raises(InvalidCertificateError, match="past the head is negative"):
        check_certificate(HEADED, replace(HEADED_CERTIFICATE, head_degree=0))


@pytest.mark.parametrize("k0, k1", [(1, 2), (2, 1), (-1, 1), (1, -1)])
def test_a_wrong_root_multiplicity_is_rejected(k0, k1):
    # f = t (1 - t) h with h(0) = 1 and h(1) = 9, so neither t^2 nor
    # (1 - t)^2 divides f, and a negative power is no factor
    with pytest.raises(InvalidCertificateError, match="does not divide"):
        check_certificate(HEADED, replace(HEADED_CERTIFICATE, k0=k0, k1=k1))


@pytest.mark.parametrize("head_degree", [-1, 7])
def test_a_head_degree_out_of_range_is_rejected(head_degree):
    # f / t (1 - t) has degree 4
    with pytest.raises(InvalidCertificateError, match="no head"):
        check_certificate(HEADED, replace(HEADED_CERTIFICATE, head_degree=head_degree))


def test_a_head_negative_at_the_sample_is_rejected():
    # 20t^3 - 1 is 3/2 at 1/2, but negative near 0.  Its head of degree 2
    # is the constant -1, without a sign variation or a root, and the
    # coefficient past it is 20 >= 0: only the head's sign at the sample
    # shows that the head is below 0, not above it.
    f = P(-1, 0, 0, 20)
    cert = DescartesCertificate(((0, 0),), F(1, 2), F(3, 2), 2, 0, 0)
    with pytest.raises(InvalidCertificateError, match="head is not positive"):
        check_certificate(f, cert)
