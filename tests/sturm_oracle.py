"""The Sturm-chain decider that `positive_on_open_unit_interval` replaced,
kept as an oracle for its verdicts and witnesses.

One Euclid per decision: the chain of the stripped h itself counts its
distinct roots in (0, 1), and its last member is gcd(h, h').  For a
witness the chain is divided by that gcd and bisected at midpoints into
intervals (lo, hi] holding one root each.
"""
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from gstower.series import (
    NoRationalWitnessError,
    PositivityReport,
    Verdict,
    _idiv_exact,
    _iderivative,
    _ieval_scaled,
    _irem,
    _rational_roots_in,
    _refine_witness,
    _small_denominator_scan,
    _strip_unit_interval_roots,
)


@dataclass(frozen=True)
class SturmCertificate:
    """The exact root count certifying a HOLDS verdict."""

    roots_in_interval: int
    sign_changes_at_zero: int
    sign_changes_at_one: int
    chain_length: int
    stripped_zero_multiplicity: int
    stripped_one_multiplicity: int


def _sturm_chain(h: list[int]) -> list[list[int]]:
    chain = [list(h)]
    d = _iderivative(h)
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            rem = _irem(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


def _sign_changes(values: Iterable) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _isolate_sign_change_roots(
    chain: list[list[int]], lo: Fraction, hi: Fraction, count: int
) -> list[tuple[Fraction, Fraction]]:
    """Split (lo, hi] into subintervals each holding one root of chain[0]."""
    if count == 0:
        return []
    if count == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    vm = _sign_changes(_ieval_scaled(p, mid) for p in chain)
    vl = _sign_changes(_ieval_scaled(p, lo) for p in chain)
    left = vl - vm
    return _isolate_sign_change_roots(chain, lo, mid, left) + \
        _isolate_sign_change_roots(chain, mid, hi, count - left)


def sturm_isolating_intervals(h: list[int]) -> tuple[list[int], list[tuple[Fraction, Fraction]]]:
    """h / gcd(h, h') and the intervals the oracle hands to its witness
    search; h(0) != 0 != h(1).  The chain ends in gcd(h, h'), and dividing
    it out of every member leaves a Sturm sequence for h / gcd."""
    chain = _sturm_chain(h)
    count = _sign_changes(p[0] for p in chain) - _sign_changes(sum(p) for p in chain)
    g = chain[-1]
    if len(g) > 1:
        chain = [_idiv_exact(p, g) for p in chain]
    return chain[0], _isolate_sign_change_roots(chain, Fraction(0), Fraction(1), count)


def sturm_positivity(f) -> PositivityReport:
    """The replaced decider: same verdicts and witnesses, with a
    SturmCertificate on HOLDS."""
    h, k0, k1 = _strip_unit_interval_roots(f)
    w = _small_denominator_scan(h)
    if w is not None:
        return PositivityReport(Verdict.VIOLATED, witness=w, witness_value=f(w))
    chain = _sturm_chain(h)
    v0 = _sign_changes(p[0] for p in chain)
    v1 = _sign_changes(sum(p) for p in chain)
    if v0 == v1:
        cert = SturmCertificate(
            roots_in_interval=0, sign_changes_at_zero=v0,
            sign_changes_at_one=v1, chain_length=len(chain),
            stripped_zero_multiplicity=k0, stripped_one_multiplicity=k1,
        )
        return PositivityReport(Verdict.HOLDS, certificate=cert)
    h_sf, intervals = sturm_isolating_intervals(h)
    for lo, hi in intervals:
        vlo, vhi = _ieval_scaled(h, lo), _ieval_scaled(h, hi)
        if 0 < lo < 1 and vlo <= 0:
            return PositivityReport(Verdict.VIOLATED, witness=lo, witness_value=f(lo))
        if 0 < hi < 1 and vhi <= 0:
            return PositivityReport(Verdict.VIOLATED, witness=hi, witness_value=f(hi))
        if vlo * vhi < 0:
            w = _refine_witness(h, lo, hi, lo_positive=vlo > 0)
            return PositivityReport(Verdict.VIOLATED, witness=w, witness_value=f(w))
        root = _rational_roots_in(h_sf, lo, hi)
        if root is not None:
            return PositivityReport(Verdict.VIOLATED, witness=root, witness_value=f(root))
    raise NoRationalWitnessError(
        "polynomial vanishes in (0,1) only at irrational points of even multiplicity"
    )
