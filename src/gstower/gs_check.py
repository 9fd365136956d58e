"""Presentation-side inequality checks.

A relation profile (d generators, relator degrees k with multiplicity)
has the polynomial sum r_k t^k - d t + 1.  For a finite group with
dimension sequence a, that polynomial must strictly dominate the product
of the factors (1 - t^n)^(a_n) / (1 - t^(np))^(a_n) on (0, 1); the
relaxed variant drops the denominators.  Both checks, and the strict
one with its slack term, are read first at t = 1/2 from the product
form, in a few integer products: a negative value there is a violation
at 1/2 without expanding anything.  Else the target is expanded as one
integer list, the left side's few terms each adding one shifted copy of
the filtration coefficients, and decided by exact positivity on the
open unit interval.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .jennings import DimensionSequence, jennings_transform, one_minus_product
from .series import ExactPoly, PositivityReport, Verdict, positive_on_open_unit_interval


class InvalidHypothesisError(ValueError):
    """The strict lower-bound term needs at least as many relations as
    generators."""


@dataclass(frozen=True)
class RelationProfile:
    """d generators and a multiset of relator degrees (each >= 2)."""

    d: int
    levels: tuple[int, ...]

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("generator count must be >= 0")
        if any(k < 2 for k in self.levels):
            raise ValueError("every relation degree must be >= 2")
        object.__setattr__(self, "levels", tuple(sorted(self.levels)))

    @property
    def r(self) -> int:
        return len(self.levels)

    @property
    def max_level(self) -> int:
        return self.levels[-1] if self.levels else 0


def _lhs_terms(profile: RelationProfile) -> dict[int, int]:
    """The nonzero terms {k: coefficient} of sum_k r_k t^k - d t + 1."""
    terms = {0: 1, 1: -profile.d}
    for k in profile.levels:
        terms[k] = terms.get(k, 0) + 1
    return {k: c for k, c in terms.items() if c}


def gs_lhs_poly(profile: RelationProfile) -> ExactPoly:
    """sum_k r_k t^k - d t + 1."""
    return ExactPoly(tuple(_sparse_times(_lhs_terms(profile), [1])))


def relaxed_product_poly(a: DimensionSequence) -> ExactPoly:
    """The product of (1 - t^n)^(a_n) over the support of a."""
    # the leading coefficient is +-1, so the list is already normalized
    return ExactPoly(tuple(one_minus_product(a, a.weighted_degree + 1)))


class CheckMode(str, enum.Enum):
    EXACT = "EXACT"
    RELAXED = "RELAXED"


def _scaled_at(terms: dict[int, int], u: int, v: int) -> int:
    """v^m g(u/v) for the integer polynomial g with these terms, m its degree."""
    m = max(terms)
    return sum(c * u ** k * v ** (m - k) for k, c in terms.items())


def _factors_at(a: DimensionSequence, u: int, v: int) -> int:
    """The product of (v^n - u^n)^(a_n) over the support of a.

    At t = u/v the relaxed product of (1 - t^n)^(a_n) is this product
    over v^W, W = sum(n a_n).  At t = 1/2 the filtration polynomial, a
    product of factors (1 - t^(pn)) / (1 - t^n) = (2^(pn) - 1) /
    (2^((p-1)n) (2^n - 1)), is the (u, v) = (1, 2^p) product over 2^N
    times the (1, 2) one, N = (p - 1) W."""
    out = 1
    for n, an in a.entries:
        out *= (v ** n - u ** n) ** an
    return out


def lhs_at(profile: RelationProfile, t: Fraction) -> tuple[int, int]:
    """The left side L = sum_k r_k t^k - d t + 1 at t = u/v, as the
    numerator v^m L(t) over the denominator v^m, m the degree of L."""
    terms = _lhs_terms(profile)
    return _scaled_at(terms, t.numerator, t.denominator), t.denominator ** max(terms)


def relaxed_at(profile: RelationProfile, a: DimensionSequence, t: Fraction) -> int:
    """v^(m+W) (L(t) - prod (1 - t^n)^(a_n)) at t = u/v, W = sum(n a_n):
    the relaxed target at t times a positive integer, in integers."""
    num, den = lhs_at(profile, t)
    u, v = t.numerator, t.denominator
    return num * v ** a.weighted_degree - den * _factors_at(a, u, v)


def relaxed_target(profile: RelationProfile, a: DimensionSequence) -> ExactPoly:
    """L - prod (1 - t^n)^(a_n), expanded as one integer list."""
    terms = _lhs_terms(profile)
    nums = [-c for c in one_minus_product(a, max(max(terms), a.weighted_degree) + 1)]
    for k, c in terms.items():
        nums[k] += c
    return ExactPoly._normalized(nums)


def _violated_at_half(num: int, den: int) -> PositivityReport:
    """The decider's verdict on a target whose value at 1/2 is num / den < 0."""
    return PositivityReport(Verdict.VIOLATED, witness=Fraction(1, 2),
                            witness_value=Fraction(num, den))


def _sparse_times(terms: dict[int, int], b: Sequence[int]) -> list[int]:
    """sum_k c_k t^k times b, one shifted slice addition per term."""
    n = len(b)
    out = [0] * (max(terms) + n)
    for k, c in terms.items():
        out[k:k + n] = map(add, out[k:k + n], b if c == 1 else [c * x for x in b])
    return out


def _filtration_target(terms: dict[int, int], den: int, a: DimensionSequence) -> PositivityReport:
    """Decide g jennings_poly / den - 1 > 0 on (0, 1), for den > 0 and
    g the integer polynomial with these terms.

    The value at 1/2 comes from the product form first, and a negative
    one is the verdict.  Else g times the filtration coefficients is
    expanded as one integer list."""
    # J(1/2) = _factors_at(a, 1, 2^p) / (2^N _factors_at(a, 1, 2))
    shift = (a.prime - 1) * a.weighted_degree + max(terms)
    scale = den * _factors_at(a, 1, 2) << shift
    value = _scaled_at(terms, 1, 2) * _factors_at(a, 1, 1 << a.prime) - scale
    if value < 0:
        return _violated_at_half(value, scale)
    nums = _sparse_times(terms, jennings_transform(a).b)
    nums[0] -= den
    return positive_on_open_unit_interval(ExactPoly._normalized(nums, den))


def check_inequality(
    profile: RelationProfile,
    a: DimensionSequence,
    mode: CheckMode = CheckMode.RELAXED,
) -> PositivityReport:
    """Decide the presentation inequality for the dimension sequence a.

    EXACT mode multiplies through by the (positive) expanded filtration
    polynomial, so the decision is about
        gs_lhs * jennings_poly - 1 > 0 on (0, 1);
    RELAXED mode checks gs_lhs - prod (1 - t^n)^(a_n) > 0, which is a
    weaker requirement.  Exact arithmetic throughout.  Either target is
    read at t = 1/2 from its product form first, and a negative value
    there is the VIOLATED verdict at 1/2 before anything is expanded.

    EXACT mode decides positivity at degree (p - 1) * sum(n * a_n) plus
    the deepest relator level (1487 on the published p = 11 minimum),
    RELAXED at degree max(deepest level, sum(n * a_n)), or lower where
    the leading terms cancel.
    """
    terms = _lhs_terms(profile)
    if mode is CheckMode.EXACT:
        return _filtration_target(terms, 1, a)
    if mode is not CheckMode.RELAXED:
        raise ValueError(f"unknown mode {mode!r}")
    value = relaxed_at(profile, a, Fraction(1, 2))
    if value < 0:
        return _violated_at_half(value, 1 << max(terms) + a.weighted_degree)
    return positive_on_open_unit_interval(relaxed_target(profile, a))


def ztype_pair_poly(m1: int, m2: int) -> ExactPoly:
    """t^m1 + t^m2 - 2t + 1 for the two-generator two-relation profile."""
    return gs_lhs_poly(RelationProfile(2, (m1, m2)))


def classify_ztypes(max_level: int = 21) -> frozenset[tuple[int, int]]:
    """All pairs of odd relation degrees 3 <= m1 <= m2 <= max_level for
    which t^m1 + t^m2 - 2t + 1 stays positive on (0, 1).

    Larger degrees only shrink the polynomial on (0, 1), so once a pair is
    violated every coordinatewise-larger pair is violated too; those are
    pruned without re-running the decision procedure.  The survivors are
    {(3,3), (3,5), (3,7)} for every max_level >= 9.
    """
    if max_level < 9:
        raise ValueError("max_level must be >= 9 to cover the violated cases")
    holds: set[tuple[int, int]] = set()
    violated: list[tuple[int, int]] = []
    for m1 in range(3, max_level + 1, 2):
        for m2 in range(m1, max_level + 1, 2):
            if any(v1 <= m1 and v2 <= m2 for v1, v2 in violated):
                continue
            report = positive_on_open_unit_interval(ztype_pair_poly(m1, m2))
            if report.holds:
                holds.add((m1, m2))
            else:
                violated.append((m1, m2))
    return frozenset(holds)


def medgs_threshold(d: int, m: int) -> Fraction:
    """Relation count above which d generators with all relations at
    degree >= m force the presentation inequality to fail:
    r > d^m (m-1)^(m-1) / m^m."""
    if d < 1 or m < 2:
        raise ValueError("need d >= 1 and m >= 2")
    return Fraction(d ** m * (m - 1) ** (m - 1), m ** m)


def medgs_violation_sample(d: int, m: int, r: int) -> tuple[Fraction, Fraction]:
    """Diagnostic companion to medgs_threshold: evaluate r t^m - d t + 1
    at t = u / 10^6 just below the minimizing point (d/(mr))^(1/(m-1)),
    u the largest integer with m r u^(m-1) <= d 10^(6(m-1)).

    Point and value are exact, and any nonpositive value proves the
    violation.  Needs d >= 1, m >= 2 and r >= 1, as medgs_threshold does.
    """
    if d < 1 or m < 2 or r < 1:
        raise ValueError("need d >= 1, m >= 2 and r >= 1")
    v = 10 ** 6
    k = m - 1
    # integer Newton from above: u = floor((d v^k / (m r))^(1/k))
    n = d * v ** k // (m * r)
    u = 1 << -(-n.bit_length() // k)
    while u and (w := ((k - 1) * u + n // u ** (k - 1)) // k) < u:
        u = w
    return Fraction(u, v), Fraction(r * u ** m - d * u * v ** k + v ** m, v ** m)


def strict_corollary_check(
    profile: RelationProfile,
    a: DimensionSequence,
) -> PositivityReport:
    """Strengthened inequality with the explicit positive slack term
    (1 - d + r)(1 - p^-A) t^(N+m) on the right-hand side, where p^A is
    the order of a and m the deepest relation degree.

    Multiplying through by the filtration polynomial turns it into exact
    polynomial positivity on (0, 1), read at t = 1/2 from the product
    form first, as in EXACT mode.  Requires r >= d so the slack term is
    nonnegative.
    """
    if profile.r < profile.d:
        raise InvalidHypothesisError(
            f"need r >= d, got r = {profile.r}, d = {profile.d}"
        )
    # times p^A: the slack is the integer (1 - d + r)(p^A - 1) at t^(N+m)
    order = a.prime ** a.order_exponent
    terms = {k: c * order for k, c in _lhs_terms(profile).items()}
    slack = (1 - profile.d + profile.r) * (order - 1)
    if slack:
        at = (a.prime - 1) * a.weighted_degree + profile.max_level
        terms[at] = terms.get(at, 0) - slack
    return _filtration_target(terms, order, a)
