"""Presentation-side inequality checks.

A relation profile (d generators, relator degrees k with multiplicity)
has the polynomial sum r_k t^k - d t + 1.  For a finite group with
dimension sequence a, that polynomial must strictly dominate the product
of the factors (1 - t^n)^(a_n) / (1 - t^(np))^(a_n) on (0, 1); the
relaxed variant drops the denominators.  Both checks reduce to exact
positivity of a polynomial on the open unit interval.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .jennings import DimensionSequence, jennings_transform, one_minus_product
from .series import ExactPoly, PositivityReport, positive_on_open_unit_interval


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

    @classmethod
    def from_counts(cls, d: int, counts: dict[int, int]) -> "RelationProfile":
        levels: list[int] = []
        for k, r in sorted(counts.items()):
            levels.extend([k] * r)
        return cls(d, tuple(levels))

    @property
    def r(self) -> int:
        return len(self.levels)

    @property
    def max_level(self) -> int:
        return self.levels[-1] if self.levels else 0


def gs_lhs_poly(profile: RelationProfile) -> ExactPoly:
    """sum_k r_k t^k - d t + 1."""
    coeffs = [0] * (profile.max_level + 1)
    coeffs[0] = 1
    if len(coeffs) < 2:
        coeffs.append(0)
    coeffs[1] = -profile.d
    for k in profile.levels:
        coeffs[k] += 1
    return ExactPoly.from_coeffs(coeffs)


def relaxed_product_poly(a: DimensionSequence) -> ExactPoly:
    """The product of (1 - t^n)^(a_n) over the support of a."""
    # the leading coefficient is +-1, so the list is already normalized
    return ExactPoly(tuple(one_minus_product(a, a.weighted_degree + 1)))


class CheckMode(str, enum.Enum):
    EXACT = "EXACT"
    RELAXED = "RELAXED"


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
    weaker requirement.  Exact arithmetic throughout.

    EXACT mode decides positivity at degree (p - 1) * sum(n * a_n) plus
    the deepest relator level (1487 on the published p = 11 minimum),
    RELAXED at degree max(deepest level, sum(n * a_n)), or lower where
    the leading terms cancel.
    """
    lhs = gs_lhs_poly(profile)
    if mode is CheckMode.EXACT:
        jp = jennings_transform(a).jennings_poly
        target = lhs * jp - ExactPoly.one()
    elif mode is CheckMode.RELAXED:
        target = lhs - relaxed_product_poly(a)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return positive_on_open_unit_interval(target)


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
    at a rational approximation of the minimizing point (d/(mr))^(1/(m-1)).

    Only the evaluation is exact; the point itself is a float-seeded
    approximation, which is fine because any nonpositive value proves the
    violation.
    """
    t_star = Fraction((d / (m * r)) ** (1.0 / (m - 1))).limit_denominator(10 ** 6)
    poly = gs_lhs_poly(RelationProfile.from_counts(d, {m: r}))
    return t_star, poly(t_star)


def strict_corollary_check(
    profile: RelationProfile,
    a: DimensionSequence,
) -> PositivityReport:
    """Strengthened inequality with the explicit positive slack term
    (1 - d + r)(1 - p^-A) t^(N+m) on the right-hand side, where p^A is
    the order of a and m the deepest relation degree.

    Multiplying through by the filtration polynomial turns it into exact
    polynomial positivity on (0, 1).  Requires r >= d so the slack term
    is nonnegative.
    """
    if profile.r < profile.d:
        raise InvalidHypothesisError(
            f"need r >= d, got r = {profile.r}, d = {profile.d}"
        )
    data = jennings_transform(a)
    jp = data.jennings_poly
    n_stab = data.stabilization_index
    slack = Fraction(1 - profile.d + profile.r) * (
        1 - Fraction(1, a.prime ** a.order_exponent)
    )
    slack_term = ExactPoly.monomial(n_stab + profile.max_level, slack)
    target = (gs_lhs_poly(profile) - slack_term) * jp - ExactPoly.one()
    return positive_on_open_unit_interval(target)
