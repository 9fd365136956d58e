"""Validity of candidate dimension sequences under the counting recursion.

Given a relation profile and a finitely supported sequence a, the
filtration expansion gives c_n, and the recursion

    sum_i r_i c_(n-i) - d c_(n-1) = 1 + e_n      (r_0 = 1, r_1 = 0)

defines the defect sequence e_n.  A sequence is valid when it respects
the proven caps and e stays nonnegative.  Both c and e stabilize by
construction; the terminal value of 1 + e_n is (r + 1 - d) times the
group order.

Codimensions travel as one tuple (c_0, ..., c_M) ending at the group
order, transformed (JenningsData.c) or measured (augmentation_powers);
c_n reads as 0 for n < 0 and as c_M for n > M.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .bounds import upper_caps
from .gs_check import RelationProfile, lhs_at
from .jennings import DimensionSequence, jennings_transform
from .series import ExactPoly


class NotStabilizedError(ValueError):
    """Supplied sequence data does not end in its stabilized regime."""


def default_profile() -> RelationProfile:
    """Two generators, relation degrees {3, 7}."""
    return RelationProfile(2, (3, 7))


def defect_recursion(
    c: Sequence[int], d: int, levels: Iterable[int]
) -> tuple[int, ...]:
    """e_1..e_T with 1 + e_n = c_n - d c_(n-1) + sum_k c_(n-k) over the
    relation degrees k.  c is the codimension tuple (c_0, ..., c_M)
    ending at the order: c_n = 0 for n < 0 and c_n = c_M for n > M.

    T = M + max(1, *levels), which callers read as the length of this
    result, is the first terminal index: from there on every c_(n-k) of
    the recursion is c_M, so e_n = e_T for all n >= T."""
    levels = tuple(levels)
    lag = max((1, *levels))
    # padded[i] = c_(i + 1 - lag) for i = 0..T + lag - 1; padded[lag - k:]
    # starts at c_(1 - k), and zip and map stop at padded[lag:], length T
    padded = [0] * (lag - 1) + list(c) + [c[-1]] * lag
    e = [v - d * w - 1 for v, w in zip(padded[lag:], padded[lag - 1:])]
    for k in levels:
        e = list(map(add, e, padded[lag - k:]))
    return tuple(e)


def stabilized_defect(profile: RelationProfile, order: int) -> int:
    """Terminal value of e_n: (r + 1 - d) * order - 1."""
    return (profile.r + 1 - profile.d) * order - 1


@dataclass(frozen=True)
class ValidityReport:
    prime: int
    profile: RelationProfile
    a: DimensionSequence
    b: tuple[int, ...]
    c: tuple[int, ...]
    e: tuple[int, ...]
    horizon: int
    caps_ok: bool
    e_nonnegative: bool
    order_exponent: int
    c_limit: int
    e_limit: int
    verdict: str
    first_failure: str | None

    @property
    def valid(self) -> bool:
        return self.verdict == "VALID"

    @property
    def stabilized(self) -> bool:
        """Always True: the transform asserts that c = (c_0, ..., c_(N+1))
        ends at the order, so e_n = e_limit from the first terminal index
        of defect_recursion on.  e lists the recursion through that index
        and then seven more copies of e_limit, through N + L + 8 with
        L = max(levels, 1)."""
        return True


def _caps_failure(a: DimensionSequence, profile: RelationProfile) -> str | None:
    """First cap violation, or None.  Caps are only asserted for profiles
    with two generators, two relations, and deepest-degree-3 comparison
    available (min level 3); and only at indices n < p - 1."""
    if profile.d != 2 or profile.r != 2 or (profile.levels and profile.levels[0] != 3):
        return None
    if not a.entries:
        return None
    limit = min(a.max_index, a.prime - 2)
    if limit < 1:
        return None
    caps = upper_caps(a.prime, limit, ztype_37=profile.levels == (3, 7))
    for n in range(1, limit + 1):
        if a.get(n) > caps.cap(n):
            return f"a_{n} = {a.get(n)} exceeds cap {caps.cap(n)}"
    return None


def is_valid(
    a: DimensionSequence,
    profile: RelationProfile | None = None,
) -> ValidityReport:
    """Full validity report for a candidate sequence.

    Checks run in a fixed order so the first failure is deterministic:
    caps, then nonnegativity of e.  c needs no check of its own: the
    transform rejects a negative b, and c is the partial sums of b, so it
    never decreases.  Both tails stabilize by construction (see
    ValidityReport.stabilized).
    """
    if profile is None:
        profile = default_profile()
    data = jennings_transform(a)
    order = data.order
    e_limit = stabilized_defect(profile, order)
    e = defect_recursion(data.c, profile.d, profile.levels) + (e_limit,) * 7

    cap_fail = _caps_failure(a, profile)
    caps_ok = cap_fail is None
    first_failure = cap_fail

    e_nonnegative = min(e) >= 0
    if first_failure is None and not e_nonnegative:
        n_bad = next(n for n, v in enumerate(e, start=1) if v < 0)
        first_failure = f"e_{n_bad} = {e[n_bad - 1]} is negative"

    verdict = "VALID" if first_failure is None else "INVALID"
    return ValidityReport(
        prime=a.prime,
        profile=profile,
        a=a,
        b=data.b,
        c=data.c,
        e=e,
        horizon=len(e),
        caps_ok=caps_ok,
        e_nonnegative=e_nonnegative,
        order_exponent=data.order_exponent,
        c_limit=order,
        e_limit=e_limit,
        verdict=verdict,
        first_failure=first_failure,
    )


def mildness_defect(
    a: DimensionSequence,
    profile: RelationProfile,
) -> tuple[int, ...]:
    """The e sequence through its first terminal index, read as the
    obstruction to mildness: all zeros through index n exactly when the
    presentation-side polynomial equals the filtration series there.  Any
    finite group ends at e_n = (r + 1 - d)|G| - 1, nonzero for |G| > 1
    and negative when r < d, so only infinite quotients are mild."""
    return defect_recursion(jennings_transform(a).c, profile.d, profile.levels)


def gs_equality_eval(
    a: DimensionSequence,
    profile: RelationProfile,
    t: Fraction | int,
    c: tuple[int, ...] | None = None,
    e: tuple[int, ...] | None = None,
) -> tuple[Fraction, Fraction]:
    """Both sides of the counting identity at a rational t in [0, 1).

    Left side: sum_k r_k t^k - d t + 1.  Right side: the reciprocal of
    the filtration polynomial plus the ratio of the e- and c-series, with
    the geometric tails summed in closed form.  Sequences c and e default
    to the recursion values; explicitly supplied ones (e.g. measured from
    a group algebra) must be terminal in every c_n past N and every e_n
    past tail_start, the entries the closed-form tails stand in for.
    """
    t = Fraction(t)
    if not 0 <= t < 1:
        raise ValueError("t must lie in [0, 1)")
    data = jennings_transform(a)
    order = data.order
    n_stab = data.stabilization_index
    expected = defect_recursion(data.c, profile.d, profile.levels)
    # e_n is constant for n > tail_start
    tail_start = len(expected) - 1
    e_limit = stabilized_defect(profile, order)

    if c is None:
        c = data.c
    elif set(c[n_stab + 1:]) != {order}:
        raise NotStabilizedError("supplied c sequence is not the group order past N")
    if e is None:
        e = expected
    elif set(e[tail_start:]) != {e_limit}:
        raise NotStabilizedError("supplied e sequence is not terminal past its tail start")

    lhs = Fraction(*lhs_at(profile, t))

    if t == 0:
        return lhs, Fraction(1)

    # c_1..c_N and e_1..e_(tail_start) as integer polynomials; the
    # constant tails past them are geometric series
    c_head = ExactPoly.from_coeffs((0, *c[1:n_stab + 1]))
    e_head = ExactPoly.from_coeffs((0, *e[:tail_start]))
    c_series = c_head(t) + order * t ** (n_stab + 1) / (1 - t)
    e_series = e_head(t) + e_limit * t ** (tail_start + 1) / (1 - t)

    # integer coefficients with b_N = 1: already the normalized form
    rhs = 1 / ExactPoly(data.b)(t) + e_series / c_series
    return lhs, rhs
