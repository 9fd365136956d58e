"""Exact polynomials and a decision procedure for strict positivity on the
open unit interval.

Every polynomial is a dense list of integer coefficients, low degree
first, over one positive common denominator.  The denominator is 1 for
everything the package builds except the strict slack term.  Polynomial
arithmetic and the decider share the integer-list helpers below;
Fraction appears only for evaluation points, witnesses, bisection
midpoints and returned values.  No floats are ever consulted for a
verdict.

The decider checks h(1/2) > 0 for the stripped polynomial h, and a root
transform without sign variation is a one-leaf HOLDS.  Otherwise it scans
the small-denominator points past 1/2, then walks h by Descartes
bisection (Vincent-Collins-Akritas) from that same root transform: the
dyadic leaves are a HOLDS certificate that `gstower.certify` replays,
and the root cells isolate the roots for the witness search.  Euclid,
h / gcd(h, h'), runs only for a walk stalled at the depth bound or a
root of even multiplicity.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Sequence


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no sign on any interval."""


class NoRationalWitnessError(ArithmeticError):
    """Positivity fails only at irrational points of even multiplicity,
    so no rational violation witness exists.  Cannot occur for the
    polynomial families produced elsewhere in this package; raised so the
    caller is never handed a fake witness."""


# Integer polynomial helpers (dense int lists, low degree first, no
# trailing zeros unless noted).  Euclid's remainders are kept primitive:
# every one is rescaled by a positive factor to coprime integer
# coefficients, which keeps coefficient growth polynomial instead of
# exponential.

def _num_den(x) -> tuple[int, int]:
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _itrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _iprimitive(a: list[int]) -> list[int]:
    """a divided by the (positive) gcd of its coefficients."""
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _iadd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sum of two coefficient lists; may leave trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _imul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j] += ca * cb
    return out


def _iderivative(a: Sequence[int]) -> list[int]:
    return _itrim([i * c for i, c in enumerate(a)][1:])


def _ieval_scaled(a: Sequence[int], t) -> int:
    """den^deg(a) * a(t) for t = num/den with den > 0: an integer with
    the sign of a(t), by Horner's rule without fractions."""
    num, den = t.numerator, t.denominator
    acc = 0
    power = 1
    for c in reversed(a):
        acc = acc * num + c * power
        power *= den
    return acc


def _irem(a: list[int], b: list[int]) -> list[int]:
    """Primitive remainder of a mod b, rescaled by a positive factor.

    Fraction-free: the divisor's leading coefficient is made positive
    first (the remainder mod -b equals the remainder mod b), so every
    elimination step multiplies the running remainder by a positive
    integer and the result has the signs of the rational remainder.
    """
    if b[-1] < 0:
        b = [-c for c in b]
    lb = b[-1]
    db = len(b) - 1
    r = list(a)
    while len(r) - 1 >= db and r:
        g = gcd(r[-1], lb)
        m, q = lb // g, r[-1] // g
        if m != 1:
            r = [m * c for c in r]
        shift = len(r) - 1 - db
        for i, c in enumerate(b):
            r[shift + i] -= q * c
        _itrim(r)
    return _iprimitive(r)


def _idiv_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact quotient a / b, primitive-normalized.  Raises unless b
    divides a.

    b is made primitive first, a positive rescaling; by Gauss's lemma the
    quotient then has integer coefficients, so every step divides exactly.
    """
    b = _iprimitive(list(b))
    lb = b[-1]
    r = list(a)
    out = [0] * (len(a) - len(b) + 1)
    while len(r) >= len(b) and r:
        q, rest = divmod(r[-1], lb)
        if rest:
            break
        shift = len(r) - len(b)
        out[shift] = q
        for i, c in enumerate(b):
            r[shift + i] -= q * c
        _itrim(r)
    if r:
        raise ArithmeticError("exact polynomial division left a remainder")
    return _iprimitive(out)


@dataclass(frozen=True)
class ExactPoly:
    """Dense polynomial nums / den with integer numerators, low degree
    first, over one positive common denominator.

    The form is normalized: no trailing zero numerator, den coprime to
    the numerators, and the zero polynomial is ((), 1).  So equal
    polynomials compare equal.
    """

    nums: tuple[int, ...]
    den: int = 1

    @classmethod
    def _normalized(cls, nums: list[int], den: int = 1) -> "ExactPoly":
        _itrim(nums)
        if den != 1:
            g = gcd(den, *nums)
            if g > 1:
                nums = [c // g for c in nums]
                den //= g
        return cls(tuple(nums), den)

    @classmethod
    def from_coeffs(cls, cs: Iterable) -> "ExactPoly":
        """The polynomial with the given int or Fraction coefficients."""
        pairs = [_num_den(c) for c in cs]
        den = lcm(*(d for _, d in pairs))
        return cls._normalized([n * (den // d) for n, d in pairs], den)

    @classmethod
    def one(cls) -> "ExactPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, n: int, c=1) -> "ExactPoly":
        num, den = _num_den(c)
        if num == 0:
            return cls(())
        return cls((0,) * n + (num,), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The exact coefficients, low degree first."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.nums) - 1

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        return ExactPoly._normalized(_iadd(a, b), den)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(tuple(-c for c in self.nums), self.den)

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self + (-other)

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        return ExactPoly._normalized(_imul(self.nums, other.nums), self.den * other.den)

    def __pow__(self, e: int) -> "ExactPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        den = self.den ** e
        out, base = [1], list(self.nums)
        while e:
            if e & 1:
                out = _imul(out, base)
            e >>= 1
            if e:
                base = _imul(base, base)
        return ExactPoly._normalized(out, den)

    def __call__(self, t) -> Fraction:
        _, den = _num_den(t)
        if not self.nums:
            return Fraction(0)
        return Fraction(_ieval_scaled(self.nums, t), self.den * den ** self.degree)


# ---------------------------------------------------------------------------
# Positivity on the open interval (0, 1)
# ---------------------------------------------------------------------------


class Verdict(str, enum.Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"


@dataclass(frozen=True)
class DescartesCertificate:
    """Proof of a HOLDS verdict, replayed by `gstower.certify`.

    Each leaf (k, i) is the dyadic interval (i / 2^k, (i + 1) / 2^k), and
    in order the leaves tile (0, 1).  With q(x) = 2^(kn) h((i + x) / 2^k)
    mapping (0, 1) onto a leaf, (1 + x)^n q(1 / (1 + x)) has no sign
    variation and nonzero end coefficients, so h has no root on the
    closed leaf.  The positive sample then fixes the sign on all of (0, 1).
    """

    leaves: tuple[tuple[int, int], ...]
    sample_point: Fraction
    sample_value: Fraction


@dataclass(frozen=True)
class PositivityReport:
    verdict: Verdict
    witness: Fraction | None = None
    witness_value: Fraction | None = None
    certificate: DescartesCertificate | None = None

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS


def _strip_unit_interval_roots(f: ExactPoly) -> tuple[list[int], int, int]:
    """Write f = t^k0 (1-t)^k1 h with h(0) != 0 != h(1); return primitive h."""
    k0 = 0
    while f.nums[k0] == 0:
        k0 += 1
    h = _iprimitive(list(f.nums[k0:]))
    k1 = 0
    while sum(h) == 0:
        # h = (1-t) q with q_i = sum of h_0..h_i
        h = _itrim(list(accumulate(h[:-1])))
        k1 += 1
    return h, k0, k1


def _small_denominator_scan(h: Sequence[int], max_den: int = 24) -> Fraction | None:
    """First rational in (0,1) past 1/2, ordered by denominator, where
    h <= 0; the decider tries 1/2 itself, first."""
    for q in range(3, max_den + 1):
        for num in range(1, q):
            if gcd(num, q) != 1:
                continue
            t = Fraction(num, q)
            if _ieval_scaled(h, t) <= 0:
                return t
    return None


# Descartes bisection.  A node (k, i) is the dyadic interval
# (i / 2^k, (i + 1) / 2^k), carried as the integer polynomial q whose
# (0, 1) maps onto it: the root node carries h, and the halves of a node
# carry 2^n q(x / 2) and its Taylor shift by one.  The sign variations of
# (1 + x)^n q(1 / (1 + x)) bound the roots in the open node and match
# their count's parity; 0 and 1 are exact (Collins and Akritas, 1976).

# A root of h in (0, 1) that is repeated and not dyadic keeps two
# variations at every depth, so a node still unsplit at this depth sends
# h through Euclid.  A HOLDS target gets there only when complex roots
# crowd (0, 1); 44 of the benchmark's 49 seed-1 targets are one leaf.
_MAX_DEPTH = 32


def _suffix_sums(b: list[int]) -> list[int]:
    """In place, the Taylor shift p(x + 1) of the polynomial p whose
    coefficients b lists high degree first: n passes of suffix sums."""
    for m in range(len(b), 1, -1):
        b[:m] = accumulate(b[:m])
    return b


def _taylor_shift(q: list[int]) -> list[int]:
    """q(x + 1)."""
    return _suffix_sums(q[::-1])[::-1]


def _descartes_transform(q: Sequence[int]) -> list[int]:
    """(1 + x)^n q(1 / (1 + x)), high degree first: its leading
    coefficient is q(0) and its constant q(1)."""
    return _suffix_sums(list(q))


def _halve(q: Sequence[int]) -> list[int]:
    """2^n q(x / 2), the left half of a node."""
    n = len(q) - 1
    return [c << (n - j) for j, c in enumerate(q)]


def _variations(cs: Iterable[int]) -> int:
    signs = [c > 0 for c in cs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _descartes_walk(
    h: list[int], max_depth: int | None = None, root: list[int] | None = None
) -> tuple[list[tuple[int, int]], list[tuple[Fraction, Fraction]], bool]:
    """Descartes bisection of (0, 1) for h, left to right: the leaves,
    nodes without variation and with h nonzero at both ends; the root
    cells, a node with one variation and nonzero ends as the open (lo, hi)
    holding one simple root, and a dyadic root r as (r, r); and whether a
    node with two or more variations, or one variation and a zero end, was
    met at max_depth, where the walk stops with partial leaves and cells.
    root is h's own transform, when the caller has taken it already."""
    if root is None:
        root = _descartes_transform(h)
    leaves, cells = [], []
    stack = [(0, 0, h)]
    while stack:
        k, i, q = stack.pop()
        if i & 1 and not q[0]:
            # a right half starts at its parent's midpoint
            cells.append((Fraction(i, 1 << k),) * 2)
        t = _descartes_transform(q) if k else root
        v = _variations(t)
        if v == 0:
            if t[0] and t[-1]:  # else h vanishes only at its ends
                leaves.append((k, i))
        elif v == 1 and t[0] and t[-1]:
            cells.append((Fraction(i, 1 << k), Fraction(i + 1, 1 << k)))
        elif max_depth is not None and k >= max_depth:
            return leaves, cells, True
        else:
            left = _halve(q)
            stack += [(k + 1, 2 * i + 1, _taylor_shift(left)), (k + 1, 2 * i, left)]
    return leaves, cells, False


def _split(lo: Fraction, hi: Fraction, roots) -> list[tuple[Fraction, Fraction]]:
    """Bisect (lo, hi] until each part holds one root of `roots`; the
    parts that hold one, left to right.  A cell has no root at its ends,
    and only a part holding two cells is split, so no cell is ever split:
    counting roots by their cells is exact."""
    parts, stack = [], [(lo, hi, roots)]
    while stack:
        lo, hi, roots = stack.pop()
        inside = [(a, b) for a, b in roots if lo <= a and b <= hi and lo < b]
        if len(inside) > 1:
            mid = (lo + hi) / 2
            stack += [(mid, hi, inside), (lo, mid, inside)]
        elif inside:
            parts.append((lo, hi))
    return parts


def _squarefree_part(h: list[int]) -> list[int]:
    """h / gcd(h, h'), by one Euclid."""
    a, b = h, _iderivative(h)
    while b:
        a, b = b, _irem(a, b)
    return _idiv_exact(h, a) if len(a) > 1 else h


def _rational_roots_in(h_sf: list[int], lo: Fraction, hi: Fraction) -> Fraction | None:
    """Rational root of the squarefree integer polynomial h_sf inside
    (lo, hi), which must hold exactly one root of h_sf and no root at
    either end.

    The root is simple, so h_sf changes sign across it; bisect on that
    sign until the interval is narrower than 1/lead^2.  A rational root
    has a denominator dividing lead, and two distinct such rationals lie
    at least 1/lead^2 apart, so the only candidate is the rational of
    denominator <= |lead| nearest the midpoint.
    """
    lead = abs(h_sf[-1])
    lo_sign = _ieval_scaled(h_sf, lo) > 0
    if lo_sign == (_ieval_scaled(h_sf, hi) > 0):
        raise ArithmeticError("isolating interval without a sign change")
    while (hi - lo) * lead * lead >= 1:
        mid = (lo + hi) / 2
        value = _ieval_scaled(h_sf, mid)
        if value == 0:
            return mid
        if (value > 0) == lo_sign:
            lo = mid
        else:
            hi = mid
    cand = ((lo + hi) / 2).limit_denominator(lead)
    if lo < cand < hi and _ieval_scaled(h_sf, cand) == 0:
        return cand
    return None


def _refine_witness(
    h: list[int], lo: Fraction, hi: Fraction, lo_positive: bool, max_iter: int = 400
) -> Fraction:
    """Bisect an interval with a sign change of h to a point with h <= 0.

    lo_positive says which endpoint carries the positive sign; the
    midpoint replaces that endpoint whenever h(mid) > 0, so the interval
    keeps straddling the crossing and some midpoint lands on the
    nonpositive side.
    """
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        if _ieval_scaled(h, mid) <= 0:
            return mid
        if lo_positive:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("witness bisection failed to converge")


def positive_on_open_unit_interval(f: ExactPoly) -> PositivityReport:
    """Decide whether f(t) > 0 for every t in the open interval (0, 1).

    Roots at the endpoints are factored out first (they do not affect the
    open-interval verdict).  A VIOLATED verdict carries an exact rational
    witness with f(witness) <= 0, searched smallest-denominator first
    from 1/2, so witnesses stay human-readable.  A HOLDS verdict carries a
    Descartes certificate: dyadic leaves tiling (0, 1) on which h has no
    root, plus the positive sample at 1/2; with no sign variation at the
    root, (0, 1) is the one leaf and no scan runs.  The walk isolates the
    roots of h; only a walk stalled at the depth bound, or a root of even
    multiplicity, sends h through Euclid.
    """
    if not f.nums:
        raise ZeroPolynomialError("positivity of the zero polynomial is undefined")

    h, _, _ = _strip_unit_interval_roots(f)
    sample = Fraction(1, 2)
    if _ieval_scaled(h, sample) <= 0:
        return PositivityReport(Verdict.VIOLATED, witness=sample, witness_value=f(sample))

    # no variation at the root node: the walk's one leaf, and no scan
    leaves, cells, stalled = [(0, 0)], [], False
    root = _descartes_transform(h)
    if _variations(root):
        w = _small_denominator_scan(h)
        if w is not None:
            return PositivityReport(Verdict.VIOLATED, witness=w, witness_value=f(w))
        leaves, cells, stalled = _descartes_walk(h, _MAX_DEPTH, root)
    h_sf = None
    if stalled:
        # a repeated root, or a cluster too deep to settle
        h_sf = _squarefree_part(h)
        cells = _descartes_walk(h_sf)[1]
        if not cells:
            # no root after all: a complex cluster near (0, 1), settled deeper
            leaves = _descartes_walk(h, root=root)[0]
    if cells:
        # each interval holds one distinct root of h: find a rational witness
        for lo, hi in _split(Fraction(0), Fraction(1), cells):
            vlo, vhi = _ieval_scaled(h, lo), _ieval_scaled(h, hi)
            if 0 < lo < 1 and vlo <= 0:
                return PositivityReport(Verdict.VIOLATED, witness=lo, witness_value=f(lo))
            if 0 < hi < 1 and vhi <= 0:
                return PositivityReport(Verdict.VIOLATED, witness=hi, witness_value=f(hi))
            if vlo * vhi < 0:
                w = _refine_witness(h, lo, hi, lo_positive=vlo > 0)
                return PositivityReport(Verdict.VIOLATED, witness=w, witness_value=f(w))
            # no sign change: a root of even multiplicity
            if h_sf is None:
                h_sf = _squarefree_part(h)
            root = _rational_roots_in(h_sf, lo, hi)
            if root is not None:
                return PositivityReport(Verdict.VIOLATED, witness=root, witness_value=f(root))
        raise NoRationalWitnessError(
            "polynomial vanishes in (0,1) only at irrational points of even multiplicity"
        )

    # h(1/2) > 0 was checked first
    cert = DescartesCertificate(tuple(leaves), sample, f(sample))
    return PositivityReport(Verdict.HOLDS, certificate=cert)
