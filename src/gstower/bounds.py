"""Upper bounds for dimension factor counts.

The caps come from comparison with the graded pieces of the quotient of
the free group by one relator of degree k, counted by a Witt-style
Moebius sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .jennings import InvalidPrimeError, is_prime


class RangeExceededError(ValueError):
    """Caps were requested beyond the range where they are proven."""


class NonIntegralResultError(ArithmeticError):
    """Internal consistency failure: a count came out non-integral."""


def moebius(n: int) -> int:
    """Moebius function by trial-division factorization."""
    if n < 1:
        raise ValueError("moebius is defined for n >= 1")
    res, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            res = -res
        d += 1
    if m > 1:
        res = -res
    return res


def labute_g(n: int, d: int, k: int) -> int:
    """Dimension of the degree-n graded piece for d generators and one
    relator of degree k.

    Computed as (1/n) * sum over j | n of mu(n/j) times the alternating
    inner sum with terms j/top * C(top, i) * d^(j-ki), top = j-(k-1)i.
    For k > n the inner sum collapses to d^j and the value is the
    necklace count.  Each weight j/top * C(top, i) is the integer
    C(top, i) + (k-1) C(top-1, i-1) (top >= 1 since i <= j/k), so only
    the final division by n can leave a remainder.
    """
    if n < 1 or d < 1 or k < 2:
        raise ValueError("need n >= 1, d >= 1, k >= 2")
    total = 0
    for j in range(1, n + 1):
        if n % j:
            continue
        mu = moebius(n // j)
        if mu == 0:
            continue
        inner = d ** j
        for i in range(1, j // k + 1):
            top = j - (k - 1) * i
            weight = comb(top, i) + (k - 1) * comb(top - 1, i - 1)
            inner += (-1) ** i * weight * d ** (j - k * i)
        total += mu * inner
    g, rem = divmod(total, n)
    if rem:
        raise NonIntegralResultError(f"g_{n}({d},{k}) = {total}/{n} is not an integer")
    return g


@dataclass(frozen=True)
class CapProfile:
    """Upper caps a_n <= cap(n) for n = 1..n_max.

    Indices outside that range carry no assertion.
    """

    prime: int
    cap_values: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.cap_values)

    def cap(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise RangeExceededError(f"no cap asserted at index {n}")
        return self.cap_values[n - 1]

    def as_list(self) -> list[int]:
        return list(self.cap_values)


def upper_caps(p: int, n_max: int, ztype_37: bool = False) -> CapProfile:
    """Caps for a 2-generated group with deepest relation degree 3.

    The bounds are proved for n < p - 1, so n_max must stay below p - 1.
    With ztype_37 set, the cap at n = 7 is tightened from 4 to 3 (valid
    when the relation degrees are exactly {3, 7}).
    """
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max >= p - 1:
        raise RangeExceededError(
            f"caps are only proven for n < p - 1 = {p - 1}; requested n_max = {n_max}"
        )
    caps = [labute_g(n, 2, 3) for n in range(1, n_max + 1)]
    if ztype_37 and n_max >= 7:
        caps[6] = min(caps[6], 3)
    return CapProfile(prime=p, cap_values=tuple(caps))
