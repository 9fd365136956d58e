"""Dimension sequences of finite p-groups and the polynomial identity
relating them to the filtration quotients of the group algebra.

For a sequence (a_n) with a_n the number of cyclic factors of order p in
the n-th dimension quotient, Jennings' product over the support of a of
((1 - t^(pn)) / (1 - t^n))^(a_n) is a polynomial sum b_n t^n whose
coefficients are the dimensions of the graded pieces of the augmentation
filtration; partial sums give the codimension sequence c_n.

Each factor 1 + t^n + ... + t^((p-1)n) is palindromic, so b is too, and
only b_0..b_(H-1), H = N//2 + 1, are computed, then mirrored.  The
numerators multiply to D(t^p), D(s) the product of (1 - s^n)^(a_n): the
first ceil(H/p) coefficients of D are placed at the multiples of p, then
divided by each (1 - t^n)^(a_n), a running sum over each residue class
mod n.  Truncation mod t^H is a ring map and 1 - t^n is a unit of Z[[t]],
so this gives b_0..b_(H-1) exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Iterable, Mapping

from .series import ExactPoly


class InvalidPrimeError(ValueError):
    """The modulus must be a prime number."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class DimensionSequence:
    """Finitely supported sequence n -> a_n of dimension factor counts.

    Entries are stored as sorted (index, value) pairs with value > 0;
    absent indices read as zero.
    """

    prime: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not is_prime(self.prime):
            raise InvalidPrimeError(f"{self.prime} is not prime")
        seen = set()
        for n, v in self.entries:
            if n < 1 or v < 0:
                raise ValueError(f"bad entry a_{n} = {v}")
            if n in seen:
                raise ValueError(f"duplicate index {n}")
            seen.add(n)
        cleaned = tuple(sorted((n, v) for n, v in self.entries if v > 0))
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def from_values(cls, p: int, values: Iterable[int]) -> "DimensionSequence":
        return cls(p, tuple((i, v) for i, v in enumerate(values, start=1)))

    @classmethod
    def from_dict(cls, p: int, d: Mapping[int, int]) -> "DimensionSequence":
        return cls(p, tuple(d.items()))

    def get(self, n: int) -> int:
        for idx, v in self.entries:
            if idx == n:
                return v
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.entries)

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    @property
    def order_exponent(self) -> int:
        """Sum of all a_n: the group order is p to this power."""
        return sum(v for _, v in self.entries)

    @property
    def weighted_degree(self) -> int:
        """Sum of n * a_n; the filtration length is (p-1) times this."""
        return sum(n * v for n, v in self.entries)

    def as_list(self) -> list[int]:
        return [self.get(n) for n in range(1, self.max_index + 1)]

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def pn_inverse_poly(n: int, p: int) -> ExactPoly:
    """The polynomial 1 + t^n + t^(2n) + ... + t^((p-1)n), i.e. the
    reciprocal of (1 - t^n)/(1 - t^(np))."""
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    if n < 1:
        raise ValueError("index must be >= 1")
    coeffs = [0] * (n * (p - 1) + 1)
    for j in range(p):
        coeffs[j * n] = 1
    return ExactPoly.from_coeffs(coeffs)


@dataclass(frozen=True)
class JenningsData:
    """Expanded filtration data of a dimension sequence."""

    prime: int
    b: tuple[int, ...]
    c: tuple[int, ...]
    stabilization_index: int
    order_exponent: int

    @property
    def order(self) -> int:
        return self.prime ** self.order_exponent

    def c_at(self, n: int) -> int:
        """c_n for any integer n: zero for n <= 0, the group order past
        the stabilization index."""
        if n <= 0:
            return 0
        if n >= len(self.c):
            return self.order
        return self.c[n]


def one_minus_product(a: DimensionSequence, length: int) -> list[int]:
    """Coefficients of the product of (1 - t^n)^(a_n) over the support of
    a, modulo t^length (length >= 1)."""
    out = [1] + [0] * (length - 1)
    for n, an in a.entries:
        for _ in range(an):
            # times 1 - t^n: both slices are copies of the old list, empty
            # when n >= length
            out[n:] = map(sub, out[n:], out[:-n])
    return out


def jennings_transform(a: DimensionSequence) -> JenningsData:
    """Expand the product over the support of a of the inverted factors.

    Returns the polynomial, its coefficients b_0..b_N, and the partial
    sums c_0..c_(N+1).  Degree and endpoint identities are asserted:
    N = (p-1) * sum(n * a_n) and c_(N+1) = p ** sum(a_n).
    """
    p = a.prime
    degree = (p - 1) * a.weighted_degree
    length = degree // 2 + 1
    half = [0] * length
    half[::p] = one_minus_product(a, -(-length // p))
    for n, an in a.entries:
        for r in range(min(n, length)):
            # divided by (1 - t^n)^a_n: running sums in the residue class r
            column = half[r::n]
            for _ in range(an):
                column = accumulate(column)
            half[r::n] = column
    # b_(N-i) = b_i: mirror the first ceil(N/2) coefficients
    b = tuple(half + half[:degree - degree // 2][::-1])
    n_stab = len(b) - 1
    if n_stab != degree:
        raise AssertionError("filtration length mismatch")
    c = (0, *accumulate(b))
    if c[-1] != p ** a.order_exponent:
        raise AssertionError("coefficient sum does not equal the group order")
    if min(half) < 0:
        raise AssertionError("negative graded dimension")
    return JenningsData(
        prime=p,
        b=b,
        c=c,
        stabilization_index=n_stab,
        order_exponent=a.order_exponent,
    )
