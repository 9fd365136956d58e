"""Replay a Descartes certificate that f > 0 on the open interval (0, 1).

The checker shares no code with the decider.  It divides f exactly by
t^k0 (1 - t)^k1, leaving g.  Every coefficient of g past the head
H = g_0 + ... + g_n t^n, n = head_degree, must be >= 0, so g >= H on
(0, 1).  Then it walks the dyadic tree from (0, 1) down to the
certificate's leaves, in order, carrying for each node (k, i) the integer
polynomial q(x) = 2^(kn) H((i + x) / 2^k); the halves of a node carry
2^n q(x / 2) and its Taylor shift by one.  On each leaf,
(1 + x)^n q(1 / (1 + x)) must have no sign variation, so H has no root
inside the leaf (Descartes' rule of signs), and nonzero end coefficients,
q(0) and q(1), except at t = 0 and t = 1.  Then H has no root in (0, 1),
and H(0) = g_0 > 0 makes H, and so g, positive there; with a positive
denominator, so is f.  Integers only: nothing is evaluated.
"""
from itertools import accumulate


class InvalidCertificateError(ValueError):
    """The certificate does not prove positivity on (0, 1)."""


def _shift(b: list[int]) -> list[int]:
    """In place, p(x + 1) for the polynomial p listed high degree first."""
    for m in range(len(b), 1, -1):
        b[:m] = accumulate(b[:m])
    return b


def check_certificate(f, certificate) -> None:
    """Raise InvalidCertificateError unless the certificate proves that
    the ExactPoly f is positive on (0, 1)."""
    if f.den <= 0:
        raise InvalidCertificateError(f"the denominator {f.den} of f is not positive")
    n, k0, k1 = certificate.head_degree, certificate.k0, certificate.k1
    if min(k0, k1) < 0 or any(f.nums[:k0]):
        raise InvalidCertificateError(f"t^{k0} (1 - t)^{k1} does not divide f")
    g = list(f.nums[k0:])
    for _ in range(k1):
        if sum(g):
            raise InvalidCertificateError(f"t^{k0} (1 - t)^{k1} does not divide f")
        g = list(accumulate(g[:-1]))  # g = (1 - t) (g_0 + (g_0 + g_1) t + ...)
    if not 0 <= n < len(g):
        raise InvalidCertificateError(f"no head of degree {n}")
    if min(g[n + 1:], default=0) < 0:
        raise InvalidCertificateError("a coefficient past the head is negative")
    if g[0] <= 0:
        raise InvalidCertificateError("the head is not positive at 0")
    head = g[:n + 1]
    leaves = list(certificate.leaves)[::-1]
    if any(not 0 <= k < len(leaves) for k, _ in leaves):
        # L leaves that tile (0, 1) lie less than L halvings deep
        raise InvalidCertificateError("a leaf is deeper than the leaves can tile")
    stack = [(0, 0, head)]
    while stack:
        k, i, q = stack.pop()
        lk, li = leaves[-1] if leaves else (-1, -1)
        if (k, i) == (lk, li):
            leaves.pop()
            signs = [c > 0 for c in _shift(list(q)) if c]
            if len(set(signs)) > 1:
                raise InvalidCertificateError(f"leaf {(k, i)} has a sign variation")
            if (i > 0 and not q[0]) or (i + 1 < 1 << k and not sum(q)):
                raise InvalidCertificateError(f"the head vanishes at an end of leaf {(k, i)}")
        elif lk > k and li >> (lk - k) == i:
            left = [c << (n - j) for j, c in enumerate(q)]
            stack += [(k + 1, 2 * i + 1, _shift(left[::-1])[::-1]), (k + 1, 2 * i, left)]
        else:
            raise InvalidCertificateError(f"the leaves do not cover node {(k, i)}")
    if leaves:
        raise InvalidCertificateError(f"leaf {leaves[-1]} lies outside (0, 1)")
