"""Replay a Descartes certificate that f > 0 on the open interval (0, 1).

The checker shares no code with the decider.  It walks the dyadic tree
from (0, 1) down to the certificate's leaves, in order, carrying for each
node (k, i) the integer polynomial q(x) = 2^(kn) f((i + x) / 2^k), n the
degree of f; the halves of a node carry 2^n q(x / 2) and its Taylor shift
by one.  On each leaf, (1 + x)^n q(1 / (1 + x)) must have no sign
variation, so f has no root inside the leaf (Descartes' rule of signs),
and nonzero end coefficients, q(0) and q(1), except at t = 0 and t = 1.
Then f has no root in (0, 1), and the positive sample fixes its sign.
Integers and exact fractions only.
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
    t = certificate.sample_point
    if not (0 < t < 1 and f(t) == certificate.sample_value > 0):
        raise InvalidCertificateError(f"f is not positive at the sample {t}")
    n = f.degree
    leaves = list(certificate.leaves)[::-1]
    if any(not 0 <= k < len(leaves) for k, _ in leaves):
        # L leaves that tile (0, 1) lie less than L halvings deep
        raise InvalidCertificateError("a leaf is deeper than the leaves can tile")
    stack = [(0, 0, list(f.nums))]
    while stack:
        k, i, q = stack.pop()
        lk, li = leaves[-1] if leaves else (-1, -1)
        if (k, i) == (lk, li):
            leaves.pop()
            signs = [c > 0 for c in _shift(list(q)) if c]
            if len(set(signs)) > 1:
                raise InvalidCertificateError(f"leaf {(k, i)} has a sign variation")
            if (i > 0 and not q[0]) or (i + 1 < 1 << k and not sum(q)):
                raise InvalidCertificateError(f"f vanishes at an end of leaf {(k, i)}")
        elif lk > k and li >> (lk - k) == i:
            left = [c << (n - j) for j, c in enumerate(q)]
            stack += [(k + 1, 2 * i + 1, _shift(left[::-1])[::-1]), (k + 1, 2 * i, left)]
        else:
            raise InvalidCertificateError(f"the leaves do not cover node {(k, i)}")
    if leaves:
        raise InvalidCertificateError(f"leaf {leaves[-1]} lies outside (0, 1)")
