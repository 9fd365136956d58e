"""The Descartes walk in the monomial basis, which the Bernstein walk of
`gstower.series` replaced, kept as a test oracle.

A node (k, i) is the dyadic interval (i / 2^k, (i + 1) / 2^k), carried as
the integer polynomial q whose (0, 1) maps onto it: the root node carries
h, and the halves of a node carry 2^n q(x / 2) and its Taylor shift by
one.  Every node takes its own transform (1 + x)^n q(1 / (1 + x)), whose
sign variations bound the roots in the open node and match their count's
parity (Collins and Akritas, 1976).
"""
from fractions import Fraction

from gstower.series import _descartes_transform, _variations


def _taylor_shift(q: list[int]) -> list[int]:
    """q(x + 1): the transform reads its input high degree first, and on
    that reading it is a Taylor shift by one."""
    return _descartes_transform(q[::-1])[::-1]


def _halve(q: list[int]) -> list[int]:
    """2^n q(x / 2), the left half of a node."""
    n = len(q) - 1
    return [c << (n - j) for j, c in enumerate(q)]


def taylor_walk(h: list[int], max_depth: int | None = None):
    """(leaves, cells, stalled) of the walk of h, left to right, as
    `gstower.series._Walk` defines them."""
    leaves, cells = [], []
    stack = [(0, 0, h)]
    while stack:
        k, i, q = stack.pop()
        if i & 1 and not q[0]:
            # a right half starts at its parent's midpoint
            cells.append((Fraction(i, 1 << k),) * 2)
        t = _descartes_transform(q)
        v = _variations(t)
        if v == 0:
            if t[0] and t[-1]:
                leaves.append((k, i))
        elif v == 1 and t[0] and t[-1]:
            cells.append((Fraction(i, 1 << k), Fraction(i + 1, 1 << k)))
        elif max_depth is not None and k >= max_depth:
            return leaves, cells, True
        else:
            left = _halve(q)
            stack += [(k + 1, 2 * i + 1, _taylor_shift(left)), (k + 1, 2 * i, left)]
    return leaves, cells, False
