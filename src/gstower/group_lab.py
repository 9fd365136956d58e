"""Brute-force laboratory over small finite p-groups.

Multiplication tables, powers of the augmentation ideal in the group
algebra, dimension subgroups and the lower central series, the filtration
product formula, relator levels from the run-length Magnus series of each
relator, plus a direct kernel computation of the recursion defects from
the Fox derivatives of the relator words.

Everything is dense linear algebra over F_p on vectors indexed by group
elements, so built-in and file groups are capped at 343 elements.  The
filtration is built from the dual side: the left annihilators
S_n = Ann(I^n) grow by one preimage under the generator map per level,
and each level adds only its new vectors to one incremental elimination.
By the duality of F_p[G] under (a, b) -> coefficient of 1 in ab, the
annihilator flag gives the inverse of one flag basis per group, whose
trailing rows span each power of the ideal: a residue modulo I^n is a
cut of the coordinates in that basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gs_check import RelationProfile
from .jennings import DimensionSequence, InvalidPrimeError, is_prime
from .validity import defect_recursion, stabilized_defect

DEFAULT_SIZE_LIMIT = 343
#: word_level gives up past this truncation degree
MAX_LEVEL_CAP = 512


class SizeLimitError(ValueError):
    """Group too large for dense group-algebra computations."""


class GroupTableError(ValueError):
    """Multiplication table fails a group axiom."""


class PresentationError(ValueError):
    """Relator data inconsistent with the target group."""


# ---------------------------------------------------------------------------
# F_p row reduction
# ---------------------------------------------------------------------------

def _rref(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot cols)."""
    m = np.asarray(rows, dtype=np.int64) % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, col])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        # row r is zero left of col: earlier columns are pivots or were
        # empty from row r down
        m[r, col:] = (m[r, col:] * pow(int(m[r, col]), p - 2, p)) % p
        hit = np.nonzero(m[:, col])[0]
        hit = hit[hit != r]
        block = m[hit, col:]
        block -= m[hit, col, None] * m[r, col:]
        block %= p
        m[hit, col:] = block
        pivots.append(col)
        r += 1
    return m[:r], pivots


def _rref_extend(
    rest: np.ndarray, pivots: np.ndarray, rows: np.ndarray, p: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extend a reduced echelon basis over F_p by new rows reduced mod p.

    The basis is stored compactly: pivots[i] is the pivot column of row i,
    and rest holds the rows in the non-pivot columns only, in column order
    (in the pivot columns a reduced echelon basis is the identity).
    Returns the extended (rest, pivots), where the new rows follow the old
    ones in the order of their pivots, and the new rows in full.

    The new rows are reduced against the basis by one product, what
    remains is row-reduced on the columns where it is nonzero, and the old
    rows are cleared in the new pivot columns by a second product.  Both
    products skip the columns they would set to zero."""
    width = rows.shape[1]
    free = np.ones(width, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    rows = (rows[:, free] - rows[:, pivots] @ rest) % p
    live = np.flatnonzero(rows.any(axis=0))
    reduced, found = _rref(rows[:, live], p)
    found = live[found]  # positions among the free columns
    new = np.zeros((len(found), len(free)), dtype=np.int64)
    new[:, live] = reduced
    keep = np.ones(len(free), dtype=bool)
    keep[found] = False
    kept = rest[:, keep]
    kept -= rest[:, found] @ new[:, keep]
    kept %= p
    full = np.zeros((len(found), width), dtype=np.int64)
    full[:, free] = new
    return np.vstack([kept, new[:, keep]]), np.concatenate([pivots, free[found]]), full


# ---------------------------------------------------------------------------
# Group tables
# ---------------------------------------------------------------------------

class FiniteGroupTable:
    """A finite p-group given by its full multiplication table.

    Element 0 is the identity.  mul[i, j] is the index of the product of
    elements i and j.  Construction checks that the order is the expected
    power of the prime and that the table is a Latin square with identity
    0, finds or checks the generators, and then checks associativity on
    them (Light's test).
    """

    def __init__(
        self,
        prime: int,
        mul: np.ndarray,
        generators: Sequence[int] | None = None,
    ):
        if not is_prime(prime):
            raise InvalidPrimeError(f"{prime} is not prime")
        mul = np.array(mul, dtype=np.int64)
        n = mul.shape[0]
        self.prime = prime
        self.order = n
        self.mul = mul
        self._validate()
        self.inv = np.argmin(mul, axis=1)  # identity is element 0
        if generators is None:
            generators = self._find_generators()
        self.generators = tuple(int(g) for g in generators)
        if self.subgroup_closure(self.generators) != frozenset(range(n)):
            raise GroupTableError("declared generators do not generate the group")
        self._check_associative()
        self._filtration: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._flag: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction checks ------------------------------------------------

    def _validate(self) -> None:
        n, mul, p = self.order, self.mul, self.prime
        m = n
        while m % p == 0:
            m //= p
        if m != 1 or n < 1:
            raise GroupTableError(f"order {n} is not a power of {p}")
        if mul.shape != (n, n) or mul.min() < 0 or mul.max() >= n:
            raise GroupTableError("malformed multiplication table")
        ident = np.arange(n)
        if not (np.all(mul[0] == ident) and np.all(mul[:, 0] == ident)):
            raise GroupTableError("element 0 is not a two-sided identity")
        if not (np.all(np.sort(mul, axis=1) == ident)
                and np.all(np.sort(mul, axis=0) == ident[:, None])):
            raise GroupTableError("table rows/columns are not permutations")

    def _check_associative(self) -> None:
        """Light's test on the generators: (x g) y = x (g y) for all x, y."""
        # The a with (x a) y = x (a y) for all x, y include the identity
        # and are closed under products: for two of them a and b,
        # (x (ab)) y = ((x a) b) y = (x a)(b y) = x (a (b y)) = x ((ab) y).
        # Every element is a product of generators, so the table is
        # associative: a group, in which every element order divides |G|.
        mul = self.mul
        for g in self.generators:
            if not np.array_equal(mul[mul[:, g]], mul[:, mul[g]]):
                raise GroupTableError(f"associativity fails at generator {g}")

    def _find_generators(self) -> list[int]:
        gens: list[int] = []
        reached = frozenset([0])
        while len(reached) < self.order:
            g = min(set(range(self.order)) - reached)
            gens.append(g)
            reached = self.subgroup_closure(gens)
        return gens

    # -- elementary operations ----------------------------------------------

    def multiply(self, i: int, j: int) -> int:
        return int(self.mul[i, j])

    def inverse(self, i: int) -> int:
        return int(self.inv[i])

    def element_order(self, g: int) -> int:
        o, x = 1, g
        while x != 0:
            x = int(self.mul[x, g])
            o += 1
        return o

    def exponent(self) -> int:
        return max(self.element_order(g) for g in range(self.order))

    def subgroup_closure(self, gens: Iterable[int]) -> frozenset[int]:
        """Everything reached from the identity by right multiplication by
        the generators: in a finite group that submonoid is the subgroup."""
        gens = np.unique(np.fromiter(gens, dtype=np.int64))
        members = np.zeros(self.order, dtype=bool)
        members[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            reached = np.unique(self.mul[np.ix_(frontier, gens)])
            frontier = reached[~members[reached]]
            members[frontier] = True
        return frozenset(np.flatnonzero(members).tolist())

    def word_to_element(self, word: Sequence[int], images: Sequence[int]) -> int:
        """The image of the word when letter +-i maps to images[i - 1]^(+-1)."""
        d = len(images)
        acc = 0
        for letter in word:
            if not 1 <= abs(letter) <= d:
                raise PresentationError(f"letter {letter} out of range for {d} generators")
            g = images[abs(letter) - 1]
            if letter < 0:
                g = self.inverse(g)
            acc = self.multiply(acc, g)
        return acc

    # -- group algebra filtration ---------------------------------------------

    def ideal_filtration(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The powers of the augmentation ideal, read through the flag basis.

        Index n holds (T[c_n:], T^-1[:, :c_n]): rows spanning I^n, and
        columns that cut it out (v lies in I^n exactly when v @ T^-1[:, :c_n]
        is zero).  The list ends at the first zero power.  Both are views
        into the arrays of flag_basis.

        The flag comes from the left annihilators S_n = {x : x I^n = 0}.
        S_0 = 0, and S_(n+1) is the set of x with x (g_i - 1) in S_n for
        every generator g_i, because the generator differences generate I
        as a one-sided ideal: S_(n+1) is the preimage of S_n^d under
        R: x -> (x (g_i - 1))_i.  R is row-reduced once, as [R | 1], which
        gives the reduced echelon basis B of its row space, a lift L with
        L R = B; ker R = S_1 is spanned by the sum of all elements.  At
        each level the new vectors of S_n go into each of the d slots, are
        reduced modulo the row space of R, and enter one incremental
        elimination on (residue, B-coordinates).  The combinations whose
        residues become dependent lie in R(F_p[G]) and in S_n^d; their
        B-coordinates C, lifted through L, are the new vectors of S_(n+1).
        The elimination reduces each level's C against the levels before
        it, so the stacked C with its columns in pivot order is
        unitriangular, block by level.

        Under the nondegenerate form (a, b) -> coefficient of 1 in ab, S_n
        is the orthogonal complement of I^n (it annihilates I^n, and
        dim S_n = codim I^n; Jennings 1941).  So with V the stacked
        S-flag, T^-1 = V[:, g -> g^-1]^T.  V Q = diag(1, C) for
        Q = [e_0 | the columns of R at the pivots of B], e_0 being the
        identity, so T, the transpose of Q[g -> g^-1] diag(1, C)^-1, takes
        one product per level.
        """
        if self._filtration is not None:
            return self._filtration
        n, p, d = self.order, self.prime, len(self.generators)
        inv = self.inv
        # [R | 1]; row h of R holds e_h (g_i - 1) = e_(h g_i) - e_h in slot i
        RI = np.zeros((n, d + 1, n), dtype=np.int64)
        h = np.arange(n)[:, None]
        RI[h, np.arange(d), self.mul[:, list(self.generators)]] += 1
        RI[h, np.arange(d), h] -= 1
        RI[:, d] = np.eye(n, dtype=np.int64)
        RI = RI.reshape(n, -1)
        red, piv = _rref(RI, p)
        rank = n - 1  # the generators generate G, so ker R is S_1 alone
        piv_R = np.array(piv[:rank], dtype=np.int64)
        free = np.setdiff1d(np.arange(d * n), piv_R)
        width = len(free)
        # the last row of the reduced [R | 1] is [0 | the sum of all
        # elements], with its pivot at the identity, so column 0 of L is
        # zero, and so is column 0 of V Q below its first row
        B_free, L = red[:rank, free], red[:rank, d * n:].copy()
        R_piv = RI[:, piv_R]
        del RI, red  # the work arrays, before the levels
        # slot i is columns i n .. (i+1) n of R: its pivots are the rows
        # cut[i]:cut[i+1] of B, its other columns the residue columns
        # fcut[i]:fcut[i+1]
        cut = np.searchsorted(piv_R, n * np.arange(d + 1))
        fcut = np.searchsorted(free, n * np.arange(d + 1))

        T_inv = np.zeros((n, n), dtype=np.int64)
        T_inv[:, 0] = 1
        coords = np.zeros((n - 1, rank), dtype=np.int64)  # the stacked C
        lead = np.zeros(n - 1, dtype=np.int64)  # the pivot column of each row of C
        c = [0, 1]
        new = np.ones((1, n), dtype=np.int64)
        echelon = np.zeros((0, width + rank), dtype=np.int64)  # compact, see _rref_extend
        pivots = np.zeros(0, dtype=np.int64)
        while c[-1] < n:
            k = len(new)
            # each new vector in each slot: its residue modulo the row space
            # of R, then its coordinates in B
            rows = np.zeros((d * k, width + rank), dtype=np.int64)
            for i, (lo, hi, flo, fhi) in enumerate(zip(cut, cut[1:], fcut, fcut[1:])):
                in_B = new[:, piv_R[lo:hi] - i * n]
                block = rows[i * k:(i + 1) * k]
                block[:, :width] = -(in_B @ B_free[lo:hi])
                block[:, flo:fhi] += new[:, free[flo:fhi] - i * n]
                block[:, width + lo:width + hi] = in_B
            rows %= p
            old = len(pivots)
            echelon, pivots, found = _rref_extend(echelon, pivots, rows, p)
            # rows with their pivot among the B-coordinates have no residue
            dependent = pivots[old:] >= width
            C = found[dependent, width:]
            new = C @ L % p
            lo, hi = c[-1], c[-1] + len(C)
            T_inv[:, lo:hi] = new[:, inv].T
            coords[lo - 1:hi - 1] = C
            lead[lo - 1:hi - 1] = pivots[old:][dependent] - width
            c.append(hi)
        # U = diag(1, C) with its columns in pivot order, inverted block by
        # block from the last level up
        U = np.zeros((n, n), dtype=np.int64)
        U[0, 0] = 1
        U[1:, 1:] = coords[:, lead]
        U_inv = np.eye(n, dtype=np.int64)
        for lo, hi in zip(c[-2::-1], c[:0:-1]):
            U_inv[lo:hi, hi:] = -(U[lo:hi, hi:] @ U_inv[hi:, hi:]) % p
        # Q[g -> g^-1] with its columns in the same order
        Q = np.zeros((n, n), dtype=np.int64)
        Q[0, 0] = 1
        Q[:, 1:] = R_piv[np.ix_(inv, lead)]
        T = U_inv.T @ Q.T % p
        self._flag = (T, T_inv)
        self._filtration = [(T[cn:], T_inv[:, :cn]) for cn in c]
        return self._filtration

    def flag_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """A basis T of F_p[G] adapted to the filtration, and T^-1 mod p.

        T[c_n:] spans I^n.  In the coordinates x = v @ T^-1 of a vector v,
        v lies in I^n exactly when x[:c_n] = 0, and x[:c_n] is its residue
        modulo I^n.  Built with the filtration (see ideal_filtration).
        """
        self.ideal_filtration()
        return self._flag


def augmentation_powers(G: FiniteGroupTable) -> tuple[int, ...]:
    """Codimensions c_n = |G| - dim I^n, up to the first n with I^n = 0."""
    return tuple(G.order - basis.shape[0] for basis, _ in G.ideal_filtration())


def dimension_subgroups(
    G: FiniteGroupTable,
) -> tuple[tuple[frozenset[int], ...], DimensionSequence]:
    """The chain G = G_1 >= G_2 >= ... (g in G_n iff g - 1 in I^n) down to
    the trivial subgroup, together with the sequence a_n with
    p^(a_n) = [G_n : G_(n+1)].

    g - 1 lies in I^n exactly when its first nonzero coordinate in the
    flag basis comes at index c_n or later."""
    c = augmentation_powers(G)
    _, T_inv = G.flag_basis()
    # (e_g - e_0) @ T^-1 for every g; the identity's row is zero
    nonzero = ((T_inv - T_inv[0]) % G.prime).astype(bool)
    first = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), G.order)
    chain = []
    for level in range(1, len(c) + 1):
        members = frozenset(np.flatnonzero(first >= c[min(level, len(c) - 1)]).tolist())
        chain.append(members)
        if len(members) == 1:
            break
    sizes = [len(s) for s in chain] + [1]
    entries: dict[int, int] = {}
    p = G.prime
    for n in range(len(chain)):
        ratio = sizes[n] // sizes[n + 1]
        if sizes[n] % sizes[n + 1]:
            raise GroupTableError("dimension subgroup indices are not nested")
        a_n = 0
        while ratio > 1:
            if ratio % p:
                raise GroupTableError("dimension subgroup index not a p-power")
            ratio //= p
            a_n += 1
        if a_n:
            entries[n + 1] = a_n
    return tuple(chain), DimensionSequence.from_dict(p, entries)


def lower_central_series(G: FiniteGroupTable) -> tuple[frozenset[int], ...]:
    """gamma_1 = G, gamma_(n+1) = [G, gamma_n], down to the trivial group."""
    series = [frozenset(range(G.order))]
    while len(series[-1]) > 1:
        cur = series[-1]
        h = np.fromiter(cur, dtype=np.int64)
        # [g, h] = g^-1 h^-1 g h for every g in G (rows) and h in cur
        comms = G.mul[G.mul[G.inv][:, G.inv[h]], G.mul[:, h]]
        nxt = G.subgroup_closure(comms.ravel())
        if nxt == cur:
            raise GroupTableError("lower central series stalled; group is not nilpotent")
        series.append(nxt)
    return tuple(series)


@dataclass(frozen=True)
class LazardReport:
    matches: tuple[bool, ...]
    all_match: bool
    chain_length: int


def lazard_check(G: FiniteGroupTable) -> LazardReport:
    """Compare each dimension subgroup with the product formula
    G_n = product of gamma_i(G)^(p^j) over i * p^j >= n."""
    chain, _ = dimension_subgroups(G)
    gammas = lower_central_series(G)
    p = G.prime
    # powers[j] maps x to x^(p^j)
    powers = [np.arange(G.order)]
    while p ** (len(powers) - 1) < len(chain):
        x, acc = powers[-1], np.zeros(G.order, dtype=np.int64)
        for _ in range(p):
            acc = G.mul[acc, x]
        powers.append(acc)
    members = [np.fromiter(gamma, dtype=np.int64) for gamma in gammas]
    matches = []
    for n in range(1, len(chain) + 1):
        jmax = 0
        while p ** jmax < n:
            jmax += 1
        gens = [powers[j][x] for i, x in enumerate(members, start=1)
                for j in range(jmax + 1) if i * p ** j >= n]
        predicted = G.subgroup_closure(np.concatenate(gens))
        matches.append(predicted == chain[n - 1])
    return LazardReport(
        matches=tuple(matches),
        all_match=all(matches),
        chain_length=len(chain),
    )


# ---------------------------------------------------------------------------
# Built-in groups
# ---------------------------------------------------------------------------

def _checked_order(p: int, k: int, what: str = "order") -> int:
    """The order p^k of a group to tabulate, refused past
    DEFAULT_SIZE_LIMIT before any table is allocated.  An exponent past
    the limit's bit length is refused without forming p^k."""
    if k < 0:
        raise ValueError(f"{what} {p}^{k} has a negative exponent")
    if k > DEFAULT_SIZE_LIMIT.bit_length():
        raise SizeLimitError(f"{what} {p}^{k} exceeds limit {DEFAULT_SIZE_LIMIT}")
    n = p ** k
    if n > DEFAULT_SIZE_LIMIT:
        raise SizeLimitError(f"{what} {n} exceeds limit {DEFAULT_SIZE_LIMIT}")
    return n


def build_cyclic(p: int, k: int) -> FiniteGroupTable:
    n = _checked_order(p, k, "cyclic group of order")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return FiniteGroupTable(p, mul, generators=(1,) if n > 1 else ())


def build_elem_abelian(p: int, d: int) -> FiniteGroupTable:
    n = _checked_order(p, d, "elementary abelian group of order")
    idx = np.arange(n)
    digits = np.zeros((n, d), dtype=np.int64)
    rem = idx.copy()
    for i in range(d):
        digits[:, i] = rem % p
        rem //= p
    sums = (digits[:, None, :] + digits[None, :, :]) % p
    weights = p ** np.arange(d)
    mul = (sums * weights).sum(axis=2)
    gens = tuple(int(p ** i) for i in range(d))
    return FiniteGroupTable(p, mul, generators=gens)


def build_heisenberg(p: int) -> FiniteGroupTable:
    """Upper unitriangular 3x3 matrices over F_p: the nonabelian group of
    order p^3 and exponent p (p odd)."""
    if p == 2:
        raise ValueError("the unitriangular construction needs an odd prime")
    n = _checked_order(p, 3)

    def pack(a, b, c):
        return a + p * b + p * p * c

    idx = np.arange(n)
    a1, rest = idx % p, idx // p
    b1, c1 = rest % p, rest // p
    a2 = a1[None, :]
    b2 = b1[None, :]
    c2 = c1[None, :]
    mul = pack(
        (a1[:, None] + a2) % p,
        (b1[:, None] + b2) % p,
        (c1[:, None] + c2 + a1[:, None] * b2) % p,
    )
    gens = (pack(1, 0, 0), pack(0, 1, 0))
    return FiniteGroupTable(p, mul, generators=gens)


def _elemab_relators(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    gens = range(1, d + 1)
    return tuple((i,) * p for i in gens) + tuple(
        commutator_word((i,), (j,)) for i in gens for j in gens if i < j)


def _heisenberg_relators(p: int, _) -> tuple[tuple[int, ...], ...]:
    """x^p, y^p and both weight-3 commutators: convenient, not certified
    minimal."""
    c = commutator_word((1,), (2,))
    return (1,) * p, (2,) * p, commutator_word(c, (1,)), commutator_word(c, (2,))


#: the built-in families: name -> (its argument in "name:arg", or None
#: for a family without one; table builder (p, arg); relators (p, arg))
BUILTIN_GROUPS = {
    "cyclic": ("k", build_cyclic, lambda p, k: ((1,) * p ** k,) if k else ()),
    "elemab": ("d", build_elem_abelian, _elemab_relators),
    "heisenberg": (None, lambda p, _: build_heisenberg(p), _heisenberg_relators),
}


def _builtin(kind: str):
    """(table builder, relators, argument) of a built-in kind."""
    name, _, arg = kind.partition(":")
    if name not in BUILTIN_GROUPS or (arg and not BUILTIN_GROUPS[name][0]):
        raise ValueError(f"unknown group kind {kind!r}")
    label, table, relators = BUILTIN_GROUPS[name]
    return table, relators, int(arg or 1) if label else None


def build_group(kind: str, p: int) -> FiniteGroupTable:
    """The table of a built-in kind (see BUILTIN_GROUPS)."""
    table, _, arg = _builtin(kind)
    return table(p, arg)


# ---------------------------------------------------------------------------
# Words and their Magnus series
# ---------------------------------------------------------------------------

def parse_word(s: str, d: int) -> tuple[int, ...]:
    """Parse a relator like "x1x1x1" or "X1X2x1x2"; capital means inverse."""
    out: list[int] = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch not in "xX":
            raise ValueError(f"unexpected character {ch!r} in word {s!r}")
        j = i + 1
        while j < len(s) and s[j].isdigit():
            j += 1
        if j == i + 1:
            raise ValueError(f"missing generator index at position {i} in {s!r}")
        k = int(s[i + 1:j])
        if not 1 <= k <= d:
            raise ValueError(f"generator index {k} out of range 1..{d}")
        out.append(k if ch == "x" else -k)
        i = j
    return tuple(out)


def format_word(word: Sequence[int]) -> str:
    return "".join((f"x{k}" if k > 0 else f"X{-k}") for k in word)


def free_reduce(word: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_inverse(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))


def commutator_word(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return word_inverse(u) + word_inverse(v) + tuple(u) + tuple(v)


def magnus_embed(word: Sequence[int], d: int, p: int, degree_cap: int) -> dict[tuple[int, ...], int]:
    """Image of (word - 1) under x_i -> 1 + X_i in the noncommutative
    power series over F_p, truncated above the degree cap: the nonzero
    terms, keyed by monomials (tuples of 1-based variable indices).  The
    empty word maps to {}.

    The product is taken run by run: a maximal run x_i^m maps to
    (1 + X_i)^m = sum_j C(m, j) X_i^j, with the generalized binomial
    C(m, j) = m (m - 1) ... (m - j + 1) / j!, so m may be negative."""
    runs: list[list[int]] = []
    for letter in word:
        i = abs(letter)
        if not 1 <= i <= d:
            raise ValueError(f"letter {letter} out of range for {d} generators")
        if runs and runs[-1][0] == i:
            runs[-1][1] += 1 if letter > 0 else -1
        else:
            runs.append([i, 1 if letter > 0 else -1])
    acc = {(): 1}
    for i, m in runs:
        series, binom = [], 1  # the nonzero (j, C(m, j) mod p)
        for j in range(degree_cap + 1):
            if binom % p:
                series.append((j, binom % p))
            binom = binom * (m - j) // (j + 1)
        out: dict[tuple[int, ...], int] = {}
        for w, c in acc.items():
            room = degree_cap - len(w)
            for j, b in series:
                if j > room:
                    break
                key = w + (i,) * j
                out[key] = out.get(key, 0) + c * b
        acc = {w: c % p for w, c in out.items() if c % p}
    # each run's series starts with 1, so the constant term of w is 1
    return {w: c for w, c in acc.items() if w}


def word_level(word: Sequence[int], d: int, p: int) -> int:
    """Filtration level of (word - 1): the least total degree appearing in
    its expansion.  Freely trivial words are rejected.  The cap grows
    geometrically until the level is detected."""
    reduced = free_reduce(word)
    if not reduced:
        raise PresentationError("word is freely trivial; its level is unbounded")
    cap = 8
    while True:
        terms = magnus_embed(reduced, d, p, cap)
        if terms:
            return min(map(len, terms))
        if cap >= MAX_LEVEL_CAP:
            raise PresentationError(f"level of {format_word(word)} exceeds cap {MAX_LEVEL_CAP}")
        cap *= 2


# ---------------------------------------------------------------------------
# Presentations and the direct defect computation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PresentationData:
    """Relators for a marked generating set of a finite p-group.

    levels[i] is the filtration level of relator i, computed from its
    Magnus series (never taken on trust from the caller)."""

    target: FiniteGroupTable
    generator_images: tuple[int, ...]
    relators: tuple[tuple[int, ...], ...]
    levels: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.generator_images)

    @property
    def r(self) -> int:
        return len(self.relators)

    def profile(self) -> RelationProfile:
        return RelationProfile(self.d, self.levels)


def make_presentation(
    target: FiniteGroupTable,
    generator_images: Sequence[int],
    relators: Sequence[Sequence[int]],
) -> PresentationData:
    """Validate relators against the target and compute their levels.

    Every relator must map to the identity of the target, and every level
    must come out >= 2 (level-1 relators would mean a non-minimal
    generating set).
    """
    images = tuple(int(g) for g in generator_images)
    d = len(images)
    for g in images:
        if not 0 <= g < target.order:
            raise PresentationError(f"generator image {g} out of range")
    if target.subgroup_closure(images) != frozenset(range(target.order)):
        raise PresentationError("generator images do not generate the target")
    rels = tuple(tuple(int(x) for x in w) for w in relators)
    levels = []
    for w in rels:
        lvl = word_level(w, d, target.prime)
        if target.word_to_element(w, images) != 0:
            raise PresentationError(
                f"relator {format_word(w)} does not map to the identity"
            )
        if lvl < 2:
            raise PresentationError(
                f"relator {format_word(w)} has level {lvl} < 2"
            )
        levels.append(lvl)
    return PresentationData(
        target=target,
        generator_images=images,
        relators=rels,
        levels=tuple(levels),
    )


def builtin_presentation(kind: str, p: int) -> PresentationData:
    """The built-in table with its relators (see BUILTIN_GROUPS) on its
    declared generators."""
    table, relators, arg = _builtin(kind)
    G = table(p, arg)
    return make_presentation(G, G.generators, relators(p, arg))


def _fox_images(pres: PresentationData) -> np.ndarray:
    """W[i, j] = image in F_p[G] of the Fox derivative of relator i by x_j.

    Built from w - 1 = sum_j (dw/dx_j)(x_j - 1) letter by letter: with u
    the prefix read so far, x_j adds u and X_j adds -u g_j^-1."""
    G = pres.target
    W = np.zeros((pres.r, pres.d, G.order), dtype=np.int64)
    for i, w in enumerate(pres.relators):
        u = 0
        for letter in w:
            j = abs(letter) - 1
            g = pres.generator_images[j]
            if letter > 0:
                W[i, j, u] += 1
                u = G.mul[u, g]
            else:
                u = G.mul[u, G.inv[g]]
                W[i, j, u] -= 1
    return W % G.prime


def fox_formula_holds(pres: PresentationData) -> bool:
    """The fundamental formula of the free differential calculus on the
    Fox images: sum_j W[i, j] (g_j - 1) = 0 in F_p[G] for every relator i,
    since each relator maps to 1."""
    G = pres.target
    W = _fox_images(pres)
    # column x of v * g holds v[x g^-1]; row j is multiplied by g_j
    right = G.mul[:, G.inv[list(pres.generator_images)]].T
    moved = W[:, np.arange(pres.d)[:, None], right]
    return not ((moved - W).sum(axis=1) % G.prime).any()


def defects_direct(pres: PresentationData, horizon: int) -> tuple[int, ...]:
    """Defects e_1..e_horizon as kernel dimensions of the relator Jacobians.

    J_n is the block map from the sum of F_p[G]/I^(n - level_i) into d
    copies of F_p[G]/I^(n-1), where block (i, j) right-multiplies by the
    image W_ij of the j-th Fox derivative of relator i.  In flag
    coordinates the quotient modulo I^k is the first c_k coordinates, so
    block (i, j) of J_n is the leading c_(n - level_i) x c_(n-1) corner of
    A_ij = T R(W_ij) T^-1, R(w) being right multiplication by w.

    With columns ordered (b, j), b-major, and rows (i, a) ordered by the
    step n at which they enter (the first n with a < c_(n - level_i)),
    every J_n is a leading submatrix of one fixed matrix.  Its rank is the
    number of pivots left of column d c_(n-1) in the reduced echelon form
    of the rows entered so far, which grows by one elimination per step
    (the rank profile, as in Dumas, Pernet and Sultan, ISSAC 2015).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    G = pres.target
    p, size, d = G.prime, G.order, pres.d
    c = augmentation_powers(G)
    T, T_inv = G.flag_basis()
    W = _fox_images(pres)
    rows = np.zeros((pres.r * size, size * d), dtype=np.int16)  # entries below p
    for i, j in zip(*np.nonzero(W.any(axis=2))):
        # column x of T R(w) is sum_k w[k] T[:, x k^-1]
        TR = np.zeros((size, size), dtype=np.int64)
        for k in np.flatnonzero(W[i, j]):
            TR += W[i, j, k] * T[:, G.mul[:, G.inv[k]]]
        # row (i, a), column (b, j) holds A_ij[a, b]
        rows[i * size:(i + 1) * size, j::d] = (TR % p) @ T_inv % p
    levels = np.array(pres.levels, dtype=np.int64).reshape(-1, 1)
    entry = (levels + np.searchsorted(c, np.arange(size), side="right")).ravel()
    order = np.argsort(entry)
    entry = entry[order]
    basis = np.zeros((0, size * d), dtype=np.int64)
    pivots = np.zeros(0, dtype=np.int64)
    defects = []
    done = 0
    for n in range(1, horizon + 1):
        entered = int(np.searchsorted(entry, n, side="right"))
        if entered > done:
            basis, pivots, _ = _rref_extend(basis, pivots, rows[order[done:entered]].astype(np.int64), p)
            done = entered
        rank = int(np.count_nonzero(pivots < d * c[min(n - 1, len(c) - 1)]))
        defects.append(entered - rank)
    return tuple(defects)


def e_n_direct(pres: PresentationData, n: int) -> int:
    """The defect e_n alone (see defects_direct)."""
    return defects_direct(pres, n)[-1]


@dataclass(frozen=True)
class RecursionReport:
    prime: int
    order: int
    profile: RelationProfile
    c: tuple[int, ...]
    e_direct: tuple[int, ...]
    e_expected: tuple[int, ...]
    horizon: int
    mismatches: tuple[int, ...]
    identity_ok: bool
    terminal_ok: bool

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.terminal_ok


def verify_recursion(pres: PresentationData) -> RecursionReport:
    """Check the counting recursion against the direct kernel computation
    of the defects, through stabilization.

    Identity per n:  sum_i r_i c_(n-i) - d c_(n-1) = 1 + e_n,
    terminal value:  1 + e_n = (r + 1 - d) |G|  for n past the horizon.
    """
    G = pres.target
    c = augmentation_powers(G)
    order = G.order
    # c_n = |G| from M = len(c) - 1 on, so e_n is terminal from M + max lag
    horizon = len(c) - 1 + max((1, *pres.levels))
    e_direct = defects_direct(pres, horizon)
    e_expected = defect_recursion(c, pres.d, pres.levels, horizon)
    mismatches = tuple(
        n for n, (x, y) in enumerate(zip(e_direct, e_expected), start=1) if x != y
    )
    terminal_ok = e_direct[-1] == stabilized_defect(pres.profile(), order)
    return RecursionReport(
        prime=G.prime,
        order=order,
        profile=pres.profile(),
        c=c,
        e_direct=e_direct,
        e_expected=e_expected,
        horizon=horizon,
        mismatches=mismatches,
        identity_ok=not mismatches,
        terminal_ok=terminal_ok,
    )


# ---------------------------------------------------------------------------
# Plain-text group files
# ---------------------------------------------------------------------------

def _tokens(text: str):
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok


def parse_group_text(text: str):
    """Parse the plain-text group format; returns (group, presentation or
    None)."""
    toks = _tokens(text)

    def take(what: str) -> str:
        try:
            return next(toks)
        except StopIteration:
            raise ValueError(f"unexpected end of file while reading {what}") from None

    p = int(take("prime"))
    k = int(take("order exponent"))
    d = int(take("generator count"))
    if d < 0:
        raise ValueError(f"negative generator count {d}")
    order = int(take("element count"))
    if order != _checked_order(p, k):
        raise ValueError(f"element count {order} != {p}^{k}")
    mul = np.zeros((order, order), dtype=np.int64)
    for i in range(order):
        for j in range(order):
            mul[i, j] = int(take(f"table entry ({i},{j})"))
    images = tuple(int(take("generator image")) for _ in range(d))
    G = FiniteGroupTable(p, mul, generators=images or None)
    r = int(take("relator count"))
    if r < 0:
        raise ValueError(f"negative relator count {r}")
    words = [parse_word(take(f"relator {i}"), d) for i in range(r)]
    extra = next(toks, None)
    if extra is not None:
        raise ValueError(f"unexpected token {extra!r} after the {r} declared relator(s)")
    pres = None
    if d > 0:
        pres = make_presentation(G, images, words)
    elif r:
        raise ValueError("relators given without generators")
    return G, pres


def parse_group_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read())
