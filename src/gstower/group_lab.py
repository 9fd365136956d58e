"""Brute-force laboratory over small finite p-groups.

Multiplication tables, each built-in one closed from generating integer
matrices mod p^k by one builder, powers of the augmentation ideal in the
group algebra, dimension subgroups and the lower central series, the
filtration product formula, relator levels from the run-length Magnus
series of each relator, plus a direct kernel computation of the recursion
defects from the Fox derivatives of the relator words.

Everything is dense linear algebra over F_p on vectors indexed by group
elements, so built-in and file groups are capped at 343 elements.  The
filtration is built from the dual side: the left annihilators S_n = Ann(I^n)
grow by one preimage under the generator map per level, whose echelon form
is read off a spanning tree of the Cayley graph, and each level adds only
its new vectors to one echelon basis.  By the duality of F_p[G] under
(a, b) -> coefficient of 1 in ab, the annihilator flag gives the inverse of
one flag basis per group, whose trailing rows span each power of the ideal:
a residue modulo I^n is a cut of the coordinates in that basis.

Results are int64 residues.  The F_p matrix products go through
_fp_matmul, which runs the larger ones in float64 BLAS as an exact
carrier for integers: it checks that inner dimension x (p - 1)^2 stays
below 2^53, and under the size limit (a group of order p^k has at most k
generators, and no product has an inner dimension past d |G|) every
partial sum stays below 2^27, so nothing rounds.  Row reduction updates
pivots as x + f (p - y), which lies in [0, p^2), reduced by lookup in a
p^2-entry residue table.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gs_check import RelationProfile
from .jennings import DimensionSequence, InvalidPrimeError, is_prime
from .validity import defect_recursion, stabilized_defect

DEFAULT_SIZE_LIMIT = 343
#: F_p products of at least this many multiply-adds (rows x inner x
#: columns) run in float64 BLAS; smaller ones cost less without the
#: conversions (see _fp_matmul)
BLAS_MIN_WORK = 4096
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

def _fp_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, as int64, for integer operands whose entries are below
    p in absolute value (int64, or float64 words carrying such integers).

    A product of at least BLAS_MIN_WORK multiply-adds runs in float64 BLAS.
    Every partial sum of an entry is at most inner x (p - 1)^2 in absolute
    value; that bound is checked to stay below 2^53, so each sum is an
    exact float64 integer and nothing rounds (Dumas, Giorgi and Pernet,
    ACM TOMS 35(3), 2008).  A smaller product, such as a one-vector level
    of a cyclic group, costs less without the conversions and is taken in
    the operands' own dtype, exact under the same bound."""
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 >= 2 ** 53:
        raise OverflowError(
            f"an F_{p} product of inner dimension {inner} is not exact in float64")
    if a.shape[0] * inner * b.shape[-1] < BLAS_MIN_WORK:
        return (a @ b).astype(np.int64, copy=False) % p
    prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    # prod - p floor(prod / p), all of it exact: the rounded prod / p lies
    # within half a float64 spacing of the true quotient, closer than the
    # 1/p that separates a quotient that is not whole from an integer
    q = prod / p
    np.floor(q, out=q)
    q *= p
    prod -= q
    return prod.astype(np.int64)


def _residue_table(p: int) -> np.ndarray:
    """residue[x] = x mod p for 0 <= x < p^2: reduction by lookup."""
    return np.arange(p)[None].repeat(p, axis=0).ravel()


def _rref_in_place(m: np.ndarray, p: int, residue: np.ndarray) -> list[int]:
    """Bring m, int64 with entries below p, to reduced row echelon form over
    F_p in place, with residue = _residue_table(p); returns the pivot
    columns, whose rows come first.  Only the columns nonzero on entry are
    walked: a zero column stays zero."""
    # a pivot update x - f y, with x, y and f below p, is taken as
    # x + f (p - y), which lies in [0, p^2)
    pivots: list[int] = []
    r = 0
    for col in m.any(axis=0).nonzero()[0].tolist():
        if r == m.shape[0]:
            break
        nz = m[r:, col].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        # rows r and pr are zero left of col: earlier columns are pivots
        # or were empty from row r down
        if pr != r:
            m[[r, pr], col:] = m[[pr, r], col:]
        f = int(m[r, col])
        if f != 1:
            m[r, col:] = residue[m[r, col:] * pow(f, p - 2, p)]
        hit = m[:, col].nonzero()[0]
        if hit.size > 1:
            hit = hit[hit != r]
            m[hit, col:] = residue[m[hit, col:] + m[hit, col, None] * (p - m[r, col:])]
        pivots.append(col)
        r += 1
    return pivots


class _Echelon:
    """A reduced echelon basis over F_p, extended by blocks of rows: pivots[i]
    is the pivot column of row i, and rest holds the rows in the free columns
    only (in the pivot columns the basis is the identity).  The free columns
    and the residue table are kept from block to block."""

    def __init__(self, width: int, p: int):
        self.p = p
        self.residue = _residue_table(p)
        self.free = np.arange(width)
        self.pivots = np.zeros(0, dtype=np.int64)
        self.rest = np.zeros((0, width), dtype=np.int64)

    def extend(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Add rows reduced mod p: one product reduces them against the basis,
        the remainder is row-reduced in place, and a second product clears the
        old rows in the new pivot columns.  The new basis rows follow the old
        ones in the order of their pivots.  Returns their pivots and the rows
        in the columns that were free before the call (self.free on entry);
        in the old pivot columns they are zero."""
        p, residue, free = self.p, self.residue, self.free
        # x - y for x and y below p is looked up as x + (p - y)
        rows = residue[rows[:, free] + (p - _fp_matmul(rows[:, self.pivots], self.rest, p))]
        found = _rref_in_place(rows, p, residue)  # positions among the free columns
        new = rows[:len(found)]
        added = free[found]
        if found:
            keep = np.ones(len(free), dtype=bool)
            keep[found] = False
            cleared = _fp_matmul(self.rest[:, found], new[:, keep], p)
            self.rest = np.vstack([residue[self.rest[:, keep] + (p - cleared)], new[:, keep]])
            self.pivots = np.concatenate([self.pivots, added])
            self.free = free[keep]
        return added, new


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
        for g in self.generators:
            if not 0 <= g < n:
                raise GroupTableError(f"generator {g} out of range 0..{n - 1}")
        if self.subgroup_closure(self.generators) != frozenset(range(n)):
            raise GroupTableError("declared generators do not generate the group")
        self._check_associative()
        self._filtration: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._dimension_subgroups: (
            tuple[tuple[frozenset[int], ...], DimensionSequence] | None) = None

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
        """The subgroup generated by gens, by doubling: start from the
        identity and gens, and add every product of two members until a
        round adds nothing.  After k rounds every product of up to 2^k
        generators is in, and a finite set closed under products is a
        subgroup, so the closure takes at most ceil(log2 |H|) + 1 rounds.
        An index array is used as it is: fromiter would walk it in Python."""
        if not isinstance(gens, np.ndarray):
            gens = np.fromiter(gens, dtype=np.int64)
        members = np.zeros(self.order, dtype=bool)
        members[0] = True
        members[gens] = True
        have = np.flatnonzero(members)
        while True:
            members[self.mul[np.ix_(have, have)]] = True
            grown = np.flatnonzero(members)
            if len(grown) == len(have):
                return frozenset(have.tolist())
            have = grown

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

    def _reduced_generator_map(self):
        """[R | 1] in reduced echelon form over F_p (R as in ideal_filtration),
        read off a spanning tree of the Cayley graph: (piv_R, free, B_free,
        L, R_piv), the pivot and free columns of R, the first |G| - 1 rows in
        the free columns of R and in those of 1, and R at its pivots."""
        n, p, d = self.order, self.prime, len(self.generators)
        # column i n + x of R is e_(x g_i^-1) - e_x, as row h holds
        # e_h (g_i - 1): the edge x g_i^-1 -> x of the Cayley graph (zero if
        # g_i is the identity).  The pivot columns are the edges that join
        # two components when taken in column order (union-find): a tree
        tails = self.mul[:, self.inv[list(self.generators)]].T.ravel()
        heads = np.tile(np.arange(n), d)
        root, tree = list(range(n)), []
        for col, (x, y) in enumerate(zip(tails.tolist(), heads.tolist())):
            while root[x] != x:
                root[x] = x = root[root[x]]
            while root[y] != y:
                root[y] = y = root[root[y]]
            if x != y:
                root[x] = y
                tree.append(col)
        piv_R = np.array(tree, dtype=np.int64)
        t, h = tails[piv_R], heads[piv_R]
        # row k is [X_k R | X_k]: X_k is 0 on the side of tree edge k that
        # holds the identity, and on the other side +1 if it holds the tail,
        # -1 if the head.  That side is the subtree of the edge's child in a
        # depth-first walk from the identity, an interval of entry times
        adj: list[list[int]] = [[] for _ in range(n)]
        for x, y in zip(t.tolist(), h.tolist()):
            adj[x].append(y)
            adj[y].append(x)
        parent, walk, stack = [-1] * n, [], [0]
        while stack:
            x = stack.pop()
            walk.append(x)
            for y in adj[x]:
                if y != parent[x]:
                    parent[y] = x
                    stack.append(y)
        size = [1] * n
        for x in walk[:0:-1]:
            size[parent[x]] += size[x]
        entry = np.argsort(walk)  # the inverse of the walk
        tail_far = np.array(parent)[t] == h
        child = np.where(tail_far, t, h)
        start = entry[child, None]
        far = (start <= entry) & (entry < start + np.array(size)[child, None])
        X = far * np.where(tail_far, 1, p - 1)[:, None]
        free = np.setdiff1d(np.arange(d * n), piv_R)
        R_piv = (np.arange(n)[:, None] == t).astype(np.int64) - (np.arange(n)[:, None] == h)
        # B_free and L enter a product at every level: float64 (see _fp_matmul)
        B_free = (X[:, tails[free]] - X[:, heads[free]]) % p
        return piv_R, free, B_free.astype(np.float64), X.astype(np.float64), R_piv

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
        R: x -> (x (g_i - 1))_i.  [R | 1] in reduced echelon form, read off a
        spanning tree of the Cayley graph, gives the reduced echelon basis B
        of the row space of R and a lift L with L R = B; ker R = S_1 is
        spanned by the sum of all elements.  At each level the k new vectors
        of S_n go into each of the d slots, are reduced modulo the row space
        of R, and enter one echelon basis on (residue, B-coordinates).  The
        d k rows are one gather of the new vectors, since each column of R
        names its slot and its element.  The combinations whose residues
        become dependent lie in R(F_p[G]) and in S_n^d; their B-coordinates
        C, lifted through L, are the new vectors of S_(n+1).  The echelon
        basis reduces each level's C against the levels before it, so the
        stacked C with its columns in pivot order is unitriangular, block by
        level.

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
        n, p, d, inv = self.order, self.prime, len(self.generators), self.inv
        piv_R, free, B_free, L, R_piv = self._reduced_generator_map()
        rank, width = n - 1, len(free)
        # column 0 of L is zero, and so is column 0 of V Q below its first row
        # the slot and element of each column of a level's rows
        slot, elem = np.divmod(np.concatenate([free, piv_R]), n)

        T_inv = np.zeros((n, n), dtype=np.int64)
        T_inv[:, 0] = 1
        coords = np.zeros((n - 1, rank), dtype=np.int64)  # the stacked C
        lead = np.zeros(n - 1, dtype=np.int64)  # the pivot column of each row of C
        c = [0, 1]
        new = np.ones((1, n), dtype=np.int64)
        echelon = _Echelon(width + rank, p)
        in_slot = slot == np.arange(d)[:, None, None]
        while c[-1] < n:
            # row i k + a is new vector a in slot i: its residue modulo the
            # row space of R, then its coordinates in B
            rows = (in_slot * new[:, elem]).reshape(-1, width + rank)
            # the B-coordinates are block-diagonal by slot, so one product
            # takes every slot's part in the row space of R
            rows[:, :width] -= _fp_matmul(rows[:, width:], B_free, p)
            rows %= p
            # the B-coordinates still free: the new rows are zero elsewhere
            cols = echelon.free[echelon.free >= width] - width
            skip = len(echelon.free) - len(cols)
            added, found = echelon.extend(rows)
            # rows with their pivot among the B-coordinates have no residue
            dependent = added >= width
            C = found[dependent, skip:]
            new = _fp_matmul(C, L[cols], p)
            lo, hi = c[-1], c[-1] + len(C)
            T_inv[:, lo:hi] = new[:, inv].T
            coords[lo - 1:hi - 1, cols] = C
            lead[lo - 1:hi - 1] = added[dependent] - width
            c.append(hi)
        # U = diag(1, C) with its columns in pivot order, inverted block by
        # block from the last level up
        U = np.zeros((n, n), dtype=np.int64)
        U[0, 0] = 1
        U[1:, 1:] = coords[:, lead]
        U_inv = np.eye(n)  # float64, as every product reads it
        for lo, hi in zip(c[-2::-1], c[:0:-1]):
            U_inv[lo:hi, hi:] = _fp_matmul(-U[lo:hi, hi:], U_inv[hi:, hi:], p)
        # Q[g -> g^-1] with its columns in the same order
        Q = np.zeros((n, n), dtype=np.int64)
        Q[0, 0] = 1
        Q[:, 1:] = R_piv[np.ix_(inv, lead)]
        T = _fp_matmul(U_inv.T, Q.T, p)
        self._filtration = [(T[cn:], T_inv[:, :cn]) for cn in c]
        return self._filtration

    def flag_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """A basis T of F_p[G] adapted to the filtration, and T^-1 mod p.

        T[c_n:] spans I^n.  In the coordinates x = v @ T^-1 of a vector v,
        v lies in I^n exactly when x[:c_n] = 0, and x[:c_n] is its residue
        modulo I^n.  Built with the filtration (see ideal_filtration): T is
        the basis of I^0, T^-1 the cut of the zero power.
        """
        filt = self.ideal_filtration()
        return filt[0][0], filt[-1][1]


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
    flag basis comes at index c_n or later.  The result is kept on the
    table, as the filtration is, so lazard_check and any later call reuse
    it."""
    if G._dimension_subgroups is not None:
        return G._dimension_subgroups
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
    G._dimension_subgroups = tuple(chain), DimensionSequence.from_dict(p, entries)
    return G._dimension_subgroups


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
    G_n = product of gamma_i(G)^(p^j) over i * p^j >= n, j running up to
    the first p^j >= n.

    The factor set {(i, j)} changes only when n passes some i p^j, so the
    product is closed once per distinct factor set and kept for every n
    that shares it."""
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
    products: dict[tuple[tuple[int, int], ...], frozenset[int]] = {}
    matches = []
    for n in range(1, len(chain) + 1):
        jmax = 0
        while p ** jmax < n:
            jmax += 1
        factors = tuple((i, j) for i in range(1, len(members) + 1)
                        for j in range(jmax + 1) if i * p ** j >= n)
        if factors not in products:
            products[factors] = G.subgroup_closure(
                np.concatenate([powers[j][members[i - 1]] for i, j in factors]))
        matches.append(products[factors] == chain[n - 1])
    return LazardReport(
        matches=tuple(matches),
        all_match=all(matches),
        chain_length=len(chain),
    )


# ---------------------------------------------------------------------------
# Groups from generating matrices, and the built-in groups
# ---------------------------------------------------------------------------

def table_from_matrices(p: int, modulus: int, generators) -> FiniteGroupTable:
    """The table of the group that integer matrices generate mod modulus; a
    permutation is passed as its permutation matrix.  The closure runs
    breadth first, each element keyed by its bytes, and is refused past
    DEFAULT_SIZE_LIMIT before any table is allocated.  Element 0 is the
    identity, the rest follow in increasing order of their columns, read
    from the last column to the first and each top to bottom (so x^k is k
    in cyclic:k, and elemab:d and heisenberg are numbered by base-p
    digits).  Column x g_j is right_j gathered through column x."""
    gens = np.asarray(generators, dtype=np.int64) % modulus
    elements = [np.eye(gens.shape[-1], dtype=np.int64) % modulus]
    index = {elements[0].tobytes(): 0}
    right, tree = [], []  # right[x d + j] = x g_j; tree: the (x, j) of each new x g_j
    for x, m in enumerate(elements):
        for j, y in enumerate(m @ gens % modulus):
            key = y.tobytes()
            if key not in index:
                if len(elements) == DEFAULT_SIZE_LIMIT:
                    raise SizeLimitError(f"the generated group exceeds limit {DEFAULT_SIZE_LIMIT}")
                index[key] = len(elements)
                elements.append(y)
                tree.append((x, j))
            right.append(index[key])
    n = len(elements)
    order = [0] + sorted(range(1, n), key=lambda x: elements[x].T[::-1].tolist())
    label = np.argsort(order)
    right = label[np.array(right, dtype=np.int64).reshape(n, len(gens))][order].T
    cols = np.empty((n, n), dtype=np.int64)  # cols[y] = column y of the table
    cols[0] = np.arange(n)
    for y, (x, j) in enumerate(tree, 1):
        cols[label[y]] = right[j][cols[label[x]]]
    return FiniteGroupTable(p, np.ascontiguousarray(cols.T), generators=right[:, 0])


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


def _cyclic_matrices(p: int, k: int):
    """[[1, 1], [0, 1]] mod p^k; cyclic:0, the trivial group, has none."""
    return _checked_order(p, k, "cyclic group of order"), [[[1, 1], [0, 1]]] if k else []


def _elemab_matrices(p: int, d: int):
    """I + E_0j mod p for j = 1..d."""
    _checked_order(p, d, "elementary abelian group of order")
    eye = np.eye(d + 1, dtype=np.int64)
    return p, [eye + np.outer(eye[0], e) for e in eye[1:]]


def _heisenberg_matrices(p: int, _):
    """UT_3(F_p), from I + E_01 and I + E_12: nonabelian of order p^3, exponent p."""
    if p == 2:
        raise ValueError("the unitriangular construction needs an odd prime")
    return p, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]]


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
#: for a family without one; (p, arg) -> (modulus, generating matrices)
#: for table_from_matrices; relators (p, arg))
BUILTIN_GROUPS = {
    "cyclic": ("k", _cyclic_matrices, lambda p, k: ((1,) * p ** k,) if k else ()),
    "elemab": ("d", _elemab_matrices, _elemab_relators),
    "heisenberg": (None, _heisenberg_matrices, _heisenberg_relators),
}


def _builtin(kind: str, p: int):
    """(table, relators) of a built-in kind.  An argument after the colon
    is required, and only a family that takes one accepts it."""
    name, colon, arg = kind.partition(":")
    if name not in BUILTIN_GROUPS or (colon and not (arg and BUILTIN_GROUPS[name][0])):
        raise ValueError(f"unknown group kind {kind!r}")
    label, matrices, relators = BUILTIN_GROUPS[name]
    arg = int(arg or 1) if label else None
    return table_from_matrices(p, *matrices(p, arg)), relators(p, arg)


def build_group(kind: str, p: int) -> FiniteGroupTable:
    """The table of a built-in kind (see BUILTIN_GROUPS)."""
    return _builtin(kind, p)[0]


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
    its expansion.  Freely trivial words are rejected.  The cap starts at 1
    and doubles until the level is detected."""
    reduced = free_reduce(word)
    if not reduced:
        raise PresentationError("word is freely trivial; its level is unbounded")
    cap = 1
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
    # the table's own generators were closed when the table was built
    if images != target.generators and len(target.subgroup_closure(images)) < target.order:
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
    G, relators = _builtin(kind, p)
    return make_presentation(G, G.generators, relators)


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
    A_ij = T R(W_ij) T^-1, R(w) being right multiplication by w.  Its
    matrix R(w)[y, x] = w[y^-1 x] is one gather of w through the table of
    y^-1 x, so each block is two F_p products, whatever the support of w.

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
    T_inv = T_inv.astype(np.float64)  # the right factor of every block
    left = G.mul[G.inv]  # left[y, x] = y^-1 x
    rows = np.zeros((pres.r * size, size * d), dtype=np.int16)  # entries below p
    for i, j in zip(*np.nonzero(W.any(axis=2))):
        # row (i, a), column (b, j) holds A_ij[a, b]
        rows[i * size:(i + 1) * size, j::d] = _fp_matmul(_fp_matmul(T, W[i, j][left], p), T_inv, p)
    levels = np.array(pres.levels, dtype=np.int64).reshape(-1, 1)
    entry = (levels + np.searchsorted(c, np.arange(size), side="right")).ravel()
    order = np.argsort(entry)
    entry = entry[order]
    echelon = _Echelon(size * d, p)
    defects, done = [], 0
    for n in range(1, horizon + 1):
        entered = int(np.searchsorted(entry, n, side="right"))
        if entered > done:
            echelon.extend(rows[order[done:entered]].astype(np.int64))
            done = entered
        rank = int(np.count_nonzero(echelon.pivots < d * c[min(n - 1, len(c) - 1)]))
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
    terminal value:  1 + e_n = (r + 1 - d) |G|  at the horizon, the
    recursion's first terminal index (the length of defect_recursion).
    """
    G = pres.target
    c = augmentation_powers(G)
    order = G.order
    e_expected = defect_recursion(c, pres.d, pres.levels)
    horizon = len(e_expected)
    e_direct = defects_direct(pres, horizon)
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
