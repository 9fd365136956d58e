"""Group-algebra laboratory: tables, filtrations, differentiation.

The numeric oracles here are self-contained: the cyclic order-3 filtration
is computed by hand ((g-1)^2 = g^2 - 2g + 1 spans with (g-1) a 2-dim
ideal, (g-1)^3 = 0), and the rest cross-checks independent pipelines
against each other.  The filtration built from the annihilator series is
checked against `_filtration_by_rref`, one row reduction per power of the
augmentation ideal.
"""
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gstower.group_lab import (
    DEFAULT_SIZE_LIMIT,
    FiniteGroupTable,
    GroupTableError,
    LazardReport,
    PresentationData,
    PresentationError,
    SizeLimitError,
    _fox_images,
    _fp_matmul,
    _Echelon,
    _residue_table,
    _rref_in_place,
    augmentation_powers,
    build_group,
    builtin_presentation,
    commutator_word,
    defects_direct,
    dimension_subgroups,
    e_n_direct,
    format_word,
    fox_formula_holds,
    free_reduce,
    lazard_check,
    lower_central_series,
    magnus_embed,
    make_presentation,
    parse_group_text,
    parse_word,
    table_from_matrices,
    verify_recursion,
    word_inverse,
    word_level,
)
import gstower.series
from gstower import group_lab
from gstower.gs_check import strict_corollary_check
from gstower.jennings import is_prime, jennings_transform
from gstower.series import DescartesCertificate

BUILTIN_KINDS = ("cyclic:1", "cyclic:2", "elemab:2", "heisenberg")
#: every built-in family up to order p^3
ALL_KINDS = ("cyclic:1", "cyclic:2", "cyclic:3", "elemab:1", "elemab:2", "elemab:3", "heisenberg")
#: groups of order at most 27 for the relabelling properties
RELABEL_GROUPS = (("cyclic:2", 3), ("elemab:2", 3), ("heisenberg", 3), ("cyclic:2", 5), ("elemab:2", 5))
#: built-in tables at p = 2, 3, 5 and 7 for the closure properties
CLOSURE_GROUPS = (("cyclic:3", 2), ("elemab:3", 2), ("cyclic:2", 3), ("heisenberg", 3),
                  ("elemab:2", 5), ("heisenberg", 5), ("cyclic:2", 7), ("elemab:2", 7))

#: every built-in family up to order p^3 at p = 2, 3 and 5 (the
#: unitriangular group needs an odd prime), with ids "kind-p"
ORACLE_CASES = tuple(
    pytest.param(kind, p, id=f"{kind}-{p}")
    for kind in ALL_KINDS for p in (2, 3, 5)
    if (kind, p) != ("heisenberg", 2)
)


def _size_limit_cases():
    """Every built-in group within the size limit at p = 2, 3, 5 and 7,
    with ids "kind-p"."""
    for p in (2, 3, 5, 7):
        for name in ("cyclic", "elemab"):
            k = 0
            while p ** k <= DEFAULT_SIZE_LIMIT:
                yield pytest.param(f"{name}:{k}", p, id=f"{name}:{k}-{p}")
                k += 1
        if p > 2:  # the unitriangular group needs an odd prime
            yield pytest.param("heisenberg", p, id=f"heisenberg-{p}")


SIZE_LIMIT_CASES = tuple(_size_limit_cases())


def _relabelling(G, rnd):
    """(H, sigma): a copy H of the table whose elements are renumbered by
    a random permutation sigma[old] = new fixing the identity."""
    sigma = np.array([0] + rnd.sample(range(1, G.order), G.order - 1))
    mul = np.empty_like(G.mul)
    mul[np.ix_(sigma, sigma)] = sigma[G.mul]
    return FiniteGroupTable(G.prime, mul, generators=sigma[list(G.generators)]), sigma


def _relabelled(pres, rnd):
    """The presentation on a copy of its table whose elements are
    renumbered by a random permutation fixing the identity."""
    H, sigma = _relabelling(pres.target, rnd)
    images = tuple(int(sigma[g]) for g in pres.generator_images)
    return make_presentation(H, images, pres.relators)


def _commutator(G, g, h):
    """[g, h] = g^-1 h^-1 g h in the table G."""
    return G.multiply(G.multiply(G.inverse(g), G.inverse(h)), G.multiply(g, h))


# ---------------------------------------------------------------------------
# group construction
# ---------------------------------------------------------------------------

class TestBuildGroup:
    def test_cyclic_order(self):
        G = build_group("cyclic:1", 3)
        assert G.order == 3
        assert G.multiply(1, 2) == 0
        assert G.inverse(1) == 2

    def test_cyclic_p_squared(self):
        G = build_group("cyclic:2", 5)
        assert G.order == 25
        assert G.element_order(1) == 25
        assert G.element_order(5) == 5

    def test_elem_abelian(self):
        G = build_group("elemab:2", 3)
        assert G.order == 9
        assert all(G.element_order(g) == 3 for g in range(1, 9))
        x, y = G.generators
        assert G.multiply(x, y) == G.multiply(y, x)

    def test_heisenberg_is_nonabelian_of_exponent_p(self):
        G = build_group("heisenberg", 3)
        assert G.order == 27
        x, y = G.generators
        assert G.multiply(x, y) != G.multiply(y, x)
        assert _commutator(G, x, y) != 0
        assert all(G.element_order(g) in (1, 3) for g in range(27))

    def test_heisenberg_needs_odd_prime(self):
        with pytest.raises(ValueError):
            build_group("heisenberg", 2)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            build_group("cyclic:6", 3)
        with pytest.raises(SizeLimitError):
            build_group("elemab:4", 5)
        with pytest.raises(SizeLimitError):
            builtin_presentation("heisenberg", 11)
        # a file is refused on its header, before any table is read
        with pytest.raises(SizeLimitError):
            parse_group_text("3 6 0\n729\n")
        # a huge exponent is refused without forming p^k
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="3\\^10000000"):
            build_group("cyclic:10000000", 3)
        with pytest.raises(SizeLimitError):
            parse_group_text("3 10000000 0\n27\n")
        assert time.perf_counter() - start < 1.0
        # 343 itself is allowed
        assert build_group("heisenberg", 7).order == 343

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_group("dihedral:3", 3)
        # a family without an argument refuses one instead of ignoring it
        with pytest.raises(ValueError, match="unknown group kind"):
            builtin_presentation("heisenberg:5", 3)
        # an empty argument after the colon is no default
        for kind in ("cyclic:", "elemab:", "heisenberg:"):
            with pytest.raises(ValueError, match="unknown group kind"):
                build_group(kind, 3)

    def test_negative_exponent_rejected(self):
        # p^-1 is no group order
        for kind in ("cyclic:-1", "elemab:-2"):
            with pytest.raises(ValueError, match="negative exponent"):
                build_group(kind, 3)

    def test_table_validation_rejects_broken_rows(self):
        mul = np.array([[0, 1], [1, 1]])
        with pytest.raises(GroupTableError):
            FiniteGroupTable(2, mul)

    def test_table_validation_rejects_a_column_that_is_not_a_permutation(self):
        # every row is a permutation, column 1 repeats element 1
        mul = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
        with pytest.raises(GroupTableError, match="not permutations"):
            FiniteGroupTable(3, mul)

    def test_table_validation_rejects_a_nonassociative_loop(self):
        # a Latin square with identity 0 of order 5: (1 1) 2 = 2 but
        # 1 (1 2) = 1 3 = 4
        mul = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
        with pytest.raises(GroupTableError, match="associativity"):
            FiniteGroupTable(5, mul)
        with pytest.raises(GroupTableError, match="associativity"):
            FiniteGroupTable(5, mul, generators=(1, 2))
        # in its product with the cyclic group of order 5, the cyclic
        # generator passes Light's test, so every generator must be tested
        a, b = np.arange(25) % 5, np.arange(25) // 5
        product = (a[:, None] + a) % 5 + 5 * mul[b[:, None], b]
        with pytest.raises(GroupTableError, match="associativity"):
            FiniteGroupTable(5, product, generators=(1, 5, 10))

    def test_table_validation_rejects_wrong_identity(self):
        mul = np.array([[1, 0], [0, 1]])
        with pytest.raises(GroupTableError):
            FiniteGroupTable(2, mul)

    def test_order_must_be_a_prime_power(self):
        G = build_group("cyclic:1", 3)
        with pytest.raises(GroupTableError):
            FiniteGroupTable(2, G.mul)

    def test_power_and_word_evaluation(self):
        G = build_group("cyclic:2", 3)
        assert G.word_to_element((1,) * 9, (1,)) == 0
        assert G.word_to_element((-1,), (1,)) == G.inverse(1) == 8
        assert G.word_to_element((1, 1, 1), (1,)) == 3
        assert G.word_to_element((-1, -1, 1), (3,)) == G.inverse(3) == 6
        assert G.word_to_element((), (1,)) == 0

    def test_word_to_element_rejects_letters_outside_the_generators(self):
        # a PresentationError, not a misread image or an IndexError, which
        # the CLI's ValueError handler would not catch
        G = build_group("elemab:2", 3)
        for word in ((0,), (1, 0), (3,), (-3, 1)):
            with pytest.raises(PresentationError, match="out of range"):
                G.word_to_element(word, G.generators)


def _cyclic_oracle(p, k):
    """The former hand-written table of cyclic:k: x^i is element i."""
    n = p ** k
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n, (1,) if n > 1 else ()


def _elemab_oracle(p, d):
    """The former hand-written table of elemab:d: element sum a_i p^i has
    base-p digits a_i."""
    n = p ** d
    idx = np.arange(n)
    digits = np.zeros((n, d), dtype=np.int64)
    rem = idx.copy()
    for i in range(d):
        digits[:, i] = rem % p
        rem //= p
    sums = (digits[:, None, :] + digits[None, :, :]) % p
    return (sums * p ** np.arange(d)).sum(axis=2), tuple(p ** i for i in range(d))


def _heisenberg_oracle(p, _):
    """The former hand-written table of UT_3(F_p): element a + p b + p^2 c
    is the matrix with entries a, b, c at (0, 1), (1, 2), (0, 2)."""
    idx = np.arange(p ** 3)
    a, b, c = idx % p, idx // p % p, idx // (p * p)
    mul = ((a[:, None] + a) % p + p * ((b[:, None] + b) % p)
           + p * p * ((c[:, None] + c + a[:, None] * b) % p))
    return mul, (1, p)


ORACLE_TABLES = {"cyclic": _cyclic_oracle, "elemab": _elemab_oracle,
                 "heisenberg": _heisenberg_oracle}


def _permutation_matrix(images):
    """The 0/1 matrix of the permutation i -> images[i]."""
    return np.eye(len(images), dtype=np.int64)[images]


class TestTableFromMatrices:
    @pytest.mark.parametrize("kind, p", SIZE_LIMIT_CASES)
    def test_builtins_match_the_former_tables_entry_for_entry(self, kind, p):
        # the numbering by columns, last column first, gives each built-in
        # the labels of its former formula, generators included
        name, _, arg = kind.partition(":")
        mul, gens = ORACLE_TABLES[name](p, int(arg or 0))
        G = build_group(kind, p)
        assert np.array_equal(G.mul, mul)
        assert G.generators == gens

    def test_wreath_product_c3_wr_c3_has_class_3(self):
        # the Sylow 3-subgroup of S_9, from a 3-cycle and the block
        # permutation: order 81, class 3, a = {1: 2, 2: 1, 3: 1}
        x = _permutation_matrix([1, 2, 0, 3, 4, 5, 6, 7, 8])
        y = _permutation_matrix([3, 4, 5, 6, 7, 8, 0, 1, 2])
        start = time.perf_counter()
        G = table_from_matrices(3, 3, [x, y])
        assert time.perf_counter() - start < 1.0
        assert G.order == 81
        assert [len(s) for s in lower_central_series(G)] == [81, 9, 3, 1]
        _, a = dimension_subgroups(G)
        assert a.as_dict() == {1: 2, 2: 1, 3: 1}
        assert jennings_transform(a).c == augmentation_powers(G)
        assert lazard_check(G).all_match
        # <x, y | x^3, y^3, [x, x^y]> presents it as a pro-3 group
        x_y = (-2, 1, 2)
        pres = make_presentation(G, G.generators,
                                 [(1,) * 3, (2,) * 3, commutator_word((1,), x_y)])
        assert pres.levels == (3, 3, 3)
        assert verify_recursion(pres).ok
        assert fox_formula_holds(pres)

    def test_closure_past_the_size_limit_is_refused_early(self):
        # [[1, 1], [0, 1]] has order 3^7 = 2187 mod 3^7: refused as soon
        # as the closure passes the limit, with no table allocated
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=f"exceeds limit {DEFAULT_SIZE_LIMIT}"):
            table_from_matrices(3, 3 ** 7, [[[1, 1], [0, 1]]])
        assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# F_p row reduction
# ---------------------------------------------------------------------------

def _gauss_jordan(rows, p):
    """Pure-Python reduced echelon form over F_p: (nonzero rows, pivots)."""
    m = [[x % p for x in row] for row in rows]
    pivots, r = [], 0
    for col in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m[:r], pivots


def _rref(rows, p):
    """Reduced row echelon form over F_p through `_rref_in_place`:
    (nonzero rows, pivot columns)."""
    m = np.asarray(rows, dtype=np.int64) % p
    pivots = _rref_in_place(m, p, _residue_table(p))
    return m[:len(pivots)], pivots


def _residues(vecs, basis, pivots, p):
    """Canonical representatives of row vectors modulo the span of a
    reduced echelon basis: zero in every pivot column."""
    vecs = np.asarray(vecs, dtype=np.int64) % p
    return (vecs - vecs[:, pivots] @ basis) % p


def _eliminate_pivot_by_pivot(vecs, basis, pivots, p):
    """Residues by one elimination step per basis row."""
    out = np.array(vecs, dtype=np.int64) % p
    for row, col in zip(basis, pivots):
        out = (out - np.outer(out[:, col], row)) % p
    return out


@st.composite
def _matrices(draw, max_rows=7, max_cols=7):
    # 331 makes the residue table of the pivot updates large
    p = draw(st.sampled_from([2, 3, 5, 7, 331]))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    # entries outside 0..p-1, and low-rank draws, exercise the reduction
    entries = st.integers(-p, 2 * p - 1) | st.just(0)
    flat = draw(st.lists(entries, min_size=nrows * ncols, max_size=nrows * ncols))
    return p, np.array(flat, dtype=np.int64).reshape(nrows, ncols)


class TestFpMatmul:
    @settings(max_examples=200)
    @given(st.sampled_from([2, 3, 5, 7, 331]), st.integers(0, 40), st.integers(0, 40),
           st.integers(0, 40), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_matches_integer_matmul_mod_p(self, p, m, k, n, float_b, seed):
        # signed entries below p in absolute value; shapes on both sides of
        # BLAS_MIN_WORK, empty dimensions included; b may come as float64
        rng = np.random.default_rng(seed)
        a = rng.integers(-(p - 1), p, size=(m, k))
        b = rng.integers(-(p - 1), p, size=(k, n))
        got = _fp_matmul(a, b.astype(np.float64) if float_b else b, p)
        assert got.dtype == np.int64
        assert got.shape == (m, n)
        assert np.array_equal(got, (a @ b) % p)

    def test_worst_case_at_the_largest_inner_dimension_is_exact(self):
        # A group of order p^k within the size limit needs at most k
        # generators, and no product of the lab has an inner dimension past
        # d |G|.  Every partial sum of p - 1 times p - 1 over that dimension
        # stays below 2^27.  With p - 2 (odd for odd p) the large partial
        # sums are odd, which a float32 product would round.
        for p in filter(is_prime, range(2, DEFAULT_SIZE_LIMIT + 1)):
            k = 1
            while p ** (k + 1) <= DEFAULT_SIZE_LIMIT:
                k += 1
            inner = k * p ** k
            assert inner * (p - 1) ** 2 < 2 ** 27
            assert 16 * inner * 16 >= group_lab.BLAS_MIN_WORK  # the float64 path
            for x in {p - 1, max(p - 2, 1)}:
                a = np.full((16, inner), x, dtype=np.int64)
                b = np.full((inner, 16), x, dtype=np.int64)
                want = inner * x * x % p
                assert np.array_equal(_fp_matmul(a, b, p), np.full((16, 16), want))
                assert np.array_equal(_fp_matmul(-a, b, p), np.full((16, 16), -want % p))

    def test_a_product_past_float64_exactness_is_refused(self):
        # (p - 1)^2 is about 2^52, so two terms can reach 2^53
        p = next(q for q in range(2 ** 26 + 1, 2 ** 27) if is_prime(q))
        a = np.ones((1, 2), dtype=np.int64)
        with pytest.raises(OverflowError, match="not exact in float64"):
            _fp_matmul(a, a.T, p)
        assert _fp_matmul(a[:, :1], a[:, :1].T, p).tolist() == [[1]]


class TestRowReduction:
    @settings(max_examples=300)
    @given(_matrices())
    def test_rref_matches_gauss_jordan(self, case):
        # reduced echelon form is unique, so rows and pivots must agree
        p, m = case
        rows, pivots = _rref(m, p)
        want_rows, want_pivots = _gauss_jordan(m.tolist(), p)
        assert pivots == want_pivots
        assert rows.tolist() == want_rows

    @settings(max_examples=200)
    @given(_matrices(), st.data())
    def test_residues_match_pivot_by_pivot_elimination(self, case, data):
        p, m = case
        basis, pivots = _rref(m, p)
        k = data.draw(st.integers(0, 5))
        flat = data.draw(st.lists(st.integers(-p, 2 * p - 1), min_size=k * m.shape[1],
                                  max_size=k * m.shape[1]))
        vecs = np.array(flat, dtype=np.int64).reshape(k, m.shape[1])
        res = _residues(vecs, basis, pivots, p)
        assert np.array_equal(res, _eliminate_pivot_by_pivot(vecs, basis, pivots, p))
        assert not res[:, pivots].any()

    @settings(max_examples=200)
    @given(_matrices(), st.data())
    def test_echelon_block_entry_matches_row_entry_and_rref(self, case, data):
        p, m = case
        m = m % p
        cuts = sorted(data.draw(st.lists(st.integers(0, m.shape[0]), max_size=3)))
        by_block, by_row = _Echelon(m.shape[1], p), _Echelon(m.shape[1], p)
        for block in np.split(m, cuts):
            old, free = by_block.pivots.tolist(), by_block.free
            added, new = by_block.extend(block)
            # the old pivots keep their places, the new ones follow in order
            assert by_block.pivots.tolist() == old + added.tolist()
            assert np.all(np.diff(added) > 0)
            # the new rows are the last rows of the extended basis in the
            # columns free before the call, and zero in the old pivots
            full = _echelon_rows(by_block)[len(old):]
            assert np.array_equal(new, full[:, free])
            assert not full[:, old].any()
        for row in m:
            by_row.extend(row[None])
        want_rows, want_pivots = _rref(m, p)
        for echelon in (by_block, by_row):
            order = np.argsort(echelon.pivots)
            assert echelon.pivots[order].tolist() == want_pivots
            assert np.array_equal(_echelon_rows(echelon)[order], want_rows)
            assert echelon.free.tolist() == sorted(set(range(m.shape[1])) - set(want_pivots))


def _echelon_rows(echelon):
    """The basis rows of an _Echelon in full, in the order they entered:
    the identity in the pivot columns, the stored rows in the free ones."""
    rows = np.zeros((len(echelon.pivots), len(echelon.pivots) + len(echelon.free)), dtype=np.int64)
    rows[np.arange(len(echelon.pivots)), echelon.pivots] = 1
    rows[:, echelon.free] = echelon.rest
    return rows


# ---------------------------------------------------------------------------
# filtration of the group algebra
# ---------------------------------------------------------------------------

class TestAugmentationPowers:
    def test_cyclic_3(self):
        G = build_group("cyclic:1", 3)
        assert augmentation_powers(G) == (0, 1, 2, 3)

    def test_cyclic_9(self):
        # the algebra is F_3[t]/((t-1)^9), so the ideal steps down one
        # dimension at a time and dies at the ninth power
        G = build_group("cyclic:2", 3)
        assert augmentation_powers(G) == tuple(range(10))

    def test_heisenberg_27(self):
        G = build_group("heisenberg", 3)
        assert augmentation_powers(G) == (0, 1, 3, 7, 11, 16, 20, 24, 26, 27)

    def test_codimensions_monotone(self):
        for kind in BUILTIN_KINDS:
            c = augmentation_powers(build_group(kind, 3))
            assert all(x < y for x, y in zip(c, c[1:]))


class TestDimensionSubgroups:
    def test_cyclic_9_support(self):
        G = build_group("cyclic:2", 3)
        chain, a = dimension_subgroups(G)
        assert a.as_dict() == {1: 1, 3: 1}
        assert [len(s) for s in chain] == [9, 3, 3, 1]

    def test_heisenberg_support(self):
        G = build_group("heisenberg", 5)
        chain, a = dimension_subgroups(G)
        assert a.as_dict() == {1: 2, 2: 1}
        assert len(chain[0]) == 125

    def test_chain_is_nested(self):
        G = build_group("heisenberg", 3)
        chain, _ = dimension_subgroups(G)
        for upper, lower in zip(chain, chain[1:]):
            assert lower <= upper

    def test_jennings_equivalence_over_builtins(self):
        # the transform of the measured a must reproduce the measured c
        for p in (3, 5):
            for kind in BUILTIN_KINDS:
                G = build_group(kind, p)
                c = augmentation_powers(G)
                _, a = dimension_subgroups(G)
                data = jennings_transform(a)
                assert data.order == G.order
                assert tuple(data.c_at(n) for n in range(len(c))) == c


def _filtration_by_rref(G):
    """Reduced echelon bases (rows, pivots) of I^0, I^1, ... down to the
    first zero power, by one row reduction per level: I^(n+1) is spanned
    by v (g - 1) over the basis vectors v of I^n and the generators g."""
    n, p = G.order, G.prime
    filt = [(np.eye(n, dtype=np.int64), list(range(n)))]
    ideal = np.eye(n, dtype=np.int64)[1:]
    ideal[:, 0] = p - 1  # e_g - e_0 for every g but the identity
    filt.append(_rref(ideal, p))
    while filt[-1][0].shape[0] > 0:
        basis = filt[-1][0]
        # v g - v for each generator g; column h g of v g holds v[h]
        filt.append(_rref(np.vstack([basis[:, G.mul[:, G.inv[g]]] - basis
                                     for g in G.generators]), p))
    return filt


def _dimension_chain_by_residues(G):
    """The dimension subgroup chain by one residue product per level of
    the oracle filtration."""
    filt = _filtration_by_rref(G)
    vecs = np.eye(G.order, dtype=np.int64)
    vecs[:, 0] -= 1
    chain = []
    for level in range(1, len(filt) + 1):
        basis, pivots = filt[min(level, len(filt) - 1)]
        inside = ~_residues(vecs, basis, pivots, G.prime).any(axis=1)
        chain.append(frozenset(np.flatnonzero(inside).tolist()))
        if len(chain[-1]) == 1:
            break
    return tuple(chain)


def _oracle_codimensions(G):
    return tuple(G.order - basis.shape[0] for basis, _ in _filtration_by_rref(G))


class TestFlagBasis:
    @pytest.mark.parametrize("kind, p", ORACLE_CASES)
    def test_invertible_and_adapted_to_the_filtration(self, kind, p):
        G = build_group(kind, p)
        T, T_inv = G.flag_basis()
        assert np.array_equal(T @ T_inv % p, np.eye(G.order, dtype=np.int64))
        c = augmentation_powers(G)
        # T[c_n:] lies in I^n, and has dim I^n independent rows
        for n, (basis, pivots) in enumerate(_filtration_by_rref(G)):
            assert not _residues(T[c[n]:], basis, pivots, p).any(), n

    @pytest.mark.parametrize("kind, p", ORACLE_CASES)
    def test_codimensions_and_chain_match_the_oracle(self, kind, p):
        G = build_group(kind, p)
        assert augmentation_powers(G) == _oracle_codimensions(G)
        assert dimension_subgroups(G)[0] == _dimension_chain_by_residues(G)

    @pytest.mark.parametrize("kind, p", (("cyclic:2", 5), ("elemab:3", 3), ("heisenberg", 3)))
    def test_filtration_levels_are_views_of_the_flag_basis(self, kind, p):
        G = build_group(kind, p)
        T, T_inv = G.flag_basis()
        filt = G.ideal_filtration()
        for (powers, cut), (basis, _) in zip(filt, _filtration_by_rref(G)):
            assert powers.shape == basis.shape
            assert powers.size == 0 or np.shares_memory(powers, T)
            assert cut.shape == (G.order, G.order - basis.shape[0])
            assert cut.size == 0 or np.shares_memory(cut, T_inv)
            # the columns vanish on I^n: they are the annihilator of I^n
            # under (a, b) -> coefficient of 1 in ab
            assert not (basis @ cut % p).any()

    @pytest.mark.parametrize("g", [-1, 3])
    def test_generator_outside_the_table_rejected(self, g, monkeypatch):
        mul = build_group("cyclic:1", 3).mul

        def no_closure(self, gens):
            raise AssertionError("closure taken before the generators were checked")

        monkeypatch.setattr(FiniteGroupTable, "subgroup_closure", no_closure)
        with pytest.raises(GroupTableError, match=f"generator {g} out of range 0..2"):
            FiniteGroupTable(3, mul, generators=(g,))

    def test_order_one_group(self):
        G = FiniteGroupTable(5, np.zeros((1, 1), dtype=np.int64), generators=())
        assert augmentation_powers(G) == _oracle_codimensions(G) == (0, 1)
        assert dimension_subgroups(G)[0] == _dimension_chain_by_residues(G) == (frozenset({0}),)
        T, T_inv = G.flag_basis()
        assert T.tolist() == T_inv.tolist() == [[1]]

    @settings(deadline=None, max_examples=15)
    @given(st.sampled_from(RELABEL_GROUPS), st.randoms(use_true_random=False))
    def test_dimension_subgroups_match_residues_on_relabelled_tables(self, case, rnd):
        kind, p = case
        H = _relabelled(builtin_presentation(kind, p), rnd).target
        assert augmentation_powers(H) == _oracle_codimensions(H)
        assert dimension_subgroups(H)[0] == _dimension_chain_by_residues(H)


def _reduced_generator_map_by_rref(G):
    """(piv_R, free, B_free, L, R_piv) as ideal_filtration once took them,
    by one row reduction of [R | 1]: row h of R holds
    e_h (g_i - 1) = e_(h g_i) - e_h in slot i."""
    n, p, d = G.order, G.prime, len(G.generators)
    RI = np.zeros((n, d + 1, n), dtype=np.int64)
    h = np.arange(n)[:, None]
    RI[h, np.arange(d), G.mul[:, list(G.generators)]] += 1
    RI[h, np.arange(d), h] -= 1
    RI[:, d] = np.eye(n, dtype=np.int64)
    RI = RI.reshape(n, -1)
    red, piv = _rref(RI, p)
    piv_R = np.array(piv[:n - 1], dtype=np.int64)
    free = np.setdiff1d(np.arange(d * n), piv_R)
    return piv_R, free, red[:n - 1, free], red[:n - 1, d * n:], RI[:, piv_R]


@st.composite
def _generator_sets(draw, G):
    """Generating sets of G in a drawn order: the declared one, or it with
    random extras, with every generator repeated, or with the identity
    (a zero column of R, never a tree edge)."""
    gens = list(G.generators)
    shape = draw(st.sampled_from(("declared", "redundant", "repeated", "identity")))
    if shape == "redundant":
        gens += draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2))
    elif shape == "repeated":
        gens += gens
    elif shape == "identity":
        gens.append(0)
    return draw(st.permutations(gens))


class TestReducedGeneratorMap:
    def _assert_matches_the_row_reduction(self, G):
        got = G._reduced_generator_map()
        want = _reduced_generator_map_by_rref(G)
        for name, x, y in zip(("piv_R", "free", "B_free", "L", "R_piv"), got, want):
            assert x.shape == y.shape and np.array_equal(x, y), name

    @pytest.mark.parametrize("kind, p", CLOSURE_GROUPS)
    def test_spanning_tree_matches_the_row_reduction(self, kind, p):
        G = build_group(kind, p)
        self._assert_matches_the_row_reduction(G)
        # the identity first, a generator twice and a redundant element
        g = G.generators
        H = FiniteGroupTable(p, G.mul, generators=(0,) + g[::-1] + (g[0], G.mul[g[0], g[-1]]))
        self._assert_matches_the_row_reduction(H)
        assert augmentation_powers(H) == augmentation_powers(G)

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(CLOSURE_GROUPS), st.randoms(use_true_random=False), st.data())
    def test_spanning_tree_matches_on_relabelled_tables(self, case, rnd, data):
        kind, p = case
        H, _ = _relabelling(build_group(kind, p), rnd)
        H = FiniteGroupTable(p, H.mul, generators=data.draw(_generator_sets(H)))
        self._assert_matches_the_row_reduction(H)

    def test_order_one_group(self):
        for gens in ((), (0,), (0, 0)):
            G = FiniteGroupTable(3, np.zeros((1, 1), dtype=np.int64), generators=gens)
            self._assert_matches_the_row_reduction(G)


def _closure_by_bfs(G, gens):
    """Breadth-first search from the identity by right multiplication by
    the generators, one element at a time."""
    gens = sorted({int(g) for g in gens})
    reached, queue = {0}, [0]
    for x in queue:
        for g in gens:
            y = G.multiply(x, g)
            if y not in reached:
                reached.add(y)
                queue.append(y)
    return frozenset(reached)


@st.composite
def _element_lists(draw, G):
    """Elements to close over: none, the identity alone, random elements,
    elements repeated, or a generating set of G with extras."""
    elements = st.integers(0, G.order - 1)
    shape = draw(st.sampled_from(("empty", "identity", "random", "repeated", "generating")))
    if shape == "empty":
        return []
    if shape == "identity":
        return [0]
    if shape == "random":
        return draw(st.lists(elements, min_size=1, max_size=5))
    if shape == "repeated":
        return draw(st.lists(elements, min_size=1, max_size=3)) * 3
    return list(G.generators) + draw(st.lists(elements, max_size=2))


class TestSubgroupClosure:
    @pytest.mark.parametrize("kind, p", CLOSURE_GROUPS)
    def test_fixed_element_lists_match_bfs(self, kind, p):
        G = build_group(kind, p)
        g = G.generators[-1]
        for gens in ([], [0], [g, g, g], list(G.generators), np.array(G.generators)):
            assert G.subgroup_closure(gens) == _closure_by_bfs(G, gens)
        assert G.subgroup_closure(G.generators) == frozenset(range(G.order))

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(CLOSURE_GROUPS), st.randoms(use_true_random=False), st.data())
    def test_matches_bfs_on_relabelled_tables(self, case, rnd, data):
        kind, p = case
        H, _ = _relabelling(build_group(kind, p), rnd)
        gens = data.draw(_element_lists(H))
        assert H.subgroup_closure(gens) == _closure_by_bfs(H, gens)


def _lazard_by_levels(G):
    """lazard_check's report with one closure of the product formula for
    every n of the dimension chain."""
    chain, _ = dimension_subgroups(G)
    gammas = lower_central_series(G)
    p = G.prime
    powers = [np.arange(G.order)]  # powers[j] maps x to x^(p^j)
    while p ** (len(powers) - 1) < len(chain):
        acc = np.zeros(G.order, dtype=np.int64)
        for _ in range(p):
            acc = G.mul[acc, powers[-1]]
        powers.append(acc)
    matches = []
    for n in range(1, len(chain) + 1):
        jmax = 0
        while p ** jmax < n:
            jmax += 1
        gens = [int(powers[j][x]) for i, gamma in enumerate(gammas, start=1)
                for x in gamma for j in range(jmax + 1) if i * p ** j >= n]
        matches.append(G.subgroup_closure(gens) == chain[n - 1])
    return LazardReport(tuple(matches), all(matches), len(chain))


def _relabel_sets(sets, sigma):
    return tuple(frozenset(int(sigma[x]) for x in s) for s in sets)


class TestCentralSeries:
    def test_abelian_terminates_immediately(self):
        G = build_group("cyclic:2", 3)
        series = lower_central_series(G)
        assert [len(s) for s in series] == [9, 1]

    def test_heisenberg_class_two(self):
        G = build_group("heisenberg", 3)
        series = lower_central_series(G)
        assert [len(s) for s in series] == [27, 3, 1]

    def test_lazard_product_formula(self):
        for kind in BUILTIN_KINDS:
            report = lazard_check(build_group(kind, 3))
            assert report.all_match, kind
            assert all(report.matches)

    @pytest.mark.parametrize("kind, p", SIZE_LIMIT_CASES)
    def test_lazard_matches_one_closure_per_level(self, kind, p):
        G = build_group(kind, p)
        assert lazard_check(G) == _lazard_by_levels(G)

    @settings(deadline=None, max_examples=15)
    @given(st.sampled_from(CLOSURE_GROUPS), st.randoms(use_true_random=False))
    def test_series_and_lazard_on_relabelled_tables(self, case, rnd):
        G = build_group(*case)
        H, sigma = _relabelling(G, rnd)
        report = lazard_check(H)
        assert report == _lazard_by_levels(H) == lazard_check(G)
        assert report.all_match
        assert lower_central_series(H) == _relabel_sets(lower_central_series(G), sigma)
        assert dimension_subgroups(H)[0] == _relabel_sets(dimension_subgroups(G)[0], sigma)

    @pytest.mark.parametrize("kind, p, closures", [("cyclic:3", 5, 7), ("cyclic:8", 2, 10)])
    def test_lazard_closes_each_factor_set_once(self, kind, p, closures, monkeypatch):
        # the lower central series takes one closure; at n = 1..26 for
        # cyclic:3 at p = 5 the factor sets {(i, j)} are those of n = 1, 2,
        # 3-5, 6-10, 11-25 and 26; for cyclic:8 at p = 2, those of n = 1,
        # 2, 3-4, 5-8, ..., 65-128 and 129
        G = build_group(kind, p)
        calls = []
        closure = FiniteGroupTable.subgroup_closure

        def counted(self, gens):
            calls.append(1)
            return closure(self, gens)

        monkeypatch.setattr(FiniteGroupTable, "subgroup_closure", counted)
        assert lazard_check(G).all_match
        assert len(calls) == closures

    def test_lazard_reuses_the_dimension_chain(self, monkeypatch):
        # the chain is kept on the table: lazard_check after
        # dimension_subgroups reads neither the flag basis nor the
        # codimensions again
        G = build_group("heisenberg", 5)
        kept = dimension_subgroups(G)
        for name in ("flag_basis", "ideal_filtration"):
            monkeypatch.setattr(FiniteGroupTable, name,
                                lambda self, name=name: pytest.fail(f"{name} read again"))
        monkeypatch.setattr(group_lab, "augmentation_powers",
                            lambda G: pytest.fail("codimensions read again"))
        report = lazard_check(G)
        assert report.all_match and report.chain_length == len(kept[0])
        assert dimension_subgroups(G) is kept

    def test_commutator_subgroups_match_elementwise_commutators(self):
        for p in (3, 5):
            G = build_group("heisenberg", p)
            series = lower_central_series(G)
            for cur, nxt in zip(series, series[1:]):
                comms = {_commutator(G, g, h) for g in range(G.order) for h in cur}
                assert nxt == G.subgroup_closure(comms)


# ---------------------------------------------------------------------------
# words, their Magnus series, differentiation
# ---------------------------------------------------------------------------

class TestWords:
    def test_parse_and_format(self):
        assert parse_word("x1x1x1", 1) == (1, 1, 1)
        assert parse_word("X1X2x1x2", 2) == (-1, -2, 1, 2)
        assert format_word((-1, -2, 1, 2)) == "X1X2x1x2"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("y1", 1)
        with pytest.raises(ValueError):
            parse_word("x3", 2)
        with pytest.raises(ValueError):
            parse_word("x", 1)

    def test_free_reduce(self):
        assert free_reduce((1, -1, 2)) == (2,)
        assert free_reduce((1, 2, -2, -1)) == ()

    def test_commutator_word(self):
        assert commutator_word((1,), (2,)) == (-1, -2, 1, 2)

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10))
    def test_parse_format_roundtrip(self, word):
        reduced = free_reduce(word)
        assert parse_word(format_word(reduced), 2) == reduced


def _magnus_by_letters(word, p, cap):
    """(word - 1) expanded letter by letter, the reference for
    magnus_embed: x_i -> 1 + X_i, its inverse -> the geometric series
    1 - X_i + X_i^2 - ..., each product truncated above cap, mod p."""
    acc = {(): 1}
    for letter in word:
        i = abs(letter)
        if letter > 0:
            factor = {(): 1, (i,): 1}
        else:
            factor = {(i,) * q: (-1) ** q for q in range(cap + 1)}
        out = {}
        for w1, c1 in acc.items():
            for w2, c2 in factor.items():
                if len(w1) + len(w2) <= cap:
                    out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
        acc = out
    acc[()] = acc.get((), 0) - 1
    return {w: c % p for w, c in acc.items() if c % p}


def _level_from_cap_8(word, d, p):
    """word_level as first written: the cap starts at 8 and doubles up to
    MAX_LEVEL_CAP, past which the level is refused."""
    reduced = free_reduce(word)
    cap = 8
    while True:
        terms = magnus_embed(reduced, d, p, cap)
        if terms:
            return min(map(len, terms))
        if cap >= group_lab.MAX_LEVEL_CAP:
            raise PresentationError(
                f"level of {format_word(word)} exceeds cap {group_lab.MAX_LEVEL_CAP}")
        cap *= 2


def _level_or_refusal(level, word, d, p):
    try:
        return level(word, d, p)
    except PresentationError as exc:
        return str(exc)


@st.composite
def _words_with_runs(draw, d):
    """Words as runs x_i^m, inverse runs and repeated letters included,
    neither freely reduced nor merged."""
    runs = draw(st.lists(st.tuples(st.integers(1, d), st.integers(-9, 9)), max_size=6))
    return tuple(letter for i, m in runs for letter in [i if m > 0 else -i] * abs(m))


class TestMagnus:
    def test_single_generator(self):
        assert magnus_embed((1,), 2, 3, 4) == {(1,): 1}

    def test_inverse_generator_geometric_series(self):
        # 1/(1+x) - 1 = -x + x^2 - x^3 + ... ; mod 3 the signs are 2,1,2
        assert magnus_embed((-1,), 1, 3, 3) == {(1,): 2, (1, 1): 1, (1, 1, 1): 2}

    def test_commutator_leading_term(self):
        assert magnus_embed(commutator_word((1,), (2,)), 2, 3, 2) == {(1, 2): 1, (2, 1): 2}

    def test_power_relator_level(self):
        # (1+x)^3 - 1 = 3x + 3x^2 + x^3 = x^3 mod 3
        assert magnus_embed((1, 1, 1), 1, 3, 4) == {(1, 1, 1): 1}
        assert word_level((1, 1, 1), 1, 3) == 3

    def test_expansion_is_noncommutative(self):
        # xy - 1 = x + y + xy and yx - 1 = x + y + yx
        assert magnus_embed((1, 2), 2, 3, 4) == {(1,): 1, (2,): 1, (1, 2): 1}
        assert magnus_embed((2, 1), 2, 3, 4) == {(1,): 1, (2,): 1, (2, 1): 1}

    def test_truncation_drops_high_degree(self):
        assert magnus_embed((1, 1, 1), 1, 3, 2) == {}
        assert magnus_embed((1, 2), 2, 3, 1) == {(1,): 1, (2,): 1}

    def test_coefficients_reduced_mod_p(self):
        # (1+x)^2 - 1 = 2x + x^2, and 2 = 0 mod 2
        assert magnus_embed((1, 1), 1, 2, 4) == {(1, 1): 1}
        assert magnus_embed((1, 1), 1, 3, 4) == {(1,): 2, (1, 1): 1}

    def test_word_level(self):
        assert word_level((1, 1, 1), 1, 3) == 3
        assert word_level(commutator_word((1,), (2,)), 2, 3) == 2
        assert word_level((1,) * 9, 1, 3) == 9

    def test_freely_trivial_word_rejected(self):
        with pytest.raises(PresentationError):
            word_level((1, -1), 1, 3)

    def test_letter_out_of_range_rejected(self):
        # letter 0 is neither x_i nor X_i
        for word in ((0,), (1, 0, 1), (3,), (-3, 1)):
            with pytest.raises(ValueError, match="out of range"):
                word_level(word, 2, 3)
        with pytest.raises(ValueError, match="out of range"):
            make_presentation(build_group("cyclic:1", 3), (1,), [(1, 0, 1)])

    def test_level_cap(self):
        with pytest.raises(PresentationError, match="exceeds cap"):
            word_level((1,) * 729, 1, 3)

    def test_empty_word_maps_to_zero(self):
        assert magnus_embed((), 1, 3, 4) == {}

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 8), st.data())
    def test_run_length_expansion_matches_letter_by_letter(self, p, cap, data):
        d = data.draw(st.integers(1, 3))
        word = data.draw(_words_with_runs(d))
        assert magnus_embed(word, d, p, cap) == _magnus_by_letters(word, p, cap)

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_builtin_relator_levels_are_unchanged(self, p):
        # every built-in within the size limit: the pinned levels, and the
        # levels of the cap-8-then-double oracle
        for kind, q in (case.values for case in SIZE_LIMIT_CASES):
            if q != p or kind.endswith(":0"):
                continue
            pres = builtin_presentation(kind, p)
            name, _, arg = kind.partition(":")
            k = int(arg or 0)
            want = {"cyclic": (p ** k,), "elemab": (p,) * k + (2,) * (k * (k - 1) // 2),
                    "heisenberg": (p, p, 3, 3)}[name]
            assert pres.levels == want, kind
            assert pres.levels == tuple(_level_from_cap_8(w, pres.d, p) for w in pres.relators)

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from([2, 3, 5, 7]), st.data())
    def test_level_matches_the_cap_8_oracle_on_random_words(self, p, data):
        # words of short runs, and powers of one letter up to past the cap
        d = data.draw(st.integers(1, 3))
        power = st.integers(1, 800).map(lambda m: (1,) * m)
        word = free_reduce(data.draw(_words_with_runs(d) | power))
        assume(word)
        assert (_level_or_refusal(word_level, word, d, p)
                == _level_or_refusal(_level_from_cap_8, word, d, p))

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_cyclic_levels_up_to_the_size_limit(self, p):
        # x^(p^k) - 1 = X^(p^k) mod p; the level of the relator of each
        # cyclic built-in that fits in the size limit
        k = 1
        while p ** k <= DEFAULT_SIZE_LIMIT:
            assert builtin_presentation(f"cyclic:{k}", p).levels == (p ** k,)
            k += 1


class NonzeroConstantTermError(ValueError):
    """Differentiation requires a series with zero constant term."""


def fox_derivative(f, j):
    """Right partial derivative: collect terms ending in x_j and strip the
    last letter (the decomposition f = sum_j (df/dx_j) x_j)."""
    if f.get((), 0):
        raise NonzeroConstantTermError("series has a nonzero constant term")
    return {w[:-1]: c for w, c in f.items() if w and w[-1] == j}


class TestFoxDerivative:
    def test_last_letter_decomposition(self):
        # f = x1 + x2 + x1 x2: d/dx1 = 1, d/dx2 = 1 + x1
        f = magnus_embed((1, 2), 2, 3, 4)
        assert fox_derivative(f, 1) == {(): 1}
        assert fox_derivative(f, 2) == {(): 1, (1,): 1}

    def test_constant_term_rejected(self):
        with pytest.raises(NonzeroConstantTermError):
            fox_derivative({(): 1}, 1)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8))
    def test_reconstruction_identity(self, word):
        # f = sum_j (df/dx_j) x_j for any constant-free series coming from
        # a group word
        word = tuple(word)
        if not free_reduce(word):
            return
        f = magnus_embed(word, 2, 5, 6)
        total = {}
        for j in (1, 2):
            total.update({w + (j,): c for w, c in fox_derivative(f, j).items()})
        assert total == f


def _monomial_vector(G, images, word):
    """Image of a noncommutative monomial under x_i -> (g_i - 1)."""
    vec = np.zeros(G.order, dtype=np.int64)
    vec[0] = 1
    for i in word:
        translated = np.zeros_like(vec)
        translated[G.mul[:, images[i - 1]]] = vec
        vec = (translated - vec) % G.prime
    return vec


def _magnus_fox_images(pres):
    """The Fox images by the Magnus route: expand each relator in the
    truncated algebra, differentiate, and map every monomial into F_p[G].
    Monomials of degree M map into I^M = 0, so degree M is enough."""
    G = pres.target
    cap = len(G.ideal_filtration()) - 1
    out = np.zeros((pres.r, pres.d, G.order), dtype=np.int64)
    for i, w in enumerate(pres.relators):
        f = magnus_embed(w, pres.d, G.prime, cap)
        for j in range(pres.d):
            for mono, coeff in fox_derivative(f, j + 1).items():
                out[i, j] += coeff * _monomial_vector(G, pres.generator_images, mono)
    return out % G.prime


FOX_GROUPS = tuple((kind, p) for p in (3, 5) for kind in ("cyclic:2", "elemab:2", "heisenberg"))


class TestFoxImages:
    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(FOX_GROUPS), st.data())
    def test_product_rule_matches_the_magnus_route(self, case, data):
        kind, p = case
        G = build_group(kind, p)
        d = len(G.generators)
        letters = st.sampled_from([s * i for i in range(1, d + 1) for s in (1, -1)])
        words = st.lists(letters, max_size=8).map(tuple)
        # u u^-1 is freely trivial but not reduced: its images must vanish
        word = data.draw(words | words.map(lambda u: u + word_inverse(u)))
        # levels are not read by either route
        pres = PresentationData(G, G.generators, (word,), ())
        images = _fox_images(pres)
        assert np.array_equal(images, _magnus_fox_images(pres))
        if not free_reduce(word):
            assert not images.any()

    def test_builtin_relators_match_the_magnus_route(self):
        for kind in BUILTIN_KINDS:
            pres = builtin_presentation(kind, 3)
            assert np.array_equal(_fox_images(pres), _magnus_fox_images(pres)), kind

    def test_fundamental_formula_holds_and_catches_any_wrong_image(self, monkeypatch):
        for p in (3, 5):
            for kind in BUILTIN_KINDS:
                assert fox_formula_holds(builtin_presentation(kind, p)), (kind, p)
        # changing W[i, j, x] by s moves the sum by s (e_(x g_j) - e_x),
        # which is nonzero because no generator image is the identity
        pres = builtin_presentation("heisenberg", 3)
        good = _fox_images(pres)
        for index in np.ndindex(good.shape):
            bad = good.copy()
            bad[index] = (bad[index] + 1) % 3
            monkeypatch.setattr(group_lab, "_fox_images", lambda _, W=bad: W)
            assert not fox_formula_holds(pres), index


# ---------------------------------------------------------------------------
# presentations and the recursion cross-check
# ---------------------------------------------------------------------------

class TestPresentations:
    def test_builtin_cyclic(self):
        pres = builtin_presentation("cyclic:1", 3)
        assert pres.d == 1 and pres.r == 1
        assert pres.levels == (3,)
        assert pres.profile().levels == (3,)

    def test_builtin_cyclic_9_level(self):
        pres = builtin_presentation("cyclic:2", 3)
        assert pres.levels == (9,)

    def test_builtin_elemab(self):
        pres = builtin_presentation("elemab:2", 3)
        assert pres.levels == (3, 3, 2)

    def test_builtin_heisenberg(self):
        pres = builtin_presentation("heisenberg", 3)
        assert pres.d == 2 and pres.r == 4
        assert pres.levels == (3, 3, 3, 3)

    def test_relator_must_map_to_identity(self):
        G = build_group("cyclic:1", 3)
        with pytest.raises(PresentationError):
            make_presentation(G, (1,), [(1, 1)])

    def test_level_one_relator_rejected(self):
        # with the redundant generating set {g, g^2} of the cyclic group,
        # x1 x1 X2 maps to the identity but carries level 1
        G = build_group("cyclic:1", 3)
        with pytest.raises(PresentationError):
            make_presentation(G, (1, 2), [(1, 1, -2)])

    def test_images_must_generate(self):
        G = build_group("elemab:2", 3)
        with pytest.raises(PresentationError):
            make_presentation(G, (1,), [(1, 1, 1)])

    def test_declared_generators_are_not_closed_again(self, monkeypatch):
        calls = []
        closure = FiniteGroupTable.subgroup_closure
        monkeypatch.setattr(FiniteGroupTable, "subgroup_closure",
                            lambda self, gens: calls.append(gens) or closure(self, gens))
        for kind, p in (("cyclic:2", 3), ("elemab:2", 5), ("heisenberg", 7)):
            calls.clear()
            builtin_presentation(kind, p)
            # one closure: the table's own check of its generators
            assert len(calls) == 1, kind
        # other images are closed: a generating set passes, and images
        # (1, 0) and (2, 0) of F_3^2 do not generate it
        G = build_group("elemab:2", 3)
        relators = group_lab._elemab_relators(3, 2)
        calls.clear()
        assert make_presentation(G, G.generators[::-1], relators).levels == (3, 3, 2)
        with pytest.raises(PresentationError, match="do not generate"):
            make_presentation(G, (1, 2), relators)
        assert len(calls) == 2


class TestDirectDefects:
    def test_cyclic_3_fifth_defect(self):
        # recursion value: c_5 + c_2 - c_4 - 1 = 3 + 2 - 3 - 1 = 1
        pres = builtin_presentation("cyclic:1", 3)
        assert e_n_direct(pres, 5) == 1

    def test_cyclic_3_low_defects_vanish(self):
        pres = builtin_presentation("cyclic:1", 3)
        assert [e_n_direct(pres, n) for n in range(1, 5)] == [0, 0, 0, 0]

    def test_recursion_cyclic_3(self):
        rep = verify_recursion(builtin_presentation("cyclic:1", 3))
        assert rep.ok
        assert rep.e_direct == rep.e_expected
        assert rep.e_direct[-1] == 2  # (r+1-d)|G| - 1 = 1*3 - 1
        assert rep.mismatches == ()

    def test_recursion_elemab_9(self):
        rep = verify_recursion(builtin_presentation("elemab:2", 3))
        assert rep.ok
        assert 1 + rep.e_direct[-1] == (rep.profile.r + 1 - rep.profile.d) * 9

    def test_recursion_heisenberg_27(self):
        rep = verify_recursion(builtin_presentation("heisenberg", 3))
        assert rep.ok
        assert 1 + rep.e_direct[-1] == (4 + 1 - 2) * 27

    def test_recursion_cyclic_9(self):
        rep = verify_recursion(builtin_presentation("cyclic:2", 3))
        assert rep.ok

    @settings(deadline=None, max_examples=10)
    @given(st.sampled_from(["elemab:2", "heisenberg"]), st.randoms(use_true_random=False))
    def test_recursion_does_not_depend_on_element_labels(self, kind, rnd):
        pres = builtin_presentation(kind, 3)
        relabelled = verify_recursion(_relabelled(pres, rnd))
        builtin = verify_recursion(pres)
        assert builtin.ok
        assert (relabelled.e_direct, relabelled.ok) == (builtin.e_direct, builtin.ok)

    def test_horizon_must_be_positive(self):
        pres = builtin_presentation("cyclic:1", 3)
        with pytest.raises(ValueError):
            e_n_direct(pres, 0)

    def test_order_343_recursion_budget(self):
        # filtration, flag basis and every defect of the order-343 group
        start = time.perf_counter()
        rep = verify_recursion(builtin_presentation("heisenberg", 7))
        elapsed = time.perf_counter() - start
        assert rep.ok
        assert elapsed < 5.0


def _jacobian_defect(pres, n, filt):
    """e_n from the Jacobian of step n alone: each domain quotient spanned
    by e_h over the non-pivot columns h of its ideal's echelon basis in
    the oracle filtration filt, images reduced to residues modulo I^(n-1),
    one row reduction."""
    G = pres.target
    p = G.prime
    W = _fox_images(pres)
    cod_basis, cod_pivots = filt[min(n - 1, len(filt) - 1)]
    blocks = []
    for i, lvl in enumerate(pres.levels):
        if n - lvl <= 0:
            continue
        _, dom_pivots = filt[min(n - lvl, len(filt) - 1)]
        free = np.setdiff1d(np.arange(G.order), dom_pivots)
        # column x of e_h * W[i, j] holds W[i, j, h^-1 x]; rows (h, j)
        block = W[i][:, G.mul[G.inv[free]]].transpose(1, 0, 2)
        residues = _residues(block.reshape(-1, G.order), cod_basis, cod_pivots, p)
        blocks.append(residues.reshape(len(free), -1))
    if not blocks:
        return 0
    jacobian = np.vstack(blocks)
    return jacobian.shape[0] - len(_rref(jacobian, p)[1])


def _assert_defects_match_jacobians(pres):
    # through the recursion's first terminal index
    filt = _filtration_by_rref(pres.target)
    horizon = verify_recursion(pres).horizon
    want = tuple(_jacobian_defect(pres, n, filt) for n in range(1, horizon + 1))
    assert defects_direct(pres, horizon) == want


class TestDefectsAgainstStepJacobians:
    @pytest.mark.parametrize("kind, p", ORACLE_CASES)
    def test_builtins(self, kind, p):
        _assert_defects_match_jacobians(builtin_presentation(kind, p))

    @settings(deadline=None, max_examples=15)
    @given(st.sampled_from(RELABEL_GROUPS), st.randoms(use_true_random=False))
    def test_relabelled_tables(self, case, rnd):
        kind, p = case
        _assert_defects_match_jacobians(_relabelled(builtin_presentation(kind, p), rnd))

    @pytest.mark.parametrize("kind", ("elemab:2", "elemab:3", "heisenberg"))
    def test_one_relator_dropped(self, kind):
        pres = builtin_presentation(kind, 3)
        for i in range(pres.r):
            rels = pres.relators[:i] + pres.relators[i + 1:]
            _assert_defects_match_jacobians(
                make_presentation(pres.target, pres.generator_images, rels))

    @pytest.mark.parametrize("kind", ("cyclic:2", "elemab:2", "heisenberg"))
    def test_no_relators(self, kind):
        G = build_group(kind, 3)
        pres = make_presentation(G, G.generators, ())
        _assert_defects_match_jacobians(pres)
        assert not any(defects_direct(pres, 12))

    def test_trivial_group(self):
        G = FiniteGroupTable(3, np.zeros((1, 1), dtype=np.int64), generators=())
        _assert_defects_match_jacobians(make_presentation(G, (0,), [(1, 1, 1)]))


def _per_element_block(G, T, w):
    """T R(w) by one permuted copy of T per element in the support of w:
    column x is sum_k w[k] T[:, x k^-1]."""
    TR = np.zeros_like(T)
    for k in np.flatnonzero(w):
        TR += w[k] * T[:, G.mul[:, G.inv[k]]]
    return TR % G.prime


#: a dense Fox derivative (the cyclic relator x^(p^k)) and sparse ones
#: (elementary abelian powers and commutators, Heisenberg commutators),
#: at p = 2, 3 and 5
FOX_BLOCK_GROUPS = (
    ("cyclic:2", 2), ("cyclic:3", 2), ("elemab:3", 2),
    ("cyclic:3", 3), ("elemab:2", 3), ("heisenberg", 3),
    ("cyclic:2", 5), ("elemab:2", 5), ("heisenberg", 5),
)


class TestFoxBlocks:
    """defects_direct builds each Fox block T R(w) T^-1 as two F_p
    products, R(w)[y, x] = w[y^-1 x] being one gather of w.  Its defects
    are checked against the step Jacobians of `_jacobian_defect` above;
    here each block is checked against the per-element sum it replaced."""

    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from(FOX_BLOCK_GROUPS), st.randoms(use_true_random=False))
    def test_product_form_matches_the_per_element_sum(self, case, rnd):
        kind, p = case
        pres = _relabelled(builtin_presentation(kind, p), rnd)
        G = pres.target
        T, T_inv = G.flag_basis()  # built before the products are recorded
        calls = []
        matmul = group_lab._fp_matmul

        def recording(a, b, q):
            calls.append((a, b, matmul(a, b, q)))
            return calls[-1][2]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(group_lab, "_fp_matmul", recording)
            defects_direct(pres, 1)
        # each block is T R(w), then that times T^-1
        first = [i for i, (a, _, _) in enumerate(calls) if a is T]
        W = _fox_images(pres)
        support = [W[i, j] for i, j in zip(*np.nonzero(W.any(axis=2)))]
        assert len(first) == len(support) > 0
        for i, w in zip(first, support):
            _, R, TR = calls[i]
            # row 0 of R(w) is w itself, as e_1 w = w
            assert np.array_equal(R[0], w)
            want = _per_element_block(G, T, w)
            assert np.array_equal(TR, want)
            a, b, block = calls[i + 1]
            assert a is TR and np.array_equal(b, T_inv)
            assert np.array_equal(block, want @ T_inv % p)


#: the strict check on each built-in's measured (a, levels): (p, kind,
#: levels, a, head_degree, k0, k1) of its HOLDS certificate, whose one leaf
#: is (0, 1).  A cyclic target settles on its constant head, read once at
#: 1/2; the others have h(0) > 0, h(1) > 0 and one sign change in h, so
#: they settle on h itself with no point evaluated.
STRICT_PINS = (
    (3, "cyclic:1", (3,), {1: 1}, 0, 4, 1),
    (3, "cyclic:2", (9,), {1: 1, 3: 1}, 0, 10, 1),
    (3, "cyclic:3", (27,), {1: 1, 3: 1, 9: 1}, 0, 28, 1),
    (3, "elemab:1", (3,), {1: 1}, 0, 4, 1),
    (3, "elemab:2", (3, 3, 2), {1: 2}, 7, 4, 0),
    (3, "elemab:3", (3, 3, 3, 2, 2, 2), {1: 3}, 12, 3, 0),
    (3, "heisenberg", (3, 3, 3, 3), {1: 2, 2: 1}, 15, 4, 0),
    (5, "cyclic:1", (5,), {1: 1}, 0, 6, 1),
    (5, "cyclic:2", (25,), {1: 1, 5: 1}, 0, 26, 1),
    (5, "cyclic:3", (125,), {1: 1, 5: 1, 25: 1}, 0, 126, 1),
    (5, "elemab:1", (5,), {1: 1}, 0, 6, 1),
    (5, "elemab:2", (5, 5, 2), {1: 2}, 15, 6, 0),
    (5, "elemab:3", (5, 5, 5, 2, 2, 2), {1: 3}, 26, 3, 0),
    (5, "heisenberg", (5, 5, 3, 3), {1: 2, 2: 1}, 33, 4, 0),
    (7, "cyclic:2", (49,), {1: 1, 7: 1}, 0, 50, 1),
    (7, "elemab:2", (7, 7, 2), {1: 2}, 23, 8, 0),
)


class TestStrictCheckOnBuiltins:
    @pytest.mark.parametrize("p, kind, levels, a, head_degree, k0, k1", [
        pytest.param(*pin, id=f"{pin[1]}-{pin[0]}") for pin in STRICT_PINS])
    def test_strict_check_holds_with_the_pinned_certificate(
            self, p, kind, levels, a, head_degree, k0, k1, monkeypatch):
        pres = builtin_presentation(kind, p)
        _, measured = dimension_subgroups(pres.target)
        assert (pres.levels, measured.as_dict()) == (levels, a)
        points = []
        ieval = gstower.series._ieval_scaled
        monkeypatch.setattr(gstower.series, "_ieval_scaled",
                            lambda q, t: points.append((len(q), t)) or ieval(q, t))
        report = strict_corollary_check(pres.profile(), measured)
        assert report.holds and report.witness is None
        assert report.certificate == DescartesCertificate(((0, 0),), head_degree, k0, k1)
        cyclic = a == {p ** i: 1 for i in range(len(a))}
        assert points == ([(1, Fraction(1, 2))] if cyclic else [])


# ---------------------------------------------------------------------------
# plain-text group files
# ---------------------------------------------------------------------------

def format_group_file(G, pres=None):
    """A group (and optionally its presentation) in the plain-text format
    that parse_group_text reads."""
    k = 0
    m = G.order
    while m > 1:
        m //= G.prime
        k += 1
    images = pres.generator_images if pres is not None else G.generators
    lines = [f"{G.prime} {k} {len(images)}", str(G.order)]
    for i in range(G.order):
        lines.append(" ".join(str(int(x)) for x in G.mul[i]))
    if images:
        lines.append(" ".join(str(g) for g in images))
    rels = pres.relators if pres is not None else ()
    lines.append(str(len(rels)))
    for w in rels:
        lines.append(format_word(w))
    return "\n".join(lines) + "\n"


class TestGroupFiles:
    def test_roundtrip_with_presentation(self):
        pres = builtin_presentation("heisenberg", 3)
        text = format_group_file(pres.target, pres)
        G2, pres2 = parse_group_text(text)
        assert np.array_equal(G2.mul, pres.target.mul)
        assert pres2.levels == pres.levels
        assert pres2.relators == pres.relators

    def test_roundtrip_without_relators(self):
        G = build_group("cyclic:2", 3)
        text = format_group_file(G)
        G2, pres2 = parse_group_text(text)
        assert np.array_equal(G2.mul, G.mul)
        assert pres2 is not None  # generators present, zero relators
        assert pres2.r == 0

    def test_comments_and_whitespace_tolerated(self):
        pres = builtin_presentation("cyclic:1", 3)
        text = format_group_file(pres.target, pres)
        noisy = "# header comment\n" + text.replace("\n", "\n# mid\n", 1)
        G2, pres2 = parse_group_text(noisy)
        assert G2.order == 3
        assert pres2.levels == (3,)

    def test_truncated_file_rejected(self):
        pres = builtin_presentation("cyclic:1", 3)
        text = format_group_file(pres.target, pres)
        with pytest.raises(ValueError):
            parse_group_text(text[: len(text) // 2])

    def test_element_count_must_match_header(self):
        text = "3 1 1\n4\n" + "0 1 2\n1 2 0\n2 0 1\n" + "1\n1\nx1x1x1\n"
        with pytest.raises(ValueError):
            parse_group_text(text)

    def test_tokens_after_the_last_relator_rejected(self):
        # one relator declared, two listed: the second must not be dropped
        G = build_group("cyclic:1", 3)
        text = format_group_file(G).replace("\n0\n", "\n1\nx1x1x1\nX1X1X1\n")
        with pytest.raises(ValueError, match="'X1X1X1'"):
            parse_group_text(text)
