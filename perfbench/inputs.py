"""Seeded input generation for the three benchmark workloads.

Everything here is plain Python and numpy: the generator never calls the
program under test, so the program receives only the generated inputs.
The same (workload, seed, smoke) always yields the same inputs, and
`digest` fingerprints them so two runs can be compared.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1

# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------
#
# Why: `series.positive_on_open_unit_interval` does almost all the work of
# an exact or strict decision, and its cost depends on three things that
# this batch varies on purpose: the degree of the decided polynomial
# (Sturm cost grows roughly like degree^3), the coefficient size (strict
# mode's p^-A slack term makes the coefficients large), and the verdict
# path (VIOLATED stops at the small-denominator scan, HOLDS runs the gcd
# and the whole Sturm chain).
#
# Every verdict is known by construction.  For each (p, profile) below,
# the profile polynomial 1 - d t + sum t^k is positive on (0, 1), and
# the filtration polynomial of a dimension sequence only grows (pointwise
# on (0, 1)) when an entry grows.  So a sequence >= FLOOR entrywise HOLDS
# in exact mode, because the floor itself holds, and the CEILING is
# VIOLATED at its witness.  The floors and ceilings are the first holding
# and last violated stages of a greedy fill (a_1 = d, then at most 2 per
# index, lowest index first); the benchmark's tests re-verify them.
# Strict HOLDS has no such argument (the strict target vanishes at t = 1
# for every sequence), so strict items grown from a floor are expected to
# hold but not guaranteed: a VIOLATED verdict on one of them passes when
# its witness checks out.

#: (p, relator levels) -> (floor, ceiling, ceiling witness); d = 2.
CALIBRATION: dict[tuple[int, tuple[int, ...]], tuple] = {
    (3, (3, 7)): ((2, 2, 2, 2, 2, 2, 1), (2, 2, 2, 2, 2, 2), "5/8"),
    (5, (3, 7)): ((2, 2, 2, 2), (2, 2, 2, 1), "5/8"),
    (7, (3, 7)): ((2, 2, 2, 1), (2, 2, 2), "5/8"),
    (3, (3, 5)): ((2, 2, 2), (2, 2, 1), "1/2"),
    (5, (3, 5)): ((2, 2), (2, 1), "1/2"),
    (7, (3, 5)): ((2, 2), (2, 1), "1/2"),
    (3, (4, 4)): ((2, 2, 2, 2, 2), (2, 2, 2, 2, 1), "8/15"),
    (5, (4, 4)): ((2, 2, 2), (2, 2, 1), "1/2"),
    (7, (4, 4)): ((2, 2, 2), (2, 2, 1), "1/2"),
    (3, (3, 4)): ((2, 2, 1), (2, 2), "1/2"),
    (5, (3, 4)): ((2, 2), (2, 1), "1/2"),
    (7, (3, 4)): ((2, 2), (2, 1), "1/2"),
}
PRIMES = (3, 5, 7)
EXACT_LEVELS = ((3, 7), (3, 5), (4, 4), (3, 4))
STRICT_LEVELS = ((3, 5), (3, 4))

# Degree of the decided polynomial, bounded per mode so that one pass
# over the batch stays a few seconds.  Exact mode decides
# gs_lhs * P - 1 of degree N + m; strict mode adds the slack term
# t^(N + m) * P, of degree 2N + m, and its p^-A coefficients make each
# degree far dearer, so its bound is lower (strict inputs near degree 230
# took minutes each).
EXACT_MAX_DEGREE = 120
STRICT_MAX_DEGREE = 90

#: Three generators and three cubic relators: 1 - 3t + 3t^3 is -1/8 at
#: t = 1/2, so every sequence is VIOLATED there, in exact and in strict
#: mode, and the scan stops at its first point.  These items carry the
#: VIOLATED path over the same degree schedules as the HOLDS items.
FORCED_LEVELS = (3, 3, 3)
FORCED_FLOOR = (3, 0, 0, 0)

#: HOLDS items per exact cell and per strict cell (STRICT_LEVELS, whose
#: floors fit the strict degree bound), forced VIOLATED items per prime
#: and mode.  With one ceiling item per exact cell (its witness may sit
#: deep in the scan) that makes 49 HOLDS and 60 VIOLATED verdicts: the
#: median latency falls inside the VIOLATED cluster, among forced items
#: near the top of their degree schedule, which is the same for every
#: seed, instead of on the gap between the two clusters.
EXACT_HOLDS, STRICT_HOLDS, FORCED = 3, 2, 8
SMOKE_COUNTS = (1, 1, 1)

#: the published strict example: --p 3 --d 1 --levels 3 --a 1
PUBLISHED_STRICT = ("strict", 3, 1, (3,), (1,), "HOLDS")


@dataclass(frozen=True)
class Decision:
    """One decision: mode ("exact" or "strict"), prime, generator count,
    relator levels, dimension sequence, the expected verdict and whether
    the construction guarantees it."""

    mode: str
    p: int
    d: int
    levels: tuple[int, ...]
    a: tuple[int, ...]
    expected: str
    guaranteed: bool = True

    def as_list(self) -> list:
        return [self.mode, self.p, self.d, list(self.levels), list(self.a), self.expected]


def filtration_degree(p: int, a) -> int:
    """N = (p - 1) * sum(n * a_n), the degree of the filtration polynomial."""
    return (p - 1) * sum(n * v for n, v in enumerate(a, start=1))


def decided_degree(mode: str, p: int, levels, a) -> int:
    n = filtration_degree(p, a)
    return (2 * n if mode == "strict" else n) + max(levels)


#: random moves applied to each decide sequence after the fixed fill
GROW_MOVES = 4


def _grow(rng: random.Random, mode: str, p: int, levels, floor, target: int) -> tuple[int, ...]:
    """A sequence >= floor entrywise whose decided degree is the largest
    one <= target that a fixed fill reaches: units go to indices 2 ..
    len(floor) + 2, one per index per sweep, lowest index first, while
    they fit.  Then GROW_MOVES random moves, each shifting one unit up an
    index and another one down, change the shape but neither the degree
    nor sum(a_n).  The cost of a decision follows the degree and the
    shape, so fixing one and bounding the other keeps every seed's cost,
    and the cost of its slowest decisions, about the same (drawing every
    unit at random moved the 11th slowest decision by up to 15% between
    seeds)."""
    base = list(floor) + [0, 0]
    seq = list(base)
    per_unit = 2 * (p - 1) if mode == "strict" else p - 1
    budget = target - decided_degree(mode, p, levels, seq)
    placed = True
    while placed:
        placed = False
        for n in range(2, len(seq) + 1):
            if n * per_unit <= budget:
                seq[n - 1] += 1
                budget -= n * per_unit
                placed = True
    moves = 0
    for _ in range(50 * GROW_MOVES):
        if moves == GROW_MOVES:
            break
        i, j = rng.sample(range(1, len(seq) - 1), 2)
        new = list(seq)
        new[i] -= 1
        new[i + 1] += 1
        new[j + 1] -= 1
        new[j] += 1
        if all(v >= f for v, f in zip(new, base)):
            seq, moves = new, moves + 1
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def _degree_schedule(low: int, high: int, k: int) -> list[int]:
    """k decided degrees spread evenly over [low, high]: the schedule is
    fixed, only the shape of the sequence reaching each degree is drawn,
    so every seed costs about the same."""
    return [low + (high - low) * (2 * i + 1) // (2 * k) for i in range(k)]


def decide_inputs(seed: int, smoke: bool = False) -> list[Decision]:
    rng = random.Random(f"decide:{seed}")
    n_exact, n_strict, n_forced = SMOKE_COUNTS if smoke else (EXACT_HOLDS, STRICT_HOLDS, FORCED)
    out: list[Decision] = []

    def grow(mode, p, d, levels, floor, max_degree, k, expected, guaranteed=True):
        low = decided_degree(mode, p, levels, floor)
        for target in _degree_schedule(low, max_degree, k):
            a = _grow(rng, mode, p, levels, floor, target)
            out.append(Decision(mode, p, d, levels, a, expected, guaranteed))

    for p in PRIMES[:1] if smoke else PRIMES:
        for levels in EXACT_LEVELS:
            floor, ceiling, _ = CALIBRATION[(p, levels)]
            grow("exact", p, 2, levels, floor, EXACT_MAX_DEGREE, n_exact, "HOLDS")
            out.append(Decision("exact", p, 2, levels, ceiling, "VIOLATED"))
            if levels in STRICT_LEVELS:
                grow("strict", p, 2, levels, floor, STRICT_MAX_DEGREE, n_strict, "HOLDS", False)
        for mode, max_degree in (("exact", EXACT_MAX_DEGREE), ("strict", STRICT_MAX_DEGREE)):
            grow(mode, p, 3, FORCED_LEVELS, FORCED_FLOOR, max_degree, n_forced, "VIOLATED")
    mode, p, d, levels, a, expected = PUBLISHED_STRICT
    out.append(Decision(mode, p, d, levels, a, expected))
    return out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
#
# Why: the order-bound reproduction as the CLI runs it.  `search`,
# `bounds`, `jennings` and `validity` do the work and `series` is bypassed
# (no sequence of the sweeps needs the full positivity decision; only the
# greedy minorder search makes a few small relaxed decisions), so a
# decider change predicts no change here while an enumeration change shows
# only here.  The p = 13 sweep stops at nmax 10: at nmax 11 the box holds
# 3.0 M sequences (about a minute), too long for a repeated run.

#: the 13 s p = 13 sweep comes first, so that it opens a pass's first round
#: and a second run of it still fits in a 35 s run after the first pass
SWEEP_COMMANDS = (
    ("bruteforce-p13", ["bruteforce", "--p", "13", "--sumlimit", "22", "--nmax", "10"]),
    ("minorder", ["minorder", "--p", "11", "--ab", "1,1"]),
    ("bruteforce-p11", ["bruteforce", "--p", "11", "--sumlimit", "22"]),
    ("valid-p17", ["valid", "--p", "17", "--a", "2,1,1,1,2,2,3,3,4,4,6,5,7,5,4"]),
)
SMOKE_SWEEP = ("minorder", "bruteforce-p11", "valid-p17")

#: first caps of the {3, 7} profile (labute_g(n, 2, 3), index 7 refined to 3)
SWEEP_CAPS = (2, 1, 1, 1, 2, 2, 3, 5, 8, 11, 18, 25, 40, 58, 90)
VALIDITY_PRIMES = (11, 13, 17)
VALIDITY_PER_PRIME = 12
#: validity items start from min(cap_n, TEMPLATE_ENTRY) at n = 1 .. p - 2
TEMPLATE_ENTRY = 3
VALIDITY_MOVES = 12


def _validity_sequence(rng: random.Random, p: int) -> tuple[int, ...]:
    """A random cap-respecting sequence with the same order exponent
    sum(a_n) and weighted degree sum(n a_n) as the template for p.  The
    cost of a validity report follows those two sums, so every seed costs
    the same while the sequences differ: each move shifts one unit up an
    index and another one down."""
    caps = SWEEP_CAPS[: p - 2]
    seq = [min(cap, TEMPLATE_ENTRY) for cap in caps]
    moves = 0
    for _ in range(50 * VALIDITY_MOVES):
        if moves == VALIDITY_MOVES:
            break
        i, j = rng.sample(range(len(seq) - 1), 2)
        new = list(seq)
        new[i] -= 1
        new[i + 1] += 1
        new[j + 1] -= 1
        new[j] += 1
        if all(0 <= v <= cap for v, cap in zip(new, caps)):
            seq, moves = new, moves + 1
    return tuple(seq)


@dataclass(frozen=True)
class SweepInputs:
    commands: tuple[tuple[str, tuple[str, ...]], ...]
    validity: tuple[tuple[int, tuple[int, ...]], ...]

    def as_list(self) -> list:
        return [[[n, list(a)] for n, a in self.commands], [[p, list(a)] for p, a in self.validity]]


def sweep_inputs(seed: int, smoke: bool = False) -> SweepInputs:
    rng = random.Random(f"sweep:{seed}")
    commands = tuple(
        (name, tuple(argv)) for name, argv in SWEEP_COMMANDS if not smoke or name in SMOKE_SWEEP
    )
    batch = tuple(
        (p, _validity_sequence(rng, p))
        for p in VALIDITY_PRIMES
        for _ in range(2 if smoke else VALIDITY_PER_PRIME)
    )
    return SweepInputs(commands, batch)


# ---------------------------------------------------------------------------
# grouplab
# ---------------------------------------------------------------------------
#
# Why: `group_lab`'s dense F_p algebra does almost all the work, in two
# shapes.  Filtration-heavy groups have many filtration levels (cyclic:3
# at p = 5 has 126), kernel-heavy groups have few levels but large
# relator Jacobians (elemab:3 and heisenberg at p = 5 spend seconds in
# verify_recursion).  A kernel change that helps one shape and hurts the
# other therefore shows.  Every built-in of order <= 125 at p in {3, 5}
# plus the order-49 ones at p = 7; the 343-element groups take minutes
# each today and stay out.  Each table is relabelled by a seeded
# permutation that fixes the identity, so the program cannot lean on the
# built-in element numbering.

GROUPS = tuple(
    (p, kind)
    for p in (3, 5)
    for kind in ("cyclic:1", "cyclic:2", "cyclic:3", "elemab:1", "elemab:2", "elemab:3", "heisenberg")
) + ((7, "cyclic:2"), (7, "elemab:2"))
SMOKE_GROUPS = ((3, "cyclic:2"), (3, "elemab:2"), (3, "heisenberg"))


def group_table(kind: str, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Multiplication table and generators of a built-in family, in the
    numbering the library's own constructors use."""
    name, _, arg = kind.partition(":")
    if name == "cyclic":
        n = p ** int(arg)
        idx = np.arange(n)
        return (idx[:, None] + idx[None, :]) % n, (1,)
    if name == "elemab":
        d = int(arg)
        idx = np.arange(p ** d)
        digits = np.stack([(idx // p ** i) % p for i in range(d)], axis=1)
        sums = (digits[:, None, :] + digits[None, :, :]) % p
        return (sums * p ** np.arange(d)).sum(axis=2), tuple(p ** i for i in range(d))
    if name == "heisenberg":
        idx = np.arange(p ** 3)
        a, b, c = idx % p, (idx // p) % p, idx // (p * p)
        mul = ((a[:, None] + a) % p) + p * ((b[:, None] + b) % p) \
            + p * p * ((c[:, None] + c + a[:, None] * b[None, :]) % p)
        return mul, (1, p)
    raise ValueError(f"unknown group kind {kind!r}")


def _inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(w))


def _commutator(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return _inverse(u) + _inverse(v) + u + v


def relator_words(kind: str, p: int) -> tuple[tuple[int, ...], ...]:
    """The built-in relators, as words over x1..xd (negative = inverse)."""
    name, _, arg = kind.partition(":")
    if name == "cyclic":
        return ((1,) * p ** int(arg),)
    if name == "elemab":
        d = int(arg)
        return tuple((i,) * p for i in range(1, d + 1)) + tuple(
            _commutator((i,), (j,)) for i in range(1, d + 1) for j in range(i + 1, d + 1)
        )
    x, y = (1,), (2,)
    c = _commutator(x, y)
    return ((1,) * p, (2,) * p, _commutator(c, x), _commutator(c, y))


def expected_a(kind: str, p: int) -> dict[int, int]:
    """Dimension sequence of the unrelabelled built-in (relabelling is a
    group isomorphism, so the measured sequence must equal it)."""
    name, _, arg = kind.partition(":")
    if name == "cyclic":
        return {p ** i: 1 for i in range(int(arg))}
    if name == "elemab":
        return {1: int(arg)}
    return {1: 2, 2: 1}


def expected_levels(kind: str, p: int) -> tuple[int, ...]:
    """Filtration levels of the built-in relators: x^(p^k) sits at p^k,
    x^p at p, [x, y] at 2 and [[x, y], z] at 3."""
    name, _, arg = kind.partition(":")
    if name == "cyclic":
        return (p ** int(arg),)
    if name == "elemab":
        d = int(arg)
        return (p,) * d + (2,) * (d * (d - 1) // 2)
    return (p, p, 3, 3)


@dataclass(frozen=True)
class GroupInput:
    p: int
    kind: str
    mul: np.ndarray
    generators: tuple[int, ...]
    relators: tuple[tuple[int, ...], ...]
    perm: tuple[int, ...]

    @property
    def label(self) -> str:
        return f"p{self.p}-{self.kind.replace(':', '-')}"

    def as_list(self) -> list:
        return [self.p, self.kind, list(self.perm), list(self.generators)]


def grouplab_inputs(seed: int, smoke: bool = False) -> list[GroupInput]:
    rng = random.Random(f"grouplab:{seed}")
    out = []
    for p, kind in SMOKE_GROUPS if smoke else GROUPS:
        mul, gens = group_table(kind, p)
        n = mul.shape[0]
        rest = list(range(1, n))
        rng.shuffle(rest)
        perm = np.array([0] + rest)
        inv = np.argsort(perm)
        relabelled = perm[mul[inv][:, inv]]
        out.append(GroupInput(
            p=p,
            kind=kind,
            mul=relabelled,
            generators=tuple(int(perm[g]) for g in gens),
            relators=relator_words(kind, p),
            perm=tuple(int(x) for x in perm),
        ))
    return out


# ---------------------------------------------------------------------------

GENERATORS = {"decide": decide_inputs, "sweep": sweep_inputs, "grouplab": grouplab_inputs}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, smoke: bool = False):
    return GENERATORS[workload](seed, smoke)


def digest(inputs) -> str:
    """Short sha256 of the canonical JSON form of the inputs."""
    items = inputs.as_list() if hasattr(inputs, "as_list") else [x.as_list() for x in inputs]
    blob = json.dumps(items, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
