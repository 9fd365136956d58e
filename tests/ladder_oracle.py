"""The positivity decision before its one-sign-change rung, kept as an
oracle for the verdicts, witnesses and certificates of
`gstower.series.positive_on_open_unit_interval`.

It tries the same heads of h, then scans the small-denominator points,
walks h to depth 2, scans on to denominator 24, resumes the walk to its
depth bound and sends a stalled walk or a root of even multiplicity
through Euclid.  It never settles h by its coefficients' sign pattern.
"""
from fractions import Fraction

from gstower.series import (
    _EARLY_DEN,
    _EARLY_DEPTH,
    _MAX_DEPTH,
    DescartesCertificate,
    NoRationalWitnessError,
    PositivityReport,
    Verdict,
    ZeroPolynomialError,
    _descartes_walk,
    _ieval_scaled,
    _rational_roots_in,
    _refine_witness,
    _small_denominator_scan,
    _split,
    _squarefree_part,
    _strip_unit_interval_roots,
)


def _settled_head(h):
    """(m, leaves) for the first head of h that a walk to depth 2 proves
    positive, or None: the heads only."""
    start = max((j for j, c in enumerate(h) if c < 0), default=-1) + 1
    for m in (start, 2 * start, 4 * start):
        if m >= len(h) - 1:
            break
        head = h[:m + 1]
        if sum(head) > 0 and _ieval_scaled(head, Fraction(1, 2)) > 0:
            walk = _descartes_walk(head, _EARLY_DEPTH)
            if not walk.cells and not walk.stalled:
                return m, walk.leaves
    return None


def ladder_positivity(f):
    """The report of the decision without the one-sign-change rung."""
    if not f.nums:
        raise ZeroPolynomialError("positivity of the zero polynomial is undefined")
    h, k0, k1 = _strip_unit_interval_roots(f)
    settled = _settled_head(h)
    if settled is not None:
        head_degree, leaves = settled
        return PositivityReport(
            Verdict.HOLDS, certificate=DescartesCertificate(tuple(leaves), head_degree, k0, k1))

    w = _small_denominator_scan(h, 2, _EARLY_DEN)
    if w is not None:
        return PositivityReport(Verdict.VIOLATED, witness=w, witness_value=f(w))
    walk = _descartes_walk(h, _EARLY_DEPTH)
    if walk.cells or walk.stalled:
        w = _small_denominator_scan(h, _EARLY_DEN + 1)
        if w is not None:
            return PositivityReport(Verdict.VIOLATED, witness=w, witness_value=f(w))
        walk.resume(_MAX_DEPTH)
    leaves, cells = walk.leaves, walk.cells
    h_sf = None
    if walk.stalled:
        h_sf = _squarefree_part(h)
        cells = _descartes_walk(h_sf).cells
        if not cells:
            leaves = walk.resume().leaves
    if cells:
        for lo, hi in _split(Fraction(0), Fraction(1), cells):
            vlo, vhi = _ieval_scaled(h, lo), _ieval_scaled(h, hi)
            if 0 < lo < 1 and vlo <= 0:
                return PositivityReport(Verdict.VIOLATED, witness=lo, witness_value=f(lo))
            if 0 < hi < 1 and vhi <= 0:
                return PositivityReport(Verdict.VIOLATED, witness=hi, witness_value=f(hi))
            if vlo * vhi < 0:
                w = _refine_witness(h, lo, hi, lo_positive=vlo > 0)
                return PositivityReport(Verdict.VIOLATED, witness=w, witness_value=f(w))
            if h_sf is None:
                h_sf = _squarefree_part(h)
            root = _rational_roots_in(h_sf, lo, hi)
            if root is not None:
                return PositivityReport(Verdict.VIOLATED, witness=root, witness_value=f(root))
        raise NoRationalWitnessError(
            "polynomial vanishes in (0,1) only at irrational points of even multiplicity"
        )
    return PositivityReport(
        Verdict.HOLDS, certificate=DescartesCertificate(tuple(leaves), len(h) - 1, k0, k1))
