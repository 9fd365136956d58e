"""In-memory spans around calls into the library's layers.

Tracing wraps public functions as they are bound in their calling
modules (for example `gstower.search.positive_on_open_unit_interval`), so
nothing under `src/` changes.  Each span records its name, start, end,
parent and operation id; spans stay in memory and are written out once,
after the traced pass.  Wrappers are installed only for the traced pass
and removed afterwards, so the measured passes run the library as is.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent=parent, op=self._op, attrs=attrs))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int, label: str):
        self._op = op_id
        try:
            with self.span("op", label=label):
                yield
        finally:
            self._op = None

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        """A wrapper that records a span per call.  `before(*args, **kw)` and
        `after(result)` return extra attributes; both run outside the
        span's own interval."""

        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            with self.span(name, **attrs) as sp:
                result = fn(*args, **kwargs)
            if after:
                sp.attrs.update(after(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, bindings) -> None:
        """Replace each (module, attribute) binding by a traced wrapper.
        A binding is (module name, attribute path, span name, before,
        after); a dotted attribute path wraps a method on a class."""
        for module_name, attr, name, before, after in bindings:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, before, after))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "attrs": s.attrs,
                }, default=str) + "\n")


class NullTracer:
    """Stands in for a Tracer on the measured passes."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None

    @contextlib.contextmanager
    def operation(self, op_id: int, label: str):
        yield


# ---------------------------------------------------------------------------
# What to trace
# ---------------------------------------------------------------------------

def _coeff_bits(f) -> int:
    """Bit size of the largest coefficient once denominators are cleared."""
    den = lcm(*(Fraction(c).denominator for c in f.coeffs)) if f.coeffs else 1
    return max((abs(int(Fraction(c) * den)).bit_length() for c in f.coeffs), default=0)


def _series_before(f):
    return {"degree": f.degree, "coeff_bits": _coeff_bits(f)}


def _series_after(report):
    return {"verdict": report.verdict.value}


def _jennings_after(data):
    return {"degree": len(data.b) - 1}


def _check_before(profile, a, mode=None):
    return {"mode": getattr(mode, "value", "RELAXED")}


def _bruteforce_after(result):
    return {"examined": result.examined}


def _minorder_after(result):
    return {"stages": len(result.violation_trace) + 1}


def _filtration_after(filt):
    return {"levels": len(filt), "rows": sum(int(basis.shape[0]) for basis, _ in filt)}


def _first_call_per_table():
    # ideal_filtration caches its result on the table, so only the first
    # call per table does work; later calls are marked cached
    seen = weakref.WeakSet()

    def before(G):
        cached = G in seen
        seen.add(G)
        return {"cached": cached}

    return before


SERIES = "series.positive_on_open_unit_interval"
JENNINGS = "jennings.jennings_transform"
CHECK = "gs_check.check_inequality"
STRICT = "gs_check.strict_corollary_check"
UPPER_CAPS = "bounds.upper_caps"
IS_VALID = "validity.is_valid"
BRUTEFORCE = "search.brute_force_infeasibility"
MINORDER = "search.min_order_search"
CLI_MAIN = "cli.main"
GL_BUILD = "group_lab.FiniteGroupTable"
GL_FILTRATION = "group_lab.ideal_filtration"
GL_DIMSUB = "group_lab.dimension_subgroups"
GL_LCS = "group_lab.lower_central_series"
GL_LAZARD = "group_lab.lazard_check"
GL_PRESENTATION = "group_lab.make_presentation"
GL_RECURSION = "group_lab.verify_recursion"
GL_E_N = "group_lab.e_n_direct"


def bindings() -> tuple:
    """(module, attribute, span name, before, after) for every traced
    binding; fresh per traced pass because some hooks keep state."""
    return (
        ("gstower.gs_check", "positive_on_open_unit_interval", SERIES, _series_before, _series_after),
        ("gstower.search", "positive_on_open_unit_interval", SERIES, _series_before, _series_after),
        ("gstower.jennings", "jennings_transform", JENNINGS, None, _jennings_after),
        ("gstower.gs_check", "jennings_transform", JENNINGS, None, _jennings_after),
        ("gstower.validity", "jennings_transform", JENNINGS, None, _jennings_after),
        ("gstower.cli", "jennings_transform", JENNINGS, None, _jennings_after),
        ("gstower.gs_check", "check_inequality", CHECK, _check_before, None),
        ("gstower.search", "check_inequality", CHECK, _check_before, None),
        ("gstower.cli", "check_inequality", CHECK, _check_before, None),
        ("gstower.gs_check", "strict_corollary_check", STRICT, None, None),
        ("gstower.cli", "strict_corollary_check", STRICT, None, None),
        ("gstower.search", "upper_caps", UPPER_CAPS, None, None),
        ("gstower.validity", "upper_caps", UPPER_CAPS, None, None),
        ("gstower.cli", "upper_caps", UPPER_CAPS, None, None),
        ("gstower.validity", "is_valid", IS_VALID, None, None),
        ("gstower.cli", "is_valid", IS_VALID, None, None),
        ("gstower.cli", "brute_force_infeasibility", BRUTEFORCE, None, _bruteforce_after),
        ("gstower.cli", "min_order_search", MINORDER, None, _minorder_after),
        ("gstower.cli", "main", CLI_MAIN, None, None),
        ("gstower.group_lab", "FiniteGroupTable.ideal_filtration", GL_FILTRATION,
         _first_call_per_table(), _filtration_after),
        ("gstower.group_lab", "dimension_subgroups", GL_DIMSUB, None, None),
        ("gstower.group_lab", "lower_central_series", GL_LCS, None, None),
        ("gstower.group_lab", "lazard_check", GL_LAZARD, None, None),
        ("gstower.group_lab", "make_presentation", GL_PRESENTATION, None, None),
        ("gstower.group_lab", "verify_recursion", GL_RECURSION, None, None),
        ("gstower.group_lab", "e_n_direct", GL_E_N, None, None),
    )

#: order-125 groups whose filtration and recursion are reported one by one
LARGE_GROUPS = ("p5-cyclic-3", "p5-elemab-3", "p5-heisenberg")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[Span], op_labels: dict[int, str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def named(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def busy(idx):
        return sum(spans[i].duration for i in idx)

    def self_time(idx, exclude=None):
        """Duration minus the children's; with `exclude`, only children
        with those names are subtracted."""
        total = 0.0
        for i in idx:
            kids = children.get(i, [])
            if exclude is not None:
                kids = [k for k in kids if spans[k].name in exclude]
            total += spans[i].duration - sum(spans[k].duration for k in kids)
        return total

    def parent_name(i):
        p = spans[i].parent
        return spans[p].name if p is not None else None

    def group_of(i):
        return op_labels.get(spans[i].op, "").split("/")[0]

    series = named(SERIES)
    holds = [i for i in series if spans[i].attrs.get("verdict") == "HOLDS"]
    violated = [i for i in series if spans[i].attrs.get("verdict") == "VIOLATED"]
    jennings = named(JENNINGS)
    checks = named(CHECK, STRICT)
    bruteforce = named(BRUTEFORCE)
    examined = sum(spans[i].attrs.get("examined", 0) for i in bruteforce)
    full = [i for i in series if parent_name(i) == BRUTEFORCE]
    filtration = named(GL_FILTRATION)
    first_filtration = [i for i in filtration if not spans[i].attrs.get("cached")]
    recursion = named(GL_RECURSION)

    m: dict[str, tuple[float, str]] = {
        "series.calls": (len(series), "count"),
        "series.holds_calls": (len(holds), "count"),
        "series.busy_s": (busy(series), "s"),
        "series.holds_busy_s": (busy(holds), "s"),
        "series.violated_busy_s": (busy(violated), "s"),
        "series.strict_busy_s": (busy([i for i in series if parent_name(i) == STRICT]), "s"),
        "series.max_degree": (max((spans[i].attrs["degree"] for i in series), default=0), "count"),
        "series.max_coeff_bits": (max((spans[i].attrs["coeff_bits"] for i in series), default=0), "bits"),
        "jennings.calls": (len(jennings), "count"),
        "jennings.busy_s": (busy(jennings), "s"),
        "jennings.max_degree": (max((spans[i].attrs["degree"] for i in jennings), default=0), "count"),
        "gs_check.self_s": (self_time(checks, exclude={SERIES, JENNINGS}), "s"),
        "gs_check.relaxed_calls": (
            sum(1 for i in named(CHECK) if spans[i].attrs.get("mode") == "RELAXED"), "count"),
        "bounds.busy_s": (busy(named(UPPER_CAPS)), "s"),
        "validity.calls": (len(named(IS_VALID)), "count"),
        "validity.self_s": (self_time(named(IS_VALID)), "s"),
        "search.examined": (examined, "count"),
        "search.full_decisions": (len(full), "count"),
        "search.fast_path_frac": (1 - len(full) / examined if examined else 0.0, "ratio"),
        "search.bruteforce_s": (busy(bruteforce), "s"),
        "search.minorder_s": (busy(named(MINORDER)), "s"),
        "search.greedy_stages": (sum(spans[i].attrs.get("stages", 0) for i in named(MINORDER)), "count"),
        "group_lab.build_s": (busy(named(GL_BUILD)), "s"),
        "group_lab.filtration_s": (busy(filtration), "s"),
        "group_lab.filtration_levels": (sum(spans[i].attrs["levels"] for i in first_filtration), "count"),
        "group_lab.filtration_rows": (sum(spans[i].attrs["rows"] for i in first_filtration), "count"),
        "group_lab.dimsub_s": (self_time(named(GL_DIMSUB)), "s"),
        "group_lab.dimsub_calls": (len(named(GL_DIMSUB)), "count"),
        "group_lab.lcs_s": (busy(named(GL_LCS)), "s"),
        "group_lab.lazard_self_s": (self_time(named(GL_LAZARD)), "s"),
        "group_lab.presentation_s": (busy(named(GL_PRESENTATION)), "s"),
        "group_lab.recursion_s": (busy(recursion), "s"),
        "group_lab.e_n_direct_calls": (len(named(GL_E_N)), "count"),
        "group_lab.e_n_direct_s": (busy(named(GL_E_N)), "s"),
    }
    for group in LARGE_GROUPS:
        m[f"group_lab.{group}.filtration_s"] = (
            busy([i for i in filtration if group_of(i) == group]), "s")
        m[f"group_lab.{group}.recursion_s"] = (
            busy([i for i in recursion if group_of(i) == group]), "s")
    m["cli.self_s"] = (self_time(named(CLI_MAIN)), "s")
    return m
