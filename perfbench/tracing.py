"""Spans around rotke's layer functions, recorded from outside the program.

`Tracer.install` rebinds each traced function at its module attribute, and in
every other loaded ``rotke`` module that imported the same object by name, so
calls through any of those names go through a wrapper that records a span
(id, name, start, end, parent id, run id) and updates per-layer counters.
`Tracer.uninstall` puts the originals back.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int


def _max_coef_bits(system) -> int:
    bits = 0
    for eq in system.equations:
        for c in eq.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _count_extract(counters, system, _dt):
    counters["equations"] += len(system.equations)
    counters["max_coef_bits"] = max(counters["max_coef_bits"], _max_coef_bits(system))


def _count_solve(counters, outcome, _dt):
    counters[outcome.status.lower()] += 1


def _count_det(counters, series, _dt):
    counters["terms"] += len(series.terms)


def _count_certify(counters, cert, dt):
    verdict = cert.status.lower()
    counters[verdict] += 1
    counters[verdict + "_s"] += dt


PACKAGE = "rotke"

# (module, attribute path, counter hook).  These are the layer boundaries;
# helpers they call (cycle_determinant, series_diff, ...) count as their
# caller's self time.
TRACED: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("solver", "sweep", None),
    ("solver", "enumerate_supports", None),
    ("solver", "extract_constraints", _count_extract),
    ("solver", "solve_system", _count_solve),
    ("solver", "classify", None),
    ("geometry", "build_potential", None),
    ("geometry", "det_numerator", _count_det),
    ("geometry", "ma_log_residual", None),
    ("geometry", "certify_exact", _count_certify),
    ("series", "series_log1p", None),
    ("series", "Series.pow_trunc", None),
    ("reports", "sweep_payload", None),
    ("reports", "render_json", None),
)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._stack: List[int] = []
        self._next_id = 0
        self._runs = 0
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            if parent is None:
                self._runs += 1
            run = self._runs
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, run))
            if hook is not None:
                hook(counters, result, end - start)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        loaded = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr, hook in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner = module
            *path, fn_name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapper = self._wrap(f"{module_name}.{attr}", original, hook)
            self._set(owner, fn_name, wrapper)
            if path:
                continue  # a method: rebinding the class is enough
            for other in loaded:
                if other is not module and getattr(other, fn_name, None) is original:
                    self._set(other, fn_name, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Calls nest on one thread, so children of one span never overlap and lie
    inside it.
    """
    spans = list(spans)
    child_total: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child_total[s.sid] for s in spans}


def layer_summary(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """calls, inclusive seconds and self seconds per span name.

    No traced function calls itself, so summed durations do not overlap.
    """
    spans = list(spans)
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["inclusive_s"] += s.end - s.start
        row["self_s"] += selfs[s.sid]
    return dict(out)


def _within(span: Span, by_id: Dict[int, Span], name: str) -> bool:
    """True if some ancestor of `span` is named `name`."""
    parent = span.parent
    while parent is not None:
        if by_id[parent].name == name:
            return True
        parent = by_id[parent].parent
    return False


RECHECK_NAMES = ("geometry.ma_log_residual", "geometry.certify_exact", "solver.classify")


def recheck_seconds(spans: Iterable[Span]) -> float:
    """Time a sweep spends re-checking its SOLVED entries.

    Counts closed-loop residuals (ma_log_residual not called by
    extract_constraints), exact certificates and classification, inside a
    sweep span.
    """
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in RECHECK_NAMES or s.parent is None:
            continue
        if s.name == "geometry.ma_log_residual" and by_id[s.parent].name == "solver.extract_constraints":
            continue
        if _within(s, by_id, "solver.sweep"):
            total += s.end - s.start
    return total
