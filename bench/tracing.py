"""In-memory spans recorded around the benchmark's calls into ybx.

A span is (name, start, end, parent, problem).  Spans stay in memory until the
run ends; `self_times` and `check_nesting` work on the finished list.  The
untraced run uses `NULL_TRACER`, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass

# Public functions wrapped during a traced pass, so that spans also nest inside
# ybx's own calls (solve -> build_constraint_system -> anticommutant_basis).
# scalars and polynomials are left out: their calls number in the millions and
# are measured by the layer probe instead.
STAGE_FUNCTIONS = (
    ("jordan", "jordan_form"),
    ("jordan", "validate_similarity"),
    ("anticommutant", "anticommutant_basis"),
    ("solver", "solve"),
    ("solver", "build_constraint_system"),
    ("solver", "solve_branches"),
    ("solver", "to_original"),
    ("solver", "sample"),
    ("oracle", "verify_family_membership"),
    ("formats", "problem_from_json"),
    ("formats", "family_to_json"),
    ("formats", "family_from_json"),
    ("formats", "dumps_canonical"),
    ("matrices", "rref"),
    ("matrices", "null_space_basis"),
    ("matrices", "mat_inverse"),
    ("matrices", "mat_mul"),
    ("cli", "main"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    problem: str


class _NullTracer:
    def span(self, name: str, problem: str = ""):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, problem: str = ""):
        parent = self._stack[-1] if self._stack else -1
        if not problem and parent >= 0:
            problem = self.spans[parent].problem
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, problem)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def instrument(self):
        """Wrap STAGE_FUNCTIONS in every loaded ybx module while active.

        Each binding that is the original function object (the defining
        module, re-exports and `from x import f` copies) is replaced, so calls
        made inside ybx are traced too.  Names missing from this version of
        the package are skipped.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ybx" or name.startswith("ybx."))]
        restore: list[tuple[object, str, object]] = []
        for module_name, func_name in STAGE_FUNCTIONS:
            home = sys.modules.get(f"ybx.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, value in reversed(restore):
                setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: children outside parents, negative self time."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.parent >= i or s.start < p.start or s.end > p.end:
                errors.append(f"span {i} {s.name} is not inside its parent {p.name}")
    for i, value in enumerate(self_times(spans)):
        # perf_counter readings are exact, so only rounding of sums can go below 0
        if value < -1e-9:
            errors.append(f"span {i} {spans[i].name} has negative self time {value}")
    return errors


def self_time_table(spans: list[Span], roots: set[int]) -> dict[str, float]:
    """Total self time per span name, over the trees rooted at `roots`."""
    own = self_times(spans)
    inside = [False] * len(spans)
    table: dict[str, float] = {}
    for i, s in enumerate(spans):
        inside[i] = i in roots or (s.parent >= 0 and inside[s.parent])
        if inside[i]:
            table[s.name] = table.get(s.name, 0.0) + own[i]
    return table


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "problem": s.problem}
        for s in spans
    ]
