"""Span tracing of ``bilapsym`` from outside the package.

``Tracer.installed()`` replaces selected public functions of the package
with wrappers that record spans, and selected ``Polynomial`` methods with
wrappers that only count calls.  Every module attribute bound to a wrapped
function is replaced, so calls through ``from .weylop import compose`` are
seen too, and all of them are put back when the block ends: untraced runs
call the original functions.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# module -> public functions that get a span; the layers of the benchmark
SPANNED = {
    "weylop": (
        "compose", "symbol_division", "bilaplacian", "apply",
        "operator_from_action", "right_factor", "is_symmetry",
    ),
    "linsolve": ("nullspace",),
    "tensorcalc": ("tracefree_part", "decompose_gg", "counterexample_tensor"),
    "cktsolve": ("solve_ckt", "solve_gckt"),
    "ambient": (
        "induce", "preserves_cone_ideal", "section_substitution", "realize_ckt",
        "realize_gckt", "lie_to_ckv", "ambient_op_V", "ambient_op_gg", "ambient_op_W",
    ),
    "symalg": (
        "enumerate_symmetries", "verify_generalstory", "counterexample_operator_check",
        "summand_operator_checks", "canonical_second_order_family",
        "canonical_DV", "canonical_DW",
    ),
}

# Polynomial methods that are counted without spans: they run millions of
# times, and a span each would swamp the time being measured.
COUNTED = {"__mul__": "exactpoly.mul_calls", "partial": "exactpoly.partial_calls",
           "substitute": "exactpoly.substitute_calls"}

PACKAGE = "bilapsym"
JOB_SPAN = "bench.job"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    job: int


def self_times(spans: list[Span]) -> tuple[dict[str, float], Counter]:
    """Per-name self time and call count.

    Self time is a span's duration minus the durations of its direct
    children; spans are properly nested because tracing is single-threaded.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s, child in zip(spans, covered):
        totals[s.name] += s.end - s.start - child
        calls[s.name] += 1
    return dict(totals), calls


class Tracer:
    """In-memory span and counter recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.blocks: list[tuple[int, int, int, int]] = []  # cols, rows, nnz, nullity
        self.job = -1
        self._open: list[int] = []

    def _enter(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        return index

    def _exit(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._open.pop()
        parent = self._open[-1] if self._open else -1
        self.spans[index] = Span(name, start, end, parent, self.job)

    @contextmanager
    def span(self, name: str):
        """Record one span around the block."""
        index = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(index, name, start)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index, name, start)

        return wrapper

    def _nullspace(self, name: str, fn):
        spanned = self._spanned(name, fn)

        @functools.wraps(fn)
        def wrapper(columns, *args, **kwargs):
            basis = spanned(columns, *args, **kwargs)
            rows = set()
            for col in columns:
                rows.update(col)
            self.blocks.append(
                (len(columns), len(rows), sum(len(col) for col in columns), len(basis))
            )
            return basis

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, callers=()):
        """Wrap the traced functions for the duration of the block, in the
        package and in the ``callers`` modules that imported them by name."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        modules.extend(callers)
        patches: list[tuple[object, str, object]] = []

        def replace(original, wrapper, owners) -> None:
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        patches.append((owner, attr, value))
                        setattr(owner, attr, wrapper)

        try:
            for module, names in SPANNED.items():
                mod = sys.modules[f"{PACKAGE}.{module}"]
                for fname in names:
                    original = getattr(mod, fname)
                    make = self._nullspace if fname == "nullspace" else self._spanned
                    replace(original, make(f"{module}.{fname}", original), modules)
            poly = sys.modules[f"{PACKAGE}.exactpoly"].Polynomial
            for method, name in COUNTED.items():
                original = vars(poly)[method]
                replace(original, self._counted(name, original), [poly])
            yield self
        finally:
            for owner, attr, value in reversed(patches):
                setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time of every spanned function, self time of every
        module, the Polynomial counters and the elimination sizes."""
        if self._open:
            raise RuntimeError("spans still open")
        totals, calls = self_times(self.spans)
        out: dict[str, float] = {}
        for module, names in SPANNED.items():
            for fname in names:
                name = f"{module}.{fname}"
                out[f"{name}_calls"] = calls[name]
                out[f"{name}_self_s"] = totals.get(name, 0.0)
            out[f"{module}.self_s"] = sum(out[f"{module}.{f}_self_s"] for f in names)
        out["bench.harness_self_s"] = totals.get(JOB_SPAN, 0.0)
        for name in COUNTED.values():
            out[name] = self.counts[name]
        cols, rows, nnz, nullity = (sum(b[i] for b in self.blocks) for i in range(4))
        useful = sum(1 for b in self.blocks if b[3] > 0)
        out.update({
            "linsolve.cols_total": cols,
            "linsolve.rows_total": rows,
            "linsolve.nnz_total": nnz,
            "linsolve.nullity_total": nullity,
            "linsolve.useful_blocks": useful,
            "linsolve.useful_block_ratio": useful / len(self.blocks) if self.blocks else 0.0,
        })
        return out
