"""Self-tests of the benchmark harness.

Run from the root of the repository:

  python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bilapsym  # noqa: E402
import workloads  # noqa: E402
from bilapsym.exactpoly import Polynomial  # noqa: E402
from bilapsym.tensorcalc import SymTensorField  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    # a [0,10] holds b [1,4], which holds c [2,3], and d [5,9]; a second
    # top-level span named b [11,12] adds to the first
    spans = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("d", 5.0, 9.0, 0, 0),
        Span("b", 11.0, 12.0, -1, 1),
    ]
    totals, calls = self_times(spans)
    assert totals == {"a": 3.0, "b": 2.0 + 1.0, "c": 1.0, "d": 4.0}
    assert calls == {"a": 1, "b": 2, "c": 1, "d": 1}


def test_span_records_parent_and_job():
    t = Tracer()
    t.job = 7
    with t.span("outer"):
        with t.span("inner"):
            pass
    with t.span("next"):
        pass
    assert [(s.name, s.parent, s.job) for s in t.spans] == [
        ("outer", -1, 7), ("inner", 0, 7), ("next", -1, 7)
    ]
    outer, inner, _ = t.spans
    assert outer.start <= inner.start <= inner.end <= outer.end


def _bound_functions():
    """Every function-valued attribute the tracer may replace."""
    owners = [m for k, m in sys.modules.items() if k.startswith("bilapsym")]
    owners += [workloads, Polynomial]
    return {
        (id(owner), attr): value
        for owner in owners
        for attr, value in vars(owner).items()
        if callable(value)
    }


def test_traced_run_restores_every_original():
    before = _bound_functions()
    original_compose = bilapsym.weylop.compose
    t = Tracer()
    with pytest.raises(RuntimeError):
        with t.installed(callers=[workloads]):
            assert bilapsym.symalg.compose is not original_compose
            job = workloads.build_jobs("construct", 0)[0]
            ok, _ = workloads.run_job(job, workloads.load_digests())
            assert ok
            raise RuntimeError("leave the block by an exception")
    layers = t.layer_metrics()
    assert layers["cktsolve.solve_ckt_calls"] == 2
    assert layers["linsolve.nullspace_calls"] > 0
    assert layers["exactpoly.mul_calls"] > 0

    assert _bound_functions() == before
    assert bilapsym.symalg.compose is bilapsym.weylop.compose is original_compose
    assert not hasattr(bilapsym.weylop.compose, "__wrapped__")
    assert workloads.solve_ckt is bilapsym.cktsolve.solve_ckt
    assert Polynomial.__rmul__ is Polynomial.__mul__
    assert not hasattr(Polynomial.__mul__, "__wrapped__")


def _flip_first_coefficient(field: SymTensorField) -> SymTensorField:
    data = field.to_json_obj()
    for terms in data["components"].values():
        if terms:
            coeff = terms[0]["coeff"]
            terms[0]["coeff"] = coeff[1:] if coeff.startswith("-") else "-" + coeff
            return SymTensorField.from_json_obj(data)
    raise AssertionError("no coefficient to flip")


def test_corrupted_result_fails_digest():
    digests = workloads.load_digests()
    job = workloads.build_jobs("construct", 0)[0]
    assert job.name == "construct/routes/n3" and job.digested
    ok, (ckv, ckt, gckt) = workloads.run_job(job, digests)
    assert ok

    elements = (_flip_first_coefficient(ckv.elements[0]),) + ckv.elements[1:]
    corrupted = (dataclasses.replace(ckv, elements=elements), ckt, gckt)
    assert job.check(corrupted)  # the dimension checks cannot see it
    bad = dataclasses.replace(job, run=lambda: corrupted)
    ok, _ = workloads.run_job(bad, digests)
    assert not ok

