"""Whole solution bases survive the JSON round trip, through the library and
through ``bilapsym basis --format json``."""

from __future__ import annotations

import json
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilapsym.cli as cli
from bilapsym.cktsolve import solve_ckt, solve_gckt
from bilapsym.symalg import enumerate_symmetries
from bilapsym.tensorcalc import SymTensorField
from bilapsym.weylop import DiffOp

N = 3

# (kind, order or valency, degree bound) at n = 3; the bounds are the CLI
# defaults, and enumeration order 3 uses its proved bound 7
CASES = [
    ("ckt", 1, 2), ("ckt", 2, 4), ("ckt", 3, 6),
    ("gckt", 0, 4), ("gckt", 1, 4), ("gckt", 2, 4),
    ("symmetries", 1, 4), ("symmetries", 2, 4), ("symmetries", 3, 7),
]
SOLVERS = {"ckt": solve_ckt, "gckt": solve_gckt, "symmetries": enumerate_symmetries}
ELEMENT_TYPES = {"ckt": SymTensorField, "gckt": SymTensorField, "symmetries": DiffOp}


@cache
def _basis(kind: str, s: int, bound: int) -> tuple:
    return SOLVERS[kind](N, s, bound).elements


def _reloaded(kind: str, element):
    """The element after serialization to JSON text and back."""
    return ELEMENT_TYPES[kind].from_json_obj(json.loads(json.dumps(element.to_json_obj())))


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_every_basis_element_survives_json(case):
    elements = _basis(*case)
    assert elements
    for element in elements:
        assert _reloaded(case[0], element) == element


@given(
    st.sampled_from(CASES),
    st.lists(st.fractions(max_denominator=10**9).filter(bool), min_size=1, max_size=4),
    st.integers(0, 2**30),
)
@settings(max_examples=30, deadline=None)
def test_combinations_of_basis_elements_survive_json(case, coefficients, start):
    # consecutive elements with arbitrary rational weights
    elements = _basis(*case)
    picked = [elements[(start + i) % len(elements)] for i in range(len(coefficients))]
    combo = sum(
        (el * c for el, c in zip(picked[1:], coefficients[1:])), picked[0] * coefficients[0]
    )
    assert _reloaded(case[0], combo) == combo


@pytest.mark.parametrize(
    "kind, flags, case",
    [
        ("ckt", ["--s", "2"], ("ckt", 2, 4)),
        ("gckt", ["--t", "1"], ("gckt", 1, 4)),
        ("symmetries", ["--s", "2"], ("symmetries", 2, 4)),
    ],
)
def test_basis_command_output_reloads_to_equal_elements(tmp_path, kind, flags, case):
    out = tmp_path / "basis.json"
    argv = ["basis", "--kind", kind, "--n", str(N), *flags, "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    reloaded = [ELEMENT_TYPES[kind].from_json_obj(obj) for obj in payload["elements"]]
    assert reloaded == list(_basis(*case))
    assert payload["dimension"] == len(reloaded) and payload["degree_bound"] == case[2]
