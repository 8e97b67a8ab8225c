"""Golden digests of solved bases and of pair-skew tensor constructions.

Each digest is the SHA-256 of the canonical JSON of a value: every dataclass
field, tensors and operators through ``to_json_obj``, rationals as strings
and keys sorted.  For a basis it pins the elements, their order and the
``stabilized`` flag, so a refactor of the solvers must reproduce each basis
element for element.  The six-summand decomposition and the bracket of every
ordered pair of basis elements of so(4, 1), and the quartic counterexample
tensor, are pinned the same way, so a refactor of how pair-skew tensors are
built must reproduce every component.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from bilapsym.cktsolve import solve_ckt, solve_gckt
from bilapsym.symalg import (
    _random_tracefree_four_tensor,
    bracket,
    enumerate_symmetries,
    pair_tensor,
    so_basis,
)
from bilapsym.tensorcalc import counterexample_tensor, decompose_gg


def _canonical(value):
    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    if dataclasses.is_dataclass(value):
        return {f.name: _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def digest(value) -> str:
    text = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# (solver, arguments, stabilized, digest); solve_gckt(3, 2, 4) finds new
# solutions above its bound, so it pins an unstabilized basis.
GOLDEN = [
    (solve_ckt, (3, 1, 2), True, "5c2b01bcc9e4c7788b8b04f248f3d81aa1a8fb2a12f976ef65d862f4e4c45931"),
    (solve_ckt, (3, 2, 4), True, "4b1a619752dcbdfc5598a73b7b25c16e093bceacd48f35b4f4342c9c16c9ccc2"),
    (solve_ckt, (3, 3, 6), True, "8640e1eb274a09ed3b870ae240d84e623fb44a08316195e8f9da68a32a2ef4f5"),
    (solve_ckt, (5, 2, 4), True, "4313d7e79825a3fc7a8cea0b9edac03667838bf314fac59ad1a1d77c9fa33bdf"),
    (solve_gckt, (3, 0, 4), True, "7afcd0882b5eb0f66eadab551246aed94e347c8ff979b4c2ae79beaebf0eec45"),
    (solve_gckt, (3, 2, 4), False, "2d49f2598ce51b3826e985fadfeecac29f3e495479f4642b9f6d3d9de2f22a59"),
    (enumerate_symmetries, (3, 1, 2), True, "b82939edda5282d56e02c16b1ffaa38d855535edecad3c52bd2e3905d6bc9d8a"),
]


@pytest.mark.parametrize(
    "solver, args, stabilized, expected",
    GOLDEN,
    ids=[f"{fn.__name__}{args}" for fn, args, _, _ in GOLDEN],
)
def test_basis_digest(solver, args, stabilized, expected):
    basis = solver(*args)
    assert basis.stabilized is stabilized
    assert digest(basis) == expected


def test_decomposition_and_bracket_digests():
    basis = so_basis(3)
    pairs = [(u, v) for u in basis for v in basis]
    assert len(pairs) == 100
    assert (
        digest([decompose_gg(pair_tensor(u, v)) for u, v in pairs])
        == "e4818bcc5d37709a8a9f468539c5f51cdd7b531f4b656073621a551a7e4a5900"
    )
    assert (
        digest([bracket(u, v) for u, v in pairs])
        == "66ab877af8f1b2054a63c494122fce1b449451cffbe83e0617b75eda85cd24b7"
    )


def test_counterexample_tensor_digest():
    assert (
        digest(counterexample_tensor(_random_tracefree_four_tensor(3, 0)))
        == "7414eb248d02369f10ab852b5283c0376fbfed2c89b3c9f3c4c4a87c661e0511"
    )
