"""Golden digests of solved bases.

Each digest is the SHA-256 of the canonical JSON of a basis: every dataclass
field, with elements through ``to_json_obj`` and keys sorted.  It pins the
elements, their order and the ``stabilized`` flag, so a refactor of the
solvers must reproduce each basis element for element.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from bilapsym.cktsolve import solve_ckt, solve_gckt
from bilapsym.symalg import enumerate_symmetries


def _canonical(value):
    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def basis_digest(basis) -> str:
    obj = {
        f.name: _canonical(getattr(basis, f.name)) for f in dataclasses.fields(basis)
    }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = [
    (solve_ckt, (3, 1, 2), "5c2b01bcc9e4c7788b8b04f248f3d81aa1a8fb2a12f976ef65d862f4e4c45931"),
    (solve_ckt, (3, 2, 4), "4b1a619752dcbdfc5598a73b7b25c16e093bceacd48f35b4f4342c9c16c9ccc2"),
    (solve_gckt, (3, 0, 4), "7afcd0882b5eb0f66eadab551246aed94e347c8ff979b4c2ae79beaebf0eec45"),
    (enumerate_symmetries, (3, 1, 2), "b82939edda5282d56e02c16b1ffaa38d855535edecad3c52bd2e3905d6bc9d8a"),
]


@pytest.mark.parametrize(
    "solver, args, expected",
    GOLDEN,
    ids=[f"{fn.__name__}{args}" for fn, args, _ in GOLDEN],
)
def test_basis_digest(solver, args, expected):
    basis = solver(*args)
    assert basis.stabilized
    assert basis_digest(basis) == expected
