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

from test_cktsolve import FLAG_CASES as CKT_FLAG_CASES
from test_symalg import FLAG_CASES as SYMALG_FLAG_CASES

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
    # every closure-flag case of the two solver test modules, and larger
    # systems whose blocks have orbits of several classes under the
    # permutations of the variables, pinned before the solver mapped one
    # block per orbit to the others and eliminated in a sparse column order
    (enumerate_symmetries, (3, 1, 0), False,
     "8ad8b0293a24d138c6ebefaadcb4ccfd32a1b1e224a6bf0439809181ce5ea15e"),
    (enumerate_symmetries, (3, 2, 0), False,
     "9edb0016edb5d39355eaa76e1ffe02d535e9b4befb3679fd5e8b2006a96a1780"),
    (enumerate_symmetries, (3, 2, 1), False,
     "c080723d5c61295035332c685922900a28deac13ab0c83e0c2b62fb63e46e135"),
    (enumerate_symmetries, (4, 2, 1), False,
     "222bea9b9db2b97f62a51107e9b5dc5826bc0768f496c09fd223f4039277c58c"),
    (enumerate_symmetries, (3, 3, 2), False,
     "6b5bb9ea000563d71d83309bc435f243dcfb00f496e2f1ae273b658bda877bf2"),
    (enumerate_symmetries, (3, 0, 1), True,
     "345d7751b25472de6f29a087c9c052d3e34a27be454da3070c92d6c23ffbd9aa"),
    (enumerate_symmetries, (3, 1, 1), False,
     "8825d0e21389b6b2b56323494b601aa22b17df2c5e35a1b6b4402d03d5ccacc9"),
    (enumerate_symmetries, (3, 1, 3), True,
     "085863657c7d7942678e24a70ca7008ae9c09aa1bd3773945ea89f4a8e3e74db"),
    (enumerate_symmetries, (3, 1, 4), True,
     "94e959022fe523cadff22afb3ff7d1f139359aa97716320299da0f1a20212c81"),
    (enumerate_symmetries, (4, 1, 4), True,
     "689a3e9bf6c406bfe8c37b2f84b47efb44d9a8e21bccd5f2a79e64d9a0225b76"),
    (enumerate_symmetries, (3, 2, 2), False,
     "65967994b6fd12065eb8e8b1bbb5d72961d9be44f680692bc9c511faee82053c"),
    (enumerate_symmetries, (3, 2, 3), False,
     "7dd9e5462da2e2d19a71c0b5dc34887cdd63b2bdb552ed1fadf64beb653abd85"),
    (enumerate_symmetries, (3, 2, 4), True,
     "43a69cf6fbef4ed60cfe23ad3e202d4f47534229c00d411be5517e17e77e92ac"),
    (enumerate_symmetries, (3, 2, 5), True,
     "98a6eba69e1a2d8beb6f11f238592cf2eceb6e4584e4236906cb0c0a6dec2ea3"),
    (enumerate_symmetries, (3, 2, 6), True,
     "433eb09eb85382b81bf34801f3bfc1c7f43db95c42221962024d24a020b0454f"),
    (enumerate_symmetries, (4, 2, 4), True,
     "38fcdecd7a8a8d83fe2852222013887196207c146d61f55f165f5705302643d9"),
    (solve_ckt, (3, 1, 1), False,
     "e4f3059b280932713871121d8ba8c7958aca6e6d5dcb38a7548ab1fa383ebd2d"),
    (solve_ckt, (3, 2, 3), False,
     "51655552ea696e87264d2c4578ef28be8690881141be3b8c16903621b26dc655"),
    (solve_ckt, (4, 1, 2), True,
     "b72f924cd65189ba0a48745c84181758d2a04d01f96cc9b4d6a4e32ad69aa579"),
    (solve_gckt, (3, 0, 3), False,
     "8912b00df5745ba491c2262b856d5d045b04f9f9473e2f48c135aeb683593110"),
    (solve_gckt, (3, 1, 2), False,
     "7d980e43c8a4ff66d2b7ee8b22ac96572d931fcb385ccdcb62a251de427fac5a"),
    (enumerate_symmetries, (3, 3, 7), True,
     "13e60c0725af6db3763e495d13b702fb247964e5ab626b875cb5e152b7fa06f8"),
    (enumerate_symmetries, (4, 3, 6), True,
     "6d36810d045e2a36a74987c1e8bbd4a70ff41e477c7425cf086eef77d1d221cb"),
    (enumerate_symmetries, (5, 2, 4), True,
     "3592225a1ef52a7ccc303270cd949e776785ac040136b239dbc8dedb943e0949"),
    (solve_ckt, (4, 3, 6), True,
     "b5ebeab24879b60e78fb8554abfb7df7fa96bb98cd2e5c38a09fde41bdfba5d7"),
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


def test_every_flag_case_is_pinned():
    pinned = {(fn.__name__, args) for fn, args, _, _ in GOLDEN}
    flag_cases = [("enumerate_symmetries", args) for args in SYMALG_FLAG_CASES]
    flag_cases += [(fn.__name__, tuple(args)) for fn, _, *args in CKT_FLAG_CASES]
    assert pinned.issuperset(flag_cases)


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
