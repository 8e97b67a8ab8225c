"""Laws of the sparse linear-combination arithmetic, on all five types.

``Polynomial``, ``DiffOp``, ``SymTensorField``, ``SymAmbientTensor`` and
``PairSkewTensor`` are all finite linear combinations; the same laws must
hold for each, and combining two of different shapes must raise ValueError.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilapsym.exactpoly import (
    Polynomial,
    ambient_space,
    base_space,
    exponent_tuples,
    monomial_from_exponents,
)
from bilapsym.tensorcalc import (
    PairSkewTensor,
    SymAmbientTensor,
    SymTensorField,
    ambient_indices,
    base_indices,
    nondecreasing_tuples,
)
from bilapsym.weylop import DiffOp

N = 3
SPACE = base_space(N)
MONOMIALS = [monomial_from_exponents(e) for d in range(3) for e in exponent_tuples(N, d)]

# zero is drawn too, so the constructors' dropping of zero values is exercised
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def sparse(keys: list, values) -> st.SearchStrategy[dict]:
    return st.dictionaries(st.sampled_from(keys), values, max_size=4)


polynomials = sparse(MONOMIALS, rationals).map(lambda terms: Polynomial(SPACE, terms))
pair_keys = list(itertools.combinations(range(N + 2), 2))

# type name -> (strategy for instances of one shape, an instance of another shape)
TYPES = {
    "Polynomial": (polynomials, Polynomial.one(ambient_space(N))),
    "DiffOp": (
        sparse(nondecreasing_tuples(base_indices(N), 2), polynomials).map(
            lambda terms: DiffOp(SPACE, terms)
        ),
        DiffOp.identity(ambient_space(N)),
    ),
    "SymTensorField": (
        sparse(nondecreasing_tuples(base_indices(N), 2), polynomials).map(
            lambda comps: SymTensorField(N, 2, comps)
        ),
        SymTensorField(N, 1, {(1,): Polynomial.one(SPACE)}),
    ),
    "SymAmbientTensor": (
        sparse(nondecreasing_tuples(ambient_indices(N), 2), rationals).map(
            lambda comps: SymAmbientTensor(N, 2, comps)
        ),
        SymAmbientTensor(N, 3, {(0, 1, 2): 1}),
    ),
    "PairSkewTensor": (
        sparse(pair_keys, rationals).map(lambda comps: PairSkewTensor(N, 1, comps)),
        PairSkewTensor(N, 2, {(0, 1, 2, 3): 1}),
    ),
}


@pytest.mark.parametrize("name", sorted(TYPES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_linear_combination_laws(name, data):
    strategy, _ = TYPES[name]
    x, y = data.draw(strategy), data.draw(strategy)
    assert x + y == y + x
    assert (x + y) - y == x
    assert x - x == x * 0
    assert (x * 0).is_zero
    assert x * 2 == x + x
    assert (x - x).is_zero
    assert -x == x * -1


@pytest.mark.parametrize("name", sorted(TYPES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mismatched_shapes_raise(name, data):
    strategy, other = TYPES[name]
    x = data.draw(strategy)
    with pytest.raises(ValueError):
        x + other
    with pytest.raises(ValueError):
        x - other
    assert x != other
