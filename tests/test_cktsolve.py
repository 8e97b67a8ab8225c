"""Brute-force solution spaces: conformal Killing tensors and the scalar
solutions entering second-order symmetries."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bilapsym.cktsolve import (
    TRACEFREE_FROM_VALENCY,
    _residual_column_builder,
    ckt_residual,
    divergence,
    gckt_residual,
    second_order_symmetry_dimension,
    solve_ckt,
    solve_gckt,
    sym_gradient,
    verify_lemma_hilf,
)
from bilapsym.exactpoly import (
    Polynomial,
    base_space,
    exponent_tuples,
    monomial_from_exponents,
)
from bilapsym.symalg import lie_to_ckv, so_basis, special_conformal_element
from bilapsym.tensorcalc import (
    SymTensorField,
    base_indices,
    metric_trace,
    nondecreasing_tuples,
)


def column_by_residual(n, valency, residual_fn):
    """Reference column of the unknown (key, exps): the residual and the
    metric trace of the unit tensor e_key x^exps, each entry keyed by its
    tag, component and exponent tuple."""
    space = base_space(n)

    def rows(t, tag):
        return {
            (tag, key, tuple(mono.exponent(v) for v in base_indices(n))): coeff
            for key, poly in t.components.items()
            for mono, coeff in poly.terms.items()
        }

    def column(unknown):
        key, exps = unknown
        mono = monomial_from_exponents(exps)
        unit = SymTensorField(n, valency, {key: Polynomial(space, {mono: Fraction(1)})})
        col = rows(residual_fn(unit), "r")
        if valency >= TRACEFREE_FROM_VALENCY:
            col.update(rows(metric_trace(unit), "t"))
        return col

    return column


# (residual, valency, n, top degree); the GCKT residual has order three, so
# its columns are the ones whose weights m!/(m-gamma)! / gamma! differ from
# binomials and from unscaled falling factorials
COLUMN_CASES = [
    (residual, valency, n, 5 if n < 5 else 3)
    for residual, valencies in ((ckt_residual, (1, 2, 3)), (gckt_residual, (0, 1, 2)))
    for valency in valencies
    for n in (3, 4, 5)
]


@pytest.mark.parametrize(
    "residual, valency, n, top",
    COLUMN_CASES,
    ids=[f"{r.__name__}-s{s}-n{n}" for r, s, n, _ in COLUMN_CASES],
)
def test_closed_form_columns_match_residual(residual, valency, n, top):
    closed = _residual_column_builder(n, valency, residual)
    reference = column_by_residual(n, valency, residual)
    for d in range(top + 1):
        for key in nondecreasing_tuples(base_indices(n), valency):
            for exps in exponent_tuples(n, d):
                assert closed((key, exps)) == reference((key, exps)), (key, exps)


class TestResiduals:
    def test_known_vector_solutions(self):
        for u in so_basis(3):
            assert ckt_residual(lie_to_ckv(u)).is_zero

    def test_nonsolution_has_residual(self):
        space = base_space(3)
        v = SymTensorField(
            3, 1, {(1,): Polynomial.variable(space, 1) ** 2}
        )
        assert not ckt_residual(v).is_zero

    def test_divergence_and_gradient_shapes(self):
        v = lie_to_ckv(special_conformal_element(3, 1))
        assert divergence(v).valency == 0
        assert sym_gradient(v).valency == 2

    def test_gckt_scalar_examples(self):
        space = base_space(3)
        one = SymTensorField(3, 0, {(): Polynomial.one(space)})
        assert gckt_residual(one).is_zero
        # |x|^4 spans the lone degree-4 solution; x1^4 fails the equation.
        xx = Polynomial.zero(space)
        for a in (1, 2, 3):
            xx = xx + Polynomial.variable(space, a) ** 2
        assert gckt_residual(SymTensorField(3, 0, {(): xx * xx})).is_zero
        x1 = Polynomial.variable(space, 1)
        assert not gckt_residual(SymTensorField(3, 0, {(): x1 ** 4})).is_zero


class TestDimensions:
    def test_first_order_all_n(self):
        for n in (3, 4, 5):
            basis = solve_ckt(n, 1, 2)
            assert basis.dimension == (n + 1) * (n + 2) // 2
            assert basis.stabilized

    def test_first_order_graded_counts(self):
        basis = solve_ckt(3, 1, 2)
        assert basis.dimension_by_degree() == {0: 3, 1: 4, 2: 3}

    def test_second_order_tensors(self):
        assert solve_ckt(3, 2, 4).dimension == 35
        assert solve_ckt(4, 2, 4).dimension == 84

    def test_scalar_solutions(self):
        l3 = solve_gckt(3, 0, 4)
        assert l3.dimension == 14
        assert l3.dimension_by_degree() == {0: 1, 1: 3, 2: 6, 3: 3, 4: 1}
        assert solve_gckt(4, 0, 4).dimension == 20

    def test_solutions_satisfy_residuals(self):
        for v in solve_ckt(3, 2, 4).elements:
            assert ckt_residual(v).is_zero
            assert v.is_tracefree()
        for w in solve_gckt(3, 0, 4).elements:
            assert gckt_residual(w).is_zero

    def test_closed_form(self):
        assert second_order_symmetry_dimension(3) == 60
        assert second_order_symmetry_dimension(4) == 120
        assert second_order_symmetry_dimension(5) == 217

    def test_two_route_agreement(self):
        for n in (3, 4):
            total = (
                1
                + solve_ckt(n, 1, 2).dimension
                + solve_ckt(n, 2, 4).dimension
                + solve_gckt(n, 0, 4).dimension
            )
            assert total == second_order_symmetry_dimension(n)

    def test_so5_irreducible_dimensions(self):
        # at n = 3 the rank-s solutions form the so(5) irrep of highest
        # weight (s, s), of dimension (2s+3)(2s+1)(s+1)/3
        for s, expected in ((1, 10), (2, 35), (3, 84)):
            basis = solve_ckt(3, s, 2 * s)
            assert basis.stabilized
            assert basis.dimension == (2 * s + 3) * (2 * s + 1) * (s + 1) // 3 == expected

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            solve_ckt(2, 1, 2)


class TestStructureLemma:
    def test_holds_on_vector_solutions(self):
        for v in solve_ckt(3, 1, 2).elements:
            report = verify_lemma_hilf(v)
            assert report.defining_identity
            assert report.laplacian_identity
            assert report.hessian_tracefree
            assert report.all_hold

    def test_holds_on_tensor_solutions(self):
        for v in solve_ckt(3, 2, 4).elements:
            assert verify_lemma_hilf(v).all_hold

    def test_rejects_non_solution(self):
        space = base_space(3)
        v = SymTensorField(3, 1, {(1,): Polynomial.variable(space, 1) ** 2})
        with pytest.raises(ValueError):
            verify_lemma_hilf(v)

    def test_potential_matches_divergence_scale(self):
        v = lie_to_ckv(special_conformal_element(3, 1))
        report = verify_lemma_hilf(v)
        n, s = 3, 1
        assert report.phi.get(()) == divergence(v).get(()) * Fraction(
            s, n + 2 * s - 2
        )
