"""Brute-force solution spaces: conformal Killing tensors and the scalar
solutions entering second-order symmetries."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from block_reference import block_nullspace, with_reference_keys

from bilapsym import cktsolve
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
    parity_class,
)
from bilapsym.linsolve import leibniz_columns
from bilapsym.symalg import lie_to_ckv, so_basis, special_conformal_element
from bilapsym.tensorcalc import (
    SymTensorField,
    base_indices,
    metric_trace,
    nondecreasing_tuples,
)


def column_by_residual(n, valency, residual_fn):
    """Reference column of the unknown (key, exps): the residual and the
    metric trace of the unit tensor e_key x^exps, each entry keyed by
    (tag, component) and exponent tuple."""
    space = base_space(n)

    def rows(t, tag):
        return {
            ((tag, key), tuple(mono.exponent(v) for v in base_indices(n))): coeff
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


def block_solution_counts(n, valency, residual_fn, degrees) -> dict:
    """Solutions per (degree, parity class) block of the given degrees."""
    column = leibniz_columns(_residual_column_builder(n, valency, residual_fn))
    unknowns = [
        (key, exps)
        for d in degrees
        for key in nondecreasing_tuples(base_indices(n), valency)
        for exps in exponent_tuples(n, d)
    ]

    def block(u):
        return (sum(u[1]), parity_class(u[1], u[0]))

    counts = {block(u): 0 for u in unknowns}
    for key, _ in block_nullspace(unknowns, block, column):
        counts[key] += 1
    return counts


def stabilized_by_two_probes(n, valency, residual_fn, degree_bound) -> bool:
    """The former flag, kept as a reference: degrees degree_bound + 1 and
    degree_bound + 2 both have no solution."""
    probes = (degree_bound + 1, degree_bound + 2)
    return not any(block_solution_counts(n, valency, residual_fn, probes).values())


def derivatives(v: SymTensorField) -> list[SymTensorField]:
    return [v.map_components(lambda p, i=i: p.partial(i)) for i in base_indices(v.n)]


# (solver, residual, n, valency, degree_bound) where the closure flag is
# compared with the two-probe reference
FLAG_CASES = [
    (solve_ckt, ckt_residual, 3, 1, 1),
    (solve_ckt, ckt_residual, 3, 1, 2),
    (solve_ckt, ckt_residual, 3, 2, 3),
    (solve_ckt, ckt_residual, 3, 2, 4),
    (solve_ckt, ckt_residual, 4, 1, 2),
    (solve_gckt, gckt_residual, 3, 0, 3),
    (solve_gckt, gckt_residual, 3, 0, 4),
    (solve_gckt, gckt_residual, 3, 1, 2),
    (solve_gckt, gckt_residual, 3, 2, 4),
]


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
    # the builder scales every row by one positive int, which keeps the
    # kernel, so that every column entry is an int
    closed = with_reference_keys(_residual_column_builder(n, valency, residual))
    reference = column_by_residual(n, valency, residual)
    scales = set()
    for d in range(top + 1):
        for key in nondecreasing_tuples(base_indices(n), valency):
            for exps in exponent_tuples(n, d):
                got, expected = closed((key, exps)), reference((key, exps))
                assert got.keys() == expected.keys(), (key, exps)
                assert all(type(v) is int for v in got.values())
                scales.update(Fraction(got[k]) / expected[k] for k in got)
    (scale,) = scales
    assert scale.denominator == 1 and scale > 0


def dense_sym_gradient(v: SymTensorField) -> SymTensorField:
    """Reference for ``sym_gradient``: (1/(s+1)) sum_p d_{K_p} V[K less p]
    at every nondecreasing key K of valency s + 1."""
    n, s = v.n, v.valency
    comps = {}
    for key in nondecreasing_tuples(base_indices(n), s + 1):
        total = Polynomial.zero(v.space)
        for p in range(s + 1):
            total = total + v.get(key[:p] + key[p + 1 :]).partial(key[p])
        comps[key] = total * Fraction(1, s + 1)
    return SymTensorField(n, s + 1, comps)


def dense_divergence(v: SymTensorField) -> SymTensorField:
    """Reference for ``divergence``: sum_a d_a V[K + (a,)] at every
    nondecreasing key K of valency s - 1."""
    n = v.n
    comps = {}
    for key in nondecreasing_tuples(base_indices(n), v.valency - 1):
        total = Polynomial.zero(v.space)
        for a in base_indices(n):
            total = total + v.get(key + (a,)).partial(a)
        comps[key] = total
    return SymTensorField(n, v.valency - 1, comps)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_gradient_and_divergence_match_dense(data):
    n = data.draw(st.sampled_from([3, 4, 5]))
    valency = data.draw(st.integers(0, 4))
    space = base_space(n)
    monos = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(monomial_from_exponents)
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    polys = st.dictionaries(monos, coeffs, max_size=3).map(lambda t: Polynomial(space, t))
    keys = st.sampled_from(nondecreasing_tuples(base_indices(n), valency))
    v = SymTensorField(n, valency, data.draw(st.dictionaries(keys, polys, max_size=4)))
    assert sym_gradient(v) == dense_sym_gradient(v)
    if valency >= 1:
        assert divergence(v) == dense_divergence(v)


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


class TestStabilization:
    @pytest.mark.parametrize(
        "solver, residual, n, valency, degree_bound",
        FLAG_CASES,
        ids=[f"{f.__name__}{args}" for f, _, *args in FLAG_CASES],
    )
    def test_flag_matches_two_probe_reference(self, solver, residual, n, valency, degree_bound):
        basis = solver(n, valency, degree_bound)
        assert basis.stabilized is stabilized_by_two_probes(n, valency, residual, degree_bound)

    def test_derivatives_of_solutions_are_solutions(self):
        # the closure the flag rests on: the equations have constant
        # coefficients, so d_i of a solution solves them one degree lower
        for v in solve_ckt(3, 2, 4).elements:
            for dv in derivatives(v):
                assert ckt_residual(dv).is_zero and dv.is_tracefree()
        for w in solve_gckt(3, 0, 4).elements:
            for dw in derivatives(w):
                assert gckt_residual(dw).is_zero

    def test_empty_degree_needs_no_probe(self, monkeypatch):
        # one solve per degree in ascending order, and no degree above an
        # empty one; (solve_ckt arguments, degrees solved, flag)
        cases = [
            # solve_ckt(3, 1, 3) has no solution of degree 3: it ends the solve
            ((3, 1, 3), [0, 1, 2, 3], True),
            ((3, 1, 10**6), [0, 1, 2, 3], True),
            # every degree up to the bound has solutions: bound + 1 is the probe
            ((3, 1, 2), [0, 1, 2, 3], True),
            ((3, 1, 1), [0, 1, 2], False),
        ]
        calls = []
        original = cktsolve.solve_graded

        def recording(space, unknowns, constants, *grades):
            def listed(degree, complete):
                found = list(unknowns(degree, complete))
                assert {sum(u[1]) for u in found} == {degree}
                calls.append(degree)
                return found

            return original(space, listed, constants, *grades)

        monkeypatch.setattr(cktsolve, "solve_graded", recording)
        for args, degrees, stabilized in cases:
            calls.clear()
            assert solve_ckt(*args).stabilized is stabilized
            assert calls == degrees

    @pytest.mark.parametrize(
        "solver, residual, n, valency, degree_bound",
        FLAG_CASES,
        ids=[f"{f.__name__}{args}" for f, _, *args in FLAG_CASES],
    )
    def test_matches_every_block_reference(self, solver, residual, n, valency, degree_bound):
        # every degree up to degree_bound in one block_nullspace call, then
        # the flag from the empty degrees among them or from one probe
        column = leibniz_columns(_residual_column_builder(n, valency, residual))
        unknowns = [
            (key, exps)
            for d in range(degree_bound + 1)
            for key in nondecreasing_tuples(base_indices(n), valency)
            for exps in exponent_tuples(n, d)
        ]
        solved = block_nullspace(
            unknowns, lambda u: (sum(u[1]), parity_class(u[1], u[0])), column
        )
        if any(d not in {key[0] for key, _ in solved} for d in range(degree_bound + 1)):
            flag = True
        else:
            flag = not any(
                block_solution_counts(n, valency, residual, [degree_bound + 1]).values()
            )
        basis = solver(n, valency, degree_bound)
        assert basis.degrees == tuple(key[0] for key, _ in solved)
        assert [
            {(k, m): c for k, p in e.components.items() for m, c in p.terms.items()}
            for e in basis.elements
        ] == [
            {(k, monomial_from_exponents(m)): c for (k, m), c in vec.items()} for _, vec in solved
        ]
        assert basis.stabilized is flag

    @pytest.mark.parametrize("solver", [solve_ckt, solve_gckt])
    def test_huge_dimension_is_refused_before_the_keys(self, solver, monkeypatch):
        # the keys of valency 1 are the n indices: n = 10**9 must be refused
        # before they are listed
        def listing(indices, valency):
            raise AssertionError("listed the keys before checking n")

        monkeypatch.setattr(cktsolve, "nondecreasing_tuples", listing)
        with pytest.raises(ValueError, match="dimension n must be at most"):
            solver(10**9, 1, 0)

    def test_huge_degree_bound_stops_at_the_empty_degree(self):
        basis = solve_ckt(3, 2, 10**6)
        assert basis.dimension == 35
        assert basis.stabilized

    @pytest.mark.parametrize("args, dimension", [((4, 3, 6), 300), ((5, 2, 4), 168)], ids=str)
    def test_every_element_solves_the_equation(self, args, dimension):
        # soundness without a reference: each element is trace-free with
        # zero residual, and no solution of higher degree exists
        basis = solve_ckt(*args)
        assert basis.dimension == dimension
        assert basis.stabilized
        assert all(v.is_tracefree() and ckt_residual(v).is_zero for v in basis.elements)

    @pytest.mark.parametrize(
        "solver, residual, n, valency, degree_bound",
        [
            # degree 3 of solve_gckt(3, 0, 3) has no solution of parity
            # (1, 1, 1), but |x|^4 lies above the bound
            (solve_gckt, gckt_residual, 3, 0, 3),
            # the probe degree 2 of solve_ckt(3, 1, 1) has no solution of
            # parity (1, 1, 1), but the special conformal fields fill the others
            (solve_ckt, ckt_residual, 3, 1, 1),
        ],
        ids=["gckt-3-0-3", "ckt-3-1-1"],
    )
    def test_one_empty_class_is_no_witness(
        self, monkeypatch, solver, residual, n, valency, degree_bound
    ):
        original = cktsolve._solve_graded

        def one_class_mutant(n, valency, degree_bound, residual_fn):
            basis = original(n, valency, degree_bound, residual_fn)
            counts = block_solution_counts(n, valency, residual_fn, range(degree_bound + 2))
            return dataclasses.replace(basis, stabilized=not all(counts.values()))

        assert (solver, residual, n, valency, degree_bound) in FLAG_CASES
        reference = stabilized_by_two_probes(n, valency, residual, degree_bound)
        assert solver(n, valency, degree_bound).stabilized is reference is False
        monkeypatch.setattr(cktsolve, "_solve_graded", one_class_mutant)
        assert solver(n, valency, degree_bound).stabilized is True


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
