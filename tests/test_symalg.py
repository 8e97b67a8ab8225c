"""Conformal algebra elements, their products, the weighted operator
calculus, and the brute-force symmetry enumerator."""

from __future__ import annotations

import dataclasses
import gc
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from block_reference import block_nullspace, with_reference_keys

from bilapsym import ambient, checks, symalg
from bilapsym.ambient import (
    ambient_op_V,
    ambient_op_W,
    ambient_op_gg,
    lie_to_ckv,
    realize_ckt,
    realize_gckt,
    section_substitution,
)
from bilapsym.exactpoly import (
    MAX_DIMENSION,
    Monomial,
    Polynomial,
    base_space,
    exponent_tuples,
    monomial_from_exponents,
    parity_class,
)
from bilapsym.linsolve import leibniz_columns
from bilapsym.symalg import (
    LieElement,
    bilaplacian_weight,
    bracket,
    bullet_product,
    canonical_DV,
    canonical_DW,
    canonical_second_order_family,
    cartan_product,
    dilation_element,
    enumerate_symmetries,
    killing_form,
    lie_element,
    operator_span_dimension,
    pair_tensor,
    rotation_element,
    so_basis,
    so_basis_element,
    so_pair_list,
    special_conformal_element,
    summand_operator_cases,
    summand_operator_checks,
    translation_element,
    verify_generalstory,
)
from bilapsym.tensorcalc import (
    SymAmbientTensor,
    SymTensorField,
    ambient_lower,
    base_indices,
    bullet_extract,
    counterexample_tensor,
    decompose_gg,
    nondecreasing_tuples,
    scalar_extract,
    tracefree_part,
)
from bilapsym.weylop import (
    DiffOp,
    bilaplacian,
    compose,
    euler_op,
    is_symmetry,
    laplacian,
    symbol_division,
)

# ---------------------------------------------------------------------------
# reference constructions the library does not need: the grading blocks of
# an algebra element, and the bracket and invariant pairing of vector fields


@dataclass(frozen=True)
class LieBlocks:
    lam: Fraction
    r_vec: tuple[Fraction, ...]
    s_vec: tuple[Fraction, ...]
    m_mat: dict[tuple[int, int], Fraction]


def lie_blocks(v: LieElement) -> LieBlocks:
    """Read the grading blocks back from a one-pair tensor."""
    if v.pair_count != 1:
        raise ValueError("expected a one-pair tensor")
    n = v.n
    return LieBlocks(
        lam=v.get((0, n + 1)),
        r_vec=tuple(v.get((0, a)) for a in range(1, n + 1)),
        s_vec=tuple(v.get((a, n + 1)) for a in range(1, n + 1)),
        m_mat={
            (a, b): v.get((a, b))
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if v.get((a, b)) != 0
        },
    )


def flat_bracket(x: SymTensorField, y: SymTensorField) -> SymTensorField:
    """The bracket of vector fields: X^b d_b Y^a - Y^b d_b X^a."""
    if x.valency != 1 or y.valency != 1 or x.n != y.n:
        raise ValueError("expected vector fields of the same dimension")
    n = x.n
    comps = {}
    for a in base_indices(n):
        total = Polynomial.zero(x.space)
        for b in base_indices(n):
            total = total + x.get((b,)) * y.get((a,)).partial(b)
            total = total - y.get((b,)) * x.get((a,)).partial(b)
        if not total.is_zero:
            comps[(a,)] = total
    return SymTensorField(n, 1, comps)


def killing_form_flat(x: SymTensorField, y: SymTensorField) -> Fraction:
    """The flat-space invariant pairing of two conformal vector fields.

    (d_b X^a)(d_a Y^b) - ((n-2)/n^2)(div X)(div Y)
    - (2/n) X^a d_a div Y - (2/n) Y^a d_a div X; constant on solutions.
    """
    if x.valency != 1 or y.valency != 1 or x.n != y.n:
        raise ValueError("expected vector fields of the same dimension")
    n = x.n
    space = x.space
    div_x = Polynomial.zero(space)
    div_y = Polynomial.zero(space)
    for a in base_indices(n):
        div_x = div_x + x.get((a,)).partial(a)
        div_y = div_y + y.get((a,)).partial(a)
    total = Polynomial.zero(space)
    for a in base_indices(n):
        for b in base_indices(n):
            total = total + x.get((a,)).partial(b) * y.get((b,)).partial(a)
    total = total - div_x * div_y * Fraction(n - 2, n * n)
    for a in base_indices(n):
        total = total - x.get((a,)) * div_y.partial(a) * Fraction(2, n)
        total = total - y.get((a,)) * div_x.partial(a) * Fraction(2, n)
    if not total.is_constant:
        raise ValueError("pairing is not constant; inputs are not conformal")
    return total.constant_value()


def symbol_rows_by_division(bilap: DiffOp, m_exps: tuple, alpha: tuple) -> dict:
    """Rows of the symmetry condition for x^m d^alpha, computed the long
    way: compose bilap with the generator and keep the remainder of its
    symbol modulo the symbol of bilap, keyed as ``_operator_column`` keys
    operator terms, with both monomials mapped to the exponent tuples the
    row builder keys by."""
    space = bilap.space
    mono = monomial_from_exponents(m_exps)
    gen = DiffOp(space, {alpha: Polynomial(space, {mono: Fraction(1)})})
    _, remainder = symbol_division(compose(bilap, gen), bilap)
    variables = base_indices(space.n)
    return {
        (rho.exps, tuple(x.exponent(v) for v in variables)): coeff
        for (rho, x), coeff in symalg._operator_column(remainder).items()
    }


def stabilized_by_counts(n: int, order: int, degree_bound: int) -> bool:
    """The former heuristic flag, kept as a reference: solve the shifts that
    degree_bound truncates again at degree_bound + 2 and compare the
    solution counts."""
    shifts = range(degree_bound - order + 1, degree_bound + 3)
    raised = block_solution_counts(n, order, degree_bound + 2, shifts)
    solved = block_solution_counts(n, order, degree_bound, shifts)
    return sum(raised.values()) == sum(solved.values())


def enumerate_by_every_block(n: int, order: int, degree_bound: int) -> tuple[list, bool]:
    """The former schedule, kept as a reference: every block of every shift
    -order .. degree_bound up to coefficient degree degree_bound in one
    ``block_nullspace`` call, then the flag from the empty complete shifts
    among them or, failing that, from one probe of the first open shift."""
    space = base_space(n)
    rows = leibniz_columns(symalg._symbol_row_builder(bilaplacian(n)))
    alphas = [a for k in range(order + 1) for a in nondecreasing_tuples(base_indices(n), k)]

    def solve(top_degree: int, shifts) -> list:
        gens = [
            (a, m)
            for d in range(top_degree + 1)
            for m in exponent_tuples(n, d)
            for a in alphas
            if d - len(a) in shifts
        ]
        solutions = block_nullspace(
            gens, lambda g: (sum(g[1]) - len(g[0]), parity_class(g[1], g[0])), rows
        )
        return [(key[0], vec) for key, vec in solutions]

    solved = solve(degree_bound, range(-order, degree_bound + 1))
    first_open = degree_bound - order + 1
    if first_open < 1:
        flag = False
    elif any(g not in {shift for shift, _ in solved} for g in range(first_open)):
        flag = True
    else:
        flag = not solve(first_open + order, [first_open])
    elements = [
        DiffOp._collect(
            space,
            (
                (Monomial.of_indices(a), Polynomial(space, {monomial_from_exponents(m): c}))
                for (a, m), c in vec.items()
            ),
        )
        for _, vec in solved
    ]
    return elements, flag


def block_solution_counts(n: int, order: int, degree_bound: int, shifts) -> dict:
    """Solutions per (shift, parity class) block, over every block that has
    generators x^m d^alpha with |m| <= degree_bound in the given shifts."""
    rows = leibniz_columns(symalg._symbol_row_builder(bilaplacian(n)))
    alphas = [a for k in range(order + 1) for a in nondecreasing_tuples(base_indices(n), k)]
    gens = [
        (a, m)
        for d in range(degree_bound + 1)
        for m in exponent_tuples(n, d)
        for a in alphas
        if d - len(a) in shifts
    ]

    def block(g):
        return (sum(g[1]) - len(g[0]), parity_class(g[1], g[0]))

    counts = {block(g): 0 for g in gens}
    for key, _ in block_nullspace(gens, block, rows):
        counts[key] += 1
    return counts


def mutated_enumerator(witness):
    """``enumerate_symmetries`` with its flag replaced: True when
    ``witness(counts, complete)`` holds for some shift in 1 .. degree_bound,
    or for the shift degree_bound - order + 1 solved with all its
    generators (complete).  ``counts`` maps each parity class of the shift
    to its number of solutions."""
    original = symalg.enumerate_symmetries

    def enumerate_mutant(n, order, degree_bound):
        basis = original(n, order, degree_bound)
        first_open = degree_bound - order + 1
        solved = block_solution_counts(n, order, degree_bound, range(1, degree_bound + 1))
        probe = block_solution_counts(n, order, first_open + order, [first_open])
        by_shift = [
            ({c: k for (t, c), k in solved.items() if t == s}, s < first_open)
            for s in range(1, degree_bound + 1)
        ]
        by_shift.append(({c: k for (_, c), k in probe.items()}, True))
        flag = any(witness(counts, complete) for counts, complete in by_shift)
        return dataclasses.replace(basis, stabilized=flag)

    return enumerate_mutant


def accept_empty_shift(counts, complete):
    return complete and not any(counts.values())


def accept_truncated_shift(counts, complete):
    return not any(counts.values())


def accept_empty_class(counts, complete):
    return complete and not all(counts.values())


# the (shift, lowest, highest coefficient degree) of each solve of an
# order-2 enumeration at n = 3 that ends at shift 3, complete
UP_TO_SHIFT_3 = [(-2, 0, 0), (-1, 0, 1), (0, 0, 2), (1, 1, 3), (2, 2, 4), (3, 3, 5)]


# (n, order, degree_bound) where the closure flag is compared with the count
# reference; the first five have degree_bound < order
FLAG_CASES = [
    (3, 1, 0),
    (3, 2, 0),
    (3, 2, 1),
    (4, 2, 1),
    (3, 3, 2),
    (3, 0, 1),
    (3, 1, 1),
    (3, 1, 2),
    (3, 1, 3),
    (3, 1, 4),
    (4, 1, 4),
    (3, 2, 2),
    (3, 2, 3),
    (3, 2, 4),
    (3, 2, 5),
    (3, 2, 6),
    (4, 2, 4),
]


def _rng_element(n: int, rng: random.Random):
    lam = Fraction(rng.randint(-3, 3))
    r = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    s = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    m = {
        (a, b): Fraction(rng.randint(-3, 3))
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
    }
    return lie_element(n, lam, r, s, m)


class TestAlgebraBasics:
    def test_basis_size(self):
        assert len(so_basis(3)) == 10
        assert len(so_pair_list(4)) == 15

    def test_block_round_trip(self):
        rng = random.Random(3)
        for _ in range(5):
            v = _rng_element(3, rng)
            b = lie_blocks(v)
            rebuilt = lie_element(3, b.lam, b.r_vec, b.s_vec, b.m_mat)
            assert rebuilt == v

    def test_bracket_matches_field_bracket(self):
        rng = random.Random(5)
        for _ in range(6):
            u, v = _rng_element(3, rng), _rng_element(3, rng)
            assert lie_to_ckv(bracket(u, v)) == flat_bracket(
                lie_to_ckv(u), lie_to_ckv(v)
            )

    def test_killing_form_values(self):
        n = 3
        d = dilation_element(n)
        assert killing_form(d, d) == 2 * n
        assert killing_form(translation_element(n, 1), translation_element(n, 2)) == 0
        rng = random.Random(11)
        for _ in range(6):
            u, v = _rng_element(n, rng), _rng_element(n, rng)
            assert killing_form(u, v) == n * killing_form_flat(
                lie_to_ckv(u), lie_to_ckv(v)
            )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_killing_form_is_the_component_contraction(self, n):
        # -n u^{BQ} v_{BQ}: both orders of each stored pair of u
        def contraction(u, v):
            return -n * sum(
                (
                    2 * val * v.get((ambient_lower(n, b), ambient_lower(n, q)))
                    for (b, q), val in u.components.items()
                ),
                Fraction(0),
            )

        rng = random.Random(n)
        elements = so_basis(n) + [_rng_element(n, rng) for _ in range(3)]
        for u in elements:
            for v in elements:
                assert killing_form(u, v) == contraction(u, v)

    @pytest.mark.parametrize("n", [3, 4])
    def test_scalar_extract_matches_the_ordered_entry_sum(self, n):
        # the double trace over every ordered entry of the pair tensor
        def ordered_sum(x):
            return -n * sum(
                (
                    val
                    for (b, q, c, r), val in x.ordered_entries()
                    if c == ambient_lower(n, b) and r == ambient_lower(n, q)
                ),
                Fraction(0),
            )

        pairs = [(u, v) for u in so_basis(n) for v in so_basis(n)]
        if n == 4:
            rng = random.Random(20)
            pairs += [(_rng_element(n, rng), _rng_element(n, rng)) for _ in range(20)]
        for u, v in pairs:
            product = pair_tensor(u, v)
            assert scalar_extract(product) == ordered_sum(product)

    def test_products_realize_consistently(self):
        n = 3
        u = dilation_element(n)
        v = special_conformal_element(n, 2)
        x, y = lie_to_ckv(u), lie_to_ckv(v)
        assert cartan_product(x, y) == tracefree_part(
            realize_ckt(pair_tensor(u, v))
        )
        assert bullet_product(x, y) == realize_gckt(
            bullet_extract(pair_tensor(u, v))
        )
        with pytest.raises(ValueError):
            bullet_product(x, realize_ckt(pair_tensor(u, v)))


class TestCanonicalOperators:
    def test_first_order_coefficients(self):
        # V d - (w/n) div V, checked against an explicit build at n = 3.
        n, w = 3, Fraction(1, 7)
        v = lie_to_ckv(dilation_element(n))
        op = canonical_DV(v, w)
        space = base_space(n)
        expected = DiffOp.zero(space)
        for a in (1, 2, 3):
            expected = expected + DiffOp.partial_op(space, a) * v.get((a,))
        # div(x) = n, so the zeroth-order part is -w times the identity.
        expected = expected - DiffOp.identity(space) * w
        assert op == expected

    def test_second_order_subleading_coefficients(self):
        # At w = 2 - n/2 the displayed constants are (n-2)/(n+2) and
        # (n-2)(n-4)/(4(n+1)(n+2)).
        for n in (3, 4, 5):
            w = bilaplacian_weight(n)
            assert Fraction(-2) * (w - 1) / (n + 2) == Fraction(n - 2, n + 2)
            assert w * (w - 1) / ((n + 1) * (n + 2)) == Fraction(
                (n - 2) * (n - 4), 4 * (n + 1) * (n + 2)
            )

    def test_scalar_operator_explicit_build(self):
        # At w = 2 - n/2 the scalar operator of W is
        # W Delta - (grad W).grad - ((n-4)/(2(n+2))) (Lap W);
        # for W = x1 the last term vanishes and the middle is -d1.
        for n in (3, 4, 5):
            w0 = bilaplacian_weight(n)
            space = base_space(n)
            x1 = Polynomial.variable(space, 1)
            op = canonical_DW(SymTensorField(n, 0, {(): x1}), w0)
            expected = compose(DiffOp.multiplication(x1), laplacian(n)) - (
                DiffOp.partial_op(space, 1)
            )
            assert op == expected
            # and the displayed zeroth-order constant:
            assert w0 * (n + 2 * w0 - 2) / (2 * (n + 2)) == -Fraction(
                n - 4, 2 * (n + 2)
            )

    def test_dv_requires_tracefree(self):
        from bilapsym.tensorcalc import metric_tensor

        with pytest.raises(ValueError):
            canonical_DV(metric_tensor(3), Fraction(1, 2))


class TestCompositionIdentity:
    def test_sample_pairs(self):
        n = 3
        w = bilaplacian_weight(n)
        pairs = [
            (dilation_element(n), dilation_element(n)),
            (dilation_element(n), translation_element(n, 1)),
            (special_conformal_element(n, 1), translation_element(n, 1)),
            (rotation_element(n, 1, 2), rotation_element(n, 2, 3)),
        ]
        for u, v in pairs:
            report = verify_generalstory(u, v, w)
            assert report.holds
            assert report.lhs == report.rhs

    def test_scalar_coefficient_value(self):
        n = 3
        u = special_conformal_element(n, 1)
        v = translation_element(n, 1)
        w = Fraction(1, 7)
        report = verify_generalstory(u, v, w)
        expected = (
            w * (n + w) / (n * (n + 1) * (n + 2)) * killing_form(u, v)
        )
        assert report.scalar_coefficient == expected

    def test_each_element_is_realized_once(self, monkeypatch):
        # u, v and their bracket; the Cartan and bullet products take the
        # fields of u and v instead of realizing them again
        realized = []
        original = ambient.realize_ckt

        def counting(x):
            realized.append(x)
            return original(x)

        monkeypatch.setattr(ambient, "realize_ckt", counting)
        u, v = special_conformal_element(4, 1), rotation_element(4, 1, 3)
        assert verify_generalstory(u, v, Fraction(-2, 3)).holds
        assert realized == [u, v, bracket(u, v)]

    def test_summand_operator_checks(self):
        checks = summand_operator_checks(3)
        assert all(checks.values()), checks
        cases = list(summand_operator_cases(3))
        assert all(ok for _, _, ok in cases)
        assert {check for check, _, _ in cases} == set(checks)
        # one row per element, pair or weight, each named once per check
        assert len(cases) == 25
        assert len({(check, case) for check, case, _ in cases}) == len(cases)


class TestEnumerator:
    @given(
        st.sampled_from([3, 4, 5]),
        st.integers(0, 4),
        st.integers(0, 8),
        st.integers(0, 2**30),
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_form_rows_match_division(self, n, order, degree, seed):
        rng = random.Random(seed)
        alpha = tuple(sorted(rng.randint(1, n) for _ in range(order)))
        m_exps = [0] * n
        for _ in range(degree):
            m_exps[rng.randrange(n)] += 1
        m_exps = tuple(m_exps)
        bilap = bilaplacian(n)
        got = with_reference_keys(symalg._symbol_row_builder(bilap))((alpha, m_exps))
        assert got == symbol_rows_by_division(bilap, m_exps, alpha)
        assert all(type(v) is int and v for v in got.values())

    def test_closed_form_rows_on_enumerated_generators(self):
        # every generator of order <= 2 at n = 3 up to coefficient degree 6
        bilap = bilaplacian(3)
        rows = with_reference_keys(symalg._symbol_row_builder(bilap))
        alphas = [(), (1,), (2,), (3,), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
        for degree in range(7):
            for m_exps in exponent_tuples(3, degree):
                for alpha in alphas:
                    expected = symbol_rows_by_division(bilap, m_exps, alpha)
                    assert rows((alpha, m_exps)) == expected, (m_exps, alpha)

    def test_row_builder_divides_each_monomial_once(self, monkeypatch):
        # the builder keeps the remainder of each derivative monomial, so the
        # P_gamma d^alpha of all alpha and gamma share their divisions
        dividends = []
        original = symalg.divide_by_constant

        def recording(terms, divisor):
            dividends.extend(terms)
            return original(terms, divisor)

        monkeypatch.setattr(symalg, "divide_by_constant", recording)
        bilap = bilaplacian(3)
        rows = with_reference_keys(symalg._symbol_row_builder(bilap))
        alphas = [a for k in range(4) for a in nondecreasing_tuples(base_indices(3), k)]
        for alpha in alphas:
            assert rows((alpha, (2, 1, 1))) == symbol_rows_by_division(bilap, (2, 1, 1), alpha)
        assert dividends and len(dividends) == len(set(dividends))

    def test_first_order_count(self):
        basis = enumerate_symmetries(3, 1, 2)
        assert basis.dimension == 11
        assert basis.stabilized

    def test_second_order_count_stabilizes_at_degree_four(self):
        basis = enumerate_symmetries(3, 2, 4)
        assert basis.dimension == 60
        assert basis.stabilized

    def test_elements_are_symmetries(self):
        basis = enumerate_symmetries(3, 1, 2)
        bilap = bilaplacian(3)
        for op in basis.elements:
            delta = is_symmetry(op)
            assert delta is not None
            assert compose(bilap, op) == compose(delta, bilap)

    @pytest.mark.parametrize(
        "args, schedule, stabilized",
        [
            # every complete shift has a solution: the probe of shift 3, with
            # its 181 generators up to coefficient degree 5, is empty, so the
            # truncated shifts 3 and 4 are never solved
            ((3, 2, 4), UP_TO_SHIFT_3, True),
            # the complete shift 3 is empty: shifts 4 .. 6 are never solved
            ((3, 2, 6), UP_TO_SHIFT_3, True),
            ((3, 2, 10**6), UP_TO_SHIFT_3, True),
            # the probe of shift 1 has solutions: then the truncated shifts
            # 1 and 2 are solved up to coefficient degree 2
            (
                (3, 2, 2),
                [(-2, 0, 0), (-1, 0, 1), (0, 0, 2), (1, 1, 3), (1, 1, 2), (2, 2, 2)],
                False,
            ),
            # no complete shift >= 0: no probe
            ((3, 2, 1), [(-2, 0, 0), (-1, 0, 1), (0, 0, 1), (1, 1, 1)], False),
        ],
        ids=["probe-3-2-4", "witness-3-2-6", "witness-huge-bound", "probe-3-2-2", "no-probe-3-2-1"],
    )
    def test_stabilization_solves_one_probe_at_most(self, monkeypatch, args, schedule, stabilized):
        # one solve per shift in ascending order, each visiting the coefficient
        # degrees max(s, 0) .. min(s + order, top) only: (shift, low, top)
        calls = []
        original = symalg.solve_graded

        def recording(space, unknowns, constants, *grades):
            def listed(shift, complete):
                found = list(unknowns(shift, complete))
                assert {sum(m) - len(alpha) for alpha, m in found} == {shift}
                degrees = {sum(m) for _, m in found}
                calls.append(((shift, min(degrees), max(degrees)), len(found)))
                return found

            return original(space, listed, constants, *grades)

        monkeypatch.setattr(symalg, "solve_graded", recording)
        basis = enumerate_symmetries(*args)
        assert basis.stabilized is stabilized
        assert [call for call, _ in calls] == schedule
        if args == (3, 2, 4):
            assert calls[-1][1] == 181

    @pytest.mark.parametrize("args", FLAG_CASES + [(3, 3, 7)], ids=str)
    def test_matches_every_block_reference(self, args):
        elements, flag = enumerate_by_every_block(*args)
        basis = enumerate_symmetries(*args)
        assert basis.elements == tuple(elements)
        assert basis.stabilized is flag

    def test_huge_degree_bound_stops_at_the_empty_shift(self):
        basis = enumerate_symmetries(3, 2, 10**6)
        assert basis.dimension == 60
        assert basis.stabilized

    @pytest.mark.parametrize("args, dimension", [((3, 3, 7), 225), ((4, 2, 4), 120)], ids=str)
    def test_every_element_is_a_symmetry(self, args, dimension):
        # soundness without a reference: each element has a certificate
        basis = enumerate_symmetries(*args)
        assert basis.dimension == dimension
        assert basis.stabilized
        assert all(is_symmetry(op) is not None for op in basis.elements)

    def test_fourth_order_never_stabilizes(self):
        # the operators A o (squared Laplacian) fill every shift, so every
        # shift up to the degree bound is solved and none is empty
        basis = enumerate_symmetries(3, 4, 4)
        assert basis.dimension == 455
        assert basis.stabilized is False

    @pytest.mark.parametrize("args", FLAG_CASES, ids=str)
    def test_flag_matches_count_reference(self, args):
        assert symalg.enumerate_symmetries(*args).stabilized is stabilized_by_counts(*args)

    @pytest.mark.parametrize(
        "witness, args, expected",
        [
            # the proof's own witness, through the mutant's bookkeeping
            (accept_empty_shift, (3, 2, 3), False),
            (accept_empty_shift, (3, 1, 1), False),
            # shift 2 of (3, 2, 3) is empty only below coefficient degree 4
            (accept_truncated_shift, (3, 2, 3), True),
            # the probe shift 1 of (3, 1, 1) has no solution of parity
            # (1, 1, 1), but the special conformal fields fill the others
            (accept_empty_class, (3, 1, 1), True),
        ],
        ids=["empty-shift-3-2-3", "empty-shift-3-1-1", "truncated", "one-class"],
    )
    def test_only_the_proof_witness_matches_reference(self, monkeypatch, witness, args, expected):
        assert args in FLAG_CASES
        reference = stabilized_by_counts(*args)
        monkeypatch.setattr(symalg, "enumerate_symmetries", mutated_enumerator(witness))
        assert symalg.enumerate_symmetries(*args).stabilized is expected
        assert (expected is reference) is (witness is accept_empty_shift)

    @pytest.mark.parametrize("args", [(3, 2, 2), (4, 2, 1), (3, 3, 2)], ids=str)
    def test_nonpositive_shifts_are_never_empty(self, args):
        # constant-coefficient operators and the dilation and rotations
        # (and their products) fill every block of shift <= 0, so a witness
        # of shift 0 could never be taken and the proof loses nothing by
        # starting at shift 1
        n, order, degree_bound = args
        counts = block_solution_counts(n, order, degree_bound, range(-order, 1))
        assert counts and all(counts.values())

    def test_commutators_with_derivatives_stay_in_span(self):
        # the closure the flag rests on: [d_i, D] of each element is again
        # a symmetry of the same order, so it lies in the basis span
        basis = enumerate_symmetries(3, 2, 4)
        space = base_space(3)
        commutators = []
        for op in basis.elements:
            for i in base_indices(3):
                d = DiffOp.partial_op(space, i)
                commutators.append(compose(d, op) - compose(op, d))
        assert any(not c.is_zero for c in commutators)
        assert operator_span_dimension([*basis.elements, *commutators]) == 60

    def test_third_order_count_is_proved_at_degree_seven(self):
        # 225 = dim (3, 3) + dim (2, 2) + dim (1, 1) + 1 + dim (3, 1) + dim (2, 0)
        # of so(5); the complete shift 4 is the empty witness
        basis = enumerate_symmetries(3, 3, 7)
        assert basis.dimension == 225
        assert basis.stabilized

    def test_third_order_count_at_n4_is_proved_at_degree_six(self):
        # 595 = dim (3, 3) + dim (2, 2) + dim (1, 1) + 1 + dim (3, 1) + dim (2, 0)
        # of so(6), the Weyl count of the same modules as at n = 3
        basis = enumerate_symmetries(4, 3, 6)
        assert basis.dimension == 595
        assert basis.stabilized

    def test_bilaplacian_built_once_per_call(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return bilaplacian(n)

        monkeypatch.setattr(symalg, "bilaplacian", counting)
        enumerate_symmetries(3, 2, 2)
        assert calls == [3]

    def test_enumeration_leaves_no_reference_cycles(self):
        # the rows hold no self-referencing memo, so everything the
        # enumeration builds is freed by reference counting when it returns
        gc.collect()
        gc.disable()
        try:
            enumerate_symmetries(3, 2, 6)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unstabilized_bound_is_flagged(self):
        # second-order symmetries need coefficients of degree up to 4
        assert not enumerate_symmetries(3, 2, 2).stabilized

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            enumerate_symmetries(2, 1, 2)

    def test_span_tools(self):
        basis = enumerate_symmetries(3, 1, 2)
        ops = basis.elements
        assert operator_span_dimension(ops) == 11
        # a combination lies in the span: adding it leaves the dimension
        inside = ops[0] + ops[-1] * Fraction(3, 2)
        assert operator_span_dimension([*ops, inside]) == 11
        space = base_space(3)
        probe = DiffOp.multiplication(Polynomial.variable(space, 1))
        assert operator_span_dimension([*ops, probe]) == 12

    def test_constructed_family_spans_enumerated_space(self):
        family = canonical_second_order_family(3)
        assert len(family) == 60
        assert operator_span_dimension(family) == 60


class TestQuarticObstruction:
    def test_boundary_polynomial_of_simple_tensor(self):
        n = 3
        comp = {(1, 1, 1, 1): Fraction(1)}
        z = tracefree_part(SymAmbientTensor(n, 4, comp))
        q = realize_gckt(z).get(())
        from bilapsym.exactpoly import Monomial

        # The trace-free projection keeps a nonzero x1^4 coefficient.
        assert q.terms.get(Monomial([(1, 4)])) not in (None, 0)
        assert q.homogeneous_degree() == 4

    # the induced operator is q Delta^2 / 16 and the mixed trace of X is
    # n(n+2)/48 times Z, at each of these seeds and dimensions
    @pytest.mark.parametrize("n, seed", [(3, 0), (3, 7), (4, 0)])
    def test_closed_form_constants(self, n, seed):
        report = symalg.counterexample_operator_check(n, seed)
        assert report.all_hold
        assert report.seed_used == seed
        assert report.scalar_factor == Fraction(1, 16)
        assert report.mixed_trace_factor == Fraction(n * (n + 2), 48)

    @pytest.mark.parametrize("n", [2, MAX_DIMENSION + 1])
    def test_dimension_is_checked_before_the_draw(self, n, monkeypatch):
        # the draw holds (n+2)^4/24 components, so it must not start
        def draw(n, seed):
            raise AssertionError("drew a tensor before checking n")

        monkeypatch.setattr(symalg, "_random_tracefree_four_tensor", draw)
        with pytest.raises(ValueError, match="dimension n"):
            symalg.counterexample_operator_check(n)


# ---------------------------------------------------------------------------
# the quartic operator and the descent by their former routes: each product
# composed on its own and the operators summed afterwards


def quartic_operator_by_products(n: int, x) -> DiffOp:
    """Sum X^{p1p2p3p4} V_p1 V_p2 V_p3 V_p4 for the counterexample tensor X:
    one composition with each right sum Sum_{p3,p4} X^{p1p2p3p4} V_p3 V_p4,
    and one sum of the products."""
    pairs = so_pair_list(n)
    ops = {p: ambient_op_V(so_basis_element(n, *p)) for p in pairs}
    second = {(p, q): compose(ops[p], ops[q]) for p in pairs for q in pairs}
    space = ops[pairs[0]].space

    def products():
        for p1 in pairs:
            for p2 in pairs:
                right_sum = DiffOp._sum(space, (
                    second[(p3, p4)] * coeff
                    for p3 in pairs
                    for p4 in pairs
                    if (coeff := x.get(p1 + p2 + p3 + p4))
                ))
                if not right_sum.is_zero:
                    yield compose(second[(p1, p2)], right_sum)

    return DiffOp._sum(space, products())


def descend_by_parts(op: DiffOp, weight: Fraction) -> DiffOp:
    """The descent with each part scaled by its restricted coefficient and
    the parts summed afterwards."""
    space = base_space(op.space.n)
    euler, ident = euler_op(space), DiffOp.identity(space)

    def parts():
        for alpha, coeff in op.terms.items():
            if not alpha.exponent(op.space.inf):
                k = alpha.exponent(0)
                part = DiffOp(space, {alpha.indices()[k:]: 1})
                for i in range(k):
                    part = compose(ident * (weight - alpha.degree + k - i) - euler, part)
                yield part * section_substitution(coeff)

    return DiffOp._sum(space, parts())


class TestQuarticRoutes:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_quartic_operator_matches_products_route(self, seed, monkeypatch):
        # the report's own tensor X, kept rather than built a second time
        tensors = []

        def kept(z):
            tensors.append(counterexample_tensor(z))
            return tensors[-1]

        monkeypatch.setattr(symalg, "counterexample_tensor", kept)
        report = symalg.counterexample_operator_check(3, seed)
        assert report.seed_used == seed and report.skipped == ()
        reference, w0 = quartic_operator_by_products(3, tensors[0]), bilaplacian_weight(3)
        expected = descend_by_parts(reference, w0)
        assert report.induced == expected
        assert ambient._descend(reference, w0) == expected

    @pytest.mark.parametrize("n", [3, 4])
    def test_descent_matches_parts_route(self, n):
        u, v = translation_element(n, 1), special_conformal_element(n, 1)
        d = dilation_element(n)
        w0 = bilaplacian_weight(n)
        for op in (
            ambient_op_gg(decompose_gg(pair_tensor(u, v)).cartan),
            ambient_op_W(decompose_gg(pair_tensor(d, d)).bullet_W),
            ambient_op_V(d),
        ):
            for weight in (w0, Fraction(1, 3)):
                assert ambient._descend(op, weight) == descend_by_parts(op, weight)

    def test_skipped_seeds_are_recorded_and_named(self, monkeypatch):
        draw = symalg._random_tracefree_four_tensor
        no_quartic = draw(3, 1)

        def degenerate_first(n, seed):
            if seed == 0:
                return SymAmbientTensor(n, 4, {})
            return no_quartic if seed == 1 else draw(n, seed)

        realize = symalg.realize_gckt
        monkeypatch.setattr(symalg, "_random_tracefree_four_tensor", degenerate_first)
        monkeypatch.setattr(
            symalg, "realize_gckt",
            lambda z: SymTensorField(z.n, 0) if z is no_quartic else realize(z),
        )
        reports = []

        def recorded(n, seed):
            reports.append(symalg.counterexample_operator_check(n, seed))
            return reports[-1]

        monkeypatch.setattr(checks, "counterexample_operator_check", recorded)
        rows = list(checks.quartic_obstruction(3, 0, None))
        assert reports[0].seed_used == 2
        assert reports[0].skipped == ((0, "zero tensor"), (1, "zero quartic"))
        assert len(rows) == 5
        for _, case, ok in rows:
            assert ok
            assert case == "n=3 seed=2 (skipped 0: zero tensor, 1: zero quartic)"
