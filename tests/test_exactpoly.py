"""Exact polynomial ring: arithmetic laws, calculus, substitution, JSON."""

from __future__ import annotations

import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilapsym.exactpoly import (
    MAX_DIMENSION,
    ExponentLayout,
    Monomial,
    Polynomial,
    ambient_space,
    base_space,
    format_rational,
    numerators,
    parse_rational,
    product_sum,
    rat,
)

SPACE = base_space(3)
AMB = ambient_space(3)


def poly_from(entries):
    return Polynomial(
        SPACE, {Monomial(tuple(pairs)): rat(c) for pairs, c in entries}
    )


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@st.composite
def polynomials(draw, space=SPACE, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        pairs = []
        for v in space.variables:
            e = draw(st.integers(0, max_exp))
            if e:
                pairs.append((v, e))
        terms[Monomial(tuple(pairs))] = draw(rationals)
    return Polynomial(space, terms)


class TestNumerators:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(st.integers(-50, 50), rationals)))
    @example([])
    @example([3, -4])
    @example([Fraction(1, 2), Fraction(-5, 6), 7])
    def test_lcm_denominator_gives_back_each_value(self, values):
        den, nums = numerators(enumerate(values))
        assert den == math.lcm(*(Fraction(v).denominator for v in values))
        assert [key for key, _ in nums] == list(range(len(values)))
        assert all(type(num) is int for _, num in nums)
        assert [Fraction(num, den) for _, num in nums] == values


class TestVarSpace:
    def test_base_variables(self):
        assert SPACE.variables == (1, 2, 3)
        assert SPACE.var_name(2) == "x2"

    def test_ambient_variables(self):
        assert AMB.variables == (0, 1, 2, 3, 4)
        assert AMB.inf == 4
        assert AMB.var_name(0) == "x0"
        assert AMB.var_name(4) == "xinf"

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            base_space(2)

    def test_large_dimension_rejected(self):
        # exponent vectors are dense, so n bounds every monomial's memory
        assert ambient_space(MAX_DIMENSION).inf == MAX_DIMENSION + 1
        for space in (base_space, ambient_space):
            with pytest.raises(ValueError, match=f"at most {MAX_DIMENSION}"):
                space(MAX_DIMENSION + 1)


class TestMonomial:
    def test_zero_exponents_dropped(self):
        assert Monomial(((1, 0), (2, 1))) == Monomial(((2, 1),))

    def test_only_cone_variable_may_be_fractional(self):
        Monomial(((0, Fraction(1, 2)),))
        Monomial(((0, -2),))
        with pytest.raises(ValueError):
            Monomial(((1, Fraction(1, 2)),))
        with pytest.raises(ValueError):
            Monomial(((2, -1),))

    def test_graded_lex_order(self):
        lo = Monomial(((1, 1),))
        hi = Monomial(((1, 2),))
        assert lo < hi
        assert Monomial(((1, 1), (2, 1))) > Monomial(((2, 2),))

    def test_product_adds_exponents(self):
        m = Monomial(((1, 1),)) * Monomial(((1, 2), (2, 1)))
        assert m.exponent(1) == 3
        assert m.exponent(2) == 1


class TestVariable:
    def test_outside_the_space_raises(self):
        for v in (0, 4, -1):
            with pytest.raises(ValueError):
                Polynomial.variable(SPACE, v)
        assert Polynomial.variable(AMB, 0, Fraction(-1, 2)).terms == {
            Monomial(((0, Fraction(-1, 2)),)): 1
        }

    def test_large_index_allocates_little(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                Polynomial.variable(SPACE, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024



# -- Monomial against a plain {variable: exponent} reference -----------------

AMB_VARS = AMB.variables
cone_exponents = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def exponent_dicts(draw):
    """A {variable: exponent} dict over the ambient variables; only x0 may
    carry a negative or fractional exponent."""
    exps = {0: draw(cone_exponents)}
    for v in AMB_VARS[1:]:
        exps[v] = draw(st.integers(0, 3))
    return {v: e for v, e in exps.items() if e != 0}


def reference_key(exps: dict) -> tuple:
    """Graded-lex key: total degree, then exponents by ascending variable."""
    return (sum(exps.values()), tuple(exps.get(v, 0) for v in AMB_VARS))


def as_dict(m: Monomial) -> dict:
    return {v: m.exponent(v) for v in AMB_VARS if m.exponent(v) != 0}


def add_exponents(a: dict, b: dict) -> dict:
    out = {v: a.get(v, 0) + b.get(v, 0) for v in AMB_VARS}
    return {v: e for v, e in out.items() if e != 0}


class TestMonomialReference:
    @given(exponent_dicts(), exponent_dicts())
    @example({}, {0: -1, 1: 1})
    @example({0: -1, 1: 1}, {})
    @example({0: 1}, {1: 1})
    @settings(max_examples=200, deadline=None)
    def test_order_matches_reference(self, a, b):
        ma, mb = Monomial(a.items()), Monomial(b.items())
        ka, kb = reference_key(a), reference_key(b)
        assert (ma < mb) == (ka < kb)
        assert (ma > mb) == (ka > kb)
        assert (ma == mb) == (ka == kb)
        assert ma.degree == ka[0]

    @given(exponent_dicts(), exponent_dicts())
    @example({0: Fraction(1, 2)}, {0: Fraction(1, 2)})
    @settings(max_examples=200, deadline=None)
    def test_product_adds_exponents(self, a, b):
        product = Monomial(a.items()) * Monomial(b.items())
        expected = add_exponents(a, b)
        assert as_dict(product) == expected
        assert product == Monomial(expected.items())
        for v in AMB_VARS:
            e = product.exponent(v)
            assert type(e) is int or Fraction(e).denominator != 1

    def test_integral_cone_exponent_prints_as_int(self):
        half = Monomial([(0, Fraction(1, 2))])
        assert type((half * half).exponent(0)) is int
        p = Polynomial(AMB, {half * half: 1})
        assert p.to_json_obj() == [{"coeff": "1", "exps": {"x0": 1}}]

    @given(st.lists(st.tuples(exponent_dicts(), rationals), max_size=5),
           st.sampled_from(AMB_VARS))
    @settings(max_examples=100, deadline=None)
    def test_partial_matches_reference(self, entries, v):
        reference: dict = {}
        for exps, c in entries:
            key = frozenset(exps.items())
            reference[key] = reference.get(key, 0) + c
        p = Polynomial(AMB, {Monomial(key): c for key, c in reference.items()})
        expected = {}
        for key, c in reference.items():
            exps = dict(key)
            e = exps.get(v, 0)
            if c and e:
                exps[v] = e - 1
                expected[frozenset((u, f) for u, f in exps.items() if f)] = c * e
        got = {frozenset(as_dict(m).items()): c for m, c in p.partial(v).terms.items()}
        assert got == expected


class TestRingLaws:
    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_add_mul_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polynomials())
    @settings(max_examples=40, deadline=None)
    def test_additive_inverse(self, p):
        assert (p - p).is_zero
        assert p + Polynomial.zero(SPACE) == p
        assert p * Polynomial.one(SPACE) == p

    @given(polynomials(), polynomials())
    @settings(max_examples=40, deadline=None)
    def test_leibniz_rule(self, p, q):
        for v in SPACE.variables:
            lhs = (p * q).partial(v)
            rhs = p.partial(v) * q + p * q.partial(v)
            assert lhs == rhs

    @given(polynomials())
    @settings(max_examples=40, deadline=None)
    def test_euler_identity_on_components(self, p):
        for d in range(8):
            comp = p.homogeneous_component(d)
            euler = Polynomial.zero(SPACE)
            for v in SPACE.variables:
                euler = euler + Polynomial.variable(SPACE, v) * comp.partial(v)
            assert euler == comp * d


class TestSubstitution:
    def test_substitution_is_evaluation_homomorphism(self):
        p = poly_from([([(1, 2)], 1), ([(2, 1)], -3)])
        q = poly_from([([(1, 1), (2, 1)], 2)])
        binding = {1: poly_from([([(2, 1)], 1)]), 2: poly_from([([], 5)])}
        assert (p * q).substitute(binding) == p.substitute(binding) * q.substitute(
            binding
        )
        assert (p + q).substitute(binding) == p.substitute(binding) + q.substitute(
            binding
        )

    def test_cone_variable_binding(self):
        # substituting the section value of the infinity coordinate kills r
        space = AMB
        x0 = Polynomial.variable(space, 0)
        xinf = Polynomial.variable(space, 4)
        xx = Polynomial.zero(space)
        for a in (1, 2, 3):
            xa = Polynomial.variable(space, a)
            xx = xx + xa * xa
        r = x0 * xinf * 2 + xx
        binding = {4: xx * Polynomial.variable(space, 0, -1) * Fraction(-1, 2)}
        assert r.substitute(binding).is_zero

    def test_fractional_power_products(self):
        space = AMB
        half = Polynomial.variable(space, 0, Fraction(1, 2))
        assert half * half == Polynomial.variable(space, 0)
        inv = Polynomial.variable(space, 0, -1)
        assert half * half * inv == Polynomial.one(space)

    def test_fractional_exponent_requires_unit_binding(self):
        space = AMB
        p = Polynomial.variable(space, 0, Fraction(1, 2))
        with pytest.raises(ValueError):
            p.substitute({0: Polynomial.variable(space, 1)})


@st.composite
def ambient_polynomials(draw):
    """A polynomial on the ambient space of dimension 3..5 whose x0
    exponents may be negative or fractional."""
    space = ambient_space(draw(st.integers(3, 5)))
    x0_exps = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = [(v, draw(x0_exps if v == 0 else st.integers(0, 3))) for v in space.variables]
        terms[Monomial(exps)] = draw(rationals)
    return Polynomial(space, terms)


def product_sum_reference(space, triples) -> Polynomial:
    """sum c p q term by term in Fractions, as Polynomial products were
    once computed: one Monomial and one Fraction product per pair of terms."""
    products = (
        (m1 * m2, c * c1 * c2)
        for c, p, q in triples
        for m1, c1 in p.terms.items()
        for m2, c2 in q.terms.items()
    )
    return Polynomial._collect(space, products)


@st.composite
def product_cases(draw):
    """(space, triples) on a base or ambient space; the operands come from a
    pool of up to three polynomials (possibly empty; x0 exponents negative
    or fractional), so one object may be passed several times."""
    space = draw(st.sampled_from([SPACE, AMB, ambient_space(4)]))
    x0_exps = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exps = [
                (v, draw(x0_exps if v == 0 else st.integers(0, 3))) for v in space.variables
            ]
            terms[Monomial(exps)] = draw(rationals)
        pool.append(Polynomial(space, terms))
    weights = st.one_of(st.just(0), st.integers(-5, 5), rationals)
    picks = st.tuples(weights, st.sampled_from(pool), st.sampled_from(pool))
    return space, draw(st.lists(picks, max_size=5))


class TestProductSum:
    @given(product_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_term_by_term_fractions(self, case):
        space, triples = case
        got = product_sum(space, triples)
        assert got == product_sum_reference(space, triples)
        for m, c in got.terms.items():
            assert type(c) is Fraction
            assert m.exps == Monomial(m.items()).exps  # trimmed, x0 normalized

    def test_zero_weight_empty_operand_and_repeated_operand(self):
        x1, x0 = Polynomial.variable(AMB, 1), Polynomial.variable(AMB, 0, Fraction(-1, 2))
        p = x1 * Fraction(2, 3) + x0 * Fraction(5, 7)
        zero = Polynomial.zero(AMB)
        triples = [(Fraction(1, 2), p, p), (0, p, x1), (3, zero, p), (-1, x0, p)]
        got = product_sum(AMB, triples)
        assert got == p * p * Fraction(1, 2) - x0 * p
        assert got == product_sum_reference(AMB, triples)
        assert product_sum(AMB, []).is_zero

    def test_operands_must_share_the_space(self):
        with pytest.raises(ValueError):
            product_sum(SPACE, [(1, Polynomial.one(SPACE), Polynomial.one(AMB))])
        with pytest.raises(ValueError):
            Polynomial.one(SPACE) * Polynomial.one(AMB)
        with pytest.raises(TypeError):
            product_sum(SPACE, [(1, Polynomial.one(SPACE), 2)])


class TestExponentLayout:
    @given(product_cases())
    @settings(max_examples=80, deadline=None)
    def test_keys_add_like_exponent_vectors(self, case):
        space, triples = case
        monomials = [m for _, p, q in triples for m in (*p.terms, *q.terms)]
        layout = ExponentLayout.fitting(space, monomials)
        for m in monomials:
            assert layout.unpack(layout.pack(m)) == m
            for v in space.variables:
                shift, mask, step = layout.reader(v)
                assert (layout.pack(m) >> shift) & mask == m.exponent(v) * step
        for m1 in monomials:
            for m2 in monomials:
                assert layout.unpack(layout.pack(m1) + layout.pack(m2)) == m1 * m2

    @pytest.mark.parametrize("e", [2**16, 2**40])
    def test_large_exponents_on_x1(self, e):
        big = Polynomial.variable(SPACE, 1, e) * Fraction(2, 3) + Polynomial.variable(SPACE, 2)
        other = Polynomial.variable(SPACE, 1, e - 1) - Polynomial.variable(SPACE, 3, 2)
        triples = [(1, big, other), (Fraction(-1, 5), big, big)]
        got = product_sum(SPACE, triples)
        assert got == product_sum_reference(SPACE, triples)
        assert Monomial([(1, 2 * e)]) in got.terms
        assert Monomial([(1, 2 * e - 1)]) in got.terms

    def test_negative_and_fractional_x0_exponents(self):
        x0 = [Polynomial.variable(AMB, 0, e) for e in (-2, Fraction(-3, 2), Fraction(1, 3))]
        x1, xinf = Polynomial.variable(AMB, 1), Polynomial.variable(AMB, AMB.inf, 2)
        p = x0[0] * x1 + x0[1] * xinf * Fraction(1, 2)
        q = x0[2] - x0[1] * x1 * 3
        assert ExponentLayout.fitting(AMB, [*p.terms, *q.terms]).den == 6
        triples = [(1, p, q), (Fraction(2, 7), q, q)]
        got = product_sum(AMB, triples)
        assert got == product_sum_reference(AMB, triples)
        assert {m.exponent(0) for m in got.terms} == {
            Fraction(-5, 3), Fraction(-7, 2), -3, Fraction(-7, 6), Fraction(2, 3)
        }
        for m in got.terms:
            assert m.exps == Monomial(m.items()).exps  # x0 normalized


# -- the int-numerator form against plain {monomial: Fraction} dicts ---------

ONE = Monomial()


def ref_collect(pairs) -> dict:
    """Sum the Fractions of repeated monomials and drop the zeros."""
    out: dict = {}
    for m, c in pairs:
        out[m] = out.get(m, 0) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    return ref_collect((m1 * m2, c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())


def ref_partial(a: dict, v: int) -> dict:
    return ref_collect(
        (Monomial([*m.items(), (v, -1)]), c * m.exponent(v))
        for m, c in a.items()
        if m.exponent(v)
    )


def ref_substitute(a: dict, bindings: dict) -> dict:
    """Each term multiplied out factor by factor; x0 is bound to 1 only."""
    total: list = []
    for m, c in a.items():
        acc = {ONE: c}
        for v, e in m.items():
            if v not in bindings:
                factor = {Monomial([(v, e)]): 1}
            elif v == 0:
                factor = {ONE: 1}
            else:
                factor = {ONE: 1}
                for _ in range(e):
                    factor = ref_mul(factor, bindings[v])
            acc = ref_mul(acc, factor)
        total.extend(acc.items())
    return ref_collect(total)


def assert_canonical(p: Polynomial) -> None:
    """One positive int denominator and nonzero int numerators, coprime."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert all(type(c) is Fraction for c in p.terms.values())


@st.composite
def reference_pairs(draw):
    """(space, a, b): two {monomial: Fraction} dicts on one base or ambient
    space over a shared pool of monomials, whose x0 exponents may be
    negative or fractional; half of the time b starts from -a, so that
    sums cancel in part or in full."""
    space = draw(st.sampled_from([SPACE, AMB, ambient_space(4)]))
    x0_exps = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    pool = [
        Monomial([(v, draw(x0_exps if v == 0 else st.integers(0, 3))) for v in space.variables])
        for _ in range(draw(st.integers(1, 5)))
    ]

    def drawn() -> dict:
        picks = draw(st.lists(st.tuples(st.sampled_from(pool), rationals), max_size=4))
        return ref_collect(picks)

    a = drawn()
    b = drawn()
    if draw(st.booleans()):
        b = ref_collect([*((m, -c) for m, c in a.items()), *b.items()])
    return space, a, b


scalars = st.one_of(st.just(0), st.integers(-6, 6), rationals)


class TestIntNumerators:
    @given(reference_pairs(), scalars)
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_matches_fraction_reference(self, case, k):
        space, a, b = case
        p, q = Polynomial(space, a), Polynomial(space, b)
        neg_b = {m: -c for m, c in b.items()}
        expected = {
            "sum": ref_collect([*a.items(), *b.items()]),
            "difference": ref_collect([*a.items(), *neg_b.items()]),
            "product": ref_mul(a, b),
            "scaled": ref_collect((m, c * k) for m, c in a.items()),
        }
        got = {"sum": p + q, "difference": p - q, "product": p * q, "scaled": p * k}
        for name, value in got.items():
            assert value.terms == expected[name], name
            assert_canonical(value)
        assert (k * p).terms == expected["scaled"]
        assert (p == q) == (a == b)
        assert (p - q).is_zero == (a == b)
        assert (p + q == 0) == (not expected["sum"])

    @given(reference_pairs(), st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_partial_matches_fraction_reference(self, case, i):
        space, a, _ = case
        v = space.variables[min(i, len(space.variables) - 1)]
        got = Polynomial(space, a).partial(v)
        assert got.terms == ref_partial(a, v)
        assert_canonical(got)

    @given(reference_pairs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_substitute_matches_fraction_reference(self, case, data):
        space, a, b = case
        # bind the last variable (xinf on an ambient space) to a polynomial
        # free of it, and x0 to 1: fractional powers of 1 are 1
        last = space.variables[-1]
        free = ref_collect((m, c) for m, c in b.items() if not m.exponent(last))
        free = ref_collect(
            (Monomial([(v, e) for v, e in m.items() if v]), c) for m, c in free.items()
        )
        bindings = {last: free}
        if space.kind == "ambient":
            bindings[0] = {ONE: 1}
        if data.draw(st.booleans()):
            bindings[space.variables[1]] = {ONE: data.draw(rationals)}
        got = Polynomial(space, a).substitute(
            {v: Polynomial(space, t) for v, t in bindings.items()}
        )
        assert got.terms == ref_substitute(a, bindings)
        assert_canonical(got)

    @given(reference_pairs())
    @settings(max_examples=100, deadline=None)
    def test_equal_values_store_equal_ints(self, case):
        space, a, b = case
        p, q = Polynomial(space, a), Polynomial(space, b)
        assert_canonical(p)
        paths = [
            (p * 3) * Fraction(1, 3),
            (p * Fraction(-5, 7)) * Fraction(-7, 5),
            (p + q) - q,
            -(-p),
            Polynomial._sum(space, [p, q, -q]),
            Polynomial.from_json_obj(space, p.to_json_obj()),
            Polynomial(space, {m: c * 6 for m, c in a.items()}) * Fraction(1, 6),
        ]
        for other in paths:
            assert other == p
            assert (other.den, other.nums) == (p.den, p.nums)

    def test_cancelling_to_zero(self):
        x1 = Polynomial.variable(AMB, 1)
        half = Polynomial.variable(AMB, 0, Fraction(-1, 2))
        p = x1 * Fraction(1, 6) + half * Fraction(5, 4)
        for zero in (p - p, p + (-p), p * 0, 0 * p, p * Fraction(3, 2) - p * 3 * Fraction(1, 2)):
            assert zero.is_zero and zero == 0
            assert (zero.den, zero.nums) == (1, {})
        # the 1/6 and the 5/4 leave together: the rest is over 1
        assert (p + x1 * Fraction(5, 6) - half * Fraction(5, 4)).den == 1
        # d/dx0 of x0^(-1/2) halves once, over the lcm of 4 and 2
        assert half.partial(0) == Polynomial.variable(AMB, 0, Fraction(-3, 2)) * Fraction(-1, 2)
        assert (p.partial(0).den, p.partial(0).nums) == (8, {Monomial([(0, Fraction(-3, 2))]): -5})

    def test_coefficient_readout(self):
        p = poly_from([([(1, 2)], Fraction(2, 3)), ([], 4)])
        assert (p.den, p.nums) == (3, {Monomial([(1, 2)]): 2, ONE: 12})
        assert p.coefficient(Monomial([(1, 2)])) == Fraction(2, 3)
        assert p.coefficient(Monomial([(2, 1)])) == 0
        assert p.leading_term() == (Monomial([(1, 2)]), Fraction(2, 3))
        assert Polynomial.constant(SPACE, Fraction(-3, 4)).constant_value() == Fraction(-3, 4)
        assert type(Polynomial.constant(SPACE, 5).constant_value()) is Fraction


class TestLeibnizTables:
    def test_divisors_are_built_once_per_exponent_vector(self):
        m = Monomial([(1, 2), (3, 1)])
        table = m.divisors()
        assert isinstance(table, tuple)
        assert Monomial([(3, 1), (1, 2)]).divisors() is table
        assert sorted(w for _, _, w in table) == [1, 1, 1, 1, 2, 2]
        for gamma, rest, _ in table:
            assert gamma * rest == m

    def test_layout_tables_are_shared_by_calls(self):
        alpha = Monomial([(0, 2), (1, 1)])
        layouts = [ExponentLayout.fitting(AMB, [alpha, Monomial([(0, Fraction(1, 3))])])
                   for _ in range(2)]
        first, second = (layout.leibniz(alpha) for layout in layouts)
        assert first is second
        assert [(layouts[0].unpack(g), moves) for g, moves, _ in first] == [
            (gamma, tuple(gamma.items())) for gamma, _, _ in alpha.divisors()
        ]


class TestSerialization:
    @given(polynomials())
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip(self, p):
        assert Polynomial.from_json_obj(SPACE, p.to_json_obj()) == p

    @given(ambient_polynomials())
    @settings(max_examples=60, deadline=None)
    def test_ambient_json_round_trip(self, p):
        text = json.dumps(p.to_json_obj())
        assert Polynomial.from_json_obj(p.space, json.loads(text)) == p

    def test_rational_formats(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert format_rational(Fraction(-5, 3)) == "-5/3"

    def test_text_rendering(self):
        p = poly_from([([(1, 2)], Fraction(1, 2)), ([], -1)])
        assert p.text() == "1/2*x1^2 - 1"
