"""Weyl-algebra operators: composition, factorization, reconstruction."""

from __future__ import annotations

import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilapsym import checks
from bilapsym.ambient import ambient_laplacian, r_polynomial
from bilapsym.exactpoly import Monomial, Polynomial, VarSpace, base_space, collect
from bilapsym.tensorcalc import PairSkewTensor
from bilapsym.weylop import (
    DiffOp,
    NotDivisibleError,
    apply,
    bilaplacian,
    commutator,
    compose,
    compose_sum,
    constant_symbol,
    divide_by_constant,
    euler_op,
    is_symmetry,
    laplacian,
    operator_from_action,
    right_factor,
    symbol_division,
)
from test_exactpoly import product_sum_reference
from test_tensorcalc import normal_ordered_op

N = 3
SPACE = base_space(N)


def var(v):
    return Polynomial.variable(SPACE, v)


def random_poly(rng, degree=2):
    terms = {}
    for _ in range(4):
        pairs = tuple(
            (v, rng.randint(0, degree)) for v in SPACE.variables if rng.random() < 0.7
        )
        terms[Monomial(tuple((v, e) for v, e in pairs if e))] = Fraction(
            rng.randint(-4, 4)
        )
    return Polynomial(SPACE, terms)


def random_op(rng, order=2):
    terms = {}
    alphas = [(), (1,), (2,), (3,), (1, 1), (1, 2), (2, 3), (3, 3)]
    for alpha in alphas:
        if len(alpha) <= order and rng.random() < 0.5:
            terms[alpha] = random_poly(rng)
    return DiffOp(SPACE, terms)


def non_monic_divisor(n):
    """3/5 Lap + d_1: leading coefficient 3/5, and a first-order tail."""
    return laplacian(n) * Fraction(3, 5) + DiffOp.partial_op(base_space(n), 1)


def divide_polynomial_values(terms, divisor):
    """The division loop by a constant symbol on Polynomial values, one
    polynomial per derivative key: the reference for ``symbol_division``,
    which divides one x-monomial slice of int numerators at a time."""
    lead = max(divisor)
    tail = dict(divisor)
    inverse = 1 / Fraction(tail.pop(lead))
    work, quotient, remainder = dict(terms), {}, {}
    while work:
        alpha = max(work)
        coeff = work.pop(alpha)
        shift = alpha.divide(lead)
        if shift is None:
            remainder[alpha] = coeff
            continue
        quotient[shift] = coeff = coeff * inverse
        for beta, k in tail.items():
            key = shift * beta
            value = work.get(key, Polynomial.zero(SPACE)) - coeff * k
            if value:
                work[key] = value
            else:
                work.pop(key, None)
    return quotient, remainder


class TestApplyCompose:
    def test_partial_acts(self):
        d1 = DiffOp.partial_op(SPACE, 1)
        p = var(1) * var(1) * var(2)
        assert apply(d1, p) == var(1) * var(2) * 2

    def test_laplacian_on_square(self):
        xx = var(1) * var(1) + var(2) * var(2) + var(3) * var(3)
        assert apply(laplacian(N), xx) == Polynomial.constant(SPACE, 2 * N)

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_compose_matches_sequential_application(self, seed):
        rng = random.Random(seed)
        a, b = random_op(rng), random_op(rng)
        p = random_poly(rng)
        expected = apply_by_partials(a, apply_by_partials(b, p))
        assert apply_by_partials(compose(a, b), p) == expected
        assert apply(compose(a, b), p) == expected

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_compose_is_associative(self, seed):
        rng = random.Random(seed)
        a, b, c = random_op(rng, 1), random_op(rng, 1), random_op(rng, 1)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_canonical_commutation(self):
        d1 = DiffOp.partial_op(SPACE, 1)
        x1 = DiffOp.multiplication(var(1))
        assert commutator(d1, x1) == DiffOp.identity(SPACE)

    def test_euler_commutator_grades(self):
        e = euler_op(SPACE)
        assert commutator(e, laplacian(N)) == laplacian(N) * Fraction(-2)

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_commutator_matches_the_two_products(self, seed):
        rng = random.Random(seed)
        a, b = random_op(rng, order=2), random_op(rng, order=2)
        p = DiffOp.multiplication(random_poly(rng))
        for x, y in ((a, b), (a, p), (p, a)):
            assert commutator(x, y) == compose(x, y) - compose(y, x)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_commutator_of_a_fourth_order_ambient_operator(self, seed):
        # V, the normal-ordered operator of a random four-pair tensor at
        # n = 3, also with a fractional x0 power in its coefficients,
        # against the multiplication by r.
        # The first-order Leibniz terms of [V, r] cancel by the skewness of
        # the pairs, so a generic fourth-order operator is checked as well
        rng = random.Random(seed)
        pairs = list(itertools.combinations(range(5), 2))
        comps = {
            tuple(i for pair in rng.choices(pairs, k=4) for i in pair):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(8)
        }
        v = normal_ordered_op(PairSkewTensor(3, 4, comps))
        space = v.space
        generic = DiffOp(space, {
            tuple(sorted(rng.choices(space.variables, k=order))): Polynomial(space, {
                Monomial([(0, Fraction(rng.randint(-3, 3), 2)),
                          *((u, rng.randint(0, 2)) for u in range(1, 5))]):
                    Fraction(rng.randint(1, 5), rng.randint(1, 3))
            })
            for order in (0, 1, 2, 3, 4, 4)
        })
        r = DiffOp.multiplication(r_polynomial(3))
        assert v.order == 4 and generic.order == 4
        for op in (v, v * Polynomial.variable(space, 0, Fraction(-1, 2)), generic):
            assert commutator(op, r) == compose(op, r) - compose(r, op)
            assert commutator(r, op) == compose(r, op) - compose(op, r)

    def test_product_with_operator_raises(self):
        with pytest.raises(TypeError):
            laplacian(N) * laplacian(N)


class TestFactorization:
    def test_bilaplacian_is_laplacian_squared(self):
        for n in range(3, 7):
            assert bilaplacian(n) == compose(laplacian(n), laplacian(n))

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_right_factor_round_trip(self, seed):
        rng = random.Random(seed)
        delta = random_op(rng, order=1)
        d = compose(delta, bilaplacian(N))
        recovered = right_factor(d, bilaplacian(N))
        assert recovered == delta
        assert compose(recovered, bilaplacian(N)) == d

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_symbol_division_identity(self, seed):
        rng = random.Random(seed)
        d = random_op(rng, order=2)
        q, rem = symbol_division(d, laplacian(N))
        assert compose(q, laplacian(N)) + rem == d

    @given(
        st.integers(0, 2**30),
        st.sampled_from([laplacian, bilaplacian, non_monic_divisor]),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_division_by_a_constant_symbol(self, seed, operator, integral):
        # the one division loop on int values (the symmetry rows), and
        # symbol_division on int slices against the loop on Polynomial values
        rng = random.Random(seed)
        r = operator(N)
        lead = max(r.terms)
        divisor = constant_symbol(r)
        keys = [
            Monomial.of_indices(sorted(rng.choices(SPACE.variables, k=rng.randint(0, 7))))
            for _ in range(6)
        ]
        if not integral:
            d = DiffOp(SPACE, {
                key.indices(): random_poly(rng) * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for key in keys
            })
            quotient, remainder = symbol_division(d, r)
            expected = divide_polynomial_values(d.terms, divisor)
            assert (quotient.terms, remainder.terms) == expected
            assert compose(quotient, r) + remainder == d
            assert all(key.divide(lead) is None for key in remainder.terms)
            return
        terms = {key: value for key in keys if (value := rng.randint(-9, 9))}
        quotient, remainder = divide_by_constant(terms, divisor)
        product = (
            (shift * beta, value * c)
            for shift, value in quotient.items()
            for beta, c in divisor.items()
        )
        assert collect(itertools.chain(product, remainder.items())) == terms
        assert all(key.divide(lead) is None for key in remainder)
        if divisor[lead] == 1:
            assert all(type(v) is int for v in (*quotient.values(), *remainder.values()))

    def test_is_symmetry_matches_the_full_product_route(self):
        # the certificate through the commutator is the right factor of
        # bilap o D itself, on every canonical operator at n = 3
        bilap = bilaplacian(N)
        operators = [op for _, op in checks._canonical_operators(N)]
        assert len(operators) == 59
        for op in operators:
            assert is_symmetry(op) == right_factor(compose(bilap, op), bilap)

    @pytest.mark.parametrize(
        "alpha, exps", [((1, 1), [(1, 1)]), ((), [(1, 2)])], ids=["x1d1d1", "x1^2"]
    )
    def test_is_symmetry_rejects_non_symmetries(self, alpha, exps):
        op = DiffOp(SPACE, {alpha: Polynomial(SPACE, {Monomial(exps): 1})})
        assert is_symmetry(op) is None
        with pytest.raises(NotDivisibleError):
            right_factor(compose(bilaplacian(N), op), bilaplacian(N))

    def test_not_divisible(self):
        d = DiffOp.partial_op(SPACE, 1)
        with pytest.raises(NotDivisibleError):
            right_factor(d, laplacian(N))

    @pytest.mark.parametrize("d, r", [
        (bilaplacian(3), ambient_laplacian(3)),
        (ambient_laplacian(3), laplacian(3)),
        (bilaplacian(3), laplacian(4)),
    ], ids=["base-by-ambient", "ambient-by-base", "n3-by-n4"])
    def test_divisor_from_another_space_raises(self, d, r):
        for divide in (symbol_division, right_factor):
            with pytest.raises(ValueError, match="shape mismatch"):
                divide(d, r)

    def test_right_factor_requires_constant_coefficients(self):
        r = DiffOp(SPACE, {(1,): var(1)})
        with pytest.raises(ValueError):
            right_factor(laplacian(N), r)

    def test_is_symmetry_accepts_identity_and_rejects_coordinate(self):
        assert is_symmetry(DiffOp.identity(SPACE)) == DiffOp.identity(SPACE)
        assert is_symmetry(DiffOp.multiplication(var(1))) is None


class TestCoefficient:
    def test_indices_outside_the_space_are_zero(self):
        op = laplacian(N) + DiffOp.identity(SPACE)
        assert op.coefficient((1, 1)) == Polynomial.one(SPACE)
        for alpha in [(0,), (N + 1,), (1, N + 1), (10**5,)]:
            assert op.coefficient(alpha).is_zero
        with pytest.raises(ValueError):
            op.coefficient((-1,))

    def test_large_index_allocates_little(self):
        op = laplacian(N)
        tracemalloc.start()
        try:
            op.coefficient((10**5,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestOperatorFromAction:
    @given(st.integers(0, 2**30))
    @settings(max_examples=15, deadline=None)
    def test_reconstructs_polynomial_operators(self, seed):
        rng = random.Random(seed)
        op = random_op(rng, order=2)
        rebuilt = operator_from_action(SPACE, lambda p: apply(op, p), order=2)
        assert rebuilt == op

    def test_rejects_non_operator_action(self):
        # squaring is not linear, hence not realized by any operator
        with pytest.raises(ValueError):
            operator_from_action(SPACE, lambda p: p * p, order=2)


x0_exps = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polynomials_on(draw, space, min_size=0, free_of=None):
    """A random polynomial on ``space`` (without the variable ``free_of``)
    whose coefficients have denominators up to 7 and whose monomials may
    carry fractional and negative powers of the scaling variable x0."""
    variables = [v for v in space.variables if v != free_of]
    coeffs = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 7))
    terms = {}
    for _ in range(draw(st.integers(min_size, 3))):
        exps = ((v, draw(x0_exps if v == 0 else st.integers(0, 2))) for v in variables)
        terms[Monomial(exps)] = draw(coeffs)
    return Polynomial(space, terms)


@st.composite
def operators_on(draw, space):
    """A random operator of order up to 3 with ``polynomials_on`` coefficients."""
    alphas = st.lists(st.sampled_from(space.variables), max_size=3).map(
        lambda a: tuple(sorted(a))
    )
    return DiffOp(
        space,
        {draw(alphas): draw(polynomials_on(space)) for _ in range(draw(st.integers(0, 4)))},
    )


spaces = st.builds(VarSpace, st.sampled_from(["base", "ambient"]), st.integers(3, 5))
operators = spaces.flatmap(operators_on)


@st.composite
def cancelling_pairs(draw):
    """(q d_v, x_v^w C d^beta d_v - w x_v^(w-1) C d^beta) with C free of x_v:
    the two d^beta d_v terms of the product cancel, for any exponent w of
    x0 and any w >= 1 elsewhere."""
    space = draw(spaces)
    v = draw(st.sampled_from(space.variables))
    w = draw(x0_exps if v == 0 else st.integers(1, 3))
    q = draw(polynomials_on(space, min_size=1))
    c = draw(polynomials_on(space, min_size=1, free_of=v))
    beta = tuple(sorted(draw(st.lists(st.sampled_from(space.variables), max_size=2))))
    cancelled = tuple(sorted(beta + (v,)))
    b = DiffOp(space, {
        cancelled: c * Polynomial.variable(space, v, w),
        beta: c * Polynomial.variable(space, v, w - 1) * -w,
    })
    return DiffOp(space, {(v,): q}), b, cancelled


def differentiate(p: Polynomial, gamma: Monomial) -> Polynomial:
    """d^gamma p as a chain of ``Polynomial.partial``."""
    for v in gamma.indices():
        p = p.partial(v)
    return p


def apply_by_partials(op: DiffOp, p: Polynomial) -> Polynomial:
    """op applied to p: sum_alpha c_alpha d^alpha(p), with each product
    taken term by term in Fractions."""
    return product_sum_reference(
        op.space, [(1, c, differentiate(p, alpha)) for alpha, c in op.terms.items()]
    )


def compose_by_polynomials(a: DiffOp, b: DiffOp) -> DiffOp:
    """The Leibniz product built from Polynomial derivatives: C(alpha, gamma)
    ca d^gamma(cb) d^(alpha - gamma + beta) for each pair of terms, with each
    product taken term by term in Fractions."""
    a._check_like(b)

    def terms():
        for alpha, ca in a.terms.items():
            leibniz = alpha.divisors()
            for beta, cb in b.terms.items():
                for gamma, rest, weight in leibniz:
                    dcb = differentiate(cb, gamma)
                    if not dcb.is_zero:
                        yield rest * beta, product_sum_reference(a.space, [(weight, ca, dcb)])

    return DiffOp._collect(a.space, terms())


def assert_composes_like_reference(a, b):
    out = compose(a, b)
    assert out == compose_by_polynomials(a, b)
    for coeff in out.terms.values():
        for m, c in coeff.terms.items():
            assert type(c) is Fraction
            assert list(map(type, m.exps)) == list(map(type, Monomial(m.items()).exps))
    return out


class TestComposeReference:
    @settings(max_examples=150, deadline=None)
    @given(spaces.flatmap(lambda s: st.tuples(operators_on(s), operators_on(s))))
    def test_matches_polynomial_products(self, pair):
        assert_composes_like_reference(*pair)

    @settings(max_examples=60, deadline=None)
    @given(cancelling_pairs())
    def test_cancelling_terms_drop_out(self, case):
        a, b, cancelled = case
        out = assert_composes_like_reference(a, b)
        assert out.coefficient(cancelled).is_zero
        assert out.terms

    @settings(max_examples=100, deadline=None)
    @given(spaces.flatmap(lambda s: st.tuples(operators_on(s), polynomials_on(s))))
    @example((
        DiffOp(VarSpace("ambient", 3), {
            (0, 0): Polynomial.variable(VarSpace("ambient", 3), 0, Fraction(-3, 2)),
            (0, 1): Polynomial.variable(VarSpace("ambient", 3), 4, 2),
        }),
        Polynomial(VarSpace("ambient", 3), {
            Monomial([(0, Fraction(1, 3)), (1, 2)]): Fraction(2, 5),
            Monomial([(0, -2), (4, 1)]): 3,
        }),
    ))
    def test_apply_matches_the_chain_of_partials(self, case):
        # and the d^0 coefficient of the kernel's product op o p
        op, p = case
        out = apply(op, p)
        assert out == apply_by_partials(op, p)
        assert out == compose(op, DiffOp.multiplication(p)).coefficient(())

    def test_apply_differentiates_each_prefix_once(self, monkeypatch):
        # the ten alpha of the squared Laplacian at n = 4 have 28 distinct
        # nonempty prefixes, where a chain of partials per alpha takes 40
        op, space = bilaplacian(4), base_space(4)
        rng = random.Random(4)
        p = Polynomial(space, {
            Monomial([(v, rng.randint(1, 5)) for v in rng.sample(range(1, 5), 3)]):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(8)
        })
        expected = apply_by_partials(op, p)
        calls = []
        partial = Polynomial.partial
        monkeypatch.setattr(
            Polynomial, "partial", lambda self, v: calls.append(v) or partial(self, v)
        )
        assert apply(op, p) == expected
        assert len(calls) == 28

    @pytest.mark.parametrize("w", [-2, Fraction(-3, 2), 0, Fraction(1, 2), 2])
    def test_d0_past_a_power_of_x0(self, w):
        space = VarSpace("ambient", 3)
        power, lowered = (Polynomial.variable(space, 0, e) for e in (w, w - 1))
        out = compose(DiffOp.partial_op(space, 0), DiffOp.multiplication(power))
        assert out == DiffOp(space, {(0,): power, (): lowered * w})


scalars = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def operator_groups(draw):
    """(space, [(a, [(b, c), ...]), ...]) on one space: coefficients with
    denominators up to 7 that differ between groups, zero coefficients,
    empty groups, operands repeated across groups, and groups whose right
    factors cancel to zero."""
    space = draw(spaces)
    pool: list[DiffOp] = []

    def operand():
        # an operand drawn earlier comes back as the same object
        if pool and draw(st.booleans()):
            return pool[draw(st.integers(0, len(pool) - 1))]
        pool.append(draw(operators_on(space)))
        return pool[-1]

    groups = []
    for _ in range(draw(st.integers(0, 3))):
        a = operand()
        rights = [(operand(), draw(scalars)) for _ in range(draw(st.integers(0, 3)))]
        if rights and draw(st.booleans()):
            rights += [(b, -c) for b, c in rights]
        groups.append((a, rights))
    return space, groups


def compose_sum_reference(space, groups) -> DiffOp:
    return DiffOp._sum(space, (compose(a, b) * c for a, rights in groups for b, c in rights))


class TestComposeSum:
    @settings(max_examples=60, deadline=None)
    @given(operator_groups())
    def test_matches_sum_of_products(self, case):
        space, groups = case
        out = compose_sum(space, iter(groups))
        assert out == compose_sum_reference(space, groups)
        for coeff in out.terms.values():
            assert all(type(c) is Fraction for c in coeff.terms.values())

    def test_denominator_growth_rescales_earlier_groups(self):
        space = VarSpace("ambient", 3)
        x0, x1 = Polynomial.variable(space, 0, Fraction(-1, 2)), Polynomial.variable(space, 1)
        a = DiffOp(space, {(1,): x0 * Fraction(1, 2)})
        b = DiffOp(space, {(): x1 * Fraction(1, 3), (0,): x0})
        groups = [(a, [(b, 1)]), (b, [(a, Fraction(2, 7)), (b, Fraction(-1, 5))])]
        assert compose_sum(space, groups) == compose_sum_reference(space, groups)

    def test_fresh_operands_never_share_a_cache_entry(self):
        # each right factor is dropped before the next one is allocated, so
        # the allocator hands the next one the same address: a numerator
        # cache keyed by an id it does not keep alive would hand each group
        # the numerators of the first
        left = DiffOp.partial_op(SPACE, 1)
        rights = [random_op(random.Random(k)) for k in range(6)]

        def groups():
            factors = []
            for b in rights:
                factors.clear()
                factors.append((DiffOp._make(SPACE, b.terms), 1))
                yield left, factors

        expected = compose_sum_reference(SPACE, [(left, [(b, 1)]) for b in rights])
        assert compose_sum(SPACE, groups()) == expected

    def test_cancelling_groups_give_zero(self):
        rng = random.Random(3)
        a, b = random_op(rng), random_op(rng)
        assert compose_sum(SPACE, [(a, [(b, Fraction(2, 3))]), (a, [(b, Fraction(-2, 3))])]).is_zero
        assert compose_sum(SPACE, [(a, [(b, 1), (b, -1)]), (b, [])]).is_zero
        assert compose_sum(SPACE, []).is_zero

    @pytest.mark.parametrize("other", [base_space(4), VarSpace("ambient", N)])
    @pytest.mark.parametrize("slot", ["left", "right", "zero coefficient"])
    def test_mismatched_space_raises(self, other, slot):
        alien = DiffOp.identity(other)
        group = {
            "left": (alien, [(laplacian(N), 1)]),
            "right": (laplacian(N), [(alien, 1)]),
            "zero coefficient": (laplacian(N), [(laplacian(N), 1), (alien, 0)]),
        }[slot]
        with pytest.raises(ValueError):
            compose_sum(SPACE, [group])

    def test_compose_checks_its_right_operand(self):
        with pytest.raises(ValueError):
            compose(laplacian(N), DiffOp.identity(base_space(4)))
        with pytest.raises(TypeError):
            compose(laplacian(N), var(1))


class TestPackedKeys:
    """compose and compose_sum pack coefficient exponents and derivative
    keys into ints of one layout per call; these cases pin that layout
    against the Polynomial-level references."""

    @pytest.mark.parametrize("space", [SPACE, VarSpace("ambient", N)])
    def test_derivative_keys_set_the_slot_width(self, space):
        # constant coefficients alone would fit one bit per slot, which
        # d_1^5 would overflow into the next slot
        c = DiffOp.multiplication(Polynomial.constant(space, Fraction(3, 2)))
        d15 = DiffOp(space, {(1,) * 5: 1, (2, 2): -1})
        for a, b in ((c, d15), (d15, c), (d15, d15)):
            assert_composes_like_reference(a, b)
        assert compose(c, d15) == d15 * Fraction(3, 2)
        groups = [(c, [(d15, 1)]), (d15, [(c, Fraction(1, 3)), (d15, -1)])]
        assert compose_sum(space, groups) == compose_sum_reference(space, groups)

    def test_identity_times_bilaplacian(self):
        ident = DiffOp.identity(SPACE)
        assert compose(ident, bilaplacian(N)) == bilaplacian(N)
        assert compose(bilaplacian(N), ident) == bilaplacian(N)

    @pytest.mark.parametrize("e", [2**16, 2**40])
    def test_large_exponents_on_x1(self, e):
        a = DiffOp(SPACE, {(1, 1): Polynomial.variable(SPACE, 1, e) * Fraction(1, 3), (2,): var(3)})
        b = DiffOp(SPACE, {(1,): Polynomial.variable(SPACE, 1, e + 1), (): var(2)})
        for left, right in ((a, b), (b, a), (a, a)):
            assert_composes_like_reference(left, right)
        out = compose(a, b)
        # d_1^2 past x_1^(e+1): the falling factorial (e+1) e
        assert out.coefficient((1,)).terms[Monomial([(1, 2 * e - 1)])] == Fraction((e + 1) * e, 3)
        groups = [(a, [(b, Fraction(2, 5)), (a, 1)]), (b, [(b, -1)])]
        assert compose_sum(SPACE, groups) == compose_sum_reference(SPACE, groups)

    def test_negative_and_fractional_x0_exponents(self):
        space = VarSpace("ambient", N)
        x0 = [Polynomial.variable(space, 0, e) for e in (-3, Fraction(-3, 2), Fraction(2, 3))]
        xinf = Polynomial.variable(space, space.inf)
        a = DiffOp(space, {(0, 0): x0[0] * xinf, (0, 1): x0[2], (): x0[1]})
        b = DiffOp(space, {(0,): x0[1] * Polynomial.variable(space, 1), (space.inf,): x0[2] * 5})
        for left, right in ((a, b), (b, a), (a, a)):
            assert_composes_like_reference(left, right)
        groups = [(a, [(b, 1), (a, Fraction(-1, 4))]), (b, [(a, 2)])]
        out = compose_sum(space, groups)
        assert out == compose_sum_reference(space, groups)
        x0_exps = {m.exponent(0) for coeff in out.terms.values() for m in coeff.terms}
        assert any(type(e) is int and e < 0 for e in x0_exps)
        assert any(type(e) is Fraction and e < 0 for e in x0_exps)
        assert commutator(a, b) == compose(a, b) - compose(b, a)


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(operators)
    def test_json_round_trip(self, op):
        assert DiffOp.from_json_obj(op.to_json_obj()) == op

    @settings(max_examples=60, deadline=None)
    @given(operators)
    def test_json_text_round_trip(self, op):
        # base and ambient operators, with negative and fractional x0
        # exponents in the ambient coefficients, through the JSON text
        back = DiffOp.from_json_obj(json.loads(json.dumps(op.to_json_obj())))
        assert back == op and back.space == op.space

    def test_text_contains_derivatives(self):
        assert "d1" in DiffOp.partial_op(SPACE, 1).text()
