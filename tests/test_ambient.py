"""Cone geometry: the flat ambient space, its section, realization of
constant tensors as fields, and exact operator induction."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilapsym.ambient import (
    ambient_bilaplacian,
    ambient_laplacian,
    ambient_op_V,
    ambient_op_W,
    ambient_op_gg,
    induce,
    lie_to_ckv,
    preserves_cone_ideal,
    r_polynomial,
    realize_ckt,
    realize_gckt,
    section_frame,
    section_polynomial,
    section_substitution,
)
from bilapsym.checks import SUITES
from bilapsym.exactpoly import Monomial, Polynomial, ambient_space, base_space, rat
from bilapsym.symalg import (
    bilaplacian_weight,
    canonical_DV,
    canonical_DW,
    dilation_element,
    laplacian_weight,
    pair_tensor,
    rotation_element,
    so_basis,
    so_basis_element,
    special_conformal_element,
    translation_element,
)
from bilapsym.tensorcalc import (
    PairSkewTensor,
    SymAmbientTensor,
    SymTensorField,
    ambient_indices,
    ambient_lower,
    bullet_extract,
    nondecreasing_tuples,
    symmetrize,
)
from bilapsym.weylop import (
    DiffOp,
    apply,
    bilaplacian,
    compose,
    laplacian,
    operator_from_action,
)
from test_tensorcalc import sym_tensors


def base_square(n: int, space=None) -> Polynomial:
    """sum_a (x^a)^2 in the given space (default: base)."""
    terms = {Monomial([(a, 2)]): Fraction(1) for a in range(1, n + 1)}
    return Polynomial(space or base_space(n), terms)


def extend_polynomial(f: Polynomial, weight) -> Polynomial:
    """The canonical weight-w homogeneous extension (x0)^w f(x/x0)."""
    w = rat(weight)
    terms = {Monomial([*m.items(), (0, w - m.degree)]): c for m, c in f.terms.items()}
    return Polynomial(ambient_space(f.space.n), terms)


def _ambient_rows(n: int, checks: set[str]) -> list[tuple[str, str, bool]]:
    """The rows of the ambient-identities suite for the named checks."""
    return [row for row in SUITES["ambient-identities"](n, 0, None) if row[0] in checks]


class TestMetricAndCone:
    def test_metric_pairing(self):
        # g_ab (equal to g^ab) is 1 exactly when a is the lowered b
        def pairing(a, b):
            return 1 if a == ambient_lower(3, b) else 0

        assert pairing(0, 4) == 1
        assert pairing(4, 0) == 1
        assert pairing(1, 1) == 1
        assert pairing(0, 0) == 0
        assert pairing(0, 1) == 0
        assert ambient_lower(3, 0) == 4 and ambient_lower(3, 4) == 0
        assert ambient_lower(3, 2) == 2

    def test_r_polynomial_is_quadratic(self):
        r = r_polynomial(3)
        assert r.homogeneous_degree() == 2
        space = ambient_space(3)
        m = Monomial([(0, 1), (space.inf, 1)])
        assert r.terms[m] == 2

    def test_laplacian_hits_r(self):
        for n in (3, 4):
            out = apply(ambient_laplacian(n), r_polynomial(n))
            assert out == Polynomial.constant(ambient_space(n), 2 * n + 4)

    def test_bilaplacian_is_square(self):
        lap = ambient_laplacian(3)
        assert ambient_bilaplacian(3) == compose(lap, lap)

    def test_phipsi_identities(self):
        checks = {"position_null", "position_tangent_orthogonal", "tangent_metric"}
        for n in (3, 4):
            rows = _ambient_rows(n, checks)
            assert len(rows) == 1 + n + n * n
            assert all(ok for _, _, ok in rows)

    def test_cone_identities(self):
        checks = {"laplacian_cone_commutator", "bilaplacian_cone_commutator"}
        for n in (3, 4):
            rows = _ambient_rows(n, checks)
            assert len(rows) == 2
            assert all(ok for _, _, ok in rows)


class TestExtension:
    def test_extend_section_round_trip(self):
        rng = random.Random(7)
        space = base_space(3)
        for _ in range(10):
            terms = {}
            for _ in range(4):
                m = Monomial(
                    [(a, rng.randint(0, 2)) for a in (1, 2, 3)]
                )
                terms[m] = terms.get(m, Fraction(0)) + Fraction(
                    rng.randint(-5, 5)
                )
            f = Polynomial(space, terms)
            w = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            extended = extend_polynomial(f, w)
            assert f.is_zero or extended.homogeneous_degree() == w
            assert section_substitution(extended) == f

    def test_extension_is_homogeneous(self):
        space = base_space(3)
        f = Polynomial.variable(space, 1) * Polynomial.variable(space, 2)
        big = extend_polynomial(f, Fraction(1, 2))
        assert big.homogeneous_degree() == Fraction(1, 2)

    def test_section_kills_cone(self):
        r = r_polynomial(3)
        x1 = Polynomial.variable(ambient_space(3), 1)
        assert section_substitution(r * x1).is_zero


@st.composite
def ambient_polynomials(draw):
    """Random ambient polynomials at n = 3..5: x0 exponents that may be
    negative or fractional, xinf powers up to 4."""
    n = draw(st.integers(3, 5))
    x0 = st.one_of(
        st.integers(-3, 3), st.builds(Fraction, st.integers(-7, 7), st.sampled_from([2, 3]))
    )
    monomials = st.builds(
        lambda e0, base, k: Monomial([(0, e0), *enumerate(base, 1), (n + 1, k)]),
        x0,
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.integers(0, 4),
    )
    values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return Polynomial(ambient_space(n), draw(st.dictionaries(monomials, values, max_size=8)))


class TestSectionSubstitution:
    @settings(max_examples=60, deadline=None)
    @given(ambient_polynomials())
    def test_matches_polynomial_substitution(self, p):
        space = p.space
        binding = base_square(space.n, space) * Fraction(-1, 2)
        reference = p.substitute({0: 1, space.inf: binding})
        got = section_substitution(p)
        assert got.space == base_space(space.n)
        assert got.terms == reference.terms

    def test_rejects_base_polynomial(self):
        with pytest.raises(ValueError):
            section_substitution(Polynomial.one(base_space(3)))


@st.composite
def constant_entries(draw):
    """(n, [(key, value), ...]): keys of up to four ambient indices, in any
    order and possibly repeated, with rational values."""
    n = draw(st.integers(3, 5))
    keys = st.lists(st.integers(0, n + 1), max_size=4).map(tuple)
    values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    return n, draw(st.lists(st.tuples(keys, values), max_size=6))


def reference_frame(n: int):
    """The section frame as Polynomials: phi = (-(x.x)/2, x1..xn, 1), and
    psi[Q] the nonzero (b, psi(b, Q)): -x_b for Q = 0, 1 for Q = b."""
    space = base_space(n)
    xs = [Polynomial.variable(space, b) for b in range(1, n + 1)]
    one = Polynomial.one(space)
    phi = [base_square(n) * Fraction(-1, 2), *xs, one]
    psi = [[(b, -x) for b, x in enumerate(xs, 1)], *([(b, one)] for b in range(1, n + 1)), []]
    return phi, psi


def reference_contraction(n: int, entries) -> Polynomial:
    """sum val * phi[B1] ... phi[Bk] as products of frame Polynomials."""
    phi, _ = reference_frame(n)
    total = Polynomial.zero(base_space(n))
    for key, val in entries:
        term = Polynomial.constant(base_space(n), val)
        for b in key:
            term = term * phi[b]
        total = total + term
    return total


def reference_realization(x: PairSkewTensor) -> SymTensorField:
    """The realization as products of frame Polynomials: phi on the first
    slot of each pair, psi on the second, symmetrized."""
    n, space = x.n, base_space(x.n)
    phi, psi = reference_frame(n)
    raw = {}
    for full, val in x.ordered_entries():
        prefix = Polynomial.constant(space, val)
        for b in full[0::2]:
            prefix = prefix * phi[b]
        for choice in itertools.product(*(psi[q] for q in full[1::2])):
            term = prefix
            for _, factor in choice:
                term = term * factor
            bs = tuple(b for b, _ in choice)
            raw[bs] = raw.get(bs, Polynomial.zero(space)) + term
    return symmetrize(n, x.pair_count, raw)


@st.composite
def pair_tensors(draw):
    """Sparse constant k-pair tensors, k = 1..3, at n = 3, 4 with rational
    components."""
    n = draw(st.sampled_from([3, 4]))
    k = draw(st.integers(1, 3))
    index = st.integers(0, n + 1)
    pair = st.tuples(index, index).filter(lambda p: p[0] != p[1]).map(sorted)
    keys = st.lists(pair, min_size=k, max_size=k).map(lambda ps: tuple(i for p in ps for i in p))
    values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    return PairSkewTensor(n, k, draw(st.dictionaries(keys, values, max_size=3)))


def every_ordering(w: SymAmbientTensor):
    """(key, w.get(key)) at every ordered key with a nonzero component."""
    keys = itertools.product(ambient_indices(w.n), repeat=w.valency)
    return [(key, w.get(key)) for key in keys if w.get(key)]


class TestSectionFrame:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_frame_matches_the_polynomial_reference(self, n):
        assert section_frame(n) == reference_frame(n)

    @settings(max_examples=40, deadline=None)
    @given(constant_entries())
    def test_section_polynomial_matches_the_product_reference(self, case):
        n, entries = case
        assert section_polynomial(n, entries) == reference_contraction(n, entries)

    @settings(max_examples=40, deadline=None)
    @given(pair_tensors())
    def test_realize_ckt_matches_the_product_reference(self, x):
        assert realize_ckt(x) == reference_realization(x)

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(st.sampled_from([3, 4]), st.integers(0, 4)).flatmap(
        lambda shape: sym_tensors("ambient", *shape)
    ))
    def test_realize_gckt_matches_the_product_reference(self, w):
        expected = reference_contraction(w.n, every_ordering(w))
        assert realize_gckt(w) == SymTensorField(w.n, 0, {(): expected})

    @pytest.mark.parametrize("n", [3, 4])
    def test_quartic_contracts_every_ordering(self, n):
        # dense tensors of valency 2 and 4, each ordered key contracted once
        rng = random.Random(n)
        for valency in (2, 4):
            keys = nondecreasing_tuples(ambient_indices(n), valency)
            z = SymAmbientTensor(n, valency, {key: Fraction(rng.randint(-3, 3)) for key in keys})
            every = section_polynomial(n, every_ordering(z))
            assert realize_gckt(z) == SymTensorField(n, 0, {(): every})


class TestRealization:
    def test_dilation_field(self):
        f = lie_to_ckv(dilation_element(3))
        space = base_space(3)
        for a in (1, 2, 3):
            assert f.get((a,)) == Polynomial.variable(space, a)

    def test_translation_field(self):
        f = lie_to_ckv(translation_element(3, 1))
        space = base_space(3)
        assert f.get((1,)) == Polynomial.one(space)
        assert f.get((2,)).is_zero and f.get((3,)).is_zero

    def test_rotation_field(self):
        f = lie_to_ckv(rotation_element(3, 1, 2))
        space = base_space(3)
        x1 = Polynomial.variable(space, 1)
        x2 = Polynomial.variable(space, 2)
        assert f.get((2,)) == x1
        assert f.get((1,)) == x2 * Fraction(-1)
        assert f.get((3,)).is_zero

    def test_special_conformal_field(self):
        f = lie_to_ckv(special_conformal_element(3, 1))
        space = base_space(3)
        x = [None] + [Polynomial.variable(space, a) for a in (1, 2, 3)]
        xx = x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
        assert f.get((1,)) == x[1] * x[1] - xx * Fraction(1, 2)
        assert f.get((2,)) == x[1] * x[2]
        assert f.get((3,)) == x[1] * x[3]

    def test_realize_two_pair_symmetric_product(self):
        u = dilation_element(3)
        v = translation_element(3, 1)
        uv = realize_ckt(pair_tensor(u, v))
        fu, fv = lie_to_ckv(u), lie_to_ckv(v)
        for key in ((1, 1), (1, 2), (2, 3)):
            a, b = key
            expected = (
                fu.get((a,)) * fv.get((b,))
                + fu.get((b,)) * fv.get((a,))
            ) * Fraction(1, 2)
            assert uv.get(key) == expected

    def test_realize_gckt_scalar(self):
        u = dilation_element(3)
        f = realize_gckt(bullet_extract(pair_tensor(u, u)))
        space = base_space(3)
        xx = Polynomial.zero(space)
        for a in (1, 2, 3):
            xx = xx + Polynomial.variable(space, a) ** 2
        assert f.get(()) == xx * Fraction(1, 3)


class TestAmbientOperators:
    def test_dilation_operator_form(self):
        op = ambient_op_V(dilation_element(3))
        space = ambient_space(3)
        x0 = Polynomial.variable(space, 0)
        xinf = Polynomial.variable(space, space.inf)
        expected = DiffOp.partial_op(space, space.inf) * xinf - (
            DiffOp.partial_op(space, 0) * x0
        )
        assert op == expected

    def test_operator_is_first_order(self):
        for u in so_basis(3):
            assert ambient_op_V(u).order == 1

    def test_two_pair_operator_composes(self):
        u = dilation_element(3)
        v = special_conformal_element(3, 2)
        assert ambient_op_gg(pair_tensor(u, v)) == compose(
            ambient_op_V(u), ambient_op_V(v)
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_pair_word_operator_is_the_first_order_operator(self, n):
        rng = random.Random(n)
        comps = {
            p: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for p in itertools.combinations(ambient_indices(n), 2)
        }
        x = PairSkewTensor(n, 1, comps)
        assert ambient_op_gg(x) == ambient_op_V(x)

    @pytest.mark.parametrize("n", [3, 4])
    def test_three_pair_words_compose_by_hand(self, n):
        # unit words one at a time, then a weighted sum of them whose words
        # share their first two pairs in a group
        rng = random.Random(n)
        pairs = list(itertools.combinations(ambient_indices(n), 2))
        heads = [rng.choice(pairs) + rng.choice(pairs) for _ in range(3)]
        keys = {h + rng.choice(pairs): Fraction(rng.randint(1, 5), rng.randint(1, 3))
                for h in heads for _ in range(3)}
        total = DiffOp.zero(ambient_space(n))
        for key, val in keys.items():
            by_hand = ambient_op_V(so_basis_element(n, *key[:2]))
            for i in (2, 4):
                by_hand = compose(by_hand, ambient_op_V(so_basis_element(n, *key[i : i + 2])))
            assert ambient_op_gg(PairSkewTensor(n, 3, {key: 1})) == by_hand
            total = total + by_hand * val
        assert ambient_op_gg(PairSkewTensor(n, 3, keys)) == total

    def test_word_operator_and_trailing_pair_operator_refuse_other_shapes(self):
        with pytest.raises(ValueError):
            ambient_op_gg(PairSkewTensor(3, 0))
        for w in (
            SymAmbientTensor(3, 1, {(2,): 1}),
            SymAmbientTensor(3, 4, {(0, 1, 2, 2): 1}),
        ):
            with pytest.raises(ValueError):
                ambient_op_W(w)

    def test_first_order_operator_takes_one_pair(self):
        u = dilation_element(3)
        for x in (
            PairSkewTensor(3, 0),
            pair_tensor(u, u),
            PairSkewTensor(3, 3, {(0, 1, 1, 2, 2, 3): 1}),
        ):
            with pytest.raises(ValueError):
                ambient_op_V(x)

    def test_commutes_with_cone_and_laplacian(self):
        r_mult = DiffOp.multiplication(r_polynomial(3))
        lap = ambient_laplacian(3)
        for u in (dilation_element(3), rotation_element(3, 2, 3)):
            op = ambient_op_V(u)
            assert compose(op, r_mult) == compose(r_mult, op)
            assert compose(op, lap) == compose(lap, op)


class TestInduction:
    def test_laplacian_induces_base_laplacian(self):
        for n in (3, 4):
            w = laplacian_weight(n)
            assert induce(ambient_laplacian(n), w) == laplacian(n)

    def test_bilaplacian_induces_base_bilaplacian(self):
        for n in (3, 4):
            w = bilaplacian_weight(n)
            assert induce(ambient_bilaplacian(n), w) == bilaplacian(n)

    def test_laplacian_cone_preservation_is_weight_locked(self):
        lap = ambient_laplacian(3)
        assert preserves_cone_ideal(lap, laplacian_weight(3))
        assert not preserves_cone_ideal(lap, Fraction(0))

    def test_one_pair_operators_induce_first_order_form(self):
        w0 = bilaplacian_weight(3)
        for u in so_basis(3):
            induced = induce(ambient_op_V(u), w0)
            assert induced == canonical_DV(lie_to_ckv(u), w0)

    def test_trailing_pair_operator_induces_second_order_form(self):
        n = 3
        w0 = bilaplacian_weight(n)
        u = dilation_element(n)
        w = bullet_extract(pair_tensor(u, u))
        op = ambient_op_W(w)
        assert induce(op, w0) == canonical_DW(realize_gckt(w), w0)

    def test_trailing_pair_operator_rejects_other_weights(self):
        u = dilation_element(3)
        w = bullet_extract(pair_tensor(u, u))
        with pytest.raises(ValueError):
            induce(ambient_op_W(w), Fraction(1))

    def test_induce_rejects_mixed_homogeneity(self):
        space = ambient_space(3)
        bad = ambient_laplacian(3) + DiffOp.multiplication(
            Polynomial.variable(space, 0)
        )
        with pytest.raises(ValueError):
            induce(bad, Fraction(1, 2))

    def test_induce_rejects_zero_operator(self):
        with pytest.raises(ValueError):
            induce(DiffOp.zero(ambient_space(3)), Fraction(1, 2))

    def test_ideal_test_looks_past_the_first_bracket(self):
        # [d_inf^2, r] = 4 x0 d_inf descends to zero, but the second
        # bracket 8 x0^2 does not: d_inf^2 (r h) is not in (r)
        space = ambient_space(3)
        op = DiffOp(space, {(space.inf, space.inf): 1})
        assert not preserves_cone_ideal(op, Fraction(1, 2))
        with pytest.raises(ValueError):
            induce(op, Fraction(1, 2))

    def test_order_guard_rejects_higher_induced_order(self):
        with pytest.raises(ValueError):
            induce(ambient_laplacian(3), laplacian_weight(3), order=1)

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=3),
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
    )
    @example([0, 1, 2], Fraction(-5, 2))
    @settings(max_examples=20, deadline=None)
    def test_matches_action_read_off(self, word, weight):
        # words in the one-pair operators commute with r, so they descend
        # at every weight; the reference reads the operator off its action
        basis = so_basis(3)
        op = ambient_op_V(basis[word[0]])
        for i in word[1:]:
            op = compose(op, ambient_op_V(basis[i]))

        def action(f):
            return section_substitution(apply(op, extend_polynomial(f, weight)))

        expected = operator_from_action(base_space(3), action, op.order)
        assert induce(op, weight) == expected
