"""Conformal tensor calculus: symmetry types, traces, and the six-summand
decomposition of the tensor square of the conformal algebra."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from bilapsym.exactpoly import Monomial, Polynomial, base_space, rat
from bilapsym.linsolve import rank
from bilapsym.tensorcalc import (
    PairSkewTensor,
    SymAmbientTensor,
    SymTensorField,
    adjoint_embed,
    adjoint_extract,
    ambient_indices,
    ambient_metric_sym,
    bullet_embed,
    bullet_extract,
    counterexample_first_trace,
    counterexample_mixed_trace,
    counterexample_tail_trace,
    counterexample_tensor,
    decompose_gg,
    fully_skew_part,
    is_pair_symmetric,
    is_totally_skew,
    is_totally_tracefree,
    metric_tensor,
    metric_trace,
    nondecreasing_tuples,
    pair_swap,
    satisfies_cyclic_identity,
    scalar_embed,
    scalar_extract,
    split_symbol,
    sym_outer,
    symmetrize,
    tracefree_part,
)
from bilapsym.symalg import (
    dilation_element,
    pair_tensor,
    rotation_element,
    so_basis,
    special_conformal_element,
    translation_element,
)

N = 3
SPACE = base_space(N)


def const_field(n, valency, entries):
    return SymTensorField(
        n,
        valency,
        {k: Polynomial.constant(base_space(n), rat(c)) for k, c in entries.items()},
    )


def random_sym_field(n, valency, seed, degree=1):
    rng = random.Random(seed)
    space = base_space(n)
    comps = {}
    for key in nondecreasing_tuples(tuple(range(1, n + 1)), valency):
        terms = {Monomial(()): Fraction(rng.randint(-3, 3))}
        for v in range(1, n + 1):
            terms[Monomial(((v, 1),))] = Fraction(rng.randint(-3, 3))
        comps[key] = Polynomial(space, terms)
    return SymTensorField(n, valency, comps)


class TestSymTensorField:
    def test_get_sorts_key(self):
        t = const_field(N, 2, {(1, 2): 5})
        assert t.get((2, 1)) == t.get((1, 2))

    def test_symmetrize_projects(self):
        raw = {(1, 2): Polynomial.one(SPACE), (2, 1): Polynomial.constant(SPACE, 3)}
        t = symmetrize(N, 2, raw)
        assert t.get((1, 2)) == Polynomial.constant(SPACE, 2)

    def test_metric_trace_of_metric(self):
        g = metric_tensor(N)
        assert metric_trace(g).get(()) == Polynomial.constant(SPACE, N)

    def test_tracefree_part_is_tracefree(self):
        t = random_sym_field(N, 2, seed=7)
        tf = tracefree_part(t)
        assert tf.is_tracefree()
        assert tracefree_part(tf) == tf

    def test_tracefree_part_valency_four(self):
        t = random_sym_field(N, 4, seed=11)
        tf = tracefree_part(t)
        assert all(
            metric_trace(tf).get(key).is_zero
            for key in nondecreasing_tuples((1, 2, 3), 2)
        )

    def test_sym_outer_matches_brute_force(self):
        a = random_sym_field(N, 1, seed=3)
        b = random_sym_field(N, 2, seed=4)
        t = sym_outer(a, b)
        # full symmetrization of the ordered outer product
        for key in itertools.product((1, 2, 3), repeat=3):
            total = Polynomial.zero(SPACE)
            perms = list(itertools.permutations(range(3)))
            for perm in perms:
                arranged = tuple(key[i] for i in perm)
                total = total + a.get(arranged[:1]) * b.get(arranged[1:])
            assert t.get(key) * len(perms) == total

    def test_split_symbol_reconstructs(self):
        t = random_sym_field(N, 4, seed=9)
        v, w, x = split_symbol(t)
        g = metric_tensor(N)
        rebuilt = v + sym_outer(g, w) + sym_outer(g, sym_outer(g, x))
        assert rebuilt == t
        assert v.is_tracefree()

    def test_json_round_trip(self):
        t = random_sym_field(N, 2, seed=5)
        assert SymTensorField.from_json_obj(t.to_json_obj()) == t


class TestSymAmbientTensor:
    def test_metric_trace(self):
        g = ambient_metric_sym(N)
        assert g.trace() == SymAmbientTensor(N, 0, {(): Fraction(N + 2)})

    def test_tracefree_part(self):
        rng = random.Random(2)
        raw = {
            key: Fraction(rng.randint(-5, 5))
            for key in nondecreasing_tuples(ambient_indices(N), 4)
        }
        t = SymAmbientTensor(N, 4, raw)
        tf = t.tracefree_part()
        assert tf.is_tracefree()
        assert not tf.is_zero


class TestPairSkewTensor:
    def test_canonicalize_signs(self):
        t = PairSkewTensor(N, 1, 0, {(0, 4): Fraction(1)})
        assert t.get((0, 4)) == 1
        assert t.get((4, 0)) == -1
        assert t.get((2, 2)) == 0

    def test_pair_order_is_significant(self):
        u = dilation_element(N)
        v = translation_element(N, 1)
        x = pair_tensor(u, v)
        key_uv = (0, 4, 1, 4)
        assert x.get(key_uv) == u.get((0, 4)) * v.get((1, 4))
        assert x.get((1, 4, 0, 4)) == u.get((1, 4)) * v.get((0, 4))

    def test_from_function_projects(self):
        # a function with no symmetry projects onto the paired-skew type
        def fn(key):
            return Fraction(key[0] + 2 * key[1])

        t = PairSkewTensor.from_function(N, 1, 0, fn)
        for i, j in itertools.combinations(ambient_indices(N), 2):
            assert t.get((i, j)) == -t.get((j, i))

    def test_json_round_trip(self):
        x = pair_tensor(dilation_element(N), rotation_element(N, 1, 2))
        assert PairSkewTensor.from_json_obj(x.to_json_obj()) == x


class TestDecomposition:
    def pairs(self):
        u = dilation_element(N)
        v = translation_element(N, 1)
        t = rotation_element(N, 2, 3)
        s = special_conformal_element(N, 1)
        return [(u, v), (v, s), (t, s), (u, u), (v, t)]

    def test_recombination_is_exact(self):
        for a, b in self.pairs():
            x = pair_tensor(a, b)
            dec = decompose_gg(x)
            assert dec.recombined() == x

    def test_summand_characterizations(self):
        for a, b in self.pairs():
            x = pair_tensor(a, b)
            dec = decompose_gg(x)
            assert is_pair_symmetric(dec.cartan)
            assert is_totally_tracefree(dec.cartan)
            assert satisfies_cyclic_identity(dec.cartan)
            assert is_totally_skew(dec.fully_skew)
            # hook and adjoint summands are pair-antisymmetric
            assert pair_swap(dec.hook) == dec.hook * Fraction(-1)
            emb = dec.embedded()
            assert pair_swap(emb["adjoint"]) == emb["adjoint"] * Fraction(-1)

    def test_extraction_round_trips(self):
        assert scalar_extract(scalar_embed(Fraction(7), N)) == 7
        for v in so_basis(N):
            assert adjoint_extract(adjoint_embed(v)) == v
        w = decompose_gg(
            pair_tensor(translation_element(N, 1), special_conformal_element(N, 1))
        ).bullet_W
        assert not w.is_zero
        assert bullet_extract(bullet_embed(w)) == w

    def test_fully_skew_part_is_projection(self):
        x = pair_tensor(translation_element(N, 1), special_conformal_element(N, 2))
        sk = fully_skew_part(x)
        assert fully_skew_part(sk) == sk
        assert is_totally_skew(sk)

    def test_summand_dimensions(self):
        basis = so_basis(N)
        parts = {
            "cartan": [],
            "bullet": [],
            "scalar": [],
            "hook": [],
            "adjoint": [],
            "skew": [],
        }
        for u in basis:
            for v in basis:
                dec = decompose_gg(pair_tensor(u, v))
                parts["cartan"].append(dict(dec.cartan.components))
                parts["bullet"].append(dict(dec.bullet_W.components))
                parts["scalar"].append({0: dec.scalar} if dec.scalar else {})
                parts["hook"].append(dict(dec.hook.components))
                parts["adjoint"].append(dict(dec.adjoint.components))
                parts["skew"].append(dict(dec.fully_skew.components))
        dims = {name: rank(cols) for name, cols in parts.items()}
        assert dims == {
            "cartan": 35,
            "bullet": 14,
            "scalar": 1,
            "hook": 35,
            "adjoint": 10,
            "skew": 5,
        }
        assert sum(dims.values()) == len(basis) ** 2


class TestCounterexampleTensor:
    def build_z(self, seed=1):
        rng = random.Random(seed)
        raw = {
            key: Fraction(rng.randint(-4, 4))
            for key in nondecreasing_tuples(ambient_indices(N), 4)
        }
        return SymAmbientTensor(N, 4, raw).tracefree_part()

    def test_requires_tracefree(self):
        bad = SymAmbientTensor(N, 4, {(1, 1, 1, 1): Fraction(1)})
        with pytest.raises(ValueError):
            counterexample_tensor(bad)

    def test_trace_conditions(self):
        z = self.build_z()
        x = counterexample_tensor(z)
        assert all(v == 0 for v in counterexample_first_trace(x).values())
        assert all(v == 0 for v in counterexample_tail_trace(x).values())

    def test_matches_projection_of_raw_tensor(self):
        # the reference projects Z(first slots) GG(second slots) by evaluating
        # it on every orbit arrangement of every canonical key
        z = self.build_z()
        gg = ambient_metric_sym(N).sym_outer(ambient_metric_sym(N))

        def fn(key):
            zval = z.get((key[0], key[2], key[4], key[6]))
            if zval == 0:
                return Fraction(0)
            return zval * gg.get((key[1], key[3], key[5], key[7]))

        assert counterexample_tensor(z) == PairSkewTensor.from_function(N, 4, 0, fn)

    def test_mixed_trace_is_nonzero_multiple(self):
        z = self.build_z()
        x = counterexample_tensor(z)
        mixed = counterexample_mixed_trace(x)
        key0, val0 = next((k, v) for k, v in z.components.items() if v)
        c = mixed[key0] / val0
        assert c != 0
        for key in itertools.product(ambient_indices(N), repeat=4):
            assert mixed.get(key, Fraction(0)) == c * z.get(key)
