"""Conformal tensor calculus: symmetry types, traces, and the six-summand
decomposition of the tensor square of the conformal algebra."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilapsym.ambient import ambient_op_gg
from bilapsym.exactpoly import Monomial, Polynomial, ambient_space, base_space, rat
from bilapsym.linsolve import rank
from bilapsym.tensorcalc import (
    PairSkewTensor,
    SymAmbientTensor,
    SymTensorField,
    adjoint_embed,
    adjoint_extract,
    ambient_indices,
    ambient_lower,
    ambient_metric_sym,
    bullet_embed,
    bullet_extract,
    contract_positions,
    counterexample_first_trace,
    counterexample_mixed_trace,
    counterexample_tail_trace,
    counterexample_tensor,
    decompose_gg,
    fully_skew_part,
    metric_tensor,
    metric_trace,
    nondecreasing_tuples,
    pair_orbit,
    pair_swap,
    scalar_embed,
    scalar_extract,
    sym_outer,
    symmetrize,
    tracefree_part,
    _sym_outer_components,
    _trace_components,
)
from bilapsym.symalg import (
    bracket,
    dilation_element,
    pair_tensor,
    rotation_element,
    so_basis,
    special_conformal_element,
    translation_element,
)
from bilapsym.weylop import DiffOp

N = 3
SPACE = base_space(N)


# ---------------------------------------------------------------------------
# reference predicates for the symmetry types of two-pair tensors


def is_totally_tracefree(x: PairSkewTensor) -> bool:
    """All six single contractions of a two-pair tensor vanish."""
    for pi in range(4):
        for pj in range(pi + 1, 4):
            if contract_positions(x, [(pi, pj)]):
                return False
    return True


def satisfies_cyclic_identity(x: PairSkewTensor) -> bool:
    """X^{BQCR} + X^{BCRQ} + X^{BRQC} = 0 for all index values."""
    idx = ambient_indices(x.n)
    for key in itertools.product(idx, repeat=4):
        b, q, c, r = key
        if x.get((b, q, c, r)) + x.get((b, c, r, q)) + x.get((b, r, q, c)) != 0:
            return False
    return True


def is_pair_symmetric(x: PairSkewTensor) -> bool:
    return (x - pair_swap(x)).is_zero


def is_totally_skew(x: PairSkewTensor) -> bool:
    idx = ambient_indices(x.n)
    for key in itertools.product(idx, repeat=4):
        b, q, c, r = key
        if x.get((b, q, c, r)) != -x.get((b, q, r, c)):
            return False
        if x.get((b, q, c, r)) != -x.get((c, q, b, r)):
            return False
    return True


def const_field(n, valency, entries):
    return SymTensorField(
        n,
        valency,
        {k: Polynomial.constant(base_space(n), rat(c)) for k, c in entries.items()},
    )


def reference_projection(n, pair_count, fn):
    """The paired-skew projection of the function ``fn`` on ordered keys: at
    every canonical key, the signed average of ``fn`` over the pair flips.
    The dense reference for ``PairSkewTensor.project``."""
    idx = ambient_indices(n)
    norm = Fraction(1, 2**pair_count)
    comps = {}
    for pairs in itertools.product(itertools.combinations(idx, 2), repeat=pair_count):
        key = tuple(i for pair in pairs for i in pair)
        total = Fraction(0)
        for arranged, sign in pair_orbit(key, pair_count):
            if val := fn(arranged):
                total += sign * rat(val)
        if total:
            comps[key] = total * norm
    return PairSkewTensor(n, pair_count, comps)


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

    def test_json_round_trip(self):
        t = random_sym_field(N, 2, seed=5)
        assert SymTensorField.from_json_obj(t.to_json_obj()) == t


class TestSymAmbientTensor:
    def test_metric_trace(self):
        g = ambient_metric_sym(N)
        assert metric_trace(g) == SymAmbientTensor(N, 0, {(): Fraction(N + 2)})

    def test_sym_outer_refuses_a_base_field(self):
        with pytest.raises(ValueError):
            sym_outer(ambient_metric_sym(N), metric_tensor(N))

    def test_tracefree_part(self):
        rng = random.Random(2)
        raw = {
            key: Fraction(rng.randint(-5, 5))
            for key in nondecreasing_tuples(ambient_indices(N), 4)
        }
        t = SymAmbientTensor(N, 4, raw)
        tf = tracefree_part(t)
        assert tf.is_tracefree()
        assert not tf.is_zero


class TestPairSkewTensor:
    def test_canonicalize_signs(self):
        t = PairSkewTensor(N, 1, {(0, 4): Fraction(1)})
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

    def test_project_of_unsymmetric_entries(self):
        # entries with no symmetry, repeated pairs and repeated keys among them
        def fn(key):
            return Fraction(key[0] + 2 * key[1] - 3 * key[2] + key[0] * key[3], 1 + key[1])

        ordered = list(itertools.product(ambient_indices(N), repeat=4))
        t = PairSkewTensor.project(N, 2, [(key, fn(key)) for key in ordered])
        assert t == reference_projection(N, 2, fn)
        # each pair flip negates; a repeated pair is zero
        assert t.get((1, 0, 2, 3)) == t.get((0, 1, 3, 2)) == -t.get((0, 1, 2, 3)) != 0
        assert t.get((1, 1, 2, 3)) == 0
        assert t.get((0, 1, 2, 3)) == (fn((0, 1, 2, 3)) - fn((1, 0, 2, 3))
                                       - fn((0, 1, 3, 2)) + fn((1, 0, 3, 2))) / 4
        # a key given twice adds its values
        u = PairSkewTensor.project(N, 1, [((2, 0), Fraction(1)), ((2, 0), Fraction(3))])
        assert u == PairSkewTensor(N, 1, {(0, 2): Fraction(-2)})

    def test_project_zero_entries(self):
        assert PairSkewTensor.project(N, 2, []).is_zero
        assert PairSkewTensor.project(N, 1, [((1, 2), 1), ((2, 1), 1)]).is_zero

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
    def build_z(self, seed=1, n=N):
        rng = random.Random(seed)
        raw = {
            key: Fraction(rng.randint(-4, 4))
            for key in nondecreasing_tuples(ambient_indices(n), 4)
        }
        return tracefree_part(SymAmbientTensor(n, 4, raw))

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
        self.check_projection(N, 1)

    @pytest.mark.parametrize("n, seed", [(3, 2), (3, 5), (4, 1)])
    def test_matches_projection_at_more_seeds_and_n4(self, n, seed):
        self.check_projection(n, seed)

    def check_projection(self, n, seed):
        # the reference projects Z(first slots) GG(second slots) by evaluating
        # it on every orbit arrangement of every canonical key
        z = self.build_z(seed, n)
        gg = sym_outer(ambient_metric_sym(n), ambient_metric_sym(n))

        def fn(key):
            gval = gg.get((key[1], key[3], key[5], key[7]))
            if gval == 0:
                return Fraction(0)
            return gval * z.get((key[0], key[2], key[4], key[6]))

        x = counterexample_tensor(z)
        assert x == reference_projection(n, 4, fn)
        assert all(type(v) is Fraction for v in x.components.values())

    def test_mixed_trace_is_nonzero_multiple(self):
        z = self.build_z()
        x = counterexample_tensor(z)
        mixed = counterexample_mixed_trace(x)
        key0, val0 = next((k, v) for k, v in z.components.items() if v)
        c = mixed[key0] / val0
        assert c != 0
        for key in itertools.product(ambient_indices(N), repeat=4):
            assert mixed.get(key, Fraction(0)) == c * z.get(key)


# ---------------------------------------------------------------------------
# the sparse constructions against the dense reference projection of the formulas
# they implement, on random rational inputs at n = 3 and n = 4

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def pair_skew_tensors(n, pair_count):
    pairs = list(itertools.combinations(ambient_indices(n), 2))
    keys = [
        tuple(i for pair in ps for i in pair)
        for ps in itertools.product(pairs, repeat=pair_count)
    ]
    return st.dictionaries(st.sampled_from(keys), rationals, max_size=6).map(
        lambda comps: PairSkewTensor(n, pair_count, comps)
    )


def metric(n):
    """The ambient metric g(a, b) as a 0/1 function."""
    return lambda a, b: 1 if a == ambient_lower(n, b) else 0


def all_ordered_keys(n, length):
    return itertools.product(ambient_indices(n), repeat=length)


def permutation_sign(perm):
    inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
    return (-1) ** inversions


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_two_pair_maps_match_reference(n, data):
    x = data.draw(pair_skew_tensors(n, 2))
    perms = [(p, permutation_sign(p)) for p in itertools.permutations(range(4))]

    def alt(key):
        return sum(sign * x.get(tuple(key[i] for i in p)) for p, sign in perms) / 24

    def traced(key):
        b, r = key
        return sum(
            x.get((b, q, ambient_lower(n, q), r)) - x.get((r, q, ambient_lower(n, q), b))
            for q in ambient_indices(n)
        )

    assert pair_swap(x) == reference_projection(n, 2, lambda k: x.get((k[2], k[3], k[0], k[1]))
    )
    assert fully_skew_part(x) == reference_projection(n, 2, alt)
    assert adjoint_extract(x) == reference_projection(n, 1, traced)
    assert dict(x.ordered_entries()) == {
        key: x.get(key) for key in all_ordered_keys(n, 4) if x.get(key)
    }


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_one_pair_maps_match_reference(n, data):
    u = data.draw(pair_skew_tensors(n, 1))
    v = data.draw(pair_skew_tensors(n, 1))
    g = metric(n)

    def commutator(key):
        b, r = key
        return sum(
            u.get((b, q)) * v.get((ambient_lower(n, q), r))
            - v.get((b, q)) * u.get((ambient_lower(n, q), r))
            for q in ambient_indices(n)
        )

    def embedded(key):
        b, q, c, r = key
        return Fraction(1, 2 * n) * (
            u.get((b, r)) * g(q, c) - u.get((q, r)) * g(b, c)
            - u.get((b, c)) * g(q, r) + u.get((q, c)) * g(b, r)
        )

    assert pair_tensor(u, v) == reference_projection(n, 2, lambda k: u.get(k[:2]) * v.get(k[2:])
    )
    assert bracket(u, v) == reference_projection(n, 1, commutator)
    assert adjoint_embed(u) == reference_projection(n, 2, embedded)


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_scalar_and_bullet_embeds_match_reference(n, data):
    value = data.draw(rationals)
    w = data.draw(sym_tensors("ambient", n, 2))
    g = metric(n)

    def scalar(key):
        b, q, c, r = key
        return value * Fraction(1, n * (n + 1) * (n + 2)) * (g(q, c) * g(b, r) - g(b, c) * g(q, r))

    def bullet(key):
        b, q, c, r = key
        return (
            w.get((b, c)) * g(q, r) - w.get((q, c)) * g(b, r)
            - w.get((b, r)) * g(q, c) + w.get((q, r)) * g(b, c)
        )

    assert scalar_embed(value, n) == reference_projection(n, 2, scalar)
    assert bullet_embed(w) == reference_projection(n, 2, bullet)
    assert dict(w.ordered_entries()) == {
        key: w.get(key) for key in all_ordered_keys(n, 2) if w.get(key)
    }


# ---------------------------------------------------------------------------
# the sparse traces against the dense loops over ambient indices


def dense_scalar_extract(x):
    """Reference for ``scalar_extract``: the double trace summed over every
    pair of ambient indices."""
    n = x.n
    total = Fraction(0)
    for b in ambient_indices(n):
        for q in ambient_indices(n):
            total += x.get((b, q, ambient_lower(n, b), ambient_lower(n, q)))
    return -n * total


def dense_bullet_extract(x):
    """Reference for ``bullet_extract``: the second-slot trace at every
    ordered (B, C), symmetrized by hand."""
    n = x.n
    raw = {}
    for b in ambient_indices(n):
        for c in ambient_indices(n):
            total = Fraction(0)
            for q in ambient_indices(n):
                total += x.get((b, q, c, ambient_lower(n, q)))
            if total != 0:
                raw[(b, c)] = total
    sym = {}
    for key in nondecreasing_tuples(ambient_indices(n), 2):
        b, c = key
        val = (raw.get((b, c), Fraction(0)) + raw.get((c, b), Fraction(0))) / 2
        if val != 0:
            sym[key] = val
    return tracefree_part(SymAmbientTensor(n, 2, sym)) * Fraction(1, n)


def normal_ordered_op(x):
    """The normal-ordered ambient operator of a k-pair tensor: each pair
    contributes one lowered coordinate (on its first slot) and one
    derivative (on its second)."""
    n = x.n
    space = ambient_space(n)

    def terms():
        for full, val in x.ordered_entries():
            mono = Monomial.of_indices(ambient_lower(n, b) for b in full[0::2])
            yield Monomial.of_indices(full[1::2]), Polynomial(space, {mono: val})

    return DiffOp._collect(space, terms())


def dense_ambient_op_gg(x):
    """Reference for ``ambient_op_gg`` of a two-pair tensor: the
    normal-ordered operator plus the internal-trace correction summed at
    every (B, R) over every Q."""
    n = x.n
    space = ambient_space(n)
    op = normal_ordered_op(x)
    for b in ambient_indices(n):
        mono = Monomial.of_indices([ambient_lower(n, b)])
        for r in ambient_indices(n):
            total = sum(x.get((b, q, ambient_lower(n, q), r)) for q in ambient_indices(n))
            if total:
                op = op + DiffOp(space, {(r,): Polynomial(space, {mono: total})})
    return op


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_traces_match_dense_reference(n, data):
    # the embedded summands give each trace a nonzero part
    x = (
        data.draw(pair_skew_tensors(n, 2))
        + scalar_embed(data.draw(rationals), n)
        + adjoint_embed(data.draw(pair_skew_tensors(n, 1)))
        + bullet_embed(data.draw(sym_tensors("ambient", n, 2)))
    )
    scalar = scalar_extract(x)
    assert type(scalar) is Fraction and scalar == dense_scalar_extract(x)
    assert bullet_extract(x) == dense_bullet_extract(x)
    assert ambient_op_gg(x) == dense_ambient_op_gg(x)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_word_operator_of_a_cartan_part_is_normal_ordered(n):
    # a Cartan part is trace-free, so the internal-trace correction of
    # its word operator vanishes: the three named pairs of the
    # ambient-identities suite and three random basis pairs
    rng = random.Random(n)
    named = [
        (translation_element(n, 1), special_conformal_element(n, 1)),
        (dilation_element(n), rotation_element(n, 1, 2)),
        (special_conformal_element(n, 2), special_conformal_element(n, 1)),
    ]
    for u, v in named + [tuple(rng.sample(so_basis(n), 2)) for _ in range(3)]:
        cartan = decompose_gg(pair_tensor(u, v)).cartan
        assert ambient_op_gg(cartan) == normal_ordered_op(cartan)


def dense_contract_positions(x, contractions):
    """Reference for ``contract_positions``: at every ordered value of the
    free positions, the sum of ``x.get`` over every value of the contracted
    pairs, each contraction (pi, pj) setting a at pi and its lowering at pj."""
    total_len = 2 * x.pair_count
    used = {p for pair in contractions for p in pair}
    free = [p for p in range(total_len) if p not in used]
    idx = ambient_indices(x.n)
    out = {}
    for free_vals in itertools.product(idx, repeat=len(free)):
        total = Fraction(0)
        for sums in itertools.product(idx, repeat=len(contractions)):
            key = [0] * total_len
            for p, v in zip(free, free_vals):
                key[p] = v
            for (pi, pj), a in zip(contractions, sums):
                key[pi] = a
                key[pj] = ambient_lower(x.n, a)
            total += x.get(tuple(key))
        if total != 0:
            out[free_vals] = total
    return out


# case id -> (n, pairs, contractions): inside one pair and across pairs;
# the dense reference reads (n + 2)^(slots - contractions) keys.  Each case
# keeps the id it has had in earlier releases of this suite.
CONTRACTION_CASES = {
    "3-1-0-contractions0": (3, 1, [(0, 1)]),
    "3-2-0-contractions4": (3, 2, [(1, 3)]),
    "3-2-0-contractions5": (3, 2, [(0, 2), (1, 3)]),
    "3-3-0-contractions8": (3, 3, [(1, 3), (2, 5)]),
    "3-4-0-contractions9": (3, 4, [(1, 3), (5, 7)]),
    "4-2-0-contractions12": (4, 2, [(0, 1)]),
    "4-3-0-contractions14": (4, 3, [(0, 4)]),
    "4-4-0-contractions15": (4, 4, [(0, 2), (1, 3)]),
}


@pytest.mark.parametrize(
    "n, pairs, contractions", list(CONTRACTION_CASES.values()), ids=list(CONTRACTION_CASES)
)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_contract_positions_matches_dense_reference(n, pairs, contractions, data):
    x = data.draw(pair_skew_tensors(n, pairs))
    got = contract_positions(x, contractions)
    assert got == dense_contract_positions(x, contractions)
    assert all(type(v) is Fraction for v in got.values())


def test_contract_positions_rejects_overlap():
    x = PairSkewTensor(N, 2, {(0, 1, 2, 3): Fraction(1)})
    with pytest.raises(ValueError):
        contract_positions(x, [(0, 2), (2, 3)])


# ---------------------------------------------------------------------------
# the trace-free projection, characterized without reference to how it is
# computed: Sym^s = (trace-free) + g (.) Sym^(s-2), and the projection is the
# linear map that fixes the first summand and kills the second


def sym_tensors(kind, n, valency):
    """Random sparse symmetric tensors: constant ambient ones, or base
    fields with affine polynomial components."""
    if kind == "ambient":
        keys = nondecreasing_tuples(ambient_indices(n), valency)
        return st.dictionaries(st.sampled_from(keys), rationals, max_size=5).map(
            lambda comps: SymAmbientTensor(n, valency, comps)
        )
    space = base_space(n)
    monos = [Monomial(())] + [Monomial(((v, 1),)) for v in range(1, n + 1)]
    polys = st.dictionaries(st.sampled_from(monos), rationals, max_size=2).map(
        lambda terms: Polynomial(space, terms)
    )
    keys = nondecreasing_tuples(range(1, n + 1), valency)
    return st.dictionaries(st.sampled_from(keys), polys, max_size=5).map(
        lambda comps: SymTensorField(n, valency, comps)
    )


def tracefree_tensor(kind, n, valency, data):
    """A trace-free tensor built from null vectors: a power v^s of a rational
    ambient null vector, or p Re/Im (e_a + i e_b)^s for a base field with
    polynomial factor p (the components of v^s at a key are products of the
    components of v)."""
    if kind == "ambient":
        base = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        v0 = data.draw(st.sampled_from([-2, -1, 1, 2]))
        v = [Fraction(v0)] + [Fraction(c) for c in base] + [
            Fraction(-sum(c * c for c in base), 2 * v0)
        ]
        keys = nondecreasing_tuples(ambient_indices(n), valency)
        return SymAmbientTensor(
            n, valency, {key: prod((v[i] for i in key), start=Fraction(1)) for key in keys}
        )
    a, b = data.draw(st.permutations(range(1, n + 1)))[:2]
    monos = [Monomial(())] + [Monomial(((v, 1),)) for v in range(1, n + 1)]
    terms = st.dictionaries(st.sampled_from(monos), rationals.filter(bool), min_size=1, max_size=2)
    p = Polynomial(base_space(n), data.draw(terms))
    real = valency == 0 or data.draw(st.booleans())
    powers = [1, 1j, -1, -1j]
    comps = {}
    for j in range(valency + 1):
        z = powers[j % 4]
        coeff = z.real if real else z.imag
        if coeff:
            comps[tuple(sorted((a,) * (valency - j) + (b,) * j))] = p * Fraction(int(coeff))
    return SymTensorField(n, valency, comps)


@pytest.mark.parametrize("kind", ["base", "ambient"])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("valency", range(7))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_tracefree_projection_characterized(kind, n, valency, data):
    metric = metric_tensor(n) if kind == "base" else ambient_metric_sym(n)
    t = data.draw(sym_tensors(kind, n, valency))
    other = data.draw(sym_tensors(kind, n, valency))
    c = data.draw(rationals)
    assert tracefree_part(t).is_tracefree()
    assert tracefree_part(t + other * c) == tracefree_part(t) + tracefree_part(other) * c
    h = tracefree_tensor(kind, n, valency, data)
    assert h.is_tracefree() and not h.is_zero
    assert tracefree_part(h) == h
    if valency >= 2:
        a = data.draw(sym_tensors(kind, n, valency - 2))
        assert tracefree_part(sym_outer(metric, a)).is_zero


# ---------------------------------------------------------------------------
# the sparse symmetric product and trace against the dense loops over every
# nondecreasing output key


def dense_sym_outer_components(a, p, b, q, indices):
    """Reference for ``_sym_outer_components``: every split of the positions
    of every nondecreasing key of valency p + q into p and q slots."""
    prefactor = Fraction(factorial(p) * factorial(q), factorial(p + q))
    positions = tuple(range(p + q))
    out = {}
    for key in nondecreasing_tuples(indices, p + q):
        total = 0
        for first in itertools.combinations(positions, p):
            av = a.get(tuple(key[i] for i in first))
            bv = b.get(tuple(key[i] for i in positions if i not in first))
            if av is not None and bv is not None:
                total = av * bv + total
        if total:
            out[key] = total * prefactor
    return out


def dense_trace_components(comps, valency, indices, lower):
    """Reference for ``_trace_components``: T[key + (a, lower(a))] summed
    over every index a at every nondecreasing key of valency - 2."""
    out = {}
    for key in nondecreasing_tuples(indices, valency - 2):
        total = 0
        for a in indices:
            val = comps.get(tuple(sorted(key + (a, lower(a)))))
            if val is not None:
                total = val + total
        if total:
            out[key] = total
    return out


@pytest.mark.parametrize("kind", ["base", "ambient"])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("valency", range(7))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_sparse_product_and_trace_match_dense(kind, n, valency, data):
    if kind == "base":
        indices, lower = tuple(range(1, n + 1)), (lambda a: a)
    else:
        indices, lower = ambient_indices(n), (lambda a: ambient_lower(n, a))
    t = data.draw(sym_tensors(kind, n, valency)).components
    q = data.draw(st.integers(0, 6 - valency))
    other = data.draw(sym_tensors(kind, n, q)).components
    assert _sym_outer_components(t, valency, other, q) == dense_sym_outer_components(
        t, valency, other, q, indices
    )
    if valency < 2:
        with pytest.raises(ValueError):
            _trace_components(t, valency, lower)
    else:
        assert _trace_components(t, valency, lower) == dense_trace_components(
            t, valency, indices, lower
        )


# ---------------------------------------------------------------------------
# JSON round trips


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_json_round_trips(n, data):
    t = data.draw(sym_tensors("base", n, data.draw(st.integers(0, 3))))
    assert SymTensorField.from_json_obj(t.to_json_obj()) == t
    w = data.draw(sym_tensors("ambient", n, data.draw(st.integers(0, 4))))
    assert SymAmbientTensor.from_json_obj(w.to_json_obj()) == w
    x = data.draw(pair_skew_tensors(n, data.draw(st.integers(0, 2))))
    assert PairSkewTensor.from_json_obj(x.to_json_obj()) == x


# ---------------------------------------------------------------------------
# the keyed-tensor base shared by the three tensor types


def _keyed_example(cls):
    """(tensor, a non-canonical key of its shape) for each tensor type."""
    if cls is SymTensorField:
        x1 = Polynomial.variable(base_space(N), 1)
        t = SymTensorField(N, 3, {(1, 1, 2): x1 * x1 - 3, (1, 2, 3): Fraction(-2, 5)})
        return t, (2, 1, 1)
    if cls is SymAmbientTensor:
        t = SymAmbientTensor(N, 2, {(0, 4): 1, (2, 2): Fraction(-1, 3), (1, 3): 7})
        return t, (4, 0)
    t = PairSkewTensor(N, 2, {(0, 4, 1, 2): Fraction(3, 2), (1, 3, 1, 3): -1})
    return t, (1, 0, 2, 3)


@pytest.mark.parametrize("cls", [SymTensorField, SymAmbientTensor, PairSkewTensor])
def test_keyed_tensor_base(cls):
    t, bad_key = _keyed_example(cls)
    skew, count = cls is PairSkewTensor, t.shape[1]
    name = "pair_count" if skew else "valency"
    data = t.to_json_obj()
    assert data[name] == count and cls.from_json_obj(json.loads(json.dumps(data))) == t
    assert repr(t) == f"<{cls.__name__} n={N} {name}={count} nnz={len(t.components)}>"
    # every ordered entry reads back through get, with its orbit's sign:
    # +1 for a symmetric tensor, -1 per descending pair for a pair tensor
    entries = list(t.ordered_entries())
    assert len(entries) == len(dict(entries))
    for key, val in entries:
        pairs = [sorted(key[i : i + 2]) for i in range(0, len(key), 2)]
        canon = tuple(i for pair in pairs for i in pair) if skew else tuple(sorted(key))
        flips = sum(list(key[i : i + 2]) != p for i, p in zip(range(0, len(key), 2), pairs))
        assert val == (-1) ** (flips if skew else 0) * t.components[canon] == t.get(key)
    nonzero = [k for k in itertools.product(t.indices(N), repeat=len(bad_key)) if t.get(k)]
    assert sorted(nonzero) == sorted(dict(entries))
    if skew:
        assert t.get((2, 2, 1, 3)) == 0 and t.get((0, 4, 3, 3)) == 0
    with pytest.raises(ValueError):
        cls(N, count, {bad_key: 1})
    for n in (2, 1001):
        with pytest.raises(ValueError):
            cls(n, count)
