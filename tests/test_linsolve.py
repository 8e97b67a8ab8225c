"""Exact sparse linear algebra over the rationals."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from block_reference import block_nullspace, reference_leibniz_columns
from test_bench_hooks import tracer as bench_tracer

from bilapsym import linsolve
from bilapsym.cktsolve import solve_ckt, solve_gckt
from bilapsym.exactpoly import (
    Polynomial,
    base_space,
    exponent_tuples,
    monomial_from_exponents,
    parity_class,
)
from bilapsym.linsolve import (
    leibniz_columns,
    nullspace,
    rank,
    solve_by_grade,
    solve_graded,
)
from bilapsym.symalg import enumerate_symmetries

# the first modulus of ``linsolve.MERSENNE_EXPONENTS`` and its lift bound
PRIME = 2**31 - 1
LIFT_BOUND = isqrt(PRIME // 2)


def test_rank_of_identity_columns():
    cols = [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    assert rank(cols) == 3
    assert nullspace(cols) == []


def test_dependent_columns_have_nullspace():
    cols = [
        {0: Fraction(1), 1: Fraction(2)},
        {0: Fraction(2), 1: Fraction(4)},
    ]
    assert rank(cols) == 1
    vecs = nullspace(cols)
    assert len(vecs) == 1
    v = vecs[0]
    # the relation 2*c0 - c1 = 0, RREF-normalized on the free column
    combo = {}
    for col, coeff in v.items():
        for row, val in cols[col].items():
            combo[row] = combo.get(row, Fraction(0)) + coeff * val
    assert all(x == 0 for x in combo.values())


def test_zero_column_is_free():
    cols = [{0: Fraction(1)}, {}]
    vecs = nullspace(cols)
    assert vecs == [{1: Fraction(1)}]


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_nullspace_vectors_annihilate(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
    cols = []
    for _ in range(ncols):
        col = {
            r: Fraction(rng.randint(-4, 4))
            for r in range(nrows)
            if rng.random() < 0.6
        }
        cols.append({r: v for r, v in col.items() if v})
    vecs = nullspace(cols)
    assert rank(cols) + len(vecs) == ncols
    for vec in vecs:
        combo: dict[int, Fraction] = {}
        for col, coeff in vec.items():
            for row, val in cols[col].items():
                combo[row] = combo.get(row, Fraction(0)) + coeff * val
        assert all(v == 0 for v in combo.values())


def _exact_nullspace(cols, ncols):
    """The echelon nullspace basis by dense Gauss-Jordan elimination in
    Fractions: an independent reference for ``nullspace``."""
    keys = list(dict.fromkeys(k for col in cols for k in col))
    matrix = [[Fraction(col.get(k, 0)) for col in cols] for k in keys]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if hit is None:
            continue
        matrix[r], matrix[hit] = matrix[hit], matrix[r]
        lead = matrix[r][c]
        matrix[r] = [v / lead for v in matrix[r]]
        for i, row in enumerate(matrix):
            if i != r and row[c]:
                k = row[c]
                matrix[i] = [v - k * w for v, w in zip(row, matrix[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = {f: Fraction(1)}
        vec.update({c: -matrix[i][f] for i, c in enumerate(pivots) if matrix[i][f]})
        basis.append(vec)
    return basis


def _lifted_nullspace(cols, ncols):
    """The nullspace by the modular pass modulo PRIME alone: None when it
    is refused."""
    return linsolve._modular_nullspace(linsolve._to_integer_rows(cols), ncols, PRIME)


def _recording_moduli(monkeypatch):
    """Record the modulus of every attempt of the modular pass."""
    moduli = []
    original = linsolve._modular_nullspace

    def recording(rows, ncols, p):
        moduli.append(p)
        return original(rows, ncols, p)

    monkeypatch.setattr(linsolve, "_modular_nullspace", recording)
    return moduli


M61, M127, M521 = 2**61 - 1, 2**127 - 1, 2**521 - 1


@pytest.mark.parametrize(
    "cols",
    [
        # determinant PRIME: independent over Q, singular mod PRIME; the
        # rows have gcd 1, so the integer scaling keeps them as they are
        [{0: 1, 1: 1}, {1: PRIME}],
        [{0: 1, 1: 1}, {0: 1, 1: PRIME + 1}],
        [{0: Fraction(1, 2), 1: Fraction(1, 2)}, {0: Fraction(1, 2), 1: Fraction(PRIME + 1, 2)}],
    ],
    ids=["triangular", "dense", "fractions"],
)
def test_singular_mod_prime_falls_back_to_exact(cols, monkeypatch):
    # column 1 is free modulo PRIME, and its lifted vector fails the check;
    # modulo 2**61 - 1 the determinant PRIME is a unit
    assert _lifted_nullspace(cols, len(cols)) is None
    moduli = _recording_moduli(monkeypatch)
    assert nullspace(cols) == []
    assert rank(cols) == len(cols)
    assert moduli == [PRIME, M61] * 2


def test_rows_are_scaled_before_the_certificate(monkeypatch):
    # the 1x1 matrix [PRIME] is the row [1] after gcd scaling, so the
    # first modulus decides it
    moduli = _recording_moduli(monkeypatch)
    assert linsolve._to_integer_rows([{0: PRIME}]) == [{0: 1}]
    assert nullspace([{0: PRIME}]) == []
    assert moduli == [PRIME]


def test_integer_rows_are_primitive_and_kept_once():
    # rows a, b, c are one row up to sign and scale; e has a fraction
    cols = [
        {"a": 2, "b": -2, "c": 1, "d": 1, "e": Fraction(-3, 2), "f": 0},
        {"a": 4, "b": -4, "c": 2, "d": 3, "e": 3},
    ]
    assert linsolve._to_integer_rows(cols) == [{0: 1, 1: 2}, {0: 1, 1: 3}, {0: 1, 1: -2}]
    # a row that starts at a later column is signed there
    assert linsolve._to_integer_rows([{"a": 1}, {"a": 2, "b": -3}]) == [{0: 1, 1: 2}, {1: 1}]


@given(st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_copies_of_rows_change_neither_rows_nor_nullspace(seed):
    # every row again under a new key, negated, scaled by an int or a
    # fraction, or repeated: the distinct rows and the nullspace stay
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    entries = [-3, -1, 0, 0, 1, 2, 4, Fraction(1, 3), Fraction(-5, 2)]
    cols = [{r: v for r in range(nrows) if (v := rng.choice(entries))} for _ in range(ncols)]
    scales = [1, -1, 2, -6, Fraction(3, 7), Fraction(-1, 2)]
    copies = [(rng.randrange(nrows), rng.choice(scales)) for _ in range(rng.randint(1, 8))]
    copied = [dict(col) for col in cols]
    for key, (r, k) in enumerate(copies):
        for col, new in zip(cols, copied):
            if r in col:
                new[("copy", key)] = col[r] * k
    assert linsolve._to_integer_rows(copied) == linsolve._to_integer_rows(cols)
    assert nullspace(copied) == nullspace(cols) == _exact_nullspace(cols, ncols)


def test_full_rank_needs_no_exact_elimination(monkeypatch):
    moduli = _recording_moduli(monkeypatch)
    cols = [
        {"a": Fraction(1, 2), "b": Fraction(3)},
        {"b": Fraction(-1), "c": Fraction(5, 7)},
        {"a": 4, "c": 1, "d": -2},
    ]
    assert nullspace(cols) == []
    assert rank(cols) == 3
    assert block_nullspace(range(2), lambda u: u, lambda u: cols[u]) == []
    assert moduli == [PRIME] * 4


def test_fewer_rows_than_columns_is_lifted_without_elimination(monkeypatch):
    wide = [{0: 1}, {0: 2}]
    wider = [{0: 2, 1: 1}, {0: 3}, {1: Fraction(1, 2)}, {0: 1, 1: -1}, {}]
    expected = [_exact_nullspace(cols, len(cols)) for cols in (wide, wider)]
    assert expected[0] == [{0: Fraction(-2), 1: Fraction(1)}]
    assert [len(basis) for basis in expected] == [1, 3]
    moduli = _recording_moduli(monkeypatch)
    assert [nullspace(wide), nullspace(wider)] == expected
    assert moduli == [PRIME] * 2


def test_lift_beyond_the_bound_falls_back_once(monkeypatch):
    # the entry -100003 has no fraction r/s with |r|, s <= LIFT_BOUND, and
    # is within the bound isqrt(M61 // 2) = 2**30 - 1
    assert LIFT_BOUND < 100003 <= isqrt(M61 // 2)
    cols = [{0: 1}, {0: 100003}]
    assert _lifted_nullspace(cols, 2) is None
    moduli = _recording_moduli(monkeypatch)
    assert nullspace(cols) == [{0: Fraction(-100003), 1: Fraction(1)}]
    assert moduli == [PRIME, M61]


@pytest.mark.parametrize("sign", [1, -1])
def test_modular_pass_lifts_up_to_the_bound_and_no_further(sign):
    bound = LIFT_BOUND
    assert _lifted_nullspace([{0: 1}, {0: sign * bound}], 2) == [
        {0: Fraction(-sign * bound), 1: Fraction(1)}
    ]
    assert _lifted_nullspace([{0: 1}, {0: sign * (bound + 1)}], 2) is None


def test_wrong_lift_is_rejected_by_the_exact_check(monkeypatch):
    # PRIME + 1 is 1 modulo PRIME, so the entry lifts to -1; the exact
    # product with the row 1 * x0 + (PRIME + 1) * x1 refuses it.  Modulo
    # M61 the entry is -2**31, beyond the bound 2**30 - 1, so M127 decides.
    assert linsolve._lift(PRIME - 1, PRIME, LIFT_BOUND) == -1
    assert isqrt(M61 // 2) < PRIME + 1 <= isqrt(M127 // 2)
    cols = [{0: 1}, {0: PRIME + 1}]
    moduli = _recording_moduli(monkeypatch)
    assert nullspace(cols) == [{0: Fraction(-(PRIME + 1)), 1: Fraction(1)}]
    assert moduli == [PRIME, M61, M127]


def test_large_entry_is_decided_at_the_fourth_modulus(monkeypatch):
    # 10**40 is about 2**133: beyond the lift bounds of M31, M61 and M127
    # (about 2**63), within that of M521 (about 2**260)
    cols = [{0: 1}, {0: 10**40}]
    moduli = _recording_moduli(monkeypatch)
    assert nullspace(cols) == [{0: Fraction(-(10**40)), 1: Fraction(1)}]
    assert moduli == [PRIME, M61, M127, M521]


def test_block_no_modulus_decides_raises(monkeypatch):
    monkeypatch.setattr(linsolve, "MERSENNE_EXPONENTS", (31,))
    with pytest.raises(ValueError, match="1x2 block"):
        nullspace([{0: 1}, {0: 10**40}])


def _is_mersenne_prime(e):
    """The Lucas-Lehmer test: for an odd prime e, 2**e - 1 is prime iff
    s_(e-2) = 0 modulo it, with s_0 = 4 and s_(i+1) = s_i**2 - 2."""
    if e < 3 or any(e % d == 0 for d in range(2, isqrt(e) + 1)):
        return False
    m, s = 2**e - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def test_every_listed_modulus_is_prime():
    assert linsolve.MERSENNE_EXPONENTS[0] == 31 and PRIME == 2**31 - 1
    assert all(map(_is_mersenne_prime, linsolve.MERSENNE_EXPONENTS))
    # the test itself tells a Mersenne prime from a composite 2**e - 1
    assert [e for e in range(3, 64) if _is_mersenne_prime(e)] == [3, 5, 7, 13, 17, 19, 31, 61]


@given(st.integers(-LIFT_BOUND, LIFT_BOUND), st.integers(1, LIFT_BOUND))
@settings(max_examples=200, deadline=None)
def test_lift_inverts_reduction_within_the_bound(num, den):
    value = Fraction(num, den)
    residue = value.numerator * pow(value.denominator, -1, PRIME) % PRIME
    assert linsolve._lift(residue, PRIME, LIFT_BOUND) == value


def test_benchmark_systems_never_fall_back(monkeypatch):
    # every block of the enumeration and of the Killing solvers, eliminated
    # or mapped from its orbit's first block, is decided by the first modulus
    moduli = _recording_moduli(monkeypatch)
    echelon_moduli = []
    original = linsolve._checked_echelon

    def recording(vectors, p, rows):
        echelon_moduli.append(p)
        return original(vectors, p, rows)

    monkeypatch.setattr(linsolve, "_checked_echelon", recording)
    assert len(enumerate_symmetries(3, 2, 6).elements) == 60
    assert len(enumerate_symmetries(4, 2, 4).elements) == 120
    for n in (3, 4):
        assert len(solve_ckt(n, 1, 2).elements) == (n + 1) * (n + 2) // 2
        assert solve_ckt(n, 2, 4).stabilized and solve_gckt(n, 0, 4).stabilized
    assert len(solve_ckt(4, 2, 4).elements) == 84
    assert moduli and set(moduli) == {PRIME}
    assert len(echelon_moduli) > len(moduli) and set(echelon_moduli) == {PRIME}


def _exact_rank(cols, ncols):
    """The rank by the dense reference elimination."""
    return ncols - len(_exact_nullspace(cols, ncols))


def _triangular_columns(rng, nrows, ncols, diagonal):
    """Column j has ``diagonal[j]`` in row j, random entries below it and a
    1 in row j of column 0, so no row has a common factor."""
    cols = []
    for j in range(ncols):
        col = {j: diagonal[j]}
        col.update({r: rng.randint(-3, 3) for r in range(j + 1, nrows)})
        cols.append({r: v for r, v in col.items() if v})
    for j in range(1, ncols):
        cols[0][j] = 1
    return cols


@given(st.sampled_from(["full", "deficient", "mod-prime"]), st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_rank_equals_exact_elimination(kind, seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 6)
    nrows = ncols + rng.randint(0, 3)
    diagonal = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(ncols)]
    if kind == "mod-prime":
        # independent over Q, but square with a determinant divisible by
        # PRIME; row j >= 1 keeps a 1 in column 0, so scaling keeps PRIME
        nrows = ncols = ncols + 1
        diagonal.append(rng.choice([-3, 2, 5]))
        diagonal[rng.randrange(1, ncols)] = PRIME
    cols = _triangular_columns(rng, nrows, ncols, diagonal)
    if kind == "deficient":
        # one column becomes an integer combination of the others
        k = rng.randrange(ncols)
        combo: dict[int, int] = {}
        for j in range(ncols):
            weight = rng.randint(-2, 2) if j != k else 0
            for r, v in cols[j].items():
                combo[r] = combo.get(r, 0) + weight * v
        cols[k] = {r: v for r, v in combo.items() if v}
    rng.shuffle(cols)
    expected = _exact_rank(cols, ncols)
    lifted = _lifted_nullspace(cols, ncols)
    assert rank(cols) == expected
    assert (expected == ncols) is (kind != "deficient")
    # modulo PRIME the pass proves full rank, lifts the deficient nullspace
    # and is refused only when PRIME divides the determinant
    assert (lifted == []) is (kind == "full")
    assert (lifted is None) is (kind == "mod-prime")
    if lifted is not None:
        assert lifted == _exact_nullspace(cols, ncols)


@given(st.integers(0, 2**30))
@settings(max_examples=150, deadline=None)
def test_nullspace_equals_exact_elimination(seed):
    # some columns are integer combinations of the others, so blocks with
    # at least as many rows as columns are often singular too
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 6)
    entries = [-2, -1, 0, 0, 1, 2, 3, PRIME, -PRIME, 2 * PRIME, PRIME + 1, 10**40, Fraction(1, PRIME)]
    cols: list[dict] = []
    for _ in range(ncols):
        if cols and rng.random() < 0.4:
            combo = [(rng.randint(-2, 2), rng.choice(cols)) for _ in range(2)]
            col = {r: sum(k * c.get(r, 0) for k, c in combo) for r in range(nrows)}
        else:
            col = {r: rng.choice(entries) for r in range(nrows)}
        cols.append({r: v for r, v in col.items() if v})
    rng.shuffle(cols)
    assert nullspace(cols) == _exact_nullspace(cols, ncols)


# the labels of the random graded systems in three variables, every index
# tuple of length <= 2 so that they are closed under the permutations of
# the variables, and their unknowns (label, m) with |m| = 2 or 3: with
# constants at every gamma of degree 2, many unknowns share a row, so the
# kernel vectors mix labels and give polynomials of several terms
LABELS = [label for k in range(3) for label in combinations_with_replacement((1, 2, 3), k)]
GAMMAS = exponent_tuples(3, 2)
UNKNOWNS = [(label, m) for label in LABELS for d in (2, 3) for m in exponent_tuples(3, d)]
PERMUTATIONS = list(permutations(range(3)))


def _permuted(sigma, label, exps):
    """The unknown (label, x^exps) with variable v + 1 renamed sigma[v] + 1."""
    moved = [0] * len(exps)
    for v, e in enumerate(exps):
        moved[sigma[v]] = e
    return tuple(sorted(sigma[v - 1] + 1 for v in label)), tuple(moved)


# the S_3 orbits of the unknowns, each in sorted order
ORBITS = sorted({tuple(sorted({_permuted(s, *u) for s in PERMUTATIONS})) for u in UNKNOWNS})


def _per_block_reference(space, chosen, column):
    """The solutions of ``solve_graded`` over the grades of ``chosen``, all
    truncated, by one ``nullspace`` call per parity block, in sorted order
    of the class."""
    expected = []
    for g in sorted(chosen):
        for key in sorted({parity_class(m, label) for label, m in chosen[g]}):
            members = [(label, m) for label, m in chosen[g] if parity_class(m, label) == key]
            for vec in nullspace([column(u) for u in members]):
                fields: dict = {}
                for pos, c in vec.items():
                    label, m = members[pos]
                    term = Polynomial(space, {monomial_from_exponents(m): c})
                    fields[label] = fields.get(label, Polynomial.zero(space)) + term
                expected.append((g, fields))
    return expected


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_solve_graded_matches_per_block_nullspace(seed):
    rng = random.Random(seed)
    space = base_space(3)
    # each row carries the parity class of gamma and the label, so the
    # unknowns (label, m) of two parity classes share no row; each constant
    # is a sum over S_3 of random values, so the map commutes with every
    # permutation of the variables, and each grade's unknowns are whole
    # orbits, as solve_graded requires
    raw = {(label, gamma): rng.randint(-2, 2) for label in LABELS for gamma in GAMMAS}
    parts = {
        label: [
            (gamma, {parity_class(gamma, label): sum(raw[_permuted(s, label, gamma)] for s in PERMUTATIONS)})
            for gamma in GAMMAS
        ]
        for label in LABELS
    }
    chosen = {}
    for g in range(3):
        chosen[g] = [u for orbit in rng.sample(ORBITS, rng.randint(1, 5)) for u in orbit]
        rng.shuffle(chosen[g])
    # grades 0 .. 2, all truncated: each solved once, and no flag
    got, flag = solve_graded(space, lambda g, _: chosen[g], parts.__getitem__, 0, 0, 2)
    assert flag is False

    column = leibniz_columns(parts.__getitem__)
    assert got == _per_block_reference(space, chosen, column)

    # every solution lies in one parity class of its grade and in the
    # kernel of the whole grade
    for g, fields in got:
        unknowns = [
            ((label, tuple(map(mono.exponent, (1, 2, 3)))), c)
            for label, poly in fields.items()
            for mono, c in poly.terms.items()
        ]
        assert all(u in chosen[g] for u, _ in unknowns)
        assert len({parity_class(m, label) for (label, m), _ in unknowns}) == 1
        combo: dict = {}
        for u, c in unknowns:
            for row, val in column(u).items():
                combo[row] = combo.get(row, 0) + c * val
        assert not any(combo.values())


@given(st.integers(0, 2**30))
@settings(max_examples=100, deadline=None)
def test_sparse_order_nullspace_equals_dense_reference(seed):
    # columns of very different numbers of entries, ints and fractions,
    # some of them combinations of others, so that the elimination order
    # by ascending count is far from the caller's order
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    entries = [-3, -1, 1, 2, 5, Fraction(1, 3), Fraction(-7, 2), Fraction(4, 9)]
    cols: list[dict] = []
    for _ in range(ncols):
        if cols and rng.random() < 0.3:
            combo = [(rng.choice(entries), rng.choice(cols)) for _ in range(2)]
            col = {r: sum(k * c.get(r, 0) for k, c in combo) for r in range(nrows)}
        else:
            density = rng.random()
            col = {r: rng.choice(entries) for r in range(nrows) if rng.random() < density}
        cols.append({r: v for r, v in col.items() if v})
    expected = _exact_nullspace(cols, ncols)
    got = nullspace(cols)
    assert got == expected
    # each vector lists its free column first and the rest in descending order
    assert all(list(vec) == sorted(vec, reverse=True) for vec in got)
    # the echelon basis comes back, modulo a prime that lifts every entry,
    # from random combinations of it that span the kernel, that is, are
    # independent; more vectors than the nullity are refused as dependent
    rows = linsolve._to_integer_rows(cols)
    mixed = []
    for _ in expected:
        combo = [(rng.randint(-5, 5), rng.choice(expected)) for _ in range(3)]
        mixed.append({k: v for k in range(ncols) if (v := sum(c * vec.get(k, 0) for c, vec in combo))})
    residues = [{k: v.numerator * pow(v.denominator, -1, M521) % M521 for k, v in vec.items()}
                for vec in mixed + expected]
    spans = _exact_rank(mixed, len(mixed)) == len(expected)
    assert (linsolve._checked_echelon(residues[: len(mixed)], M521, rows) == expected) is spans
    assert linsolve._checked_echelon(residues[len(mixed):], M521, rows) == expected
    if expected:
        assert linsolve._checked_echelon(residues, M521, rows) is None


def _captured_system(solver, *args):
    """The unknowns and the constants that ``solver`` hands to
    ``solve_graded``, captured without solving."""
    captured = []

    def capture(space, unknowns, constants, *grades):
        captured.append((unknowns, constants))
        return [], False

    with mock.patch.object(sys.modules[solver.__module__], "solve_graded", capture):
        solver(*args)
    return captured[0]


@cache
def _system_grade(solver, n, k, grade):
    """The complete unknowns of one grade of a solver's system, and its
    columns."""
    unknowns, constants = _captured_system(solver, n, k, 2 * k + 2)
    return list(unknowns(grade, True)), leibniz_columns(constants)


# (solver, n, order or valency, grade): every complete grade that has a
# nonempty block, up to order 3 at n = 3 and order 2 at n = 4
SYSTEM_GRADES = (
    [(enumerate_symmetries, n, s, g) for n, top in ((3, 3), (4, 2)) for s in range(1, top + 1)
     for g in range(-s, s + 2)]
    + [(solve_ckt, n, s, d) for n, top in ((3, 3), (4, 2)) for s in range(1, top + 1)
       for d in range(2 * s + 2)]
    + [(solve_gckt, n, t, d) for n in (3, 4) for t in range(3) for d in range(t + 5)]
)


@given(st.sampled_from(SYSTEM_GRADES))
@settings(max_examples=40, deadline=None)
def test_each_block_basis_is_nullspace_of_its_own_columns(case):
    # the bases mapped from an orbit's first block equal the echelon bases
    # of each block's own columns, for the enumerator's constants and the
    # Killing constants
    unknowns, column = _system_grade(*case)
    blocks: dict = {}
    for label, m in unknowns:
        blocks.setdefault(parity_class(m, label), []).append((label, m))
    got = list(linsolve._block_kernels(unknowns, column))
    assert [members for members, _ in got] == [blocks[key] for key in sorted(blocks)]
    for members, basis in got:
        assert basis == nullspace([column(u) for u in members])


@pytest.mark.parametrize(
    "solver, args",
    [(enumerate_symmetries, (4, 2, 4)), (enumerate_symmetries, (5, 2, 4)),
     (solve_ckt, (4, 2, 4)), (solve_gckt, (4, 0, 4))],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_one_nullspace_call_per_orbit_and_no_column_for_an_empty_orbit(solver, args, monkeypatch):
    # per grade: one nullspace call per Hamming weight of the classes present,
    # at most n + 1, and no column built for a class whose orbit's first
    # block has nullity 0
    n = args[0]
    grades = []
    original_kernels, original_nullspace = linsolve._block_kernels, linsolve.nullspace

    def recording_kernels(unknowns, column):
        grade = {"calls": 0, "built": set(), "blocks": []}
        grades.append(grade)

        def recording_column(u):
            grade["built"].add(u)
            return column(u)

        for members, basis in original_kernels(unknowns, recording_column):
            grade["blocks"].append((members, basis))
            yield members, basis

    def counting_nullspace(columns):
        grades[-1]["calls"] += 1
        return original_nullspace(columns)

    monkeypatch.setattr(linsolve, "_block_kernels", recording_kernels)
    monkeypatch.setattr(linsolve, "nullspace", counting_nullspace)
    solver(*args)
    skipped = 0
    for grade in grades:
        first_of_orbit: dict = {}
        for members, basis in grade["blocks"]:
            label, m = members[0]
            weight = sum(parity_class(m, label))
            if weight not in first_of_orbit:
                first_of_orbit[weight] = basis
            elif not first_of_orbit[weight]:
                assert basis == [] and grade["built"].isdisjoint(members)
                skipped += 1
        assert grade["calls"] == len(first_of_orbit) <= n + 1
    # blocks after the first of an orbit of nullity 0 do occur
    assert skipped


# ---------------------------------------------------------------------------
# the shared pieces of the graded solvers


def test_leibniz_columns_build_constants_once_per_label():
    # L = d_1^2 + 3 on polynomials in two variables, per label scaled by
    # its value: L(label x^m) = label (m1 (m1 - 1) x^(m - (2, 0)) + 3 x^m)
    calls = []

    def constants(label):
        calls.append(label)
        return [((2, 0), {"row": Fraction(label)}), ((0, 0), {"row": Fraction(3 * label)})]

    column = leibniz_columns(constants)
    # "row" is row 0, and x^(1, 1), x^(3, 1), x^(0, 4) are 0, 1, 2 in the
    # order they are first met: the entries at ("row", x1 x2) share (0, 0)
    assert column((2, (3, 1))) == {(0, 0): 12, (0, 1): 6}
    # gamma = (2, 0) does not divide x1 x2: only the gamma = 0 part is left
    assert column((5, (1, 1))) == {(0, 0): 15}
    assert column((2, (0, 4))) == {(0, 2): 6}
    assert list(column((2, (3, 1)))) == [(0, 0), (0, 1)]
    assert calls == [2, 5]


# every gamma of degree <= 2 in three variables
SMALL_GAMMAS = [g for d in range(3) for g in exponent_tuples(3, d)]


def _constant(rng: random.Random) -> Fraction | int:
    # zeros, ints and fractions, so that some rows are all zero and others
    # go through the conversion to numerators
    return rng.choice([0, 0, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))])


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_leibniz_columns_give_the_reference_integer_rows(seed):
    rng = random.Random(seed)
    # each label has its own gammas in its own order, some labels the same
    # list; its rows carry the parity class of gamma and the label, so the
    # blocks by (|m|, parity class) share no row
    lists = [rng.sample(SMALL_GAMMAS, rng.randint(1, len(SMALL_GAMMAS))) for _ in range(2)]
    parts = {
        label: [
            (g, {(parity_class(g, label), k): _constant(rng) for k in range(rng.randint(0, 2))})
            for g in rng.choice(lists)
        ]
        for label in LABELS
    }
    # one label whose every constant is zero
    parts[LABELS[-1]] = [(gamma, dict.fromkeys(const, 0)) for gamma, const in parts[LABELS[-1]]]
    # several labels at each m
    ms = rng.sample([m for d in range(4) for m in exponent_tuples(3, d)], rng.randint(1, 8))
    unknowns = [(label, m) for m in ms for label in rng.sample(LABELS, rng.randint(2, len(LABELS)))]
    rng.shuffle(unknowns)
    blocks: dict = {}
    for label, m in unknowns:
        blocks.setdefault((sum(m), parity_class(m, label)), []).append((label, m))

    column = leibniz_columns(parts.__getitem__)
    reference = reference_leibniz_columns(parts.__getitem__)
    traced = bench_tracer.Tracer()
    counted = traced._nullspace("linsolve.nullspace", nullspace)
    for key in sorted(blocks):
        got = [column(u) for u in blocks[key]]
        expected = [reference(u) for u in blocks[key]]
        assert linsolve._to_integer_rows(got) == linsolve._to_integer_rows(expected)
        # the same basis, and the same columns, row keys, nnz and nullity
        # in the benchmark's block statistics
        assert counted(got) == counted(expected)
        assert traced.blocks[-1] == traced.blocks[-2]


@pytest.mark.parametrize(
    "solved, first_open, probe_result, expected, probed",
    [
        # no complete grade >= 0: False without a probe
        ({0, 1}, 0, [], False, False),
        (set(), -2, [], False, False),
        # an empty complete grade is the witness: True without a probe
        ({1, 2}, 3, [], True, False),
        ({0, 2}, 3, ["solution"], True, False),
        # every complete grade has a solution: the probe decides
        ({0, 1, 2}, 3, [], True, True),
        ({0, 1, 2}, 3, ["solution"], False, True),
        ({0}, 1, ["solution"], False, True),
        # grades above first_open - 1 are no witness
        ({0, 1, 5}, 2, ["solution"], False, True),
    ],
)
def test_stabilized_by_closure(solved, first_open, probe_result, expected, probed):
    # the complete grades -1 .. first_open - 1 have a solution when in
    # solved, the probe returns probe_result and the truncated grades none
    probes = []

    def solve(grade, complete):
        if not complete:
            return []
        if grade == first_open:
            probes.append(grade)
            return probe_result
        return [grade] if grade in solved else []

    _, flag = solve_by_grade(-1, first_open, first_open + 1, solve)
    assert flag is expected
    assert probes == ([first_open] if probed else [])


@pytest.mark.parametrize(
    "first, first_open, last, empty, schedule, expected",
    [
        # no complete grade >= 0: every grade solved, no probe, False
        (-1, 0, 1, set(), [(-1, True), (0, False), (1, False)], False),
        (-2, -1, 0, {(0, False)}, [(-2, True), (-1, False), (0, False)], False),
        # the first empty complete grade >= 0 ends the solve: True
        (0, 3, 5, {(1, True)}, [(0, True), (1, True)], True),
        (0, 3, 5, {(0, True), (1, True)}, [(0, True)], True),
        # an empty negative grade is no witness
        (
            -2, 2, 4, {(-1, True)},
            [(-2, True), (-1, True), (0, True), (1, True), (2, True), (2, False), (3, False),
             (4, False)],
            False,
        ),
        # every complete grade has a solution: the empty probe skips the
        # truncated grades, a nonempty one is followed by them
        (0, 3, 5, {(3, True)}, [(0, True), (1, True), (2, True), (3, True)], True),
        (
            0, 3, 5, set(),
            [(0, True), (1, True), (2, True), (3, True), (3, False), (4, False), (5, False)],
            False,
        ),
        (0, 1, 0, set(), [(0, True), (1, True)], False),
        (0, 1, 0, {(1, True)}, [(0, True), (1, True)], True),
        # an empty truncated grade is no witness
        (0, 1, 3, {(2, False)}, [(0, True), (1, True), (1, False), (2, False), (3, False)], False),
    ],
)
def test_solve_by_grade(first, first_open, last, empty, schedule, expected):
    calls = []

    def solve(grade, complete):
        calls.append((grade, complete))
        return [] if (grade, complete) in empty else [(grade, complete)]

    found, flag = solve_by_grade(first, first_open, last, solve)
    assert calls == schedule
    assert flag is expected
    # every solution of every solved grade but the probe, in order
    probe = (first_open, True)
    assert found == [c for c in schedule if c not in empty and c != probe]
