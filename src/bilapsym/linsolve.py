"""Exact sparse linear algebra over the rationals.

Exposes exact nullspace bases, ranks and one solver of graded systems
with constant coefficients.  Nullspace bases are normalized
reduced-row-echelon style: each basis vector carries coefficient 1 at its
free column and zeros at all other free columns, so output is
deterministic for a fixed column order.

Every block is solved modulo a prime p: elimination, sparsest column
first, finds a kernel basis modulo p, one k x cols step brings it to the
echelon basis of the caller's column order, rational reconstruction lifts
its entries to fractions, and an exact product with the integer rows
checks it.  The rank modulo p never exceeds the rank over
Q, so checked vectors prove the nullity, the free columns and the basis;
a block with no free column modulo p has none over Q.  A failed lift or
check retries at the next Mersenne prime 2**e - 1 of
``MERSENNE_EXPONENTS``, from 2**31 - 1 up to 2**4423 - 1.  Once
isqrt(p // 2) reaches the Hadamard bound of the integer rows the answer is
certain to lift, so the ladder decides every block whose bound is below
about 2**2211 (both proofs are in ``_modular_nullspace``).  Each block's
rows are first made primitive integer rows, each distinct row kept once.

``solve_graded`` solves the graded systems of the Killing solvers and of
the symmetry enumerator through ``leibniz_columns`` and ``solve_by_grade``,
which solves one grade at a time in ascending order and stops at the first
grade that proves every higher one empty.  Each grade splits into blocks
by parity class, and one block per orbit of classes under the
permutations of the variables is eliminated; the same k x cols step
brings its basis, mapped by each permutation, to the echelon basis of the
other blocks of the orbit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, perm, prod
from itertools import repeat
from operator import gt, mul, sub
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .exactpoly import Polynomial, VarSpace, monomial_from_exponents, numerators, parity_class


def _to_integer_rows(
    columns: Sequence[Mapping[Hashable, Fraction]],
) -> list[dict[int, int]]:
    """Transpose column dicts into distinct primitive integer rows.

    Row keys are assigned in first-seen order while scanning columns in
    index order, which makes the elimination deterministic.  A row of
    ``int`` values skips the conversion to numerators.  Each row is divided
    by the gcd of its entries, signed so that its entry at its lowest
    column is positive, and a row equal to an earlier one after that is
    dropped: neither step changes the row space, hence the kernel.
    """
    rows: dict[Hashable, dict] = {}
    for ci, col in enumerate(columns):
        for key, val in col.items():
            if val:
                row = rows.get(key)
                if row is None:
                    rows[key] = {ci: val}
                else:
                    row[ci] = val
    distinct: dict[tuple, dict[int, int]] = {}
    for row in rows.values():
        if not set(map(type, row.values())) <= {int}:
            row = dict(numerators(row.items())[1])
        # a row's columns were added in ascending order
        g = gcd(*row.values())
        if next(iter(row.values())) < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        distinct.setdefault(tuple(row.items()), row)
    return list(distinct.values())


# The exponents e of the Mersenne primes 2**e - 1 that ``nullspace`` tries
# in turn, from the word-size prime 2**31 - 1 up.  Rational reconstruction
# modulo p returns r/s with |r|, s <= isqrt(p // 2); below sqrt(p / 2) two
# such fractions never agree modulo p.  The last lift bound,
# isqrt((2**4423 - 1) // 2), is about 2**2211.
MERSENNE_EXPONENTS = (31, 61, 127, 521, 1279, 2203, 4423)


def _lift(a: int, p: int, bound: int) -> Fraction | None:
    """The fraction r/s = a modulo the prime p with |r|, s <= bound, or
    None: the extended Euclidean algorithm on (p, a), stopped at the first
    remainder within the bound (Wang, Guy and Davenport 1982).  The bound
    is isqrt(p // 2), computed once per modulus by the caller."""
    r0, r1 = p, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _modular_nullspace(
    rows: Sequence[Mapping[int, int]], ncols: int, p: int
) -> list[dict[int, Fraction]] | None:
    """The nullspace basis of the integer rows over Q, by elimination
    modulo the prime p and rational reconstruction, or None when a lift
    fails or its exact check does.

    The columns are eliminated in ascending order of their number of
    nonzero entries modulo p, ties by index: a sparse column has few
    holders, so eliminating it first makes little fill-in.  Each step takes
    a sparsest holder as the pivot row, normalized to 1; a column with no
    holder is free.  For each free column f, back-substitution over the
    pivots in reverse gives a kernel vector modulo p with 1 at f and 0 at
    the other free columns.  ``_checked_echelon`` turns these into the
    echelon basis of the caller's column order, lifts its entries to
    fractions and keeps it only if every row annihilates each vector
    exactly.

    The rows need only have the kernel of the columns: ``_to_integer_rows``
    scales rows by nonzero rationals and drops repeats, which keeps the row
    space, hence the kernel, so the proofs below hold for the columns too.

    Proof that a full result is the echelon basis over Q, the one with 1 at
    its free column and 0 at the others:
    - The rank modulo p is at most the rank over Q, in any column order: a
      minor nonzero modulo p is nonzero over the integers.  So nullity_p >=
      nullity_Q.
    - The back-substituted vectors are independent modulo p, each the only
      one nonzero at its own free column, so they span the kernel modulo p,
      and ``_checked_echelon`` returns nullity_p vectors.  These lie in the
      Q-kernel and are independent, each being the only one nonzero at its
      free column.  So nullity_Q >= nullity_p, and the two are equal.  With
      no free column, nullity_Q is 0.
    - So the result is a basis of the Q-kernel that has, in the caller's
      order, 1 at its free column, 0 at the others and nothing right of
      it, and by the proof in ``_checked_echelon`` it is the echelon basis
      of that order: the free set and the basis do not depend on the order
      of elimination.

    Proof that a large enough p gives a full result:
    - By Cramer's rule each entry of the echelon basis over Q is, up to
      sign, a ratio of two minors of the integer rows: the pivot minor, and
      that minor with one pivot column replaced by the free column.
    - By Hadamard's inequality every minor is at most H in absolute value,
      H being the product of the min(rows, cols) largest row norms (each
      nonzero row has norm >= 1).
    - Let isqrt(p // 2) >= H.  Then p > H divides no nonzero minor, so every
      set of columns has the same rank modulo p as over Q: the kernel
      modulo p is the Q-kernel reduced modulo p, and its echelon basis is
      the one over Q reduced modulo p.  Each entry is r/s in lowest terms
      with |r|, s <= H, so it lifts to itself, and every check passes.
    """
    mod = [{c: r for c, v in row.items() if (r := v % p)} for row in rows]
    col_rows: dict[int, set[int]] = {}
    for rid, row in enumerate(mod):
        for c in row:
            col_rows.setdefault(c, set()).add(rid)
    order = sorted(range(ncols), key=lambda c: len(col_rows.get(c, ())))
    place = dict(zip(order, range(ncols)))
    pivots: list[tuple[int, dict[int, int]]] = []
    free: list[int] = []
    for c in order:
        holders = col_rows.pop(c, None)
        if not holders:
            free.append(c)
            continue
        pid = min(holders, key=lambda rid: len(mod[rid]))
        pr = mod[pid]
        inv = pow(pr.pop(c), -1, p)
        for k in pr:
            pr[k] = pr[k] * inv % p
            col_rows[k].discard(pid)
        for sid in holders - {pid}:
            sr = mod[sid]
            neg = p - sr.pop(c)
            for k, v in pr.items():
                if k in sr:
                    nv = (sr[k] + neg * v) % p
                    if nv:
                        sr[k] = nv
                    else:
                        del sr[k]
                        col_rows[k].discard(sid)
                else:
                    sr[k] = neg * v % p
                    col_rows[k].add(sid)
        pivots.append((c, pr))
    kernel = []
    for f in free:
        # a pivot row holds only columns eliminated after its pivot, so the
        # pivots eliminated after f stay 0
        vec = {f: 1}
        for c, pr in reversed(pivots):
            if place[c] < place[f]:
                total = sum(v * vec[k] for k, v in pr.items() if k in vec) % p
                if total:
                    vec[c] = p - total
        kernel.append(vec)
    return _checked_echelon(kernel, p, rows)


def _checked_echelon(
    vectors: Sequence[Mapping[int, int]], p: int, rows: Sequence[Mapping[int, int]]
) -> list[dict[int, Fraction]] | None:
    """The echelon basis of the span of the vectors modulo the prime p,
    lifted to fractions and checked exactly against the integer rows; None
    when the vectors are dependent modulo p, or a lift or a check fails.

    The echelon basis has one vector per free column f, in ascending f,
    with 1 at f, 0 at the other free columns and no entry right of f; each
    vector lists f first and then its other columns in descending order.
    The k vectors are taken in turn: one is reduced by the vectors kept so
    far, at their free columns, and its last nonzero column becomes its
    free column f, where it is normalized to 1 and cleared from the others.

    Proof that the result is the echelon basis of the span: each reduced
    vector lies in the span and is 0 at the earlier free columns, so the k
    free columns are distinct last nonzero columns of vectors of the span.
    The span has exactly k such columns, since its part inside the first j
    columns grows by at most one with each j.  A vector of the span that is
    0 at all of them is 0, so the vector with 1 at f and 0 at the other
    free columns is unique.  Both hold over Q for the lifted vectors: when
    every check passes and the Q-kernel has dimension k, they are the
    echelon basis of the Q-kernel.
    """
    echelon: dict[int, dict[int, int]] = {}
    for vec in vectors:
        vec = dict(vec)
        for f, kept in echelon.items():
            if f in vec:
                _subtract(vec, vec[f], kept, p)
        if not vec:
            return None
        f = max(vec)
        inv = pow(vec[f], -1, p)
        vec = {k: v * inv % p for k, v in vec.items()}
        for kept in echelon.values():
            if f in kept:
                _subtract(kept, kept[f], vec, p)
        echelon[f] = vec
    bound = isqrt(p // 2)
    basis: list[dict[int, Fraction]] = []
    for f in sorted(echelon):
        vec = echelon[f]
        lifted = {k: _lift(vec[k], p, bound) for k in sorted(vec, reverse=True)}
        if None in lifted.values():
            return None
        basis.append(lifted)
    return basis if _annihilates(rows, basis) else None


def _subtract(target: dict[int, int], scale: int, vec: Mapping[int, int], p: int) -> None:
    """target -= scale * vec modulo p, in place, dropping the zeros."""
    for k, v in vec.items():
        nv = (target.get(k, 0) - scale * v) % p
        if nv:
            target[k] = nv
        else:
            del target[k]


def _annihilates(rows: Sequence[Mapping[int, int]], vectors: Sequence[Mapping[int, Fraction]]) -> bool:
    """Whether every integer row has zero product with each vector.  The
    products are summed column by column over each vector's entries, so a
    sparse vector meets only the entries of its own columns."""
    if not vectors:
        return True
    entries: dict[int, list[tuple[int, int]]] = {}
    for rid, row in enumerate(rows):
        for c, v in row.items():
            entries.setdefault(c, []).append((rid, v))
    for vec in vectors:
        products: dict[int, int] = {}
        for c, x in numerators(vec.items())[1]:
            for rid, v in entries.get(c, ()):
                products[rid] = products.get(rid, 0) + v * x
        if any(products.values()):
            return False
    return True


def _first_decided(attempt: Callable[[int], list | None], block: str) -> list:
    """The first result of ``attempt(2**e - 1)`` that is not None, for e in
    ``MERSENNE_EXPONENTS`` in turn; ValueError naming the block when no
    modulus decides it."""
    for e in MERSENNE_EXPONENTS:
        basis = attempt(2**e - 1)
        if basis is not None:
            return basis
    raise ValueError(f"no modulus 2**e - 1 with e in {MERSENNE_EXPONENTS} decides the {block} block")


def nullspace(columns: Sequence[Mapping[Hashable, Fraction]]) -> list[dict[int, Fraction]]:
    """Exact rational nullspace of the linear map with the given columns.

    Each column is a sparse map from an arbitrary hashable row key to a
    Fraction.  Returns one basis vector per free column, as a sparse map
    column-index -> Fraction with coefficient 1 at the free column.  Values
    may be ``int`` or ``Fraction``.  The basis is the first full result of
    ``_modular_nullspace`` modulo 2**e - 1 for e in ``MERSENNE_EXPONENTS``;
    a block that no modulus decides raises ValueError.
    """
    ncols = len(columns)
    rows = _to_integer_rows(columns)
    return _first_decided(lambda p: _modular_nullspace(rows, ncols, p), f"{len(rows)}x{ncols}")


# The constant parts of one label: (gamma, {row: value}) per distinct gamma.
Parts = Sequence[tuple[tuple[int, ...], Mapping[Hashable, Fraction]]]


def leibniz_columns(constants: Callable[[Hashable], Parts]) -> Callable[[tuple], dict]:
    """Columns of a linear map with constant coefficients on polynomials.

    The unknown (label, m) is the basis element ``label`` times x^m.  By
    the Leibniz rule a map L with constant coefficients sends it to
    sum_{gamma <= m} m!/(m-gamma)! x^(m-gamma) C[gamma], with constants
    C[gamma] of the label alone.  ``constants(label)`` lists the pairs
    (gamma, C[gamma]), each C[gamma] a map row -> value, and is called
    once per label.  Each row and x^(m-gamma) gets an int id in first-seen
    order; the entry is keyed (row id, m - gamma id), after earlier gammas.
    Per m, every label with the same gammas shares their weights and ids.
    """
    row_id, rest_id, list_id_of, lowered = {}, {}, {}, {}

    @cache
    def parts_of(label: Hashable) -> tuple:
        parts = constants(label)
        gammas = tuple(gamma for gamma, _ in parts)
        rows = [([row_id.setdefault(r, len(row_id)) for r in c], [*c.values()]) for _, c in parts]
        return gammas, list_id_of.setdefault(gammas, len(list_id_of)), rows

    def column(unknown: tuple) -> dict:
        label, m = unknown
        gammas, list_id, rows = parts_of(label)
        shared = lowered.get((m, list_id))
        if shared is None:
            shared = lowered[m, list_id] = [
                (i, rest_id.setdefault(tuple(map(sub, m, g)), len(rest_id)), prod(map(perm, m, g)))
                for i, g in enumerate(gammas)
                if not any(map(gt, g, m))
            ]
        col = {}
        for i, rest, weight in shared:
            ids, values = rows[i]
            col.update(zip(zip(ids, repeat(rest)), map(mul, values, repeat(weight))))
        return col

    return column


def solve_by_grade(
    first: int, first_open: int, last: int, solve: Callable[[int, bool], list]
) -> tuple[list, bool]:
    """The solutions of a graded system, grade by grade in ascending order,
    and whether no solution exists above them, by a proof.

    ``solve(g, complete)`` returns the solutions of grade g, with all its
    unknowns when complete and with those the caller's bound allows
    otherwise.  Grades first .. first_open - 1 are complete and grades
    first_open .. last truncated.

    Let each d_i map solutions of grade g + 1 to solutions of grade g, and
    let every solution killed by all d_i have grade <= 0.  Then an empty
    complete grade g >= 0 proves every grade above it empty: a solution of
    grade g + 1 is killed by all d_i.  A solution of a truncated grade is
    one of that grade complete.  So the first empty complete grade >= 0
    ends the solve with the flag True.  Failing that, with first_open >= 1,
    grade first_open is solved completely, as a probe, before the truncated
    grades: when it is empty the flag is True and they are skipped,
    otherwise they are solved and the flag is False.  With first_open < 1
    no grade >= 0 is complete, and the flag is False.
    """
    found: list = []
    for g in range(first, first_open):
        solutions = solve(g, True)
        if not solutions and g >= 0:
            return found, True
        found.extend(solutions)
    if first_open >= 1 and not solve(first_open, True):
        return found, True
    for g in range(first_open, last + 1):
        found.extend(solve(g, False))
    return found, False


def _permutation(source: tuple[int, ...], target: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The action on unknowns (label, m) of a permutation sigma of the
    variables that takes the parity class ``source`` to ``target``, of the
    same weight: sigma sends the k-th variable of class bit b in ``source``
    to the k-th of bit b in ``target``.  It moves the exponent m[v] to
    sigma(v), and sends each index v of the label to sigma(v), sorted."""
    src = sorted(range(len(source)), key=source.__getitem__)
    dst = sorted(range(len(target)), key=target.__getitem__)
    sigma = [0] * len(src)
    for v, w in zip(src, dst):
        sigma[v] = w
    back = [v for _, v in sorted(zip(dst, src))]

    def act(unknown: tuple) -> tuple:
        label, m = unknown
        return tuple(sorted(sigma[v - 1] + 1 for v in label)), tuple(m[v] for v in back)

    return act


def _mapped_basis(
    source: tuple[int, ...],
    source_members: Sequence[tuple],
    basis: Sequence[Mapping[int, Fraction]],
    target: tuple[int, ...],
    members: Sequence[tuple],
    column: Callable[[tuple], dict],
) -> list[dict[int, Fraction]]:
    """The nullspace basis of the block of class ``target``, from the basis
    of the block of class ``source`` in its orbit.

    Each vector is mapped by ``_permutation(source, target)`` and scaled to
    int entries, which keeps the span.  ``_checked_echelon`` brings the
    vectors to the echelon basis of the block's own column order and checks
    each against the integer rows of the columns the vectors touch, the
    only columns in its product with the block.  The first modulus of
    ``MERSENNE_EXPONENTS`` that decides it is kept.  As in
    ``_modular_nullspace``, the echelon entries are ratios of k x k minors
    of the scaled vectors, so a modulus whose lift bound reaches their
    Hadamard bound decides it.
    """
    act = _permutation(source, target)
    index = {u: i for i, u in enumerate(members)}
    vectors = [
        dict(numerators((index[act(source_members[pos])], c) for pos, c in vec.items())[1])
        for vec in basis
    ]
    support = set().union(*vectors)
    rows = _to_integer_rows([column(u) if i in support else {} for i, u in enumerate(members)])

    def attempt(p: int) -> list | None:
        residues = [{k: r for k, v in vec.items() if (r := v % p)} for vec in vectors]
        return _checked_echelon(residues, p, rows)

    return _first_decided(attempt, f"mapped {len(vectors)}x{len(members)}")


def _block_kernels(
    unknowns: Iterable[tuple], column: Callable[[tuple], dict]
) -> Iterator[tuple[list[tuple], list[dict[int, Fraction]]]]:
    """The members and the nullspace basis of each parity block of one
    grade, in sorted order of the class ``parity_class(m, label)``, each
    block's members in first-seen order.

    The classes of one Hamming weight form one orbit under the permutations
    of the variables.  The first class of each orbit in sorted order is
    solved by ``nullspace``.  Every other class of the orbit has the same
    nullity: with a nullity of 0 it builds no column, and otherwise its
    basis is ``_mapped_basis`` of the first.
    """
    blocks: dict[tuple[int, ...], list[tuple]] = {}
    for label, m in unknowns:
        blocks.setdefault(parity_class(m, label), []).append((label, m))
    solved: dict[int, tuple] = {}
    for key in sorted(blocks):
        members = blocks[key]
        orbit = solved.get(sum(key))
        if orbit is None:
            basis = nullspace([column(u) for u in members])
            solved[sum(key)] = key, members, basis
        elif orbit[2]:
            basis = _mapped_basis(*orbit, key, members, column)
        else:
            basis = []
        yield members, basis


def solve_graded(
    space: VarSpace,
    unknowns: Callable[[int, bool], Iterable[tuple]],
    constants: Callable[[tuple[int, ...]], Parts],
    first: int,
    first_open: int,
    last: int,
) -> tuple[list[tuple[int, dict[tuple[int, ...], Polynomial]]], bool]:
    """The solutions of a graded system with constant coefficients, grade
    by grade, and whether no solution exists above them.

    ``unknowns(g, complete)`` lists the unknowns (label, m) of grade g,
    each the basis element ``label``, a tuple of variable indices 1..n,
    times x^m, as ``solve_by_grade`` asks for them with ``first``,
    ``first_open`` and ``last``; their columns come from
    ``leibniz_columns(constants)``.  Two hypotheses on the map:
    - It is even in each reflection x_v -> -x_v, with the label's indices
      counted as factors x_v, so it never mixes two parity classes: each
      grade's unknowns are split by ``parity_class(m, label)`` into blocks,
      and the kernel of the grade is the sum of the blocks' kernels.
    - The unknowns of each grade are closed under the permutations sigma
      of the variables, acting on m and on the label's indices, and the
      kernel is invariant under them.  sigma takes the block of class c
      onto the block of class sigma c, so kernel(sigma c) = sigma
      kernel(c): ``_block_kernels`` solves one block per orbit of classes,
      at most n + 1 per grade, and maps its basis to the others.
    The blocks come in sorted order of their class, and the basis of each
    is the echelon basis of its members in first-seen order, as
    ``nullspace`` of its own columns gives it.  Returns one (g, {label:
    polynomial in space}) per basis vector, and the flag of
    ``solve_by_grade``.
    """
    column = leibniz_columns(constants)

    def solve(grade: int, complete: bool) -> list:
        out = []
        for members, basis in _block_kernels(unknowns(grade, complete), column):
            for vec in basis:
                terms: dict[tuple[int, ...], dict] = {}
                for pos, coeff in vec.items():
                    label, m = members[pos]
                    terms.setdefault(label, {})[monomial_from_exponents(m)] = coeff
                # distinct base monomials, nonzero Fractions from the lift
                out.append((grade, {k: Polynomial._make(space, t) for k, t in terms.items()}))
        return out

    return solve_by_grade(first, first_open, last, solve)


def rank(columns: Sequence[Mapping[Hashable, Fraction]]) -> int:
    """Exact rank of the linear map with the given columns: the number of
    columns less the nullity."""
    return len(columns) - len(nullspace(columns))
