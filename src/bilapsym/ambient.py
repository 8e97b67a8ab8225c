"""The ambient construction: cone, section, realization, and induction.

R^n embeds into the light cone of a flat (n+2)-dimensional space with two
extra null directions x0 and xinf; the metric pairs x0 with xinf and is the
identity on x1..xn, so raising and lowering indices is the involution
0 <-> n+1.  The cone is the zero set of  r = 2 x0 xinf + sum_a (x^a)^2,
and the section x0 = 1, xinf = -(x.x)/2 identifies weight-w homogeneous
functions on the cone with functions on R^n.

Constant skew ambient tensors realize as polynomial vector/tensor fields on
the section through the lowered position vector phi and the tangent
projector psi(b, Q) = d_b phi[Q] (``realize_ckt``), and a constant
symmetric ambient tensor realizes as the scalar field of its contraction
with phi on every slot (``realize_gckt``).  phi is contracted in one place,
``section_polynomial``: each realization collects its ambient sum of
lowered coordinates and restricts it once by ``section_substitution``.
A pair p = (I, J) names the first-order operator V_p = x_{lower I} d_J -
x_{lower J} d_I, built in one place: a one-pair tensor gives a sum of them
(``ambient_op_V``) and a k-pair tensor a sum of words in them
(``ambient_op_gg``), and a symmetric 2-tensor W gives the scalar-symbol
operator (``ambient_op_W``).  Conversely, homogeneous ambient operators that
preserve the ideal of the cone descend to exact operators on weight-w
functions (``induce``): both the ideal test and the descent are symbolic
operator computations.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import factorial, prod
from operator import add as _add
from typing import Iterable

from .exactpoly import (
    Monomial,
    Polynomial,
    Rational,
    ambient_space,
    base_space,
    exponent_tuples,
    numerators,
    rat,
)
from .tensorcalc import (
    MultiIndex,
    PairSkewTensor,
    SymAmbientTensor,
    SymTensorField,
    ambient_indices,
    ambient_lower,
    distinct_orderings,
    symmetrize,
)
from .weylop import DiffOp, commutator, compose, compose_sum, euler_op

# ---------------------------------------------------------------------------
# cone and section


def r_polynomial(n: int) -> Polynomial:
    """The defining polynomial of the cone: 2 x0 xinf + sum (x^a)^2."""
    space = ambient_space(n)
    terms = {Monomial([(0, 1), (space.inf, 1)]): Fraction(2)}
    for a in range(1, n + 1):
        terms[Monomial([(a, 2)])] = Fraction(1)
    return Polynomial(space, terms)


def ambient_laplacian(n: int) -> DiffOp:
    """The ambient flat Laplacian  2 d0 dinf + sum_a d_a^2."""
    space = ambient_space(n)
    terms: dict = {(0, space.inf): Polynomial.constant(space, 2)}
    for a in range(1, n + 1):
        terms[(a, a)] = Polynomial.one(space)
    return DiffOp(space, terms)


def ambient_bilaplacian(n: int) -> DiffOp:
    lap = ambient_laplacian(n)
    return compose(lap, lap)


@cache
def _section_power(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(-(x.x)/2)^k as ((exponents of x1..xn, numerator), ...) over 2^k: the
    multinomial expansion (-1)^k sum_{|j| = k} k!/prod(j_v!) x^(2j)."""
    return tuple(
        (tuple(2 * e for e in j), (-1) ** k * factorial(k) // prod(map(factorial, j)))
        for j in exponent_tuples(n, k)
    )


def section_substitution(p: Polynomial) -> Polynomial:
    """Restrict an ambient polynomial to the section x0=1, xinf=-(x.x)/2.

    Each term restricts directly: x0^a goes to 1 and xinf^k to the cached
    expansion of (-(x.x)/2)^k, summed as int numerators over the common
    denominator of p times 2^(top xinf power), one Fraction per output
    term.  No term is multiplied out as a Polynomial.
    """
    space = p.space
    if space.kind != "ambient":
        raise ValueError("expected an ambient polynomial")
    n, inf = space.n, space.inf
    pad = (0,) * (n + 2)
    top = max((m.exponent(inf) for m in p.terms), default=0)
    den, nums = numerators(p.terms.items())
    sums: dict[tuple, int] = {}
    for m, num in nums:
        exps = (m.exps + pad)[: n + 2]
        k = exps[inf]
        scale = num << (top - k)
        for e, t in _section_power(n, k):
            key = tuple(map(_add, exps[1:inf], e))
            sums[key] = sums.get(key, 0) + scale * t
    den <<= top
    return Polynomial._make(
        base_space(n),
        {Monomial._of_padded((0, *key)): Fraction(t, den) for key, t in sums.items() if t},
    )


# ---------------------------------------------------------------------------
# the section frame and the realization of constant ambient tensors


def section_polynomial(n: int, entries: Iterable[tuple[MultiIndex, Rational]]) -> Polynomial:
    """The contraction sum val * phi[B1] ... phi[Bk] of constant components
    (key, val) with the lowered position vector on every slot: the ambient
    sum of val * x_{lower B1} ... x_{lower Bk}, restricted to the section
    once."""
    pad = [0] * (n + 2)

    def terms():
        for key, val in entries:
            exps = pad.copy()
            for b in key:
                exps[ambient_lower(n, b)] += 1
            yield Monomial._of_padded(tuple(exps)), val

    return section_substitution(Polynomial._collect(ambient_space(n), terms()))


def _tangent(n: int, q: int) -> list[tuple[int, int, MultiIndex]]:
    """The nonzero entries of the tangent projector psi(b, Q) = d_b phi[Q]
    as (b, sign, key), psi(b, Q) = sign * phi[key]: -phi[b] for Q = 0, 1
    for Q = b, and none for Q = n+1."""
    if q == 0:
        return [(b, -1, (b,)) for b in range(1, n + 1)]
    return [(q, 1, ())] if q <= n else []


def section_frame(n: int) -> tuple[list[Polynomial], list[list[tuple[int, Polynomial]]]]:
    """The lowered position vector and the tangent projector along the section.

    ``phi[B]`` is the lowered position vector of the section point
    (1, x, -(x.x)/2), the contraction of the key (B,), and ``psi[Q]`` lists
    the nonzero entries (b, psi(b, Q)) of the projector of ambient direction
    Q onto the tangent frame d_b of the section, from the table that
    ``realize_ckt`` contracts with.  All are base-space polynomials.
    """
    phi = [section_polynomial(n, [((b,), 1)]) for b in ambient_indices(n)]
    psi = [
        [(b, section_polynomial(n, [(key, sign)])) for b, sign, key in _tangent(n, q)]
        for q in ambient_indices(n)
    ]
    return phi, psi


def realize_ckt(x: PairSkewTensor) -> SymTensorField:
    """Realize a k-pair tensor as a symmetric k-tensor field on the section.

    Each pair contributes the lowered position vector on its first slot and
    the tangent projector on its second; each b-tuple of tangent directions
    collects its ambient sum and restricts it once through
    ``section_polynomial``, and the result is symmetrized.
    """
    n, k = x.n, x.pair_count
    tangent = [_tangent(n, q) for q in ambient_indices(n)]
    sums: dict[MultiIndex, list] = {}
    for full, val in x.ordered_entries():
        for choice in itertools.product(*(tangent[q] for q in full[1::2])):
            key = full[0::2] + tuple(i for _, _, extra in choice for i in extra)
            sign = prod(s for _, s, _ in choice)
            sums.setdefault(tuple(b for b, _, _ in choice), []).append((key, sign * val))
    return symmetrize(n, k, {bs: section_polynomial(n, es) for bs, es in sums.items()})


def lie_to_ckv(v: PairSkewTensor) -> SymTensorField:
    """Realize a one-pair tensor as a degree-<=2 vector field."""
    if v.pair_count != 1:
        raise ValueError("expected a one-pair tensor")
    return realize_ckt(v)


def realize_gckt(w: SymAmbientTensor) -> SymTensorField:
    """Realize a symmetric ambient tensor of any valency as the scalar field
    W^{B1...Bs} phi[B1] ... phi[Bs] on the section.

    The product of phi over a key does not depend on the order of its
    slots, so each stored key is contracted once, weighted by its number of
    distinct orderings.
    """
    entries = ((key, val * distinct_orderings(key)) for key, val in w.components.items())
    return SymTensorField(w.n, 0, {(): section_polynomial(w.n, entries)})


# ---------------------------------------------------------------------------
# ambient operators of constant tensors


def _first_order(n: int, entries: Iterable[tuple[MultiIndex, Fraction]]) -> DiffOp:
    """The operator sum val * V_p over (p, val), each p = (I, J) a pair with
    I < J and V_p = x_{lower I} d_J - x_{lower J} d_I."""
    space = ambient_space(n)

    def terms():
        for (i, j), val in entries:
            xi = Monomial.of_indices([ambient_lower(n, i)])
            xj = Monomial.of_indices([ambient_lower(n, j)])
            yield Monomial.of_indices([j]), Polynomial._make(space, {xi: val})
            yield Monomial.of_indices([i]), Polynomial._make(space, {xj: -val})

    return DiffOp._collect(space, terms())


def ambient_op_V(x: PairSkewTensor) -> DiffOp:
    """The first-order ambient operator sum_p x^p V_p of a one-pair tensor."""
    if x.pair_count != 1:
        raise ValueError("expected a one-pair tensor")
    return _first_order(x.n, x.components.items())


def ambient_op_gg(x: PairSkewTensor) -> DiffOp:
    """The word operator sum X^{p1...pk} V_p1 o ... o V_pk of a k-pair tensor.

    The sum runs over the stored components, each pair p = (I, J), I < J,
    naming the first-order operator V_p of ``ambient_op_V``.  It is one
    ``compose_sum`` call: each group is the word of the first ceil(k/2)
    pairs composed with the sum of the remaining pairs' words weighted by
    the components, and each V_p and each word is built once.
    """
    if x.pair_count == 0:
        raise ValueError("expected a tensor of at least one pair")
    n, head = x.n, 2 * ((x.pair_count + 1) // 2)
    space = ambient_space(n)
    words = {(): DiffOp.identity(space)}

    def word(key: MultiIndex) -> DiffOp:
        op = words.get(key)
        if op is None:
            if len(key) == 2:
                op = _first_order(n, ((key, Fraction(1)),))
            else:
                op = compose(word(key[:2]), word(key[2:]))
            words[key] = op
        return op

    groups: dict[MultiIndex, list] = {}
    for key, val in x.components.items():
        groups.setdefault(key[:head], []).append((key[head:], val))
    return compose_sum(
        space,
        ((word(h), [(word(t), val) for t, val in tails]) for h, tails in groups.items()),
    )


def ambient_op_W(w: SymAmbientTensor) -> DiffOp:
    """Ambient operator of a symmetric 2-tensor W.

    Each ordered entry W^{DE} contributes
    x_D x_E (ambient Laplacian) - 2 x_D d_E.  This preserves the cone ideal
    exactly on functions of the distinguished homogeneity, where it induces
    the same base operator as the embedded two-pair tensor.
    """
    if w.valency != 2:
        raise ValueError(f"expected a valency-2 symmetric tensor, not valency {w.valency}")
    n = w.n
    space = ambient_space(n)
    lap = ambient_laplacian(n)

    def terms():
        for (d, e), val in w.ordered_entries():
            xd = Monomial.of_indices([ambient_lower(n, d)])
            xde = xd * Monomial.of_indices([ambient_lower(n, e)])
            for lalpha, lcoeff in lap.terms.items():
                yield lalpha, Polynomial(space, {xde: val * lcoeff.constant_value()})
            yield Monomial.of_indices([e]), Polynomial(space, {xd: -2 * val})

    return DiffOp._collect(space, terms())


# ---------------------------------------------------------------------------
# inducing ambient operators onto weight-w functions


def _operator_grade(op: DiffOp) -> Fraction:
    """Common homogeneity shift deg(coeff) - |alpha|, or raise."""
    grade = None
    for alpha, coeff in op.terms.items():
        d = coeff.homogeneous_degree()
        if d is None:
            raise ValueError("operator has an inhomogeneous coefficient")
        shift = rat(d) - alpha.degree
        if grade is None:
            grade = shift
        elif grade != shift:
            raise ValueError("operator mixes homogeneity shifts")
    if grade is None:
        raise ValueError("cannot grade the zero operator")
    return grade


def _descend(op: DiffOp, weight: Fraction) -> DiffOp:
    """The base operator by which op acts on the extensions x0^w g(x/x0).

    There d_inf acts by 0, d_a by x0^-1 d_a, and d_0 at homogeneity v by
    x0^-1 (v - E), with E the base Euler operator; each coefficient is
    restricted to the section.
    """
    space = base_space(op.space.n)
    euler, ident = euler_op(space), DiffOp.identity(space)

    def groups():
        for alpha, coeff in op.terms.items():
            if not alpha.exponent(op.space.inf):
                k = alpha.exponent(0)
                part = DiffOp(space, {alpha.indices()[k:]: 1})
                for i in range(k):
                    part = compose(ident * (weight - alpha.degree + k - i) - euler, part)
                yield DiffOp.multiplication(section_substitution(coeff)), ((part, 1),)

    return compose_sum(space, groups())


def preserves_cone_ideal(op: DiffOp, weight: Rational) -> bool:
    """Whether op maps r*(weight-2) into the ideal of r, decided exactly.

    With C_0 = op and C_j = [C_(j-1), r]: op(r h) = r op(h) + C_1 h, and
    h = g + r h' with g free of xinf, so the test holds iff every C_j
    (j >= 1) descends to zero at weight ``weight - 2j``.  Each bracket
    lowers the order by one.  op must have a single homogeneity shift.
    """
    if op.space.kind != "ambient":
        raise ValueError("expected an ambient operator")
    if not op.is_zero:
        _operator_grade(op)
    bracket, r = op, DiffOp.multiplication(r_polynomial(op.space.n))
    for j in range(1, op.order + 1):
        bracket = commutator(bracket, r)
        if bracket.is_zero:
            return True
        if not _descend(bracket, rat(weight) - 2 * j).is_zero:
            return False
    return True


def induce(op: DiffOp, weight: Rational, order: int | None = None) -> DiffOp:
    """The exact operator induced on weight-w functions of the section.

    op must have a single homogeneity shift and preserve the ideal of the
    cone at this weight (decided exactly); the induced operator is then
    computed symbolically by ``_descend``.  A failed precondition raises
    ValueError, as does an induced order above ``order`` when it is given.
    """
    _operator_grade(op)
    w = rat(weight)
    if not preserves_cone_ideal(op, w):
        raise ValueError("operator does not preserve the cone ideal at this weight")
    induced = _descend(op, w)
    if order is not None and induced.order > order:
        raise ValueError(f"induced operator has order {induced.order}, above {order}")
    return induced
