"""Symmetry algebra of the squared Laplacian.

One-pair constant ambient tensors form the conformal Lie algebra; their
realized vector fields close under the flat bracket, and the ambient trace
pairing reproduces a fixed multiple of the flat invariant pairing.  The
canonical weighted operators attached to trace-free symbols compose
according to an exact algebraic identity whose summands are the six
invariant parts of the tensor square; this module builds all of it and
provides the brute-force enumerator of low-order symmetries together with
the quartic obstruction check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .ambient import (
    ambient_laplacian,
    ambient_op_gg,
    ambient_op_V,
    induce,
    lie_to_ckv,
    r_polynomial,
    realize_ckt,
    realize_gckt,
)
from .cktsolve import divergence, solve_ckt, solve_gckt
from .exactpoly import (
    Monomial,
    Polynomial,
    Rational,
    ambient_space,
    base_space,
    collect,
    exponent_tuples,
    format_rational,
    product_sum,
    rat,
)
from .linsolve import rank, solve_graded
from .tensorcalc import (
    MultiIndex,
    PairSkewTensor,
    SymAmbientTensor,
    SymTensorField,
    adjoint_embed,
    adjoint_extract,
    ambient_indices,
    base_indices,
    bullet_embed,
    counterexample_first_trace,
    counterexample_mixed_trace,
    counterexample_tail_trace,
    counterexample_tensor,
    decompose_gg,
    distinct_orderings,
    nondecreasing_tuples,
    scalar_embed,
    scalar_extract,
    sym_outer,
    tracefree_part,
)
from .weylop import (
    DiffOp,
    NotDivisibleError,
    bilaplacian,
    compose,
    constant_symbol,
    divide_by_constant,
    euler_op,
    laplacian,
    right_factor,
)

# A Lie algebra element is a constant skew one-pair ambient tensor.
LieElement = PairSkewTensor


# ---------------------------------------------------------------------------
# basis and block coordinates


def so_pair_list(n: int) -> list[tuple[int, int]]:
    """Canonical index pairs (I, J), I < J, labeling the skew basis."""
    return list(itertools.combinations(ambient_indices(n), 2))


def so_basis(n: int) -> list[LieElement]:
    """The standard basis of the conformal algebra: one per index pair."""
    return [
        PairSkewTensor(n, 1, {pair: Fraction(1)}) for pair in so_pair_list(n)
    ]


def so_basis_element(n: int, i: int, j: int) -> LieElement:
    if not 0 <= i < j <= n + 1:
        raise ValueError("need 0 <= i < j <= n+1")
    return PairSkewTensor(n, 1, {(i, j): Fraction(1)})


def lie_element(
    n: int,
    lam: Rational = 0,
    r_vec: Sequence[Rational] | None = None,
    s_vec: Sequence[Rational] | None = None,
    m_mat: Mapping[tuple[int, int], Rational] | None = None,
) -> LieElement:
    """Assemble an element from its grading blocks.

    ``lam`` scales the grading element, ``r_vec`` the raising block,
    ``s_vec`` the lowering block, and ``m_mat`` (keys (a, b) with a < b)
    the rotation block.  The realized vector field is
    lam x - m x - s + (r.x) x - (x.x)/2 r.
    """
    comps: dict[MultiIndex, Fraction] = {}
    lam = rat(lam)
    if lam:
        comps[(0, n + 1)] = lam
    if r_vec is not None:
        for a, val in zip(range(1, n + 1), r_vec):
            val = rat(val)
            if val:
                comps[(0, a)] = val
    if s_vec is not None:
        for a, val in zip(range(1, n + 1), s_vec):
            val = rat(val)
            if val:
                comps[(a, n + 1)] = val
    if m_mat is not None:
        for (a, b), val in m_mat.items():
            if not 1 <= a < b <= n:
                raise ValueError("rotation block keys need 1 <= a < b <= n")
            val = rat(val)
            if val:
                comps[(a, b)] = val
    return PairSkewTensor(n, 1, comps)


def dilation_element(n: int) -> LieElement:
    return lie_element(n, lam=1)


def translation_element(n: int, a: int) -> LieElement:
    """Element whose realized field is the constant vector e_a."""
    s = [0] * n
    s[a - 1] = -1
    return lie_element(n, s_vec=s)


def rotation_element(n: int, a: int, b: int) -> LieElement:
    return lie_element(n, m_mat={(min(a, b), max(a, b)): 1 if a < b else -1})


def special_conformal_element(n: int, a: int) -> LieElement:
    r = [0] * n
    r[a - 1] = 1
    return lie_element(n, r_vec=r)


# ---------------------------------------------------------------------------
# bracket and invariant pairing


def bracket(u: LieElement, v: LieElement) -> LieElement:
    """The matrix commutator of one-pair tensors (indices paired by metric):
    the contraction U^{BQ} V_Q^R - V^{BQ} U_Q^R, which is the adjoint
    extraction of their two-pair product."""
    return adjoint_extract(pair_tensor(u, v))


def killing_form(u: LieElement, v: LieElement) -> Fraction:
    """The invariant pairing -n * u^{BQ} v_{BQ} (ambient normalization):
    the double trace of their two-pair product."""
    return scalar_extract(pair_tensor(u, v))


# ---------------------------------------------------------------------------
# products of realized fields


def pair_tensor(u: LieElement, v: LieElement) -> PairSkewTensor:
    """The two-pair tensor product of two one-pair tensors."""
    if u.pair_count != 1 or v.pair_count != 1 or u.n != v.n:
        raise ValueError("expected one-pair tensors of the same dimension")
    return PairSkewTensor(
        u.n,
        2,
        {ku + kv: a * b for ku, a in u.components.items() for kv, b in v.components.items()},
    )


def cartan_product(x: SymTensorField, y: SymTensorField) -> SymTensorField:
    """The trace-free symmetric product of two vector fields."""
    return tracefree_part(sym_outer(x, y))


def bullet_product(x: SymTensorField, y: SymTensorField) -> SymTensorField:
    """The scalar (1/n) X^a Y_a of two vector fields."""
    if x.valency != 1 or y.valency != 1 or x.n != y.n:
        raise ValueError("expected vector fields of the same dimension")
    n = x.n
    scale = Fraction(1, n)
    total = product_sum(x.space, ((scale, x.get((a,)), y.get((a,))) for a in base_indices(n)))
    return SymTensorField(n, 0, {(): total})


# ---------------------------------------------------------------------------
# canonical weighted operators


def canonical_DV(v: SymTensorField, weight: Rational) -> DiffOp:
    """The canonical operator of a trace-free symmetric symbol (valency <= 2).

    Valency 0: multiplication.  Valency 1: V^a d_a - (w/n)(div V).
    Valency 2: V^{ab} d_a d_b - (2(w-1)/(n+2))(div V)^b d_b
    + (w(w-1)/((n+1)(n+2))) div div V.
    """
    w = rat(weight)
    n = v.n
    space = base_space(n)
    if v.valency == 0:
        return DiffOp.multiplication(v.get(()))
    if v.valency == 1:
        terms: dict = {(a,): v.get((a,)) for a in base_indices(n)}
        terms[()] = divergence(v).get(()) * Fraction(-w.numerator, w.denominator * n)
        return DiffOp(space, terms)
    if v.valency == 2:
        if not v.is_tracefree():
            raise ValueError("valency-2 symbol must be trace-free")
        # V^{ab} d_a d_b: each off-diagonal component twice
        terms = {key: comp * distinct_orderings(key) for key, comp in v.components.items()}
        div = divergence(v)
        c1 = Fraction(-2) * (w - 1) / (n + 2)
        for b in base_indices(n):
            terms[(b,)] = div.get((b,)) * c1
        c0 = w * (w - 1) / ((n + 1) * (n + 2))
        terms[()] = divergence(div).get(()) * c0
        return DiffOp(space, terms)
    raise NotImplementedError("closed forms are provided for valency <= 2")


def canonical_DW(w_field: SymTensorField, weight: Rational) -> DiffOp:
    """The canonical operator of a scalar symbol:
    W Lap - ((n+2w-2)/2)(d^a W) d_a + (w(n+2w-2)/(2(n+2)))(Lap W)."""
    if w_field.valency != 0:
        raise ValueError("expected a scalar symbol")
    wpoly, n = w_field.get(()), w_field.n
    w = rat(weight)
    space = base_space(n)
    c1 = -(n + 2 * w - 2) / 2
    c0 = w * (n + 2 * w - 2) / (2 * (n + 2))
    grad = {a: wpoly.partial(a) for a in base_indices(n)}
    lap_w = Polynomial._sum(space, (da.partial(a) for a, da in grad.items()))
    terms = {(a, a): wpoly for a in grad}
    terms.update({(a,): da * c1 for a, da in grad.items()})
    terms[()] = lap_w * c0
    return DiffOp(space, terms)


def bilaplacian_weight(n: int) -> Fraction:
    """The density weight 2 - n/2 on which the squared Laplacian acts."""
    return Fraction(4 - n, 2)


def laplacian_weight(n: int) -> Fraction:
    """The density weight 1 - n/2 on which the Laplacian acts."""
    return Fraction(2 - n, 2)


# ---------------------------------------------------------------------------
# the composition identity


@dataclass(frozen=True)
class CompositionReport:
    """Outcome of one instance of the composition identity."""

    holds: bool
    lhs: DiffOp
    rhs: DiffOp
    summands: DiffOp  # D_cartan + D_bullet + (1/2) D_bracket, rhs without the scalar
    scalar_coefficient: Fraction


def verify_generalstory(u: LieElement, v: LieElement, weight: Rational) -> CompositionReport:
    """Check D_X D_Y = D_{cartan} + D_{bullet} + (1/2) D_{bracket} + scalar.

    X, Y are the realized fields of u, v, each realized once; the scalar
    term is w(n+w)/(n(n+1)(n+2)) times the ambient invariant pairing of u
    and v.  All operators act on weight-w functions; the identity is exact.
    """
    return _composition_reports(u, v)(weight)


def _composition_reports(
    u: LieElement, v: LieElement
) -> Callable[[Rational], CompositionReport]:
    """The report of ``verify_generalstory`` for u, v as a function of the
    weight.  Only the canonical operators depend on the weight, so X, Y,
    their Cartan and bullet products, the bracket field and the pairing are
    built once for every weight."""
    if u.n != v.n:
        raise ValueError("dimension mismatch")
    n = u.n
    x, y = lie_to_ckv(u), lie_to_ckv(v)
    cart = cartan_product(x, y)
    bull = bullet_product(x, y)
    product = pair_tensor(u, v)
    br = lie_to_ckv(adjoint_extract(product))
    pairing = scalar_extract(product)

    def report(weight: Rational) -> CompositionReport:
        w = rat(weight)
        lhs = compose(canonical_DV(x, w), canonical_DV(y, w))
        c_scalar = w * (n + w) / (n * (n + 1) * (n + 2)) * pairing
        summands = (
            canonical_DV(cart, w) + canonical_DW(bull, w) + canonical_DV(br, w) * Fraction(1, 2)
        )
        rhs = summands + DiffOp.identity(base_space(n)) * c_scalar
        return CompositionReport(
            holds=(lhs == rhs), lhs=lhs, rhs=rhs, summands=summands, scalar_coefficient=c_scalar
        )

    return report


# ---------------------------------------------------------------------------
# summand operator behavior


def summand_operator_cases(n: int) -> Iterator[tuple[str, str, bool]]:
    """Exact behavior of the ambient operator on each invariant summand, as
    one (check, case, ok) row per element, pair or weight checked.  Cases
    name the elements d (dilation), t1 (translation), r12 (rotation) and
    k2 (special conformal), and the weight where one is used."""
    w0, wl = bilaplacian_weight(n), laplacian_weight(n)
    elements = {
        "d": dilation_element(n),
        "t1": translation_element(n, 1),
        "r12": rotation_element(n, 1, 2),
        "k2": special_conformal_element(n, 2),
    }
    first_order = {label: ambient_op_V(a) for label, a in elements.items()}

    def product(label: str) -> PairSkewTensor:
        a, b = label.split("*")
        return pair_tensor(elements[a], elements[b])

    parts = {label: decompose_gg(product(label)) for label in ("d*d", "d*t1", "t1*k2", "r12*k2")}

    # the two-derivative operator composes on decomposables
    for label in ("d*t1", "t1*k2", "r12*k2", "d*r12"):
        a, b = label.split("*")
        yield "two_pair_operator_composes", label, (
            ambient_op_gg(product(label)) == compose(first_order[a], first_order[b])
        )

    # adjoint summand: the embedded operator is half the original
    for label, a in elements.items():
        yield "adjoint_embeds_to_half", label, (
            ambient_op_gg(adjoint_embed(a)) == first_order[label] * Fraction(1, 2)
        )

    # hook and fully skew summands act by zero
    for label in ("d*t1", "t1*k2", "r12*k2"):
        dec = parts[label]
        yield "hook_and_skew_act_by_zero", label, (
            ambient_op_gg(dec.hook).is_zero and ambient_op_gg(dec.fully_skew).is_zero
        )

    yield "scalar_operator_shape", f"n={n}", _scalar_operator_shape(n)

    # scalar summand induces multiplication by w(n+w)/(n(n+1)(n+2))
    scalar_op = ambient_op_gg(scalar_embed(Fraction(1), n))
    for w in (w0, Fraction(1), Fraction(-1)):
        target = DiffOp.identity(base_space(n)) * (w * (n + w) / (n * (n + 1) * (n + 2)))
        yield "scalar_induces_multiplication", f"w={format_rational(w)}", (
            induce(scalar_op, w, order=0) == target
        )

    # bullet summand: embedded operator induces the canonical scalar operator
    for label in ("d*d", "t1*k2", "r12*k2"):
        bullet = parts[label].bullet_W
        if not bullet.is_zero:
            op, field = ambient_op_gg(bullet_embed(bullet)), realize_gckt(bullet)
            for w in (w0, Fraction(1)):
                yield "bullet_induces_canonical_DW", f"{label} w={format_rational(w)}", (
                    induce(op, w, order=2) == canonical_DW(field, w)
                )

    # cartan summand: embedded operator induces the canonical rank-2 operator
    for label in ("d*d", "t1*k2"):
        cartan = parts[label].cartan
        if not cartan.is_zero:
            yield "cartan_induces_canonical_DV", f"{label} w={format_rational(w0)}", (
                induce(ambient_op_gg(cartan), w0, order=2) == canonical_DV(realize_ckt(cartan), w0)
            )

    # at the Laplacian weight the scalar-symbol operator right-factors
    for label in ("d*d", "t1*k2"):
        bullet = parts[label].bullet_W
        if not bullet.is_zero:
            field = realize_gckt(bullet)
            try:
                delta = right_factor(canonical_DW(field, wl), laplacian(n))
                ok = delta == DiffOp.multiplication(field.get(()))
            except NotDivisibleError:
                ok = False
            yield "bullet_factors_through_laplacian_at_special_weight", (
                f"{label} w={format_rational(wl)}"
            ), ok


def summand_operator_checks(n: int) -> dict[str, bool]:
    """Each check of ``summand_operator_cases``, true iff all its cases hold."""
    results: dict[str, bool] = {}
    for check, _, ok in summand_operator_cases(n):
        results[check] = results.get(check, True) and ok
    return results


def _scalar_operator_shape(n: int) -> bool:
    """ambient_op_gg(scalar embed of 1) equals
    (x^Q x^R d_Q d_R - r Lap + (n+1) x^R d_R) / (n(n+1)(n+2))."""
    space = ambient_space(n)
    nn = Fraction(1, n * (n + 1) * (n + 2))
    # x^Q x^R d_Q d_R: each coefficient monomial has its derivative's exponents
    keys = (Monomial.of_indices(qr) for qr in itertools.product(ambient_indices(n), repeat=2))
    expected = DiffOp._collect(space, ((qr, Polynomial(space, {qr: nn})) for qr in keys))
    # subtract r times the ambient Laplacian
    expected = expected - ambient_laplacian(n) * (r_polynomial(n) * nn)
    # add (n+1) times the ambient Euler operator
    expected = expected + euler_op(space) * (nn * (n + 1))
    return ambient_op_gg(scalar_embed(Fraction(1), n)) == expected


# ---------------------------------------------------------------------------
# brute-force enumeration of low-order symmetries


def _symbol_row_builder(bilap: DiffOp) -> Callable[[tuple], list]:
    """The ``linsolve.leibniz_columns`` constants of one alpha: the rows of
    the linear symmetry condition for the generators x^m d^alpha.

    The rows are the entries of the remainder of the symbol of bilap o gen
    modulo the symbol of bilap, the squared Laplacian, keyed by the
    derivative monomial's ``Monomial.exps`` (int ids in the columns).
    bilap = sum_beta c_beta d^beta has constant integer coefficients, and
    the part of x^(m-gamma) is the remainder of P_gamma d^alpha, P_gamma =
    sum_beta c_beta binomial(beta, gamma) d^(beta-gamma).  The remainder
    is linear, so it is summed from the remainders of the derivative
    monomials d^(beta-gamma) d^alpha, each divided once by
    ``weylop.divide_by_constant`` and kept in a dict of the builder's own,
    shared across alpha and gamma; bilap is monic, so the entries are ints.
    """
    divisor = constant_symbol(bilap)
    pairs: dict[Monomial, list] = {}
    for beta, c in divisor.items():
        for gamma, rest, weight in beta.divisors():
            pairs.setdefault(gamma, []).append((rest, c * weight))
    parts = {gamma: collect(ps) for gamma, ps in pairs.items()}
    n = bilap.space.n
    remainders: dict[Monomial, dict[Monomial, int]] = {}

    def remainder(delta: Monomial) -> dict[Monomial, int]:
        rem = remainders.get(delta)
        if rem is None:
            rem = remainders[delta] = divide_by_constant({delta: 1}, divisor)[1]
        return rem

    def constants(alpha: tuple[int, ...]) -> list:
        alpha_key = Monomial.of_indices(alpha)
        out = []
        for gamma, part in parts.items():
            reduced = collect(
                (rho.exps, c * k)
                for rest, c in part.items()
                for rho, k in remainder(rest * alpha_key).items()
            )
            gamma_exps = tuple(gamma.exponent(v) for v in range(1, n + 1))
            out.append((gamma_exps, reduced))
        return out

    return constants


@dataclass(frozen=True)
class SymmetryBasis:
    """Basis of operators d with (squared Laplacian) o d in the left ideal
    generated by the squared Laplacian, up to the stated order and
    polynomial coefficient degree.

    ``stabilized`` is True only when the elements provably span every such
    operator of that order, whatever its coefficient degree."""

    n: int
    order: int
    degree_bound: int
    elements: tuple[DiffOp, ...]
    stabilized: bool

    @property
    def dimension(self) -> int:
        return len(self.elements)


def enumerate_symmetries(n: int, order: int, degree_bound: int) -> SymmetryBasis:
    """All symmetries of the squared Laplacian with derivative order <= order
    and coefficient degree <= degree_bound, by exact block-wise elimination.

    The shifts |m| - |alpha| of x^m d^alpha are solved in ascending order
    by ``linsolve.solve_graded``, which also gives ``stabilized``; shift s
    is complete when s + order <= degree_bound.  Since d_i commutes with the
    squared Laplacian L, L o D = delta o L gives L o [d_i, D] = [d_i, delta]
    o L, so [d_i, .] maps shift s + 1 into shift s; only
    constant-coefficient operators, of shift <= 0, commute with every d_i.
    So the first empty complete shift >= 0 ends the solve with the flag
    True, and up to order 3, where shift order + 1 is empty, the work does
    not grow with degree_bound.  With degree_bound < order the flag is
    False, and rightly: the order-th power of the dilation x.d is a
    symmetry of shift 0 outside the basis.  At order >= 4 the operators A o
    L are solutions at every shift, so no shift is empty, the flag is never
    True, and every shift up to degree_bound is solved: a large bound there
    waits for a basis modulo those operators.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if order < 0 or degree_bound < 0:
        raise ValueError("order and degree_bound must be nonnegative")
    space = base_space(n)

    def unknowns(shift: int, complete: bool) -> Iterator[tuple]:
        # the generators (alpha, m_exps) with |m| - |alpha| = shift,
        # |alpha| <= order and |m| <= top
        top = shift + order if complete else degree_bound
        for degree in range(max(shift, 0), min(shift + order, top) + 1):
            alphas = nondecreasing_tuples(base_indices(n), degree - shift)
            for m_exps in exponent_tuples(n, degree):
                for alpha in alphas:
                    yield alpha, m_exps

    constants = _symbol_row_builder(bilaplacian(n))
    solved, stabilized = solve_graded(
        space, unknowns, constants, -order, degree_bound - order + 1, degree_bound
    )
    return SymmetryBasis(
        n=n,
        order=order,
        degree_bound=degree_bound,
        elements=tuple(
            DiffOp._make(space, {Monomial.of_indices(a): p for a, p in fields.items()})
            for _, fields in solved
        ),
        stabilized=stabilized,
    )


# ---------------------------------------------------------------------------
# span comparison of operator families


def _operator_column(op: DiffOp) -> dict:
    return {
        (alpha, mono): coeff
        for alpha, poly in op.terms.items()
        for mono, coeff in poly.terms.items()
    }


def operator_span_dimension(ops: Iterable[DiffOp]) -> int:
    """Dimension of the linear span of the given operators."""
    return rank([_operator_column(op) for op in ops])


def canonical_second_order_family(n: int) -> list[DiffOp]:
    """The constructed second-order symmetries: the identity, the canonical
    operators of all conformal Killing fields and trace-free conformal
    Killing 2-tensors, and the scalar-symbol operators of the quadratic
    solution space, all at the distinguished weight."""
    w0 = bilaplacian_weight(n)
    ops: list[DiffOp] = [DiffOp.identity(base_space(n))]
    for v in solve_ckt(n, 1, 2).elements:
        ops.append(canonical_DV(v, w0))
    for v in solve_ckt(n, 2, 4).elements:
        ops.append(canonical_DV(v, w0))
    for w_field in solve_gckt(n, 0, 4).elements:
        ops.append(canonical_DW(w_field, w0))
    return ops


# ---------------------------------------------------------------------------
# the quartic obstruction: a symmetry that factors through the operator


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of the quartic pipeline on a generic seeded tensor."""

    n: int
    seed_used: int
    skipped: tuple[tuple[int, str], ...]  # (seed, "zero tensor" | "zero quartic")
    first_trace_is_zero: bool
    tail_trace_is_zero: bool
    mixed_trace_factor: Fraction
    mixed_trace_matches: bool
    scalar_factor: Fraction
    quartic_matches: bool
    induced: DiffOp
    certificate: DiffOp
    quartic_polynomial: Polynomial

    @property
    def all_hold(self) -> bool:
        return (
            self.first_trace_is_zero
            and self.tail_trace_is_zero
            and self.mixed_trace_matches
            and self.mixed_trace_factor != 0
            and self.quartic_matches
            and self.scalar_factor != 0
        )


def _random_tracefree_four_tensor(n: int, seed: int) -> SymAmbientTensor:
    rng = random.Random(seed)
    raw = {
        key: Fraction(rng.randint(-5, 5))
        for key in nondecreasing_tuples(ambient_indices(n), 4)
    }
    return tracefree_part(SymAmbientTensor(n, 4, raw))


def counterexample_operator_check(n: int, seed: int = 0) -> CounterexampleReport:
    """Build the fourth-order operator attached to a generic trace-free
    symmetric four-tensor and verify it induces an exact multiple of the
    quartic boundary polynomial times the squared Laplacian.

    Seeds that degenerate (zero tensor or zero quartic polynomial) are
    skipped deterministically; the report records the seed actually used
    and each seed skipped before it with its reason.
    """
    space = base_space(n)  # checks n before the draw of n^4 / 24 components
    z = None
    skipped = []
    for attempt in range(seed, seed + 10):
        candidate = _random_tracefree_four_tensor(n, attempt)
        if candidate.is_zero:
            skipped.append((attempt, "zero tensor"))
            continue
        # the quartic boundary polynomial Z^{BCDE} phi_B phi_C phi_D phi_E
        q_poly = realize_gckt(candidate).get(())
        if q_poly.is_zero:
            skipped.append((attempt, "zero quartic"))
        else:
            z = candidate
            break
    if z is None:
        raise ValueError("could not draw a nondegenerate tensor from this seed")

    x = counterexample_tensor(z)
    first = counterexample_first_trace(x)
    tail = counterexample_tail_trace(x)
    first_zero = all(v == 0 for v in first.values())
    tail_zero = all(v == 0 for v in tail.values())

    mixed = counterexample_mixed_trace(x)
    factor = Fraction(0)
    for key, val in z.components.items():
        if val:
            factor = mixed.get(key, Fraction(0)) / val
            break
    mixed_matches = all(
        mixed.get(key, Fraction(0)) == factor * z.get(key)
        for key in itertools.product(ambient_indices(n), repeat=4)
    )

    w0 = bilaplacian_weight(n)
    induced = induce(ambient_op_gg(x), w0)

    certificate = DiffOp.zero(space)
    scalar_factor = Fraction(0)
    quartic_matches = False
    try:
        certificate = right_factor(induced, bilaplacian(n))
    except NotDivisibleError:
        pass
    else:
        if certificate.order == 0:
            mult = certificate.coefficient(())
            mono, lead_coeff = q_poly.leading_term()
            scalar_factor = mult.terms.get(mono, Fraction(0)) / lead_coeff
            quartic_matches = mult == q_poly * scalar_factor

    return CounterexampleReport(
        n=n,
        seed_used=attempt,
        skipped=tuple(skipped),
        first_trace_is_zero=first_zero,
        tail_trace_is_zero=tail_zero,
        mixed_trace_factor=factor,
        mixed_trace_matches=mixed_matches,
        scalar_factor=scalar_factor,
        quartic_matches=quartic_matches,
        induced=induced,
        certificate=certificate,
        quartic_polynomial=q_poly,
    )
