"""The nine acceptance criteria, each stated once as a suite of exact checks.

A suite is a generator ``suite(n, seed, weight)`` that yields one
``(check, case, ok)`` row per case.  The case is a short label of what was
checked (a pair and weight, a basis element, a sample, or the whole
dimension ``n=3``), so a failing row names its own witness.  Only
``composition-identity`` reads ``weight`` (``None`` means its three
default weights) and only ``quartic-obstruction`` reads ``seed``.
``bilapsym verify`` reports these rows and ``tests/test_acceptance.py``
gates on them.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .ambient import (
    ambient_bilaplacian,
    ambient_laplacian,
    ambient_op_gg,
    ambient_op_V,
    ambient_op_W,
    induce,
    lie_to_ckv,
    r_polynomial,
    realize_ckt,
    realize_gckt,
    section_frame,
)
from .cktsolve import (
    divergence,
    second_order_symmetry_dimension,
    solve_ckt,
    solve_gckt,
    verify_lemma_hilf,
)
from .exactpoly import Monomial, Polynomial, ambient_space, base_space, format_rational
from .symalg import (
    LieElement,
    _composition_reports,
    bilaplacian_weight,
    canonical_DV,
    canonical_DW,
    counterexample_operator_check,
    dilation_element,
    enumerate_symmetries,
    killing_form,
    laplacian_weight,
    operator_span_dimension,
    pair_tensor,
    rotation_element,
    so_basis_element,
    so_pair_list,
    special_conformal_element,
    summand_operator_cases,
    translation_element,
)
from .tensorcalc import ambient_indices, ambient_lower, base_indices, decompose_gg
from .weylop import (
    DiffOp,
    apply,
    bilaplacian,
    commutator,
    compose,
    euler_op,
    is_symmetry,
    laplacian,
)

# ---------------------------------------------------------------------------
# shared inputs


def _basis(n: int) -> list[tuple[str, LieElement]]:
    """(label, element) for the standard basis of the conformal algebra."""
    return [(f"e({i},{j})", so_basis_element(n, i, j)) for i, j in so_pair_list(n)]


@functools.lru_cache(maxsize=None)
def _generator_bases(n: int):
    """The conformal Killing vectors, trace-free conformal Killing 2-tensors
    and scalar solutions, solved once per n for the four suites that use
    them (the bases are frozen, so sharing them is safe)."""
    return solve_ckt(n, 1, 2), solve_ckt(n, 2, 4), solve_gckt(n, 0, 4)


def _canonical_operators(n: int) -> list[tuple[str, DiffOp]]:
    """(label, operator) for the canonical operators of the generator bases
    at the weight of the squared Laplacian: with the identity in front, the
    list ``symalg.canonical_second_order_family`` builds."""
    w0 = bilaplacian_weight(n)
    ckv, ckt, scalars = _generator_bases(n)
    return (
        [(f"ckv[{i}]", canonical_DV(v, w0)) for i, v in enumerate(ckv.elements)]
        + [(f"ckt[{i}]", canonical_DV(v, w0)) for i, v in enumerate(ckt.elements)]
        + [(f"gckt[{i}]", canonical_DW(w, w0)) for i, w in enumerate(scalars.elements)]
    )


# ---------------------------------------------------------------------------
# 1-3: dimensions and certificates


def symmetry_enumeration(n: int, seed: int, weight):
    """Brute-force enumeration at coefficient degree 6 finds the closed-form
    dimension, stabilizes, and is spanned by the constructed family."""
    case = f"n={n}"
    first = enumerate_symmetries(n, 1, 2)
    yield "first_order_enumeration_count", case, first.dimension == (n + 1) * (n + 2) // 2 + 1
    yield "first_order_enumeration_stabilized", case, first.stabilized
    basis = enumerate_symmetries(n, 2, 6)
    expected = second_order_symmetry_dimension(n)
    yield "second_order_enumeration_count", case, basis.dimension == expected
    yield "second_order_enumeration_stabilized", case, basis.stabilized
    family = [DiffOp.identity(base_space(n))] + [op for _, op in _canonical_operators(n)]
    enumerated = operator_span_dimension(basis.elements)
    spans = (
        operator_span_dimension(family) == expected
        and operator_span_dimension(list(basis.elements) + family) == enumerated
    )
    yield "constructed_family_spans_enumerated_space", case, spans


def dimension_counts(n: int, seed: int, weight):
    """The generator route counts as many symmetries as the closed form."""
    case = f"n={n}"
    ckv, ckt, scalars = _generator_bases(n)
    yield "first_order_solution_count", case, (
        ckv.dimension == (n + 1) * (n + 2) // 2 and ckv.stabilized
    )
    total = 1 + ckv.dimension + ckt.dimension + scalars.dimension
    yield "second_order_total_matches_closed_form", case, (
        ckt.stabilized and scalars.stabilized and total == second_order_symmetry_dimension(n)
    )


def certificates(n: int, seed: int, weight):
    """Each canonical operator D has a certificate delta, and delta o bilap
    recomposes to bilap o D."""
    bilap = bilaplacian(n)
    for label, op in _canonical_operators(n):
        delta = is_symmetry(op)
        ok = delta is not None and compose(delta, bilap) == compose(bilap, op)
        yield "certificate_recomposes", label, ok


# ---------------------------------------------------------------------------
# 4: induced operators and their closed-form coefficients


def _explicit_two_index_operator(v, c_div, c_divdiv) -> DiffOp:
    """V^{ab} d_a d_b + c_div (div V)^a d_a + c_divdiv (div div V)."""
    space = base_space(v.n)
    out = DiffOp.zero(space)
    for a in base_indices(v.n):
        for b in base_indices(v.n):
            dd = compose(DiffOp.partial_op(space, a), DiffOp.partial_op(space, b))
            out = out + dd * v.get((a, b))
    div = divergence(v)
    for a in base_indices(v.n):
        out = out + DiffOp.partial_op(space, a) * (div.get((a,)) * c_div)
    return out + DiffOp.multiplication(divergence(div).get(()) * c_divdiv)


def _explicit_scalar_operator(w_poly: Polynomial, c_grad, c_lap) -> DiffOp:
    """W Lap + c_grad (grad W).grad + c_lap (Lap W)."""
    n = w_poly.space.n
    out = compose(DiffOp.multiplication(w_poly), laplacian(n))
    for a in base_indices(n):
        out = out + DiffOp.partial_op(w_poly.space, a) * (w_poly.partial(a) * c_grad)
    return out + DiffOp.multiplication(apply(laplacian(n), w_poly) * c_lap)


def induced_operators(n: int, seed: int, weight):
    """Ambient operators induce the flat operators, the canonical forms of
    each summand, and the displayed closed-form coefficients."""
    w0 = bilaplacian_weight(n)
    case = f"n={n}"
    yield "second_order_inducts_to_laplacian", case, (
        induce(ambient_laplacian(n), laplacian_weight(n), order=2) == laplacian(n)
    )
    yield "fourth_order_inducts_to_squared_laplacian", case, (
        induce(ambient_bilaplacian(n), w0, order=4) == bilaplacian(n)
    )
    basis = _basis(n)
    for label, u in basis:
        ind = induce(ambient_op_V(u), w0, order=1)
        yield "one_pair_operators_induce_canonical_form", label, (
            ind == canonical_DV(lie_to_ckv(u), w0)
        )

    e_label, e = basis[0]
    t1, k1, d = translation_element(n, 1), special_conformal_element(n, 1), dilation_element(n)
    for label, u, v in ((f"{e_label}*{e_label}", e, e), ("t1*k1", t1, k1)):
        dec = decompose_gg(pair_tensor(u, v))
        if not dec.cartan.is_zero:
            ind = induce(ambient_op_gg(dec.cartan), w0, order=2)
            yield "cartan_summand_induces_canonical_form", label, (
                ind == canonical_DV(realize_ckt(dec.cartan), w0)
            )
        if not dec.bullet_W.is_zero:
            ind = induce(ambient_op_W(dec.bullet_W), w0, order=2)
            yield "bullet_summand_induces_canonical_form", label, (
                ind == canonical_DW(realize_gckt(dec.bullet_W), w0)
            )

    # each closed form is tested on a symbol whose lowest-order term is
    # nonzero, so that its coefficient is seen.
    # two-index: V dd + ((n-2)/(n+2)) divV d + ((n-2)(n-4)/(4(n+1)(n+2))) divdivV
    cartan = decompose_gg(pair_tensor(t1, k1)).cartan
    field = realize_ckt(cartan)
    explicit = _explicit_two_index_operator(
        field, Fraction(n - 2, n + 2), Fraction((n - 2) * (n - 4), 4 * (n + 1) * (n + 2))
    )
    yield "two_index_closed_form", "t1*k1", (
        not divergence(divergence(field)).get(()).is_zero
        and induce(ambient_op_gg(cartan), w0, order=2) == explicit
    )
    # scalar: W Lap - (grad W).grad - ((n-4)/(2(n+2))) Lap W
    w_field = decompose_gg(pair_tensor(d, d)).bullet_W
    w_poly = realize_gckt(w_field).get(())
    explicit = _explicit_scalar_operator(w_poly, Fraction(-1), -Fraction(n - 4, 2 * (n + 2)))
    yield "scalar_closed_form", "d*d", (
        not apply(laplacian(n), w_poly).is_zero
        and induce(ambient_op_W(w_field), w0, order=2) == explicit
    )
    # first order: V d + ((n-4)/(2n)) divV
    fd = lie_to_ckv(d)
    space = base_space(n)
    explicit = DiffOp._sum(
        space, (DiffOp.partial_op(space, a) * fd.get((a,)) for a in base_indices(n))
    ) + DiffOp.multiplication(divergence(fd).get(()) * Fraction(n - 4, 2 * n))
    yield "first_order_closed_form", "d", induce(ambient_op_V(d), w0, order=1) == explicit


# ---------------------------------------------------------------------------
# 5: the composition identity


def composition_identity(n: int, seed: int, weight):
    """D_X D_Y splits into the invariant summands for every pair of basis
    elements, and what D_X D_Y leaves after its three operator summands
    (Cartan, bullet and half the bracket) is w(n+w)/(n(n+1)(n+2)) times the
    invariant pairing, times the identity: at three distinct weights this
    pins the quadratic."""
    if weight is None:
        weights = [bilaplacian_weight(n), laplacian_weight(n), Fraction(1, 7)]
    else:
        weights = [weight]
    scale = Fraction(1, n * (n + 1) * (n + 2))
    identity = DiffOp.identity(base_space(n))
    basis = _basis(n)
    for i, (a, u) in enumerate(basis):
        for b, v in basis[i:]:
            pairing = killing_form(u, v)
            # X, Y and the products are realized once for the pair
            report_at = _composition_reports(u, v)
            for w in weights:
                case = f"{a}*{b} w={format_rational(w)}"
                report = report_at(w)
                yield "composition_identity_on_basis_pairs", case, report.holds
                yield "scalar_term_is_killing_form_multiple", case, (
                    report.lhs - report.summands == identity * (pairing * w * (n + w) * scale)
                )


# ---------------------------------------------------------------------------
# 6: ambient identities


def _random_ambient_homogeneous(n: int, degree: int, rng: random.Random) -> Polynomial:
    """A sum of five random monomials of the given degree on the ambient space."""
    space = ambient_space(n)
    variables = [0] + list(base_indices(n)) + [space.inf]
    total = Polynomial.zero(space)
    for _ in range(5):
        exps = [0] * len(variables)
        for _ in range(degree):
            exps[rng.randrange(len(variables))] += 1
        pairs = [(var, e) for var, e in zip(variables, exps) if e]
        coeff = rng.randint(-7, 7) or 1
        total = total + Polynomial(space, {Monomial(pairs): Fraction(coeff)})
    return total


def ambient_identities(n: int, seed: int, weight):
    """The section coefficients, the cone commutators and relations, and the
    operators that commute with r and the ambient Laplacians."""
    case = f"n={n}"
    # contraction identities of the section frame phi and psi
    (phi, psi), space = section_frame(n), base_space(n)
    lower = functools.partial(ambient_lower, n)

    def psi_at(b: int, q: int) -> Polynomial:
        return dict(psi[q]).get(b, Polynomial.zero(space))

    null = Polynomial._sum(space, (phi[b] * phi[lower(b)] for b in ambient_indices(n)))
    yield "position_null", case, null.is_zero
    for c in base_indices(n):
        total = Polynomial._sum(space, (phi[b] * psi_at(c, lower(b)) for b in ambient_indices(n)))
        yield "position_tangent_orthogonal", f"c={c}", total.is_zero
    for b in base_indices(n):
        for c in base_indices(n):
            total = Polynomial._sum(
                space, (psi_at(b, q) * psi_at(c, lower(q)) for q in ambient_indices(n))
            )
            expected = Polynomial.constant(space, int(b == c))
            yield "tangent_metric", f"b={b} c={c}", total == expected

    # commutators with r, and the cone relations on sampled homogeneous g
    aspace = ambient_space(n)
    lap, bilap = ambient_laplacian(n), ambient_bilaplacian(n)
    r = r_polynomial(n)
    mult_r = DiffOp.multiplication(r)
    grading = DiffOp.identity(aspace) * Fraction(2 * n + 4) + euler_op(aspace) * Fraction(4)
    yield "laplacian_cone_commutator", case, commutator(lap, mult_r) == grading
    yield "bilaplacian_cone_commutator", case, (
        commutator(bilap, mult_r) == compose(grading, lap) + compose(lap, grading)
    )
    rng = random.Random(20260818)
    for degree in range(4):
        w = degree + 2
        for i in range(3):
            g = _random_ambient_homogeneous(n, degree, rng)
            sample = f"degree={degree} sample={i}"
            yield "laplacian_cone_relation", sample, (
                apply(lap, r * g) == r * apply(lap, g) + g * Fraction(2 * (n + 2 * w - 2))
            )
            yield "bilaplacian_cone_relation", sample, (
                apply(bilap, r * g)
                == r * apply(bilap, g) + apply(lap, g) * Fraction(4 * (n + 2 * w - 4))
            )

    # one-pair operators, top-summand operators and words in the one-pair
    # operators commute with r and the Laplacian (the squared one for the
    # top summand)
    basic = [(label, ambient_op_V(u)) for label, u in _basis(n)]
    for label, op in basic:
        yield "one_pair_operator_commutes", label, (
            commutator(op, mult_r).is_zero and commutator(op, lap).is_zero
        )
    t1, k1, k2 = (
        translation_element(n, 1),
        special_conformal_element(n, 1),
        special_conformal_element(n, 2),
    )
    d, r12 = dilation_element(n), rotation_element(n, 1, 2)
    for label, u, v in (("t1*k1", t1, k1), ("d*r12", d, r12), ("k2*k1", k2, k1)):
        cartan = decompose_gg(pair_tensor(u, v)).cartan
        if not cartan.is_zero:
            op = ambient_op_gg(cartan)
            yield "top_summand_operator_commutes", label, (
                commutator(op, mult_r).is_zero and commutator(op, bilap).is_zero
            )
    for word in ((0,), (3,), (0, 5), (2, 7), (9, 1), (0, 5, 9), (4, 4, 4), (8, 2, 6)):
        op = functools.reduce(compose, (basic[i][1] for i in word))
        label = "".join(basic[i][0] for i in word)
        yield "word_commutes", label, (
            commutator(op, mult_r).is_zero and commutator(op, lap).is_zero
        )


# ---------------------------------------------------------------------------
# 7-9: summands, the structure lemma and the quartic obstruction


def summand_behavior(n: int, seed: int, weight):
    """Each invariant summand acts as the paper states
    (``symalg.summand_operator_cases``): one row per check, whose case is
    its first failing element, pair or weight, or the dimension when all
    hold."""
    failed: dict[str, str | None] = {}
    for check, case, ok in summand_operator_cases(n):
        if failed.setdefault(check, None) is None and not ok:
            failed[check] = case
    for check, case in failed.items():
        yield check, case or f"n={n}", case is None


def structure_lemma(n: int, seed: int, weight):
    """The divergence-potential identities on every solved basis element."""
    ckv, ckt, _ = _generator_bases(n)
    for name, basis in (("ckv", ckv), ("ckt", ckt)):
        for i, v in enumerate(basis.elements):
            yield "divergence_structure_lemma", f"{name}[{i}]", verify_lemma_hilf(v).all_hold


def quartic_obstruction(n: int, seed: int, weight):
    """A generic trace-free four-tensor induces a nonzero multiple of q times
    the squared Laplacian."""
    report = counterexample_operator_check(n, seed)
    case = f"n={n} seed={report.seed_used}"
    if report.skipped:
        case += " (skipped " + ", ".join(f"{s}: {why}" for s, why in report.skipped) + ")"
    yield "quartic_first_traces_vanish", case, report.first_trace_is_zero
    yield "quartic_tail_traces_vanish", case, report.tail_trace_is_zero
    yield "quartic_mixed_trace_is_multiple", case, (
        report.mixed_trace_matches and report.mixed_trace_factor != 0
    )
    yield "quartic_operator_factors_exactly", case, (
        report.quartic_matches and report.scalar_factor != 0
    )
    expected = compose(
        DiffOp.multiplication(report.quartic_polynomial * report.scalar_factor), bilaplacian(n)
    )
    yield "induced_is_quartic_times_squared_laplacian", case, report.induced == expected


SUITES = {
    "ambient-identities": ambient_identities,
    "induced-operators": induced_operators,
    "composition-identity": composition_identity,
    "summand-behavior": summand_behavior,
    "dimension-counts": dimension_counts,
    "symmetry-enumeration": symmetry_enumeration,
    "certificates": certificates,
    "structure-lemma": structure_lemma,
    "quartic-obstruction": quartic_obstruction,
}
