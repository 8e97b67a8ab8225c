"""Exact solvers for the two overdetermined symbol equations.

A trace-free symmetric s-tensor V solves the rank-s equation when the
trace-free part of its symmetrized gradient vanishes; a valency-t tensor W
solves the order-three variant when the trace-free part of its triply
symmetrized gradient vanishes.  Both equations are linear with constant
coefficients and homogeneous in polynomial degree, so the solution space
splits into independent blocks by (degree, per-variable parity), each a
small exact nullspace, and d_i maps solutions of degree d + 1 to solutions
of degree d, with only the constants killed by every d_i: the setting of
``linsolve.solve_graded``, which takes the unknowns of each degree and the
residual's constants of each multi-index.  The degrees are solved in
ascending order, and the first empty one proves every higher one empty and
ends the solve, so the work does not grow with the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .exactpoly import (
    Polynomial,
    base_space,
    collect,
    exponent_tuples,
    monomial_from_exponents,
)
from .linsolve import solve_graded
from .tensorcalc import (
    MultiIndex,
    SymTensorField,
    base_indices,
    metric_tensor,
    metric_trace,
    nondecreasing_tuples,
    sym_outer,
    tracefree_part,
)

# ---------------------------------------------------------------------------
# differential maps on symmetric tensor fields


def sym_gradient(v: SymTensorField) -> SymTensorField:
    """Symmetrized gradient: average of d_{i_p} V[rest] over positions.

    d_i V[K] lands on K' = sorted(K + (i,)) once for each position of i in
    K', so only the stored components are visited.
    """
    n, s = v.n, v.valency
    share = Fraction(1, s + 1)

    def terms():
        for key, comp in v.components.items():
            for i in base_indices(n):
                d = comp.partial(i)
                if d:
                    out = tuple(sorted(key + (i,)))
                    mult = out.count(i)
                    yield out, d if mult == 1 else d * mult

    return SymTensorField._make((n, s + 1), {k: val * share for k, val in collect(terms()).items()})


def divergence(v: SymTensorField) -> SymTensorField:
    """Contraction of the gradient with the tensor's first slot: d_a V[K]
    lands on K less one a, once per distinct index a of the stored K."""
    n, s = v.n, v.valency
    if s < 1:
        raise ValueError("divergence needs valency >= 1")

    def terms():
        for key, comp in v.components.items():
            for a in dict.fromkeys(key):
                rest = list(key)
                rest.remove(a)
                yield tuple(rest), comp.partial(a)

    return SymTensorField._collect((n, s - 1), terms())


def component_laplacian(v: SymTensorField) -> SymTensorField:
    """Componentwise flat Laplacian."""

    def lap(p: Polynomial) -> Polynomial:
        return Polynomial._sum(p.space, (p.partial(a).partial(a) for a in base_indices(v.n)))

    return v.map_components(lap)


def ckt_residual(v: SymTensorField) -> SymTensorField:
    """Trace-free part of the symmetrized gradient (rank-s equation)."""
    return tracefree_part(sym_gradient(v))


def gckt_residual(w: SymTensorField) -> SymTensorField:
    """Trace-free part of the triply symmetrized gradient."""
    g3 = sym_gradient(sym_gradient(sym_gradient(w)))
    return tracefree_part(g3)


# ---------------------------------------------------------------------------
# degree/parity-blocked exact solving


# Both solvers require a vanishing metric trace of unknowns of this valency
# and above, the first valency that has a trace.
TRACEFREE_FROM_VALENCY = 2


def _residual_column_builder(n: int, valency: int, residual_fn):
    """The ``linsolve.leibniz_columns`` constants of one multi-index key:
    the residual and trace rows of the unknowns e_key x^m.

    The residual R has constant coefficients and order r (its valency
    minus the input's), so R(e_K x^gamma) is constant for |gamma| = r and
    C[K, gamma] = R(e_K x^gamma) / gamma!.  The trace tr(e_K) is the
    gamma = 0 part.  Rows ("r" or "t", multi-index) get int ids in the columns.
    """
    space = base_space(n)
    r = residual_fn(SymTensorField(n, valency)).valency - valency
    gammas = exponent_tuples(n, r)

    def constants(key: MultiIndex) -> list:
        def unit(exps) -> SymTensorField:
            mono = monomial_from_exponents(exps)
            return SymTensorField(n, valency, {key: Polynomial(space, {mono: Fraction(1)})})

        parts = []
        for gamma in gammas:
            scale = Fraction(1, prod(map(factorial, gamma)))
            comps = residual_fn(unit(gamma)).components
            parts.append((gamma, {("r", k): p.constant_value() * scale for k, p in comps.items()}))
        if valency >= TRACEFREE_FROM_VALENCY:
            comps = metric_trace(unit((0,) * n)).components
            parts.append(((0,) * n, {("t", k): p.constant_value() for k, p in comps.items()}))
        return parts

    return constants


@dataclass(frozen=True)
class SolutionBasis:
    """Exact basis of a polynomial solution space, graded by degree."""

    n: int
    valency: int
    degree_bound: int
    elements: tuple[SymTensorField, ...]
    degrees: tuple[int, ...]
    stabilized: bool

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def dimension_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out


def _solve_graded(n: int, valency: int, degree_bound: int, residual_fn) -> SolutionBasis:
    """Solve by ``linsolve.solve_graded``, one degree at a time; the
    unknowns of degree d are (multi-index, exponent vector) coordinates.
    Every degree is complete, so the first empty one ends the solve, and
    otherwise degree_bound + 1 is the probe."""
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    space = base_space(n)
    keys = nondecreasing_tuples(base_indices(n), valency)

    def unknowns(degree: int, complete: bool) -> list:
        return [(key, exps) for key in keys for exps in exponent_tuples(n, degree)]

    constants = _residual_column_builder(n, valency, residual_fn)
    solved, stabilized = solve_graded(space, unknowns, constants, 0, degree_bound + 1, degree_bound)
    return SolutionBasis(
        n=n,
        valency=valency,
        degree_bound=degree_bound,
        elements=tuple(SymTensorField(n, valency, fields) for _, fields in solved),
        degrees=tuple(d for d, _ in solved),
        stabilized=stabilized,
    )


def solve_ckt(n: int, s: int, degree_bound: int) -> SolutionBasis:
    """Exact basis of trace-free symmetric s-tensors killed by ckt_residual,
    of polynomial degree <= degree_bound.  ``stabilized`` is True exactly
    when no solution of higher degree exists: an empty degree up to
    degree_bound proves it and ends the solve, and otherwise degree_bound
    + 1 is solved once.  Solutions have degree <= 2s, so degree 2s + 1 is
    empty and every bound beyond it costs the same.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    return _solve_graded(n, s, degree_bound, ckt_residual)


def solve_gckt(n: int, t: int, degree_bound: int) -> SolutionBasis:
    """Exact basis of valency-t tensors killed by gckt_residual, with
    ``stabilized`` proved as in ``solve_ckt``."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return _solve_graded(n, t, degree_bound, gckt_residual)


def second_order_symmetry_dimension(n: int) -> int:
    """Closed-form dimension of the second-order symmetry space."""
    num = (n + 1) * (n + 2) * (n * n + 5 * n + 12)
    if num % 12:
        raise ArithmeticError("dimension formula did not produce an integer")
    return num // 12


# ---------------------------------------------------------------------------
# structural consequences of the rank-s equation


@dataclass(frozen=True)
class HilfReport:
    """Verified consequences of the rank-s equation for one solution."""

    phi: SymTensorField
    defining_identity: bool
    laplacian_identity: bool
    hessian_tracefree: bool

    @property
    def all_hold(self) -> bool:
        return self.defining_identity and self.laplacian_identity and self.hessian_tracefree


def verify_lemma_hilf(v: SymTensorField) -> HilfReport:
    """Check the gradient, Laplacian, and Hessian consequences for a solution.

    The input must solve the rank-s equation (trace-free, vanishing
    residual); the companion tensor phi is a fixed multiple of the
    divergence, and three identities are verified exactly:

    * the symmetrized gradient equals the metric symmetrized with phi,
    * the componentwise Laplacian is the stated combination of the
      divergence of phi and the symmetrized gradient of phi,
    * the trace-free part of the symmetrized Hessian of phi vanishes.
    """
    n, s = v.n, v.valency
    if s < 1:
        raise ValueError("valency must be >= 1")
    if not v.is_tracefree():
        raise ValueError("input must be trace-free")
    if not ckt_residual(v).is_zero:
        raise ValueError("input does not solve the rank-s equation")
    g = metric_tensor(n)
    phi = divergence(v) * Fraction(s, n + 2 * s - 2)
    defining = sym_gradient(v) == sym_outer(g, phi)
    lap_v = component_laplacian(v)
    rhs = sym_gradient(phi) * Fraction(-(n + 2 * s - 4))
    if s >= 2:
        rhs = rhs + sym_outer(g, divergence(phi)) * Fraction(s - 1)
    laplacian_ok = lap_v == rhs
    hessian_ok = tracefree_part(sym_gradient(sym_gradient(phi))).is_zero
    return HilfReport(
        phi=phi,
        defining_identity=defining,
        laplacian_identity=laplacian_ok,
        hessian_tracefree=hessian_ok,
    )
