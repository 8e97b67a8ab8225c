"""Linear differential operators with exact polynomial coefficients.

A ``DiffOp`` is a normal-ordered sum  sum_alpha  c_alpha(x) d^alpha  where
each derivative multi-index alpha is a nondecreasing tuple of variable
indices and each coefficient is an exact ``Polynomial``.  Composition uses
the Leibniz expansion, so operator identities are decided exactly.

Right factorization through a constant-coefficient operator reduces to
multivariate polynomial division of the full symbol: composing with a
constant-coefficient right factor produces no derivative corrections, so
``d = delta o r`` holds iff the symbol of ``d`` is divisible by the symbol
of ``r``.  A single divisor is a Groebner basis of its principal ideal, so
the division remainder decides membership exactly.  ``divide_by_constant``
is that one division loop, on scalar values: ``symbol_division`` runs it on
the int numerators of one x-monomial at a time, and the rows of
``symalg.enumerate_symmetries`` on int values.  ``is_symmetry`` divides the
commutator [bilap, d] rather than the product bilap o d.

``compose_sum`` and ``commutator`` check their operands and run
``exactpoly.weyl_sum``, the one product kernel; ``apply`` takes its
derivatives by ``Polynomial.partial`` and its products through
``exactpoly.product_sum``, the derivative-free case of that kernel.
``bilaplacian`` is written out term by term, not composed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from typing import Callable, Iterable, Mapping

from .exactpoly import (
    LinearCombination,
    Monomial,
    Polynomial,
    Rational,
    VarSpace,
    base_space,
    format_multi_index,
    multi_index_from_json,
    numerators,
    product_sum,
    rat,
    weyl_sum,
)

Alpha = tuple[int, ...]


class NotDivisibleError(ValueError):
    """Raised when an operator admits no exact right factorization."""


# ---------------------------------------------------------------------------
# the operator class


class DiffOp(LinearCombination):
    """Normal-ordered differential operator with polynomial coefficients.

    Terms are keyed by the ``Monomial`` whose exponent vector is that of
    d^alpha; the public constructor, ``coefficient``, JSON and ``text`` take
    and show nondecreasing index tuples alpha.
    """

    __slots__ = ()

    def __init__(
        self, space: VarSpace, terms: Mapping[Alpha, Polynomial | Rational] | None = None
    ) -> None:
        def valid():
            for alpha, coeff in (terms or {}).items():
                for v in alpha:
                    if not space.contains(v):
                        raise ValueError(f"derivative variable {v} not in space")
                if not isinstance(coeff, Polynomial):
                    coeff = Polynomial.constant(space, coeff)
                if coeff.space != space:
                    raise ValueError("coefficient in wrong variable space")
                yield Monomial.of_indices(alpha), coeff

        self._fill(space, valid())

    space = property(lambda self: self.shape)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: VarSpace) -> "DiffOp":
        return cls(space)

    @classmethod
    def identity(cls, space: VarSpace) -> "DiffOp":
        return cls(space, {(): Polynomial.one(space)})

    @classmethod
    def partial_op(cls, space: VarSpace, var: int) -> "DiffOp":
        return cls(space, {(var,): Polynomial.one(space)})

    @classmethod
    def multiplication(cls, poly: Polynomial) -> "DiffOp":
        return cls(poly.space, {(): poly})

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return max((a.degree for a in self.terms), default=-1)

    def coefficient(self, alpha: Alpha) -> Polynomial:
        # no term has a derivative past the last variable: answer before
        # building a key as long as the index
        if any(isinstance(v, int) and v > self.space.n + 1 for v in alpha):
            return Polynomial.zero(self.space)
        val = self.terms.get(Monomial.of_indices(alpha))
        return Polynomial.zero(self.space) if val is None else val

    def __mul__(self, scalar) -> "DiffOp":
        """Scale by a rational or a polynomial; products of operators are
        ``compose``."""
        if isinstance(scalar, DiffOp):
            raise TypeError("use compose() for operator products")
        return super().__mul__(scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"<DiffOp space={self.space.kind} n={self.space.n} terms={len(self.terms)}>"

    def text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda a: (a.degree, a.indices())):
            coeff, alpha = self.terms[key], key.indices()
            dpart = "".join(f"d{self.space.var_name(v)[1:]}" for v in alpha)
            cpart = coeff.text()
            if alpha:
                parts.append(f"({cpart})*{dpart}" if "+" in cpart or " " in cpart else f"{cpart}*{dpart}")
            else:
                parts.append(cpart)
        return " + ".join(parts)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "space": self.space.kind,
            "n": self.space.n,
            "terms": {
                format_multi_index(alpha): coeff.to_json_obj()
                for alpha, coeff in sorted((a.indices(), c) for a, c in self.terms.items())
            },
        }

    @classmethod
    def from_json_obj(cls, data: dict) -> "DiffOp":
        space = VarSpace(data["space"], data["n"])
        terms = {
            multi_index_from_json(key): Polynomial.from_json_obj(space, val)
            for key, val in data["terms"].items()
        }
        return cls(space, terms)


# ---------------------------------------------------------------------------
# action, composition


def apply(op: DiffOp, p: Polynomial) -> Polynomial:
    """Apply the operator to a polynomial: sum_alpha c_alpha d^alpha p, the
    d^0 coefficient of op o p, with the products one ``product_sum``.

    Each d^alpha p is one ``Polynomial.partial`` of the derivative of its
    prefix alpha[:-1]; the nondecreasing alpha of one operator share their
    prefixes, so each prefix is differentiated once per call.
    """
    if p.space != op.space:
        raise ValueError(f"Polynomial shape mismatch: {p.space} vs {op.space}")
    derivatives: dict[Alpha, Polynomial] = {(): p}

    def derivative(alpha: Alpha) -> Polynomial:
        out = derivatives.get(alpha)
        if out is None:
            out = derivatives[alpha] = derivative(alpha[:-1]).partial(alpha[-1])
        return out

    return product_sum(op.space, ((1, c, derivative(a.indices())) for a, c in op.terms.items()))


def compose_sum(
    space: VarSpace, groups: Iterable[tuple[DiffOp, Iterable[tuple[DiffOp, Rational]]]]
) -> DiffOp:
    """The operator sum_i a_i o (sum_j c_ij b_ij) for the groups
    (a_i, [(b_ij, c_ij), ...]), normal-ordered term by term in one
    ``exactpoly.weyl_sum`` pass."""
    return _weyl_sum(space, groups, True)


def _weyl_sum(space: VarSpace, groups: Iterable, with_products: bool) -> DiffOp:
    """``exactpoly.weyl_sum`` of the groups of operators, each checked to be
    a DiffOp on ``space``."""

    def terms(op: DiffOp) -> Mapping[Monomial, Polynomial]:
        if type(op) is not DiffOp:
            raise TypeError("expected a DiffOp")
        if op.space != space:
            raise ValueError(f"DiffOp shape mismatch: {op.space} vs {space}")
        return op.terms

    groups = [(terms(a), [(terms(b), c) for b, c in factors]) for a, factors in groups]
    return DiffOp._make(space, weyl_sum(space, groups, with_products))


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """The operator product a o b: the one-group case of ``compose_sum``."""
    return compose_sum(a.space, ((a, ((b, 1),)),))


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """The commutator [a, b] = a o b - b o a, in one ``exactpoly.weyl_sum`` pass.

    The gamma = 0 Leibniz terms c_p c_m x^(p+m) d^(alpha+beta) of a o b and
    of b o a are equal and cancel, so the pass never forms them.
    """
    return _weyl_sum(a.space, ((a, ((b, 1),)), (b, ((a, -1),))), False)


# ---------------------------------------------------------------------------
# canonical constant-coefficient operators


def laplacian(n: int) -> DiffOp:
    """The flat Laplacian sum_a d_a^2 on R^n."""
    space = base_space(n)
    return DiffOp(space, {(a, a): Polynomial.one(space) for a in range(1, n + 1)})


def bilaplacian(n: int) -> DiffOp:
    """The squared Laplacian sum_a d_a^4 + 2 sum_{a<b} d_a^2 d_b^2 on R^n."""
    space = base_space(n)
    one, two = Polynomial.constant(space, 1), Polynomial.constant(space, 2)
    return DiffOp(space, {
        (a, a, b, b): one if a == b else two for a in range(1, n + 1) for b in range(a, n + 1)
    })


def euler_op(space: VarSpace) -> DiffOp:
    """The degree-counting operator sum_v x_v d_v."""
    return DiffOp(
        space,
        {(v,): Polynomial.variable(space, v) for v in space.variables},
    )


# ---------------------------------------------------------------------------
# right factorization through constant-coefficient operators


def constant_symbol(r: DiffOp) -> dict[Monomial, Rational]:
    """The symbol of a nonzero constant-coefficient operator r: derivative
    key -> coefficient, an int when integral."""
    symbol: dict[Monomial, Rational] = {}
    for alpha, coeff in r.terms.items():
        if not coeff.is_constant:
            raise ValueError("right factor must have constant coefficients")
        c = coeff.constant_value()
        symbol[alpha] = c.numerator if c.denominator == 1 else c
    if not symbol:
        raise ValueError("right factor must be nonzero")
    return symbol


def divide_by_constant(
    terms: Mapping[Monomial, Rational], divisor: Mapping[Monomial, Rational]
) -> tuple[dict[Monomial, Rational], dict[Monomial, Rational]]:
    """Divide a constant symbol by a ``constant_symbol``.

    ``terms`` maps derivative keys to nonzero ints or Fractions; returns
    (quotient, remainder) in the same form, with terms = quotient * divisor
    + remainder and no remainder key divisible by the leading key (``max``)
    of the divisor.  A single divisor is a Groebner basis of the ideal it
    generates, so the remainder is unique and depends linearly on terms.  A
    monic divisor needs no division by its leading coefficient, so with an
    integer divisor int values stay ints.
    """
    lead = max(divisor)
    tail = dict(divisor)
    lead_coeff = tail.pop(lead)
    inverse = None if lead_coeff == 1 else 1 / rat(lead_coeff)
    work = dict(terms)
    quotient: dict = {}
    remainder: dict = {}
    while work:
        alpha = max(work)
        coeff = work.pop(alpha)
        shift = alpha.divide(lead)
        if shift is None:
            remainder[alpha] = coeff
            continue
        if inverse is not None:
            coeff = coeff * inverse
        # work only gains keys below alpha, so each key is divided once
        quotient[shift] = coeff
        for beta, k in tail.items():
            key = shift * beta
            cur = work.get(key)
            nv = -(coeff * k) if cur is None else cur - coeff * k
            if nv:
                work[key] = nv
            else:
                work.pop(key, None)
    return quotient, remainder


def symbol_division(d: DiffOp, r: DiffOp) -> tuple[DiffOp, DiffOp]:
    """Divide the full symbol of d by a constant-coefficient operator r.

    Returns (quotient, remainder) with d = quotient o r + remainder, where
    no remainder term is divisible by the leading term of r.  r has
    constant coefficients, so the division never mixes two x-monomials:
    the symbol of d is written as int numerators over one common
    denominator and split into one constant symbol per x-monomial, each
    slice is divided by ``divide_by_constant``, and each output coefficient
    becomes one Fraction.
    """
    d._check_like(r)
    divisor = constant_symbol(r)
    den, nums = numerators(
        ((alpha, m), c) for alpha, coeff in d.terms.items() for m, c in coeff.terms.items()
    )
    slices: dict[Monomial, dict] = {}
    for (alpha, m), num in nums:
        slices.setdefault(m, {})[alpha] = num
    quotient: dict[Monomial, dict] = {}
    remainder: dict[Monomial, dict] = {}
    for m, terms in slices.items():
        for out, part in zip((quotient, remainder), divide_by_constant(terms, divisor)):
            for alpha, num in part.items():
                out.setdefault(alpha, {})[m] = Fraction(num, den)

    def op(out: dict) -> DiffOp:
        return DiffOp._make(
            d.space, {alpha: Polynomial._make(d.space, coeff) for alpha, coeff in out.items()}
        )

    return op(quotient), op(remainder)


def right_factor(d: DiffOp, r: DiffOp) -> DiffOp:
    """Solve d = delta o r for a constant-coefficient right factor r.

    Because r has constant coefficients, composition on the right is exact
    multiplication of full symbols; divisibility is decided by multivariate
    division with remainder.  Raises NotDivisibleError when no exact factor
    exists.  The returned factor is verified by recomposition.
    """
    delta, remainder = symbol_division(d, r)
    if not remainder.is_zero:
        raise NotDivisibleError(
            f"no exact right factor: {len(remainder.terms)} symbol terms remain"
        )
    if compose(delta, r) != d:
        raise AssertionError("internal error: factor failed recomposition check")
    return delta


def is_symmetry(d: DiffOp) -> DiffOp | None:
    """Certificate delta with (squared Laplacian) o d = delta o (squared
    Laplacian), or None when d is not a higher symmetry.

    bilap o d = d o bilap + [bilap, d], so delta = d + epsilon with
    [bilap, d] = epsilon o bilap.  The commutator pass never forms the
    gamma = 0 Leibniz terms, and epsilon has lower order than delta, so its
    recomposition in ``right_factor`` is cheaper too.  Right division by
    bilap is unique, so delta is the factor of bilap o d itself.
    """
    bilap = bilaplacian(d.space.n)
    try:
        return d + right_factor(commutator(bilap, d), bilap)
    except NotDivisibleError:
        return None


# ---------------------------------------------------------------------------
# reconstruction from an action


def operator_from_action(
    space: VarSpace,
    action: Callable[[Polynomial], Polynomial],
    order: int,
) -> DiffOp:
    """Read off the order-<=``order`` operator from an action on monomials.

    Coefficients are read off triangularly from the action on monomials of
    degree <= order.  The result is exact only when the action really is an
    operator of order <= ``order``.  The check against all monomials of the
    next two degrees is a consistency test, not a proof.  The
    library does not rely on this; the tests use it as a reference for the
    symbolic descent in ``ambient.induce``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")

    def monomials(deg: int):
        for alpha in itertools.combinations_with_replacement(space.variables, deg):
            key = Monomial.of_indices(alpha)
            yield key, Polynomial(space, {key: 1})

    # the coefficient of d^alpha is keyed by the exponent vector of x^alpha;
    # no other derivative of degree deg acts on x^alpha, so besides d^alpha
    # only the terms read off below degree deg do
    op = DiffOp.zero(space)
    for deg in range(order + 1):
        found = {}
        for alpha, mono in monomials(deg):
            fact = prod(factorial(e) for _, e in alpha.items())
            coeff = (action(mono) - apply(op, mono)) * Fraction(1, fact)
            if coeff:
                found[alpha] = coeff
        op = op + DiffOp._make(space, found)
    for deg in range(order + 1, order + 3):
        for _, mono in monomials(deg):
            if apply(op, mono) != action(mono):
                raise ValueError(
                    "action is not realized by an operator of the stated order"
                )
    return op
