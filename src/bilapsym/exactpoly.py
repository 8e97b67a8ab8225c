"""Exact sparse multivariate polynomials over the rationals.

Variables live in a ``VarSpace``: the base space has variables x1..xn, the
ambient space adds a distinguished scaling variable x0 and a null direction
xinf (n+2 variables total).  Every exponent is a nonnegative integer except
on x0, which may carry any rational (including negative) exponent so that
homogeneity weights like 2 - n/2 are representable at odd n.  Coefficients
are exact ``fractions.Fraction`` values; terms are kept in a canonical
graded-lexicographic order.  All values are immutable and all operations are
pure functions.

``LinearCombination`` is the shared core of every finite linear combination
in the package: polynomials here, differential operators in ``weylop`` and
the tensor types in ``tensorcalc`` keep only their own key validation and
products on top of it.  ``numerators`` is the one conversion of rational
values to int numerators over their common denominator; the integer passes
of ``weylop``, ``tensorcalc``, ``linsolve`` and ``ambient`` go through it.
``weyl_sum`` is the one product kernel, of operators in the Weyl algebra
and of polynomials, their derivative-free case.  It writes its operands
as those numerators, with each exponent vector packed into one int key of
an ``ExponentLayout``; no other module knows that format.  ``product_sum``
(``Polynomial`` multiplication is its one-triple case) and
``weylop.compose_sum`` wrap it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import comb, lcm, prod
from operator import add as _add, sub as _sub
from typing import Hashable, Iterable, Iterator, Mapping, Union

# The coefficient field: exact rationals in lowest terms, positive denominator.
Rational = Fraction

Exponent = Union[int, Fraction]
Scalar = Union[int, Fraction]


def rat(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; ValueError if malformed."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def rational_from_json(value: object) -> Fraction:
    """A JSON integer or "p/q" string as a rational; ValueError otherwise."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"expected an integer or a 'p/q' string, got {value!r}")


def format_rational(value: Scalar) -> str:
    """Render an exact rational as "p/q" (or "p" when integral)."""
    f = rat(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def multi_index_from_json(text: str) -> tuple[int, ...]:
    """The multi-index of a JSON key such as "0,4"; "" is the empty index."""
    return tuple(int(i) for i in text.split(",")) if text else ()


def format_multi_index(key: Iterable[int]) -> str:
    """Render a multi-index as a JSON key: "0,4", or "" when empty."""
    return ",".join(map(str, key))


def numerators(pairs: Iterable[tuple[object, Scalar]]) -> tuple[int, list[tuple[object, int]]]:
    """(den, [(key, numerator)]): each value as an int numerator over den,
    the lcm of the denominators (an int has denominator 1; den is 1 for no
    pairs).  The one conversion from rationals to int numerators that the
    exact layers share."""
    pairs = list(pairs)
    den = lcm(*[v.denominator for _, v in pairs])
    return den, [(key, v.numerator * (den // v.denominator)) for key, v in pairs]


# -- sparse linear combinations ------------------------------------------------

def collect(pairs: Iterable[tuple[Hashable, object]]) -> dict:
    """Sum the values of repeated keys in one pass and drop the zero sums.

    Values are scalars or ``LinearCombination``s of one type and shape;
    combinations under one key are merged term by term, not pairwise.
    """
    terms: dict = {}
    _add_pairs(terms, pairs)
    return _closed(terms)


class _OpenSum:
    """A sum of combinations under construction.  It starts from a copy of
    the terms of ``like``, the first combination under its key; later ones
    are merged into it in place, so none of them is kept alive."""

    __slots__ = ("like", "terms")

    def __init__(self, like: "LinearCombination") -> None:
        self.like = like
        self.terms = dict(like.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)


def _add_pairs(terms: dict, pairs: Iterable[tuple[Hashable, object]]) -> None:
    """Add the pairs into a private term dict; a zero sum leaves at once."""
    for key, value in pairs:
        total = terms.get(key)
        if total is None:
            total = value
        elif isinstance(value, LinearCombination):
            if type(total) is not _OpenSum:
                total = _OpenSum(total)
            _add_pairs(total.terms, value.terms.items())
        else:
            total = total + value
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)


def _closed(terms: dict) -> dict:
    """Finish a private term dict in place by closing its open sums."""
    for key, value in terms.items():
        if type(value) is _OpenSum:
            terms[key] = value.like._make(value.like.shape, _closed(value.terms))
    return terms


class LinearCombination:
    """An immutable finite linear combination: a map key -> nonzero value.

    ``shape`` is what two combinations must share to be added (a variable
    space, a tensor type).  Values are Fractions, or combinations themselves
    (the polynomial coefficients of an operator); a value is zero iff it is
    falsy.  Public constructors of subclasses validate their keys and build
    through ``_fill``; results of arithmetic on valid instances are built by
    ``_make`` and ``_collect`` without re-validation.
    """

    __slots__ = ("shape", "terms")

    def _fill(self, shape: Hashable, pairs: Iterable[tuple[Hashable, object]]) -> None:
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "terms", collect(pairs))

    @classmethod
    def _make(cls, shape: Hashable, terms: dict):
        """An instance from terms that are already merged and nonzero."""
        out = object.__new__(cls)
        object.__setattr__(out, "shape", shape)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def _collect(cls, shape: Hashable, pairs: Iterable[tuple[Hashable, object]]):
        """An instance from valid (key, value) pairs, repeated keys summed."""
        return cls._make(shape, collect(pairs))

    @classmethod
    def _sum(cls, shape: Hashable, combinations: Iterable["LinearCombination"]):
        """The sum of valid instances, merged term by term in one pass."""
        return cls._collect(shape, (kv for c in combinations for kv in c.terms.items()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_like(self, other: object) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected a {type(self).__name__}")
        if other.shape != self.shape:
            raise ValueError(
                f"{type(self).__name__} shape mismatch: {self.shape} vs {other.shape}"
            )

    def _merge(self, other: object, negate: bool):
        if type(other) is not type(self):
            return NotImplemented
        self._check_like(other)
        out = dict(self.terms)
        for key, value in other.terms.items():
            cur = out.get(key)
            if cur is None:
                out[key] = -value if negate else value
            else:
                total = cur - value if negate else cur + value
                if total:
                    out[key] = total
                else:
                    del out[key]
        return self._make(self.shape, out)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return self._make(self.shape, {k: -v for k, v in self.terms.items()})

    def __mul__(self, scalar):
        """Scale every value; a nonzero scalar keeps every value nonzero."""
        if not scalar:
            return self._make(self.shape, {})
        return self._make(self.shape, {k: v * scalar for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]


# Exponent vectors are dense, so n bounds the memory of every monomial.
MAX_DIMENSION = 1000


@dataclass(frozen=True)
class VarSpace:
    """A variable universe: base (x1..xn) or ambient (x0, x1..xn, xinf),
    3 <= n <= MAX_DIMENSION."""

    kind: str  # "base" | "ambient"
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("base", "ambient"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if not isinstance(self.n, int):
            raise TypeError(f"dimension n must be an int, got {self.n!r}")
        if self.n < 3:
            raise ValueError("dimension n must be at least 3")
        if self.n > MAX_DIMENSION:
            raise ValueError(f"dimension n must be at most {MAX_DIMENSION}")

    @property
    def inf(self) -> int:
        """Index of the null-direction variable xinf (ambient only)."""
        return self.n + 1

    @property
    def variables(self) -> tuple[int, ...]:
        if self.kind == "base":
            return tuple(range(1, self.n + 1))
        return tuple(range(0, self.n + 2))

    def contains(self, v: int) -> bool:
        if self.kind == "base":
            return 1 <= v <= self.n
        return 0 <= v <= self.n + 1

    def var_name(self, v: int) -> str:
        if not self.contains(v):
            raise ValueError(f"variable {v} not in {self}")
        if self.kind == "ambient" and v == self.inf:
            return "xinf"
        return f"x{v}"

    def var_index(self, name: str) -> int:
        if name == "xinf":
            v = self.n + 1
        elif name.startswith("x") and name[1:].isdigit():
            v = int(name[1:])
        else:
            raise ValueError(f"bad variable name {name!r}")
        if not self.contains(v):
            raise ValueError(f"variable {name!r} not in {self}")
        return v


def _normalize_exp(v: int, e: Exponent) -> Exponent:
    if isinstance(e, Fraction):
        if e.denominator == 1:
            e = int(e)
    elif not isinstance(e, int):
        raise TypeError(f"exponent must be int or Fraction, got {type(e)!r}")
    if v != 0 and (isinstance(e, Fraction) or e < 0):
        raise ValueError(f"variable x{v} cannot carry exponent {e}; only x0 may")
    return e


def _trimmed(exps: tuple) -> tuple:
    """Drop trailing zero exponents, always keeping slot 0."""
    while len(exps) > 1 and not exps[-1]:
        exps = exps[:-1]
    return exps


@total_ordering
class Monomial:
    """A monomial as a dense exponent vector: ``exps[v]`` is the exponent of
    x_v for v = 0, 1, ...; trailing zeros are dropped but slot 0 is kept.

    Ordered graded-lexicographically: higher total degree first, ties broken
    by the first variable (ascending index) whose exponents differ, larger
    exponent winning.  Only x0 may be negative and slot 0 is always present,
    so this is the tuple order of ``(degree, exps)``.  The same type keys the
    derivatives d^alpha of a ``DiffOp``: ``exps[v]`` counts v in alpha.
    """

    __slots__ = ("exps", "degree")

    def __init__(self, pairs: Iterable[tuple[int, Exponent]] = ()) -> None:
        exps: list = [0]
        for v, e in pairs:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"bad variable index {v!r}")
            exps.extend([0] * (v + 1 - len(exps)))
            exps[v] += e
        exps = [_normalize_exp(v, e) for v, e in enumerate(exps)]
        object.__setattr__(self, "exps", _trimmed(tuple(exps)))
        object.__setattr__(self, "degree", sum(exps))

    @classmethod
    def _of(cls, exps: tuple, degree: Exponent) -> "Monomial":
        """A monomial from a trimmed, normalized vector, without validation."""
        out = object.__new__(cls)
        object.__setattr__(out, "exps", exps)
        object.__setattr__(out, "degree", degree)
        return out

    @classmethod
    def _of_padded(cls, exps: tuple) -> "Monomial":
        """A monomial from a valid exponent vector that may end in zeros and
        may hold an integral x0 exponent as a Fraction."""
        if type(exps[0]) is Fraction and exps[0].denominator == 1:
            exps = (int(exps[0]),) + exps[1:]
        exps = _trimmed(exps)
        return cls._of(exps, sum(exps))

    @classmethod
    def of_indices(cls, indices: Iterable[int]) -> "Monomial":
        """The product of x_v over the indices (the key of d^alpha)."""
        return cls((v, 1) for v in indices)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Monomial is immutable")

    def exponent(self, v: int) -> Exponent:
        return self.exps[v] if v < len(self.exps) else 0

    def items(self) -> Iterator[tuple[int, Exponent]]:
        """The (variable, exponent) pairs with nonzero exponent, ascending."""
        return ((v, e) for v, e in enumerate(self.exps) if e)

    def indices(self) -> tuple[int, ...]:
        """The nondecreasing indices, each repeated by its exponent (alpha)."""
        return tuple(v for v, e in enumerate(self.exps) for _ in range(e))

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if len(a) < len(b):
            a, b = b, a
        # equal lengths end in two positive exponents, so nothing to trim
        exps = tuple(map(_add, a, b)) + a[len(b):]
        if type(exps[0]) is Fraction and exps[0].denominator == 1:
            exps = (int(exps[0]),) + exps[1:]
        return Monomial._of(exps, self.degree + other.degree)

    def divide(self, other: "Monomial") -> "Monomial | None":
        """The quotient self / other, or None if an exponent would be negative."""
        a, b = self.exps, other.exps
        exps = tuple(map(_sub, a, b)) + a[len(b):]
        if len(b) > len(a) or min(exps) < 0:
            return None
        return Monomial._of(_trimmed(exps), self.degree - other.degree)

    def divisors(self) -> list[tuple["Monomial", "Monomial", int]]:
        """Each divisor gamma with the cofactor self / gamma and the Leibniz
        weight prod_v binomial(exps[v], gamma[v]), for integer exponents."""
        out = []
        for gamma in itertools.product(*(range(e + 1) for e in self.exps)):
            d = sum(gamma)
            rest = tuple(map(_sub, self.exps, gamma))
            weight = prod(map(comb, self.exps, gamma))
            out.append((
                Monomial._of(_trimmed(gamma), d),
                Monomial._of(_trimmed(rest), self.degree - d),
                weight,
            ))
        return out

    def _lowered(self, v: int) -> "Monomial":
        """The monomial with the exponent of x_v lowered by one."""
        exps = self.exps[:v] + (self.exps[v] - 1,) + self.exps[v + 1:]
        return Monomial._of(_trimmed(exps), self.degree - 1)

    def __hash__(self) -> int:
        return hash(self.exps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __lt__(self, other: "Monomial") -> bool:
        return (self.degree, self.exps) < (other.degree, other.exps)

    def __gt__(self, other: "Monomial") -> bool:
        return (self.degree, self.exps) > (other.degree, other.exps)

    def text(self, space: VarSpace) -> str:
        parts = []
        for v, e in self.items():
            name = space.var_name(v)
            parts.append(name if e == 1 else f"{name}^{format_rational(e)}")
        return "*".join(parts) or "1"

    def __repr__(self) -> str:
        return f"Monomial({list(self.items())!r})"


_ONE = Monomial()


class Polynomial(LinearCombination):
    """Sparse polynomial: map Monomial -> Fraction over a fixed VarSpace."""

    __slots__ = ()

    def __init__(self, space: VarSpace, terms: Mapping[Monomial, Scalar] | None = None) -> None:
        def valid():
            for m, c in (terms or {}).items():
                c = rat(c)
                if c:
                    for v, _ in m.items():
                        if not space.contains(v):
                            raise ValueError(f"variable {v} not in {space}")
                    yield m, c

        self._fill(space, valid())

    space = property(lambda self: self.shape)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, space: VarSpace) -> "Polynomial":
        return cls(space)

    @classmethod
    def constant(cls, space: VarSpace, c: Scalar) -> "Polynomial":
        return cls(space, {_ONE: rat(c)})

    @classmethod
    def one(cls, space: VarSpace) -> "Polynomial":
        return cls.constant(space, 1)

    @classmethod
    def variable(cls, space: VarSpace, v: int, exponent: Exponent = 1) -> "Polynomial":
        if not space.contains(v):  # before a monomial of v + 1 slots is built
            raise ValueError(f"variable {v} not in {space}")
        return cls(space, {Monomial([(v, exponent)]): Fraction(1)})

    # -- predicates --------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get(_ONE, Fraction(0))

    # -- arithmetic: scalars are lifted to constant polynomials -------------
    def _lift(self, other: "Polynomial | Scalar") -> object:
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.space, other)
        return other

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return super().__add__(self._lift(other))

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return super().__sub__(self._lift(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self) + other

    def __eq__(self, other: object) -> bool:
        return super().__eq__(self._lift(other))

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return super().__mul__(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return product_sum(self.space, ((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.one(self.space)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------
    def partial(self, v: int) -> "Polynomial":
        """Exact partial derivative with respect to variable v."""
        if not self.space.contains(v):
            raise ValueError(f"variable {v} not in {self.space}")
        # distinct monomials have distinct derivatives, so no terms merge
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m.exponent(v)
            if e != 0:
                out[m._lowered(v)] = c * e
        return self._make(self.space, out)

    def substitute(self, bindings: Mapping[int, "Polynomial | Scalar"]) -> "Polynomial":
        """Exact simultaneous substitution of polynomials for variables.

        A variable carrying a non-integer exponent can only be bound to a
        nonzero constant, and only to 1 unless the exponent is integral.
        """
        coerced: dict[int, Polynomial] = {}
        for v, b in bindings.items():
            if not self.space.contains(v):
                raise ValueError(f"variable {v} not in {self.space}")
            coerced[v] = (
                b if isinstance(b, Polynomial) else Polynomial.constant(self.space, b)
            )
        power_cache: dict[tuple[int, Exponent], Polynomial] = {}

        def factor(v: int, e: Exponent) -> Polynomial:
            key = (v, e)
            cached = power_cache.get(key)
            if cached is not None:
                return cached
            b = coerced[v]
            if isinstance(e, int) and e >= 0:
                value = b ** e
            elif b.is_constant:
                c = b.constant_value()
                if c == 0:
                    raise ValueError("cannot bind a negative/fractional power to 0")
                if isinstance(e, int):
                    value = Polynomial.constant(self.space, c ** e)
                elif c == 1:
                    value = Polynomial.one(self.space)
                else:
                    raise ValueError(
                        f"fractional exponent {e} requires the binding to be exactly 1"
                    )
            else:
                raise ValueError(
                    f"exponent {e} of variable {v} does not admit a non-constant binding"
                )
            power_cache[key] = value
            return value

        def substituted(m: Monomial, c: Fraction) -> Polynomial:
            acc = Polynomial.constant(self.space, c)
            for v, e in m.items():
                if v in coerced:
                    acc = acc * factor(v, e)
                else:
                    acc = acc * Polynomial.variable(self.space, v, e)
            return acc

        return self._sum(self.space, (substituted(m, c) for m, c in self.terms.items()))

    def homogeneous_degree(self) -> Fraction | None:
        """The common total degree of all terms, or None if inhomogeneous.

        The zero polynomial is homogeneous of every degree; 0 is returned.
        The Euler identity sum_v x_v d/dx_v p = w p holds for the result.
        """
        degrees = {rat(m.degree) for m in self.terms}
        if not degrees:
            return Fraction(0)
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def homogeneous_component(self, degree: Scalar) -> "Polynomial":
        d = rat(degree)
        return self._make(self.space, {m: c for m, c in self.terms.items() if m.degree == d})

    # -- canonical order / rendering ----------------------------------------
    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (canonical)."""
        return sorted(self.terms.items(), key=lambda mc: mc[0], reverse=True)

    def leading_term(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = m.text(self.space)
            if body == "1":
                chunk = format_rational(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{format_rational(mag)}*{body}"
            parts.append(f"{sign} {chunk}" if parts else (f"-{chunk}" if sign == "-" else chunk))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<Polynomial {self.text()}>"

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.sorted_terms())

    # -- JSON ----------------------------------------------------------------
    def to_json_obj(self) -> list[dict]:
        out = []
        for m, c in self.sorted_terms():
            exps = {
                self.space.var_name(v): (e if isinstance(e, int) else format_rational(e))
                for v, e in m.items()
            }
            out.append({"coeff": format_rational(c), "exps": exps})
        return out

    @classmethod
    def from_json_obj(cls, space: VarSpace, data: list[dict]) -> "Polynomial":
        def term(item: dict) -> tuple[Monomial, Fraction]:
            exps = item["exps"].items()
            pairs = [(space.var_index(name), rational_from_json(e)) for name, e in exps]
            return Monomial(pairs), rational_from_json(item["coeff"])

        return cls._collect(space, (term(item) for item in data))


# -- products on int numerators -----------------------------------------------

class ExponentLayout:
    """Exponent vectors of one product call packed into ints.

    Slot v holds the exponent of x_v, for v below ``width``.  Slots 1.. are
    ``bits`` wide, x_1 the most significant of them; slot 0 sits above them
    all and holds ``den`` * e_0, with ``den`` the lcm of the call's x0
    denominators, so it is an int of any size and sign.  A key is linear in
    its vector, so the key of a product's exponents is the sum of the keys
    of its factors, and m - gamma is a difference of keys, as long as each
    slot 1.. of the result lies in [0, 2**bits).  ``fitting`` makes it so
    for every sum of two vectors it sees.  The low slots are then the
    non-negative remainder below slot 0, and slot 0 is a floor shift, so a
    negative or fractional x0 exponent needs no bias.  The derivative keys
    of operators use the same layout: their exponents are counts.
    """

    __slots__ = ("width", "bits", "den", "_shift", "_low", "_mask")

    def __init__(self, width: int, bits: int, den: int) -> None:
        self.width, self.bits, self.den = width, bits, den
        self._shift = bits * (width - 1)
        self._low = (1 << self._shift) - 1
        self._mask = (1 << bits) - 1

    @classmethod
    def fitting(cls, space: VarSpace, monomials: Iterable[Monomial]) -> "ExponentLayout":
        """The layout of ``space`` whose slots hold the sum of any two of
        the monomials, coefficient and derivative keys alike."""
        top, den = 0, 1
        for m in monomials:
            exps = m.exps
            if len(exps) > 1:
                top = max(top, *exps[1:])
            if type(exps[0]) is Fraction:
                den = lcm(den, exps[0].denominator)
        return cls(space.variables[-1] + 1, max(1, (2 * top).bit_length()), den)

    def pack(self, m: Monomial) -> int:
        exps, bits = m.exps, self.bits
        e0 = exps[0]
        key = e0 * self.den if type(e0) is int else e0.numerator * (self.den // e0.denominator)
        for e in exps[1:]:
            key = (key << bits) + e
        return key << bits * (self.width - len(exps))

    def exponent(self, key: int, v: int) -> Exponent:
        """The exponent of x_v in a key."""
        if v:
            return (key >> self.bits * (self.width - 1 - v)) & self._mask
        return self._x0(key >> self._shift)

    def _x0(self, slot: int) -> Exponent:
        if self.den == 1:
            return slot
        e0 = Fraction(slot, self.den)
        return e0.numerator if e0.denominator == 1 else e0

    def unpack(self, key: int) -> Monomial:
        e0 = key >> self._shift
        if self.den != 1:
            e0 = self._x0(e0)
        low = key & self._low
        if not low:
            return Monomial._of((e0,), e0)
        # the slots below the lowest set bit are zeros that a Monomial drops
        bits, mask = self.bits, self._mask
        stop = ((low & -low).bit_length() - 1) // bits * bits - 1
        exps = (e0, *[(low >> s) & mask for s in range(self._shift - bits, stop, -bits)])
        return Monomial._of(exps, sum(exps))


def weyl_sum(
    space: VarSpace,
    groups: Iterable[tuple[Mapping[Monomial, Polynomial], Iterable[tuple[Mapping, Scalar]]]],
    with_products: bool = True,
) -> dict[Monomial, Polynomial]:
    """The operator sum_i a_i o (sum_j c_ij b_ij) for the groups
    (a_i, [(b_ij, c_ij), ...]) on ``space``, as the map of its nonzero
    coefficients.  An operator is given as its map derivative key ->
    coefficient, a polynomial p as the map {1: p}, and each product is
    normal-ordered term by term:

        x^p d^alpha o x^m d^beta
            = sum_{gamma <= alpha} C(alpha, gamma) [m]_gamma x^(p+m-gamma) d^(alpha-gamma+beta).

    Without ``with_products`` the gamma = 0 terms x^(p+m) d^(alpha+beta),
    the plain products, are left out.  The one product kernel: polynomial
    products are its derivative-free case.

    The groups are held for the call: one ``ExponentLayout`` fits every
    operand, and each operand (an operand passed again is found by
    identity) is written once as int numerators over a common
    denominator, with packed monomials and derivative keys.  The right
    factors of a group are summed as ints, and each group is expanded once
    into buckets over one running denominator: a group whose denominator
    does not divide the running one rescales the buckets filled so far.
    Each distinct (gamma, m) is lowered once per call, through a table of
    falling factorials.  So every output term is one sum
    of int products (Fractions only through a fractional x0 exponent)
    under int keys, turned into one Monomial and one Fraction at the end.
    """
    groups = [(a, list(factors)) for a, factors in groups]
    # id -> terms: holding them keeps their id from being reused in this call
    operands = {id(t): t for a, factors in groups for t in (a, *(b for b, _ in factors))}
    layout = ExponentLayout.fitting(
        space,
        (m for t in operands.values() for alpha, c in t.items() for m in (alpha, *c.terms)),
    )

    def written(t: Mapping) -> tuple[int, list]:
        """(den, [(alpha, key of alpha, [(key of m, numerator)])]): the
        coefficients of t as int numerators over one common denominator."""
        den, nums = numerators(
            (layout.pack(m), c) for cf in t.values() for m, c in cf.terms.items()
        )
        out, i = [], 0
        for alpha, cf in t.items():
            out.append((alpha, layout.pack(alpha), nums[i : i + len(cf.terms)]))
            i += len(cf.terms)
        return den, out

    packed = {key: written(t) for key, t in operands.items()}

    def right_sum(factors) -> tuple[int, list]:
        """sum_j c_j b_j as (den, [(key of beta, [(key of m, numerator)])]):
        with b_j = B_j / den_j for int numerators B_j, it is the sum of
        (c_j / den_j) B_j, each weight an int over one den."""
        parts = [(packed[id(b)], c) for b, c in factors]
        den, weights = numerators(
            (terms, c if den_b == 1 else rat(c) / den_b)
            for (den_b, terms), c in parts
            if c and terms
        )
        if len(weights) == 1:
            terms, k = weights[0]
            return den, [
                (beta, cb if k == 1 else [(m, num * k) for m, num in cb])
                for _, beta, cb in terms
            ]
        acc: dict[int, dict] = {}
        for terms, k in weights:
            for _, beta, cb in terms:
                coeff = acc.setdefault(beta, {})
                for m, num in cb:
                    coeff[m] = coeff.get(m, 0) + num * k
        return den, [
            (beta, nonzero)
            for beta, coeff in acc.items()
            if (nonzero := [(m, t) for m, t in coeff.items() if t])
        ]

    # key of alpha -> [(key of gamma, nonzero (v, gamma_v), C(alpha, gamma))];
    # d^0, the one key of a polynomial, has the one divisor gamma = 0
    leibniz: dict[int, list] = {0: [(0, [], 1)]}
    # key of gamma -> {key of m: [m]_gamma}, filled on demand
    lowered: dict[int, dict] = {}

    def lowered_sum(right: list, gamma: int, moves: list) -> list:
        """The right sum with the falling factorial [m]_gamma = prod_v m_v
        (m_v - 1) ... (m_v - gamma_v + 1) folded into each numerator and x^m
        lowered to x^(m - gamma), for gamma also given by its nonzero
        (v, gamma_v).  [m]_gamma vanishes only on a nonnegative integer m_v
        < gamma_v, and those terms are dropped; a negative or fractional x0
        exponent never does, and gives a Fraction when fractional."""
        table = lowered.setdefault(gamma, {})
        out = []
        for beta, cb in right:
            low = []
            for m, num in cb:
                ff = table.get(m)
                if ff is None:
                    ff = 1
                    for v, g in moves:
                        e = layout.exponent(m, v)
                        for i in range(g):
                            ff *= e - i
                    table[m] = ff
                if ff:
                    low.append((m - gamma, num * ff))
            if low:
                out.append((beta, low))
        return out

    den = 1
    sums: dict[int, dict] = {}
    for a, factors in groups:
        den_a, terms_a = packed[id(a)]
        den_r, right = right_sum(factors)
        if not (terms_a and right):
            continue
        den_g = den_a * den_r
        if den % den_g:
            grown = lcm(den, den_g)
            k = grown // den
            for bucket in sums.values():
                for e in bucket:
                    bucket[e] *= k
            den = grown
        scale = den // den_g
        # the right sum lowered by each gamma, once per gamma in this group
        shifted = {0: right}
        for alpha, key, ca in terms_a:
            if scale != 1:
                ca = [(p, num * scale) for p, num in ca]
            divisors = leibniz.get(key)
            if divisors is None:
                divisors = leibniz[key] = [
                    (layout.pack(gamma), list(gamma.items()), weight)
                    for gamma, _, weight in alpha.divisors()
                ]
            for gamma, moves, weight in divisors:
                if not (moves or with_products):
                    continue
                low_b = shifted.get(gamma)
                if low_b is None:
                    low_b = shifted[gamma] = lowered_sum(right, gamma, moves)
                rest = key - gamma
                for beta, cb in low_b:
                    bucket = sums.setdefault(rest + beta, {})
                    for low, num_b in cb:
                        f = num_b * weight
                        for p, num_a in ca:
                            e = p + low
                            bucket[e] = bucket.get(e, 0) + num_a * f

    monomials: dict[int, Monomial] = {}
    terms = {}
    for d, bucket in sums.items():
        coeff = {}
        for e, t in bucket.items():
            if t:
                m = monomials.get(e)
                if m is None:
                    m = monomials[e] = layout.unpack(e)
                coeff[m] = Fraction(t, den)
        if coeff:
            terms[layout.unpack(d)] = Polynomial._make(space, coeff)
    return terms


def product_sum(
    space: VarSpace, triples: Iterable[tuple[Scalar, Polynomial, Polynomial]]
) -> Polynomial:
    """The polynomial sum_i c_i p_i q_i of the triples (c_i, p_i, q_i): the
    derivative-free case of ``weyl_sum``, with one group per distinct left
    operand and each distinct operand wrapped once."""
    # id -> {1: p}: holding p keeps its id from being reused within this call
    wrapped: dict[int, dict] = {}
    groups: dict[int, tuple] = {}
    for c, p, q in triples:
        for x in (p, q):
            if id(x) not in wrapped:
                if type(x) is not Polynomial:
                    raise TypeError("expected a Polynomial")
                if x.shape != space:
                    raise ValueError(f"Polynomial shape mismatch: {x.shape} vs {space}")
                wrapped[id(x)] = {_ONE: x}
        groups.setdefault(id(p), (wrapped[id(p)], []))[1].append((wrapped[id(q)], c))
    out = weyl_sum(space, groups.values())
    return out[_ONE] if out else Polynomial.zero(space)


# -- exponent vectors of base-space monomials ---------------------------------

def exponent_tuples(n: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree ``degree`` over n variables.

    Ordered lexicographically, smallest first exponent first.
    """
    if n == 0:
        return [()] if degree == 0 else []
    out = []
    for first in range(degree + 1):
        for rest in exponent_tuples(n - 1, degree - first):
            out.append((first,) + rest)
    return out


def monomial_from_exponents(exps: tuple[int, ...]) -> Monomial:
    """The base-space monomial x1^exps[0] * ... * xn^exps[n-1]."""
    return Monomial._of(_trimmed((0,) + tuple(exps)), sum(exps))


def parity_class(exps: tuple[int, ...], indices: Iterable[int]) -> tuple[int, ...]:
    """Per-variable parity of the monomial with exponents ``exps`` times one
    factor x_v for each v in ``indices`` (a derivative or tensor multi-index).

    Constant-coefficient equations that are even in each reflection
    x_v -> -x_v never mix two parity classes.
    """
    counts = list(exps)
    for v in indices:
        counts[v - 1] += 1
    return tuple(c % 2 for c in counts)


# -- variable spaces ----------------------------------------------------------

def base_space(n: int) -> VarSpace:
    return VarSpace("base", n)


def ambient_space(n: int) -> VarSpace:
    return VarSpace("ambient", n)

