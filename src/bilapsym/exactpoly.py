"""Exact sparse multivariate polynomials over the rationals.

Variables live in a ``VarSpace``: the base space has variables x1..xn, the
ambient space adds a distinguished scaling variable x0 and a null direction
xinf (n+2 variables total).  Every exponent is a nonnegative integer except
on x0, which may carry any rational (including negative) exponent so that
homogeneity weights like 2 - n/2 are representable at odd n.  Coefficients
are exact ``fractions.Fraction`` values; terms are kept in a canonical
graded-lexicographic order.  All values are immutable and all operations are
pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Iterator, Mapping, Union

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


def format_rational(value: Scalar) -> str:
    """Render an exact rational as "p/q" (or "p" when integral)."""
    f = rat(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class VarSpace:
    """A variable universe: base (x1..xn) or ambient (x0, x1..xn, xinf)."""

    kind: str  # "base" | "ambient"
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("base", "ambient"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if not isinstance(self.n, int):
            raise TypeError(f"dimension n must be an int, got {self.n!r}")
        if self.n < 3:
            raise ValueError("dimension n must be at least 3")

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


@total_ordering
class Monomial:
    """A sparse monomial: sorted tuple of (variable, exponent), zeros dropped.

    Ordered graded-lexicographically: higher total degree first, ties broken
    by the first variable (ascending index) whose exponents differ, larger
    exponent winning.
    """

    __slots__ = ("exps",)

    def __init__(self, pairs: Iterable[tuple[int, Exponent]] = ()) -> None:
        merged: dict[int, Exponent] = {}
        for v, e in pairs:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"bad variable index {v!r}")
            cur = merged.get(v, 0)
            cur = cur + e
            merged[v] = cur
        items = []
        for v in sorted(merged):
            e = _normalize_exp(v, merged[v])
            if e != 0:
                items.append((v, e))
        object.__setattr__(self, "exps", tuple(items))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Monomial is immutable")

    @property
    def degree(self) -> Exponent:
        return sum((e for _, e in self.exps), 0)

    def exponent(self, v: int) -> Exponent:
        for w, e in self.exps:
            if w == v:
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.exps + other.exps)

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative monomial power")
        return Monomial(tuple((v, e * k) for v, e in self.exps))

    def __hash__(self) -> int:
        return hash(self.exps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __lt__(self, other: "Monomial") -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        da, db = self.degree, other.degree
        if da != db:
            return da < db
        # Lexicographic walk over ascending variable index; absent vars have
        # exponent 0.  Larger exponent at the first difference wins.
        i = j = 0
        a, b = self.exps, other.exps
        while i < len(a) or j < len(b):
            va = a[i][0] if i < len(a) else None
            vb = b[j][0] if j < len(b) else None
            if vb is None or (va is not None and va < vb):
                v, ea, eb = va, a[i][1], 0
            elif va is None or vb < va:
                v, ea, eb = vb, 0, b[j][1]
            else:
                v, ea, eb = va, a[i][1], b[j][1]
            if ea != eb:
                return ea < eb
            if va == v:
                i += 1
            if vb == v:
                j += 1
        return False

    def text(self, space: VarSpace) -> str:
        if not self.exps:
            return "1"
        parts = []
        for v, e in self.exps:
            name = space.var_name(v)
            parts.append(name if e == 1 else f"{name}^{format_rational(e)}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({list(self.exps)!r})"


_ONE = Monomial()


class Polynomial:
    """Sparse polynomial: map Monomial -> Fraction over a fixed VarSpace."""

    __slots__ = ("space", "terms")

    def __init__(self, space: VarSpace, terms: Mapping[Monomial, Scalar] | None = None) -> None:
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = rat(c)
                if c == 0:
                    continue
                for v, _ in m.exps:
                    if not space.contains(v):
                        raise ValueError(f"variable {v} not in {space}")
                clean[m] = c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

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
        return cls(space, {Monomial([(v, exponent)]): Fraction(1)})

    # -- predicates --------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get(_ONE, Fraction(0))

    # -- arithmetic --------------------------------------------------------
    def _require_same_space(self, other: "Polynomial") -> None:
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.space, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_space(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.space, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.space, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return Polynomial.zero(self.space)
            return Polynomial(self.space, {m: co * c for m, co in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_space(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                s = out.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.space, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.one(self.space)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.space, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- calculus ----------------------------------------------------------
    def partial(self, v: int) -> "Polynomial":
        """Exact partial derivative with respect to variable v."""
        if not self.space.contains(v):
            raise ValueError(f"variable {v} not in {self.space}")
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m.exponent(v)
            if e == 0:
                continue
            nm = Monomial(tuple((w, ee) for w, ee in m.exps if w != v) + ((v, e - 1),))
            s = out.get(nm, Fraction(0)) + c * e
            if s == 0:
                out.pop(nm, None)
            else:
                out[nm] = s
        return Polynomial(self.space, out)

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

        total = Polynomial.zero(self.space)
        for m, c in self.terms.items():
            acc = Polynomial.constant(self.space, c)
            for v, e in m.exps:
                if v in coerced:
                    acc = acc * factor(v, e)
                else:
                    acc = acc * Polynomial.variable(self.space, v, e)
            total = total + acc
        return total

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
        return Polynomial(
            self.space, {m: c for m, c in self.terms.items() if rat(m.degree) == d}
        )

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
                for v, e in m.exps
            }
            out.append({"coeff": format_rational(c), "exps": exps})
        return out

    @classmethod
    def from_json_obj(cls, space: VarSpace, data: list[dict]) -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for item in data:
            pairs = []
            for name, e in item["exps"].items():
                v = space.var_index(name)
                pairs.append((v, e if isinstance(e, int) else parse_rational(e)))
            m = Monomial(pairs)
            terms[m] = terms.get(m, Fraction(0)) + parse_rational(item["coeff"])
        return cls(space, terms)


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
    return Monomial(tuple((v + 1, e) for v, e in enumerate(exps) if e))


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


# -- space conversions --------------------------------------------------------

def base_space(n: int) -> VarSpace:
    return VarSpace("base", n)


def ambient_space(n: int) -> VarSpace:
    return VarSpace("ambient", n)


def to_base(p: Polynomial) -> Polynomial:
    """Reinterpret an ambient polynomial using only x1..xn in the base space."""
    if p.space.kind == "base":
        return p
    space = base_space(p.space.n)
    for m in p.terms:
        for v, _ in m.exps:
            if not space.contains(v):
                raise ValueError(f"term uses ambient-only variable {p.space.var_name(v)}")
    return Polynomial(space, dict(p.terms))
