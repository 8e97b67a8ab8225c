"""Symmetric tensor fields, trace calculus, and paired-skew ambient tensors.

All three tensor types derive from one keyed-tensor base, which stores
one canonical key per orbit of the slot symmetries and gives each its key
validation, ``get``, ``ordered_entries``, repr and
``{"n", <count>, "components"}`` JSON.  Base-space tensors
(``SymTensorField``) carry polynomial components indexed by nondecreasing
multi-indices over 1..n; the flat metric is the identity.  Constant
ambient tensors use indices 0..n+1, where the ambient metric pairs 0 with
n+1 (the null directions) and is the identity on 1..n — so raising and
lowering is the index involution 0 <-> n+1.  ``metric_trace``,
``tracefree_part`` (the closed form in powers of the metric and of the
trace) and ``sym_outer`` serve both symmetric types, each of which
supplies only its metric.  ``PairSkewTensor`` stores constant ambient
tensors of shape (n, k) that are skew in each of k index pairs;
``PairSkewTensor.project`` builds one from the nonzero entries of an
unsymmetrized tensor.  ``decompose_gg`` splits a two-pair tensor into its
six invariant summands, one of them the symmetric trace-free 2-tensor W
of the scalar-symbol operators, stored as a ``SymAmbientTensor``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial, prod
from typing import Callable, Iterable, Iterator, Mapping

from .exactpoly import (
    LinearCombination,
    Polynomial,
    Rational,
    ambient_space,
    base_space,
    collect,
    format_multi_index,
    format_rational,
    multi_index_from_json,
    numerators,
    product_sum,
    rat,
    rational_from_json,
)

MultiIndex = tuple[int, ...]


# ---------------------------------------------------------------------------
# index utilities

def base_indices(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def ambient_indices(n: int) -> tuple[int, ...]:
    return tuple(range(0, n + 2))


def ambient_lower(n: int, a: int) -> int:
    """The ambient metric as an index involution: 0 <-> n+1, identity else."""
    if a == 0:
        return n + 1
    if a == n + 1:
        return 0
    return a


def nondecreasing_tuples(indices: Iterable[int], length: int) -> list[MultiIndex]:
    return list(itertools.combinations_with_replacement(tuple(indices), length))


def distinct_orderings(key: MultiIndex) -> int:
    """Number of distinct slot orders of a multi-index (a multinomial)."""
    count = factorial(len(key))
    for c in Counter(key).values():
        count //= factorial(c)
    return count


def pair_orbit(key: MultiIndex, pair_count: int) -> Iterator[tuple[MultiIndex, int]]:
    """The key with every subset of its ``pair_count`` index pairs
    transposed, as (arranged key, sign) with one sign flip per transposed
    pair."""
    for flip in itertools.product((0, 1), repeat=pair_count):
        sign = 1
        arranged = list(key)
        for i, f in enumerate(flip):
            if f:
                arranged[2 * i], arranged[2 * i + 1] = arranged[2 * i + 1], arranged[2 * i]
                sign = -sign
        yield tuple(arranged), sign


# ---------------------------------------------------------------------------
# generic symmetric-component helpers (values: Polynomial or Fraction)


def _symmetrize_components(
    raw: Mapping[MultiIndex, object], valency: int
) -> dict[MultiIndex, object]:
    """Project arbitrary-slot components onto full symmetry (average)."""
    for key in raw:
        if len(key) != valency:
            raise ValueError(f"index {key} has wrong length for valency {valency}")
    sums = collect((tuple(sorted(key)), val) for key, val in raw.items())
    return {key: val * Fraction(1, distinct_orderings(key)) for key, val in sums.items()}


def _sym_outer_components(
    a: Mapping[MultiIndex, object],
    p: int,
    b: Mapping[MultiIndex, object],
    q: int,
) -> dict[MultiIndex, object]:
    """Components of the symmetrized product of two symmetric tensors.

    Each stored pair (ka, kb) lands on sorted(ka + kb) once for each choice
    of the positions of ka there, prod_i C(mult(i), mult_ka(i)) times.  With
    polynomial values on both sides, each output component is one
    ``product_sum`` with that weight and the prefactor folded into each
    product.
    """
    prefactor = Fraction(factorial(p) * factorial(q), factorial(p + q))
    groups: dict[MultiIndex, list] = {}
    for ka, av in a.items():
        for kb, bv in b.items():
            key = tuple(sorted(ka + kb))
            weight = prod(comb(key.count(i), ka.count(i)) for i in set(ka))
            groups.setdefault(key, []).append((weight, av, bv))
    first = [next(iter(c.values()), None) for c in (a, b)]
    if all(isinstance(v, Polynomial) for v in first):
        space = first[0].space
        sums = (
            (key, product_sum(space, ((prefactor * w, av, bv) for w, av, bv in triples)))
            for key, triples in groups.items()
        )
        return {key: val for key, val in sums if val}
    products = (
        (key, av * bv if w == 1 else av * bv * w)
        for key, triples in groups.items()
        for w, av, bv in triples
    )
    return {key: val * prefactor for key, val in collect(products).items()}


def _trace_components(
    comps: Mapping[MultiIndex, object],
    valency: int,
    lower: Callable[[int], int],
) -> dict[MultiIndex, object]:
    """Metric trace over the first two slots (all slots are equivalent).

    A stored key gives its value to the key less a and lower(a), once for
    each distinct index a of the key for which both can be removed.
    """
    if valency < 2:
        raise ValueError("trace needs valency >= 2")

    def traces():
        for key, val in comps.items():
            for a in dict.fromkeys(key):
                rest = list(key)
                rest.remove(a)
                if lower(a) in rest:
                    rest.remove(lower(a))
                    yield tuple(rest), val

    return collect(traces())


# ---------------------------------------------------------------------------
# keyed tensors: one canonical key per orbit of the slot symmetries


class _KeyedTensor(LinearCombination):
    """A tensor of shape (n, count) that stores one canonical key per orbit
    of its slot symmetries.  Each subclass supplies ``count_name``, the name
    of the count in the JSON form and the repr, and ``key_length(count)``;
    ``canonical(key, count)``, the representative of an ordered key with
    its sign, or None when the key's component is identically zero, and
    ``orbit(key, count)``, the distinct ordered keys of a representative
    with their signs; its index range ``indices(n)``; ``space_of(n)``,
    which checks n; and ``_value``, ``_value_to_json`` and
    ``_value_from_json``, which coerce a value in that space and convert it
    to and from JSON.  The key validation, ``get``, ``ordered_entries``, the
    repr and the JSON form read nothing else."""

    __slots__ = ()

    def __init__(
        self, n: int, count: int, components: Mapping[MultiIndex, object] | None = None
    ) -> None:
        if count < 0:
            raise ValueError(f"{self.count_name} must be >= 0")
        space, indices = self.space_of(n), self.indices(n)
        first, last, length = indices[0], indices[-1], self.key_length(count)

        def valid():
            for key, val in (components or {}).items():
                key = tuple(key)
                if len(key) != length or any(not first <= i <= last for i in key):
                    raise ValueError(
                        f"bad multi-index {key} for {self.count_name} {count}, n={n}"
                    )
                if self.canonical(key, count) != (key, 1):
                    raise ValueError(f"multi-index {key} is not its own representative")
                yield key, self._value(space, val)

        self._fill((n, count), valid())

    n = property(lambda self: self.shape[0])
    components = property(lambda self: self.terms)
    space = property(lambda self: self.space_of(self.n))

    def get(self, key: MultiIndex):
        """The component at an ordered key: the stored value with the sign
        of ``canonical``, or zero."""
        canon = self.canonical(tuple(key), self.shape[1])
        if canon is not None:
            val = self.terms.get(canon[0])
            if val is not None:
                return val if canon[1] > 0 else -val
        return self._value(self.space, 0)

    def ordered_entries(self) -> Iterator[tuple[MultiIndex, object]]:
        """Every ordered key with a nonzero component, with its value."""
        count = self.shape[1]
        for key, val in self.terms.items():
            for arranged, sign in self.orbit(key, count):
                yield arranged, val if sign > 0 else -val

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} n={self.n} {self.count_name}={self.shape[1]}"
            f" nnz={len(self.terms)}>"
        )

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            self.count_name: self.shape[1],
            "components": {
                format_multi_index(k): self._value_to_json(v)
                for k, v in sorted(self.terms.items())
            },
        }

    @classmethod
    def from_json_obj(cls, data: dict):
        n = data["n"]
        space = cls.space_of(n)
        comps = {
            multi_index_from_json(key): cls._value_from_json(space, val)
            for key, val in data["components"].items()
        }
        return cls(n, data[cls.count_name], comps)


# ---------------------------------------------------------------------------
# symmetric tensors and their trace calculus


class _SymTensor(_KeyedTensor):
    """A symmetric tensor of shape (n, valency), keyed by nondecreasing
    multi-indices.  Each subclass fixes its metric by its index range and
    ``lower(n, a)``, the metric as an index involution; the trace calculus
    below reads nothing else."""

    __slots__ = ()
    count_name = "valency"
    key_length = staticmethod(lambda valency: valency)
    canonical = staticmethod(lambda key, valency: (tuple(sorted(key)), 1))
    valency = property(lambda self: self.shape[1])

    @staticmethod
    def orbit(key: MultiIndex, valency: int) -> Iterator[tuple[MultiIndex, int]]:
        return ((arranged, 1) for arranged in dict.fromkeys(itertools.permutations(key)))

    @classmethod
    def metric(cls, n: int) -> dict[MultiIndex, Fraction]:
        """The inverse metric's components: 1 at each (a, lower(a))."""
        return {tuple(sorted((a, cls.lower(n, a)))): Fraction(1) for a in cls.indices(n)}

    def is_tracefree(self) -> bool:
        return self.valency < 2 or not _trace_components(
            self.components, self.valency, partial(self.lower, self.n)
        )


def metric_trace(t: _SymTensor) -> _SymTensor:
    """Exact contraction of two slots with the metric (all slot pairs give
    the same trace of a symmetric tensor)."""
    comps = _trace_components(t.components, t.valency, partial(t.lower, t.n))
    return type(t)._make((t.n, t.valency - 2), comps)


def tracefree_part(t: _SymTensor) -> _SymTensor:
    """The trace-free part sum_k c_k g^k (.) tr^k T of a symmetric s-tensor T
    in dimension N, with c_0 = 1 and
    c_k / c_{k-1} = -(s-2k+2)(s-2k+1) / (2k (N+2s-2-2k)).

    T = TF(T) + g (.) A splits T uniquely for N >= 3, and every denominator
    N+2s-2-2k >= N-2 is positive, so the closed form is exact.
    """
    lower, g = partial(t.lower, t.n), t.metric(t.n)
    s, dim = t.valency, len(t.indices(t.n))
    terms = [t.components.items()]
    trace, g_power, coeff = t.components, {(): Fraction(1)}, Fraction(1)
    for k in range(1, s // 2 + 1):
        trace = _trace_components(trace, s - 2 * k + 2, lower)
        if not trace:
            break
        coeff *= Fraction(-(s - 2 * k + 2) * (s - 2 * k + 1), 2 * k * (dim + 2 * s - 2 - 2 * k))
        g_power = _sym_outer_components(g, 2, g_power, 2 * k - 2)
        # scaling the trace first costs one product per trace entry
        scaled = {key: val * coeff for key, val in trace.items()}
        terms.append(_sym_outer_components(g_power, 2 * k, scaled, s - 2 * k).items())
    return type(t)._collect(t.shape, itertools.chain.from_iterable(terms))


def sym_outer(a: _SymTensor, b: _SymTensor) -> _SymTensor:
    """Symmetrized outer product of two symmetric tensors of one type and
    dimension."""
    if type(a) is not type(b) or a.n != b.n:
        raise ValueError("sym_outer needs two tensors of one type and dimension")
    comps = _sym_outer_components(a.components, a.valency, b.components, b.valency)
    return type(a)._make((a.n, a.valency + b.valency), comps)


# ---------------------------------------------------------------------------
# base-space symmetric tensor fields (polynomial components)


class SymTensorField(_SymTensor):
    """Symmetric tensor of valency s on R^n with polynomial components; the
    flat metric is the identity."""

    __slots__ = ()
    indices = staticmethod(base_indices)
    lower = staticmethod(lambda n, a: a)
    space_of = staticmethod(base_space)
    _value_to_json = staticmethod(Polynomial.to_json_obj)
    _value_from_json = staticmethod(Polynomial.from_json_obj)

    @staticmethod
    def _value(space, val) -> Polynomial:
        if not isinstance(val, Polynomial):
            val = Polynomial.constant(space, val)
        if val.space != space:
            raise ValueError("component in wrong variable space")
        return val

    def map_components(self, fn: Callable[[Polynomial], Polynomial]) -> "SymTensorField":
        return SymTensorField(
            self.n, self.valency, {k: fn(v) for k, v in self.components.items()}
        )


def metric_tensor(n: int) -> SymTensorField:
    """The flat metric delta_ab as a symmetric 2-tensor field."""
    return SymTensorField(n, 2, SymTensorField.metric(n))


def symmetrize(
    n: int, valency: int, raw: Mapping[MultiIndex, Polynomial | Rational]
) -> SymTensorField:
    """Average a tensor with explicit (ordered) slots over all slot orders."""
    space = base_space(n)
    coerced = {
        tuple(key): (v if isinstance(v, Polynomial) else Polynomial.constant(space, v))
        for key, v in raw.items()
    }
    comps = _symmetrize_components(coerced, valency)
    return SymTensorField(n, valency, comps)


# ---------------------------------------------------------------------------
# constant ambient symmetric tensors


class SymAmbientTensor(_SymTensor):
    """Constant symmetric tensor on the ambient space (indices 0..n+1) with
    rational components."""

    __slots__ = ()
    indices = staticmethod(ambient_indices)
    lower = staticmethod(ambient_lower)
    space_of = staticmethod(ambient_space)
    _value = staticmethod(lambda space, val: rat(val))
    _value_to_json = staticmethod(format_rational)
    _value_from_json = staticmethod(lambda space, val: rational_from_json(val))


def ambient_metric_sym(n: int) -> SymAmbientTensor:
    """The inverse ambient metric as a symmetric 2-tensor."""
    return SymAmbientTensor(n, 2, SymAmbientTensor.metric(n))


# ---------------------------------------------------------------------------
# paired-skew constant ambient tensors


def _pair_canonical(key: MultiIndex, pair_count: int) -> tuple[MultiIndex, int] | None:
    """The representative of an ordered key under the flips of its
    ``pair_count`` index pairs, with one sign flip per transposed pair; None
    when a pair repeats an index."""
    sign = 1
    parts: list[int] = []
    for i in range(0, 2 * pair_count, 2):
        a, b = key[i], key[i + 1]
        if a < b:
            parts += (a, b)
        elif b < a:
            parts += (b, a)
            sign = -sign
        else:
            return None
    return tuple(parts), sign


def _projected(
    n: int, pair_count: int, nums: Iterable[tuple[MultiIndex, int]], den: int
) -> "PairSkewTensor":
    """The pair-skew projection of ordered entries given as int numerators
    over ``den``: the signed numerators are summed per representative, and
    each nonzero sum becomes one Fraction over den * 2^pair_count."""
    shape = PairSkewTensor(n, pair_count).shape
    sums: dict[MultiIndex, int] = {}
    for key, num in nums:
        canon = _pair_canonical(key, pair_count)
        if canon is not None:
            ckey, sign = canon
            sums[ckey] = sums.get(ckey, 0) + (num if sign > 0 else -num)
    den <<= pair_count
    return PairSkewTensor._make(
        shape, {key: Fraction(t, den) for key, t in sums.items() if t}
    )


class PairSkewTensor(_KeyedTensor):
    """Constant ambient tensor of shape (n, k), skew within each of its k
    index pairs.

    Storage keeps one representative per orbit of the pair-internal
    transpositions with sign bookkeeping; a pair with equal indices is
    identically zero.
    """

    __slots__ = ()
    count_name = "pair_count"
    key_length = staticmethod(lambda pair_count: 2 * pair_count)
    canonical = staticmethod(_pair_canonical)
    orbit = staticmethod(pair_orbit)
    indices = staticmethod(ambient_indices)
    space_of = staticmethod(ambient_space)
    _value = staticmethod(lambda space, val: rat(val))
    _value_to_json = staticmethod(format_rational)
    _value_from_json = staticmethod(lambda space, val: rational_from_json(val))
    pair_count = property(lambda self: self.shape[1])

    @classmethod
    def project(
        cls, n: int, pair_count: int, entries: Iterable[tuple[MultiIndex, Rational]]
    ) -> "PairSkewTensor":
        """The pair-skew projection of a tensor given by its nonzero ordered
        (key, value) entries, each key 2 * pair_count ambient indices; keys
        with a repeated pair drop out.

        Each entry adds its value, as an int numerator over the common
        denominator and with the sign of ``canonical``, to its
        representative, and the sums are scaled once by 1/2^pair_count.  No
        pair flip fixes a key whose pairs have distinct indices, so this is
        the average over the flip orbit.
        """
        den, nums = numerators(entries)
        return _projected(n, pair_count, nums, den)


def contract_positions(
    x: PairSkewTensor, contractions: list[tuple[int, int]]
) -> dict[MultiIndex, Fraction]:
    """Contract index-position pairs with the ambient metric.

    Returns the nonzero entries of the map over the remaining (ordered)
    index positions.  The contracted values of every summand are laid out
    once; each summand key is canonicalized in place and its component read
    as an int numerator over the common denominator of x.
    """
    k = x.pair_count
    used = {p for pair in contractions for p in pair}
    if len(used) != 2 * len(contractions):
        raise ValueError("overlapping contraction positions")
    free = [p for p in range(2 * k) if p not in used]
    idx = ambient_indices(x.n)
    den, nums = numerators(x.components.items())
    nums = dict(nums)
    # the (position, value) assignments of every summand of the contraction
    summands = [
        [
            (p, v)
            for (pi, pj), a in zip(contractions, sums)
            for p, v in ((pi, a), (pj, ambient_lower(x.n, a)))
        ]
        for sums in itertools.product(idx, repeat=len(contractions))
    ]
    key = [0] * (2 * k)
    out: dict[MultiIndex, Fraction] = {}
    for free_vals in itertools.product(idx, repeat=len(free)):
        for p, v in zip(free, free_vals):
            key[p] = v
        total = 0
        for summand in summands:
            for p, v in summand:
                key[p] = v
            canon = _pair_canonical(key, k)
            if canon is not None:
                num = nums.get(canon[0])
                if num is not None:
                    total += num if canon[1] > 0 else -num
        if total:
            out[free_vals] = Fraction(total, den)
    return out


def pair_swap(x: PairSkewTensor) -> PairSkewTensor:
    """Exchange the two pairs of a two-pair tensor."""
    if x.pair_count != 2:
        raise ValueError("pair_swap needs exactly two pairs")
    return PairSkewTensor._make(x.shape, {k[2:] + k[:2]: v for k, v in x.components.items()})


def fully_skew_part(x: PairSkewTensor) -> PairSkewTensor:
    """Total antisymmetrization of a two-pair tensor over all four slots."""
    if x.pair_count != 2:
        raise ValueError("fully_skew_part needs exactly two pairs")
    # the average over the 24 signed slot orders meets each stored key in
    # its 4 flip arrangements, so each stored key scatters its signed slot
    # orders with 1/6 of its value; keys with a repeated index cancel
    perms = [(p, _perm_sign(p)) for p in itertools.permutations(range(4))]
    return PairSkewTensor.project(
        x.n,
        2,
        (
            (tuple(key[i] for i in p), sign * val * Fraction(1, 6))
            for key, val in x.components.items()
            if len(set(key)) == 4
            for p, sign in perms
        ),
    )


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# the six summands of a two-pair tensor


def _metric_insertions(
    n: int, entries: Iterable[tuple[MultiIndex, Fraction]], scale: Fraction
) -> Iterator[tuple[MultiIndex, Fraction]]:
    """Ordered entries of scale * (T^BR g^QC - T^QR g^BC - T^BC g^QR + T^QC g^BR)
    for the ordered entries of a two-index tensor T."""
    for (i, j), val in entries:
        v = val * scale
        for a in ambient_indices(n):
            la = ambient_lower(n, a)
            yield (i, a, la, j), v
            yield (a, i, la, j), -v
            yield (i, a, j, la), -v
            yield (a, i, j, la), v


def scalar_embed(value: Rational, n: int) -> PairSkewTensor:
    """Embed a scalar as the invariant-pairing summand (trace-normalized):
    value/(n(n+1)(n+2)) * (g^QC g^BR - g^BC g^QR), half the insertion of g."""
    metric = [((a, ambient_lower(n, a)), Fraction(1)) for a in ambient_indices(n)]
    scale = rat(value) * Fraction(1, 2 * n * (n + 1) * (n + 2))
    return PairSkewTensor.project(n, 2, _metric_insertions(n, metric, scale))


def scalar_extract(x: PairSkewTensor) -> Fraction:
    """Double trace, normalized so scalar_extract(scalar_embed(v)) = v.

    Of the four flip arrangements of a stored key (b, q, c, r), two meet the
    trace when (c, r) = (b', q') and the other two, with sign -1, when
    (c, r) = (q', b'), where ' lowers an index.
    """
    n = x.n
    total = Fraction(0)
    for (b, q, c, r), val in x.components.items():
        lb, lq = ambient_lower(n, b), ambient_lower(n, q)
        if (c, r) == (lb, lq):
            total += val
        elif (c, r) == (lq, lb):
            total -= val
    return -2 * n * total


def adjoint_embed(v: PairSkewTensor) -> PairSkewTensor:
    """Embed a one-pair tensor as the adjoint summand (bracket-normalized)."""
    if v.pair_count != 1:
        raise ValueError("adjoint_embed expects a one-pair tensor")
    n = v.n
    return PairSkewTensor.project(
        n, 2, _metric_insertions(n, v.ordered_entries(), Fraction(1, 2 * n))
    )


def adjoint_extract(x: PairSkewTensor) -> PairSkewTensor:
    """Bracket-type contraction; inverts adjoint_embed, kills other summands.

    The component at (B, R) is X^{BQ}_Q^R - X^{RQ}_Q^B.
    """
    n = x.n

    def traced():
        for (b, q, c, r), val in x.ordered_entries():
            if c == ambient_lower(n, q):
                yield (b, r), val
                yield (r, b), -val

    return PairSkewTensor.project(n, 1, traced())


def bullet_embed(w: SymAmbientTensor) -> PairSkewTensor:
    """Embed a symmetric trace-free 2-tensor as the two-row-symmetric summand:
    W^BC g^QR - W^QC g^BR - W^BR g^QC + W^QR g^BC."""
    if w.valency != 2:
        raise ValueError("bullet_embed expects a valency-2 symmetric tensor")
    return PairSkewTensor.project(
        w.n, 2, _metric_insertions(w.n, w.ordered_entries(), Fraction(-1))
    )


def bullet_extract(x: PairSkewTensor) -> SymAmbientTensor:
    """Second-slot trace, symmetrized and trace-freed; inverts bullet_embed.

    Before symmetrizing, the component at (B, C) is X^{BQC}_Q.
    """
    n = x.n
    traced = collect(
        ((b, c), val)
        for (b, q, c, r), val in x.ordered_entries()
        if r == ambient_lower(n, q)
    )
    sym = _symmetrize_components(traced, 2)
    return tracefree_part(SymAmbientTensor(n, 2, sym)) * Fraction(1, n)


@dataclass(frozen=True)
class GGDecomposition:
    """The six invariant components of a two-pair ambient tensor."""

    cartan: PairSkewTensor
    bullet_W: SymAmbientTensor  # valency 2
    scalar: Fraction
    hook: PairSkewTensor
    adjoint: PairSkewTensor  # pair_count 1
    fully_skew: PairSkewTensor

    def embedded(self) -> dict[str, PairSkewTensor]:
        n = self.cartan.n
        return {
            "cartan": self.cartan,
            "bullet": bullet_embed(self.bullet_W),
            "scalar": scalar_embed(self.scalar, n),
            "hook": self.hook,
            "adjoint": adjoint_embed(self.adjoint),
            "fully_skew": self.fully_skew,
        }

    def recombined(self) -> PairSkewTensor:
        return PairSkewTensor._sum(self.cartan.shape, self.embedded().values())


def decompose_gg(x: PairSkewTensor) -> GGDecomposition:
    """Split a two-pair tensor into its six invariant summands.

    Five parts come from explicit embeddings/extractions; the top summand is
    the exact remainder.  The embedded parts recombine to the input exactly.
    """
    if x.pair_count != 2:
        raise ValueError("decompose_gg expects a two-pair tensor")
    n = x.n
    scalar = scalar_extract(x)
    scalar_part = scalar_embed(scalar, n)
    adjoint = adjoint_extract(x)
    adjoint_part = adjoint_embed(adjoint)
    bullet_w = bullet_extract(x)
    bullet_part = bullet_embed(bullet_w)
    skew_part = fully_skew_part(x)
    antisym = (x - pair_swap(x)) * Fraction(1, 2)
    hook_part = antisym - adjoint_part
    cartan_part = x - scalar_part - adjoint_part - bullet_part - skew_part - hook_part
    return GGDecomposition(
        cartan=cartan_part,
        bullet_W=bullet_w,
        scalar=scalar,
        hook=hook_part,
        adjoint=adjoint,
        fully_skew=skew_part,
    )


# ---------------------------------------------------------------------------
# the quartic counterexample tensor


def counterexample_tensor(z: SymAmbientTensor) -> PairSkewTensor:
    """Skew a symmetric trace-free 4-tensor against the squared metric.

    Builds the four-pair tensor X whose pair-skewing carries Z on the first
    slots of each pair and the symmetrized double metric on the second slots.
    Its first-pair double trace and trailing-pair trace vanish, while the
    mixed double trace reproduces a nonzero multiple of Z.
    """
    if z.valency != 4:
        raise ValueError("expected a valency-4 ambient tensor")
    if not z.is_tracefree():
        raise ValueError("tensor must be trace-free")
    n = z.n
    gg = sym_outer(ambient_metric_sym(n), ambient_metric_sym(n))
    # Z on the first slots of the pairs and GG on the second: each of the
    # ordered products is an int numerator over dz * dg, and each
    # representative becomes one Fraction after the 1/2^4 scale
    dz, z_entries = numerators(z.ordered_entries())
    dg, g_entries = numerators(gg.ordered_entries())
    return _projected(
        n,
        4,
        (
            ((z0, g0, z1, g1, z2, g2, z3, g3), zn * gn)
            for (z0, z1, z2, z3), zn in z_entries
            for (g0, g1, g2, g3), gn in g_entries
        ),
        dz * dg,
    )


def counterexample_first_trace(x: PairSkewTensor) -> dict[MultiIndex, Fraction]:
    """Double trace of the first pair against the second pair."""
    return contract_positions(x, [(0, 2), (1, 3)])


def counterexample_tail_trace(x: PairSkewTensor) -> dict[MultiIndex, Fraction]:
    """Double trace of the third pair against the fourth pair."""
    return contract_positions(x, [(4, 6), (5, 7)])


def counterexample_mixed_trace(x: PairSkewTensor) -> dict[MultiIndex, Fraction]:
    """The mixed double trace (second slots of pairs 1-2 and 3-4)."""
    return contract_positions(x, [(1, 3), (5, 7)])
