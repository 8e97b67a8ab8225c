"""Reference solvers of block-structured systems for the tests.

``block_nullspace`` solves a linear system one independent block at a time
with ``linsolve.nullspace``, whatever the blocks are keyed by.  The tests
solve whole ranges of degrees or shifts with it, independently of the
grade-by-grade schedule of ``linsolve.solve_graded``.

``reference_leibniz_columns`` is the former ``linsolve.leibniz_columns``,
which keys each entry by the tuple (row, m - gamma) and redoes the gamma
<= m test, the weight and m - gamma for every label; ``with_reference_keys``
renames the int keys of the current builder to those tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import perm, prod
from operator import gt, sub
from typing import Callable, Hashable, Iterable, Mapping

from bilapsym.linsolve import Parts, leibniz_columns, nullspace


def block_nullspace(
    unknowns: Iterable[Hashable],
    block_of: Callable[[Hashable], Hashable],
    column_of: Callable[[Hashable], Mapping[Hashable, Fraction]],
) -> list[tuple[Hashable, dict[Hashable, Fraction]]]:
    """Exact nullspace of a linear system that splits into independent blocks.

    ``block_of(u)`` keys the block of unknown u; unknowns of different
    blocks must never share a row.  Unknowns are grouped in first-seen order
    and the blocks solved in sorted key order, each by one ``nullspace``
    call on the columns ``column_of(u)`` of its members.  Returns one
    ``(block key, {unknown: coefficient})`` pair per basis vector.
    """
    blocks: dict[Hashable, list[Hashable]] = {}
    for u in unknowns:
        blocks.setdefault(block_of(u), []).append(u)
    out = []
    for key in sorted(blocks):
        members = blocks[key]
        for vec in nullspace([column_of(u) for u in members]):
            out.append((key, {members[pos]: coeff for pos, coeff in vec.items()}))
    return out


def reference_leibniz_columns(constants: Callable[[Hashable], Parts]) -> Callable[[tuple], dict]:
    """Columns of a linear map with constant coefficients on polynomials.

    The unknown (label, m) is the basis element ``label`` times x^m.  By
    the Leibniz rule a map L with constant coefficients sends it to
    sum_{gamma <= m} m!/(m-gamma)! x^(m-gamma) C[gamma], with constants
    C[gamma] of the label alone.  ``constants(label)`` lists the pairs
    (gamma, C[gamma]), each C[gamma] a map row -> value, and is called
    once per label; the entry of row at x^(m-gamma) is keyed
    (row, m - gamma).
    """
    parts_of = cache(constants)

    def column(unknown: tuple) -> dict:
        label, m = unknown
        col = {}
        for gamma, const in parts_of(label):
            if not any(map(gt, gamma, m)):
                weight = prod(map(perm, m, gamma))
                rest = tuple(map(sub, m, gamma))
                col.update(((row, rest), value * weight) for row, value in const.items())
        return col

    return column


def with_reference_keys(constants: Callable[[Hashable], Parts]) -> Callable[[tuple], dict]:
    """The columns of ``leibniz_columns(constants)``, each key renamed to
    the (row, m - gamma) key of ``reference_leibniz_columns(constants)``.

    Each column must list the reference column's values in its order, and
    the entries at the same place are paired; every int key must pair with
    one tuple key and every tuple key with one int key, over all the columns
    built, so two entries share a key exactly when they do in the reference.
    """
    column = leibniz_columns(constants)
    reference = reference_leibniz_columns(constants)
    names: dict = {}
    keys: dict = {}

    def renamed(unknown: tuple) -> dict:
        got, expected = column(unknown), reference(unknown)
        assert list(got.values()) == list(expected.values()), unknown
        for key, name in zip(got, expected):
            assert names.setdefault(key, name) == name, (unknown, key)
            assert keys.setdefault(name, key) == key, (unknown, name)
        return dict(zip(expected, got.values()))

    return renamed
