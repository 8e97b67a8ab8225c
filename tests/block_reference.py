"""Reference solver of block-structured systems for the tests.

``block_nullspace`` solves a linear system one independent block at a time
with ``linsolve.nullspace``, whatever the blocks are keyed by.  The tests
solve whole ranges of degrees or shifts with it, independently of the
grade-by-grade schedule of ``linsolve.solve_graded``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping

from bilapsym.linsolve import nullspace


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
