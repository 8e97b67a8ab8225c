"""Exact sparse linear algebra over the rationals.

Implements fraction-free Gauss-Jordan elimination on sparse integer rows
(cross-multiplication plus gcd reduction), exposing exact nullspace bases,
block-by-block nullspaces of graded systems and ranks.  Nullspace bases are
normalized reduced-row-echelon style: each basis vector carries coefficient
1 at its free column and zeros at all other free columns, so output is
deterministic for a fixed column order.

``nullspace`` and ``rank`` first try a modular certificate of full column
rank: an integer matrix of full column rank modulo a prime p has a maximal
minor that is nonzero mod p, hence nonzero over the integers, so its
nullspace is zero.  Only when the rank drops modulo p (the nullspace is
nonzero, or p divides every maximal minor) does the exact elimination run.
The graded solvers share ``leibniz_columns`` and ``stabilized_by_closure``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, perm, prod
from operator import gt, sub
from typing import Callable, Container, Hashable, Iterable, Mapping, Sequence


def _to_integer_rows(
    columns: Sequence[Mapping[Hashable, Fraction]],
) -> list[dict[int, int]]:
    """Transpose column dicts into integer-scaled sparse rows.

    Row keys are assigned in first-seen order while scanning columns in
    index order, which makes the elimination deterministic.
    """
    row_ids: dict[Hashable, int] = {}
    rows: list[dict[int, Fraction]] = []
    for ci, col in enumerate(columns):
        for key, val in col.items():
            if val == 0:
                continue
            rid = row_ids.get(key)
            if rid is None:
                rid = len(rows)
                row_ids[key] = rid
                rows.append({})
            rows[rid][ci] = val
    out: list[dict[int, int]] = []
    for row in rows:
        denom = 1
        for val in row.values():
            denom = denom * val.denominator // gcd(denom, val.denominator)
        ints = {c: int(v * denom) for c, v in row.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        if g > 1:
            ints = {c: v // g for c, v in ints.items()}
        out.append(ints)
    return out


# The prime of the emptiness certificate; any prime gives exact answers, a
# large one rarely divides every maximal minor of a full-rank block.
PRIME = 2**31 - 1


def _full_column_rank_mod_p(rows: Sequence[Mapping[int, int]], ncols: int) -> bool:
    """Whether the integer rows have rank ``ncols`` modulo ``PRIME``.

    Gaussian elimination column by column with the sparsest holder as the
    pivot row, as in ``_Eliminator``; the answer is False at the first
    column that finds no pivot.
    """
    rows = [{c: v % PRIME for c, v in row.items() if v % PRIME} for row in rows]
    col_rows: dict[int, set[int]] = {}
    for rid, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(rid)
    for c in range(ncols):
        holders = col_rows.pop(c, None)
        if not holders:
            return False
        pid = min(holders, key=lambda rid: (len(rows[rid]), rid))
        pr = rows[pid]
        inv = pow(pr.pop(c), -1, PRIME)
        for k in pr:
            col_rows[k].discard(pid)
        for sid in holders - {pid}:
            sr = rows[sid]
            f = sr.pop(c) * inv % PRIME
            for k, v in pr.items():
                nv = (sr.get(k, 0) - f * v) % PRIME
                if nv:
                    if k not in sr:
                        col_rows[k].add(sid)
                    sr[k] = nv
                else:
                    del sr[k]
                    col_rows[k].discard(sid)
    return True


def _reduce_row(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        for c in row:
            row[c] //= g


class _Eliminator:
    """Gauss-Jordan elimination state over sparse integer rows."""

    def __init__(self, rows: list[dict[int, int]], ncols: int) -> None:
        self.ncols = ncols
        self.rows = rows
        self.col_rows: dict[int, set[int]] = {}
        for rid, row in enumerate(self.rows):
            for c in row:
                self.col_rows.setdefault(c, set()).add(rid)
        self.pivot_row_of_col: dict[int, int] = {}
        self.pivot_col_of_row: dict[int, int] = {}
        self.free_cols: list[int] = []
        self._run()

    def _rewrite_row(self, sid: int, pid: int, c: int) -> None:
        """Replace row sid by rows[sid]*pivot - rows[pid]*rows[sid][c]."""
        sr = self.rows[sid]
        pr = self.rows[pid]
        pv = pr[c]
        sv = sr[c]
        new: dict[int, int] = {}
        for k, val in sr.items():
            if k != c:
                new[k] = val * pv
        for k, val in pr.items():
            if k == c:
                continue
            nv = new.get(k, 0) - val * sv
            if nv == 0:
                new.pop(k, None)
            else:
                new[k] = nv
        _reduce_row(new)
        old_cols = set(sr)
        new_cols = set(new)
        for k in old_cols - new_cols:
            self.col_rows.get(k, set()).discard(sid)
        for k in new_cols - old_cols:
            self.col_rows.setdefault(k, set()).add(sid)
        self.rows[sid] = new

    def _run(self) -> None:
        for c in range(self.ncols):
            holders = self.col_rows.get(c)
            if not holders:
                self.free_cols.append(c)
                continue
            candidates = [rid for rid in holders if rid not in self.pivot_col_of_row]
            if not candidates:
                self.free_cols.append(c)
                continue
            pid = min(candidates, key=lambda rid: (len(self.rows[rid]), rid))
            for sid in sorted(holders - {pid}):
                self._rewrite_row(sid, pid, c)
            self.pivot_row_of_col[c] = pid
            self.pivot_col_of_row[pid] = c

    @property
    def rank(self) -> int:
        return len(self.pivot_row_of_col)

    def nullspace_basis(self) -> list[dict[int, Fraction]]:
        basis: list[dict[int, Fraction]] = []
        for f in self.free_cols:
            vec: dict[int, Fraction] = {f: Fraction(1)}
            holders = self.col_rows.get(f, ())
            for rid in holders:
                c = self.pivot_col_of_row.get(rid)
                if c is None:
                    continue
                row = self.rows[rid]
                vec[c] = Fraction(-row[f], row[c])
            basis.append(vec)
        return basis


def nullspace(columns: Sequence[Mapping[Hashable, Fraction]]) -> list[dict[int, Fraction]]:
    """Exact rational nullspace of the linear map with the given columns.

    Each column is a sparse map from an arbitrary hashable row key to a
    Fraction.  Returns one basis vector per free column, as a sparse map
    column-index -> Fraction with coefficient 1 at the free column.  Values
    may be ``int`` or ``Fraction``.  A block of full column rank modulo
    ``PRIME`` returns ``[]`` without exact elimination.
    """
    ncols = len(columns)
    rows = _to_integer_rows(columns)
    if len(rows) >= ncols and _full_column_rank_mod_p(rows, ncols):
        return []
    return _Eliminator(rows, ncols).nullspace_basis()


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


# The constant parts of one label: (gamma, {row: value}) per distinct gamma.
Parts = Sequence[tuple[tuple[int, ...], Mapping[Hashable, Fraction]]]


def leibniz_columns(constants: Callable[[Hashable], Parts]) -> Callable[[tuple], dict]:
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


def stabilized_by_closure(solved_grades: Container, first_open: int, probe: Callable) -> bool:
    """Whether no solution exists above the solved grades, by a proof.

    Let each d_i map solutions of grade g + 1 to solutions of grade g, and
    let every solution killed by all d_i have grade <= 0.  Then an empty
    grade g >= 0 proves every grade above it empty: a solution of grade
    g + 1 is killed by all d_i.  Grades 0 .. first_open - 1 are complete
    (solved with all their unknowns), and ``solved_grades`` holds those
    with a solution.  An empty one makes the flag True; failing that,
    ``probe()`` solves grade first_open completely, once, and the flag is
    whether it returned no solution.  With first_open < 1 no grade is
    complete, and the flag is False.
    """
    if first_open < 1:
        return False
    if any(g not in solved_grades for g in range(first_open)):
        return True
    return not probe()


def rank(columns: Sequence[Mapping[Hashable, Fraction]]) -> int:
    """Exact rank of the linear map with the given columns.

    Full column rank modulo ``PRIME`` is returned without exact
    elimination: the rank modulo a prime never exceeds the rank over Q.
    """
    ncols = len(columns)
    rows = _to_integer_rows(columns)
    if len(rows) >= ncols and _full_column_rank_mod_p(rows, ncols):
        return ncols
    return _Eliminator(rows, ncols).rank

