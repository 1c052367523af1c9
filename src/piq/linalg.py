"""Exact rational kernels and independent rows for discovery and hauptmodul fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InsufficientPrecision
from .series import ScaledSeries, _frac


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix of a rational matrix's rows, each scaled to integers.

    Scaling a row leaves the right null space alone, so the integer entries
    are all that ``kernel_basis`` needs.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    @classmethod
    def make(cls, data: Sequence[Sequence[object]], cols: int | None = None) -> "RationalMatrix":
        data = [[_frac(x) for x in row] for row in data]
        rows = len(data)
        if rows:
            cols = len(data[0])
            if any(len(r) != cols for r in data):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("column count required for an empty matrix")
        flat = []
        for row in data:
            den = math.lcm(*(x.denominator for x in row))
            flat.extend(x.numerator * (den // x.denominator) for x in row)
        return cls(rows, cols, tuple(flat))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])


def _normalize_vector(v: list[int]) -> tuple[int, ...]:
    """Divide out the gcd of the entries and make the leading entry positive."""
    g = math.gcd(*v)
    for x in v:
        if x != 0:
            if x < 0:
                g = -g
            break
    return tuple(x // g for x in v)


def _eliminate(a: list[list[int]], cols: int) -> list[int]:
    """Fraction-free (Bareiss) forward elimination of the integer rows ``a``, in place.

    Leaves ``a`` in row echelon form and returns the pivot columns; row i
    holds the pivot of ``pivot_cols[i]``.
    """
    rows = len(a)
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def independent(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the rows that lie outside the span of the rows before them.

    These are the pivot columns of the transpose's echelon form, as a column
    is a pivot exactly when it is no combination of the columns before it.
    """
    if not rows:
        return []
    return _eliminate([list(col) for col in zip(*rows)], len(rows))


def kernel_basis(m: RationalMatrix) -> list[tuple[int, ...]]:
    """Basis of the right null space by fraction-free (Bareiss) elimination.

    Back substitution stays in the integers by scaling the partial vector
    whenever a pivot does not divide; each basis vector is then reduced to
    coprime integers with positive leading entry, so the output is
    deterministic and exact.
    """
    rows, cols = m.rows, m.cols
    if cols == 0:
        return []
    a = [m.row(i) for i in range(rows)]
    pivot_cols = _eliminate(a, cols)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [0] * cols
        v[f] = 1
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            s = 0
            for j in range(pc + 1, cols):
                if a[i][j] and v[j]:
                    s += a[i][j] * v[j]
            p = a[i][pc]
            grow = abs(p) // math.gcd(s, p)
            if grow != 1:
                v = [x * grow for x in v]
                s *= grow
            v[pc] = -s // p
        basis.append(_normalize_vector(v))
    return basis


def series_window_matrix(columns: Sequence[ScaledSeries], rows: int) -> RationalMatrix:
    """Matrix whose j-th column is a coefficient window of the j-th series.

    The window starts at the smallest valuation among the columns and walks
    the common exponent lattice; a coefficient beyond some column's tracked
    bound raises InsufficientPrecision.  Entries are read by lattice index:
    row i is numerator base + i on the common scale, which a column of scale
    s stores under numerator (base + i) / (scale / s).  Every entry is the
    coefficient times L, the lcm of the column denominators, so the entries
    are integers.
    """
    if not columns:
        raise ValueError("no columns")
    scale = math.lcm(*(c.scale for c in columns))
    den = math.lcm(*(c.den for c in columns))
    vals = [c.valuation() for c in columns]
    known = [v for v in vals if v is not None]
    # A valuation sits on its column's lattice, so base * scale is integral.
    base = int(min(known) * scale) if known else 0
    last, bound = Fraction(base + rows - 1, scale), min(c.bound for c in columns)
    if rows and last >= bound:
        raise InsufficientPrecision(
            f"coefficient of q^{last} requested but a column is only known modulo O(q^{bound})"
        )
    ncols = len(columns)
    entries = [0] * (rows * ncols)
    for j, col in enumerate(columns):
        step = scale // col.scale
        mult = den // col.den
        for n, x in col.nums.items():
            i = n * step - base
            if i >= rows:
                break
            entries[i * ncols + j] = x * mult
    return RationalMatrix(rows, ncols, tuple(entries))
