"""Exact rational kernel computation for discovery and hauptmodul fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InsufficientPrecision
from .series import ScaledSeries, _frac


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix with exact rational entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    @classmethod
    def make(cls, data: Sequence[Sequence[object]], cols: int | None = None) -> "RationalMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        if rows:
            cols = len(data[0])
            if any(len(r) != cols for r in data):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("column count required for an empty matrix")
        flat = tuple(_frac(x) for row in data for x in row)
        return cls(rows, cols, flat)

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Fraction]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])


def _normalize_vector(v: list[Fraction]) -> tuple[int, ...]:
    """Scale to coprime integer entries with positive leading entry."""
    den = math.lcm(*(x.denominator for x in v)) if v else 1
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def kernel_basis(m: RationalMatrix) -> list[tuple[int, ...]]:
    """Basis of the right null space by fraction-free (Bareiss) elimination.

    Each basis vector is scaled to coprime integers with positive leading
    entry, so the output is deterministic and exact.
    """
    rows, cols = m.rows, m.cols
    if cols == 0:
        return []
    # Clear denominators row by row; row scaling leaves the null space alone.
    a: list[list[int]] = []
    for i in range(rows):
        r = m.row(i)
        den = math.lcm(*(x.denominator for x in r)) if r else 1
        a.append([int(x * den) for x in r])
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot = i
                break
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
        if r == rows:
            break
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            s = Fraction(0)
            for j in range(pc + 1, cols):
                if a[i][j] and v[j]:
                    s += a[i][j] * v[j]
            v[pc] = -s / a[i][pc]
        basis.append(_normalize_vector(v))
    return basis


def series_window_matrix(columns: Sequence[ScaledSeries], rows: int) -> RationalMatrix:
    """Matrix whose j-th column is a coefficient window of the j-th series.

    The window starts at the smallest valuation among the columns and walks
    the common exponent lattice; a coefficient beyond some column's tracked
    bound raises InsufficientPrecision.  Entries are read by lattice index:
    row i is numerator base + i on the common scale, which a column of scale
    s stores at index (base + i) / (scale / s) - offset when that is integral.
    """
    if not columns:
        raise ValueError("no columns")
    scale = math.lcm(*(c.scale for c in columns))
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
    entries = [Fraction(0)] * (rows * ncols)
    for j, col in enumerate(columns):
        step = scale // col.scale
        for k, c in enumerate(col.coeffs):
            i = (col.offset + k) * step - base
            if i >= rows:
                break
            entries[i * ncols + j] = c
    return RationalMatrix(rows, ncols, tuple(entries))
