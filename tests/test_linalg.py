import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from piq.errors import InsufficientPrecision
from piq.etaq import EtaQuotient, PiMonomial, pi_to_eta
from piq.linalg import RationalMatrix, independent, kernel_basis, series_window_matrix
from piq.series import INF, ScaledSeries as S


def naive_rank(data):
    """Oracle: plain rational row reduction."""
    rows = [list(map(F, r)) for r in data]
    if not rows:
        return 0
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


class TestKernelBasis:
    def test_rank_one(self):
        assert kernel_basis(RationalMatrix.make([[1, 2], [2, 4]])) == [(2, -1)]

    def test_identity(self):
        assert kernel_basis(RationalMatrix.make([[1, 0], [0, 1]])) == []

    def test_zero_rows(self):
        basis = kernel_basis(RationalMatrix.make([], cols=3))
        assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_normalization(self):
        basis = kernel_basis(RationalMatrix.make([[F(1, 2), F(1, 3)]]))
        assert basis == [(2, -3)]

    def test_discovery_matrix_for_level12_relation(self):
        monomials = [
            PiMonomial.make(d) for d in ({1: 1, 3: 1}, {2: 2}, {2: 1, 6: 1}, {6: 2})
        ]
        cols = [pi_to_eta(m, 24).expand(16) for m in monomials]
        assert kernel_basis(series_window_matrix(cols, 13)) == [(1, -1, -2, 3)]


class TestRank:
    """``independent`` gives the rows that raise the rank of the rows before them."""

    def test_no_rows(self):
        assert independent([]) == []

    def test_zero_rows(self):
        assert independent([[0, 0, 0], [0, 0, 0]]) == []

    def test_dependent_rows(self):
        assert independent([[1, 2], [2, 4]]) == [0]
        assert independent([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == [0, 2]

    def test_full_rank(self):
        assert independent([[1, 0], [0, 1]]) == [0, 1]
        assert independent([[0, 1], [1, 0], [1, 1]]) == [0, 1]

    def test_rows_left_unchanged(self):
        rows = [[2, 4], [1, 3]]
        assert independent(rows) == [0, 1] and rows == [[2, 4], [1, 3]]

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_rank(self, rows):
        want = [i for i in range(len(rows)) if naive_rank(rows[: i + 1]) > naive_rank(rows[:i])]
        assert independent(rows) == want


class TestSolveLeastDegrees:
    """Kernels of coefficient-window matrices, kernel_basis(series_window_matrix(...))."""

    def test_trivial_relation(self):
        cols = [S.from_terms({0: 1, 1: 1}, 6), S.from_terms({1: 1}, 6), S.from_terms({0: 1}, 6)]
        assert kernel_basis(series_window_matrix(cols, 3)) == [(1, -1, -1)]

    def test_duplicates(self):
        T = 10
        from oracles import psi_expansion

        p2 = psi_expansion(T) * psi_expansion(T)
        assert kernel_basis(series_window_matrix([p2, p2], 6)) == [(1, -1)]

    def test_insufficient_precision(self):
        cols = [S.from_terms({0: 1}, 4), S.from_terms({0: 2}, 4)]
        with pytest.raises(InsufficientPrecision):
            kernel_basis(series_window_matrix(cols, 10))


def _cell_matrix(columns, rows):
    """Reference window: one coefficient() call per cell."""
    scale = math.lcm(*(c.scale for c in columns))
    vals = [v for v in (c.valuation() for c in columns) if v is not None]
    base = min(vals) if vals else F(0)
    return [[col.coefficient(base + F(i, scale)) for col in columns] for i in range(rows)]


def _window_rows(columns, rows):
    m = series_window_matrix(columns, rows)
    assert (m.rows, m.cols) == (rows, len(columns))
    return [m.row(i) for i in range(rows)]


class TestWindowLatticeRead:
    def test_mixed_scales_and_negative_base(self):
        cols = [
            S.from_terms({0: 3, 1: -1, 2: 5}, 4),  # scale 1
            S.from_terms({F(-1, 4): 2, F(3, 4): 7, F(5, 4): -1}, 3),  # scale 4
            EtaQuotient.make(1, {1: -1}).expand(4),  # 1/eta: scale 24, valuation -1/24
        ]
        assert [c.scale for c in cols] == [1, 4, 24]
        assert cols[2].valuation() < 0
        rows = 40
        assert _window_rows(cols, rows) == _cell_matrix(cols, rows)

    def test_precision_limit_matches_cell_reads(self):
        cols = [S.from_terms({F(-1, 4): 1, F(1, 2): 2}, 1), S.from_terms({F(1, 3): 1}, F(5, 6))]
        scale = 12
        for rows in range(1, 20):
            last = F(-1, 4) + F(rows - 1, scale)
            if last >= F(5, 6):
                with pytest.raises(InsufficientPrecision):
                    series_window_matrix(cols, rows)
            else:
                assert _window_rows(cols, rows) == _cell_matrix(cols, rows)

    def test_seeded_random_columns(self):
        rng = random.Random(4242)
        for _ in range(200):
            cols = []
            for _ in range(rng.randint(1, 4)):
                scale = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
                terms = {F(rng.randint(-30, 40), scale): rng.randint(-5, 5) for _ in range(rng.randint(0, 8))}
                bound = rng.choice([math.inf, F(rng.randint(10, 80), rng.choice([1, 4, 24]))])
                cols.append(S.from_terms(terms, bound))
            rows = rng.randint(0, 30)
            try:
                want = _cell_matrix(cols, rows)
            except InsufficientPrecision:
                with pytest.raises(InsufficientPrecision):
                    series_window_matrix(cols, rows)
                continue
            assert _window_rows(cols, rows) == want

    def test_rational_columns_scaled_by_one_lcm(self):
        cols = [
            S.from_terms({0: F(1, 2), F(1, 3): 3, F(4, 3): F(-5, 2)}, 5),  # den 2
            S.from_terms({F(1, 3): F(2, 3), 1: F(-1, 3), 2: 1}, 4),  # den 3
            S.from_terms({0: F(7, 24), F(2, 3): F(1, 8), 3: F(-5, 12)}, INF),  # den 24
            S.from_terms({0: 1, F(5, 3): 1}, 6),  # den 1
        ]
        assert [c.den for c in cols] == [2, 3, 24, 1]
        for rows in (6, 9, 12):
            want = _cell_matrix(cols, rows)
            got = _window_rows(cols, rows)
            lcm = 24
            assert got == [[c * lcm for c in row] for row in want]
            assert all(isinstance(x, int) for row in got for x in row)
            assert kernel_basis(series_window_matrix(cols, rows)) == kernel_basis(
                RationalMatrix.make(want)
            )

    def test_rational_columns_kernel_is_the_fraction_kernel(self):
        a = S.from_terms({0: F(1, 2), 1: F(1, 3), 2: F(-7, 24)}, 10)
        b = S.from_terms({1: F(2, 3), 3: F(1, 24)}, 10)
        cols = [a, b, a * F(3, 2) - b * F(5, 3)]
        rows = 8
        want = _cell_matrix(cols, rows)
        assert series_window_matrix(cols, rows).entries != RationalMatrix.make(want).entries
        assert kernel_basis(series_window_matrix(cols, rows)) == [(9, -10, -6)]
        assert kernel_basis(RationalMatrix.make(want)) == [(9, -10, -6)]


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=80, deadline=None)
def test_kernel_properties_vs_naive_oracle(nrows, ncols, seed):
    rng = random.Random(seed)
    data = [
        [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    m = RationalMatrix.make(data)
    basis = kernel_basis(m)
    # exact annihilation
    for v in basis:
        for i in range(nrows):
            assert sum(m.at(i, j) * v[j] for j in range(ncols)) == 0
    # rank-nullity against the oracle
    assert naive_rank(data) + len(basis) == ncols
    # basis vectors are coprime integers with positive leading entry
    for v in basis:
        nz = [x for x in v if x != 0]
        assert nz and nz[0] > 0
        g = 0
        for x in nz:
            g = __import__("math").gcd(g, abs(x))
        assert g == 1
