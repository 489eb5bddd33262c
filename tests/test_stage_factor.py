"""The Lipschitz factor an evaluation charges one cubed twist stage is 5.

metric_d weighs coordinate c by 2^-c, so on the cell (n, m) it is
|dX| + |dY| in the weighted coordinates X = x * 2^-n, Y = y * 2^-m.  Each
corrected clause formula is affine, and its linear part in those
coordinates, D A D^-1 with D = diag(2^-n, 2^-m), is the same on every cell
and on both sides of x = 0 (the sign of x moves only the constant).  A
cubed stage applies three clauses, so on each of its pieces it is affine
with the linear part of one of the 64 three-clause words.  It is
continuous on the convex square, so it is Lipschitz with the largest L1
operator norm (largest column sum) among those words: 5, for ccw and for
cw alike.  The linear parts are read off CellMap.value by exact finite
differences, so this checks the clause table the walks run, not a copy.
"""

from fractions import Fraction
from itertools import product

import pytest

from hilbertcube import CellMap, MapKind, Variant, build_schedule, make_point

F = Fraction

CELLS = ((1, 2), (1, 4), (2, 3), (3, 12), (5, 400))
CCW_PARTS = (
    ((0, -1), (1, 1)),  # I
    ((1, 0), (1, 1)),  # II
    ((1, -1), (1, 0)),  # III
    ((1, -1), (0, 1)),  # IV
)


def _mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def _inverse(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return ((a[1][1] / det, -a[0][1] / det), (-a[1][0] / det, a[0][0] / det))


def _l1_norm(a) -> Fraction:
    """Operator norm for |dX| + |dY|: the largest column sum of |a|."""
    return max(abs(a[0][j]) + abs(a[1][j]) for j in range(2))


def _weighted_part(cell: CellMap, k: int, sign: int):
    """Linear part of clause k's formula at x of the given sign, in weighted
    coordinates.  value(k, d, x, y) is the image over 2^(m-n) * d of (x/d,
    y/d); steps of 1/d in x and in y give the columns, and a third point
    checks that the formula is affine there."""
    d, x0, y0 = 64, sign * 32, 5  # x = +-1/2, and x0 + 2 keeps its sign
    scale = F(2) ** (cell.m - cell.n)
    base = cell.value(k, d, x0, y0)
    dx = [(a - b) / scale for a, b in zip(cell.value(k, d, x0 + 1, y0), base)]
    dy = [(a - b) / scale for a, b in zip(cell.value(k, d, x0, y0 + 1), base)]
    far = cell.value(k, d, x0 + 2, y0 - 3)
    assert [(a - b) / scale for a, b in zip(far, base)] == [2 * u - 3 * v for u, v in zip(dx, dy)]
    weights = (F(2) ** -cell.n, F(2) ** -cell.m)
    raw = ((dx[0], dy[0]), (dx[1], dy[1]))
    return tuple(tuple(raw[i][j] * weights[i] / weights[j] for j in range(2)) for i in range(2))


def _clause_parts(kind: MapKind) -> tuple:
    """The four clauses' weighted linear parts, in printed order, checked to
    be the same on every cell of CELLS and on both sides of x = 0."""
    parts = {tuple(_weighted_part(CellMap(kind, Variant.CORRECTED, n, m), k, sign) for k in range(4))
             for n, m in CELLS for sign in (1, -1)}
    assert len(parts) == 1, kind
    return parts.pop()


def _words(parts):
    """Linear parts of the 64 three-clause words, first clause applied first."""
    return [_mul(c, _mul(b, a)) for a, b, c in product(parts, repeat=3)]


def test_ccw_clause_parts_are_the_same_on_every_cell():
    assert _clause_parts(MapKind.TWIST_CCW) == CCW_PARTS


def test_cw_clause_parts_are_the_inverses_of_ccw():
    cw = _clause_parts(MapKind.TWIST_CW)
    assert cw == tuple(_inverse(tuple(tuple(map(F, row)) for row in a)) for a in CCW_PARTS)


@pytest.mark.parametrize("kind", [MapKind.TWIST_CCW, MapKind.TWIST_CW])
def test_largest_three_clause_norm_is_five(kind):
    words = _words(_clause_parts(kind))
    assert len(words) == 64
    assert max(map(_l1_norm, words)) == 5
    assert tuple(tuple(max(abs(w[i][j]) for w in words) for j in range(2)) for i in range(2)) == ((3, 3), (3, 3))


def test_charged_stage_factor_is_the_proved_one():
    proved = max(_l1_norm(w) for kind in (MapKind.TWIST_CCW, MapKind.TWIST_CW) for w in _words(_clause_parts(kind)))
    for s in (build_schedule(make_point([], 1), 4), build_schedule(make_point([F(-1, 3)], -1), 0)):
        assert s.lipschitz(1) == proved
        assert s.lipschitz(3) == proved**3
