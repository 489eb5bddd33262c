"""Reference Fraction formulas of the interior move.

Kept only to check the library's integer path against: each coordinate is
evaluated in Fraction arithmetic as the two-piece linear map through its
knee, and the Lipschitz bound re-divides both slopes of every coordinate.
"""

from fractions import Fraction

from hilbertcube import AnchorOnBoundary, OutOfRange, PointRep


def interior_coord_map(p_i, q_i, t):
    """Value at t of the two-piece map with knee (p_i, q_i)."""
    p_i, q_i, t = Fraction(p_i), Fraction(q_i), Fraction(t)
    if not (abs(p_i) < 1 and abs(q_i) < 1):
        raise AnchorOnBoundary(f"anchors ({p_i}, {q_i}) must be interior")
    if not (-1 <= t <= 1):
        raise OutOfRange(f"t = {t} outside [-1, 1]")
    if t <= p_i:
        return (t + 1) * (q_i + 1) / (p_i + 1) - 1
    return (t - p_i) * (1 - q_i) / (1 - p_i) + q_i


def coord_slopes(p_i, q_i):
    """The two linear slopes of the coordinate map, (left, right)."""
    p_i, q_i = Fraction(p_i), Fraction(q_i)
    return (q_i + 1) / (p_i + 1), (1 - q_i) / (1 - p_i)


def interior_map_eval(params, x):
    n = max(params.anchor_count, len(x.prefix))
    cells = tuple(
        interior_coord_map(params.source.coord(i), params.target.coord(i), x.coord(i))
        for i in range(1, n + 1)
    )
    tail = interior_coord_map(params.source.tail, params.target.tail, x.tail)
    return PointRep(cells, tail)


def lipschitz_bound(params):
    """The largest coordinate slope, and at least 1."""
    worst = Fraction(1)
    for i in range(1, params.anchor_count + 1):
        left, right = coord_slopes(params.source.coord(i), params.target.coord(i))
        worst = max(worst, left, right)
    left, right = coord_slopes(params.source.tail, params.target.tail)
    return max(worst, left, right)
