"""Point representation, metric, and classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbertcube import (
    ORIGIN,
    BadIndices,
    OutOfRange,
    cell_metric,
    classify_point,
    epsilon,
    make_point,
    metric_d,
)

from conftest import rand_point
from walk_oracle import metric_d_sum

rationals = st.fractions(min_value=-1, max_value=1, max_denominator=64)
points = st.builds(
    make_point, st.lists(rationals, max_size=6), rationals
)


def test_make_point_origin():
    assert ORIGIN.prefix == ()
    assert ORIGIN.tail == 0
    assert ORIGIN.coord(1) == 0


def test_make_point_prefix_and_tail():
    p = make_point([1, Fraction(-1, 2)], 1)
    assert p.coord(1) == 1
    assert p.coord(2) == Fraction(-1, 2)
    assert p.coord(3) == 1
    assert p.coord(99) == 1


def test_make_point_out_of_range():
    with pytest.raises(OutOfRange):
        make_point([2], 0)
    with pytest.raises(OutOfRange):
        make_point([], Fraction(-5, 4))


def test_normalization_absorbs_trailing_tail_values():
    a = make_point([Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)], Fraction(1, 3))
    b = make_point([Fraction(1, 2)], Fraction(1, 3))
    assert a == b
    assert a.prefix == (Fraction(1, 2),)


def test_coord_index_validation():
    with pytest.raises(BadIndices):
        ORIGIN.coord(0)


def test_with_coord_widens_prefix():
    p = ORIGIN.with_coords({3: Fraction(1, 2)})
    assert p.coord(3) == Fraction(1, 2)
    assert p.coord(2) == 0
    assert p.coord(4) == 0


def test_epsilon_values_and_validation():
    assert epsilon(1) == Fraction(1, 2)
    assert epsilon(5) == Fraction(1, 32)
    with pytest.raises(BadIndices):
        epsilon(0)


# --- metric -------------------------------------------------------------


def test_metric_const_points():
    # geometric series: sum 2^-i = 1; cross-checked by brute force below
    one = make_point([], 1)
    assert metric_d(one, ORIGIN) == 1
    brute = sum(Fraction(1, 2**i) for i in range(1, 65))
    assert abs(brute - 1) == Fraction(1, 2**64)


def test_metric_single_coordinate():
    assert metric_d(make_point([1], 0), make_point([0], 0)) == Fraction(1, 2)


def test_metric_mixed_prefix_lengths():
    p = make_point([Fraction(1, 2)], Fraction(1, 4))
    q = make_point([0, 0, 1], 0)
    expected = (
        Fraction(1, 2) * Fraction(1, 2)
        + Fraction(1, 4) * Fraction(1, 4)
        + Fraction(3, 4) * Fraction(1, 8)
        + Fraction(1, 4) * Fraction(1, 8)  # tail gap over i > 3
    )
    assert metric_d(p, q) == expected


def test_with_coords_builds_one_point():
    p = make_point([Fraction(1, 2)], Fraction(1, 3))
    assert p.with_coords({}) is p
    third = Fraction(1, 3)
    assert p.with_coords({4: Fraction(-1), 2: third}) == make_point([Fraction(1, 2), third, third, -1], third)
    assert p.with_coords({1: third}) == make_point([], third)
    with pytest.raises(BadIndices):
        p.with_coords({0: Fraction(0), 2: Fraction(0)})


def test_metric_integer_sum_matches_fraction_sum():
    rng = random.Random(600)

    def rational():
        den = rng.choice((1, 3, 27, 100, 10007, 3**40)) << rng.randint(0, 600)
        return Fraction(rng.randint(-den, den), den)

    def point():
        tail = rng.choice((rational(), Fraction(1), Fraction(-1)))
        return make_point([rational() for _ in range(rng.randint(0, 14))], tail)

    pairs = [(point(), point()) for _ in range(150)]
    pairs += [(p, p) for p, _ in pairs[:20]] + [(make_point([], 1), make_point([], -1))]
    for p, q in pairs:
        assert metric_d(p, q) == metric_d_sum(p, q)
    widths = {(len(p.prefix), len(q.prefix)) for p, q in pairs}
    assert len({a - b for a, b in widths}) > 10  # prefix widths differ both ways
    assert max(c.denominator for p, _ in pairs for c in p.prefix).bit_length() > 600


@given(points, points)
def test_metric_symmetry(p, q):
    assert metric_d(p, q) == metric_d(q, p)


@given(points)
def test_metric_identity(p):
    assert metric_d(p, p) == 0


@given(points, points, points)
def test_metric_triangle(p, q, r):
    assert metric_d(p, r) <= metric_d(p, q) + metric_d(q, r)


@given(points, points)
def test_metric_diameter(p, q):
    assert metric_d(p, q) <= 2


def test_cell_metric_examples():
    one = Fraction(1)
    assert cell_metric(1, 2, (one, one), (Fraction(0), one)) == Fraction(1, 2)
    assert cell_metric(1, 2, (one, one), (one, one)) == 0
    assert cell_metric(1, 2, (one, one), (Fraction(0), Fraction(0))) == Fraction(3, 4)


def test_cell_metric_index_validation():
    z = (Fraction(0), Fraction(0))
    with pytest.raises(BadIndices):
        cell_metric(2, 2, z, z)
    with pytest.raises(BadIndices):
        cell_metric(3, 1, z, z)


def test_cell_metric_matches_full_metric(rng):
    # points that differ in exactly two coordinates are at cell distance
    for _ in range(50):
        p = rand_point(rng)
        n, m = sorted(rng.sample(range(1, 9), 2))
        q = p.with_coords({n: Fraction(rng.randint(-8, 8), 8)})
        q = q.with_coords({m: Fraction(rng.randint(-8, 8), 8)})
        assert metric_d(p, q) == cell_metric(
            n, m, (p.coord(n), p.coord(m)), (q.coord(n), q.coord(m))
        )


# --- classification -------------------------------------------------------


def test_classify_interior():
    prof = classify_point(make_point([Fraction(1, 2)], 0))
    assert prof.is_pseudo_interior
    assert prof.explicit_indices == ()
    assert not prof.tail_is_boundary


def test_classify_boundary_tail():
    prof = classify_point(make_point([Fraction(1, 2)], 1))
    assert prof.tail_is_boundary
    assert prof.tail_start == 2
    assert prof.is_boundary


def test_classify_explicit_indices():
    prof = classify_point(make_point([-1, 0], 0))
    assert prof.explicit_indices == (1,)
    assert not prof.tail_is_boundary

