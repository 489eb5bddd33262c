"""The coordinatewise two-piece interior move."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbertcube import (
    ORIGIN,
    AnchorOnBoundary,
    InteriorMapParams,
    OutOfRange,
    interior_map_eval,
    interior_map_inverse,
    lipschitz_bound,
    make_point,
    metric_d,
)
from hilbertcube.interior import _move, slope_exponents

from conftest import coord_map

interior_rationals = st.fractions(
    min_value=Fraction(-63, 64), max_value=Fraction(63, 64), max_denominator=64
)
unit_rationals = st.fractions(min_value=-1, max_value=1, max_denominator=64)


def test_coord_map_hits_anchor():
    assert coord_map(Fraction(1, 3), Fraction(-1, 2), Fraction(1, 3)) == Fraction(-1, 2)


def test_coord_map_fixes_endpoints():
    p_i, q_i = Fraction(1, 3), Fraction(-1, 2)
    assert coord_map(p_i, q_i, Fraction(-1)) == -1
    assert coord_map(p_i, q_i, Fraction(1)) == 1


def test_coord_map_identity_when_anchors_equal():
    for t in (Fraction(-1), Fraction(-2, 7), Fraction(0), Fraction(9, 11), Fraction(1)):
        assert coord_map(Fraction(1, 5), Fraction(1, 5), t) == t


def test_coord_map_rejects_boundary_anchor():
    with pytest.raises(AnchorOnBoundary):
        coord_map(Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(OutOfRange):
        coord_map(Fraction(0), Fraction(0), Fraction(3, 2))


@given(interior_rationals, interior_rationals, unit_rationals)
def test_coord_map_stays_in_interval(p_i, q_i, t):
    assert -1 <= coord_map(p_i, q_i, t) <= 1


@given(interior_rationals, interior_rationals, unit_rationals)
def test_coord_map_roundtrip(p_i, q_i, t):
    # swapping anchors gives the exact inverse
    assert coord_map(q_i, p_i, coord_map(p_i, q_i, t)) == t


@given(interior_rationals, interior_rationals, unit_rationals, unit_rationals)
def test_coord_map_strictly_increasing(p_i, q_i, s, t):
    if s < t:
        assert coord_map(p_i, q_i, s) < coord_map(p_i, q_i, t)


def test_slopes():
    # slopes 1/3 and 3 at the knee (1/2, -1/2): 3 <= 2^2; the tail's knee is (0, 0)
    half = Fraction(1, 2)
    assert coord_map(half, -half, 0) - coord_map(half, -half, -1) == Fraction(1, 3)
    assert coord_map(half, -half, 1) - coord_map(half, -half, Fraction(3, 4)) == Fraction(3, 4)
    move = InteriorMapParams(make_point([half], 0), make_point([-half], 0))
    assert lipschitz_bound(move) == 3
    assert slope_exponents(move) == (2, 0)
    assert slope_exponents(interior_map_inverse(move)) == (2, 0)
    # two knees whose largest slopes share the exponent 2: 3 at (-1/2, 1/2)
    # and 7/2 at (-3/4, -1/8); the larger wins in either knee order
    first, second = (-half, half), (Fraction(-3, 4), Fraction(-1, 8))
    for knees in ((first, second), (second, first)):
        (p1, q1), (p2, q2) = knees
        move = InteriorMapParams(make_point([p1, p2], 0), make_point([q1, q2], 0))
        assert lipschitz_bound(move) == Fraction(7, 2)
        assert slope_exponents(move) == (2, 2, 0)


def test_params_reject_boundary_anchor_point():
    with pytest.raises(AnchorOnBoundary):
        InteriorMapParams(make_point([1], 0), ORIGIN)
    with pytest.raises(AnchorOnBoundary):
        InteriorMapParams(ORIGIN, make_point([0], 1))


def test_map_moves_source_to_target_exactly():
    p = make_point([Fraction(1, 3), Fraction(-1, 2)], Fraction(1, 5))
    q = make_point([Fraction(2, 7)], Fraction(-3, 8))
    params = InteriorMapParams(p, q)
    assert interior_map_eval(params, p) == q


@pytest.mark.parametrize("pairs, text", [
    ({0: (0, 1), 1: (3, 2)}, "t = 3/2 outside [-1, 1]"),          # an anchored coordinate
    ({0: (0, 1), 5: (-5, 4)}, "t = -5/4 outside [-1, 1]"),        # one past the anchors
    ({0: (9, 8)}, "t = 9/8 outside [-1, 1]"),                     # the tail
], ids=["anchored", "past-the-anchors", "tail"])
def test_move_refuses_a_pair_outside_the_interval(pairs, text):
    # _move takes pair vectors, not points: a pair no PointRep checked is
    # refused by the move's own guard
    params = InteriorMapParams(make_point([Fraction(1, 3), 0], 0), make_point([Fraction(-1, 2)], Fraction(1, 4)))
    with pytest.raises(OutOfRange, match=re.escape(text)):
        _move(params, pairs)


def test_map_fixes_boundary_points():
    params = InteriorMapParams(
        make_point([Fraction(1, 3)], 0), make_point([Fraction(-1, 2)], 0)
    )
    corner = make_point([1, -1], 1)
    assert interior_map_eval(params, corner) == corner


def test_inverse_roundtrip_on_samples(rng):
    from conftest import rand_point

    p = make_point([Fraction(3, 4), Fraction(-1, 8)], Fraction(1, 16))
    q = make_point([Fraction(-5, 9)], Fraction(2, 3))
    params = InteriorMapParams(p, q)
    inv = interior_map_inverse(params)
    for _ in range(100):
        x = rand_point(rng)
        assert interior_map_eval(inv, interior_map_eval(params, x)) == x


def test_lipschitz_bound_dominates_samples(rng):
    from conftest import rand_point

    p = make_point([Fraction(3, 4)], Fraction(-1, 2))
    q = make_point([Fraction(-7, 8)], Fraction(1, 4))
    params = InteriorMapParams(p, q)
    bound = lipschitz_bound(params)
    assert bound >= 1
    for _ in range(60):
        x, y = rand_point(rng), rand_point(rng)
        if x == y:
            continue
        ratio = metric_d(interior_map_eval(params, x), interior_map_eval(params, y)) / metric_d(x, y)
        assert ratio <= bound


def test_lipschitz_bound_value():
    # single anchored coordinate: slopes (q+1)/(p+1) and (1-q)/(1-p)
    params = InteriorMapParams(make_point([Fraction(1, 2)], 0), make_point([Fraction(-1, 2)], 0))
    assert lipschitz_bound(params) == 3
