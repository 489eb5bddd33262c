"""Point representation, metric, and classification."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
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
from hilbertcube.cube import _coprime, _pairs, _point
from hilbertcube.interior import InteriorMapParams, _move
from hilbertcube.limits import _partial, build_schedule

from conftest import rand_point, with_coords
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
    p = with_coords(ORIGIN, {3: Fraction(1, 2)})
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


def test_metric_matches_fraction_sum_at_every_width():
    # the pairwise sum gives each round of odd length a block of zeros:
    # every width from 0 to 33, so every pattern of odd rounds up to 32
    # entries, and one long prefix
    rng = random.Random(601)

    def rational():
        den = rng.choice((1, 3, 64, 10007)) << rng.randint(0, 80)
        return Fraction(rng.randint(-den, den), den)

    for n in [*range(34), 1000]:
        p = make_point([rational() for _ in range(n)], rational())
        q = make_point([rational() for _ in range(rng.randint(0, n))], rng.choice((Fraction(1), rational())))
        assert metric_d(p, q) == metric_d_sum(p, q), n


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
        q = with_coords(p, {n: Fraction(rng.randint(-8, 8), 8), m: Fraction(rng.randint(-8, 8), 8)})
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


# --- the trusted constructor -------------------------------------------


def test_fraction_keeps_two_slots():
    # _coprime sets exactly these two; an interpreter that adds or renames
    # one must fail here, not build half a Fraction
    assert Fraction.__slots__ == ("_numerator", "_denominator")


BIG = 2**600
coprime_pairs = st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG)).map(
    lambda pair: (pair[0] // gcd(*pair), pair[1] // gcd(*pair)))


@given(coprime_pairs)
@example((0, 1))
@example((1, 1))
@example((-1, 1))
@example((-(BIG - 1), BIG))
@example((BIG + 1, BIG))
def test_coprime_builds_the_fraction_a_gcd_would(pair):
    n, d = pair
    got, want = _coprime(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert got + Fraction(1, 3) == want + Fraction(1, 3)
    assert got * got == want * want


@pytest.mark.parametrize("pairs", [
    {0: (5, 4)},
    {0: (1, 3), 2: (-7, 6)},
    {0: (1, 3), 1: (3, 2), 3: (1, 3), 4: (2, 1)},
    {0: (-9, 8), 1: (3, 2)},
], ids=["tail", "coordinate", "first-of-two", "tail-first"])
def test_point_refuses_a_pair_out_of_range_as_make_point_does(pairs):
    last = max(pairs)
    tail = Fraction(*pairs[0])
    prefix = [Fraction(*pairs[i]) if i in pairs else tail for i in range(1, last + 1)]
    with pytest.raises(OutOfRange) as want:
        make_point(prefix, tail)
    with pytest.raises(OutOfRange) as got:
        _point(pairs)
    assert str(got.value) == str(want.value)


outside = st.fractions(min_value=-3, max_value=3, max_denominator=64).filter(lambda c: abs(c) > 1)


@st.composite
def pair_vectors(draw):
    """Sparse vectors of reduced pairs: each key up to the last a gap (the
    tail's), the tail's own pair or a held value, and the keys in a drawn
    set, key 0 among them, outside [-1, 1]."""
    last = draw(st.integers(0, 8))
    bad = draw(st.sets(st.integers(0, last), max_size=3))
    tail = draw(outside if 0 in bad else rationals)
    v = {0: (tail.numerator, tail.denominator)}
    for i in range(1, last + 1):
        c = draw(outside if i in bad else st.none() | st.just(tail) | rationals)  # None: a gap
        if c is not None:
            v[i] = (c.numerator, c.denominator)
    return v


def _parts_or_refusal(build, *args):
    try:
        p = build(*args)
    except OutOfRange as exc:
        return str(exc)
    assert all(type(c) is Fraction for c in (*p.prefix, p.tail))
    return p.prefix, p.tail


@given(pair_vectors())
@example({0: (1, 3), 1: (1, 2), 2: (1, 3), 4: (1, 3), 5: (1, 3)})  # tail-equal at the end
@example({0: (1, 3), 1: (1, 3), 3: (-1, 1)})  # tail-equal in the middle, a gap
@example({0: (5, 4), 2: (1, 2), 3: (7, 3)})  # the tail refused first
@example({0: (-1, 1), 6: (-1, 1)})  # only tail-equal entries and gaps
def test_point_of_a_pair_vector_is_make_point_of_its_dense_prefix(v):
    tail = Fraction(*v[0])
    dense = [Fraction(*v[i]) if i in v else tail for i in range(1, max(v) + 1)]
    assert _parts_or_refusal(_point, v) == _parts_or_refusal(make_point, dense, tail)


def _reduced(v):
    return all(d > 0 and gcd(n, d) == 1 for n, d in v.values())


boundary_points = st.builds(
    lambda prefix, at, sign, tail: make_point([*prefix[:at], sign, *prefix[at:]], tail),
    st.lists(rationals, max_size=5), st.integers(0, 5), st.sampled_from((1, -1)), rationals)


@given(boundary_points, points, st.integers(0, 6), st.booleans())
def test_a_walk_returns_reduced_pairs(p, x, i, reverse):
    # _point builds each Fraction from its pair without a gcd: every pair a
    # walk hands it must already be reduced, with a positive denominator
    s = build_schedule(p, 6)
    assert _reduced(_partial(s, _pairs(x), i, reverse))


interior = st.fractions(min_value=-1, max_value=1, max_denominator=64).filter(lambda c: abs(c) < 1)
interior_points = st.builds(make_point, st.lists(interior, max_size=6), interior)


@given(interior_points, interior_points, points)
def test_the_move_returns_reduced_pairs(a, b, x):
    assert _reduced(_move(InteriorMapParams(a, b), _pairs(x)))
