"""The integer evaluation path against the Fraction formulas it replaced.

interior_oracle.py holds the Fraction interior move; walk_oracle.py sums
every tail bound from scratch.  The integer interior move, its slopes and
its Lipschitz bound, the closed-form tail bounds and the PointRep check
must give exactly the same Fractions, and raise the same error type: on
seeded moves with denominators up to 2^600, at t = -1, 1, the knee itself
and out of range, on the whole 1/64 grid at every knee of a move and of a
plan's 100-bit anchors, and on schedules as long as a plan file may hold.
The messages must match too, except a one-knee move's, which names its
anchor or its point where the oracle names a coordinate map's arguments.
A counter also pins that a plan builds each move's knee table and each
Lipschitz bound once, however often it is evaluated.
"""

import random
from fractions import Fraction
from functools import cached_property

import interior_oracle as oracle
import pytest
from conftest import coord_map
from plan_oracle import chain_factor
from walk_oracle import forward_tail_sum, reverse_tail_sum

from hilbertcube import (
    AnchorOnBoundary,
    HorizonExceeded,
    InteriorMapParams,
    OutOfRange,
    PointRep,
    interior_map_eval,
    interior_map_inverse,
    lipschitz_bound,
    make_point,
    plan_eval_info,
    plan_inverse_eval_info,
    plan_report,
    solve,
)
from hilbertcube.homogeneity import stage_count_limit
from hilbertcube.interior import _move, slope_exponents
from hilbertcube.limits import _least_stage, build_schedule, forward_tail_bound, reverse_tail_bound

F = Fraction


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def rand_unit(rng, interior_only=True, bits=600):
    den = rng.randint(1, 2 ** rng.randint(1, bits))
    hi = den - 1 if interior_only else den
    return F(rng.randint(-hi, hi), den)


def rand_point(rng, width, interior_only=True):
    return make_point([rand_unit(rng, interior_only) for _ in range(width)], rand_unit(rng, interior_only))


def same_outcome(p, q, t):
    """coord_map and the oracle give the same value, or fail with the same
    error type; the messages differ, each naming what it checks."""
    got, want = outcome(coord_map, p, q, t), outcome(oracle.interior_coord_map, p, q, t)
    assert got == want or type(got) is type(want) is tuple and got[0] is want[0], (p, q, t, got, want)
    return got


def test_coord_map_matches_oracle_at_ends_knee_and_out_of_range():
    rng = random.Random(600)
    one = F(1)
    for _ in range(400):
        p, q = rand_unit(rng), rand_unit(rng)
        ts = [-one, one, p, q, rand_unit(rng, False), rand_unit(rng, False, 8)]
        ts += [F(rng.choice((-1, 1)) * (t.denominator + rng.randint(1, 9)), t.denominator) for t in ts[4:]]
        for t in ts:
            same_outcome(p, q, t)
        # a one-knee move's slopes: the knee's, and 1 for the tail's knee (0, 0)
        move = InteriorMapParams(make_point([p], 0), make_point([q], 0))
        slope = max(oracle.coord_slopes(p, q))
        assert lipschitz_bound(move) == max(slope, 1)
        e = slope_exponents(move)[0]
        assert 2**e >= slope and (e == 0 or 2 ** (e - 1) < slope)
    # boundary anchors fail before t is looked at, out-of-range t after them
    for p, q, t in ((1, 0, 0), (0, -1, 2), (F(1, 2), F(-1, 3), F(3, 2)), (0, 0, -2), (-1, 1, 0)):
        assert same_outcome(p, q, t)[0] in (AnchorOnBoundary, OutOfRange)


def test_coord_map_accepts_int_and_str():
    for args in ((0, 0, 1), ("1/3", "-1/2", "1/3"), (F(1, 3), "-1/2", -1), ("2/3", 0, "5/4")):
        same_outcome(*args)


def test_move_and_lipschitz_match_oracle():
    rng = random.Random(2**600)
    for _ in range(150):
        move = InteriorMapParams(rand_point(rng, rng.randint(0, 8)), rand_point(rng, rng.randint(0, 8)))
        assert lipschitz_bound(move) == oracle.lipschitz_bound(move)
        inv = interior_map_inverse(move)
        assert lipschitz_bound(inv) == oracle.lipschitz_bound(inv)
        points = [move.source, move.target, rand_point(rng, 10, False), make_point([1, -1, 1], -1)]
        points.append(make_point([rng.choice((-1, 0, 1)) for _ in range(6)], rand_unit(rng)))
        for x in points:
            assert interior_map_eval(move, x) == oracle.interior_map_eval(move, x)
            assert interior_map_eval(inv, x) == oracle.interior_map_eval(inv, x)


GRID = [F(k, 64) for k in range(-64, 65)]  # both ends, 0 and both sides of every knee
BND_A, BND_B = make_point([1, F(1, 2), -1], F(1, 4)), make_point([F(-1, 3)], -1)


def _grid_move():
    """One move whose anchors hold the knees (p, q) for p, q in a set of
    values near both ends, at 0 and inside, and a tail knee of its own."""
    values = [F(-63, 64), F(-5, 7), F(-1, 3), F(0), F(1, 2), F(3, 4), F(63, 64)]
    knees = [(p, q) for p in values for q in values]
    source, target = make_point([p for p, _ in knees], F(1, 3)), make_point([q for _, q in knees], F(-2, 5))
    return InteriorMapParams(source, target)


def _pair(t):
    return t.numerator, t.denominator


def _check_move_at_every_knee_and_grid_point(move):
    # every anchored coordinate and two past them hold t, the tail -t: each
    # coordinate's knee, the tail's past the anchors, against the oracle
    n = move.anchor_count
    knees = [(move.source.coord(i), move.target.coord(i)) for i in range(1, n + 2)]  # n + 1: the tail's
    for t in GRID + [p for p, _ in knees]:
        v = {i: _pair(t) for i in range(1, n + 3)}
        v[0] = _pair(-t)
        moved = _move(move, v)
        assert set(moved) <= set(v)
        for i in range(1, n + 3):
            p, q = knees[min(i, n + 1) - 1]
            assert moved.get(i, moved[0]) == _pair(oracle.interior_coord_map(p, q, t)), (i, t)
        assert moved[0] == _pair(oracle.interior_coord_map(*knees[n], -t))


def _check_slopes(move):
    # per knee the least e >= 0 with both slopes <= 2^e, and the largest slope, at least 1
    n, exps, worst = move.anchor_count, [], F(1)
    for i in range(1, n + 2):
        slope = max(oracle.coord_slopes(move.source.coord(i), move.target.coord(i)))
        e = 0
        while 2**e < slope:
            e += 1
        exps.append(e)
        worst = max(worst, slope)
    assert move._slope_bounds == (worst, tuple(exps))


def test_move_matches_oracle_on_the_grid_at_every_knee():
    move = _grid_move()
    for m in (move, interior_map_inverse(move)):
        _check_move_at_every_knee_and_grid_point(m)
        _check_slopes(m)


def test_move_matches_oracle_on_plan_anchors_of_over_100_bits():
    move = solve(BND_A, BND_B, F(1, 2**40)).move
    bits = max(c.denominator.bit_length() for p in (move.source, move.target) for c in p.prefix)
    assert bits > 100
    for m in (move, interior_map_inverse(move)):
        _check_move_at_every_knee_and_grid_point(m)
        _check_slopes(m)


def test_boundary_anchor_messages():
    with pytest.raises(AnchorOnBoundary, match=r"^source coordinate 2 = -1 is not interior$"):
        InteriorMapParams(make_point([0, -1], 0), make_point([], 0))
    with pytest.raises(AnchorOnBoundary, match=r"^target tail = 1 is not interior$"):
        InteriorMapParams(make_point([], 0), make_point([F(1, 2)], 1))


def _schedules():
    rng = random.Random(1036)
    points = [make_point([], 1), make_point([1, F(1, 2), -1], F(1, 4)), make_point([F(-1, 3)], -1)]
    points.append(make_point([rng.choice((-1, 0, 1, F(1, 3))) for _ in range(9)], 1))
    for p in points:
        limit = stage_count_limit(p)
        for count in (0, 1, 7, limit):
            yield build_schedule(p, count)
    yield build_schedule(make_point([], 0), 5)  # the identity


def _bounds(s, reverse):
    """Tail bounds past stages 0..count."""
    bound = reverse_tail_bound if reverse else forward_tail_bound
    return [bound(s, i) for i in range(s.count + 1)]


def test_closed_form_tail_bounds_match_summed_formulas_up_to_the_stage_limit():
    for s in _schedules():
        lams = [s.lipschitz(i, True) for i in range(s.count + 1)]
        for i in sorted({0, 1, 7, 63, s.count // 2, s.count - 1, s.count} & set(range(s.count + 1))):
            assert forward_tail_bound(s, i) == forward_tail_sum(s, i)
            # the dense Λ oracle costs O(i * T^2) on T touched coordinates,
            # so from stage 64 on the sum charges the library's Λ_i
            if i < 64:
                assert lams[i] == chain_factor(s, i)
            assert reverse_tail_bound(s, i) == reverse_tail_sum(s, i, lams[i])
        # each forward step drops by exactly its stage's term, so every i
        # matches the summed formula.  A reverse step drops by 3 * (16 *
        # Λ_{k-1} - Λ_k) / (11 * 2^m_k), at least its stage's term 3 * Λ_{k-1}
        # * 2^-m_k, as Λ_k <= 5 * Λ_{k-1}.  Both strictly decrease, so
        # the search may stop at the first hit
        fwd, rev = _bounds(s, False), _bounds(s, True)
        for k, (_, m) in enumerate(s.stages, 1):
            assert fwd[k - 1] - fwd[k] == F(3, 2**m)
            assert rev[k - 1] - rev[k] == F(3 * (16 * lams[k - 1] - lams[k]), 11 * 2**m) >= F(3 * lams[k - 1], 2**m)


def test_least_stage_on_long_schedules_matches_sums():
    for s in _schedules():
        for reverse in (False, True):
            bounds = _bounds(s, reverse)
            for i in sorted({0, 1, s.count // 2, s.count} & set(range(s.count + 1))):
                bound = bounds[i]
                if bound:
                    # just above the bound finds stage i; at the bound, the next one
                    assert _least_stage(s, bound * F(1025, 1024), reverse)[0] <= i
                    found = outcome(_least_stage, s, bound, reverse)
                    if i < s.count:
                        assert found == (i + 1, bounds[i + 1])
                    else:
                        assert found[0] is HorizonExceeded


def _point_oracle(prefix, tail):
    """PointRep's parts as the Fraction check it replaced produced them."""
    def check(value, what):
        if not (-1 <= value <= 1):
            raise OutOfRange(f"{what} = {value} outside [-1, 1]")

    tail = Fraction(tail)
    check(tail, "tail")
    prefix = tuple(Fraction(c) for c in prefix)
    for k, c in enumerate(prefix):
        check(c, f"coordinate {k + 1}")
    while prefix and prefix[-1] == tail:
        prefix = prefix[:-1]
    return prefix, tail


@pytest.mark.parametrize("prefix, tail", [
    ((1, 0, -1), 0),
    (("1/2", "-3/4", "1/2"), "1/2"),
    ((F(2, 3), 1, F(-7, 9)), F(-7, 9)),
    ((True, 0), False),
    ((), "2"),
    ((0, "5/4"), 0),
    ((F(-3, 2), "abc"), 0),
    (("x",), F(2)),
    ((F(1, 2), "-1.5"), 0),
    ((), -F(2**600 + 1, 2**600)),
    ((F(2**600 - 1, 2**600),), F(-(2**600) - 1, 2**600)),
])
def test_point_check_matches_oracle(prefix, tail):
    def parts(prefix, tail):
        p = PointRep(prefix, tail)
        return p.prefix, p.tail

    got = outcome(parts, prefix, tail)
    assert got == outcome(_point_oracle, prefix, tail)
    if not isinstance(got[1], str):  # built: every part is a plain Fraction
        assert all(type(c) is Fraction for c in (*got[0], got[1]))


def test_plan_builds_its_move_tables_once(monkeypatch):
    tables, slopes = [], []

    def count_builds(name, builds):
        build = getattr(InteriorMapParams, name).func

        def counted(params):
            builds.append(params)
            return build(params)

        prop = cached_property(counted)
        prop.__set_name__(InteriorMapParams, name)
        monkeypatch.setattr(InteriorMapParams, name, prop)

    count_builds("_knees", tables)
    count_builds("_slope_bounds", slopes)
    p, q, tau = make_point([1, F(1, 2), -1], F(1, 4)), make_point([F(-1, 3)], -1), F(1, 2**20)
    plan = solve(p, q, tau)
    assert plan_report(plan, p, q, tau)["verified"]
    x = make_point([F(1, 3)] * 5, F(-1, 7))
    for _ in range(8):
        plan_eval_info(plan, x, tau)
    for _ in range(4):
        plan_inverse_eval_info(plan, x, tau)
    fwd, inv = plan.move, interior_map_inverse(plan.move)
    # one table and one slope pass per move, however many evaluations run
    assert tables == [fwd, inv]
    assert slopes == [fwd, inv]
    # the inverse's table is the one a fresh build gives, and each of its
    # rows is the forward row's knee read as (q, p): its two left-line
    # coefficients swapped, a_inv = b and b_inv = a
    fresh = InteriorMapParams(inv.source, inv.target)._knees
    assert inv._knees == fresh
    assert len(inv._knees) == len(fwd._knees)
    for (_, _, a, b, *_), (_, _, a_inv, b_inv, *_) in zip(fwd._knees, inv._knees):
        assert (a_inv, b_inv) == (b, a)
