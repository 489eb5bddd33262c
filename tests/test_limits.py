"""Stage scheduling, truncation bounds, certified limit evaluation."""

import random
import re
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from hilbertcube import (
    ORIGIN,
    BadIndices,
    CellMap,
    CubeError,
    HomeoPlan,
    HorizonExceeded,
    InteriorMapParams,
    MapKind,
    OutOfRange,
    Variant,
    build_schedule,
    final_coordinate,
    first_attempt_partial,
    forward_partial_eval,
    forward_tail_bound,
    h_eval,
    interior_map_eval,
    make_point,
    metric_d,
    plan_inverse_eval,
    reverse_partial_eval,
    reverse_tail_bound,
    schedule_budget_ok,
    solve,
)
from hilbertcube.cube import classify_point
from hilbertcube.homogeneity import stage_count_limit
from hilbertcube.limits import (
    Schedule,
    _least_stage,
    first_sacrifice,
)

from conftest import rand_point, rand_rational, with_coords
from plan_oracle import chain_factor
from walk_oracle import (
    build_schedule_pool,
    final_coordinate_rewalk,
    forward_tail_sum,
    least_stage_scan,
    partial_walk,
    reverse_tail_sum,
)

F = Fraction
ONES = make_point([], 1)


def test_boundary_index_sequence_const_one():
    stream = classify_point(ONES)
    assert list(islice(stream, 5)) == [1, 2, 3, 4, 5]
    assert stream.contains(999)
    assert list(islice(classify_point(make_point([1, 0, -1, 0], 1)), 4)) == [1, 3, 5, 6]


def test_boundary_index_sequence_single():
    stream = classify_point(make_point([F(1, 2), F(1, 2), 1], 0))
    assert list(stream) == [3]
    assert not stream.contains(4)


def test_boundary_index_sequence_interior():
    assert list(classify_point(ORIGIN)) == []
    with pytest.raises(BadIndices):
        classify_point(ORIGIN).first()


def test_build_schedule_const_one():
    s = build_schedule(ONES, 4)
    assert s.stages == ((1, 4), (2, 8), (3, 12), (4, 16))


def test_build_schedule_sparse_boundary():
    # spent m's re-enter the pool once the explicit index is used up
    s = build_schedule(make_point([F(1, 2), F(1, 2), 1], 0), 4)
    assert s.stages == ((3, 4), (4, 8), (8, 12), (12, 16))


def test_build_schedule_interior_empty():
    s = build_schedule(ORIGIN, 10)
    assert s.stages == ()
    assert s.is_identity


def test_schedule_budget_ok_default():
    assert schedule_budget_ok(build_schedule(ONES, 6))
    assert schedule_budget_ok(build_schedule(make_point([1], F(1, 3)), 5))


def test_budget_inequality_is_tight():
    # stage k needs m >= (k+2) + 3(k-1) + 1 = 4k: the default m hits equality
    for k in range(1, 9):
        assert (k + 2) + 3 * (k - 1) + 1 == 4 * k


def test_schedule_budget_rejects_bad_m():
    # no Schedule holds a stage list of its own, so the lists go in through
    # a stand-in that has only the stages the check reads
    bad = SimpleNamespace(stages=((1, 4), (2, 4), (3, 12)))
    assert not schedule_budget_ok(bad)
    slack = SimpleNamespace(stages=((1, 8), (2, 12), (3, 16)))
    assert schedule_budget_ok(slack)


@pytest.mark.parametrize("count", [-1, True, 1.5])
def test_schedule_refuses_a_count_that_is_not_a_non_negative_int(count):
    with pytest.raises(BadIndices, match=re.escape(f"stage count must be >= 0, got {count}")):
        Schedule(ONES, count)


@pytest.mark.parametrize("stages", [((1, 12), (2, 8)), ((1, 8), (2, 12), (3, 20), (4, 40))])
def test_schedule_refuses_a_stage_list(stages):
    # built from its own stage list, the first read radius 1/1280 at stage 0
    # of h_eval while its stage-2 partial lay 0.01245 away, and the second,
    # which skips m's, made moved_tail_bounds shift by a negative count
    with pytest.raises(BadIndices, match="stage count must be >= 0, got"):
        Schedule(stages, classify_point(ONES))


def test_interior_source_has_no_stages_for_any_count():
    for p in (ORIGIN, make_point([F(1, 2), F(-1, 3)], F(1, 7))):
        for count in (0, 1, 9, 10**9):
            s = Schedule(p, count)
            assert (s.count, s.stages, s.base, s.is_identity) == (0, (), 0, True)


def test_closed_forms_read_no_stage_list():
    s = Schedule(ONES, 10**9)
    want = (11, F(3 * chain_factor(s, 11), 11 * 2**44))  # Λ_11 = 21
    start = time.perf_counter()
    assert s.base == 0
    assert s.tail_bound(0, True) == F(3, 11)
    assert s.stages_needed(F(1, 2**40), True) == want
    assert time.perf_counter() - start < 1
    assert "stages" not in vars(s)


INT_A, INT_B = make_point([F(1, 3), F(-1, 2)], F(1, 5)), make_point([F(2, 7)], F(-3, 8))
BND_A, BND_B = make_point([1, F(1, 2), -1], F(1, 4)), make_point([F(-1, 3)], -1)


@pytest.mark.parametrize("p, q", [(BND_A, INT_B), (INT_A, BND_B), (BND_A, BND_B), (ONES, ORIGIN)],
                         ids=["bnd_a-int_b", "int_a-bnd_b", "bnd_a-bnd_b", "ones-origin"])
def test_reverse_factor_on_case_schedules(p, q):
    # on each schedule of the case plans at 2^-20, the reverse factor Λ is
    # the dense product's (plan_oracle.chain_factor, to stage 63), grows by
    # at most 5 a stage, is at most 5^i, is the same past the count as on a
    # longer schedule, and bounds the expansion of the reverse partials on
    # seeded pairs, exactly
    rng = random.Random(39)
    plan = solve(p, q, F(1, 2**20))
    for s in (t for t in (plan.source_schedule, plan.target_schedule) if t is not None):
        deep = build_schedule(s.source, s.count + 40)
        lams = [s.lipschitz(i, True) for i in range(s.count + 41)]
        assert lams[0] == 1 and lams == [deep.lipschitz(i, True) for i in range(s.count + 41)]
        assert lams[:64] == [chain_factor(s, i) for i in range(64)]
        for i in range(1, s.count + 41):
            assert lams[i] <= 5 * lams[i - 1] and lams[i] <= 5**i
        touched = sorted({c for cell in s.stages[:34] for c in cell})
        for i in (1, 2, 3, 5, 8, 13, 21, 34):
            for _ in range(4):
                x = rand_point(rng, width=8)
                far = rand_point(rng, width=8)
                near = with_coords(x, {c: rand_rational(rng) for c in rng.sample(touched[:2 * i], 2)})
                for y in (far, near):
                    gap = metric_d(reverse_partial_eval(s, x, i), reverse_partial_eval(s, y, i))
                    assert gap <= lams[i] * metric_d(x, y)


def test_schedule_is_its_source_and_count():
    rng = random.Random(29)
    for p in [ONES, ORIGIN, make_point([1, F(1, 2), -1], F(1, 4))] + _boundary_points(rng, 10):
        neg = make_point([-c for c in p.prefix], -p.tail)
        for k in (0, 1, 6):
            s = Schedule(p, k)
            assert s == build_schedule(p, k) and hash(s) == hash(build_schedule(p, k))
            assert s.count == len(s.stages)
            # a point and its negation meet the boundary at the same indices
            assert build_schedule(neg, k).stages == s.stages
            assert (build_schedule(neg, k) == s) == (neg == p)


def test_schedule_with_increasing_n_finalizes_where_its_stages_say():
    p = make_point([1, F(1, 2), -1], F(1, 4))
    s = Schedule(p, 2)
    assert s.stages == ((1, 4), (3, 8))
    assert [s.depth(j) for j in range(5)] == [0, 1, 1, 2, 2]
    for j in range(1, 8):
        assert _outcome(final_coordinate, s, p, j) == _outcome(final_coordinate_rewalk, s, p, j)
    assert final_coordinate(s, p, 3)[0] == 2


def _boundary_point(rng):
    """A point meeting the boundary at seeded indices among the first 40,
    multiples of 4 among them, its tail +-1 half of the time."""
    width = rng.randint(0, 40)
    prefix = [rng.choice((1, -1)) if rng.random() < 0.3 else F(rng.randint(-6, 6), 7) for _ in range(width)]
    tail = rng.choice((1, -1)) if rng.random() < 0.5 else F(1, 3)
    return make_point(prefix, tail)


def test_depth_in_closed_form_matches_the_stage_list():
    # depth counts the boundary indices up to j and the m's up to j that
    # are not one, capped by the count; the bisect on the stage list it
    # replaced is the reference, for every j up to 10^4
    rng = random.Random(41)
    points = [BND_A, BND_B, INT_A, ONES, ORIGIN, make_point([0, 0, 0, -1, 0, 0, 0, 1], 1)]
    points += [_boundary_point(rng) for _ in range(8)]
    for p in points:
        for count in (0, 5, 2600):
            s = Schedule(p, count)
            ns, js = [n for n, _ in s.stages], range(10**4 + 1)
            assert [s.depth(j) for j in js] == [bisect_right(ns, j) for j in js], (p, count)


def test_forward_tail_bound_values():
    s = build_schedule(ONES, 8)
    assert forward_tail_bound(s, 0) == F(1, 5)
    assert forward_tail_bound(s, 1) == F(1, 80)
    # telescoping step
    for i in range(4):
        drop = F(3, 2 ** s.stages[i][1])
        assert forward_tail_bound(s, i + 1) == forward_tail_bound(s, i) - drop


def test_reverse_tail_bound_values():
    s = build_schedule(ONES, 8)
    assert reverse_tail_bound(s, 0) == F(3, 11)
    assert reverse_tail_bound(s, 1) == F(15, 176)
    prev = reverse_tail_bound(s, 0)
    for i in range(1, 6):
        cur = reverse_tail_bound(s, i)
        assert cur < prev
        prev = cur


def test_tail_bounds_identity_schedule():
    s = build_schedule(ORIGIN, 5)
    assert forward_tail_bound(s, 0) == 0
    assert reverse_tail_bound(s, 0) == 0


def test_canonical_closed_forms_match():
    # m_k = b + 4k: the forward tail is 2^-(b+4i) / 5, the reverse 3 * Λ_i / (11 * 2^(b+4i))
    for p, b in ((ONES, 0), (make_point([0, 0, 0, 0, F(1, 2), 0, -1], 0), 4)):
        s = build_schedule(p, 12)
        assert s.base == b == first_sacrifice(classify_point(p)) - 4
        for i in range(13):
            assert forward_tail_bound(s, i) == F(1, 5 * 2 ** (b + 4 * i)) == forward_tail_sum(s, i)
            lam = chain_factor(s, i)
            assert reverse_tail_bound(s, i) == F(3 * lam, 11 * 2 ** (b + 4 * i)) == reverse_tail_sum(s, i)


def test_empty_stage_list_reads_base_off_its_source():
    # a 0-stage schedule's bounds read b = m_1 - 4 off its source, as every
    # longer schedule of that source does: 1/5 and 3/11 only where m_1 = 4
    for p, bounds in ((ONES, (F(1, 5), F(3, 11))),
                      (make_point([0, 0, 0, 0, 1], 0), (F(1, 80), F(3, 176))),  # n_1 = 5, m_1 = 8
                      (make_point([F(1, 2)] * 9, -1), (F(1, 1280), F(3, 2816)))):  # n_1 = 10, m_1 = 12
        s = build_schedule(p, 0)
        assert s.stages == () and s.base == build_schedule(p, 1).stages[0][1] - 4
        assert (forward_tail_bound(s, 0), reverse_tail_bound(s, 0)) == bounds
        assert _least_stage(s, F(1, 4), False) == (0, bounds[0])
        with pytest.raises(HorizonExceeded, match="needs more than the 0 materialized stages"):
            _least_stage(s, bounds[1], True)
    # the refusal names the count that does: 5 stages stop at stage 4
    p = make_point([0, 0, 0, 0, 1], 0)
    with pytest.raises(HorizonExceeded, match="needs more than the 0 materialized stages; it needs 4 stages$"):
        _least_stage(build_schedule(p, 0), F(1, 2**20), False)
    assert _least_stage(build_schedule(p, 5), F(1, 2**20), False) == (4, F(1, 5242880))


def _boundary_points(rng, n):
    points = []
    while len(points) < n:
        p = rand_point(rng, width=rng.randint(0, 14))
        if rng.random() < 0.5:
            p = with_coords(p, {rng.randint(1, 14): rng.choice((F(1), F(-1))) for _ in range(rng.randint(1, 4))})
        if classify_point(p).is_boundary:
            points.append(p)
    return points


def test_merged_schedule_matches_pool_reference():
    rng = random.Random(150)
    points = [ONES, make_point([0, 0, 0, 0, 1], 0), make_point([1, 0, -1, 0], 1)]
    points += _boundary_points(rng, 30)
    for p in points:
        for count in (0, 1, 7, 40, stage_count_limit(p)):
            s = build_schedule(p, count)
            assert s.stages == build_schedule_pool(p, count) and s.count == len(s.stages) == count
            m1 = first_sacrifice(classify_point(p))
            assert [m for _, m in s.stages] == [m1 + 4 * (k - 1) for k in range(1, count + 1)]
    s = build_schedule(ORIGIN, 7)
    assert s.stages == build_schedule_pool(ORIGIN, 7) == () and s.count == len(s.stages)


def test_forward_partial_const_one_stage1():
    out = forward_partial_eval(build_schedule(ONES, 2), ONES, 1)
    assert out.coord(1) == F(5, 8)
    assert out.coord(4) == 1
    assert out.coord(2) == 1


def test_forward_partial_stage0_and_origin():
    s = build_schedule(ONES, 2)
    assert forward_partial_eval(s, ONES, 0) == ONES
    s0 = build_schedule(ORIGIN, 2)
    assert forward_partial_eval(s0, ORIGIN, 0) == ORIGIN
    # origin cells are fixed by every stage
    assert forward_partial_eval(s, ORIGIN, 2) == ORIGIN


def test_forward_reverse_are_inverse(rng):
    s = build_schedule(ONES, 5)
    for _ in range(20):
        x = rand_point(rng)
        y = forward_partial_eval(s, x, 4)
        assert reverse_partial_eval(s, y, 4) == x


def test_forward_cauchy_steps(rng):
    s = build_schedule(ONES, 6)
    for _ in range(10):
        x = rand_point(rng)
        for i in range(5):
            gap = metric_d(
                forward_partial_eval(s, x, i + 1), forward_partial_eval(s, x, i)
            )
            assert gap <= F(3, 2 ** s.stages[i][1])


def test_reverse_cauchy_steps(rng):
    s = build_schedule(ONES, 5)
    for _ in range(10):
        y = rand_point(rng)
        for i in range(4):
            gap = metric_d(
                reverse_partial_eval(s, y, i + 1), reverse_partial_eval(s, y, i)
            )
            assert gap <= s.lipschitz(i, True) * F(3, 2 ** s.stages[i][1])


def test_h_eval_stage_selection():
    s = build_schedule(ONES, 4)
    # 1/5 < 1/4 already, so tau = 1/4 needs no stages at all
    cp = h_eval(s, ONES, F(1, 4))
    assert cp.stages_used == 0 and cp.radius == F(1, 5)
    # tau = 1/10 forces one stage, certified at 1/80
    cp = h_eval(s, ONES, F(1, 10))
    assert cp.stages_used == 1 and cp.radius == F(1, 80)
    assert cp.value.coord(1) == F(5, 8)


def test_h_eval_radius_monotone_in_tau():
    s = build_schedule(ONES, 6)
    radii = [h_eval(s, ONES, F(1, 2**k)).radius for k in range(1, 12)]
    assert radii == sorted(radii, reverse=True)


def test_h_eval_identity_schedule():
    s = build_schedule(ORIGIN, 3)
    p = make_point([F(1, 3)], 0)
    cp = h_eval(s, p, F(1, 1000))
    assert cp.value == p and cp.radius == 0 and cp.stages_used == 0


def test_reverse_leg_stage_selection():
    # the leg alone as a plan, whose inverse charges it as a target leg;
    # tau 2 gives the only escape the budget 1
    leg = HomeoPlan(InteriorMapParams(ORIGIN, ORIGIN), build_schedule(ONES, 4), None)
    cp = plan_inverse_eval(leg, ORIGIN, F(2))
    assert cp.stages_used == 0 and cp.radius == F(3, 11) and cp.value == ORIGIN


def test_h_eval_requires_positive_tau():
    s = build_schedule(ONES, 4)
    with pytest.raises(OutOfRange):
        h_eval(s, ONES, F(0))


def test_h_eval_exhausts_materialized_stages():
    s = build_schedule(ONES, 2)
    with pytest.raises(HorizonExceeded):
        h_eval(s, ONES, F(1, 10**9))


def test_roundtrip_certificate(rng):
    s = build_schedule(ONES, 6)
    leg = HomeoPlan(InteriorMapParams(ORIGIN, ORIGIN), s, None)
    tau = F(1, 100)
    for _ in range(10):
        x = rand_point(rng)
        fwd = h_eval(s, x, tau)
        back = plan_inverse_eval(leg, fwd.value, tau)
        combined = back.radius + s.lipschitz(back.stages_used, True) * fwd.radius
        assert metric_d(back.value, x) <= combined


def test_final_coordinate_const_one():
    s = build_schedule(ONES, 4)
    assert final_coordinate(s, ONES, 1) == (1, F(5, 8))
    assert final_coordinate(s, ONES, 2) == (2, F(61, 64))


def test_final_coordinate_untouched():
    p = make_point([F(1, 2), F(1, 2), 1], 0)
    s = build_schedule(p, 4)
    assert final_coordinate(s, p, 1) == (0, F(1, 2))
    # coordinate 5 is interior and never scheduled
    assert final_coordinate(s, p, 5) == (0, F(0))


def test_final_coordinate_agrees_with_later_partials():
    s = build_schedule(ONES, 8)
    for j in (1, 2, 3, 4, 5):
        stage, value = final_coordinate(s, ONES, j)
        for i in range(stage, 9):
            assert forward_partial_eval(s, ONES, i).coord(j) == value


def test_final_coordinate_strictly_interior_for_boundary_indices():
    s = build_schedule(ONES, 8)
    for j in range(1, 9):
        _, value = final_coordinate(s, ONES, j)
        assert abs(value) < 1


def test_final_coordinate_not_yet_scheduled():
    s = build_schedule(ONES, 2)
    with pytest.raises(HorizonExceeded):
        final_coordinate(s, ONES, 3)
    # sacrificed m index is touched but not finalized within 2 stages
    with pytest.raises(HorizonExceeded):
        final_coordinate(s, ONES, 4)


def test_first_attempt_partial_patterns():
    out = first_attempt_partial(ONES, 3)
    assert out == make_point([0, 0, 0], 1)
    t = F(1, 3)
    out_t = first_attempt_partial(make_point([], t), 3)
    assert out_t == make_point([0, 0, 0], t)
    assert first_attempt_partial(ONES, 0) == ONES


def test_first_attempt_collapse_distance():
    # the two streams end up 2^-n * |1 - t| apart: distinct limits collide
    t = F(1, 3)
    a = first_attempt_partial(ONES, 5)
    b = first_attempt_partial(make_point([], t), 5)
    assert metric_d(a, b) == (1 - t) * F(1, 2**5)


def _seeded_schedules():
    rng = random.Random(20261018)
    scheds = [build_schedule(ORIGIN, 5), build_schedule(ONES, 0), build_schedule(ONES, 12)]
    while len(scheds) < 12:
        p = rand_point(rng)
        if classify_point(p).is_boundary:
            scheds.append(build_schedule(p, rng.randint(1, 20)))
    return scheds + [build_schedule(make_point([0, 0, 0, 0, 1], 0), 0)]  # no stage, m_1 = 8


def test_tail_bounds_match_summed_formulas():
    for s in _seeded_schedules():
        for i in range(s.count + 1):
            assert forward_tail_bound(s, i) == forward_tail_sum(s, i)
            assert reverse_tail_bound(s, i) == reverse_tail_sum(s, i)


def test_closed_form_least_stage_matches_scan():
    rng = random.Random(7)
    for s in _seeded_schedules():
        for reverse, bound_fn in ((False, forward_tail_bound), (True, reverse_tail_bound)):
            bounds = [bound_fn(s, i) for i in range(s.count + 1)]
            # each bound exactly (strict <), just above it, and random taus
            taus = bounds + [b * F(17, 16) for b in bounds if b]
            taus += [F(1, 2 ** rng.randint(1, 90)) for _ in range(10)]
            for tau in taus:
                if tau <= 0:
                    continue
                try:
                    want = least_stage_scan(s, tau, bound_fn)
                except HorizonExceeded as exc:
                    with pytest.raises(HorizonExceeded, match=re.escape(str(exc))):
                        _least_stage(s, tau, reverse)
                    continue
                assert _least_stage(s, tau, reverse) == (want, bounds[want])


def test_least_stage_identity_and_horizon_end():
    ident = build_schedule(ORIGIN, 4)
    assert _least_stage(ident, F(1, 2**200), False) == (0, 0)
    assert _least_stage(ident, F(1, 2**200), True) == (0, 0)
    s = build_schedule(ONES, 3)
    last = forward_tail_bound(s, 3)
    with pytest.raises(HorizonExceeded, match="needs more than the 3 materialized stages"):
        _least_stage(s, last, False)  # equal is not below
    with pytest.raises(OutOfRange):
        _least_stage(s, F(0), True)


def test_final_coordinate_matches_rewalk():
    # one walk to the bisected depth gives what a re-walk per coordinate
    # gives, the refusal of a touched j not yet finalized included
    for p in (ONES, make_point([1, F(1, 2), -1], F(1, 4)), make_point([F(-1, 3)], -1),
              make_point([0, 0, 0, 0, 0, 1], F(1, 3))):
        s = build_schedule(p, 14)
        for j in range(1, 31):
            assert _outcome(final_coordinate, s, p, j) == _outcome(final_coordinate_rewalk, s, p, j)


def test_final_coordinate_answers_in_bounded_time():
    # finalization is a bisection on the increasing n_k, so an index far
    # past the stage list costs no scan up to it
    p = make_point([1, F(1, 2), -1], F(1, 4))
    s = build_schedule(p, 14)
    start = time.perf_counter()
    assert final_coordinate(s, p, 2**40 + 1) == (0, F(1, 4))
    # a sacrificed index: a multiple of 4 above b, materialized or not
    with pytest.raises(HorizonExceeded, match=f"coordinate {2**40} is not finalized within 14 stages"):
        final_coordinate(s, p, 2**40)
    assert time.perf_counter() - start < 1


def _outcome(fn, *args):
    """fn's value, or the type and message of the library error it raised."""
    try:
        return fn(*args)
    except CubeError as exc:
        return type(exc), str(exc)


def _odd_interior(rng):
    den = rng.choice((27, 3**15, 10007, 3 * 65537, 2**61 - 1))
    return F(rng.randint(1 - den, den - 1), den)


def _walk_cases():
    """(schedule, walked point, stages to walk to): seeded boundary sources
    walked themselves, with coordinates over 27 and 100; interior-move
    outputs with large odd denominators walked on those schedules; and the
    identity, 0-stage, 1-stage and stage_count_limit schedules."""
    rng = random.Random(27100)
    cases = []
    for _ in range(8):
        p = with_coords(rand_point(rng, width=10), {
            rng.randint(1, 12): F(rng.randint(-26, 26), 27),
            rng.randint(1, 12): F(rng.randint(-99, 99), 100),
            rng.randint(1, 12): rng.choice((F(1), F(-1))),
        })
        s = build_schedule(p, rng.randint(2, 24))
        anchors = [make_point([_odd_interior(rng) for _ in range(rng.randint(1, 30))], _odd_interior(rng))
                   for _ in range(2)]
        stages = range(-1, s.count + 2)
        cases += [(s, p, stages), (s, interior_map_eval(InteriorMapParams(*anchors), p), stages)]
    x = make_point([F(1, 3), F(-5, 27), F(41, 100)], F(7, 100))
    limit = build_schedule(ONES, stage_count_limit(ONES))
    cases += [(build_schedule(ORIGIN, 6), x, range(8)), (build_schedule(ONES, 0), x, range(-1, 2)),
              (build_schedule(ONES, 1), x, range(-1, 3)), (build_schedule(ONES, 1), ONES, range(3)),
              (limit, ONES, (0, 1, 40, limit.count, limit.count + 1)),
              (limit, x, (0, 1, limit.count))]
    return cases


def test_integer_walk_matches_fraction_walk():
    for s, x, stages in _walk_cases():
        for i in stages:
            assert _outcome(forward_partial_eval, s, x, i) == _outcome(partial_walk, s, x, i)
            assert _outcome(reverse_partial_eval, s, x, i) == _outcome(partial_walk, s, x, i, True)
        if classify_point(x) == s.source_profile:  # finalization reads the source's indices
            for j in range(1, 31):
                assert _outcome(final_coordinate, s, x, j) == _outcome(final_coordinate_rewalk, s, x, j)


def test_walk_cases_cover_wide_denominators():
    dens = {c.denominator for _, x, _ in _walk_cases() for c in (*x.prefix, x.tail)}
    odd_parts = {d // (d & -d) for d in dens}
    assert {27, 100} <= dens and max(odd_parts).bit_length() > 64


def test_stage_kernels_are_built_once_and_stay_out_of_equality():
    # the cached stage maps are what a walk applies
    s, fresh = build_schedule(ONES, 6), build_schedule(ONES, 6)
    forward_partial_eval(s, ONES, 6)
    reverse_partial_eval(s, ORIGIN, 6)
    maps = s._forward_maps, s._reverse_maps
    forward_partial_eval(s, ONES, 3)
    assert s._forward_maps is maps[0] and s._reverse_maps is maps[1]
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert "_forward_maps" not in vars(fresh) and "_reverse_maps" not in vars(fresh)
    for kind, built in ((MapKind.TWIST_CCW_CUBED, maps[0]), (MapKind.TWIST_CW_CUBED, maps[1])):
        assert built == tuple(CellMap(kind, Variant.CORRECTED, n, m) for n, m in s.stages)


@pytest.mark.parametrize("source", [ONES, ORIGIN])
def test_negative_stage_index_is_a_bad_index(source):
    # a stage index below 0 is bad input (exit 2), not a horizon exhausted
    s = build_schedule(source, 6)
    calls = [lambda: s.lipschitz(-1, False), lambda: s.lipschitz(-1, True), lambda: s.tail_bound(-1, False), lambda: s.tail_bound(-1, True),
             lambda: forward_partial_eval(s, ONES, -1), lambda: reverse_partial_eval(s, ONES, -1),
             lambda: forward_tail_bound(s, -1), lambda: reverse_tail_bound(s, -1)]
    for call in calls:
        with pytest.raises(BadIndices, match="stage index must be >= 0, got -1") as info:
            call()
        assert info.value.exit_code == 2
