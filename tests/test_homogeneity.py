"""Plan construction and certified evaluation for all four endpoint cases."""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import count

import pytest

from hilbertcube import (
    ORIGIN,
    BadIndices,
    HorizonExceeded,
    MapKind,
    OutOfRange,
    PlanCase,
    classify_point,
    make_point,
    metric_d,
    plan_eval,
    plan_eval_info,
    plan_inverse_eval,
    plan_inverse_eval_info,
    plan_report,
    solve,
    verify_plan,
)
from hilbertcube import homogeneity, limits
from hilbertcube.homogeneity import NO_ESCAPE, _escape_budget, stage_count_limit
from hilbertcube.interior import interior_map_eval, interior_map_inverse, lipschitz_bound
from hilbertcube.limits import (
    CertifiedPoint,
    _least_stage,
    build_schedule,
    first_sacrifice,
    forward_partial_eval,
    forward_tail_bound,
)
from hilbertcube.serialize import dump_json, parse_plan, plan_to_obj

import plan_oracle
from conftest import rand_point
from plan_oracle import chain_factor, moved_tail_oracle, plan_eval_info_cases, plan_inverse_eval_info_cases
from walk_oracle import final_coordinates_rewalk, plan_from_anchors

F = Fraction

INT_A = make_point([F(1, 3), F(-1, 2)], F(1, 5))
INT_B = make_point([F(2, 7)], F(-3, 8))
BND_A = make_point([1, F(1, 2), -1], F(1, 4))
BND_B = make_point([F(-1, 3)], -1)
B_FAR = make_point([F(1, 2)] * 9 + [1], 0)  # first boundary index 10: m_1 = 12, base 8

CASES = [
    (INT_A, INT_B, PlanCase.INTERIOR_INTERIOR),
    (BND_A, INT_B, PlanCase.BOUNDARY_INTERIOR),
    (INT_A, BND_B, PlanCase.INTERIOR_BOUNDARY),
    (BND_A, BND_B, PlanCase.BOUNDARY_BOUNDARY),
]


def test_case_selection_matches_profiles():
    for p, q, want in CASES:
        plan = solve(p, q, F(1, 32))
        assert plan.case == want
        assert (plan.source_schedule is not None) == classify_point(p).is_boundary
        assert (plan.target_schedule is not None) == classify_point(q).is_boundary


def test_interior_case_is_exact():
    plan = solve(INT_A, INT_B, F(1, 1024))
    cp = plan_eval(plan, INT_A, F(1, 1024))
    assert cp.value == INT_B
    assert cp.radius == 0
    back = plan_inverse_eval(plan, INT_B, F(1, 1024))
    assert back.value == INT_A and back.radius == 0


def test_identity_plan():
    plan = solve(INT_A, INT_A, F(1, 64))
    x = make_point([F(1, 9)], F(2, 3))
    cp = plan_eval(plan, x, F(1, 64))
    assert cp.value == x and cp.radius == 0


@pytest.mark.parametrize("k", [-3, 5, 6, 10, 20])
def test_verify_all_cases(k):
    # the anchor cutoff's clamps: at tau = 8 n_cut is 1, and at 1/64 toward
    # B_FAR, of base 8, i_star is 0 while n_cut is 9
    tau = F(1, 2) ** k
    for p, q, _ in [*CASES, (BND_A, B_FAR, PlanCase.BOUNDARY_BOUNDARY)]:
        assert verify_plan(solve(p, q, tau), p, q, tau)


def test_verify_wrong_target_fails():
    tau = F(1, 2**10)
    plan = solve(BND_A, INT_B, tau)
    far = make_point([F(-9, 10)], F(1, 2))
    assert metric_d(INT_B, far) > 2 * tau
    assert not verify_plan(plan, BND_A, far, tau)


def test_verify_refuses_a_bound_equal_to_tau(monkeypatch):
    # verification is strict: a certificate whose distance bound is exactly
    # tau does not verify
    tau = F(1, 2**10)
    plan = solve(BND_A, INT_B, tau)
    value = make_point([F(1, 3)], F(-1, 3))

    def tied(pl, x, t):
        return CertifiedPoint(value, tau - metric_d(value, INT_B), 7)

    monkeypatch.setattr(homogeneity, "plan_eval", tied)
    report = plan_report(plan, BND_A, INT_B, tau)
    assert report["distance_bound"] == tau
    assert report["verified"] is False
    assert not verify_plan(plan, BND_A, INT_B, tau)


def test_eval_radius_meets_budget(rng):
    tau = F(1, 2**10)
    for p, q, _ in CASES:
        plan = solve(p, q, tau)
        for _ in range(5):
            x = rand_point(rng)
            cp = plan_eval(plan, x, tau)
            assert cp.radius < tau
            inv = plan_inverse_eval(plan, x, tau)
            assert inv.radius < tau


def test_inverse_roundtrip_composed_radius(rng):
    tau = F(1, 2**10)
    for p, q, _ in CASES:
        plan = solve(p, q, tau)
        for _ in range(5):
            x = rand_point(rng)
            fwd = plan_eval_info(plan, x, tau)
            back = plan_inverse_eval_info(plan, fwd.point.value, tau)
            combined = back.point.radius + back.lipschitz * fwd.point.radius
            assert metric_d(back.point.value, x) <= combined


def test_forward_roundtrip_composed_radius(rng):
    tau = F(1, 2**8)
    plan = solve(BND_A, BND_B, tau)
    for _ in range(5):
        y = rand_point(rng)
        back = plan_inverse_eval_info(plan, y, tau)
        fwd = plan_eval_info(plan, back.point.value, tau)
        combined = fwd.point.radius + fwd.lipschitz * back.point.radius
        assert metric_d(fwd.point.value, y) <= combined


def test_anchor_values_come_from_finalized_coordinates():
    tau = F(1, 2**6)
    plan = solve(BND_A, INT_B, tau)
    move = plan.move
    # boundary source coordinate 1 was escaped to a strictly interior value
    assert abs(move.source.coord(1)) < 1
    # interior coordinates of q appear untouched in the target anchor
    assert move.target.coord(1) == INT_B.coord(1)
    assert move.target.tail == 0 and move.source.tail == 0


def test_solve_rejects_nonpositive_tau():
    with pytest.raises(OutOfRange):
        solve(INT_A, INT_B, F(0))
    with pytest.raises(OutOfRange):
        solve(INT_A, INT_B, F(-1, 4))


def test_horizon_exceeded():
    with pytest.raises(HorizonExceeded):
        solve(BND_A, INT_B, F(1, 2**40), horizon=3)


@pytest.mark.parametrize("horizon", [0, 257])
def test_horizon_outside_range_refused_before_work(monkeypatch, horizon):
    # a horizon of 300 here once wrote 1059 target stages, which parse_plan
    # refuses, and a horizon of 0 was reported as exceeded (exit 3)
    monkeypatch.setattr(homogeneity, "classify_point", None)  # any call fails
    with pytest.raises(BadIndices, match=f"horizon must be in 1..256, got {horizon}"):
        solve(make_point([F(1, 3)], 0), make_point([1], 0), F(1, 2**260), horizon=horizon)


def test_tiny_tolerance_still_verifies():
    tau = F(1, 2**40)
    plan = solve(make_point([], 1), ORIGIN, tau)
    assert verify_plan(plan, make_point([], 1), ORIGIN, tau)


ONES = make_point([], 1)
WALK_PAIRS = ((INT_A, INT_B), (BND_A, INT_B), (INT_A, BND_B), (BND_A, BND_B), (ONES, ORIGIN))
# anchor_count 12 at 2^-10, but n_cut 13: its last anchors equal the tail 0
NEAR_ONE = (make_point([1, 1 - F(1, 2**200)], 0), make_point([F(1, 3)], 0))


def _n_cut(plan):
    """The anchor cutoff of a plan with an escape, read off a stored
    schedule: no plan field records it, and anchor_count stops at the last
    anchor coordinate other than the tail."""
    sched = plan.source_schedule or plan.target_schedule
    return sched.count - homogeneity.STAGE_PAD - 1


@pytest.mark.parametrize("k", [10, 20, 40])
def test_one_walk_anchors_match_per_coordinate_rewalk(k):
    tau = F(1, 2**k)
    for p, q in WALK_PAIRS + ((NEAR_ONE,) if k == 10 else ()):
        plan = solve(p, q, tau)
        if plan.case == PlanCase.INTERIOR_INTERIOR:
            assert plan.move.source == p and plan.move.target == q
            continue
        n_cut = _n_cut(plan)
        finals = []
        for sched, pt in ((plan.source_schedule, p), (plan.target_schedule, q)):
            if sched is None:
                finals.append(None)
                continue
            walked = build_schedule(pt, n_cut + 1)  # the stages solve's anchor walk reads
            finals.append(final_coordinates_rewalk(walked, pt, n_cut))
        assert plan == plan_from_anchors(plan, p, q, *finals)


def _counting_stage_applications(monkeypatch):
    """The CellMap of every stage application a walk (or any twist_eval)
    makes, in order.  A walk tries CellMap.shear first and calls image only
    where the shear misses: the miss and that image call are one application."""
    calls, missed = [], []
    shear, image = limits.CellMap.shear, limits.CellMap.image

    def counted_shear(cm, *point):
        calls.append(cm)
        got = shear(cm, *point)
        missed[:] = [] if got is not None else [(cm, point)]
        return got

    def counted_image(cm, *point):
        if missed != [(cm, point)]:
            calls.append(cm)
        missed.clear()
        return image(cm, *point)

    monkeypatch.setattr(limits.CellMap, "shear", counted_shear)
    monkeypatch.setattr(limits.CellMap, "image", counted_image)
    return calls


def test_solve_walks_each_schedule_once(monkeypatch):
    calls = _counting_stage_applications(monkeypatch)
    plan = solve(BND_A, BND_B, F(1, 2**40))
    src, tgt = plan.source_schedule.stages, plan.target_schedule.stages
    assert 0 < len(calls) <= len(src) + len(tgt)
    assert {cm.kind for cm in calls} == {MapKind.TWIST_CCW_CUBED}  # forward stage maps only
    # each cell at most once per schedule whose stage list holds it
    for cell, times in Counter((cm.n, cm.m) for cm in calls).items():
        assert times <= (cell in src) + (cell in tgt)


def test_refusal_evaluates_no_twist(monkeypatch):
    calls = _counting_stage_applications(monkeypatch)
    with pytest.raises(HorizonExceeded):
        solve(BND_A, BND_B, F(1, 2**64))
    assert calls == []


@pytest.mark.parametrize("tau", [F(1, 2**64), F(1, 2**100000)], ids=["2^-64", "2^-100000"])
def test_refusal_builds_no_stage_list_past_the_horizon(monkeypatch, tau):
    # the depths that decide a refusal are read in closed form, and the
    # coordinate it names, n_{horizon+1}, off a list of horizon + 1 stages:
    # no list of the plan's n_cut + 13 stages is built only to be refused
    built = []
    stages = limits.Schedule.stages.func
    monkeypatch.setattr(limits.Schedule, "stages", property(lambda s: built.append(s.count) or stages(s)))
    with pytest.raises(HorizonExceeded, match="finalizes at stage 257, beyond horizon 256"):
        solve(BND_A, BND_B, tau)
    assert built and max(built) == 257


def test_tiny_tolerance_refused_in_bounded_time(monkeypatch):
    # the target's stage search and the anchor cutoff read closed forms and
    # bit lengths, and a schedule stores no per-stage budget, so a
    # 14,000-bit tolerance is refused from the stage lists at once
    calls = _counting_stage_applications(monkeypatch)
    tau = F(1, 2**14000)
    start = time.perf_counter()
    with pytest.raises(HorizonExceeded) as exc:
        solve(ORIGIN, ONES, tau)
    assert time.perf_counter() - start < 2
    assert calls == []
    assert str(exc.value) == ("coordinate 257 finalizes at stage 257, beyond horizon 256;"
                              f" tolerance {tau} needs horizon 56006")


def test_most_evaluation_stages_are_one_shear(monkeypatch):
    # a stage whose applications all stay strictly inside the strip is one
    # shear, with no clause table: most stages of an evaluation at 2^-20
    # on seeded points are, and the rest go to image
    shear, taken = limits.CellMap.shear, []

    def counted(cm, *point):
        taken.append(shear(cm, *point))
        return taken[-1]

    monkeypatch.setattr(limits.CellMap, "shear", counted)
    rng = random.Random(20)
    tau = F(1, 2**20)
    for p, q, _ in CASES[1:]:
        plan = solve(p, q, tau)
        for x in [rand_point(rng) for _ in range(10)]:
            plan_eval_info(plan, x, tau)
            plan_inverse_eval_info(plan, x, tau)
    sheared = sum(got is not None for got in taken)
    assert len(taken) / 2 < sheared < len(taken)


class _Cutoff(Exception):
    pass


def test_solve_takes_one_depth_per_schedule(monkeypatch):
    # the depth that decides the horizon refusal is the one the anchor walk
    # goes to: one per schedule, and each stored schedule walks exactly its
    # stages with n_k <= n_cut
    calls = []
    depth = limits.Schedule.depth
    monkeypatch.setattr(limits.Schedule, "depth", lambda s, j: calls.append(j) or depth(s, j))
    for (p, q), tau in (((BND_A, BND_B), F(1, 2**20)), (NEAR_ONE, F(1, 2**10))):
        calls.clear()
        plan = solve(p, q, tau)
        n_cut = _n_cut(plan)
        assert calls == [n_cut] * 2
        for sched in (plan.source_schedule, plan.target_schedule):
            if sched is not None:
                walked = sum(n <= n_cut for n, _ in sched.stages)
                assert len(sched.__dict__["_forward_maps"]) == walked > 0
    assert n_cut == 13 and plan.move.anchor_count == 12


def test_anchor_cutoff_is_the_least_n_that_fits(monkeypatch):
    # n_cut is the least N >= 1 with 2^(1-N) <= (tau/4) / 8^i_star, i_star the
    # least i whose reverse tail charged 8 per stage, 3 * 2^-(b+i+3), beats the
    # target leg's budget in verification (tau/8 from a boundary source, tau/4
    # from an interior one), 0 for an interior target; solve's first build is
    # an endpoint's n_cut + 1 + STAGE_PAD stages.  The taus reach tau >= 4,
    # where n_cut is 1, and taus where i_star is 0 on a boundary target of
    # base 0 or 8 while n_cut is not 1
    def cutoff(pt, n):
        raise _Cutoff(n - 1 - homogeneity.STAGE_PAD)

    targets = ((INT_B, None), (BND_B, 0), (B_FAR, 8))
    assert [build_schedule(q, 1).base for q, b in targets if b is not None] == [0, 8]
    monkeypatch.setattr(homogeneity, "build_schedule", cutoff)
    clamped = Counter()
    for tau in [F(k, 3**j) / F(2)**e for k in (1, 5, 7) for j in (0, 1, 2) for e in (-4, -2, 0, 3, 5, 17, 40)]:
        for p, budget in ((BND_A, tau / 8), (INT_A, tau / 4)):
            for q, b in targets:
                if b is None and p is INT_A:  # interior to interior: no cutoff
                    continue
                i_star = 0 if b is None else next(i for i in count() if F(3, 8 << (b + i)) < budget)
                n_cut = 1
                while F(2, 2**n_cut) > (tau / 4) / 8**i_star:
                    n_cut += 1
                with pytest.raises(_Cutoff) as exc:
                    solve(p, q, tau)
                assert exc.value.args[0] == n_cut, (p, q, tau)
                if tau >= 4:
                    assert n_cut == 1
                    clamped["tau >= 4"] += 1
                elif b is not None:
                    clamped[b, i_star == 0] += 1
    assert min(clamped[key] for key in ("tau >= 4", (0, True), (0, False), (8, True), (8, False))) > 0, clamped


def test_stage_factor_has_one_source(monkeypatch):
    # the stage factor and the anchor cutoff each have one source in limits.
    # Charge 7 per stage instead of STAGE_LIPSCHITZ, the forward factor and
    # the cap on each step of the reverse factor Λ, and every reverse tail
    # bound, radius and Lipschitz bound follows it while every plan stays as
    # it is; cut the anchors 3 later than _anchor_cutoff and every plan
    # follows it while the evaluation of a fixed plan stays as it is
    b_q = first_sacrifice(classify_point(BND_B)) - 4
    rng = random.Random(9)
    tau = F(1, 2**20)
    plans = {case: solve(p, q, tau) for p, q, case in CASES}
    points = {case: (p, q, rand_point(rng), rand_point(rng)) for p, q, case in CASES}

    def evaluations(plan, case):
        return [fn(plan, x, t) for x in points[case] for t in (tau, tau / 2)
                for fn in (plan_eval_info, plan_inverse_eval_info)]

    charged = {case: evaluations(plans[case], case) for _, _, case in CASES}
    with monkeypatch.context() as m:
        m.setattr(limits, "STAGE_LIPSCHITZ", 7)
        m.setattr(plan_oracle, "CHARGE", F(7))  # the case oracle's factor
        s = build_schedule(BND_B, 12)
        assert [limits.reverse_tail_bound(s, i) for i in range(13)] == [F(3 * chain_factor(s, i, 7), 9 << (b_q + 4 * i))
                                                                         for i in range(13)]
        for p, q, case in CASES:
            plan = solve(p, q, tau)
            assert plan == plans[case], case
            for x in points[case]:
                for t in (tau, tau / 2):
                    for fn, oracle, pl in ((plan_eval_info, plan_eval_info_cases, plan),
                                           (plan_inverse_eval_info, plan_inverse_eval_info_cases, plan._inverse)):
                        info = fn(plan, x, t)
                        assert info == oracle(plan, x, t), (case, x, t)
                        choice, tgt = pl._choice, pl.target_schedule or NO_ESCAPE
                        i, j = choice.target_stages, choice.source_stages
                        assert i + j == info.point.stages_used
                        assert info.lipschitz == chain_factor(tgt, i, 7) * lipschitz_bound(pl.move) * 7**j
                        assert (info.point.stages_used > 0) == (case != PlanCase.INTERIOR_INTERIOR)
            if case != PlanCase.INTERIOR_INTERIOR:
                assert evaluations(plan, case) != charged[case], case
    # solve calls the cutoff under the name it imports from limits
    assert homogeneity._anchor_cutoff is limits._anchor_cutoff
    with monkeypatch.context() as m:
        m.setattr(homogeneity, "_anchor_cutoff", lambda *args: limits._anchor_cutoff(*args) + 3)
        for p, q, case in CASES:
            plan = solve(p, q, tau)
            assert (plan != plans[case]) == (case != PlanCase.INTERIOR_INTERIOR), case
            for sched, old in ((plan.source_schedule, plans[case].source_schedule),
                               (plan.target_schedule, plans[case].target_schedule)):
                assert (sched is None) == (old is None) and (sched is None or sched.count == old.count + 3), case
            assert evaluations(plans[case], case) == charged[case], case


TAU64 = "tolerance 1/18446744073709551616"


@pytest.mark.parametrize("horizon, pair, message", [
    (256, (INT_A, BND_B), f"coordinate 258 finalizes at stage 257, beyond horizon 256; {TAU64} needs horizon 261"),
    (256, (BND_A, BND_B), f"coordinate 258 finalizes at stage 257, beyond horizon 256; {TAU64} needs horizon 264"),
    (64, (BND_A, BND_B), f"coordinate 66 finalizes at stage 65, beyond horizon 64; {TAU64} needs horizon 264"),
    (64, (ONES, ORIGIN), f"coordinate 65 finalizes at stage 65, beyond horizon 64; {TAU64} needs horizon 67"),
    (20, (INT_A, BND_B), f"coordinate 22 finalizes at stage 21, beyond horizon 20; {TAU64} needs horizon 261"),
    (20, (ONES, ORIGIN), f"coordinate 21 finalizes at stage 21, beyond horizon 20; {TAU64} needs horizon 67"),
])
def test_horizon_messages(horizon, pair, message):
    with pytest.raises(HorizonExceeded) as exc:
        solve(*pair, F(1, 2**64), horizon=horizon)
    assert str(exc.value) == message


def test_needed_horizon_is_the_least_that_solves():
    # the horizon a refusal names is exactly the one that lets solve through
    with pytest.raises(HorizonExceeded, match="needs horizon 67$"):
        solve(ONES, ORIGIN, F(1, 2**64), horizon=66)
    assert verify_plan(solve(ONES, ORIGIN, F(1, 2**64), horizon=67), ONES, ORIGIN, F(1, 2**64))


def test_stage_count_limit_bounds_solve():
    # a small horizon reaches its refusal quickly; the bound is met exactly
    horizon, reached = 5, False
    for p, q in WALK_PAIRS[1:] + ((INT_B, BND_A), (make_point([0, 0, 0, 0, 0, 1], 0), ORIGIN)):
        for k in range(1, 200):
            try:
                plan = solve(p, q, F(1, 2**k), horizon=horizon)
            except HorizonExceeded:
                break
            for sched, pt in ((plan.source_schedule, p), (plan.target_schedule, q)):
                if sched is not None:
                    assert sched.count <= stage_count_limit(pt, horizon)
                    reached |= sched.count == stage_count_limit(pt, horizon)
        else:
            pytest.fail("no refusal")
    assert reached


def _near_unit(rng):
    """A coordinate within 2^-k of +-1 (k up to 300), +-1 itself, or a sixteenth."""
    roll = rng.randrange(3)
    if roll == 0:
        return rng.choice((1, -1)) * (1 - F(1, 2 ** rng.randint(1, 300)))
    return F(rng.choice((1, -1))) if roll == 1 else F(rng.randint(-15, 15), 16)


def test_no_walk_passes_the_anchor_cutoff(monkeypatch):
    # every walk of verify's evaluation (at tau/2) and of a roundtrip at tau
    # (H(p), H^-1(H(p)) and H^-1(q)) stops by stage n_cut = count - STAGE_PAD - 1,
    # endpoints near +-1 included, and every stored count is within the limit;
    # so do the same walks charged 8^i for i stages, forward and reverse, the
    # factor _anchor_cutoff sizes with, which go no less deep.  They run on a
    # copy of the plan, which keeps no choice made at the charge of 5
    walks = []
    partial = homogeneity._partial

    def recorded(s, v, i, reverse):
        walks.append((s, i))
        return partial(s, v, i, reverse)

    def deepest_walk(plan, p, q, tau):
        walks.clear()
        assert verify_plan(plan, p, q, tau), (p, q, tau)
        fwd = plan_eval_info(plan, p, tau)
        back = plan_inverse_eval_info(plan, fwd.point.value, tau)
        assert metric_d(back.point.value, p) <= back.point.radius + back.lipschitz * fwd.point.radius
        plan_inverse_eval(plan, q, tau)
        return max(i for _, i in walks)

    monkeypatch.setattr(homogeneity, "_partial", recorded)
    rng = random.Random(25)
    solved = sized_at_cutoff = 0
    # a dense boundary to a dense boundary walks to n_cut itself
    pairs = [(ONES, make_point([], -1))] + [
        tuple(make_point([_near_unit(rng) for _ in range(rng.randint(1, 5))], _near_unit(rng)) for _ in range(2))
        for _ in range(60)]
    for p, q in pairs:
        for tau in (F(1, 2 ** rng.randint(1, 64)) for _ in range(2)):
            try:
                plan = solve(p, q, tau)
            except HorizonExceeded:
                continue
            solved += 1
            stored = [s for s in (plan.source_schedule, plan.target_schedule) if s is not None]
            n_cut = stored[0].count - homogeneity.STAGE_PAD - 1 if stored else 0
            for sched, pt in ((plan.source_schedule, p), (plan.target_schedule, q)):
                assert sched is None or sched.count - homogeneity.STAGE_PAD - 1 == n_cut
                assert sched is None or sched.count <= stage_count_limit(pt)
            deepest = deepest_walk(plan, p, q, tau)
            assert deepest <= n_cut, (p, q, tau)
            # charged 8, the walks are the deepest n_cut is sized for, and
            # they meet it somewhere
            with monkeypatch.context() as m:
                m.setattr(limits, "STAGE_LIPSCHITZ", 8)
                m.setattr(limits.Schedule, "lipschitz", lambda s, i, reverse: 8**i)
                sized = deepest_walk(homogeneity.HomeoPlan(plan.move, plan.source_schedule, plan.target_schedule),
                                     p, q, tau)
            assert deepest <= sized <= n_cut, (p, q, tau)
            sized_at_cutoff += stored != [] and sized == n_cut
    assert solved > 60 and sized_at_cutoff  # the bound is met somewhere


def test_horizon_refusal_matches_per_coordinate_rewalk(monkeypatch):
    # at a horizon in 1..40, solve refuses naming the first j <= n_cut whose
    # stage, re-walked one coordinate at a time, passes the horizon (p's
    # before q's on a tie) and the latest stage of any j <= n_cut; otherwise
    # it builds the anchors those re-walks give.  n_cut is read off the
    # endpoint schedules solve builds
    built = []
    monkeypatch.setattr(homogeneity, "build_schedule", lambda pt, n: built.append(n) or build_schedule(pt, n))
    rng = random.Random(27)
    outcomes = Counter()
    for _ in range(30):
        p, q = (make_point([_near_unit(rng) for _ in range(rng.randint(1, 5))], _near_unit(rng)) for _ in range(2))
        tau, horizon = F(1, 2 ** rng.randint(1, 64)), rng.randint(1, 40)
        built.clear()
        try:
            got = solve(p, q, tau, horizon)
        except HorizonExceeded as exc:
            got = str(exc)
        if not built:  # interior to interior
            continue
        n_cut = built[0] - 1 - homogeneity.STAGE_PAD
        finals = [final_coordinates_rewalk(build_schedule(pt, n_cut + 1), pt, n_cut)
                  if classify_point(pt).is_boundary else None for pt in (p, q)]
        stages = [{j: k for j, (k, _) in fin.items()} for fin in finals if fin is not None]
        late = [(j, fin[j]) for j in range(1, n_cut + 1) for fin in stages if fin[j] > horizon]
        outcomes[bool(late)] += 1
        if late:
            (j, k), need = late[0], max(k for fin in stages for k in fin.values())
            assert got == (f"coordinate {j} finalizes at stage {k}, beyond horizon {horizon};"
                           f" tolerance {tau} needs horizon {need}")
        else:
            assert not isinstance(got, str) and got == plan_from_anchors(got, p, q, *finals)
    assert min(outcomes[True], outcomes[False]) >= 3, outcomes


def test_plan_with_a_coordinate_next_to_one_reads_back():
    # a coordinate 2^-5000 below 1 once made solve store 1,265 source stages,
    # past stage_count_limit, so the plan it wrote could not be loaded
    p = make_point([1, 1 - F(1, 2**5000)], 0)
    q = make_point([F(1, 3)], 0)
    tau = F(1, 1024)
    plan = solve(p, q, tau)
    assert plan.source_schedule.count == 26
    assert plan.source_schedule.count <= stage_count_limit(p)
    assert parse_plan(dump_json(plan_to_obj(plan))) == plan
    assert verify_plan(plan, p, q, tau)
    # [1, 1 - 2^-200] -> [1/3] at 2^-10 once stored 65 stages
    assert solve(make_point([1, 1 - F(1, 2**200)], 0), q, tau).source_schedule.count == 26


def test_solve_builds_each_schedule_once(monkeypatch):
    # one list per endpoint, nothing built for the cutoff: the one the anchor
    # walk reads and the plan holds, with that walk's maps
    built = []
    monkeypatch.setattr(homogeneity, "build_schedule", lambda pt, n: built.append(build_schedule(pt, n)) or built[-1])
    plan = solve(BND_A, BND_B, F(1, 2**20))
    # anchor_count falls short of n_cut only where both anchors end in their
    # tail 0; the source anchor's coordinate n_cut is 1/4 here
    n_cut = plan.move.anchor_count
    assert [s.count for s in built] == [n_cut + 1 + homogeneity.STAGE_PAD] * 2
    assert plan.source_schedule is built[0] and plan.target_schedule is built[1]
    for sched in (plan.source_schedule, plan.target_schedule):
        last = sum(n <= n_cut for n, _ in sched.stages)
        cached = sched.__dict__["_forward_maps"]
        assert len(cached) == last > 0


def _negated(p):
    return make_point([-c for c in p.prefix], -p.tail)


@pytest.mark.parametrize("k", [10, 20])
def test_negation_symmetry(k):
    # every clause is odd in (x, y, C), its conditions read only |x|, |y|
    # and the sign of xy, and a schedule reads only which coordinates are
    # +-1: the plan for (-p, -q) at -x gives exactly -value, the same radius
    # and the same Lipschitz factor, forward and inverse; no oracle needed
    rng = random.Random(k + 26)
    tau = F(1, 2**k)
    seeded = [tuple(make_point([_near_unit(rng) for _ in range(rng.randint(1, 4))], _near_unit(rng))
                    for _ in range(2)) for _ in range(4)]
    for p, q in [(p, q) for p, q, _ in CASES] + [(ONES, ORIGIN)] + seeded:
        plan, mirror = solve(p, q, tau), solve(_negated(p), _negated(q), tau)
        for x in (p, q, rand_point(rng)):
            for fn in (plan_eval_info, plan_inverse_eval_info):
                info, flipped = fn(plan, x, tau), fn(mirror, _negated(x), tau)
                assert flipped.point.value == _negated(info.point.value), (p, q, x, fn.__name__)
                assert (flipped.point.radius, flipped.lipschitz) == (info.point.radius, info.lipschitz)


ORACLE_PAIRS = WALK_PAIRS[:4] + tuple((q, p) for p, q in WALK_PAIRS[:4]) + ((ONES, ORIGIN),)


def _outcome(fn, *args):
    """The EvalInfo fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("k", [10, 20])
def test_single_path_matches_case_oracle(k):
    rng = random.Random(k)
    tau = F(1, 2**k)
    too_small = F(1, 2**2000)  # beyond every materialized stage
    for p, q in ORACLE_PAIRS:
        plan = solve(p, q, tau)
        points = [p, q] + [rand_point(rng) for _ in range(4)]
        # each tau at every point in turn, then per point a tau, a refused
        # one, half the tau and the tau again as a string: a plan keeps the
        # choice of its last tau, and a kept choice read at another tau, or
        # one kept from a refusal, shows here
        sweeps = [(t, x) for t in (tau, tau / 2, too_small, F(0)) for x in points]
        sweeps += [(t, x) for x in points for t in (tau, too_small, tau / 2, f"1/{2**k}")]
        for t, x in sweeps:
            for fn, oracle in ((plan_eval_info, plan_eval_info_cases),
                               (plan_inverse_eval_info, plan_inverse_eval_info_cases)):
                got = _outcome(fn, plan, x, t)
                assert got == _outcome(oracle, plan, x, t), (plan.case, x, t)
                if t == too_small and plan.case != PlanCase.INTERIOR_INTERIOR:
                    assert got[0] is HorizonExceeded
                if t == 0:
                    assert got[0] is OutOfRange
        # what an evaluation keeps is no part of the plan's value
        copy = parse_plan(dump_json(plan_to_obj(plan)))
        assert (copy, hash(copy), repr(copy)) == (plan, hash(plan), repr(plan))


def test_choice_is_made_once_per_plan_direction(monkeypatch):
    # the stage counts, radius and factor read no x: evaluating a plan at
    # many points and one tau searches the target leg and reads the move's
    # slope while choosing at the first point, and at no later one
    calls = Counter()
    for name in ("lipschitz_bound", "_least_stage"):
        fn = getattr(homogeneity, name)
        monkeypatch.setattr(homogeneity, name, lambda *a, _fn=fn, _name=name: calls.update([_name]) or _fn(*a))
    rng = random.Random(35)
    tau = F(1, 2**20)
    points = [rand_point(rng) for _ in range(10)]
    for p, q, case in CASES:
        plan = solve(p, q, tau)
        for fn in (plan_eval_info, plan_inverse_eval_info):
            before = calls.copy()
            fn(plan, points[0], tau)
            first = calls - before
            # one target search (none refuses) and one slope read for the
            # choice, one more slope read for the source leg's table
            assert first == {"_least_stage": 1, "lipschitz_bound": 2}, (case, fn.__name__)
            for x in points[1:]:
                fn(plan, x, tau)
            assert calls == before + first, (case, fn.__name__)


def _unit_or_edge(rng):
    """A coordinate that is +-1 a third of the time."""
    return F(rng.choice((1, -1))) if rng.randrange(3) == 0 else F(rng.randint(-15, 15), 16)


@pytest.mark.parametrize("k", [10, 20])
def test_source_leg_error_is_carried_coordinate_by_coordinate(k):
    # the source leg's table holds min(slope * tail(j), E(j)), slope the move's
    # global Lipschitz bound and E summed coordinate by coordinate with slopes
    # rounded up to powers of two; its term is lip_i times the entry at j.  On
    # these points it bounds the moved distance to the deepest partial, is no
    # smaller than lip_i times the oracle's E(j) with unrounded slopes, and is
    # no larger than the global slope's outer * tail(j); its j is never later
    # than that bound's.  Each of the two terms is the strictly smaller one
    # at some chosen j, so a table that keeps only one of them fails here
    rng = random.Random(1000 + k)
    tau = F(1, 2**k)
    shorter, won = 0, set()
    for p, q in WALK_PAIRS:
        plan = solve(p, q, tau)
        for pl in (plan, plan._inverse):
            src, tgt = (s or NO_ESCAPE for s in (pl.source_schedule, pl.target_schedule))
            if not src.is_identity:  # the closed form matches the sums straight from the definitions
                nums, den = pl._source_errors
                slope = lipschitz_bound(pl.move)
                glob = [slope * forward_tail_bound(src, j) for j in range(src.count + 1)]
                coord = moved_tail_oracle(src, pl.move)
                assert [F(n, den) for n in nums] == list(map(min, glob, coord))
                exact = moved_tail_oracle(src, pl.move, rounded=False)
                assert all(type(e) is F for e in exact)
            budget = _escape_budget(tau, not (src.is_identity or tgt.is_identity))
            i, r_rev = _least_stage(tgt, budget, True)
            outer = tgt.lipschitz(i, True) * lipschitz_bound(pl.move)
            today = src.stages_needed(budget / outer, False)[0]
            for _ in range(6):
                x = make_point([_unit_or_edge(rng) for _ in range(rng.randint(0, 8))], _unit_or_edge(rng))
                info = plan_eval_info(pl, x, tau)
                assert type(info.point.radius) is F and type(info.lipschitz) is F
                j, term = info.point.stages_used - i, info.point.radius - r_rev
                assert j <= today
                shorter += j < today
                if src.is_identity:
                    assert (j, term) == (0, 0)
                    continue
                assert term == tgt.lipschitz(i, True) * min(glob[j], coord[j])
                won |= {"global"} if glob[j] < coord[j] else {"E"} if coord[j] < glob[j] else set()
                deep = interior_map_eval(pl.move, forward_partial_eval(src, x, src.count))
                moved = metric_d(interior_map_eval(pl.move, forward_partial_eval(src, x, j)), deep)
                assert moved <= exact[j]
                assert tgt.lipschitz(i, True) * moved <= term <= outer * src.tail_bound(j, False)
                assert term >= tgt.lipschitz(i, True) * exact[j]
    assert shorter  # the coordinatewise bound saves stages somewhere
    assert won == {"global", "E"}


def test_inverse_plan_swaps_escapes():
    for p, q in ORACLE_PAIRS:
        plan = solve(p, q, F(1, 2**10))
        inv = plan._inverse
        assert (inv.source_schedule, inv.target_schedule) == (plan.target_schedule, plan.source_schedule)
        assert (inv.move.source, inv.move.target) == (plan.move.target, plan.move.source)
        assert inv._inverse == plan
    plan = solve(BND_A, INT_B, F(1, 2**10))
    assert plan.case == PlanCase.BOUNDARY_INTERIOR
    assert plan._inverse.case == PlanCase.INTERIOR_BOUNDARY


def test_inverse_evaluation_skips_the_forward_entry_point(monkeypatch):
    # a tracer that wraps plan_eval_info counts forward evaluations alone: the
    # inverse runs the shared evaluation on the inverse plan, not that name
    tau = F(1, 2**20)
    plans = [solve(p, q, tau) for p, q, _ in CASES]
    want = [plan_inverse_eval_info(plan, q, tau) for plan, (_, q, _) in zip(plans, CASES)]

    def refuse(*args):
        raise AssertionError("an inverse evaluation called plan_eval_info")

    monkeypatch.setattr(homogeneity, "plan_eval_info", refuse)
    # fresh plans, so each inverse plan and its choice are built under the patch
    fresh = [solve(p, q, tau) for p, q, _ in CASES]
    assert [plan_inverse_eval_info(plan, q, tau) for plan, (_, q, _) in zip(fresh, CASES)] == want
