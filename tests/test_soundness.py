"""Roundtrip soundness on generated plans, read off the certificates alone.

Endpoints come from three families: interior points, sparse boundary
profiles (+-1 at a few indices, an interior tail) and dense ones (a +-1
tail).  For each solved plan and generated x, both radii are at most tau/2
and

    d(H^-1(H x), x) <= r_back + lip_back * r_fwd,

forward and inverse.  And two certificates of one value must overlap: the
plan with both schedules 16 stages deeper is the same H, so x evaluated on
it at tau * 2^-16 and on the plan at tau gives values v2, v1 with

    d(v1, v2) <= r1 + r2,

forward and inverse, and the same for each escape leg alone (h_eval and
h_inverse_eval on the schedule 16 stages deeper).  On a dense boundary
point a leg's forward radius is attained, d(v1, v2) = r1 - r2 to 12
digits, so a 1% cut of the forward tail bound shows; a plan's forward
radius, with the move's slopes in it, is looser.  The checks read only
what an evaluation returns, never a tail bound, so they do not share the
radii's derivation.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertcube import (
    HomeoPlan,
    build_schedule,
    h_eval,
    h_inverse_eval,
    make_point,
    metric_d,
    plan_eval,
    plan_eval_info,
    plan_inverse_eval,
    plan_inverse_eval_info,
    solve,
)

F = Fraction

inner = st.integers(1, 12).flatmap(lambda d: st.integers(1 - d, d - 1).map(lambda n: F(n, d)))
unit = st.sampled_from((F(1), F(-1)))
interior_points = st.builds(make_point, st.lists(inner, max_size=4), inner)
dense_points = st.builds(make_point, st.lists(inner | unit, max_size=4), unit)


@st.composite
def sparse_points(draw):
    prefix = draw(st.lists(inner, min_size=1, max_size=6))
    for i in draw(st.sets(st.integers(0, len(prefix) - 1), min_size=1, max_size=3)):
        prefix[i] = draw(unit)
    return make_point(prefix, draw(inner))


points = interior_points | sparse_points() | dense_points


def _check_roundtrip(there, back, plan, x, tau):
    first = there(plan, x, tau)
    second = back(plan, first.point.value, tau)
    assert first.point.radius <= tau / 2 and second.point.radius <= tau / 2
    assert metric_d(second.point.value, x) <= second.point.radius + second.lipschitz * first.point.radius


@settings(max_examples=40, deadline=None)
@given(p=points, q=points, xs=st.lists(points, min_size=1, max_size=3),
       tau=st.sampled_from((F(1, 2**10), F(1, 2**16))))
def test_roundtrip_stays_within_the_composed_radius(p, q, xs, tau):
    plan = solve(p, q, tau)
    for x in (p, q, *xs):
        _check_roundtrip(plan_eval_info, plan_inverse_eval_info, plan, x, tau)
        _check_roundtrip(plan_inverse_eval_info, plan_eval_info, plan, x, tau)


def _deeper(s, pt):
    """The schedule s of pt, 16 stages deeper: the same escape."""
    return None if s is None else build_schedule(pt, s.count + 16)


@settings(max_examples=25, deadline=None)
@given(p=points, q=points, x=points, tau=st.sampled_from((F(1, 2**10), F(1, 2**16))))
def test_certificates_of_one_value_overlap(p, q, x, tau):
    plan = solve(p, q, tau)
    deep = HomeoPlan(plan.move, _deeper(plan.source_schedule, p), _deeper(plan.target_schedule, q))
    maps = [(plan, deep, plan_eval, plan_inverse_eval)]
    # each escape leg alone, whose forward radius is its tail bound
    maps += [(s, _deeper(s, pt), h_eval, h_inverse_eval)
             for s, pt in ((plan.source_schedule, p), (plan.target_schedule, q)) if s is not None]
    for shallow, deeper, forward, inverse in maps:
        for evaluate in (forward, inverse):
            for y in (p, q, x):
                coarse, fine = evaluate(shallow, y, tau), evaluate(deeper, y, tau / 2**16)
                assert metric_d(coarse.value, fine.value) <= coarse.radius + fine.radius
