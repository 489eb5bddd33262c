"""Roundtrip soundness on generated plans, read off the certificates alone.

Endpoints come from three families: interior points, sparse boundary
profiles (+-1 at a few indices, an interior tail) and dense ones (a +-1
tail).  For each solved plan and generated x, both radii are at most tau/2
and

    d(H^-1(H x), x) <= r_back + lip_back * r_fwd,

forward and inverse.  The check reads only what an evaluation returns,
never a tail bound, so it does not share the radii's derivation.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertcube import make_point, metric_d, plan_eval_info, plan_inverse_eval_info, solve

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
