"""Tightness witnesses: certificates may not be needlessly large.

Every soundness test asks whether a radius is large enough; these ask
whether it is needlessly large.  For each case plan solved at tau, the
evaluation forward at p and inverse at q gives (v, r), and the same plan
evaluated at tau * 2^-24 gives (v', r').  The true value lies within r' of
v', so d(v, true) <= d(v, v') + r', and the attained share
(d(v, v') + r') / r is an upper estimate of d(v, true) / r, exact to about
r' / r (below 2e-5 on every row).  A share of at most 1 proves the
certificate holds at that point.  A share at least the row's floor shows
the radius is no more than about 1 / floor times what the point needs: a
charge that grows, say back to 5^i on the reverse leg, drops a share with a
target leg below its floor.  Each floor is the share measured with the
reverse leg charged Λ, divided by 4 and rounded down; charged 5^i, the rows
with a target leg attained at most 2.2e-7 at 2^-20.  Keep these floors out
of test_soundness.py, whose job is the other side.
"""

from fractions import Fraction

import pytest

from hilbertcube import make_point, metric_d, plan_eval_info, plan_inverse_eval_info, solve

F = Fraction

INT_A = make_point([F(1, 3), F(-1, 2)], F(1, 5))
INT_B = make_point([F(2, 7)], F(-3, 8))
BND_A = make_point([1, F(1, 2), -1], F(1, 4))
BND_B = make_point([F(-1, 3)], -1)
PAIRS = {"int_a-int_b": (INT_A, INT_B), "bnd_a-int_b": (BND_A, INT_B),
         "int_a-bnd_b": (INT_A, BND_B), "bnd_a-bnd_b": (BND_A, BND_B)}

# (pair, log2(1/tau)): (forward floor, inverse floor); the leg each radius
# carries is named after it
FLOORS = {
    ("bnd_a-int_b", 20): (F("0.14"), F("1.5e-3")),  # source leg; target leg
    ("bnd_a-int_b", 40): (F("0.14"), F("1.2e-4")),
    ("int_a-bnd_b", 20): (F("3.3e-2"), F("0.2")),  # target leg; source leg
    ("int_a-bnd_b", 40): (F("2.8e-3"), F("0.2")),
    ("bnd_a-bnd_b", 20): (F("0.11"), F("1.7e-3")),  # both legs, both ways
    ("bnd_a-bnd_b", 40): (F("2.9e-3"), F("6.0e-5")),
}


def _share(fn, plan, x, tau) -> Fraction:
    """(d(v, v') + r') / r of the evaluation at tau against the one at tau * 2^-24."""
    cp, fine = fn(plan, x, tau).point, fn(plan, x, tau / 2**24).point
    return (metric_d(cp.value, fine.value) + fine.radius) / cp.radius


@pytest.mark.parametrize("pair, k", sorted(FLOORS))
def test_certificate_is_sound_and_tight_at_the_endpoints(pair, k):
    p, q = PAIRS[pair]
    tau = F(1, 2**k)
    plan = solve(p, q, tau)
    for fn, x, floor in zip((plan_eval_info, plan_inverse_eval_info), (p, q), FLOORS[pair, k]):
        share = _share(fn, plan, x, tau)
        assert floor <= share <= 1, (fn.__name__, float(share))


@pytest.mark.parametrize("k", [20, 40])
def test_interior_plan_is_exact(k):
    # no escape, no radius: the move sends p to q and back exactly
    tau = F(1, 2**k)
    plan = solve(INT_A, INT_B, tau)
    for fn, x, y in ((plan_eval_info, INT_A, INT_B), (plan_inverse_eval_info, INT_B, INT_A)):
        for t in (tau, tau / 2**24):
            cp = fn(plan, x, t).point
            assert (cp.value, cp.radius) == (y, 0)
