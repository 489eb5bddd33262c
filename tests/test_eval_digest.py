"""Every certified evaluation, pinned by one sha256.

The outcome of plan_eval_info and plan_inverse_eval_info, value repr,
radius, stages used and Lipschitz bound, or the type and text of what
they raise, is hashed for the four case pairs and const-1 -> origin, each
solved at 2^-40, at p, q and eight seeded points, at 2^-20, 2^-40 and
2^-2000 (beyond every materialized stage: the refusal text).  Any change
to how a value is evaluated, however it is carried between the legs, must
leave every one of these outcomes as it is.
"""

import hashlib
import random
from fractions import Fraction

from hilbertcube import make_point, plan_eval_info, plan_inverse_eval_info, solve

from conftest import rand_point

F = Fraction

PAIRS = (
    (make_point([F(1, 3), F(-1, 2)], F(1, 5)), make_point([F(2, 7)], F(-3, 8))),
    (make_point([1, F(1, 2), -1], F(1, 4)), make_point([F(2, 7)], F(-3, 8))),
    (make_point([F(1, 3), F(-1, 2)], F(1, 5)), make_point([F(-1, 3)], -1)),
    (make_point([1, F(1, 2), -1], F(1, 4)), make_point([F(-1, 3)], -1)),
    (make_point([], 1), make_point([], 0)),
)
TAUS = (F(1, 2**20), F(1, 2**40), F(1, 2**2000))
DIGEST = "e3ee747291989bb5ed84b4c34135602d4c0a8dae266cdb686289cfb3886f2abe"


def _outcome(fn, *args) -> str:
    try:
        info = fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    cp = info.point
    return f"{cp.value!r} {cp.radius} {cp.stages_used} {info.lipschitz}"


def test_eval_outcomes_are_pinned():
    rng = random.Random(16)
    lines = []
    for p, q in PAIRS:
        plan = solve(p, q, F(1, 2**40))
        for x in [p, q] + [rand_point(rng) for _ in range(8)]:
            for tau in TAUS:
                for fn in (plan_eval_info, plan_inverse_eval_info):
                    lines.append(_outcome(fn, plan, x, tau))
    assert len(lines) == 300
    assert sum(line.startswith("HorizonExceeded: ") for line in lines) == 80  # 2^-2000 wherever a leg escapes
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
