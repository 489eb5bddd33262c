"""Certified plans moving any point of the cube to any other.

A plan composes up to three exactly-representable homeomorphisms:

    H = (target escape)^-1 . interior move . (source escape)

where an escape is the staged twist limit that pushes a boundary point into
the pseudo-interior, and the interior move is the coordinatewise map sending
the escaped source to the escaped target.  Pseudo-interior endpoints need no
escape, giving four cases.  The interior move's anchors use the exact
finalized coordinates of both escapes up to a cutoff N and the identity
beyond, so the design residual is at most 2^(1-N); N is sized so that the
residual survives the worst Lipschitz inflation the verifying evaluation can
apply to it.

Evaluation is certified: every returned value carries an exact radius, and
verify_plan checks d(value, target) + radius < tau with everything rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .cube import ORIGIN, PointRep, Rational, _coprime, _pairs, _point, classify_point, metric_d
from .errors import BadIndices, HorizonExceeded
from .interior import (
    InteriorMapParams,
    _move,
    interior_map_inverse,
    lipschitz_bound,
    slope_exponents,
)
from .limits import (
    ZERO,
    CertifiedPoint,
    Schedule,
    _anchor_cutoff,
    _least_below,
    _least_stage,
    _named,
    _partial,
    _tolerance,
    build_schedule,
    first_sacrifice,
    moved_tail_bounds,
)

NO_ESCAPE = build_schedule(ORIGIN, 0)  # the identity leg: 0 stages, radius 0, factor 1

DEFAULT_HORIZON = 256
STAGE_PAD = 12  # stages a plan materializes past n_cut + 1; no walk at its tolerance passes n_cut


class PlanCase(str, Enum):
    INTERIOR_INTERIOR = "interior-interior"
    BOUNDARY_INTERIOR = "boundary-interior"
    INTERIOR_BOUNDARY = "interior-boundary"
    BOUNDARY_BOUNDARY = "boundary-boundary"


@dataclass(frozen=True)
class HomeoPlan:
    """Everything needed to evaluate H and H^-1 with certificates.

    source_schedule escapes the source point (present iff the source meets
    the boundary); target_schedule escapes the target.  move holds the
    interior-map anchors.  The case follows from which schedules are present.
    The inverse plan and the source leg's error table are built once, on
    first use, and an evaluation keeps its choice for the last tau in
    `_choice`; not being fields, they stay out of equality, hashing and repr.
    """

    move: InteriorMapParams
    source_schedule: Schedule | None
    target_schedule: Schedule | None

    @cached_property
    def _inverse(self) -> HomeoPlan:
        """H^-1 as a plan: the inverse move between the swapped escapes."""
        return HomeoPlan(interior_map_inverse(self.move), self.target_schedule, self.source_schedule)

    @cached_property
    def _source_errors(self) -> tuple[list[int], int]:
        """nums[j] / den, j = 0..count: the source leg's error after the move,
        min(lipschitz_bound(move) * tail(j), E(j)) (moved_tail_bounds)."""
        move = self.move
        return moved_tail_bounds(self.source_schedule or NO_ESCAPE, slope_exponents(move), lipschitz_bound(move))

    @property
    def case(self) -> PlanCase:
        src, tgt = self.source_schedule is not None, self.target_schedule is not None
        if src and tgt:
            return PlanCase.BOUNDARY_BOUNDARY
        if src:
            return PlanCase.BOUNDARY_INTERIOR
        if tgt:
            return PlanCase.INTERIOR_BOUNDARY
        return PlanCase.INTERIOR_INTERIOR


@dataclass(frozen=True)
class EvalInfo:
    """A certified value plus the Lipschitz bound of the concrete
    approximation that produced it (used to compose roundtrip bounds)."""

    point: CertifiedPoint
    lipschitz: Fraction


def _escape_budget(tau: Fraction, both_escapes: bool) -> Fraction:
    """Tolerance share of each escape leg of an evaluation at tau: half of
    tau when it is the only escape, a quarter when both are present."""
    return tau / 4 if both_escapes else tau / 2


def stage_count_limit(p: PointRep, horizon: int = DEFAULT_HORIZON) -> int:
    """Most stages solve materializes for p's schedule under `horizon`, a
    true maximum: a plan stores n_cut + 1 + STAGE_PAD stages, and index
    m_1 + 4t finalizes at stage t + 2 or later, so a cutoff that is not
    refused stays below m_1 + 4(horizon - 1) (m_1 = 0 for an interior p)."""
    prof = classify_point(p)
    m1 = first_sacrifice(prof) if prof.is_boundary else 0
    return 4 * (horizon - 1) + m1 + STAGE_PAD


def solve(p: PointRep, q: PointRep, tau: Rational, horizon: int = DEFAULT_HORIZON) -> HomeoPlan:
    """Construct a plan with certified d(H(p), q) < tau.

    The returned plan satisfies verify_plan(plan, p, q, tau).  Interior to
    interior needs no escapes and moves p to q exactly.  The horizon is in
    1..DEFAULT_HORIZON: a plan file's stage count is bounded by
    stage_count_limit at the default, so a larger one could not be read back.
    """
    if not 1 <= horizon <= DEFAULT_HORIZON:
        raise BadIndices(f"horizon must be in 1..{DEFAULT_HORIZON}, got {horizon}")
    tau = _tolerance(tau)
    p_prof, q_prof = classify_point(p), classify_point(q)
    if p_prof.is_pseudo_interior and q_prof.is_pseudo_interior:
        return HomeoPlan(InteriorMapParams(p, q), None, None)

    # anchor cutoff: the least N >= 1 whose design residual 2^(1-N), inflated
    # by the most the verifying evaluation (at tau/2) can charge its target
    # leg, fits in a quarter of the tolerance; read off q's profile alone
    n_cut = _anchor_cutoff(q_prof, tau, _escape_budget(tau / 2, p_prof.is_boundary))

    # No walk at this tolerance passes stage n_cut.  Verify's evaluation (at
    # tau/2) and a roundtrip at tau give each leg a budget beta >= tau/8.  A
    # reverse leg charged Λ_i <= 5^i has tail 3 * Λ_i / (11 * 2^(b+4i)), at
    # most the tail 3 * 2^-(b+i+3) it would have charged 8^i, so it stops by the
    # least i with 3 * 2^-(b+i+3) < beta: i <= log2(1/tau) + 2.6 - b < n_cut,
    # as 2^(1-n_cut) <= tau/4.  Stages past n_cut meet only the anchors' shared
    # tail knee (n_k > n_cut), of slope 1, so E(n_cut) <= 5 * sum_{k > n_cut}
    # 2^-m_k = 2^-(b+4n_cut) / 3, and Λ_i <= 5^i <= 8^i times the source leg's
    # table entry, at most E(n_cut), is < tau/8 <= beta.
    scheds = tuple(build_schedule(pt, n_cut + 1 + STAGE_PAD) for pt in (p, q))

    # a touched j <= n_cut finalizes by stage j, within the n_cut + 1 stages,
    # so coordinates 1..n_cut are final after depth(n_cut) stages; refuse from
    # the stage lists alone, before any twist is evaluated, naming the first
    # coordinate past the horizon, n_{horizon+1}, and the horizon tau needs
    depths = [s.depth(n_cut) for s in scheds]
    if max(depths) > horizon:
        j = min(s.stages[horizon][0] for s, d in zip(scheds, depths) if d > horizon)
        raise HorizonExceeded(f"coordinate {j} finalizes at stage {horizon + 1}, beyond horizon {horizon};"
                              f" tolerance {_named(tau)} needs horizon {max(depths)}")

    # one forward walk per schedule, to its depth, yields pt's anchors
    def anchors(s: Schedule, pt: PointRep, depth: int) -> PointRep:
        v = _partial(s, _pairs(pt), depth, False)
        return PointRep(tuple(_coprime(*v.get(j, v[0])) for j in range(1, n_cut + 1)), ZERO)

    move = InteriorMapParams(*map(anchors, scheds, (p, q), depths))
    # a plan stores an identity leg as no escape
    return HomeoPlan(move, *(None if s.is_identity else s for s in scheds))


@dataclass(frozen=True)
class _Choice:
    """What an evaluation of a plan at tau fixes before it reads x: the
    target and source legs' stage counts i and j, the radius (the source
    leg's term Λ_i * nums[j] / den plus the target leg's r_rev) and the
    Lipschitz factor outer * 5^j of the map applied."""

    tau: Fraction
    target_stages: int
    source_stages: int
    radius: Fraction
    lipschitz: Fraction


def _choose(plan: HomeoPlan, tau: Fraction) -> _Choice:
    """The plan's choice at tau.

    The target leg's stage count i is chosen before the source leg's, since
    its factor Λ_i = tgt.lipschitz(i, True), the reverse charge of the stages
    that chain, inflates the source leg's radius; the escape budgets keep the
    radius at most tau/2, leaving headroom for verification at doubled
    tolerance.  After the move, the source leg's error at stage j is at most
    the table entry min(lipschitz_bound(move) * tail(j), E(j)), E carried
    coordinate by coordinate (HomeoPlan._source_errors).  The leg walks to
    the least j whose entry, times Λ_i, beats the budget, and is charged that
    product; its own factor stays 5^j.
    """
    src, tgt = (NO_ESCAPE if s is None else s for s in (plan.source_schedule, plan.target_schedule))
    budget = _escape_budget(tau, not (src.is_identity or tgt.is_identity))
    i, r_rev = _least_stage(tgt, budget, True)
    lip_i = tgt.lipschitz(i, True)
    outer = lip_i * lipschitz_bound(plan.move)  # Lipschitz factor of move + target leg
    nums, den = plan._source_errors
    j = _least_below(nums, den, budget / lip_i)
    if j > src.count:  # each entry is <= slope * tail(j), so no stage meets the global budget: refuse
        _least_stage(src, budget / outer, False)
    return _Choice(tau, i, j, Fraction(lip_i * nums[j], den) + r_rev, outer * src.lipschitz(j, False))


def plan_eval_info(plan: HomeoPlan, x: PointRep, tau: Rational) -> EvalInfo:
    """Certified H(x) within tau, with the approximation's Lipschitz bound.

    H composes three legs: source escape, interior move, target unescape.
    An absent escape is evaluated as the identity schedule NO_ESCAPE.  The
    stage counts, radius and factor depend on the plan and tau alone
    (_choose); the plan keeps the choice for the last tau it was evaluated
    at, so an evaluation at that tau only applies it to x.  A refused tau
    makes no choice and leaves the kept one in place.
    """
    return _evaluate(plan, x, tau)


def _evaluate(plan: HomeoPlan, x: PointRep, tau: Rational) -> EvalInfo:
    """plan_eval_info's work; plan_inverse_eval_info runs it on the inverse plan."""
    tau = _tolerance(tau)
    choice = plan.__dict__.get("_choice")
    if choice is None or choice.tau != tau:
        choice = plan.__dict__["_choice"] = _choose(plan, tau)
    src, tgt = plan.source_schedule or NO_ESCAPE, plan.target_schedule or NO_ESCAPE
    i, j = choice.target_stages, choice.source_stages
    # one pair vector through the source walk, the move and the target walk
    value = _point(_partial(tgt, _move(plan.move, _partial(src, _pairs(x), j, False)), i, True))
    return EvalInfo(CertifiedPoint(value, choice.radius, i + j), choice.lipschitz)


def plan_inverse_eval_info(plan: HomeoPlan, y: PointRep, tau: Rational) -> EvalInfo:
    """Certified H^-1(y) within tau: the forward path on the inverse plan."""
    return _evaluate(plan._inverse, y, tau)


def plan_eval(plan: HomeoPlan, x: PointRep, tau: Rational) -> CertifiedPoint:
    return plan_eval_info(plan, x, tau).point


def plan_inverse_eval(plan: HomeoPlan, y: PointRep, tau: Rational) -> CertifiedPoint:
    return plan_inverse_eval_info(plan, y, tau).point


def verify_plan(plan: HomeoPlan, p: PointRep, q: PointRep, tau: Rational) -> bool:
    """Exact check that the plan moves p to within tau of q:
    metric_d(value, q) + radius < tau for the tau/2 evaluation."""
    return plan_report(plan, p, q, tau)["verified"]


def plan_report(plan: HomeoPlan, p: PointRep, q: PointRep, tau: Rational) -> dict:
    """verify_plan plus the numbers behind it, all exact Fractions."""
    tau = _tolerance(tau)
    cp = plan_eval(plan, p, tau / 2)
    bound = metric_d(cp.value, q) + cp.radius
    return {
        "case": plan.case.value,
        "stages_used": cp.stages_used,
        "distance_bound": bound,
        "verified": bound < tau,
    }
