"""Reference plan evaluation, one hand-written branch per plan case.

Kept only to check the library's single evaluation path against: the forward
map spells out each of the four cases, and the inverse mirrors them line by
line with the schedules' roles swapped.
"""

from fractions import Fraction

from hilbertcube import OutOfRange
from hilbertcube.homogeneity import EvalInfo, PlanCase
from hilbertcube.interior import interior_map_eval, interior_map_inverse, lipschitz_bound
from hilbertcube.limits import (
    CertifiedPoint,
    _least_stage,
    h_eval,
    reverse_partial_eval,
    reverse_tail_bound,
)

ZERO = Fraction(0)
EIGHT = Fraction(8)


def plan_eval_info_cases(plan, x, tau) -> EvalInfo:
    """Certified H(x) within tau, branching on plan.case."""
    tau = Fraction(tau)
    if tau <= 0:
        raise OutOfRange(f"tolerance must be positive, got {tau}")
    lip = lipschitz_bound(plan.move)
    if plan.case == PlanCase.INTERIOR_INTERIOR:
        value = interior_map_eval(plan.move, x)
        return EvalInfo(CertifiedPoint(value, ZERO, 0), lip)
    if plan.case == PlanCase.BOUNDARY_INTERIOR:
        z = h_eval(plan.source_schedule, x, tau / (2 * lip))
        value = interior_map_eval(plan.move, z.value)
        return EvalInfo(
            CertifiedPoint(value, lip * z.radius, z.stages_used),
            lip * EIGHT**z.stages_used,
        )
    if plan.case == PlanCase.INTERIOR_BOUNDARY:
        w = interior_map_eval(plan.move, x)
        i = _least_stage(plan.target_schedule, tau / 2, True)[0]
        value = reverse_partial_eval(plan.target_schedule, w, i)
        r = reverse_tail_bound(plan.target_schedule, i)
        return EvalInfo(CertifiedPoint(value, r, i), EIGHT**i * lip)
    i = _least_stage(plan.target_schedule, tau / 4, True)[0]
    r_rev = reverse_tail_bound(plan.target_schedule, i)
    inner = (tau / 4) / (EIGHT**i * lip)
    z = h_eval(plan.source_schedule, x, inner)
    w = interior_map_eval(plan.move, z.value)
    value = reverse_partial_eval(plan.target_schedule, w, i)
    radius = EIGHT**i * lip * z.radius + r_rev
    return EvalInfo(
        CertifiedPoint(value, radius, i + z.stages_used),
        EIGHT**i * lip * EIGHT**z.stages_used,
    )


def plan_inverse_eval_info_cases(plan, y, tau) -> EvalInfo:
    """Certified H^-1(y) within tau; mirror of plan_eval_info_cases."""
    tau = Fraction(tau)
    if tau <= 0:
        raise OutOfRange(f"tolerance must be positive, got {tau}")
    inv_move = interior_map_inverse(plan.move)
    lip = lipschitz_bound(inv_move)
    if plan.case == PlanCase.INTERIOR_INTERIOR:
        value = interior_map_eval(inv_move, y)
        return EvalInfo(CertifiedPoint(value, ZERO, 0), lip)
    if plan.case == PlanCase.BOUNDARY_INTERIOR:
        w = interior_map_eval(inv_move, y)
        i = _least_stage(plan.source_schedule, tau / 2, True)[0]
        value = reverse_partial_eval(plan.source_schedule, w, i)
        r = reverse_tail_bound(plan.source_schedule, i)
        return EvalInfo(CertifiedPoint(value, r, i), EIGHT**i * lip)
    if plan.case == PlanCase.INTERIOR_BOUNDARY:
        z = h_eval(plan.target_schedule, y, tau / (2 * lip))
        value = interior_map_eval(inv_move, z.value)
        return EvalInfo(
            CertifiedPoint(value, lip * z.radius, z.stages_used),
            lip * EIGHT**z.stages_used,
        )
    i = _least_stage(plan.source_schedule, tau / 4, True)[0]
    r_rev = reverse_tail_bound(plan.source_schedule, i)
    inner = (tau / 4) / (EIGHT**i * lip)
    z = h_eval(plan.target_schedule, y, inner)
    w = interior_map_eval(inv_move, z.value)
    value = reverse_partial_eval(plan.source_schedule, w, i)
    radius = EIGHT**i * lip * z.radius + r_rev
    return EvalInfo(
        CertifiedPoint(value, radius, i + z.stages_used),
        EIGHT**i * lip * EIGHT**z.stages_used,
    )
