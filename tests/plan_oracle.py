"""Reference plan evaluation, one hand-written branch per plan case.

Kept only to check the library's single evaluation path against: the forward
map spells out each of the four cases, and the inverse mirrors them line by
line with the schedules' roles swapped.  The source leg's error after the
move, E(j), is summed here coordinate by coordinate in Fractions straight
from its definition, and its least stage is found by a linear scan.  A
reverse leg's factor Λ_i is read off a dense matrix product over the
coordinates its stages touch.
"""

from fractions import Fraction
from functools import lru_cache

from hilbertcube import OutOfRange
from hilbertcube.homogeneity import EvalInfo, PlanCase
from hilbertcube.interior import interior_map_eval, interior_map_inverse, lipschitz_bound
from hilbertcube.limits import (
    CertifiedPoint,
    Schedule,
    _least_stage,
    forward_partial_eval,
    forward_tail_bound,
    reverse_partial_eval,
    reverse_tail_bound,
)

from interior_oracle import coord_slopes

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)
CHARGE = Fraction(5)  # Lipschitz factor an evaluation charges one cubed stage (test_stage_factor.py)
ENTRY = 3  # bound on each entry of a cubed stage's weighted linear parts (test_stage_factor.py)


def _matmul(a, b):
    """The dense product a * b of square integer matrices, zero terms of b skipped."""
    cols = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*b)]
    return [[sum(row[k] * x for k, x in col) for col in cols] for row in a]


@lru_cache(maxsize=None)
def _chain_factors(source, i: int, cap) -> tuple:
    """Λ_0..Λ_i of source's schedule: Λ_k = min(the largest column sum of
    B_1 * ... * B_k, cap * Λ_{k-1}), Λ_0 = 1, where B_k is the identity on
    the touched coordinates with ENTRY at the four entries of stage k's cell
    (n_k, m_k).  An untouched coordinate's column sums to 1."""
    stages = Schedule(source, i).stages
    index = {c: r for r, c in enumerate(sorted({c for cell in stages for c in cell}))}
    unit = [[int(r == c) for c in range(len(index))] for r in range(len(index))]
    product, out = unit, [1]
    for n, m in stages:
        step = [row[:] for row in unit]
        for r in (index[n], index[m]):
            step[r][index[n]] = step[r][index[m]] = ENTRY
        product = _matmul(product, step)
        out.append(min(max(map(sum, zip(*product))), cap * out[-1]))
    return tuple(out)


def chain_factor(s, i: int, cap=None):
    """Λ_i of the reverse leg on s's stages i down to 1, derived past s's
    count from its source, with cap CHARGE unless given; 1 for the identity.
    The products are kept per source to the next multiple of 64 stages."""
    if s.is_identity:
        return 1
    return _chain_factors(s.source, -(-(i + 1) // 64) * 64, CHARGE if cap is None else cap)[i]


def coordinate_slope(move, c: int, rounded: bool) -> Fraction:
    """The larger slope of the move's coordinate c (the tail's past the
    anchors), or the least power of two at or above it."""
    src, tgt = move.source, move.target
    p, q = (src.coord(c), tgt.coord(c)) if c <= move.anchor_count else (src.tail, tgt.tail)
    slope = max(coord_slopes(p, q))
    if not rounded:
        return slope
    e = max(0, slope.numerator.bit_length() - slope.denominator.bit_length() - 1)
    while 2**e < slope:
        e += 1
    return Fraction(2**e)


def moved_tail_oracle(s, move, rounded: bool = True) -> list[Fraction]:
    """E(j) for j = 0..count, a bound on d(M(S_j x), M(S x)).  Each stage
    k > j moves n_k by at most 3 * 2^(n_k - m_k) and m_k by at most 3; the
    move scales a coordinate's total by its slope, capped at 2, the width of
    [-1, 1].  Stages past the count add, per stage, 2 on m_k and 3 * 2^(n_k -
    m_k) times the largest slope past n_count on n_k, with m_k = base + 4k.
    Stages join one at a time from the last, each re-capping the two
    coordinates it moves."""
    slopes = {}

    def slope(c):
        if c not in slopes:
            slopes[c] = coordinate_slope(move, c, rounded)
        return slopes[c]

    n_count = s.stages[-1][0] if s.stages else 0
    # through the first coordinate on the tail's knee
    past = max(slope(c) for c in range(n_count + 1, max(n_count, move.anchor_count) + 2))
    beyond = (2 + 3 * past) / (15 * TWO ** (s.base + 4 * s.count))
    moved, total, out = {}, ZERO, [beyond]
    for n, m in reversed(s.stages):
        for c, d in ((n, Fraction(3 * 2**n, 2**m)), (m, Fraction(3))):
            old = moved.get(c, ZERO)
            moved[c] = old + d
            total += (min(slope(c) * moved[c], TWO) - min(slope(c) * old, TWO)) / 2**c
        out.append(total + beyond)
    return out[::-1]


def _source_leg(s, move, x, budget: Fraction, lip_i: Fraction):
    """(stage j, H's source term, M(S_j x)): the least j with min(outer *
    tail(j), lip_i * E(j)) < budget, by a linear scan; none within the count
    refuses as the global slope's stage search does."""
    outer = lip_i * lipschitz_bound(move)
    for j, moved in enumerate(moved_tail_oracle(s, move)):
        err = min(outer * forward_tail_bound(s, j), lip_i * moved)
        if err < budget:
            return j, err, interior_map_eval(move, forward_partial_eval(s, x, j))
    _least_stage(s, budget / outer, False)
    raise AssertionError("the global slope's stage search let a refused tolerance through")


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
        j, err, value = _source_leg(plan.source_schedule, plan.move, x, tau / 2, ONE)
        return EvalInfo(CertifiedPoint(value, err, j), lip * CHARGE**j)
    if plan.case == PlanCase.INTERIOR_BOUNDARY:
        w = interior_map_eval(plan.move, x)
        i = _least_stage(plan.target_schedule, tau / 2, True)[0]
        value = reverse_partial_eval(plan.target_schedule, w, i)
        r = reverse_tail_bound(plan.target_schedule, i)
        return EvalInfo(CertifiedPoint(value, r, i), chain_factor(plan.target_schedule, i) * lip)
    i = _least_stage(plan.target_schedule, tau / 4, True)[0]
    r_rev = reverse_tail_bound(plan.target_schedule, i)
    lam = chain_factor(plan.target_schedule, i)
    j, err, w = _source_leg(plan.source_schedule, plan.move, x, tau / 4, lam)
    value = reverse_partial_eval(plan.target_schedule, w, i)
    return EvalInfo(
        CertifiedPoint(value, err + r_rev, i + j),
        lam * lip * CHARGE**j,
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
        return EvalInfo(CertifiedPoint(value, r, i), chain_factor(plan.source_schedule, i) * lip)
    if plan.case == PlanCase.INTERIOR_BOUNDARY:
        j, err, value = _source_leg(plan.target_schedule, inv_move, y, tau / 2, ONE)
        return EvalInfo(CertifiedPoint(value, err, j), lip * CHARGE**j)
    i = _least_stage(plan.source_schedule, tau / 4, True)[0]
    r_rev = reverse_tail_bound(plan.source_schedule, i)
    lam = chain_factor(plan.source_schedule, i)
    j, err, w = _source_leg(plan.target_schedule, inv_move, y, tau / 4, lam)
    value = reverse_partial_eval(plan.source_schedule, w, i)
    return EvalInfo(
        CertifiedPoint(value, err + r_rev, i + j),
        lam * lip * CHARGE**j,
    )
