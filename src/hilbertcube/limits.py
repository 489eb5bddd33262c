"""Staged twist limits: schedules, partial evaluation, certified tails.

A boundary point is pushed off the pseudo-boundary by an infinite composition
of cubed counterclockwise twists, one per stage.  Stage k acts on the cell
(n_k, m_k): n_k is the smallest boundary index not yet handled (the twist
moves that coordinate strictly inside) and m_k is a fresh multiple of 4 whose
coordinate the twist sacrifices to the boundary, to be handled in its turn.
The geometric budget epsilon_k = 3 * 2^(-(k+3)) makes the forward composition
converge and keeps the two-sided gap summable, and m_k >= 4k realizes it.

Everything here is exact: tail bounds are closed-form geometric sums, partial
evaluations are rational, and certified values carry the bound actually used.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import neg

from .cube import (
    BoundaryProfile,
    PairVector,
    PointRep,
    Rational,
    _check_index,
    _coprime,
    _exact,
    _pairs,
    _point,
    classify_point,
)
from .errors import BadIndices, HorizonExceeded, OutOfRange
from .twists import CellMap, MapKind, Variant, _walk

ZERO = Fraction(0)

# Lipschitz factor charged to one cubed twist stage, ccw or cw.  In weighted
# coordinates (x * 2^-n, y * 2^-m) each corrected clause is affine with a
# cell-independent linear part, and over the 64 words of three clauses the
# largest L1 norm is 5 and the largest entry 3 (tests/test_stage_factor.py)
STAGE_LIPSCHITZ = 5
STAGE_ENTRY = 3


def first_sacrifice(profile: BoundaryProfile) -> int:
    """m_1 of a boundary point's schedule: the least multiple of 4 above its
    first boundary index."""
    return 4 * (profile.first() // 4) + 4


@dataclass(frozen=True)
class Schedule:
    """The first `count` stages of the (infinite) schedule of a source point.

    The construction's rule: n_k is the least index in the pool (boundary
    indices not yet handled plus the sacrificed m's), and m_k is the least
    multiple of 4 above m_{k-1} and n_k and at least 4k.  The pool holds
    m_{k-1}, so n_k <= m_{k-1}, and with m_{k-1} >= 4(k-1) that makes m_k
    always m_{k-1} + 4: m_k = m_1 + 4(k-1), with m_1 = first_sacrifice.
    So a schedule is its source and its count; the stage list is derived.
    The schedule is infinite whenever the source meets the boundary at all
    (every m_k re-enters the pool); a pseudo-interior source has count 0,
    whatever count is asked for, and its limit map is the identity, all
    tail bounds 0.  Stage k's budget is eps_k = 3 * 2^-(k+3).  The source's
    profile, the stage list and each stage map are built once, on first
    use; not being fields, they stay out of equality, hashing and repr.
    """

    source: PointRep
    count: int

    def __post_init__(self):
        if type(self.count) is not int or self.count < 0:
            raise BadIndices(f"stage count must be >= 0, got {self.count}")
        if self.count and self.is_identity:
            object.__setattr__(self, "count", 0)

    @cached_property
    def source_profile(self) -> BoundaryProfile:
        return classify_point(self.source)

    @cached_property
    def stages(self) -> tuple[tuple[int, int], ...]:
        """stages[k-1] = (n_k, m_k): the pool hands out every index up to
        m_{k-1} in order, so n_1, n_2, ... are the boundary indices merged
        with the m's, without duplicates, and they strictly increase."""
        if not self.count:
            return ()
        m1 = first_sacrifice(self.source_profile)
        ms = range(m1, m1 + 4 * self.count, 4)
        merged = (n for n, _ in itertools.groupby(heapq.merge(self.source_profile, ms)))
        return tuple(zip(itertools.islice(merged, self.count), ms))

    @property
    def is_identity(self) -> bool:
        return self.source_profile.is_pseudo_interior

    def depth(self, j: int) -> int:
        """Number of stages with n_k <= j: after that many stages
        coordinates 1..j are final.  The n's are the boundary indices merged
        with the m's, so it counts the boundary indices up to j and the
        multiples of 4 from m_1 to j that are not boundary indices, capped
        by the count: no stage list is built."""
        if not self.count:
            return 0
        prof, m1 = self.source_profile, self.base + 4
        fours = lambda lo: max(0, j // 4 - (lo - 1) // 4)  # multiples of 4 in lo..j
        tail = max(0, j - prof.tail_start + 1) - fours(max(prof.tail_start, m1)) if prof.tail_is_boundary else 0
        return min(self.count, fours(m1) + tail + sum(i <= j and (i % 4 != 0 or i < m1) for i in prof.explicit_indices))

    @cached_property
    def base(self) -> int:
        """b with m_k = b + 4k, read off the source's profile whatever the
        count, so even a 0-stage bound uses m_1.  0 for a pseudo-interior source."""
        return 0 if self.is_identity else first_sacrifice(self.source_profile) - 4

    def lipschitz(self, i: int, reverse: bool) -> int:
        """Lipschitz factor charged to stages 1..i: L^i forward, L = STAGE_LIPSCHITZ.
        Reverse, the cw stages i down to 1: Λ_i = min(max entry of 1ᵀB_1⋯B_i,
        L * Λ_{i-1}), Λ_0 = 1, B_k the identity with STAGE_ENTRY at the four
        entries of (n_k, m_k).  The row w = 1ᵀB_1⋯B_k gains B_k as w[n_k] =
        w[m_k] = STAGE_ENTRY * (w[n_k] + w[m_k]), one stage at a time, and the
        factors are kept, from stages derived past the count too."""
        _require_stage_index(i)
        if not reverse:
            return STAGE_LIPSCHITZ**i
        if self.is_identity:
            return 1
        lams, w = self.__dict__.setdefault("_chain", ([1], {0: 1}))  # w[0]: the largest entry so far
        if len(lams) <= i:
            for n, m in Schedule(self.source, i).stages[len(lams) - 1:]:
                w[n] = w[m] = STAGE_ENTRY * (w.get(n, 1) + w.get(m, 1))
                w[0] = max(w[0], w[n])
                lams.append(min(w[0], STAGE_LIPSCHITZ * lams[-1]))
        return lams[i]

    def tail_bound(self, i: int, reverse: bool) -> Fraction:
        """Bound on the distance from the stage-i partial to the limit, in
        closed form, valid past the count as the stages go on m_k = b + 4k.
        Forward: the displacements 3 * 2^-m_k past i sum to 2^-(b+4i) / 5.
        Reverse: each is inflated by Λ_{k-1} <= L^(k-1-i) * Λ_i, for a sum of at
        most 3 * Λ_i / ((16 - L) * 2^(b+4i)), which falls as Λ_{i+1} <= L * Λ_i
        < 16 * Λ_i.  0 for the identity."""
        _require_stage_index(i)
        if self.is_identity:
            return ZERO
        if reverse:
            return Fraction(3 * self.lipschitz(i, True), (16 - STAGE_LIPSCHITZ) << (self.base + 4 * i))
        return Fraction(1, 5 << (self.base + 4 * i))

    def stages_needed(self, tau: Fraction, reverse: bool) -> tuple[int, Fraction]:
        """Least i whose tail bound is < tau, with that bound, materialized or
        not.  The bound falls as i grows, so the search doubles i and then
        bisects: O(log i) bounds, each of O(i) bits, not i of them."""
        lo, hi = -1, 0  # lo = -1 or bound(lo) >= tau; bound(hi) < tau once the doubling stops
        while self.tail_bound(hi, reverse) >= tau:
            lo, hi = hi, 2 * hi + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self.tail_bound(mid, reverse) >= tau else (lo, mid)
        return hi, self.tail_bound(hi, reverse)

    def _maps(self, i: int, reverse: bool) -> tuple[CellMap, ...]:
        """The cubed twists of stages 1..i, cw for the reverse maps.  A walk
        usually stops well short of the count, so the cached tuple grows to
        the deepest stage walked so far, not to the count."""
        name = "_reverse_maps" if reverse else "_forward_maps"
        maps = self.__dict__.get(name, ())
        if len(maps) < i:
            kind = MapKind.TWIST_CW_CUBED if reverse else MapKind.TWIST_CCW_CUBED
            maps += tuple(CellMap(kind, Variant.CORRECTED, n, m) for n, m in self.stages[len(maps):i])
            self.__dict__[name] = maps
        return maps[:i]


def _floor_log2(x: Fraction) -> int:
    """floor(log2 x) for x > 0: 2^(k-1) < x < 2^(k+1) for k the difference
    of the bit lengths of its numerator and denominator."""
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    return k - 1 if n << max(-k, 0) < d << max(k, 0) else k


def _anchor_cutoff(q_profile: BoundaryProfile, tau: Fraction, budget: Fraction) -> int:
    """n_cut of a plan at tau whose target, of profile q_profile, has escape
    budget `budget` in the verifying evaluation: the least N >= 1 with
    2^(1-N) <= (tau/4) / 8^i*, that is max(1, 1 + 3i* - floor(log2(tau/4))).

    i* bounds the stages the target leg unwinds.  Charged 8 = 2^3 per stage,
    its reverse tail is 3 * 2^-(b+i+3) (b = m_1 - 4), first below the budget
    at i* = max(0, floor(log2(3/budget)) - b - 2); 0 for a pseudo-interior
    target.  The leg is charged Λ_i <= STAGE_LIPSCHITZ^i <= 8^i, so it unwinds
    at most i* stages and is charged at most 8^i*, and plan bytes do not
    depend on the charge."""
    i_star = 0 if q_profile.is_pseudo_interior else \
        max(0, _floor_log2(3 / budget) - first_sacrifice(q_profile) + 2)
    return max(1, 1 + 3 * i_star - _floor_log2(tau / 4))


def build_schedule(p: PointRep, count: int) -> Schedule:
    """Schedule(p, count): the first `count` stages for source point p."""
    return Schedule(p, count)


def schedule_budget_ok(s: Schedule) -> bool:
    """Check the stage list against the geometric budget.

    Stage k must satisfy the paper's m_k >= log2(3 / eps_{k-1}) + 3(k-1) + 1,
    where eps_k = 3 * 2^-(k+3) is stage k's budget: the log is k + 2, so
    the inequality is m_k >= 4k.  Also checks: n and m strictly increasing,
    m_k > n_k and every m_k a multiple of 4.
    """
    prev_n, prev_m = 0, 0
    for k, (n, m) in enumerate(s.stages, 1):
        if n <= prev_n or m <= prev_m or m <= n or m % 4 or m < 4 * k:
            return False
        prev_n, prev_m = n, m
    return True


def _require_stage_index(i: int) -> None:
    if i < 0:
        raise BadIndices(f"stage index must be >= 0, got {i}")


def _require_stage_range(s: Schedule, i: int) -> None:
    _require_stage_index(i)
    if i > s.count:
        raise HorizonExceeded(f"stage {i} requested but only {s.count} stages are materialized")


def forward_tail_bound(s: Schedule, i: int) -> Fraction:
    """Bound on d(limit, stage-i partial), i in 0..count: s.tail_bound."""
    if not s.is_identity:
        _require_stage_range(s, i)
    return s.tail_bound(i, False)


def reverse_tail_bound(s: Schedule, i: int) -> Fraction:
    """Like forward_tail_bound for the inverse composition."""
    if not s.is_identity:
        _require_stage_range(s, i)
    return s.tail_bound(i, True)


def moved_tail_bounds(s: Schedule, exps: tuple[int, ...], slope: Fraction) -> tuple[list[int], int]:
    """min(slope * tail(j), E(j)) for j = 0..count, numerators over one
    denominator, falling as j grows: bounds on d(M(S_j x), M(S x)) for every x,
    S the limit map, S_j its stage-j partial and M a coordinatewise map of
    Lipschitz bound slope = Ln/Ld, coordinate c's slopes at most
    2^exps[min(c, len(exps)) - 1].  0 for the identity.

    Stage k moves coordinate n_k by at most 3 * 2^(n_k - m_k) and m_k by at most
    3 (the displacement 3 * 2^-m_k behind tail_bound, coordinate by coordinate),
    and no coordinate of the cube moves by more than 2.  So M moves coordinate c
    by at most min(2^e_c * its displacement, 2), weighted 2^-c.  A sacrificed m_k
    always reaches the cap (slopes are >= 1), so the m terms past j sum in
    closed form to 2^(1-b-4j) / 15; an n_k term counts while the stage that
    sacrificed n_k, if any, lies at or before j.  Each n_k past the count lies
    past n_count, which bounds its term by 3 * 2^(e - m_k), e the largest
    exponent there: 3 * 2^(e - m_count) / 15 in all.  Over 15 * 2^m_count * Ld,
    E's numerators scale by Ld, and slope * tail(j) is (3 * Ln) << 4(count - j).
    """
    if s.is_identity:
        return [0], 1
    count, last, top = s.count, len(exps) - 1, s.base + 4 * s.count  # top: m_count
    nums = [0] * count + [2 + (3 << max(exps[min(s.stages[-1][0] if count else 0, last):]))]
    terms = {}  # n_k -> stage k's n term, over 15 * 2^top
    for j, (n, m) in zip(range(count - 1, -1, -1), reversed(s.stages)):
        # stage j + 1's m and n terms join; the n term of the later stage on m_{j+1} leaves
        e = exps[n - 1] if n <= last else exps[last]
        terms[n] = t = 30 << (top - n) if e >= m - n else 45 << (top - m + e)
        nums[j] = nums[j + 1] + (30 << (top - m)) + t - terms.get(m, 0)
    ln, ld = slope.numerator, slope.denominator
    return [min(e * ld, (3 * ln) << 4 * (count - j)) for j, e in enumerate(nums)], (15 << top) * ld


def _least_below(nums: list[int], den: int, limit: Fraction) -> int:
    """Least j with nums[j] / den < limit, for non-increasing nums, else
    len(nums): the integer nums[j] < ceil(limit * den), bisected on -nums[j]."""
    return bisect_right(nums, limit.numerator * den // -limit.denominator, key=neg)


@dataclass(frozen=True)
class CertifiedPoint:
    """A computed value plus an exact bound on its distance to the true one."""

    value: PointRep
    radius: Fraction
    stages_used: int


def _partial(s: Schedule, v: PairVector, i: int, reverse: bool) -> PairVector:
    """Stages 1..i applied to the pair vector v in place, stage 1 first, or
    with reverse their inverses, stage i first; returns v."""
    _require_stage_range(s, i)
    maps = s._maps(i, reverse)
    return _walk(reversed(maps) if reverse else maps, v)


def forward_partial_eval(s: Schedule, p: PointRep, i: int) -> PointRep:
    """Stages 1..i applied to p (stage 1 first)."""
    return _point(_partial(s, _pairs(p), i, False))


def reverse_partial_eval(s: Schedule, y: PointRep, i: int) -> PointRep:
    """Inverse of forward_partial_eval(s, ., i): cw stages i down to 1."""
    return _point(_partial(s, _pairs(y), i, True))


def _tolerance(tau: Rational) -> Fraction:
    """tau as an exact Fraction; a tau <= 0 is refused."""
    tau = _exact(tau)
    if tau <= 0:
        raise OutOfRange(f"tolerance must be positive, got {_named(tau)}")
    return tau


def _named(tau: Fraction) -> str:
    """tau as a refusal prints it: its text, or "<n-bit>/<d-bit>" with the bit
    lengths of its numerator and denominator past the digits str() converts."""
    try:
        return str(tau)
    except ValueError:
        return f"{'-' * (tau < 0)}<{tau.numerator.bit_length()}-bit>/<{tau.denominator.bit_length()}-bit>"


def _least_stage(s: Schedule, tau: Rational, reverse: bool) -> tuple[int, Fraction]:
    """Least i whose forward (or reverse) tail bound is < tau, with that
    bound.  A tau past the materialized stages is refused with the count it
    needs."""
    tau = _tolerance(tau)
    i, bound = s.stages_needed(tau, reverse)
    if i > s.count:
        raise HorizonExceeded(f"tolerance {_named(tau)} needs more than the {s.count} materialized"
                              f" stages; it needs {i} stages")
    return i, bound


def h_eval(s: Schedule, x: PointRep, tau: Rational) -> CertifiedPoint:
    """Certified value of the limit map: the least-stage partial whose
    forward tail bound beats tau."""
    i, bound = _least_stage(s, tau, False)
    return CertifiedPoint(forward_partial_eval(s, x, i), bound, i)


def final_coordinate(s: Schedule, p: PointRep, j: int) -> tuple[int, Fraction]:
    """(stage, value) once coordinate j stops moving.

    Coordinate j is finalized at stage k if n_k = j: stages beyond k only
    touch strictly larger indices, so one walk of s.depth(j) stages yields
    it.  A j the schedule never touches is final from the start (stage 0).
    A j touched but not finalized within the materialized stages raises
    HorizonExceeded."""
    _check_index(j)
    k = s.depth(j)
    if k and s.stages[k - 1][0] == j:
        return k, _coprime(*_partial(s, _pairs(p), k, False)[j])
    # the sacrificed m's, materialized or not, are the multiples of 4 above b
    if s.source_profile.contains(j) or (not s.is_identity and j % 4 == 0 and j > s.base):
        raise HorizonExceeded(f"coordinate {j} is not finalized within {s.count} stages")
    return 0, p.coord(j)


def first_attempt_partial(p: PointRep, n: int) -> PointRep:
    """Composition of unit twists on cells (k, k+1) for k = 1..n.

    The demo construction: each stage shifts the diagonal pattern one
    coordinate deeper, and the limit of the partials is not injective."""
    if n < 0:
        raise BadIndices(f"stage count must be >= 0, got {n}")
    stages = (CellMap(MapKind.FIRST_ATTEMPT, Variant.CORRECTED, k, k + 1) for k in range(1, n + 1))
    return _point(_walk(stages, _pairs(p)))
