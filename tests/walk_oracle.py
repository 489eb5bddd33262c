"""Slow reference formulas for the schedule, its walk, the tail-bound
search and the metric.

Kept only to check the library's merged schedule, integer walk, one-walk
and closed-form paths and its integer metric against: the stage tuple
comes from the construction's pool of unhandled indices, a walk applies
twist_eval once per stage in Fractions, each coordinate's final value comes
from its own walk from stage 1, each tail bound is summed from scratch, the
least stage is a linear scan and the metric is summed one Fraction term at
a time.
"""

import heapq
from fractions import Fraction

from hilbertcube import BadIndices, CellMap, HorizonExceeded, MapKind, OutOfRange, Variant, twist_eval
from hilbertcube.cube import PointRep, classify_point
from hilbertcube.homogeneity import HomeoPlan
from hilbertcube.interior import InteriorMapParams
from hilbertcube.limits import Schedule

from plan_oracle import chain_factor

ZERO = Fraction(0)
CHARGE = 5  # Lipschitz factor an evaluation charges one cubed stage (test_stage_factor.py proves it)


def build_schedule_pool(p, count):
    """The stage tuple of p's first `count` stages by the construction's
    rule: n_k is the least index of a pool of unhandled boundary indices and
    sacrificed m's (boundary indices are pulled into it up to n_1, then up
    to m_{k-1}), and m_k is the least multiple of 4 above m_{k-1} and n_k
    and at least 4k."""
    if count < 0:
        raise BadIndices(f"stage count must be >= 0, got {count}")
    profile = classify_point(p)
    if profile.is_pseudo_interior:
        return ()
    pool, in_pool, pulled_upto = [], set(), 0

    def pull(bound):
        nonlocal pulled_upto
        for j in range(pulled_upto + 1, bound + 1):
            if profile.contains(j) and j not in in_pool:
                heapq.heappush(pool, j)
                in_pool.add(j)
        pulled_upto = max(pulled_upto, bound)

    stages, m_prev = [], 0
    for k in range(1, count + 1):
        pull(profile.first() if k == 1 else m_prev)
        n = heapq.heappop(pool)
        in_pool.discard(n)
        m = max(m_prev + 4, 4 * k, 4 * (n // 4) + 4)
        stages.append((n, m))
        heapq.heappush(pool, m)
        in_pool.add(m)
        m_prev = m
    return tuple(stages)


def partial_walk(s, p, i, reverse=False):
    """Stages 1..i applied to p (cw stages i down to 1 if reverse), one
    twist_eval per stage."""
    if i < 0:
        raise BadIndices(f"stage index must be >= 0, got {i}")
    if i > s.count:
        raise HorizonExceeded(f"stage {i} requested but only {s.count} stages are materialized")
    kind = MapKind.TWIST_CW_CUBED if reverse else MapKind.TWIST_CCW_CUBED
    cur = {}
    for k in range(i, 0, -1) if reverse else range(1, i + 1):
        n, m = s.stages[k - 1]
        cur[n], cur[m] = twist_eval(CellMap(kind, Variant.CORRECTED, n, m),
                                    cur.get(n, p.coord(n)), cur.get(m, p.coord(m)))
    if not cur:
        return p
    width = max(max(cur), len(p.prefix))
    return PointRep(tuple(cur.get(j, p.coord(j)) for j in range(1, width + 1)), p.tail)


def metric_d_sum(p, q):
    """d(p, q) summed term by term in Fractions, the tail as |tail_p - tail_q| * 2^-n."""
    n = max(len(p.prefix), len(q.prefix))
    total = ZERO
    w = Fraction(1, 2)
    for i in range(1, n + 1):
        total += abs(p.coord(i) - q.coord(i)) * w
        w /= 2
    return total + abs(p.tail - q.tail) * Fraction(1, 2**n)


def final_coordinate_rewalk(s, p, j):
    """(stage, value) of coordinate j, re-walking stages 1..k for n_k = j;
    raises HorizonExceeded for a j touched but not yet finalized."""
    ns, ms = tuple(n for n, _ in s.stages), tuple(m for _, m in s.stages)
    if j in ns:
        k = ns.index(j) + 1
        return k, partial_walk(s, p, k).coord(j)
    touched = classify_point(p).contains(j) or j in ms
    if not touched and not s.is_identity:
        if ms and all(ms[k] == ms[0] + 4 * k for k in range(len(ms))):
            touched = j >= ms[0] and (j - ms[0]) % 4 == 0
        else:
            touched = j % 4 == 0 and j > (ms[-1] if ms else 0)
    if touched:
        raise HorizonExceeded(f"coordinate {j} is not finalized within {s.count} stages")
    return 0, p.coord(j)


def final_coordinates_rewalk(s, p, upto):
    """{j: (stage, value)} for j <= upto, one re-walk per coordinate; a j
    touched but not yet finalized is left out."""
    out = {}
    for j in range(1, upto + 1):
        try:
            out[j] = final_coordinate_rewalk(s, p, j)
        except HorizonExceeded:
            pass
    return out


def plan_from_anchors(plan, p, q, source_final, target_final):
    """plan with its interior move rebuilt from per-coordinate final values,
    as solve built it before it walked each schedule once."""
    src, tgt = [], []
    for j in range(1, plan.move.anchor_count + 1):
        s_j = p.coord(j) if source_final is None else source_final.get(j, (0, None))[1]
        t_j = q.coord(j) if target_final is None else target_final.get(j, (0, None))[1]
        if s_j is None or t_j is None:
            s_j = t_j = ZERO
        src.append(s_j)
        tgt.append(t_j)
    move = InteriorMapParams(PointRep(tuple(src), ZERO), PointRep(tuple(tgt), ZERO))
    return HomeoPlan(move, plan.source_schedule, plan.target_schedule)


def _m_last(s):
    """m_count; for 0 stages m_0 = m_1 - 4, m_1 read off the schedule continued."""
    return s.stages[-1][1] if s.stages else Schedule(s.source, 1).stages[0][1] - 4


def forward_tail_sum(s, i):
    if s.is_identity:
        return ZERO
    total = sum((Fraction(3, 2**m) for _, m in s.stages[i:]), ZERO)
    return total + Fraction(1, 5) / 2 ** _m_last(s)


def reverse_tail_sum(s, i, lam=None):
    """Stage k > i moves by at most 3 * 2^-m_k, inflated by the factor of
    stages 1..k-1, at most lam * CHARGE^(k-1-i), lam = Λ_i unless given
    (plan_oracle.chain_factor)."""
    if s.is_identity:
        return ZERO
    lam, total = chain_factor(s, i) if lam is None else lam, ZERO
    for k in range(i + 1, s.count + 1):
        total += lam * CHARGE ** (k - 1 - i) * Fraction(3, 2 ** s.stages[k - 1][1])
    # stages past the count: m_k = m_count + 4t, a geometric sum of ratio CHARGE / 16
    return total + Fraction(3 * lam * CHARGE ** (s.count - i), (16 - CHARGE) * 2 ** _m_last(s))


def least_stage_scan(s, tau, bound_fn):
    """First i in 0..count with bound_fn(s, i) < tau.  Past the count, the
    refusal names the first i that would do on the schedule of s's source
    continued, scanned one stage longer at a time."""
    if tau <= 0:
        raise OutOfRange(f"tolerance must be positive, got {tau}")
    for i in range(s.count + 1):
        if bound_fn(s, i) < tau:
            return i
    need = s.count + 1
    while bound_fn(Schedule(s.source, need), need) >= tau:
        need += 1
    raise HorizonExceeded(f"tolerance {tau} needs more than the {s.count} materialized stages;"
                          f" it needs {need} stages")
