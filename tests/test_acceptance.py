"""Acceptance criteria, one test per criterion.

Each test prints a single "[acceptance N] PASS/FAIL" line on the live
terminal (capture disabled), then asserts.  Tolerances are exact rationals;
the stated runtime budgets are asserted where the criterion has one.
"""

import random
import time
from fractions import Fraction

from hilbertcube import (
    CellMap,
    InteriorMapParams,
    MapKind,
    Variant,
    build_schedule,
    cell_metric,
    epsilon,
    final_coordinate,
    first_attempt_partial,
    forward_partial_eval,
    interior_map_eval,
    interior_map_inverse,
    lipschitz_sample_check,
    make_point,
    metric_d,
    plan_eval_info,
    plan_inverse_eval_info,
    plan_report,
    schedule_budget_ok,
    solve,
    twist_cell_apply,
    twist_diagnostics,
    twist_eval,
    twist_eval_unchecked,
)

F = Fraction

CELLS = ((1, 2), (1, 4), (2, 3), (3, 12))
INT_A = make_point([F(1, 3), F(-1, 2)], F(1, 5))
INT_B = make_point([F(2, 7)], F(-3, 8))
BND_A = make_point([F(1), F(1, 2), F(-1)], F(1, 4))
BND_B = make_point([F(-1, 3)], F(-1))
CASE_PAIRS = ((INT_A, INT_B), (BND_A, INT_B), (INT_A, BND_B), (BND_A, BND_B))

_DENOMS = (4, 8, 16, 27, 64, 100)


def _rat(rng, interior=False):
    d = rng.choice(_DENOMS)
    hi = d - 1 if interior else d
    return F(rng.randint(-hi, hi), d)


def _point(rng, width=5, interior=False):
    return make_point([_rat(rng, interior) for _ in range(width)], _rat(rng, interior))


def _verdict(capsys, number, failures):
    ok = not failures
    with capsys.disabled():
        print(f"\n[acceptance {number}] {'PASS' if ok else 'FAIL'}")
    assert ok, failures


def test_criterion_01_interior_map_exactness(capsys):
    failures = []
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(50):
        p = _point(rng, rng.randint(0, 6), interior=True)
        q = _point(rng, rng.randint(0, 6), interior=True)
        params = InteriorMapParams(p, q)
        if interior_map_eval(params, p) != q:
            failures.append(("anchor not hit", p, q))
    params = InteriorMapParams(INT_A, INT_B)
    swapped = interior_map_inverse(params)
    for _ in range(100):
        x = _point(rng, rng.randint(0, 6))
        if interior_map_eval(swapped, interior_map_eval(params, x)) != x:
            failures.append(("roundtrip not identity", x))
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(capsys, 1, failures)


def test_criterion_02_first_attempt_collapse(capsys):
    failures = []
    rng = random.Random(202)
    t0 = time.perf_counter()
    ones = make_point([], 1)
    for n in range(1, 17):
        if first_attempt_partial(ones, n) != make_point([0] * n, 1):
            failures.append(f"const-1 pattern broken at stage {n}")
    ts = (F(1), F(-1), F(1, 3), F(-1, 2), F(2, 7), F(7, 8), F(-3, 64), F(99, 100),
          F(-26, 27), F(0))
    assert len(ts) == 10
    for t in ts:
        pt = make_point([], t)
        for n in (4, 7):
            if first_attempt_partial(pt, n) != make_point([0] * n, t):
                failures.append(f"const-{t} pattern broken at stage {n}")

    # consecutive partials stay within the two-cell displacement budget
    samples = [_point(rng, 5) for _ in range(10_000)]
    worst = {n: F(0) for n in (1, 2, 3)}
    for idx, p in enumerate(samples):
        cur = first_attempt_partial(p, 1)
        for n in (1, 2, 3):
            cell = CellMap(MapKind.FIRST_ATTEMPT, Variant.CORRECTED, n + 1, n + 2)
            nxt = twist_cell_apply(cell, cur)
            if idx < 5 and nxt != first_attempt_partial(p, n + 1):
                failures.append(f"incremental stage mismatch at n={n}")
            gap = metric_d(cur, nxt)
            if gap > worst[n]:
                worst[n] = gap
            cur = nxt
    for n in (1, 2, 3):
        bound = 2 * epsilon(n + 1) + 2 * epsilon(n + 2)
        if worst[n] > bound:
            failures.append(f"sampled rho {worst[n]} > {bound} at n={n}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _verdict(capsys, 2, failures)


def test_criterion_03_twist_coherence(capsys):
    failures = []
    t0 = time.perf_counter()
    step = F(1, 64)
    grid = [k * step for k in range(-64, 65)]
    for n, m in CELLS:
        report = twist_diagnostics(Variant.CORRECTED, n, m, step)
        if not report.ok:
            failures.append((f"cell ({n},{m})", report.counts_by_check()))
        if report.points_checked != 129 * 129:
            failures.append(f"cell ({n},{m}) grid size {report.points_checked}")
        for kind in (MapKind.TWIST_CCW, MapKind.TWIST_CW):
            cm = CellMap(kind, Variant.CORRECTED, n, m)
            images = {(x, y): twist_eval(cm, x, y) for x in grid for y in grid}
            for (x, y), (u, v) in images.items():
                if images[(-x, -y)] != (-u, -v):
                    failures.append(f"{cm.label()} not odd at ({x}, {y})")
                    break
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    _verdict(capsys, 3, failures)


def test_criterion_04_verbatim_errata(capsys):
    failures = []
    report = twist_diagnostics(Variant.VERBATIM, 1, 2, F(1, 64))
    edge_hits = [
        f for f in report.findings
        if f.check == "range-containment" and f.witness[0] == 1 and f.witness[1] > 0
    ]
    if not edge_hits:
        failures.append("no range finding on the edge x = 1, y > 0")
    for f in edge_hits:
        kind = MapKind(f.map_label.split()[0])
        cm = CellMap(kind, Variant.VERBATIM, 1, 2)
        u, v = twist_eval_unchecked(cm, *f.witness)
        if max(abs(u), abs(v)) <= 1:
            failures.append(f"witness {f.witness} re-evaluates inside the square")
        if f"({u}, {v})" not in f.observed:
            failures.append(f"observed {f.observed!r} does not match image ({u}, {v})")
    counts = report.counts_by_check()
    if counts != {"displacement": 408, "inverse-roundtrip": 4224, "oracle-roundtrip": 2080,
                  "piece-agreement": 128, "range-containment": 2176}:
        failures.append(f"verbatim (1, 2) counts at grid 1/64 are {counts}")
    _verdict(capsys, 4, failures)


def test_criterion_05_boundary_escape(capsys):
    failures = []
    step = F(1, 64)
    ys = [k * step for k in range(-64, 65)]
    for n, m in CELLS:
        cubed = CellMap(MapKind.TWIST_CCW_CUBED, Variant.CORRECTED, n, m)
        for x in (F(1), F(-1)):
            for y in ys:
                u, v = twist_eval(cubed, x, y)
                if not (abs(u) < 1 and abs(v) == 1):
                    failures.append(f"cell ({n},{m}): ({x}, {y}) -> ({u}, {v})")
    _verdict(capsys, 5, failures)


def test_criterion_06_displacement_and_lipschitz(capsys):
    failures = []
    rng = random.Random(606)
    n, m = 1, 4
    singles = [CellMap(k, Variant.CORRECTED, n, m)
               for k in (MapKind.TWIST_CCW, MapKind.TWIST_CW)]
    cubeds = [CellMap(k, Variant.CORRECTED, n, m)
              for k in (MapKind.TWIST_CCW_CUBED, MapKind.TWIST_CW_CUBED)]
    for _ in range(10_000):
        w = (_rat(rng), _rat(rng))
        for cm in singles:
            if cell_metric(n, m, w, twist_eval(cm, *w)) > epsilon(m):
                failures.append(f"{cm.label()} displacement > eps at {w}")
        for cm in cubeds:
            if cell_metric(n, m, w, twist_eval(cm, *w)) > 3 * epsilon(m):
                failures.append(f"{cm.label()} displacement > 3 eps at {w}")

    pairs = []
    while len(pairs) < 10_000:
        a, b = _point(rng), _point(rng)
        if a != b:
            pairs.append((a, b))
    single_worst = lipschitz_sample_check(CellMap(MapKind.TWIST_CW, Variant.CORRECTED, n, m), pairs)
    cubed_worst = lipschitz_sample_check(CellMap(MapKind.TWIST_CW_CUBED, Variant.CORRECTED, n, m), pairs)
    if single_worst > 2:
        failures.append(f"single expansion {single_worst} > 2")
    if cubed_worst > 8:
        failures.append(f"cubed expansion {cubed_worst} > 8")
    _verdict(capsys, 6, failures)


def test_criterion_07_schedule_arithmetic(capsys):
    failures = []
    ones = make_point([], 1)
    mixed = make_point([F(1, 2), F(1, 2), F(1)], 0)
    for pt, count in ((ones, 8), (mixed, 6)):
        if not schedule_budget_ok(build_schedule(pt, count)):
            failures.append(f"budget violated for {pt}")
    for i in range(1, 65):
        if 4 * (i + 1) != (i + 3) + (3 * i + 1):
            failures.append(f"stage identity fails at i={i}")
    if build_schedule(ones, 4).stages != ((1, 4), (2, 8), (3, 12), (4, 16)):
        failures.append("const-1 schedule mismatch")
    if build_schedule(mixed, 4).stages != ((3, 4), (4, 8), (8, 12), (12, 16)):
        failures.append("mixed-boundary schedule mismatch")
    _verdict(capsys, 7, failures)


def test_criterion_08_end_to_end_homogeneity(capsys):
    failures = []
    t0 = time.perf_counter()
    ones, origin = make_point([], 1), make_point([], 0)
    tau20 = F(1, 2 ** 20)
    plan = solve(ones, origin, tau20)
    rep = plan_report(plan, ones, origin, tau20)
    if not (rep["verified"] and rep["distance_bound"] < tau20):
        failures.append(f"const-1 -> origin bound {rep['distance_bound']}")
    tau10 = F(1, 2 ** 10)
    seen = []
    for p, q in CASE_PAIRS:
        rep = plan_report(solve(p, q, tau10), p, q, tau10)
        seen.append(rep["case"])
        if not rep["verified"]:
            failures.append(f"case {rep['case']} failed at 2^-10")
    if len(set(seen)) != 4:
        failures.append(f"expected all four cases, saw {seen}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s >= 60s")
    _verdict(capsys, 8, failures)


def test_criterion_09_inverse_certificates(capsys):
    failures = []
    rng = random.Random(909)
    tau = F(1, 2 ** 10)
    checked = 0
    for p, q in CASE_PAIRS:
        plan = solve(p, q, tau)
        for _ in range(5):
            x = _point(rng, rng.randint(0, 6))
            fwd = plan_eval_info(plan, x, tau)
            back = plan_inverse_eval_info(plan, fwd.point.value, tau)
            composed = back.point.radius + back.lipschitz * fwd.point.radius
            if metric_d(back.point.value, x) > composed:
                failures.append(f"roundtrip exceeds composed radius at {x}")
            checked += 1
    if checked != 20:
        failures.append(f"checked {checked} points, wanted 20")
    _verdict(capsys, 9, failures)


def test_criterion_10_coordinate_finalization(capsys):
    failures = []
    ones = make_point([], 1)
    s = build_schedule(ones, 8)
    for j in range(1, 9):
        stage, value = final_coordinate(s, ones, j)
        if stage > 8:
            failures.append(f"coordinate {j} not finalized within 8 stages")
            continue
        if not abs(value) < 1:
            failures.append(f"finalized coordinate {j} still on the boundary: {value}")
        for i in range(stage, 9):
            if forward_partial_eval(s, ones, i).coord(j) != value:
                failures.append(f"coordinate {j} moved again at stage {i}")
    _verdict(capsys, 10, failures)
