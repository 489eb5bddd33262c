"""Curves of certified evaluation cost over the tolerance, from the public API.

Usage, from the repository root:

    python3 tools/curves.py > curves.json

For each plan pair (the four endpoint cases and const-1 -> origin) and each
tolerance 2^-10, 2^-20, 2^-40 and 2^-64, it solves the plan at tau, records
the byte count of the plan's JSON as the CLI writes it, and evaluates H at p
and H^-1 at q at the same tau.  Each evaluation's row
holds the stages walked, and each leg's share of them as the evaluation's
choice at tau fixes it (the source escape's, then the target unescape's),
the bit length of the value's largest denominator and of the radius's
denominator, microseconds per evaluation (the fastest of repeated calls)
and the attained share (d(v, v') + r') / r of its certificate (v, r), with
(v', r') the same evaluation at tau * 2^-24.  The true value is within r' of
v', so a share of at most 1 proves the certificate at that point; a share
far below 1 shows a radius larger than the point needs.  The share is null
for a radius of 0.  A tolerance solve refuses is recorded as refused.
The size ladder gives milliseconds (the fastest of repeated calls) of
metric_d and of interior_map_eval (a move whose anchors and point all have
the given number of entries) at 20k, 80k and 320k entries, on seeded
points whose entries have denominators 2^e * o, e up to 64 and o an odd
number below 64: walks scale a value's denominators by powers of two, so
odd parts repeat while denominators spread.
The diagnose rows give milliseconds (the fastest of repeated calls) and the
findings count of twist_diagnostics on the cells of the benchmark's
diagnose-grid workload, its seeded cell fixed at (5, 6), each in both
variants and at grids 1/32 and 1/64.
The library is imported from src/ of this checkout.  The script only
measures: it checks and pins nothing.
"""

from __future__ import annotations

import json
import platform
import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hilbertcube import (  # noqa: E402
    HorizonExceeded,
    InteriorMapParams,
    Variant,
    interior_map_eval,
    make_point,
    metric_d,
    plan_eval_info,
    plan_inverse_eval_info,
    solve,
    twist_diagnostics,
)
from hilbertcube.homogeneity import _choose  # noqa: E402
from hilbertcube.serialize import dump_json, plan_to_obj  # noqa: E402

F = Fraction
POINTS = {
    "int_a": make_point([F(1, 3), F(-1, 2)], F(1, 5)),
    "int_b": make_point([F(2, 7)], F(-3, 8)),
    "bnd_a": make_point([1, F(1, 2), -1], F(1, 4)),
    "bnd_b": make_point([F(-1, 3)], -1),
    "ones": make_point([], 1),
    "origin": make_point([], 0),
}
PAIRS = (("int_a", "int_b"), ("bnd_a", "int_b"), ("int_a", "bnd_b"), ("bnd_a", "bnd_b"), ("ones", "origin"))
TAU_EXPONENTS = (10, 20, 40, 64)
TIMED_S, TIMED_CALLS = 0.1, 5
LADDER_ENTRIES = (20_000, 80_000, 320_000)
LADDER_SEED = 15
DIAGNOSE_CELLS = ((1, 2), (1, 4), (2, 3), (3, 12), (5, 6))
DIAGNOSE_GRIDS = (F(1, 32), F(1, 64))


def _bits(x: Fraction) -> int:
    return x.denominator.bit_length()


def _micros(fn, *args) -> float:
    """The fastest of repeated calls, in microseconds: at least TIMED_CALLS
    calls and TIMED_S seconds.  A shared host's bursts slow some calls, so
    the minimum is the steadiest figure of the call's own cost."""
    best, calls, start = float("inf"), 0, perf_counter()
    while calls < TIMED_CALLS or perf_counter() - start < TIMED_S:
        t0 = perf_counter()
        fn(*args)
        best = min(best, perf_counter() - t0)
        calls += 1
    return round(best * 1e6, 1)


def _share(fn, plan, x, tau: Fraction, cp) -> float | None:
    """(d(v, v') + r') / r for cp = (v, r), to 3 significant digits."""
    if not cp.radius:
        return None
    fine = fn(plan, x, tau / 2**24).point
    return float(f"{float((metric_d(cp.value, fine.value) + fine.radius) / cp.radius):.3g}")


def _evaluation(fn, plan, x, tau: Fraction, legs) -> dict:
    """fn(plan, x, tau) measured; legs is the plan whose legs it walks,
    plan itself forward and its inverse plan backward."""
    info, choice = fn(plan, x, tau), _choose(legs, tau)
    value = info.point.value
    return {
        "share": _share(fn, plan, x, tau, info.point),
        "stages": info.point.stages_used,
        "source_stages": choice.source_stages,
        "target_stages": choice.target_stages,
        "value_bits": max(map(_bits, (*value.prefix, value.tail))),
        "radius_bits": _bits(info.point.radius),
        "us": _micros(fn, plan, x, tau),
    }


def curves() -> list[dict]:
    rows = []
    for p_name, q_name in PAIRS:
        p, q = POINTS[p_name], POINTS[q_name]
        for e in TAU_EXPONENTS:
            tau = F(1, 2**e)
            row = {"pair": f"{p_name}->{q_name}", "tau": f"2^-{e}"}
            try:
                plan = solve(p, q, tau)
            except HorizonExceeded as exc:
                rows.append({**row, "refused": str(exc)})
                continue
            row["plan_bytes"] = len(dump_json(plan_to_obj(plan)).encode())
            row["forward"] = _evaluation(plan_eval_info, plan, p, tau, plan)
            row["inverse"] = _evaluation(plan_inverse_eval_info, plan, q, tau, plan._inverse)
            rows.append(row)
    return rows


def _seeded_point(rng: random.Random, entries: int, interior: bool):
    def entry() -> Fraction:
        d = rng.randrange(1, 64, 2) << rng.randint(0, 64)
        hi = d - 1 if interior else d
        return F(rng.randint(-hi, hi), d)

    return make_point([entry() for _ in range(entries)], entry())


def ladder() -> list[dict]:
    """Milliseconds of metric_d and interior_map_eval per entry count."""
    rng, rows = random.Random(LADDER_SEED), []
    for n in LADDER_ENTRIES:
        p, q, x = (_seeded_point(rng, n, interior) for interior in (True, True, False))
        move = InteriorMapParams(p, q)
        rows.append({"entries": n, "metric_d_ms": round(_micros(metric_d, p, x) / 1e3, 2),
                     "interior_map_eval_ms": round(_micros(interior_map_eval, move, x) / 1e3, 2)})
    return rows


def diagnose() -> list[dict]:
    """Milliseconds and findings of twist_diagnostics per variant, cell and grid."""
    rows = []
    for variant in Variant:
        for n, m in DIAGNOSE_CELLS:
            for grid in DIAGNOSE_GRIDS:
                findings = len(twist_diagnostics(variant, n, m, grid).findings)
                rows.append({"variant": variant.value, "cell": f"{n},{m}", "grid": str(grid), "findings": findings,
                             "ms": round(_micros(twist_diagnostics, variant, n, m, grid) / 1e3, 2)})
    return rows


def main() -> int:
    out = {"python": platform.python_version(), "machine": platform.machine(), "rows": curves(),
           "ladder": ladder(), "diagnose": diagnose()}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
