"""Curves of certified evaluation cost over the tolerance, from the public API.

Usage, from the repository root:

    python3 tools/curves.py > curves.json

For each plan pair (the four endpoint cases and const-1 -> origin) and each
tolerance 2^-10, 2^-20, 2^-40 and 2^-64, it solves the plan at tau, records
the byte count of the plan's JSON as the CLI writes it, and evaluates H at p
and H^-1 at q at the same tau.  Each evaluation's row
holds the stages walked, the bit length of the value's largest denominator
and of the radius's denominator, and microseconds per evaluation (the fastest
of repeated calls).  A tolerance solve refuses is recorded as refused.
The library is imported from src/ of this checkout.  The script only
measures: it checks and pins nothing.
"""

from __future__ import annotations

import json
import platform
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hilbertcube import HorizonExceeded, make_point, plan_eval_info, plan_inverse_eval_info, solve  # noqa: E402
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


def _evaluation(fn, plan, x, tau: Fraction) -> dict:
    info = fn(plan, x, tau)
    value = info.point.value
    return {
        "stages": info.point.stages_used,
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
            row["forward"] = _evaluation(plan_eval_info, plan, p, tau)
            row["inverse"] = _evaluation(plan_inverse_eval_info, plan, q, tau)
            rows.append(row)
    return rows


def main() -> int:
    out = {"python": platform.python_version(), "machine": platform.machine(), "rows": curves()}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
