"""Inputs and checked operations of the three benchmark workloads.

plan-sweep     the write side: solve, plan_report and a plan JSON round trip
               for each (pair, tau).  Cost sits in limits.final_coordinate,
               which re-walks the schedule, so it grows quadratically with the
               stage count; at 2^-64 a boundary target ends in the documented
               HorizonExceeded.
eval-stream    the read side: seeded points through plan_eval_info and
               plan_inverse_eval_info of the four case plans (solved in
               set-up).  It never calls solve or final_coordinate, so a change
               to the coordinate finalization should leave it unchanged, while
               a faster twist kernel should move it.
diagnose-grid  twist_diagnostics on small-denominator grid points: single
               twist applications only, no limits and no plans.

Every operation checks its own output; a check that fails, or any exception
other than a documented HorizonExceeded refusal, makes the operation fail.
The seed only chooses the seeded inputs (two pairs with interior targets,
the evaluation points, one adjacent cell); everything else, including the
pinned digests, is fixed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import hilbertcube as hc
from hilbertcube import cli, serialize

F = Fraction

WORKLOADS = ("plan-sweep", "eval-stream", "diagnose-grid")

TAUS = {"t10": F(1, 2**10), "t20": F(1, 2**20), "t40": F(1, 2**40), "t64": F(1, 2**64)}
EVAL_TAU = "t20"
EVAL_POINTS = 25
GRID = F(1, 32)
GRID_POINTS = (2 * GRID.denominator + 1) ** 2
CELLS = ((1, 2), (1, 4), (2, 3), (3, 12))
VARIANTS = ("corrected", "verbatim")
REFUSED = "refused"
# plan-sweep's items are a fixed curve over pairs and tau levels, from
# interior moves to multi-second refusals, and diagnose-grid's are nine cells
# of different cost: percentiles over them sit on their steps, and the median
# moves from cell to cell with the seeded one.  Their latency unit is the
# whole sweep.
LATENCY_PER_CYCLE = ("plan-sweep", "diagnose-grid")

# the acceptance points of the test suite, plus const-1 and the origin
POINTS = {
    "INT_A": hc.make_point([F(1, 3), F(-1, 2)], F(1, 5)),
    "INT_B": hc.make_point([F(2, 7)], F(-3, 8)),
    "BND_A": hc.make_point([F(1), F(1, 2), F(-1)], F(1, 4)),
    "BND_B": hc.make_point([F(-1, 3)], F(-1)),
    "ONES": hc.make_point([], 1),
    "ORIGIN": hc.make_point([], 0),
}
CASE_PAIRS = (("INT_A", "INT_B"), ("BND_A", "INT_B"), ("INT_A", "BND_B"), ("BND_A", "BND_B"))
FIXED_PAIRS = CASE_PAIRS + (("ONES", "ORIGIN"),)

# the whole-process CLI rows: solve and verify const-1 -> origin at 2^-20
CLI_PAIR = ("ONES", "ORIGIN")
CLI_TAU = "t20"

_DENOMS = (4, 8, 16, 27, 64, 100)


def pair_label(names: tuple[str, str]) -> str:
    return f"{names[0]}-{names[1]}"


def item_label(pair: str, tau: str) -> str:
    return f"{pair}@{tau}"


def cell_label(variant: str, n: int, m: int) -> str:
    return f"{variant}-{n}-{m}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- inputs ----------------------------------------------------------------


def _rational(rng: random.Random, interior: bool) -> Fraction:
    d = rng.choice(_DENOMS)
    hi = d - 1 if interior else d
    return F(rng.randint(-hi, hi), d)


def _point(rng: random.Random, width: int, interior: bool):
    return hc.make_point([_rational(rng, interior) for _ in range(width)], _rational(rng, interior))


def _seeded_pairs(rng: random.Random) -> list:
    # Seeded pairs have pseudo-interior targets: a boundary target's cost grows
    # quadratically with its stage count and dominates the sweep, so a seeded
    # one would make the sweep's time depend on the seed.  The fixed pairs
    # cover boundary targets.
    prefix = [_rational(rng, True) for _ in range(4)]
    prefix[rng.randrange(3)] = F(rng.choice((1, -1)))
    return [("SEED_II", (_point(rng, 4, True), _point(rng, 4, True))),
            ("SEED_BI", (hc.make_point(prefix, _rational(rng, True)), _point(rng, 4, True)))]


def generate_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs: fixed ones plus those drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "plan-sweep":
        pairs = [(pair_label(names), (POINTS[names[0]], POINTS[names[1]])) for names in FIXED_PAIRS]
        return {"pairs": pairs + _seeded_pairs(rng), "taus": dict(TAUS)}
    if workload == "eval-stream":
        pairs = [(pair_label(names), (POINTS[names[0]], POINTS[names[1]])) for names in CASE_PAIRS]
        return {"pairs": pairs, "tau": EVAL_TAU,
                "points": [_point(rng, 5, False) for _ in range(EVAL_POINTS)]}
    if workload == "diagnose-grid":
        cells = [(v, n, m) for v in VARIANTS for n, m in CELLS]
        # adjacent cells all cost about as much as (1, 2), the dearest fixed
        # one, so the seed does not move which cell sets the median
        n = rng.randint(1, 10)
        cells.append(("corrected", n, n + 1))
        return {"cells": cells, "grid": GRID}
    raise ValueError(f"unknown workload {workload!r}")


def load_expected(path: Path) -> dict:
    """Pinned outputs of the fixed inputs, from the committed baseline record."""
    record = json.loads(path.read_text(encoding="utf-8"))
    return record["expected"]


# -- operations --------------------------------------------------------------


@dataclass
class Outcome:
    error: str | None = None
    refused: bool = False
    info: dict = field(default_factory=dict)  # seconds and sizes, per op


@dataclass(frozen=True)
class Op:
    label: str
    group: str  # per-layer split: the tau level on plan-sweep
    weight: int  # operations this counts for (grid points on diagnose-grid)
    run: Callable[[], Outcome]


def _checked_plan(p, q, tau: Fraction, expected: str | None):
    """solve, verify, JSON round trip: (plan or None, outcome).  expected is
    the pinned plan JSON digest, REFUSED, or None for a seeded pair."""
    out = Outcome()
    t0 = perf_counter()
    try:
        plan = hc.solve(p, q, tau)
    except hc.HorizonExceeded as exc:
        out.refused = True
        out.info["refusal_s"] = perf_counter() - t0
        if expected not in (None, REFUSED):
            out.error = f"refused ({exc}) where the baseline has a plan"
        return None, out
    t1 = perf_counter()
    report = hc.plan_report(plan, p, q, tau)
    out.info["solve_s"] = t1 - t0
    out.info["verify_s"] = perf_counter() - t1
    if not (report["verified"] and report["distance_bound"] < tau):
        out.error = f"plan does not verify: bound {report['distance_bound']}"
        return plan, out
    text = serialize.dump_json(serialize.plan_to_obj(plan, (p, q)))
    out.info["plan_json_bytes"] = len(text.encode("utf-8"))
    if serialize.parse_plan(text) != plan:
        out.error = "plan JSON does not parse back to the same plan"
    elif expected not in (None, REFUSED) and digest(text) != expected:
        out.error = "plan JSON differs from the baseline"
    return plan, out


def plan_item(p, q, tau: Fraction, expected: str | None) -> Outcome:
    return _checked_plan(p, q, tau, expected)[1]


def eval_point(plans: list, x, tau: Fraction) -> Outcome:
    """x through every plan and back, checking the roundtrip inequality
    d(H^-1(H(x)), x) <= r_back + L_back * r_fwd (acceptance criterion 9)."""
    for label, plan in plans:
        fwd = hc.plan_eval_info(plan, x, tau)
        back = hc.plan_inverse_eval_info(plan, fwd.point.value, tau)
        if not (fwd.point.radius <= tau / 2 and back.point.radius <= tau / 2):
            return Outcome(error=f"{label}: radius above tau/2")
        composed = back.point.radius + back.lipschitz * fwd.point.radius
        if hc.metric_d(back.point.value, x) > composed:
            return Outcome(error=f"{label}: roundtrip exceeds the composed radius")
    return Outcome()


def _edge_range_finding(findings: list) -> bool:
    return any(f["check"] == "range-containment" and F(f["witness"][0]) == 1
               and F(f["witness"][1]) > 0 for f in findings)


def diagnose_json(variant: str, n: int, m: int, grid: Fraction) -> tuple[int, str]:
    """Exit code and output of the diagnose command, run in-process."""
    argv = ["diagnose", "--variant", variant, "--n", str(n), "--m", str(m), "--grid", str(grid)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def diagnose_cell(variant: str, n: int, m: int, grid: Fraction, expected: str | None) -> Outcome:
    """The diagnose command's JSON for one cell, checked."""
    code, text = diagnose_json(variant, n, m, grid)
    if code != 0:
        return Outcome(error=f"diagnose exited with {code}")
    obj = json.loads(text)
    if obj["points_checked"] != GRID_POINTS:
        return Outcome(error=f"checked {obj['points_checked']} points")
    if variant == "corrected" and not obj["ok"]:
        return Outcome(error=f"corrected cell has findings {obj['counts']}")
    if (variant, n, m) == ("verbatim", 1, 2) and not _edge_range_finding(obj["findings"]):
        return Outcome(error="no range finding on the edge x = 1, y > 0")
    if expected is not None and digest(text) != expected:
        return Outcome(error="diagnose JSON differs from the baseline")
    return Outcome()


class ProgramFailure(Exception):
    """The program failed a check outside the timed operations (set-up or
    the CLI processes)."""


def setup(workload: str, inputs: dict, expected: dict) -> list[Op]:
    """One cycle of operations, with whatever they need prepared."""
    if workload == "plan-sweep":
        return [
            Op(item_label(label, tl), tl, 1,
               partial(plan_item, p, q, tau, expected["plans"].get(item_label(label, tl))))
            for tl, tau in inputs["taus"].items()
            for label, (p, q) in inputs["pairs"]
        ]
    if workload == "eval-stream":
        tau = TAUS[inputs["tau"]]
        plans = []
        for label, (p, q) in inputs["pairs"]:
            plan, outcome = _checked_plan(p, q, tau, expected["plans"][item_label(label, inputs["tau"])])
            if outcome.error or outcome.refused:
                raise ProgramFailure(f"{label}: {outcome.error or 'refused'}")
            plans.append((label, plan))
        return [Op(f"x{i}", "all", 1, partial(eval_point, plans, x, tau))
                for i, x in enumerate(inputs["points"])]
    if workload == "diagnose-grid":
        grid = inputs["grid"]
        return [
            Op(cell_label(v, n, m), "all", GRID_POINTS,
               partial(diagnose_cell, v, n, m, grid, expected["diagnose"].get(cell_label(v, n, m))))
            for v, n, m in inputs["cells"]
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- the CLI as a whole process ----------------------------------------------


def library_env(root: Path) -> dict:
    """Environment of a child interpreter that imports src/ of the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def cli_runs(root: Path, workdir: Path) -> dict:
    """{command: (wall seconds, stdout)} of one `python -m hilbertcube.cli
    solve` process and one `... verify` process, with PYTHONPATH=src."""
    p, q = (POINTS[name] for name in CLI_PAIR)
    tau = str(TAUS[CLI_TAU])
    files = {name: workdir / f"{name}.json" for name in ("p", "q", "plan")}
    files["p"].write_text(serialize.dump_json(serialize.point_to_obj(p)), encoding="utf-8")
    files["q"].write_text(serialize.dump_json(serialize.point_to_obj(q)), encoding="utf-8")
    env = library_env(root)
    base = [sys.executable, "-m", "hilbertcube.cli"]
    commands = {
        "solve": ["solve", "--p", files["p"], "--q", files["q"], "--tau", tau],
        "verify": ["verify", "--plan", files["plan"], "--p", files["p"], "--q", files["q"], "--tau", tau],
    }
    runs = {}
    for name, args in commands.items():
        t0 = perf_counter()
        proc = subprocess.run(base + [str(a) for a in args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        runs[name] = (perf_counter() - t0, proc.stdout)
        if proc.returncode != 0:
            raise ProgramFailure(f"cli {name} exited with {proc.returncode}: {proc.stderr.strip()}")
        if name == "solve":
            files["plan"].write_text(proc.stdout, encoding="utf-8")
    return runs
