"""Baseline record of the library's costs on the benchmark's fixed inputs.

Writes perfbench/BENCH_<label>.json with, per fixed pair and tau level:
solve, verify (verify_plan), eval and inverse-eval seconds, stage counts,
walk counters and the plan JSON digest (or the HorizonExceeded refusal);
per twist cell: diagnostics seconds at grid 1/32 and 1/64, and microseconds
per single and cubed twist evaluation; and the whole-process CLI rows.  Each
timing is repeated and kept as median and minimum.  The "expected" section
holds the output digests that run.py checks every operation against.

Usage, from the repository root:

    python3 perfbench/baseline.py --label seed
    python3 perfbench/baseline.py --table perfbench/BENCH_seed.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import run

run.load_library()

import hilbertcube as hc  # noqa: E402
from hilbertcube import serialize  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REPEATS = 3
EVAL_X = ([Fraction(1, 3)] * 5, Fraction(-1, 7))


def _timed(fn, repeats: int = REPEATS):
    times, result = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return result, {"median": statistics.median(times), "min": min(times)}


def _refusal(fn, repeats: int = REPEATS):
    times, message = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        try:
            fn()
        except hc.HorizonExceeded as exc:
            message = str(exc)
        else:
            return None, None
        times.append(perf_counter() - t0)
    return message, {"median": statistics.median(times), "min": min(times)}


def _walk_counters(p, q, tau) -> dict:
    t = tracer.Tracer()
    with t.installed(), t.op_scope("solve"):
        try:
            hc.solve(p, q, tau)
        except hc.HorizonExceeded:
            pass
    snap = t.snapshot()
    fc = sum(v[0] for (_, _, m), v in snap["stats"].items() if m == "limits.final_coordinate")
    walked = sum(v[0] for (_, parent, m), v in snap["stats"].items()
                 if parent == "limits.final_coordinate" and m == "twists.twist_eval")
    return {
        "final_coordinate_calls": fc,
        "twist_evals_under_final_coordinate": walked,
        "largest_finalized_stage_sum":
            snap["counts"].get(("solve", "limits.final_coordinate.max_stage_sum"), 0),
        "max_den_bits": snap["maxima"].get(("solve", "limits.max_den_bits"), 0),
    }


def plan_rows(expected: dict) -> list:
    x = hc.make_point(*EVAL_X)
    rows = []
    for names in workloads.FIXED_PAIRS:
        p, q = (workloads.POINTS[n] for n in names)
        pair = workloads.pair_label(names)
        for tl, tau in workloads.TAUS.items():
            label = workloads.item_label(pair, tl)
            row = {"pair": pair, "tau": tl, "tau_exact": str(tau)}
            message, refusal = _refusal(lambda: hc.solve(p, q, tau))
            if message is not None:
                row.update(refused=message, refusal_s=refusal)
                expected[label] = workloads.REFUSED
            else:
                plan, row["solve_s"] = _timed(lambda: hc.solve(p, q, tau))
                ok, row["verify_s"] = _timed(lambda: hc.verify_plan(plan, p, q, tau))
                _, row["eval_s"] = _timed(lambda: hc.plan_eval(plan, x, tau))
                _, row["inverse_s"] = _timed(lambda: hc.plan_inverse_eval(plan, x, tau))
                text = serialize.dump_json(serialize.plan_to_obj(plan, (p, q)))
                row.update(
                    case=plan.case.value,
                    verified=ok,
                    stages_source=plan.source_schedule.count if plan.source_schedule else 0,
                    stages_target=plan.target_schedule.count if plan.target_schedule else 0,
                    anchors=plan.move.anchor_count,
                    plan_json_bytes=len(text.encode("utf-8")),
                    plan_json_sha256=workloads.digest(text),
                )
                expected[label] = row["plan_json_sha256"]
            row["counters"] = _walk_counters(p, q, tau)
            rows.append(row)
            print(f"plan {label}: {row.get('solve_s') or row.get('refusal_s')}", file=sys.stderr)
    return rows


def diagnose_rows(expected: dict) -> list:
    rows = []
    for variant in workloads.VARIANTS:
        for n, m in workloads.CELLS:
            label = workloads.cell_label(variant, n, m)
            row = {"cell": [n, m], "variant": variant}
            for grid, repeats in ((workloads.GRID, REPEATS), (Fraction(1, 64), 1)):
                report, seconds = _timed(lambda: hc.twist_diagnostics(hc.Variant(variant), n, m, grid),
                                         repeats)
                row[f"grid_{grid.denominator}"] = {
                    "seconds": seconds,
                    "points_checked": report.points_checked,
                    "findings": report.counts_by_check(),
                }
            outcome = workloads.diagnose_cell(variant, n, m, workloads.GRID, None)
            if outcome.error:
                raise SystemExit(f"{label}: {outcome.error}")
            expected[label] = workloads.digest(workloads.diagnose_json(variant, n, m, workloads.GRID)[1])
            rows.append(row)
            print(f"diagnose {label}: {row['grid_32']['seconds']}", file=sys.stderr)
    return rows


def kernel_rows() -> list:
    """Microseconds per twist_eval on the 1/32 grid, per cell and kind."""
    grid = [k * workloads.GRID for k in range(-workloads.GRID.denominator, workloads.GRID.denominator + 1)]
    points = [(x, y) for x in grid for y in grid]
    rows = []
    for n, m in workloads.CELLS:
        row = {"cell": [n, m]}
        for kind in (hc.MapKind.TWIST_CCW, hc.MapKind.TWIST_CW,
                     hc.MapKind.TWIST_CCW_CUBED, hc.MapKind.TWIST_CW_CUBED):
            cm = hc.CellMap(kind, hc.Variant.CORRECTED, n, m)
            _, seconds = _timed(lambda: [hc.twist_eval(cm, x, y) for x, y in points])
            row[f"{kind.value}_us"] = {k: v * 1e6 / len(points) for k, v in seconds.items()}
        rows.append(row)
    return rows


def cli_rows(expected: dict) -> dict:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    samples = {"solve": [], "verify": []}
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for _ in range(REPEATS):
            for name, (seconds, stdout) in workloads.cli_runs(ROOT, Path(tmp)).items():
                if expected.setdefault(name, workloads.digest(stdout)) != workloads.digest(stdout):
                    raise SystemExit(f"cli {name}: output changed between runs")
                samples[name].append(seconds)
    return {name: {"median": statistics.median(v), "min": min(v)} for name, v in samples.items()}


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def record(label: str) -> dict:
    expected = {"plans": {}, "diagnose": {}, "cli": {}}
    return {
        "label": label,
        "commit": _commit(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.system()}, {os.cpu_count()} logical cpus",
        "repeats": REPEATS,
        "eval_x": {"prefix": [str(c) for c in EVAL_X[0]], "tail": str(EVAL_X[1])},
        "plans": plan_rows(expected["plans"]),
        "diagnose": diagnose_rows(expected["diagnose"]),
        "kernel": kernel_rows(),
        "cli": cli_rows(expected["cli"]),
        "expected": expected,
    }


def table(rec: dict) -> str:
    """The plan rows as the markdown table ROADMAP.md's baseline uses."""
    lines = ["| pair | tau | solve | verify | eval | inverse | stages src/tgt |",
             "|---|---|---|---|---|---|---|"]
    for row in rec["plans"]:
        if "refused" in row:
            lines.append(f"| {row['pair']} | 2^-{row['tau'][1:]} | `HorizonExceeded` after "
                         f"{row['refusal_s']['median']:.3f} s: {row['refused']} | | | | |")
            continue
        cells = " | ".join(f"{row[k]['median']:.3f}" for k in ("solve_s", "verify_s", "eval_s", "inverse_s"))
        lines.append(f"| {row['pair']} | 2^-{row['tau'][1:]} | {cells} | "
                     f"{row['stages_source']}/{row['stages_target']} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--label", help="write perfbench/BENCH_<label>.json from the current code")
    group.add_argument("--table", metavar="FILE", help="print the plan table of a record")
    args = ap.parse_args(argv)
    if args.table:
        print(table(json.loads(Path(args.table).read_text(encoding="utf-8"))))
        return 0
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record(args.label), indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
