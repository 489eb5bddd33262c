"""Command-line surface.

Thin shell over the library: parse arguments, read point/plan files, call one
library function, print its result (JSON for machine consumption, a plain
table for the demo).  Exit codes: 0 success, 1 failed verification, 2 input
error, 3 horizon/budget exhaustion, 4 internal defect.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .cube import classify_point, make_point, metric_d
from .errors import BadIndices, CubeError, ParseError
from .homogeneity import (
    DEFAULT_HORIZON,
    plan_eval,
    plan_inverse_eval,
    plan_report,
    solve,
    stage_count_limit,
)
from .limits import (
    _first_attempt_stage,
    build_schedule,
    forward_tail_bound,
    reverse_tail_bound,
    schedule_budget_ok,
)
from .render import RenderSpec, render_svg
from .serialize import (
    certified_to_obj,
    dump_json,
    format_rational,
    parse_plan,
    parse_point_spec,
    parse_rational,
    plan_to_obj,
    schedule_to_obj,
)
from .twists import CellMap, MapKind, Variant, twist_cell_apply, twist_diagnostics


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def _load_point(path: str):
    return parse_point_spec(_read(path))


def _profile_obj(p) -> dict:
    prof = classify_point(p)
    return {
        "explicit_indices": list(prof.explicit_indices),
        "tail_is_boundary": prof.tail_is_boundary,
        "tail_start": prof.tail_start,
        "pseudo_interior": prof.is_pseudo_interior,
    }


def _report_obj(plan, p, q, tau) -> dict:
    """plan_report as JSON: solve's summary; verify's output drops stages_used."""
    report = plan_report(plan, p, q, tau)
    return {
        "case": report["case"],
        "tau": format_rational(tau),
        "stages_used": report["stages_used"],
        "certified_distance_bound": format_rational(report["distance_bound"]),
        "verified": report["verified"],
    }


def _cmd_solve(args) -> int:
    p, q = _load_point(args.p), _load_point(args.q)
    tau = parse_rational(args.tau, "--tau")
    plan = solve(p, q, tau, horizon=args.horizon)
    obj = plan_to_obj(plan, (p, q))
    obj["summary"] = _report_obj(plan, p, q, tau)
    sys.stdout.write(dump_json(obj))
    return 0


def _cmd_eval(args, inverse: bool) -> int:
    plan = parse_plan(_read(args.plan))
    x = _load_point(args.x)
    tau = parse_rational(args.tau, "--tau")
    cp = (plan_inverse_eval if inverse else plan_eval)(plan, x, tau)
    sys.stdout.write(dump_json(certified_to_obj(cp)))
    return 0


def _cmd_verify(args) -> int:
    plan = parse_plan(_read(args.plan))
    p, q = _load_point(args.p), _load_point(args.q)
    tau = parse_rational(args.tau, "--tau")
    report = _report_obj(plan, p, q, tau)
    del report["stages_used"]
    sys.stdout.write(dump_json(report))
    return 0 if report["verified"] else 1


def _inline(p) -> str:
    cells = ", ".join(format_rational(c) for c in p.prefix)
    return f"({cells}; tail {format_rational(p.tail)})" if cells else f"(tail {format_rational(p.tail)})"


# row k is row k-1 plus one unit twist, but row k has k + 1 coordinates, so
# the table grows like n^2
_DEMO_STAGES = 64


def _cmd_demo(args) -> int:
    if args.n < 0:
        raise BadIndices(f"--n: stage count must be >= 0, got {args.n}")
    if args.n > _DEMO_STAGES:
        raise BadIndices(f"--n: {args.n} exceeds the limit of {_DEMO_STAGES} stages")
    t = parse_rational(args.t, "--t")
    ones = make_point([], Fraction(1))
    other = make_point([], t)
    rows = [(0, ones, other, metric_d(ones, other))]
    a, b = ones, other
    for k in range(1, args.n + 1):
        stage = _first_attempt_stage(k)
        a, b = twist_cell_apply(stage, a), twist_cell_apply(stage, b)
        rows.append((k, a, b, metric_d(a, b)))
    width = max(len(_inline(r[1])) for r in rows)
    sys.stdout.write(f"stage  {'image of all-ones':<{width}}  image of all-{t}  distance\n")
    for k, a, b, dist in rows:
        sys.stdout.write(
            f"{k:>5}  {_inline(a):<{width}}  {_inline(b)}  {format_rational(dist)}\n"
        )
    return 0


def _cmd_diagnose(args) -> int:
    variant = Variant(args.variant)
    step = parse_rational(args.grid, "--grid")
    report = twist_diagnostics(variant, args.n, args.m, step)
    sys.stdout.write(
        dump_json(
            {
                "variant": report.variant.value,
                "n": report.n,
                "m": report.m,
                "grid_step": format_rational(report.grid_step),
                "points_checked": report.points_checked,
                "ok": report.ok,
                "counts": report.counts_by_check(),
                "findings": report.to_records(),
            }
        )
    )
    return 0


def _cmd_metrics(args) -> int:
    p, q = _load_point(args.p), _load_point(args.q)
    sys.stdout.write(
        dump_json(
            {
                "distance": format_rational(metric_d(p, q)),
                "p_profile": _profile_obj(p),
                "q_profile": _profile_obj(q),
            }
        )
    )
    return 0


def _cmd_render(args) -> int:
    cell = CellMap(MapKind(args.map), Variant(args.variant), args.n, args.m)
    trace = _load_point(args.trace) if args.trace else None
    spec = RenderSpec(cell, args.grid, trace, args.stages)
    # refuse a missing directory, or a directory named as the file, before the render
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        raise ParseError(f"cannot write {args.out}: {folder} is not a directory")
    if os.path.isdir(args.out):
        raise ParseError(f"cannot write {args.out}: it is a directory")
    svg = render_svg(spec)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as e:
        raise ParseError(f"cannot write {args.out}: {e}") from e
    return 0


def _cmd_schedule(args) -> int:
    p = _load_point(args.p)
    limit = stage_count_limit(p)
    if args.count > limit:
        raise BadIndices(f"--count: {args.count} exceeds the limit of {limit} stages")
    s = build_schedule(p, args.count)
    obj = schedule_to_obj(s, p)
    obj["budget_ok"] = schedule_budget_ok(s)
    obj["forward_tail_bound"] = format_rational(forward_tail_bound(s, 0))
    obj["reverse_tail_bound"] = format_rational(reverse_tail_bound(s, 0))
    sys.stdout.write(dump_json(obj))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hilbertcube",
        description="Certified homeomorphism plans on the Hilbert cube, in exact arithmetic.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="construct and verify a plan moving p to q")
    s.add_argument("--p", required=True, metavar="FILE")
    s.add_argument("--q", required=True, metavar="FILE")
    s.add_argument("--tau", required=True, metavar="RAT")
    s.add_argument("--horizon", type=int, default=DEFAULT_HORIZON, metavar="N")

    for name, help_text in (
        ("eval", "evaluate a plan at a point with certified radius"),
        ("inverse-eval", "evaluate a plan's inverse at a point"),
    ):
        e = sub.add_parser(name, help=help_text)
        e.add_argument("--plan", required=True, metavar="FILE")
        e.add_argument("--x", required=True, metavar="FILE")
        e.add_argument("--tau", required=True, metavar="RAT")

    v = sub.add_parser("verify", help="re-check a plan's certificate (exit 1 on failure)")
    v.add_argument("--plan", required=True, metavar="FILE")
    v.add_argument("--p", required=True, metavar="FILE")
    v.add_argument("--q", required=True, metavar="FILE")
    v.add_argument("--tau", required=True, metavar="RAT")

    d = sub.add_parser("demo-first-attempt", help="stagewise collapse of the naive twist limit")
    d.add_argument("--t", required=True, metavar="RAT")
    d.add_argument("--n", required=True, type=int, metavar="N")

    g = sub.add_parser("diagnose", help="grid diagnostics of one twist cell")
    g.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--m", required=True, type=int)
    g.add_argument("--grid", required=True, metavar="STEP", help="grid step, e.g. 1/64")

    m = sub.add_parser("metrics", help="distance and boundary profiles of two points")
    m.add_argument("--p", required=True, metavar="FILE")
    m.add_argument("--q", required=True, metavar="FILE")

    r = sub.add_parser("render", help="SVG picture of a twist cell")
    r.add_argument("--map", required=True, choices=[k.value for k in MapKind])
    r.add_argument("--variant", default=Variant.CORRECTED.value, choices=[v.value for v in Variant])
    r.add_argument("--n", required=True, type=int)
    r.add_argument("--m", required=True, type=int)
    r.add_argument("--grid", required=True, type=int, metavar="G")
    r.add_argument("--trace", metavar="FILE")
    r.add_argument("--stages", type=int, default=0, metavar="K")
    r.add_argument("--out", required=True, metavar="FILE")

    c = sub.add_parser("schedule", help="materialize a point's twist schedule")
    c.add_argument("--p", required=True, metavar="FILE")
    c.add_argument("--count", required=True, type=int, metavar="K")

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1/2 for an option, so join it to its
    # option, as in --t=-1/2: every option here takes exactly one value
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "eval": lambda a: _cmd_eval(a, inverse=False),
        "inverse-eval": lambda a: _cmd_eval(a, inverse=True),
        "verify": _cmd_verify,
        "demo-first-attempt": _cmd_demo,
        "diagnose": _cmd_diagnose,
        "metrics": _cmd_metrics,
        "render": _cmd_render,
        "schedule": _cmd_schedule,
    }
    try:
        return handlers[args.command](args)
    except CubeError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
