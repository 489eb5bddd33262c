"""Command-line surface.

Thin shell over the library.  main parses the arguments, then every point
or plan file and every rational option, once; each command takes those
values, calls one library function and returns its exit code and output
(JSON for machine consumption, a plain table for the demo), which main
writes.  Exit codes: 0 success, 1 failed verification, 2 input error,
3 horizon/budget exhaustion, 4 internal defect.
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


def _cmd_solve(args) -> tuple[int, str]:
    plan = solve(args.p, args.q, args.tau, horizon=args.horizon)
    obj = plan_to_obj(plan)
    obj["summary"] = _report_obj(plan, args.p, args.q, args.tau)
    return 0, dump_json(obj)


def _cmd_eval(args) -> tuple[int, str]:
    evaluate = plan_inverse_eval if args.command == "inverse-eval" else plan_eval
    return 0, dump_json(certified_to_obj(evaluate(args.plan, args.x, args.tau)))


def _cmd_verify(args) -> tuple[int, str]:
    report = _report_obj(args.plan, args.p, args.q, args.tau)
    del report["stages_used"]
    return 0 if report["verified"] else 1, dump_json(report)


def _inline(p) -> str:
    cells = ", ".join(format_rational(c) for c in p.prefix)
    return f"({cells}; tail {format_rational(p.tail)})" if cells else f"(tail {format_rational(p.tail)})"


# row k is row k-1 plus one unit twist, but row k has k + 1 coordinates, so
# the table grows like n^2
_DEMO_STAGES = 64


def _cmd_demo(args) -> tuple[int, str]:
    if args.n < 0:
        raise BadIndices(f"--n: stage count must be >= 0, got {args.n}")
    if args.n > _DEMO_STAGES:
        raise BadIndices(f"--n: {args.n} exceeds the limit of {_DEMO_STAGES} stages")
    ones = make_point([], Fraction(1))
    other = make_point([], args.t)
    rows = [(0, ones, other, metric_d(ones, other))]
    a, b = ones, other
    for k in range(1, args.n + 1):
        stage = _first_attempt_stage(k)
        a, b = twist_cell_apply(stage, a), twist_cell_apply(stage, b)
        rows.append((k, a, b, metric_d(a, b)))
    width = max(len(_inline(r[1])) for r in rows)
    lines = [f"stage  {'image of all-ones':<{width}}  image of all-{args.t}  distance\n"]
    lines += [f"{k:>5}  {_inline(a):<{width}}  {_inline(b)}  {format_rational(dist)}\n"
              for k, a, b, dist in rows]
    return 0, "".join(lines)


def _cmd_diagnose(args) -> tuple[int, str]:
    report = twist_diagnostics(Variant(args.variant), args.n, args.m, args.step)
    return 0, dump_json(
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


def _cmd_metrics(args) -> tuple[int, str]:
    return 0, dump_json(
        {
            "distance": format_rational(metric_d(args.p, args.q)),
            "p_profile": _profile_obj(args.p),
            "q_profile": _profile_obj(args.q),
        }
    )


def _cmd_render(args) -> tuple[int, str]:
    cell = CellMap(MapKind(args.map), Variant(args.variant), args.n, args.m)
    spec = RenderSpec(cell, args.grid, args.trace, args.stages)
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
    return 0, ""


def _cmd_schedule(args) -> tuple[int, str]:
    limit = stage_count_limit(args.p)
    if args.count > limit:
        raise BadIndices(f"--count: {args.count} exceeds the limit of {limit} stages")
    s = build_schedule(args.p, args.count)
    obj = schedule_to_obj(s)
    obj["budget_ok"] = schedule_budget_ok(s)
    obj["forward_tail_bound"] = format_rational(forward_tail_bound(s, 0))
    obj["reverse_tail_bound"] = format_rational(reverse_tail_bound(s, 0))
    return 0, dump_json(obj)


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
    s.set_defaults(run=_cmd_solve)

    for name, help_text in (
        ("eval", "evaluate a plan at a point with certified radius"),
        ("inverse-eval", "evaluate a plan's inverse at a point"),
    ):
        e = sub.add_parser(name, help=help_text)
        e.add_argument("--plan", required=True, metavar="FILE")
        e.add_argument("--x", required=True, metavar="FILE")
        e.add_argument("--tau", required=True, metavar="RAT")
        e.set_defaults(run=_cmd_eval)

    v = sub.add_parser("verify", help="re-check a plan's certificate (exit 1 on failure)")
    v.add_argument("--plan", required=True, metavar="FILE")
    v.add_argument("--p", required=True, metavar="FILE")
    v.add_argument("--q", required=True, metavar="FILE")
    v.add_argument("--tau", required=True, metavar="RAT")
    v.set_defaults(run=_cmd_verify)

    d = sub.add_parser("demo-first-attempt", help="stagewise collapse of the naive twist limit")
    d.add_argument("--t", required=True, metavar="RAT")
    d.add_argument("--n", required=True, type=int, metavar="N")
    d.set_defaults(run=_cmd_demo)

    g = sub.add_parser("diagnose", help="grid diagnostics of one twist cell")
    g.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--m", required=True, type=int)
    g.add_argument("--grid", required=True, dest="step", metavar="STEP", help="grid step, e.g. 1/64")
    g.set_defaults(run=_cmd_diagnose)

    m = sub.add_parser("metrics", help="distance and boundary profiles of two points")
    m.add_argument("--p", required=True, metavar="FILE")
    m.add_argument("--q", required=True, metavar="FILE")
    m.set_defaults(run=_cmd_metrics)

    r = sub.add_parser("render", help="SVG picture of a twist cell")
    r.add_argument("--map", required=True, choices=[k.value for k in MapKind])
    r.add_argument("--variant", default=Variant.CORRECTED.value, choices=[v.value for v in Variant])
    r.add_argument("--n", required=True, type=int)
    r.add_argument("--m", required=True, type=int)
    r.add_argument("--grid", required=True, type=int, metavar="G")
    r.add_argument("--trace", metavar="FILE")
    r.add_argument("--stages", type=int, default=0, metavar="K")
    r.add_argument("--out", required=True, metavar="FILE")
    r.set_defaults(run=_cmd_render)

    c = sub.add_parser("schedule", help="materialize a point's twist schedule")
    c.add_argument("--p", required=True, metavar="FILE")
    c.add_argument("--count", required=True, type=int, metavar="K")
    c.set_defaults(run=_cmd_schedule)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1/2 for an option, so join it to its
    # option, as in --t=-1/2: every option here takes exactly one value
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:
        # every input is parsed here, once, in this order, before the
        # command runs: the files, then the rationals
        for name in ("plan", "p", "q", "x", "trace"):
            path = getattr(args, name, None)
            if path is None:
                continue
            text = _read(path)
            setattr(args, name, parse_plan(text) if name == "plan" else parse_point_spec(text))
        for name, option in (("tau", "--tau"), ("t", "--t"), ("step", "--grid")):
            if hasattr(args, name):
                setattr(args, name, parse_rational(getattr(args, name), option))
        code, out = args.run(args)
    except CubeError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
