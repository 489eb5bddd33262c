"""Exact JSON serialization: rationals as strings, never floats.

Point specs look like {"prefix": ["1", "-1/2"], "tail": "0"}.  Rational
strings are integer or num/den form; decimal literals are rejected so no
reader can quietly lose exactness.  A schedule record carries its own
schedule's source point (on the boundary) and stage count; it is rebuilt
deterministically on load, with the stored stage list cross-checked against
the rebuild.  A count above the most stages solve materializes under the
default horizon is refused before the rebuild.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .cube import PointRep, _coprime, _exact, make_point
from .errors import ParseError
from .homogeneity import HomeoPlan, PlanCase, stage_count_limit
from .interior import InteriorMapParams
from .limits import CertifiedPoint, Schedule, build_schedule

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)  # \d alone matches any Unicode digit


def parse_rational(text: str, where: str = "value") -> Fraction:
    if not isinstance(text, str):
        raise ParseError(f"{where}: rational must be a string, got {type(text).__name__}")
    s = text.strip()
    match = _RATIONAL_RE.match(s)
    if not match:
        raise ParseError(
            f"{where}: {text!r} is not an exact rational (integer or num/den; decimals forbidden)"
        )
    num, den = match.groups("1")
    if den.lstrip("0") == "":
        raise ParseError(f"{where}: zero denominator in {text!r}")
    try:
        n, d = int(num), int(den)
    except ValueError:  # more digits than Python converts to an int
        raise ParseError(f"{where}: rational of {len(s)} characters has too many digits") from None
    return _coprime(n // (g := gcd(n, d)), d // g)


def format_rational(x) -> str:
    """x as parse_rational reads it back; one with more digits than Python
    converts to a string (so more than the parser reads) is refused."""
    x = _exact(x)
    try:
        return str(x)
    except ValueError:
        raise ParseError(f"a rational of more than {sys.get_int_max_str_digits()} digits"
                         " cannot be written") from None


def point_from_obj(obj, where: str = "point") -> PointRep:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object with prefix/tail")
    extra = set(obj) - {"prefix", "tail"}
    if extra:
        raise ParseError(f"{where}: unknown fields {sorted(extra)}")
    prefix_obj = obj.get("prefix", [])
    if not isinstance(prefix_obj, list):
        raise ParseError(f"{where}.prefix: expected an array of rational strings")
    prefix = [
        parse_rational(entry, f"{where}.prefix[{i}]") for i, entry in enumerate(prefix_obj)
    ]
    tail = parse_rational(obj.get("tail", "0"), f"{where}.tail")
    return make_point(prefix, tail)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{what}: invalid JSON at position {e.pos}: {e.msg}") from e
    except ValueError:  # an integer literal with more digits than Python converts
        raise ParseError(f"{what}: integer literal has too many digits") from None
    except RecursionError:
        raise ParseError(f"{what}: JSON nested too deeply") from None


def parse_point_spec(text: str) -> PointRep:
    return point_from_obj(_load_json(text, "point spec"))


def point_to_obj(p: PointRep) -> dict:
    return {
        "prefix": [format_rational(c) for c in p.prefix],
        "tail": format_rational(p.tail),
    }


def certified_to_obj(cp: CertifiedPoint) -> dict:
    return {
        "value": point_to_obj(cp.value),
        "radius": format_rational(cp.radius),
        "stages_used": cp.stages_used,
    }


def schedule_to_obj(s: Schedule) -> dict:
    return {
        "source": point_to_obj(s.source),
        "count": s.count,
        "stages": [[n, m] for n, m in s.stages],
    }


def schedule_from_obj(obj, where: str = "schedule") -> Schedule:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    source = point_from_obj(obj.get("source"), f"{where}.source")
    count = obj.get("count")
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise ParseError(f"{where}.count: expected a non-negative integer")
    limit = stage_count_limit(source)
    if count > limit:
        raise ParseError(f"{where}.count: {count} exceeds the limit of {limit} stages")
    s = build_schedule(source, count)
    if s.is_identity:  # a plan holds a schedule only for a source on the boundary
        raise ParseError(f"{where}.source: a pseudo-interior point has no schedule")
    stored = obj.get("stages")
    if stored is not None and stored != [[n, m] for n, m in s.stages]:
        raise ParseError(f"{where}.stages: inconsistent with deterministic rebuild")
    return s


def plan_to_obj(plan: HomeoPlan, endpoints: tuple[PointRep | None, PointRep | None] | None = None) -> dict:
    """Serialize a plan, each schedule record from its schedule.  Given
    endpoints (p, q), each side with a schedule must name that schedule's
    source, or ParseError; an interior side is not compared, because the
    file holds only its anchor, a truncation of the endpoint."""
    schedules = plan.source_schedule, plan.target_schedule
    if endpoints is not None and any(s is not None and point != s.source
                                     for s, point in zip(schedules, endpoints)):
        raise ParseError("plan: a given endpoint is not its schedule's source")
    src, tgt = (None if s is None else schedule_to_obj(s) for s in schedules)
    return {
        "case": plan.case.value,
        "move": {
            "source_anchor": point_to_obj(plan.move.source),
            "target_anchor": point_to_obj(plan.move.target),
        },
        "source_schedule": src,
        "target_schedule": tgt,
    }


def plan_from_obj(obj) -> HomeoPlan:
    if not isinstance(obj, dict):
        raise ParseError("plan: expected an object")
    case_tag = obj.get("case")
    try:
        case = PlanCase(case_tag)
    except ValueError:
        raise ParseError(f"plan.case: unknown case {case_tag!r}") from None
    move_obj = obj.get("move")
    if not isinstance(move_obj, dict):
        raise ParseError("plan.move: expected an object with anchors")
    move = InteriorMapParams(
        point_from_obj(move_obj.get("source_anchor"), "plan.move.source_anchor"),
        point_from_obj(move_obj.get("target_anchor"), "plan.move.target_anchor"),
    )
    src_obj = obj.get("source_schedule")
    tgt_obj = obj.get("target_schedule")
    sched_src = None if src_obj is None else schedule_from_obj(src_obj, "plan.source_schedule")
    sched_tgt = None if tgt_obj is None else schedule_from_obj(tgt_obj, "plan.target_schedule")
    plan = HomeoPlan(move, sched_src, sched_tgt)
    if plan.case != case:
        raise ParseError(f"plan: schedules present do not match case {case.value!r}")
    return plan


def parse_plan(text: str) -> HomeoPlan:
    return plan_from_obj(_load_json(text, "plan"))


def dump_json(obj) -> str:
    """obj as json.dumps(obj, indent=2) writes it, plus a newline.  Written
    here, since indent sends json.dumps to its pure-Python encoder.  Takes
    what the commands write: dicts with str keys, lists, str, int, bool and
    None; any other type, float or tuple or a subclass of str among them, is
    a TypeError."""
    return _text(obj, "\n") + "\n"


# the text of a value with no parts, by its type
_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): lambda _: "null"}


def _text(obj, newline: str) -> str:
    """obj's text; newline is a line break plus obj's indent."""
    encode = _SCALARS.get(type(obj))
    if encode is not None:
        return encode(obj)
    inner = newline + "  "
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # _quote refuses a key that is not a str
        items = [_quote(key) + ": " + _text(value, inner) for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"{type(obj).__name__} is not written as JSON")
