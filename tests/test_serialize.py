"""Exact JSON round-trips for rationals, points, schedules, plans."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertcube import ParseError, PlanCase, build_schedule, make_point, parse_plan, parse_point_spec, solve
from hilbertcube.serialize import (
    dump_json,
    format_rational,
    parse_rational,
    plan_from_obj,
    plan_to_obj,
    point_from_obj,
    point_to_obj,
    schedule_from_obj,
    schedule_to_obj,
)

from test_homogeneity import NEAR_ONE

F = Fraction


def test_parse_rational_forms():
    assert parse_rational("1") == 1
    assert parse_rational("-1/2") == F(-1, 2)
    assert parse_rational("+3/9") == F(1, 3)
    assert parse_rational(" 2/4 ") == F(1, 2)


@pytest.mark.parametrize("bad", ["0.5", "1e-3", "1/2/3", "", "one", "1 / 2", "0x10"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_parse_rational_zero_denominator():
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("3/000")


def test_parse_rational_too_many_digits():
    # Python refuses to convert an integer string of more than 4,300 digits
    assert parse_rational("1/" + "3" * 4300) == F(1, int("3" * 4300))
    with pytest.raises(ParseError, match="too many digits"):
        parse_rational("7" * 4301 + "/9")
    with pytest.raises(ParseError, match="too many digits"):
        parse_point_spec('{"prefix": ["1/%s"], "tail": "0"}' % ("3" * 5000))


def test_json_integer_literal_too_many_digits():
    with pytest.raises(ParseError, match="too many digits"):
        parse_plan('{"case": "interior-interior", "n": %s}' % ("1" * 4301))
    with pytest.raises(ParseError, match="too many digits"):
        parse_point_spec('{"prefix": [], "tail": %s}' % ("1" * 4301))


def test_format_roundtrip():
    for v in (F(0), F(-1), F(22, 7), F(1, 3)):
        assert parse_rational(format_rational(v)) == v


def test_point_spec_examples():
    p = parse_point_spec('{"prefix":["1"],"tail":"1"}')
    assert p == make_point([], 1)
    q = parse_point_spec('{"prefix":["-1/2","1/3"],"tail":"0"}')
    assert q.coord(1) == F(-1, 2) and q.coord(2) == F(1, 3) and q.tail == 0


def test_point_spec_rejects_decimals():
    with pytest.raises(ParseError) as e:
        parse_point_spec('{"prefix":["0.5"],"tail":"0"}')
    assert "prefix[0]" in str(e.value)


def test_point_spec_rejects_bad_json_with_position():
    with pytest.raises(ParseError) as e:
        parse_point_spec('{"prefix": [')
    assert "position" in str(e.value)


def test_point_spec_rejects_unknown_fields():
    with pytest.raises(ParseError):
        point_from_obj({"prefix": [], "tail": "0", "extra": 1})


def test_long_point_spec_parses_in_linear_time():
    # trailing entries equal to the tail are dropped in one slice, not one by one
    text = json.dumps({"prefix": ["1/3"] + ["0"] * 100_000, "tail": "0"})
    start = time.perf_counter()
    p = parse_point_spec(text)
    assert time.perf_counter() - start < 1
    assert p.prefix == (F(1, 3),) and p.tail == 0


def test_point_roundtrip():
    p = make_point(["1", "-1/2", "1/3"], "1/7")
    assert point_from_obj(point_to_obj(p)) == p


def test_schedule_roundtrip():
    p = make_point([1, F(1, 2)], F(-1, 3))
    s = build_schedule(p, 5)
    obj = schedule_to_obj(s)
    s2 = schedule_from_obj(obj)
    assert s2 == s and s2.source == p


def test_schedule_rejects_tampered_stage_list():
    p = make_point([1], 0)
    obj = schedule_to_obj(build_schedule(p, 3))
    obj["stages"][0] = [1, 8]
    with pytest.raises(ParseError):
        schedule_from_obj(obj)


def test_schedule_rejects_pseudo_interior_source():
    # only a source that meets the boundary has a schedule; read as one,
    # this record would become the identity and write back with count 0
    obj = {"source": {"prefix": ["1/3"], "tail": "0"}, "count": 7}
    with pytest.raises(ParseError, match="source: a pseudo-interior point has no schedule"):
        schedule_from_obj(obj, "plan.source_schedule")
    p = make_point([1], 0)
    plan_obj = plan_to_obj(solve(p, make_point([F(1, 3)], 0), F(1, 64)))
    assert plan_obj["case"] == "boundary-interior"
    plan_obj["source_schedule"] = obj
    with pytest.raises(ParseError, match="plan.source_schedule.source: a pseudo-interior"):
        plan_from_obj(plan_obj)


def test_plan_json_roundtrip():
    p = make_point([1, F(1, 2)], F(1, 4))
    q = make_point([F(-1, 3)], -1)
    tau = F(1, 256)
    plan = solve(p, q, tau)
    text = dump_json(plan_to_obj(plan))
    plan2 = parse_plan(text)
    assert plan2 == plan


def test_plan_parse_rejects_case_mismatch():
    p = make_point([1], 0)
    q = make_point([F(1, 3)], 0)
    plan = solve(p, q, F(1, 64))
    obj = plan_to_obj(plan)
    obj["case"] = "interior-interior"  # but a source schedule is present
    with pytest.raises(ParseError):
        plan_from_obj(obj)


def test_plan_parse_rejects_unknown_case():
    with pytest.raises(ParseError):
        plan_from_obj({"case": "sideways", "move": {}})


def test_dump_json_has_no_floats():
    p = make_point([1], F(1, 3))
    q = make_point([F(2, 5)], 0)
    plan = solve(p, q, F(1, 128))
    text = dump_json(plan_to_obj(plan))
    for token in json.loads(text)["move"]["source_anchor"]["prefix"]:
        assert isinstance(token, str)
    # every numeric payload is a rational string or a plain integer
    assert "." not in text
    assert "e-" not in text


# what dump_json writes: escapes, non-ASCII and surrogates in text, ints past
# 64 bits, empty containers, lists of one scalar type, which it writes with
# one join, and lists of such lists
texts = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é", "\u2028", "\U0001f600", "\ud800"])
ints = st.integers() | st.integers(-(2**200), 2**200)
json_values = st.recursive(
    st.none() | st.booleans() | ints | texts,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(texts, inner, max_size=5)
    | st.lists(texts) | st.lists(ints) | st.lists(st.booleans()) | st.lists(st.lists(ints, max_size=3), max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_dump_json_writes_what_json_dumps_writes(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [0.5, {1: "x"}, [1, 2.0], {"a": {"b": [float("nan")]}}, {"x"}, (1, 2),
                                 PlanCase.INTERIOR_INTERIOR])
def test_dump_json_refuses_what_a_command_never_writes(obj):
    with pytest.raises(TypeError):
        dump_json(obj)


def test_format_rational_refuses_more_digits_than_the_parser_reads():
    assert parse_rational(format_rational(F(1, 10**4299))) == F(1, 10**4299)
    with pytest.raises(ParseError, match="more than 4300 digits"):
        format_rational(F(1, 2**15000))


@pytest.mark.parametrize("count", [True, False, "3", 2.0, -1])
def test_schedule_rejects_non_integer_count(count):
    obj = {"source": {"prefix": ["1"], "tail": "0"}, "count": count}
    with pytest.raises(ParseError, match="non-negative integer"):
        schedule_from_obj(obj)


def test_schedule_count_limit_boundary():
    from hilbertcube.homogeneity import DEFAULT_HORIZON, STAGE_PAD, stage_count_limit

    p = make_point([1, F(1, 2), -1], F(1, 4))  # m_1 = 4
    limit = stage_count_limit(p)
    assert limit == 4 * (DEFAULT_HORIZON - 1) + 4 + STAGE_PAD
    s = schedule_from_obj({"source": point_to_obj(p), "count": limit})
    assert s.count == limit
    with pytest.raises(ParseError, match=f"exceeds the limit of {limit} stages"):
        schedule_from_obj({"source": point_to_obj(p), "count": limit + 1})


def test_plan_beyond_horizon_plus_pad_stages_still_parses():
    # a sparse boundary target at 2^-64 materializes 275 stages, more than
    # DEFAULT_HORIZON + STAGE_PAD, and must still read back
    p = make_point([F(1, 3), F(-1, 2)], F(1, 5))
    q = make_point([1, F(1, 2), -1], F(1, 4))
    plan = solve(p, q, F(1, 2**64))
    assert plan.target_schedule.count == 275
    assert parse_plan(dump_json(plan_to_obj(plan))) == plan


INT_A, BND_A = make_point([F(1, 3), F(-1, 2)], F(1, 5)), make_point([1, F(1, 2), -1], F(1, 4))
INT_B, BND_B = make_point([F(2, 7)], F(-3, 8)), make_point([F(-1, 3)], -1)
PAIRS = {"int-int": (INT_A, INT_B), "bnd-int": (BND_A, INT_B), "int-bnd": (INT_A, BND_B),
         "bnd-bnd": (BND_A, BND_B), "one-origin": (make_point([], 1), make_point([], 0))}
REWRITTEN = {f"{name}-t{k}": (p, q, F(1, 2**k)) for k in (10, 20, 40) for name, (p, q) in PAIRS.items()}
REWRITTEN["near-one-t10"] = (*NEAR_ONE, F(1, 2**10))
REWRITTEN["int-bnd_a-t64"] = (INT_A, BND_A, F(1, 2**64))  # 275 target stages


@pytest.mark.parametrize("p, q, tau", REWRITTEN.values(), ids=REWRITTEN.keys())
def test_parsed_plan_reserializes_to_the_same_bytes(p, q, tau):
    # the plan alone writes its file: each schedule record names its own source
    text = dump_json(plan_to_obj(solve(p, q, tau)))
    assert dump_json(plan_to_obj(parse_plan(text))) == text


def _negated(p):
    return make_point([-c for c in p.prefix], -p.tail)


def test_plan_to_obj_checks_a_given_pair_against_its_schedules():
    # (p, q), if given, is checked and not written: a side with a schedule
    # must name its source; an interior side, written as its anchor alone,
    # is not compared
    q = make_point([F(-1, 3)], 0)
    plan = solve(BND_A, q, F(1, 2**20))
    assert plan_to_obj(plan, (BND_A, q)) == plan_to_obj(plan, (BND_A, None)) == plan_to_obj(plan)
    for pair in ((_negated(BND_A), q), (None, None)):
        with pytest.raises(ParseError, match="a given endpoint is not its schedule's source"):
            plan_to_obj(plan, pair)
    plan = solve(INT_A, BND_B, F(1, 2**20))
    assert plan_to_obj(plan, (None, BND_B)) == plan_to_obj(plan)
    with pytest.raises(ParseError, match="a given endpoint is not its schedule's source"):
        plan_to_obj(plan, (INT_A, BND_A))


def test_schedule_record_names_its_own_source():
    neg = _negated(BND_A)
    back = schedule_from_obj(schedule_to_obj(build_schedule(neg, 5)))
    assert back == build_schedule(neg, 5) and back.source == neg != BND_A
