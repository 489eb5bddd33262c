"""Property tests of the input parsers: any JSON text either parses or is
refused as bad input (a CubeError with exit code 2), and a point survives
its own serialization."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbertcube import CubeError, make_point, parse_plan, parse_point_spec
from hilbertcube.serialize import point_to_obj

rationals = st.fractions(min_value=-1, max_value=1, max_denominator=64)
points = st.builds(make_point, st.lists(rationals, max_size=8), rationals)
rational_text = st.from_regex(r"[+-]?\d{1,3}(/\d{1,3})?", fullmatch=True)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | rational_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _mostly(valid):
    """valid three times in four, any JSON value otherwise."""
    return st.integers(0, 3).flatmap(lambda k: valid if k < 3 else json_values)


# unit rationals, boundary values included, sometimes off the square
entries = st.sampled_from(["1", "-1", "0", "1/2", "-1/3", "3/4", "1/0", "-5/4"]) | rational_text
point_objs = _mostly(st.fixed_dictionaries(
    {}, optional={"prefix": _mostly(st.lists(_mostly(entries), max_size=6)), "tail": _mostly(entries)},
))
schedule_objs = _mostly(st.fixed_dictionaries(
    {"source": point_objs, "count": _mostly(st.integers(-1, 12) | st.integers())},
    optional={"stages": _mostly(st.lists(st.lists(st.integers(0, 16), min_size=2, max_size=2), max_size=4))},
))
plan_objs = st.fixed_dictionaries({
    "case": _mostly(st.sampled_from(["interior-interior", "boundary-interior", "interior-boundary",
                                     "boundary-boundary"])),
    "move": _mostly(st.fixed_dictionaries({"source_anchor": point_objs, "target_anchor": point_objs})),
    "source_schedule": st.none() | schedule_objs,
    "target_schedule": st.none() | schedule_objs,
})


def _parses_or_refuses(parse, text):
    try:
        parse(text)
    except CubeError as e:
        assert e.exit_code == 2, f"{type(e).__name__}: {e}"


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40) | json_values.map(json.dumps) | point_objs.map(json.dumps))
@example('{"prefix": ["0/\u0ce6"]}')  # a Unicode zero denominator once reached Fraction
def test_point_spec_parses_or_exits_2(text):
    _parses_or_refuses(parse_point_spec, text)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40) | json_values.map(json.dumps) | plan_objs.map(json.dumps))
def test_plan_parses_or_exits_2(text):
    _parses_or_refuses(parse_plan, text)


@settings(max_examples=50, deadline=None)
@given(points)
def test_point_to_obj_roundtrips(p):
    assert parse_point_spec(json.dumps(point_to_obj(p))) == p
