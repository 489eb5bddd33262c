"""Refusals no other test reaches: each raises its documented error class,
and that class carries the exit code the CLI maps it to."""

import json
from fractions import Fraction

import pytest

from hilbertcube import (
    BadIndices,
    CellMap,
    EmptySampleSet,
    MapKind,
    OutOfRange,
    ParseError,
    Variant,
    build_schedule,
    final_coordinate,
    first_attempt_partial,
    lipschitz_sample_check,
    make_point,
    parse_plan,
    parse_point_spec,
    piece_value,
    plan_report,
    solve,
    twist_eval,
)
from hilbertcube.serialize import plan_to_obj

F = Fraction
P, Q = make_point([1], 0), make_point([F(1, 3)], 0)
CCW = CellMap(MapKind.TWIST_CCW, Variant.CORRECTED, 1, 2)


def _plan_with_source_schedule(value):
    obj = plan_to_obj(solve(P, Q, F(1, 64)))
    obj["source_schedule"] = value
    return json.dumps(obj)


@pytest.mark.parametrize("call, error, message", [
    (lambda: plan_report(solve(P, Q, F(1, 64)), P, Q, 0), OutOfRange, "tolerance must be positive"),
    (lambda: build_schedule(P, -1), BadIndices, "stage count must be >= 0, got -1"),
    (lambda: final_coordinate(build_schedule(P, 4), P, 0), BadIndices, "coordinate index must be >= 1"),
    (lambda: first_attempt_partial(P, -1), BadIndices, "stage count must be >= 0, got -1"),
    (lambda: CellMap(MapKind.TWIST_CCW, Variant.CORRECTED, F(1), 2), BadIndices,
     "cell indices must be integers"),
    (lambda: twist_eval(CCW, F(5, 4), 0), OutOfRange, "outside the square"),
    (lambda: piece_value(CCW, "V", 0, 0), BadIndices, "unknown clause 'V'"),
    (lambda: lipschitz_sample_check(CCW, []), EmptySampleSet, "needs at least one pair"),
    (lambda: parse_point_spec('{"prefix": "1/2"}'), ParseError,
     "point.prefix: expected an array"),
    (lambda: parse_plan(_plan_with_source_schedule([])), ParseError,
     "plan.source_schedule: expected an object"),
])
def test_refusal_raises_its_class_with_exit_2(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error and info.value.exit_code == 2
