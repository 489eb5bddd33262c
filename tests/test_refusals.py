"""Refusals no other test reaches: each raises its documented error class,
and that class carries the exit code the CLI maps it to."""

import json
import time
from fractions import Fraction

import pytest

from hilbertcube import (
    BadIndices,
    CellMap,
    EmptySampleSet,
    HorizonExceeded,
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
    plan_eval_info,
    plan_inverse_eval_info,
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


BND_A, BND_B = make_point([1, F(1, 2), -1], F(1, 4)), make_point([F(-1, 3)], -1)
TINY = F(1, 2**100000)  # 30,103 digits: more than str() converts


@pytest.mark.parametrize("call, error, message", [
    (lambda plan: solve(BND_A, BND_B, TINY), HorizonExceeded,
     "coordinate 258 finalizes at stage 257, beyond horizon 256; tolerance <1-bit>/<100001-bit>"
     " needs horizon 400008"),
    (lambda plan: plan_eval_info(plan, BND_A, TINY), HorizonExceeded,
     "tolerance <1-bit>/<100003-bit> needs more than the 102 materialized stages; it needs 25004 stages"),
    (lambda plan: plan_inverse_eval_info(plan, BND_B, TINY), HorizonExceeded,
     "tolerance <1-bit>/<100003-bit> needs more than the 102 materialized stages; it needs 31178 stages"),
    (lambda plan: solve(BND_A, BND_B, -(2**100000)), OutOfRange,
     "tolerance must be positive, got -<100001-bit>/<1-bit>"),
], ids=["solve", "eval", "inverse-eval", "negative"])
def test_a_tolerance_too_long_to_print_is_named_by_its_bit_lengths(call, error, message):
    # a refusal's text names tau by its numerator's and denominator's bit
    # lengths where str() would raise ValueError past its digit limit; the
    # bound is on CPU time, which other processes on a shared host slow less
    plan = solve(BND_A, BND_B, F(1, 2**20))
    start = time.process_time()
    with pytest.raises(error) as info:
        call(plan)
    assert time.process_time() - start < 1
    assert type(info.value) is error and str(info.value) == message
