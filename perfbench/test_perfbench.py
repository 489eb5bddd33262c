"""Tests of the benchmark itself.

Run from the repository root with `python3 -m pytest perfbench`.  They check
that a wrong output fails its op, that tracing leaves the library as it found
it and repeats its counts, that the seed moves only the seeded inputs, that
host-speed scaling leaves out its own samples, and that the printed metrics
are the ones BENCHMARK.json declares.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

run.load_library()

import harness  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
CHEAP = {"ONES-ORIGIN@t10", "BND_A-INT_B@t10", "SEED_BI@t10"}


def _bindings() -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "hilbertcube" or name.startswith("hilbertcube.")
            for attr, value in vars(module).items()}


@pytest.fixture(scope="module")
def traced_run():
    before = _bindings()
    result, record = harness.measure("plan-sweep", 0, 0, True, only=CHEAP)
    return before, result, record


def test_tampered_digest_fails_the_op():
    expected = workloads.load_expected(harness.BASELINE)
    tampered = copy.deepcopy(expected)
    tampered["plans"]["ONES-ORIGIN@t10"] = "0" * 64
    tampered["diagnose"]["corrected-3-12"] = "0" * 64
    for workload, label in (("plan-sweep", "ONES-ORIGIN@t10"), ("diagnose-grid", "corrected-3-12")):
        inputs = workloads.generate_inputs(workload, 0)
        good = {op.label: op for op in workloads.setup(workload, inputs, expected)}[label]
        bad = {op.label: op for op in workloads.setup(workload, inputs, tampered)}[label]
        assert good.run().error is None
        assert "differs from the baseline" in bad.run().error


def test_traced_run_restores_module_attributes(traced_run):
    before, result, _ = traced_run
    assert result["correct"]
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []

    t = tracer.Tracer()
    with t.installed():
        wrapped = [key for key in before if before[key] is not _bindings()[key]]
    assert ("hilbertcube.limits", "twist_eval") in wrapped
    assert ("hilbertcube.homogeneity", "final_coordinate") in wrapped
    assert all(before[key] is value for key, value in _bindings().items())


def test_traced_counters_repeat_exactly():
    ops = {op.label: op for op in workloads.setup(
        "plan-sweep", workloads.generate_inputs("plan-sweep", 0),
        workloads.load_expected(harness.BASELINE))}
    snaps = []
    for _ in range(2):
        t = tracer.Tracer()
        with t.installed():
            for label in ("BND_A-BND_B@t10", "INT_A-BND_B@t20", "ONES-ORIGIN@t20"):
                with t.op_scope(label):
                    assert ops[label].run().error is None
        snaps.append(t.snapshot())
    first, second = (tracer.exact_counters(s) for s in snaps)
    assert first == second
    walked = sum(n for key, n in first.items()
                 if key[0] == "calls" and key[2:] == ("limits.final_coordinate", "twists.twist_eval"))
    assert walked > 0


def test_seed_changes_generated_inputs_only():
    for workload in workloads.WORKLOADS:
        a, again, b = (workloads.generate_inputs(workload, s) for s in (1, 1, 2))
        assert a == again
        assert a != b
        assert a.keys() == b.keys()
        if workload == "plan-sweep":
            fixed = [pair for pair in a["pairs"] if not pair[0].startswith("SEED_")]
            assert fixed == [pair for pair in b["pairs"] if not pair[0].startswith("SEED_")]
            assert len(fixed) == len(workloads.FIXED_PAIRS)
            assert [label for label, _ in a["pairs"]] == [label for label, _ in b["pairs"]]
            assert a["taus"] == b["taus"]
        elif workload == "eval-stream":
            assert (a["pairs"], a["tau"]) == (b["pairs"], b["tau"])
            assert len(a["points"]) == len(b["points"]) == workloads.EVAL_POINTS
        else:
            assert a["cells"][:-1] == b["cells"][:-1] and a["grid"] == b["grid"]


def test_metrics_are_the_declared_ones(traced_run):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    _, traced, _ = traced_run
    untraced, _ = harness.measure("plan-sweep", 0, 0, False, only=CHEAP)
    assert untraced["correct"]
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert {m["name"]: m["unit"] for m in declared[section]} == \
            {name: m["unit"] for name, m in result["metrics"].items()}


def test_scaled_seconds_leave_out_sampling_and_follow_the_reference():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_S
    # the host runs the reference at half speed from t = 10 on
    sampler.starts = [float(t) for t in range(20)]
    sampler.durations = [ref if t < 10 else 2 * ref for t in range(20)]
    assert sampler.scaled(0.5, 8.5) == pytest.approx(8 - 8 * ref)
    assert sampler.scaled(10.5, 18.5) == pytest.approx((8 - 16 * ref) / 2)
    # too few samples inside: the nearest ones decide
    assert sampler.scaled(12.2, 12.4) == pytest.approx(0.2 / 2)
    with hostspeed.Sampler() as live:
        assert len(live.durations) >= hostspeed.MIN_SAMPLES


def test_without_the_library_it_exits_nonzero_and_prints_no_result():
    harness.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "plan-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
