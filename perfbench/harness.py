"""Measurement loop, metrics and run record of the benchmark (see run.py)."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "BENCH_seed.json"
OUT = HERE / "out"

# set-up is repeated at least this often and for at least this long; the
# median is setup_s
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
CLI_REPEATS = 3
# reference runs that scale one import time
IMPORT_REFERENCES = 20
CALIBRATION_REPEATS = 2
# timings of hostspeed.reference whose median is bench.reference_ms
REFERENCE_REPEATS = 200
# the op whose traced / untraced time ratio is bench.trace_overhead
CALIBRATION_OP = {"plan-sweep": "BND_A-BND_B@t20", "eval-stream": "x0", "diagnose-grid": "corrected-3-12"}

# times the import, then the reference (hostspeed.py) in the same interpreter
IMPORT_PROBE = ("import time; t = time.perf_counter(); import hilbertcube; "
                "s = time.perf_counter() - t; import hostspeed; "
                f"print(s, s * hostspeed.REFERENCE_S / hostspeed.reference_seconds({IMPORT_REFERENCES}))")


def import_seconds() -> tuple[float, float]:
    """Wall and scaled seconds to import the package in a fresh interpreter."""
    env = workloads.library_env(ROOT)
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    wall, scaled = proc.stdout.split()
    return float(wall), float(scaled)


def run_op(op):
    try:
        return op.run()
    except Exception as exc:  # any exception fails the op; the run goes on
        traceback.print_exc(file=sys.stderr)
        return workloads.Outcome(error=f"{type(exc).__name__}: {exc}")


def run_cycles(ops, seconds: float, tracer_=None):
    """Whole cycles until `seconds` of wall time have passed:
    (rows, per-cycle tracer snapshots).  A row is (op, cycle, start, end,
    outcome), with start and end read from perf_counter."""
    rows, snapshots = [], []
    start = perf_counter()
    cycle = 0
    while True:
        for op in ops:
            t0 = perf_counter()
            if tracer_ is None:
                outcome = run_op(op)
            else:
                with tracer_.op_scope(op.label):
                    outcome = run_op(op)
            rows.append((op, cycle, t0, perf_counter(), outcome))
            if outcome.error:
                sys.stderr.write(f"FAILED {op.label}: {outcome.error}\n")
        if tracer_ is not None:
            snapshots.append(tracer_.snapshot())
            tracer_.reset()
        cycle += 1
        if perf_counter() - start >= seconds:
            return rows, snapshots


def wall_seconds(t0: float, t1: float) -> float:
    return t1 - t0


def timed(rows, seconds_of) -> tuple[list, list]:
    """(rows as (op, seconds, outcome), seconds per cycle), where
    seconds_of(start, end) times one op."""
    out, cycles = [], []
    for op, cycle, t0, t1, outcome in rows:
        seconds = seconds_of(t0, t1)
        out.append((op, seconds, outcome))
        if cycle == len(cycles):
            cycles.append(0.0)
        cycles[cycle] += seconds
    return out, cycles


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency_samples_ms(workload: str, rows, cycles: list) -> list:
    """Per-op latency, per unit of weight; per whole cycle on a workload
    whose ops are a fixed curve rather than draws from one distribution."""
    if workload in workloads.LATENCY_PER_CYCLE:
        return [seconds * 1000 for seconds in cycles]
    return [seconds * 1000 / op.weight for op, seconds, _ in rows]


def end_to_end(workload: str, rows, cycles: list, setup_samples: list) -> dict:
    """End-to-end metrics from scaled op seconds (hostspeed.py)."""
    elapsed = sum(cycles)
    attempted = sum(op.weight for op, _, _ in rows)
    failed = sum(op.weight for op, _, out in rows if out.error)
    latency_ms = latency_samples_ms(workload, rows, cycles)
    if len(latency_ms) > 1:
        p90 = statistics.quantiles(latency_ms, n=10, method="inclusive")[8]
    else:
        p90 = latency_ms[0]
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "ops_per_s": metric(attempted / elapsed, "1/s"),
        "op_p50_ms": metric(statistics.median(latency_ms), "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "ok_share": metric((attempted - failed) / attempted, "share"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


# -- per-layer metrics ---------------------------------------------------------

# homogeneity functions are reported as totals, every other layer as self time
TOTALS = ("homogeneity.",)
KINDS = ("ccw", "cw", "ccw-cubed", "cw-cubed")
CURVES = (
    ("homogeneity.solve", "total_s"),
    ("limits.final_coordinate", "calls"),
    ("limits.final_coordinate", "self_s"),
    ("limits.tail_bound", "calls"),
    ("twists.twist_eval", "calls"),
    ("twists.twist_eval", "self_s"),
)


def _layer_values(snaps: list, rows: list, groups: dict, want: str | None) -> dict:
    """Per-cycle values of one op group (want) or of the whole run (None)."""
    cycles = len(snaps)

    def mine(op_label):
        return want is None or groups[op_label] == want

    calls, self_s, total_s = {}, {}, {}
    walked = 0
    for snap in snaps:
        for (op, parent, fn), (n, s, t) in snap["stats"].items():
            if not mine(op):
                continue
            calls[fn] = calls.get(fn, 0) + n
            self_s[fn] = self_s.get(fn, 0.0) + s
            total_s[fn] = total_s.get(fn, 0.0) + t
            if parent == "limits.final_coordinate" and fn == "twists.twist_eval":
                walked += n
    counts, maxima = {}, {}
    for snap in snaps:
        for (op, name), v in snap["counts"].items():
            if mine(op):
                counts[name] = counts.get(name, 0) + v
        for (op, name), v in snap["maxima"].items():
            if mine(op):
                maxima[name] = max(maxima.get(name, 0), v)
    outcomes = [out for op, _, out in rows if mine(op.label)]
    plans = [o for o in outcomes if not o.refused and not o.error and "solve_s" in o.info]
    refusals = [o.info["refusal_s"] for o in outcomes if o.refused]
    v = {}
    for fn in set(tracer.TRACED.values()):
        v[f"{fn}.calls"] = calls.get(fn, 0) // cycles
        v[f"{fn}.self_s"] = self_s.get(fn, 0.0) / cycles
        v[f"{fn}.total_s"] = total_s.get(fn, 0.0) / cycles
    for k in KINDS:
        v[f"twists.twist_eval.{k}.calls"] = counts.get(f"twists.twist_eval.{k}.calls", 0) // cycles
    n_eval = calls.get("twists.twist_eval", 0)
    v["twists.twist_eval.us_per_call"] = (
        total_s.get("twists.twist_eval", 0.0) * 1e6 / n_eval if n_eval else 0.0)
    v["limits.final_coordinate.twist_evals"] = walked // cycles
    finalized = counts.get("limits.final_coordinate.max_stage_sum", 0)
    v["limits.walk_efficiency"] = finalized / walked if walked else 0.0
    v["limits.max_den_bits"] = maxima.get("limits.max_den_bits", 0)
    v["homogeneity.time_to_plan_s"] = sum(o.info["solve_s"] + o.info["verify_s"] for o in plans) / cycles
    v["homogeneity.time_to_refusal_s"] = statistics.mean(refusals) if refusals else 0.0
    v["serialize.plan_json_bytes"] = sum(o.info.get("plan_json_bytes", 0) for o in outcomes) // cycles
    return v


def per_layer(workload: str, rows, snaps, cli_seconds: dict, overhead: float,
              reference_ms: float) -> dict:
    groups = {op.label: op.group for op, _, _ in rows}
    total = _layer_values(snaps, rows, groups, None)
    units = {"calls": "count", "self_s": "s", "total_s": "s"}
    out = {}
    for fn in sorted(set(tracer.TRACED.values())):
        field = "total_s" if fn.startswith(TOTALS) else "self_s"
        out[f"{fn}.calls"] = metric(total[f"{fn}.calls"], "count")
        out[f"{fn}.{field}"] = metric(total[f"{fn}.{field}"], "s")
    for k in KINDS:
        out[f"twists.twist_eval.{k}.calls"] = metric(total[f"twists.twist_eval.{k}.calls"], "count")
    cells = [seconds for _, seconds, _ in rows] if workload == "diagnose-grid" else []
    out["twists.twist_eval.us_per_call"] = metric(total["twists.twist_eval.us_per_call"], "us")
    out["twists.report_s_per_cell"] = metric(statistics.mean(cells) if cells else 0.0, "s")
    out["limits.final_coordinate.twist_evals"] = metric(total["limits.final_coordinate.twist_evals"], "count")
    out["limits.walk_efficiency"] = metric(total["limits.walk_efficiency"], "ratio")
    out["limits.max_den_bits"] = metric(total["limits.max_den_bits"], "bits")
    out["homogeneity.time_to_refusal_s"] = metric(total["homogeneity.time_to_refusal_s"], "s")
    out["serialize.plan_json_bytes"] = metric(total["serialize.plan_json_bytes"], "bytes")
    out["cli.process_s.solve"] = metric(cli_seconds.get("solve", 0.0), "s")
    out["cli.process_s.verify"] = metric(cli_seconds.get("verify", 0.0), "s")
    out["bench.trace_overhead"] = metric(overhead, "ratio")
    out["bench.reference_ms"] = metric(reference_ms, "ms")
    for tau in workloads.TAUS:
        curve = _layer_values(snaps, rows, groups, tau)
        for fn, field in CURVES:
            out[f"{fn}.{tau}.{field}"] = metric(curve[f"{fn}.{field}"], units[field])
        out[f"limits.final_coordinate.twist_evals.{tau}"] = metric(
            curve["limits.final_coordinate.twist_evals"], "count")
        out[f"limits.max_den_bits.{tau}"] = metric(curve["limits.max_den_bits"], "bits")
        out[f"homogeneity.time_to_plan_s.{tau}"] = metric(curve["homogeneity.time_to_plan_s"], "s")
    return out


def trace_overhead(op) -> float:
    """Traced over untraced seconds of one op, best of a few each."""
    def best(tracer_=None):
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = perf_counter()
            if tracer_ is None:
                run_op(op)
            else:
                with tracer_.installed(), tracer_.op_scope(op.label):
                    run_op(op)
            times.append(perf_counter() - t0)
        return min(times)

    return best(tracer.Tracer()) / best()


# -- the run ---------------------------------------------------------------------


def set_up(workload: str, inputs: dict, expected: dict):
    """Set the workload up repeatedly: (ops, wall seconds, scaled seconds)
    per set-up, each an import in a fresh interpreter plus building the ops."""
    wall, scaled = [], []
    setup_start = perf_counter()
    while len(wall) < SETUP_REPEATS or perf_counter() - setup_start < SETUP_SECONDS:
        imported, imported_scaled = import_seconds()
        with hostspeed.Sampler() as sampler:
            t0 = perf_counter()
            ops = workloads.setup(workload, inputs, expected)
            t1 = perf_counter()
        wall.append(imported + t1 - t0)
        scaled.append(imported_scaled + sampler.scaled(t0, t1))
    return ops, wall, scaled


def measure(workload: str, seed: int, seconds: float, trace: bool, only=None):
    """Set up, run and check one workload: (result line, run record).  only,
    if given, keeps just the ops with those labels."""
    expected = workloads.load_expected(BASELINE)
    inputs = workloads.generate_inputs(workload, seed)
    ops, setup_wall, setup_samples = set_up(workload, inputs, expected)
    calibration = next(op for op in ops if op.label == CALIBRATION_OP[workload])
    if only is not None:
        ops = [op for op in ops if op.label in only]

    failures, spans = [], None
    if trace:
        overhead = trace_overhead(calibration)
        cli_seconds = cli_process_seconds(expected, failures) if workload == "plan-sweep" else {}
        reference_ms = hostspeed.reference_seconds(REFERENCE_REPEATS) * 1000
        t = tracer.Tracer()
        with t.installed():
            timings, snaps = run_cycles(ops, seconds, t)
        rows, wall_cycles = timed(timings, wall_seconds)
        scaled_cycles = None
        counters = [tracer.exact_counters(s) for s in snaps]
        if any(c != counters[0] for c in counters[1:]):
            failures.append("operation counters differ between cycles")
        metrics = per_layer(workload, rows, snaps, cli_seconds, overhead, reference_ms)
        spans = span_record(snaps[0])
    else:
        with hostspeed.Sampler() as sampler:
            timings, _ = run_cycles(ops, seconds)
        _, wall_cycles = timed(timings, wall_seconds)
        rows, scaled_cycles = timed(timings, sampler.scaled)
        metrics = end_to_end(workload, rows, scaled_cycles, setup_samples)

    for message in failures:
        sys.stderr.write(f"FAILED {message}\n")
    attempted = sum(op.weight for op, _, _ in rows)
    failed = sum(op.weight for op, _, out in rows if out.error)
    result = {"correct": failed == 0 and not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(),
        "wall_cycles_s": wall_cycles, "scaled_cycles_s": scaled_cycles,
        "setup_wall_s": setup_wall, "setup_scaled_s": setup_samples,
        "failures": failures,
        "ops": [{"label": op.label, "group": op.group, "weight": op.weight,
                 "wall_s": wall_seconds(t0, t1), "scaled_s": None if trace else s,
                 "error": out.error, "refused": out.refused, **out.info}
                for (op, s, out), (_, _, t0, t1, _) in zip(rows, timings)],
        "spans_first_cycle": spans,
        "result": result,
    }
    return result, record


def span_record(snap: dict) -> dict:
    """{op: {"parent > metric": [calls, self_s, total_s]}, counters...}."""
    out: dict = {}
    for (op, parent, fn), values in sorted(snap["stats"].items()):
        out.setdefault(op, {})[f"{parent} > {fn}"] = values
    for kind in ("counts", "maxima"):
        for (op, name), value in sorted(snap[kind].items()):
            out.setdefault(op, {})[name] = value
    return out


def run(args) -> int:
    """One benchmark run: writes its record and prints the result line."""
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.ProgramFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def cli_process_seconds(expected: dict, failures: list) -> dict:
    """Median wall seconds of the CLI solve and verify processes."""
    samples = {"solve": [], "verify": []}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for _ in range(CLI_REPEATS):
            try:
                runs = workloads.cli_runs(ROOT, Path(tmp))
            except workloads.ProgramFailure as exc:
                failures.append(str(exc))
                break
            for name, (seconds, stdout) in runs.items():
                samples[name].append(seconds)
                if workloads.digest(stdout) != expected["cli"][name]:
                    failures.append(f"cli {name} output differs from the baseline")
    return {name: statistics.median(v) for name, v in samples.items() if v}
