"""Spans and operation counters around the library's public functions.

The tracer wraps, from outside the library, every name a hilbertcube module
binds to one of the traced functions: the defining module's own attribute
(so calls inside that module are seen) and each importing module's copy
(for example ``limits.twist_eval`` and ``homogeneity.final_coordinate``).
Nothing under ``src/`` changes, and leaving ``installed()`` puts every
original object back, so an untraced run measures the unwrapped program.

A span is one call of a traced function.  Spans nest on a stack; a span's
self time is its duration minus the time of the traced spans it caused.
Spans are aggregated in memory per (op label, parent metric, metric) edge,
which keeps attribution ("twist evaluations under final_coordinate") without
storing millions of records.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "hilbertcube"

# (defining module, function name) -> metric name.  forward and reverse tail
# bounds share one metric: together they are the tail-bound search.
TRACED = {
    ("twists", "twist_eval"): "twists.twist_eval",
    ("twists", "twist_eval_unchecked"): "twists.twist_eval_unchecked",
    ("twists", "matching_regions"): "twists.matching_regions",
    ("twists", "piece_value"): "twists.piece_value",
    ("twists", "piece_inverse_oracle"): "twists.piece_inverse_oracle",
    ("twists", "twist_diagnostics"): "twists.twist_diagnostics",
    ("limits", "final_coordinate"): "limits.final_coordinate",
    ("limits", "build_schedule"): "limits.build_schedule",
    ("limits", "h_eval"): "limits.h_eval",
    ("limits", "reverse_partial_eval"): "limits.reverse_partial_eval",
    ("limits", "forward_tail_bound"): "limits.tail_bound",
    ("limits", "reverse_tail_bound"): "limits.tail_bound",
    ("interior", "interior_map_eval"): "interior.interior_map_eval",
    ("interior", "lipschitz_bound"): "interior.lipschitz_bound",
    ("cube", "metric_d"): "cube.metric_d",
    ("homogeneity", "solve"): "homogeneity.solve",
    ("homogeneity", "plan_eval_info"): "homogeneity.plan_eval_info",
    ("homogeneity", "plan_inverse_eval_info"): "homogeneity.plan_inverse_eval_info",
    ("homogeneity", "plan_report"): "homogeneity.plan_report",
    ("serialize", "plan_to_obj"): "serialize.plan_to_obj",
    ("serialize", "dump_json"): "serialize.dump_json",
    ("serialize", "parse_plan"): "serialize.parse_plan",
}

TOP = "-"  # parent of a span opened directly by the benchmark


def _den_bits(pair) -> int:
    return max(pair[0].denominator.bit_length(), pair[1].denominator.bit_length())


class Tracer:
    """Collects spans and counters while installed.

    stats[(op, parent, metric)] = [calls, self_s, total_s]
    counts[(op, counter)] sums; maxima[(op, counter)] keeps the largest value.
    """

    def __init__(self):
        self.stats: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.maxima: dict[tuple[str, str], int] = defaultdict(int)
        self.op = TOP
        self._stack: list[list] = []  # [metric, child seconds]
        # schedule id -> [schedule, largest finalized stage] within the op
        self._walks: dict[int, list] = {}

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        saved = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        try:
            for (mod_name, fn_name), metric in TRACED.items():
                original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
                wrapper = self._wrap(original, metric)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def op_scope(self, label: str):
        """Attribute spans and counters to one benchmark operation."""
        self.op = label
        try:
            yield
        finally:
            finalized = sum(stage for _, stage in self._walks.values())
            self.counts[(label, "limits.final_coordinate.max_stage_sum")] += finalized
            self._walks.clear()
            self.op = TOP

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, metric: str):
        stack = self._stack
        stats = self.stats
        hook = {
            "twists.twist_eval": self._on_twist_eval,
            "limits.final_coordinate": self._on_final_coordinate,
        }.get(metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else TOP
            frame = [metric, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = stats[(self.op, parent, metric)]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                entry[2] += elapsed
            if hook is not None:
                hook(parent, args, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _on_twist_eval(self, parent, args, result) -> None:
        self.counts[(self.op, f"twists.twist_eval.{args[0].kind.value}.calls")] += 1
        if parent.startswith("limits."):
            key = (self.op, "limits.max_den_bits")
            bits = _den_bits(result)
            if bits > self.maxima[key]:
                self.maxima[key] = bits

    def _on_final_coordinate(self, parent, args, result) -> None:
        schedule = args[0]
        walk = self._walks.setdefault(id(schedule), [schedule, 0])
        walk[1] = max(walk[1], result[0])

    # -- views --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain copy of everything recorded, for comparison and reports."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()
        self.maxima.clear()


def exact_counters(snap: dict) -> dict:
    """The parts of a snapshot that must repeat exactly: call counts per
    edge, summed counters and maxima (times excluded)."""
    out = {("calls",) + k: v[0] for k, v in snap["stats"].items()}
    out.update({("count",) + k: v for k, v in snap["counts"].items()})
    out.update({("max",) + k: v for k, v in snap["maxima"].items()})
    return out
