"""Layered benchmark of hilbertcube: one process, one thread, stdlib only.

Usage, from the repository root:

    python3 perfbench/run.py --workload plan-sweep --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py for why each exists): plan-sweep, eval-stream,
diagnose-grid.  The library is imported from src/ of the checkout; without
it the benchmark exits with code 2 before measuring anything.

--trace 0 measures the end-to-end metrics with the program unwrapped.
--trace 1 wraps the library's public functions (tracer.py), runs the same
operations and reports the per-layer metrics instead.  Either way the last
line of standard output is one JSON object: correct, attempted, failed and
metrics ({name: {"value": v, "unit": u}}).  A per-operation record of the
run is written to perfbench/out/.

A run repeats whole cycles of the workload's operations until --seconds have
passed.  The traced run checks that every cycle gives identical operation
counters, and reports counts of one cycle and times averaged per cycle.

End-to-end times (set-up included) are in scaled seconds: wall seconds
corrected by a fixed reference computation timed alongside, so that a shared
host's speed drift does not read as a change of the program (hostspeed.py).
Per-layer times are plain wall seconds; bench.reference_ms says how fast the
host was during the traced run.  The run record has the wall times of both.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def load_library() -> None:
    """Make src/ of this checkout importable, or exit with code 2."""
    if not (SRC / "hilbertcube" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hilbertcube package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hilbertcube

    if Path(hilbertcube.__file__).resolve().parent != SRC / "hilbertcube":
        sys.stderr.write(f"error: imported hilbertcube from {hilbertcube.__file__}\n")
        raise SystemExit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("plan-sweep", "eval-stream", "diagnose-grid"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
