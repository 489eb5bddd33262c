"""Every command-line outcome, pinned by one sha256.

About a hundred in-process main(argv) runs: solve for the four case pairs
and const-1 -> origin over a tau sweep, eval, inverse-eval and verify on
the plans those runs wrote, metrics, schedule, demo-first-attempt,
diagnose, render, every --help text and single-fault inputs.  Each run's
argv, exit code, stdout, stderr and the SVG it wrote, if any, are hashed.
The runs work in a temporary directory on relative paths, so no message
names a machine path.  Help texts are formatted at COLUMNS=200, wider than
any usage line, so argparse wraps none and every supported Python writes
the same records.  Any change to how the command line reads its inputs or
writes its outputs must leave every one of these outcomes as it is.
"""

import contextlib
import hashlib
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hilbertcube import make_point
from hilbertcube.cli import main
from hilbertcube.homogeneity import stage_count_limit
from hilbertcube.serialize import point_to_obj

F = Fraction

POINTS = {
    "int_a": make_point([F(1, 3), F(-1, 2)], F(1, 5)),
    "int_b": make_point([F(2, 7)], F(-3, 8)),
    "bnd_a": make_point([1, F(1, 2), -1], F(1, 4)),
    "bnd_b": make_point([F(-1, 3)], -1),
    "ones": make_point([], 1),
    "origin": make_point([], 0),
    "x1": make_point([F(1, 3)] * 5, F(-1, 7)),
    "x2": make_point([F(-1, 2), 1, F(3, 8)], F(3, 4)),
}
PAIRS = (("int_a", "int_b"), ("bnd_a", "int_b"), ("int_a", "bnd_b"), ("bnd_a", "bnd_b"), ("ones", "origin"))
SOLVE_TAUS = ("1/1024", "1/1048576", "1/" + str(2**64), "0", "-1/2", "0.5")
PLAN_TAU = "1/1048576"
COMMANDS = ("solve", "eval", "inverse-eval", "verify", "demo-first-attempt", "diagnose", "metrics",
            "render", "schedule")
DIGEST = "fc936f49dbfe41b57e973562f203baf6671c29ca6edef7cc8a65adaed8628e9a"


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and the pinned record of one main(argv) run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    svg = ""
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.is_file():
            svg = path.read_text()
            path.unlink()
    return code, f"{argv!r}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n{svg}"


def test_cli_outcomes_are_pinned(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "200")
    for name, p in POINTS.items():
        Path(f"{name}.json").write_text(json.dumps(point_to_obj(p)))
    Path("malformed.json").write_text('{"prefix": ["1/2", ')
    Path("non_utf8.json").write_bytes(b'{"tail": "\xff"}')
    codes, records = [], []

    def run(*argv):
        code, record = _run(list(argv))
        codes.append(code)
        records.append(record)

    for p, q in PAIRS:
        for tau in SOLVE_TAUS:
            run("solve", "--p", f"{p}.json", "--q", f"{q}.json", "--tau", tau)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["solve", "--p", f"{p}.json", "--q", f"{q}.json", "--tau", PLAN_TAU]) == 0
        Path(f"{p}-{q}.plan").write_text(out.getvalue())
    for p, q in PAIRS:
        plan = f"{p}-{q}.plan"
        for x in (p, q, "x1", "x2"):
            for command in ("eval", "inverse-eval"):
                run(command, "--plan", plan, "--x", f"{x}.json", "--tau", "1/1024")
        for target in (q, "x1"):
            run("verify", "--plan", plan, "--p", f"{p}.json", "--q", f"{target}.json", "--tau", PLAN_TAU)

    run("metrics", "--p", "ones.json", "--q", "origin.json")
    run("metrics", "--p", "bnd_a.json", "--q", "int_b.json")
    run("schedule", "--p", "bnd_a.json", "--count", "4")
    run("schedule", "--p", "ones.json", "--count", "8")
    run("demo-first-attempt", "--t", "1/3", "--n", "5")
    run("demo-first-attempt", "--t", "-1/2", "--n", "3")
    for variant in ("corrected", "verbatim"):
        run("diagnose", "--variant", variant, "--n", "1", "--m", "2", "--grid", "1/16")
    run("render", "--map", "ccw", "--n", "1", "--m", "2", "--grid", "8", "--out", "cell.svg")
    run("render", "--map", "ccw-cubed", "--n", "1", "--m", "4", "--grid", "8",
        "--trace", "x1.json", "--stages", "4", "--out", "cell.svg")

    run("--help")
    for command in COMMANDS:
        run(command, "--help")

    # single faults
    for bad in ("malformed.json", "missing.json", "non_utf8.json"):
        run("solve", "--p", bad, "--q", "int_b.json", "--tau", "1/1024")
        run("eval", "--plan", bad, "--x", "x1.json", "--tau", "1/1024")
    run("verify", "--plan", "ones-origin.plan", "--p", "ones.json", "--q", "origin.json", "--tau", "0.001")
    run("schedule", "--p", "bnd_a.json", "--count", str(stage_count_limit(POINTS["bnd_a"]) + 1))
    run("diagnose", "--variant", "corrected", "--n", "1", "--m", "2", "--grid", "1/3")
    run("metrics", "--p", "ones-origin.plan", "--q", "origin.json")
    run("render", "--map", "ccw", "--n", "1", "--m", "2", "--grid", "8", "--out", "no-such-dir/cell.svg")
    run("render", "--map", "ccw", "--n", "1", "--m", "2", "--grid", "8", "--trace", "missing.json",
        "--out", "cell.svg")
    run("demo-first-attempt", "--t", "2", "--n", "3")
    run("demo-first-attempt", "--t", "1/3", "--n", "65")
    run("solve", "--p", "int_a.json", "--q", "int_b.json")

    assert len(records) == 115
    assert Counter(codes) == {0: 78, 1: 5, 2: 30, 3: 2}
    assert not list(tmp_path.glob("*.svg"))
    assert hashlib.sha256("\0".join(records).encode()).hexdigest() == DIGEST
