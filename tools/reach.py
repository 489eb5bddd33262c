"""The src/ lines only tier-1 reaches.  Run `python3 tools/reach.py` from the repository root.

Two fresh interpreters trace every line run in src/hilbertcube with
sys.settrace: one runs the user paths (the CLI digest test, the acceptance
criteria, README's quick start as its hygiene test runs it, and one seed-1
cycle of each perfbench/workloads.py workload), the other tier-1.  Printed
per src/ function: the lines only tier-1 reaches, "whole" if no user path
enters the function.  It measures only, in some minutes: pytest's outcome
is not read, as a timing test can fail under the tracer on timing alone.
"""

import ast
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hilbertcube"
USER_TESTS = ["tests/test_cli_digest.py", "tests/test_acceptance.py",
              "tests/test_hygiene.py::test_readme_quick_start_runs"]


def trace(side: str, out: str) -> None:
    """Run one side under the tracer; write the (file, line) pairs it reached to out."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import pytest
    reached, prefix = set(), str(SRC)

    def line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    args = USER_TESTS if side == "user" else ["--continue-on-collection-errors"]
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename.startswith(prefix) else None)
    pytest.main(["-q", "-p", "no:cacheprovider", *args])
    if side == "user":
        import workloads
        expected = workloads.load_expected(ROOT / "perfbench" / "BENCH_seed.json")
        for workload in workloads.WORKLOADS:
            for op in workloads.setup(workload, workloads.generate_inputs(workload, 1), expected):
                op.run()
    sys.settrace(None)
    Path(out).write_text(json.dumps(sorted((Path(name).name, lineno) for name, lineno in reached)))


def functions(node, where=""):
    """(first body line, last line, qualified name) of each function under
    node; its def line runs in the enclosing scope."""
    for child in ast.iter_child_nodes(node):
        name = f"{where}.{getattr(child, 'name', '')}".lstrip(".")
        if isinstance(child, ast.FunctionDef):
            yield child.body[0].lineno, child.end_lineno, name
        yield from functions(child, name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("user", "tier1"):
            subprocess.run([sys.executable, __file__, side, str(Path(tmp, side))], cwd=ROOT, check=True)
        user, tier1 = ({tuple(pair) for pair in json.loads(Path(tmp, side).read_text())} for side in ("user", "tier1"))
    spans = {path.name: sorted(functions(ast.parse(path.read_text()))) for path in SRC.glob("*.py")}

    def owner(name, lineno):  # the innermost function holding the line
        return name, ([f for first, last, f in spans[name] if first <= lineno <= last] or ["<module>"])[-1]

    entered, only = {owner(*pair) for pair in user}, {}
    for pair in sorted(tier1 - user):
        only.setdefault(owner(*pair), []).append(pair[1])
    for (name, fn), lines in sorted(only.items()):
        print(f"{name} {fn}{'' if (name, fn) in entered else ' (whole)'}: {', '.join(map(str, lines))}")
    whole = sum(key not in entered for key in only)
    print(f"{sum(map(len, only.values()))} lines only tier-1 reaches, in {len(only)} functions, {whole} whole")


if __name__ == "__main__":
    trace(*sys.argv[1:]) if len(sys.argv) == 3 else main()
