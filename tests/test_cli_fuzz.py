"""Property test of the exit-code contract: main(argv) on generated argv for
each of the nine commands returns 0-3 (argparse's usage exit 2 counts), and
no other exception escapes.  Exit 4, an internal defect, is a failure.

Each option's value is drawn from a small pool: the cheapest valid value,
the documented bound and the first value past it, plus malformed, non-UTF-8
and missing point and plan files.  The finest valid diagnose grid, 1/256, is
left out: it alone takes seconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertcube import make_point, solve
from hilbertcube.cli import main
from hilbertcube.homogeneity import stage_count_limit
from hilbertcube.serialize import dump_json, plan_to_obj, point_to_obj

POINTS = {
    "ones": make_point([], 1),
    "origin": make_point([], 0),
    "int_a": make_point(["1/3", "-1/2"], "1/5"),
    "int_b": make_point(["2/7"], "-3/8"),
    "bnd_a": make_point([1, "1/2", -1], "1/4"),
    "bnd_b": make_point(["-1/3"], -1),
}
PLAN_PAIRS = {"bnd_int": ("bnd_a", "int_b"), "int_bnd": ("int_a", "bnd_b"),
              "bnd_bnd": ("bnd_a", "bnd_b"), "ones_origin": ("ones", "origin")}
BROKEN = {"malformed": b'{"prefix": ["1/2", ', "non_utf8": b'{"tail": "\xff"}'}
FILE_POOL = (*BROKEN, "missing")
TAUS = ("1/2", "1/1024", "0", "-1/2",
        "1/" + str(2**14000),  # parses, and every horizon refuses it
        "1/1" + "0" * 4300)    # 4,301 digits: more than Python converts to an int


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Path of every point, plan and broken file the pools name."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"missing": str(root / "missing.json"), "out": str(root / "picture.svg"),
             "out_missing_dir": str(root / "no-such-dir" / "picture.svg")}

    def write(name, data):
        path = root / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        paths[name] = str(path)

    for name, p in POINTS.items():
        write(name, json.dumps(point_to_obj(p)))
    for name, (p, q) in PLAN_PAIRS.items():
        plan = solve(POINTS[p], POINTS[q], "1/1024")
        write(name, dump_json(plan_to_obj(plan)))
    # a source schedule of the most stages a plan file may hold, and one more
    obj = json.loads((root / "bnd_int").read_text())
    limit = stage_count_limit(POINTS["bnd_a"])
    for name, count in (("count_at_limit", limit), ("count_past_limit", limit + 1)):
        obj["source_schedule"] = {"source": point_to_obj(POINTS["bnd_a"]), "count": count}
        write(name, json.dumps(obj))
    for name, data in BROKEN.items():
        write(name, data)
    return paths


pool = st.sampled_from  # option values go to argparse as text


def _file(names):
    return pool((*names, *FILE_POOL)).map(lambda name: ("file", name))


def _options(*required, **optional):
    """argv tokens: each (option, values) in order, then each optional one or not."""
    parts = [st.tuples(st.just(opt), values) for opt, values in required]
    parts += [st.one_of(st.none(), st.tuples(st.just("--" + opt), values))
              for opt, values in optional.items()]
    return st.tuples(*parts).map(lambda pairs: [tok for pair in pairs if pair for tok in pair])


points = _file(POINTS)
plans = _file((*PLAN_PAIRS, "count_at_limit", "count_past_limit"))
taus = pool(TAUS)


def _schedule_count(name):
    limit = stage_count_limit(POINTS[name]) if name in POINTS else 1
    return pool(("0", str(limit), str(limit + 1)))


COMMANDS = {
    "solve": _options(("--p", points), ("--q", points), ("--tau", taus),
                      horizon=pool(("1", "256", "257"))),
    "eval": _options(("--plan", plans), ("--x", points), ("--tau", taus)),
    "inverse-eval": _options(("--plan", plans), ("--x", points), ("--tau", taus)),
    "verify": _options(("--plan", plans), ("--p", points), ("--q", points), ("--tau", taus)),
    "demo-first-attempt": _options(("--t", pool(("1/3", "-1/2", "1", "2", TAUS[-1]))),
                                   ("--n", pool(("0", "64", "65", "-1")))),
    "diagnose": _options(("--variant", pool(("corrected", "verbatim", "mirrored"))),
                         ("--n", pool(("1", "64", "65"))), ("--m", pool(("2", "64", "65"))),
                         ("--grid", pool(("1/16", "1/512", "1/8", "1/24")))),
    "metrics": _options(("--p", points), ("--q", points)),
    "render": _options(("--map", pool(("first-attempt", "ccw", "cw", "ccw-cubed", "cw-cubed"))),
                       ("--n", pool(("1", "64", "65"))), ("--m", pool(("2", "64", "65"))),
                       ("--grid", pool(("8", "128", "256"))),
                       ("--out", pool((("file", "out"), ("file", "out_missing_dir")))),
                       variant=pool(("corrected", "verbatim")), trace=points,
                       stages=pool(("0", "256", "257"))),
    "schedule": pool((*POINTS, *FILE_POOL)).flatmap(
        lambda name: _options(("--p", st.just(("file", name))), ("--count", _schedule_count(name)))),
}


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_main_exits_0_to_3(files, command, data):
    tokens = data.draw(COMMANDS[command], label="options")
    argv = [command, *(files[tok[1]] if isinstance(tok, tuple) else tok for tok in tokens)]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse refuses a value
        code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
