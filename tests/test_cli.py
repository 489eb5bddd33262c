"""End-to-end command-line checks, run in-process through main()."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hilbertcube import first_attempt_partial, make_point, metric_d, twists
from hilbertcube import cli, homogeneity
from hilbertcube.cli import main
from hilbertcube.homogeneity import stage_count_limit

F = Fraction
ROOT = Path(__file__).resolve().parent.parent

# every method through which a CellMap evaluates itself
EVALUATION = ("hits", "value", "apply", "image", "shear", "preimage", "_first", "_held_row", "_row_hits")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def points(tmp_path):
    def write(name, prefix, tail):
        path = tmp_path / name
        path.write_text(json.dumps({"prefix": prefix, "tail": tail}))
        return str(path)

    return {
        "ones": write("ones.json", [], "1"),
        "origin": write("origin.json", [], "0"),
        "int_a": write("int_a.json", ["1/3", "-1/2"], "1/5"),
        "int_b": write("int_b.json", ["2/7"], "-3/8"),
        "neg_ones": write("neg_ones.json", [], "-1"),
        "dir": tmp_path,
    }


def test_solve_eval_inverse_verify_pipeline(capsys, points, tmp_path):
    code, out, _ = run(capsys, "solve", "--p", points["int_a"], "--q", points["int_b"],
                       "--tau", "1/1024")
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["case"] == "interior-interior"
    assert obj["summary"]["verified"] is True
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(out)

    # interior-interior evaluation is exact: radius 0, lands on q
    code, out, _ = run(capsys, "eval", "--plan", str(plan_file),
                       "--x", points["int_a"], "--tau", "1/1024")
    assert code == 0
    cp = json.loads(out)
    assert cp["radius"] == "0"
    assert cp["value"] == {"prefix": ["2/7"], "tail": "-3/8"}

    code, out, _ = run(capsys, "inverse-eval", "--plan", str(plan_file),
                       "--x", points["int_b"], "--tau", "1/1024")
    assert code == 0
    cp = json.loads(out)
    assert cp["radius"] == "0"
    assert cp["value"] == {"prefix": ["1/3", "-1/2"], "tail": "1/5"}

    code, out, _ = run(capsys, "verify", "--plan", str(plan_file),
                       "--p", points["int_a"], "--q", points["int_b"], "--tau", "1/1024")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_exit_1_on_wrong_target(capsys, points, tmp_path):
    code, out, _ = run(capsys, "solve", "--p", points["int_a"], "--q", points["int_b"],
                       "--tau", "1/1024")
    assert code == 0
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(out)
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file),
                       "--p", points["int_a"], "--q", points["neg_ones"], "--tau", "1/1024")
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_solve_boundary_case_verifies(capsys, points):
    code, out, _ = run(capsys, "solve", "--p", points["ones"], "--q", points["int_b"],
                       "--tau", "1/1024")
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["case"] == "boundary-interior"
    assert obj["summary"]["verified"] is True
    assert obj["source_schedule"] is not None and obj["target_schedule"] is None


def test_solve_next_to_one_writes_a_plan_verify_reads(capsys, tmp_path):
    # a coordinate 2^-5000 below 1 once made solve write 1,265 source stages
    # (64,893 bytes), past the 1,036 that verify and eval load (exit 2)
    p, q, plan_file = tmp_path / "p.json", tmp_path / "q.json", tmp_path / "plan.json"
    p.write_text(json.dumps({"prefix": ["1", f"{2**5000 - 1}/{2**5000}"], "tail": "0"}))
    q.write_text(json.dumps({"prefix": ["1/3"], "tail": "0"}))
    code, out, _ = run(capsys, "solve", "--p", str(p), "--q", str(q), "--tau", "1/1024")
    assert code == 0
    assert json.loads(out)["source_schedule"]["count"] == 26
    assert len(out.encode()) == 7839
    plan_file.write_text(out)
    assert run(capsys, "verify", "--plan", str(plan_file), "--p", str(p), "--q", str(q), "--tau", "1/1024")[0] == 0
    assert run(capsys, "eval", "--plan", str(plan_file), "--x", str(p), "--tau", "1/1024")[0] == 0


def test_exit_2_on_malformed_point(capsys, points, tmp_path):
    bad = tmp_path / "bad.json"
    for content in (
        b"not json at all",
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested past the recursion limit
    ):
        bad.write_bytes(content)
        code, _, err = run(capsys, "solve", "--p", str(bad), "--q", points["int_b"],
                           "--tau", "1/4")
        assert code == 2
        assert err.startswith("error:")


def test_exit_2_on_an_output_past_the_digit_limit(capsys, points, tmp_path):
    # d(p, origin) for 15,000 coordinates 1/2 has a denominator of 15,001
    # bits, past the 4,300 digits Python writes and the parser reads back
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"prefix": ["1/2"] * 15000, "tail": "0"}))
    code, out, err = run(capsys, "metrics", "--p", str(wide), "--q", points["origin"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "4300 digits" in err
    assert "Traceback" not in err


def test_exit_2_on_decimal_tolerance(capsys, points):
    code, _, err = run(capsys, "solve", "--p", points["int_a"], "--q", points["int_b"],
                       "--tau", "0.01")
    assert code == 2
    assert "decimals forbidden" in err


def test_exit_2_on_missing_file(capsys, points):
    code, _, err = run(capsys, "metrics", "--p", "/nonexistent/p.json",
                       "--q", points["origin"])
    assert code == 2
    assert "cannot read" in err


def test_empty_trace_path_exits_2(capsys, tmp_path):
    # an empty --trace names no file, like any other empty file option
    out = tmp_path / "cell.svg"
    code, stdout, err = run(capsys, "render", "--map", "ccw", "--n", "1", "--m", "2",
                            "--grid", "8", "--trace", "", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: cannot read")
    assert not out.exists()


def test_exit_3_on_horizon(capsys, points):
    code, _, err = run(capsys, "solve", "--p", points["ones"], "--q", points["int_b"],
                       "--tau", "1/1099511627776", "--horizon", "3")
    assert code == 3
    assert "error:" in err


def test_eval_past_the_source_stages_exits_3(capsys, points, tmp_path):
    # no entry of the source leg's table meets 2^-200 within the plan's 26
    # stages; the global slope's stage search refuses, naming what it needs
    code, out, _ = run(capsys, "solve", "--p", points["ones"], "--q", points["int_b"], "--tau", "1/1024")
    plan = tmp_path / "plan.json"
    plan.write_text(out)
    code, out, err = run(capsys, "eval", "--plan", str(plan), "--x", points["ones"], "--tau", f"1/{2**200}")
    assert (code, out) == (3, "")
    assert err.startswith("error: tolerance ")
    assert err.endswith(" needs more than the 26 materialized stages; it needs 60 stages\n")


@pytest.mark.parametrize("module, work, argv, message", [
    (cli, "_first_attempt_stage", ["demo-first-attempt", "--t", "1/2", "--n", "65"],
     "--n: 65 exceeds the limit of 64 stages"),
    (cli, "render_svg", ["render", "--map", "ccw", "--n", "1", "--m", "2", "--grid", "256"],
     "8 <= G <= 128, got 256"),
    (cli, "render_svg", ["render", "--map", "ccw", "--n", "1", "--m", "2", "--grid", "16",
                         "--stages", "257"], "stage count must be in 0..256, got 257"),
    (cli, "render_svg", ["render", "--map", "ccw", "--n", "1", "--m", "65", "--grid", "16"],
     "render needs m <= 64, got m=65"),
    (twists.CellMap, EVALUATION, ["diagnose", "--variant", "corrected", "--n", "1", "--m", "65",
                                  "--grid", "1/16"], "diagnostics need m <= 64, got m=65"),
    (homogeneity, "classify_point", ["solve", "--horizon", "0"], "horizon must be in 1..256, got 0"),
    (homogeneity, "classify_point", ["solve", "--horizon", "257"], "horizon must be in 1..256, got 257"),
    (cli, "_first_attempt_stage", ["demo-first-attempt", "--t", "1/2", "--n", "-3"],
     "--n: stage count must be >= 0, got -3"),
    # 2^m has more digits than an int can hold: a map that computed its scale
    # when built would raise OverflowError here instead of exiting 2
    (cli, "render_svg", ["render", "--map", "ccw", "--n", "1", "--m", str(10**20), "--grid", "16"],
     f"render needs m <= 64, got m={10**20}"),
    (twists.CellMap, EVALUATION, ["diagnose", "--variant", "corrected", "--n", "1",
                                  "--m", str(10**20), "--grid", "1/16"],
     f"diagnostics need m <= 64, got m={10**20}"),
])
def test_size_past_its_bound_exits_2_before_work(capsys, monkeypatch, points, tmp_path,
                                                 module, work, argv, message):
    for name in (work,) if isinstance(work, str) else work:
        monkeypatch.setattr(module, name, None)  # any call fails
    if argv[0] == "render":
        argv = argv + ["--out", str(tmp_path / "x.svg")]
    if argv[0] == "solve":
        argv = argv + ["--p", points["int_a"], "--q", points["ones"], "--tau", "1/1024"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err
    assert not (tmp_path / "x.svg").exists()


def test_negative_rational_option_value_is_read_as_a_value(capsys):
    code, out, _ = run(capsys, "demo-first-attempt", "--t", "-1/2", "--n", "2")
    assert code == 0
    assert "image of all--1/2" in out.splitlines()[0]
    assert run(capsys, "demo-first-attempt", "--t=-1/2", "--n", "2") == (0, out, "")


def test_negative_tolerance_exits_2(capsys, points):
    code, out, err = run(capsys, "solve", "--p", points["ones"], "--q", points["int_b"],
                         "--tau", "-1/2")
    assert (code, out) == (2, "")
    assert "tolerance must be positive" in err
    code, out, err = run(capsys, "diagnose", "--variant", "corrected",
                         "--n", "1", "--m", "2", "--grid", "-1/16")
    assert (code, out) == (2, "")
    assert "grid step must be 1/2^k" in err


def test_plan_with_pseudo_interior_schedule_source_exits_2(capsys, points, tmp_path):
    code, out, _ = run(capsys, "solve", "--p", points["ones"], "--q", points["int_b"],
                       "--tau", "1/1024")
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "boundary-interior"
    obj["source_schedule"] = {"source": {"prefix": ["1/3"], "tail": "0"}, "count": 7}
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(obj))
    code, out, err = run(capsys, "eval", "--plan", str(plan_file),
                         "--x", points["int_a"], "--tau", "1/1024")
    assert (code, out) == (2, "")
    assert "plan.source_schedule.source: a pseudo-interior point has no schedule" in err


def test_demo_table(capsys):
    code, out, _ = run(capsys, "demo-first-attempt", "--t", "1/2", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("stage")
    assert "image of all-1/2" in lines[0] and "distance" in lines[0]
    assert len(lines) == 7  # header + stages 0..5
    ones, half = make_point([], 1), make_point([], F(1, 2))
    want = metric_d(first_attempt_partial(ones, 5), first_attempt_partial(half, 5))
    assert want == F(1, 64)
    assert lines[-1].split()[-1] == "1/64"


def test_diagnose_corrected_clean(capsys):
    code, out, _ = run(capsys, "diagnose", "--variant", "corrected",
                       "--n", "1", "--m", "2", "--grid", "1/16")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["findings"] == []
    assert obj["points_checked"] > 0


def test_diagnose_verbatim_reports(capsys):
    code, out, _ = run(capsys, "diagnose", "--variant", "verbatim",
                       "--n", "1", "--m", "2", "--grid", "1/16")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is False and len(obj["findings"]) > 0
    checks = {f["check"] for f in obj["findings"]}
    assert "range-containment" in checks


def test_diagnose_rejects_coarse_grid(capsys):
    code, _, err = run(capsys, "diagnose", "--variant", "corrected",
                       "--n", "1", "--m", "2", "--grid", "1/8")
    assert code == 2
    assert "grid step" in err


def test_diagnose_rejects_grid_finer_than_limit(capsys, monkeypatch):
    def no_evaluation(cm, *point):
        raise AssertionError("twist evaluated")

    for name in EVALUATION:
        monkeypatch.setattr(twists.CellMap, name, no_evaluation)
    code, out, err = run(capsys, "diagnose", "--variant", "corrected",
                         "--n", "1", "--m", "2", "--grid", "1/512")
    assert (code, out) == (2, "")
    assert "grid step must be 1/2^k, 4 <= k <= 8" in err


def test_metrics(capsys, points):
    code, out, _ = run(capsys, "metrics", "--p", points["ones"], "--q", points["origin"])
    assert code == 0
    obj = json.loads(out)
    assert obj["distance"] == "1"
    assert obj["p_profile"]["tail_is_boundary"] is True
    assert obj["q_profile"]["tail_is_boundary"] is False


def test_schedule_record(capsys, points):
    code, out, _ = run(capsys, "schedule", "--p", points["ones"], "--count", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["stages"] == [[1, 4], [2, 8], [3, 12], [4, 16]]
    assert obj["budget_ok"] is True
    assert obj["forward_tail_bound"] == "1/5"
    assert obj["reverse_tail_bound"] == "3/11"


def test_render_writes_deterministic_svg(capsys, tmp_path):
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    for path in (a, b):
        code, _, _ = run(capsys, "render", "--map", "ccw", "--n", "1", "--m", "2",
                         "--grid", "16", "--out", path)
        assert code == 0
    data = (tmp_path / "a.svg").read_bytes()
    assert data == (tmp_path / "b.svg").read_bytes()
    text = data.decode()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2 * (16 + 1)


def test_render_with_trace(capsys, points, tmp_path):
    out_path = str(tmp_path / "t.svg")
    code, _, _ = run(capsys, "render", "--map", "ccw-cubed", "--n", "1", "--m", "4",
                     "--grid", "8", "--trace", points["ones"], "--stages", "2",
                     "--out", out_path)
    assert code == 0
    assert "<path" in (tmp_path / "t.svg").read_text()


def test_render_into_a_missing_directory_exits_2(capsys, tmp_path):
    out = tmp_path / "missing" / "x.svg"
    code, stdout, err = run(capsys, "render", "--map", "ccw", "--n", "1", "--m", "2",
                            "--grid", "16", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}:") and "Traceback" not in err
    assert not out.parent.exists()


def test_render_refuses_a_missing_directory_before_rendering(capsys, monkeypatch, tmp_path):
    def no_render(spec):
        raise AssertionError("rendered before the output path was checked")

    monkeypatch.setattr(cli, "render_svg", no_render)
    folder = tmp_path / "folder"  # an existing directory named as the file is refused too
    folder.mkdir()
    for out in (tmp_path / "missing" / "x.svg", tmp_path / "file.svg" / "x.svg", folder):
        (tmp_path / "file.svg").write_text("")
        code, stdout, err = run(capsys, "render", "--map", "ccw-cubed", "--n", "1", "--m", "4",
                                "--grid", "128", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out}:")
        assert out == folder or not out.exists()
    assert list(folder.iterdir()) == []


def test_render_into_a_file_name_too_long_exits_2(capsys, tmp_path):
    # the directory exists, so the name is refused only when the file is opened
    out = tmp_path / ("x" * 300 + ".svg")
    code, stdout, err = run(capsys, "render", "--map", "ccw", "--n", "1", "--m", "2",
                            "--grid", "16", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}:") and "File name too long" in err
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


def test_render_rejects_bad_grid(capsys, tmp_path):
    code, _, err = run(capsys, "render", "--map", "ccw", "--n", "1", "--m", "2",
                       "--grid", "12", "--out", str(tmp_path / "x.svg"))
    assert code == 2
    assert "power of two" in err


@pytest.mark.skipif(
    shutil.which("hilbertcube") is None,
    reason="no hilbertcube console script on PATH; it comes with `pip install -e .`",
)
def test_console_script(points):
    exe = shutil.which("hilbertcube")
    proc = subprocess.run(
        [exe, "schedule", "--p", points["ones"], "--count", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stages"] == [[1, 4], [2, 8]]


def test_console_script_entry_point(points):
    # what the installed script does, without installing: pip's wrapper
    # imports the [project.scripts] target and calls sys.exit(main())
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["hilbertcube"] == "hilbertcube.cli:main"
    module, func = scripts["hilbertcube"].split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "schedule", "--p", points["ones"], "--count", "2"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["stages"] == [[1, 4], [2, 8]]


def test_exit_2_on_schedule_count_over_limit(capsys, points):
    code, out, _ = run(capsys, "solve", "--p", points["ones"], "--q", points["int_b"],
                       "--tau", "1/1024")
    assert code == 0
    plan = json.loads(out)
    plan["source_schedule"]["count"] = stage_count_limit(make_point([], 1)) + 1
    del plan["source_schedule"]["stages"]
    path = points["dir"] / "huge.json"
    path.write_text(json.dumps(plan))
    code, _, err = run(capsys, "verify", "--plan", str(path), "--p", points["ones"],
                       "--q", points["int_b"], "--tau", "1/1024")
    assert code == 2
    assert "exceeds the limit" in err


def test_exit_2_on_oversized_rational(capsys, points):
    numerator = "7" * 4301
    path = points["dir"] / "long.json"
    path.write_text(json.dumps({"prefix": [numerator + "/9"], "tail": "0"}))
    code, out, err = run(capsys, "metrics", "--p", str(path), "--q", points["origin"])
    assert (code, out) == (2, "")
    assert "too many digits" in err
    code, out, err = run(capsys, "solve", "--p", points["ones"], "--q", points["origin"],
                         "--tau", numerator + "/9")
    assert (code, out) == (2, "")
    assert "--tau" in err and "too many digits" in err


def test_schedule_command_count_limit(capsys, points, monkeypatch):
    limit = stage_count_limit(make_point([], 1))
    code, out, _ = run(capsys, "schedule", "--p", points["ones"], "--count", str(limit))
    assert code == 0
    assert json.loads(out)["count"] == limit
    monkeypatch.setattr(cli, "build_schedule", None)  # refused before any build
    code, out, err = run(capsys, "schedule", "--p", points["ones"], "--count", str(limit + 1))
    assert (code, out) == (2, "")
    assert f"--count: {limit + 1} exceeds the limit of {limit} stages" in err
