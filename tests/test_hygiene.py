"""No dead names in the library: every import a module makes is used, and
every module-level constant or private helper it defines is used by it or
imported from it by another module of the package.  Every public function
or class is used in the package, traced by the benchmark, installed as a
console script, or imported by the acceptance criteria, the soundness
check or README's quick start; exporting it does not count.  Every
non-dunder method and property, and every dataclass field, of a class the
package defines is read as an attribute by code outside its own body, in
the package or in those same users; other tests do not count.  README's
Layout lists every module.  Every function the benchmark tracer wraps
is still defined where the tracer looks for it.  The twist kernel's
clause helpers shift by the scale 2^(m-n) and never multiply by it, and
only CellMap's methods see cw's reflected frame.  The command-line
handlers neither parse input nor write stdout: main does both.  No module
calls json.dumps: dump_json writes JSON, and none builds Fraction(*pair)
from a pair already reduced.  The twist diagnostics write their findings
without calling Fraction.  Only cube._settle sets a PointRep's fields,
and only cube._point makes one without __post_init__.  Plans and
schedules are written from themselves: the package and its tests call
plan_to_obj and schedule_to_obj with the one object, except the one test of
the (p, q) pair the benchmark still passes.  The source leg is charged
from one table, written and bisected in limits: homogeneity reads no tail
bound and takes no min of two charges, and _evaluate, the work of
plan_eval_info and plan_inverse_eval_info, searches nothing itself.
Read with ast, so nothing is imported or run, except that README's quick
start is run as printed and the last test runs evaluations, to count the
points they build."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hilbertcube"


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(tree) -> set[str]:
    """Names the module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def _imports(tree) -> list[tuple[str, str, str]]:
    """(bound name, module named, name imported) of each module-level import."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            found += [(a.asname or a.name.split(".")[0], a.name, "") for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(a.asname or a.name, node.module or "", a.name) for a in node.names]
    return found


def _defined(tree) -> set[str]:
    """Module-level constants and private helpers (public functions and
    classes are the package's API)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            names.add(node.name)
    return names


def test_every_import_is_used():
    unused = {
        f"{module}: {name}"
        for module, tree in _trees().items() if module != "__init__"
        for name, _, _ in _imports(tree) if name not in _used_names(tree)
    }
    assert not unused


def test_every_constant_and_private_helper_is_used():
    trees = _trees()
    imported_from = {(src, name) for tree in trees.values() for _, src, name in _imports(tree)}
    dead = {
        f"{module}: {name}"
        for module, tree in trees.items() if module != "__init__"
        for name in _defined(tree)
        if name not in _used_names(tree) and (module, name) not in imported_from
    }
    assert not dead


def _top_level_names(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def _traced() -> dict[tuple[str, str], str]:
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    return next(ast.literal_eval(node.value) for node in tracer.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))


# outside the package, these alone count as users of a public name: the
# acceptance criteria, the soundness check and README's quick start
USERS = (ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_soundness.py")


def _quick_start() -> ast.Module:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0])


def test_readme_quick_start_runs():
    # the quick start runs as README prints it, its asserts included
    exec(compile(_quick_start(), "README.md", "exec"), {})


def test_every_public_function_and_class_is_used(scripts):
    # exporting a name from __init__ does not use it
    trees = _trees()
    used = {(src, name) for module, tree in trees.items() if module != "__init__"
            for _, src, name in _imports(tree)}
    used |= set(_traced()) | {tuple(entry.removeprefix("hilbertcube.").split(":")) for entry in scripts.values()}
    outside = {alias.name for tree in (*(ast.parse(path.read_text()) for path in USERS), _quick_start())
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hilbertcube")
               for alias in node.names}
    assert {"solve", "verify_plan"} <= outside
    dead = {
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and (module, node.name) not in used and node.name not in _used_names(tree) and node.name not in outside
    }
    assert not dead


def _members(tree):
    """(class, name, node) of each non-dunder method and property, and each
    dataclass field, of every class the module defines."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        dataclass = any(ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass" for d in cls.decorator_list)
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")):
                yield cls.name, node.name, node
            elif dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id, node


def test_every_method_property_and_field_is_read():
    # a member counts as read where code outside its own body reads an
    # attribute of its name: a module of the package or one of the users
    # above; matching by name alone, a name two classes share is read for both
    trees = _trees()
    reads = {}
    for tree in (*trees.values(), *(ast.parse(path.read_text()) for path in USERS), _quick_start()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    unread = {
        f"{module}: {cls}.{name}"
        for module, tree in trees.items()
        for cls, name, member in _members(tree)
        if not {id(node) for node in reads.get(name, ())} - {id(node) for node in ast.walk(member)}
    }
    assert not unread


def test_readme_layout_lists_every_module():
    # one line per module of the package, __init__ aside, and no other
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    listed = re.findall(r"^\s+(\w+\.py)\s", block, re.M)
    assert sorted(listed) == sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def test_every_traced_function_is_defined_by_its_module():
    traced = _traced()
    assert traced
    trees = _trees()
    missing = {f"{module}.{name}" for module, name in traced
               if module not in trees or name not in _top_level_names(trees[module])}
    assert not missing


def test_src_writes_json_through_dump_json_alone():
    # serialize.dump_json writes every JSON text; json.dumps, its reference,
    # stays in the tests
    calls = [f"{module}: {ast.unparse(node)}" for module, tree in _trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "dumps"
             or isinstance(node, ast.alias) and node.name == "dumps"]
    assert not calls


def test_src_builds_no_fraction_from_a_pair_it_unpacks():
    # Fraction(*pair) normalizes a pair the walk or the move already
    # reduced; cube._coprime builds it without a second gcd
    calls = [f"{module}: {ast.unparse(node)}" for module, tree in _trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Fraction"
             and any(isinstance(arg, ast.Starred) for arg in node.args)]
    assert not calls


def test_diagnostics_write_findings_without_a_fraction():
    # a finding's text is written from integers, each coordinate by one gcd,
    # and its witness built by cube._coprime: the grid pass, its note and
    # the pair formatter call no Fraction(...) of their own
    names = {"twist_diagnostics", "note", "_fmt_pair", "_ratio"}
    defs = [node for node in ast.walk(_trees()["twists"]) if isinstance(node, ast.FunctionDef) and node.name in names]
    calls = [f"{fn.name}: {ast.unparse(node)}" for fn in defs for node in ast.walk(fn)
             if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Fraction"]
    assert {fn.name for fn in defs} == names and not calls


def _holders(tree, match) -> set[str]:
    """Qualified names of the innermost functions holding a node that match
    accepts ("" for module level)."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if match(child):
                found.add(where)
            visit(child, where)

    visit(tree, "")
    return found


def test_only_settle_sets_a_points_fields():
    # the point invariant is written once: cube._settle checks the prefix,
    # strips it and sets both fields, and cube._point alone makes a PointRep
    # without running __post_init__
    def sets_field(node):
        return isinstance(node, ast.Call) and len(node.args) == 3 \
            and isinstance(node.args[1], ast.Constant) and node.args[1].value in ("prefix", "tail")

    def bare_point(node):
        return isinstance(node, ast.Call) and ast.unparse(node) == "object.__new__(PointRep)"

    trees = _trees()
    setters = {f"{module}: {name}" for module, tree in trees.items() for name in _holders(tree, sets_field)}
    makers = {f"{module}: {name}" for module, tree in trees.items() for name in _holders(tree, bare_point)}
    assert (setters, makers) == ({"cube: _settle"}, {"cube: _point"})


def test_stage_factor_is_read_only_in_limits():
    # the per-stage Lipschitz factor and entry bound have one ledger,
    # limits.py, and so has the anchor cutoff plans are sized with: limits
    # defines _anchor_cutoff and solve alone calls it
    factors = {"STAGE_LIPSCHITZ", "STAGE_ENTRY"}
    trees = _trees()
    readers = {
        module
        for module, tree in trees.items() if module != "limits"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in factors)
        or (isinstance(node, ast.Attribute) and node.attr in factors)
        or (isinstance(node, ast.alias) and node.name in factors)
    }
    assert not readers

    def calls_cutoff(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_anchor_cutoff"

    owners = {module for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_anchor_cutoff"}
    callers = {f"{module}: {name}" for module, tree in trees.items() for name in _holders(tree, calls_cutoff)}
    assert (owners, callers) == ({"limits"}, {"homogeneity: solve"})


def test_source_leg_is_charged_from_one_table():
    # the source leg has one ledger: limits writes min(slope * tail(j), E(j))
    # and bisects it.  homogeneity reads no tail bound and defines no
    # bisection; the choice of an evaluation (_choose) searches the table
    # once, takes no min, and calls the source schedule's own stage search
    # only to refuse, its result discarded.  _evaluate searches nothing and
    # reads no bound: it applies the choice
    trees = _trees()
    tree = trees["homogeneity"]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "tail_bound"]
    assert "bisect" not in {module for _, module, _ in _imports(tree)}

    def functions(module):
        return {node.name: node for node in trees[module].body if isinstance(node, ast.FunctionDef)}

    def calls(fn):
        return [node for node in ast.walk(fn) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]

    assert "_least_below" in functions("limits").keys() - functions("homogeneity").keys()
    choose = functions("homogeneity")["_choose"]
    called = [node.func.id for node in calls(choose)]
    assert called.count("_least_below") == 1 and "min" not in called
    discarded = {id(stmt.value) for node in ast.walk(choose) if isinstance(node, ast.If)
                 for stmt in node.body if isinstance(stmt, ast.Expr)}
    searches = [node for node in calls(choose) if node.func.id == "_least_stage"
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "src"]
    assert searches and all(id(node) in discarded for node in searches)
    evaluate = {node.func.id for node in calls(functions("homogeneity")["_evaluate"])}
    assert not evaluate & {"_least_below", "_least_stage", "lipschitz_bound", "moved_tail_bounds"}


def test_render_imports_no_public_twist_function():
    # render runs on CellMap's integers; the Fraction entry points of twists
    # are API, not its building blocks
    trees = _trees()
    functions = {node.name for node in trees["twists"].body if isinstance(node, ast.FunctionDef)}
    imported = {name for _, module, name in _imports(trees["render"]) if module == "twists"}
    assert not {name for name in imported & functions if not name.startswith("_")}


def test_diagnostics_call_no_public_twist_function():
    # twist_diagnostics runs on CellMap's integers, clause inversion included
    tree = _trees()["twists"]
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    diagnostics = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "twist_diagnostics")
    called = {node.func.id for node in ast.walk(diagnostics)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not {name for name in called & functions if not name.startswith("_")}


FRACTION_ENTRY_POINTS = {"twist_eval", "twist_eval_unchecked", "matching_regions", "piece_value",
                         "piece_inverse_oracle"}


def test_no_function_calls_a_fraction_entry_point():
    # the package applies and inverts twists on CellMap's integers; the
    # Fraction entry points of twists serve callers, none of them another
    calls = {f"{module}: {name}" for module, tree in _trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in FRACTION_ENTRY_POINTS}
    assert not calls


def _scale_products(fn) -> list[str]:
    """Products in fn with a 1 << ... operand, directly or through a name
    bound to one."""
    def is_scale(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift) \
            and isinstance(node.left, ast.Constant) and node.left.value == 1
    def bound(target, value):
        # (name, value) pairs of an assignment, tuple unpacking included
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts):
            return [pair for t, v in zip(target.elts, value.elts) for pair in bound(t, v)]
        return [(target.id, value)] if isinstance(target, ast.Name) else []
    scales = {name for node in ast.walk(fn) if isinstance(node, ast.Assign)
              for target in node.targets for name, value in bound(target, node.value) if is_scale(value)}
    return [ast.unparse(node) for node in ast.walk(fn)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(is_scale(sub) or (isinstance(sub, ast.Name) and sub.id in scales)
                    for side in (node.left, node.right) for sub in ast.walk(side))]


def test_cell_map_image_shifts_by_the_scale():
    # image, preimage and every CellMap method they reach through self, the
    # clause helpers among them, multiply by no power of two
    cell_map = next(node for node in _trees()["twists"].body
                    if isinstance(node, ast.ClassDef) and node.name == "CellMap")
    methods = {node.name: node for node in cell_map.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["image", "preimage"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [node.attr for node in ast.walk(methods[name]) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "self" and node.attr in methods]
    assert {"_ccw_conditions", "_ccw_value"} <= reached
    assert {name: _scale_products(methods[name]) for name in reached if _scale_products(methods[name])} == {}


def test_cw_frame_stays_inside_cell_map():
    # cw is evaluated as ccw in the reflected frame; outside CellMap's own
    # methods, code reads a map's clauses through hits and value only
    frame = {"_ccw_conditions", "_unit_conditions", "_ccw_value", "_order", "_reflected"}
    trees = _trees()
    cell_map = next(node for node in trees["twists"].body
                    if isinstance(node, ast.ClassDef) and node.name == "CellMap")
    inside = {id(node) for fn in cell_map.body if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
    reads = [f"{module}: {ast.unparse(node)}" for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in frame and id(node) not in inside]
    assert not reads


def test_cli_commands_neither_parse_input_nor_write_stdout():
    # main reads every file and rational once, before the command runs, and
    # writes the text the command returns
    parsers = {"_read", "parse_point_spec", "parse_plan", "parse_rational"}
    found = [f"{fn.name}: {ast.unparse(node)}" for fn in _trees()["cli"].body
             if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in parsers
             or isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"]
    assert not found


def test_plans_and_schedules_are_written_from_themselves():
    # each schedule record names its schedule's own source, so the writers
    # take the plan or the schedule alone; the (p, q) that perfbench passes
    # is only checked, and one test checks it
    def extra_arguments(node):
        return isinstance(node, ast.Call) and len(node.args) + len(node.keywords) > 1 \
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("plan_to_obj", "schedule_to_obj")

    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    callers = {f"{path.stem}: {name}" for path in paths
               for name in _holders(ast.parse(path.read_text(), str(path)), extra_arguments)}
    assert callers == {"test_serialize: test_plan_to_obj_checks_a_given_pair_against_its_schedules"}


def test_an_evaluation_builds_one_point(monkeypatch):
    # plan_eval_info carries one pair vector through both walks and the
    # move, and builds the PointRep of its value once, at the end, through
    # cube._point, the one constructor for a point derived from a pair
    # vector; _point checks each pair itself, so __post_init__ never runs
    import sys
    from fractions import Fraction as F

    from hilbertcube import PlanCase, make_point, plan_eval_info, plan_inverse_eval_info, solve
    from hilbertcube import cube
    from hilbertcube.cube import PointRep

    int_a, int_b = make_point([F(1, 3), F(-1, 2)], F(1, 5)), make_point([F(2, 7)], F(-3, 8))
    bnd_a, bnd_b = make_point([1, F(1, 2), -1], F(1, 4)), make_point([F(-1, 3)], -1)
    tau = F(1, 2**20)
    plans = [(p, solve(p, q, tau)) for p, q in ((int_a, int_b), (bnd_a, int_b), (int_a, bnd_b), (bnd_a, bnd_b))]
    assert {plan.case for _, plan in plans} == set(PlanCase)
    built, checked = [], []
    check = PointRep.__post_init__
    monkeypatch.setattr(PointRep, "__post_init__", lambda point: checked.append(1) or check(point))
    # count _point wherever a module of the package bound it
    point = cube._point
    binders = [module for name, module in sys.modules.items()
               if name.startswith("hilbertcube") and getattr(module, "_point", None) is point]
    assert {"hilbertcube.cube", "hilbertcube.homogeneity"} <= {module.__name__ for module in binders}
    for module in binders:
        monkeypatch.setattr(module, "_point", lambda v: built.append(1) or point(v))
    for p, plan in plans:
        for fn in (plan_eval_info, plan_inverse_eval_info):
            built.clear()
            checked.clear()
            fn(plan, p, tau)
            assert (len(built), len(checked)) == (1, 0), (plan.case, fn.__name__)
