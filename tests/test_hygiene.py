"""No dead names in the library: every import a module makes is used, and
every module-level constant or private helper it defines is used by it or
imported from it by another module of the package.  Every public function
or class is used in the package, exported by it, traced by the benchmark or
installed as a console script.  Every function the benchmark tracer wraps
is still defined where the tracer looks for it.  Read with ast, so nothing
is imported or run."""

import ast
import tomllib
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


def test_every_public_function_and_class_is_used():
    trees = _trees()
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    used = {(src, name) for tree in trees.values() for _, src, name in _imports(tree)}
    used |= set(_traced()) | {tuple(entry.removeprefix("hilbertcube.").split(":")) for entry in scripts.values()}
    dead = {
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and (module, node.name) not in used and node.name not in _used_names(tree)
    }
    assert not dead


def test_every_traced_function_is_defined_by_its_module():
    traced = _traced()
    assert traced
    trees = _trees()
    missing = {f"{module}.{name}" for module, name in traced
               if module not in trees or name not in _top_level_names(trees[module])}
    assert not missing


def test_stage_factor_is_read_only_in_limits():
    # the per-stage Lipschitz factor has one ledger: Schedule in limits.py
    readers = {
        module
        for module, tree in _trees().items() if module != "limits"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "STAGE_LIPSCHITZ")
        or (isinstance(node, ast.Attribute) and node.attr == "STAGE_LIPSCHITZ")
        or (isinstance(node, ast.alias) and node.name == "STAGE_LIPSCHITZ")
    }
    assert not readers


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


FRACTION_ENTRY_POINTS = {"twist_eval", "twist_eval_unchecked", "matching_regions", "classify_region",
                         "piece_value", "piece_inverse_oracle"}


def test_no_function_calls_a_fraction_entry_point():
    # the package applies and inverts twists on CellMap's integers; the
    # Fraction entry points of twists serve callers, and only classify_region
    # builds on another of them
    calls = set()
    for module, tree in _trees().items():
        exempt = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name in FRACTION_ENTRY_POINTS
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in exempt:
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in FRACTION_ENTRY_POINTS:
                    calls.add(f"{module}: {name}")
    assert not calls
