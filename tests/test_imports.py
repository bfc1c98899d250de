"""Every import under src/selflow is used, and every public function or
class is read by the package or the benchmark harness: a stale import or
API that only tests call fails tier-1.

No linter ships with the toolchain, so this parses each module with ``ast``.
The package ``__init__`` is skipped; its imports are the public API.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "selflow"
PERFBENCH = SRC.parents[1] / "perfbench"

# (module, name) imports kept on purpose: perfbench's tracer test looks up
# the simulate_path alias in diagnostics
ALLOWED = {("diagnostics", "simulate_path")}


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read, names in string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.returns]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> set[tuple[str, str, int]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    return {(path.stem, name, line) for name, line in _bound_names(tree).items()
            if name not in used}


def test_finder_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('import os\nimport numpy as np\nfrom x import (a, b)\n\n'
                   'def f(v: "a") -> None:\n    return np.sum(v)\n')
    assert unused_imports(mod) == {("mod", "os", 1), ("mod", "b", 3)}


def test_no_unused_import_under_src():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            found |= unused_imports(path)
    stale = sorted(item for item in found if item[:2] not in ALLOWED)
    assert stale == [], f"unused imports (module, name, line): {stale}"


# selflow names that perfbench/ reads: the budget check (checks.py), the
# tracer's simulate_path aliases (test_perfbench.py) and the set-up probe
# (setup_probe.py).  Removing one breaks the benchmark harness.
PERFBENCH_PINS = {
    "pathrun": ("PathSeries", "simulate_path"),
    "diagnostics": ("energy_budget_residual", "simulate_path"),
    "ensemble": ("simulate_path",),
    "config": ("parse_config", "build_grid", "build_initial_u", "build_initial_d",
               "build_params", "build_noise_operator", "build_magnetic_field"),
}


def test_perfbench_pinned_names_exist():
    import importlib

    mods = {name: importlib.import_module(f"selflow.{name}") for name in PERFBENCH_PINS}
    missing = [f"{mod}.{name}" for mod, names in PERFBENCH_PINS.items()
               for name in names if not hasattr(mods[mod], name)]
    assert missing == [], f"names perfbench reads are gone: {missing}"
    # the aliases are the runner itself, so the tracer wraps one function
    for mod in ("diagnostics", "ensemble"):
        assert mods[mod].simulate_path is mods["pathrun"].simulate_path


# (module, name) public definitions that nothing under src/selflow reads, kept
# on purpose: the refined eps sweep (ROADMAP direction 5) coarsens one Wiener
# table per level with coarsen_normals
UNREAD_ALLOWED = {("noise", "coarsen_normals")}


def _reads(node: ast.AST) -> set[str]:
    """Names and attribute names read under ``node``."""
    return _used_names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def unread_public_names(src: Path, harness: Path) -> set[tuple[str, str]]:
    """(module, name) of each public module-level function or class of the
    modules in ``src`` (``__init__`` aside) that no top-level statement of
    those modules but its own definition reads, and that no Python file
    under ``harness`` names."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    reads = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    named = "\n".join(path.read_text(encoding="utf-8") for path in sorted(harness.rglob("*.py")))
    return {(mod, node.name) for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not any(node.name in names for stmt, names in reads if stmt is not node)
            and not re.search(rf"\b{node.name}\b", named)}


def test_finder_flags_an_unread_public_name(tmp_path):
    src, harness = tmp_path / "src", tmp_path / "harness"
    src.mkdir()
    harness.mkdir()
    (src / "__init__.py").write_text("from .a import only_exported\n")
    (src / "a.py").write_text("def used():\n    return 1\n\n\ndef only_exported():\n"
                              "    return only_exported\n\n\nclass Benched:\n    pass\n\n\n"
                              "def _private():\n    pass\n")
    (src / "b.py").write_text("from . import a\n\n\ndef caller():\n    return a.used()\n")
    (harness / "run.py").write_text("import b\n\nb.Benched\n")
    assert unread_public_names(src, harness) == {("a", "only_exported"), ("b", "caller")}


def test_no_public_name_only_tests_read():
    unread = sorted(unread_public_names(SRC, PERFBENCH) - UNREAD_ALLOWED)
    assert unread == [], f"public names nothing but tests reads (module, name): {unread}"
