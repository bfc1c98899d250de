"""Every import under src/selflow is used: a stale import fails tier-1.

No linter ships with the toolchain, so this parses each module with ``ast``.
The package ``__init__`` is skipped; its imports are the public API.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "selflow"

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
