"""Every import under src/selflow is used, every public function or class
and every field of a public dataclass is read by the package or the
benchmark harness, and every defaulted parameter of the public API is
passed by one of them: a stale import, API or result field that only tests
read, or a parameter that only tests set fails tier-1.

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


# (callee, parameter) defaulted parameters that no call under src/selflow or
# perfbench/ passes, kept on purpose, each with its reason; a method is named
# by its class for __init__ and by itself otherwise, as calls name it
UNPASSED_ALLOWED = {
    ("run_ensemble", "order"): "criterion 12's execution-order probe",
    ("NoiseOperatorS", "shapes"): "tests substitute constant shapes",
    ("simulate_path", "normals_table"): "criterion 2's coarsened table, and ROADMAP "
                                        "direction 5 (the refined eps sweep)",
}


def _defaulted(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """(name, position) of each defaulted parameter of ``fn``, the position
    counted after the first ``skip`` (self) and None for keyword-only ones."""
    a = fn.args
    positional = [arg.arg for arg in a.posonlyargs + a.args][skip:]
    out = [(name, i) for i, name in enumerate(positional)
           if i >= len(positional) - len(a.defaults)]
    return out + [(arg.arg, None) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                  if default is not None]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter: by keyword, by position, or
    through a ``*args`` (from its position on) or ``**kwargs``."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    starred = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
    return position < len(call.args) or bool(starred) and position >= starred[0]


def unpassed_defaults(src: Path, harness: Path) -> set[tuple[str, str]]:
    """(callee, parameter) of each defaulted parameter of a public
    module-level function, public class's __init__ or public method of the
    modules in ``src`` that no call under ``src`` or ``harness`` passes.
    Calls are matched to definitions by name."""
    src_trees, harness_trees = ([ast.parse(path.read_text(encoding="utf-8")) for path in paths]
                                for paths in (sorted(src.glob("*.py")),
                                              sorted(harness.rglob("*.py"))))
    params = []  # (callee, name, position)
    for tree in src_trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                params += [(node.name, *p) for p in _defaulted(node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__"
                                                            or not fn.name.startswith("_")):
                        callee = node.name if fn.name == "__init__" else fn.name
                        params += [(callee, *p) for p in _defaulted(fn, 1)]
    calls = [node for tree in src_trees + harness_trees for node in ast.walk(tree)
             if isinstance(node, ast.Call)]

    def callee(call: ast.Call) -> str | None:
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    return {(fn, name) for fn, name, position in params
            if not any(callee(c) == fn and _passes(c, name, position) for c in calls)}


def test_finder_flags_an_unpassed_default(tmp_path):
    src, harness = tmp_path / "src", tmp_path / "harness"
    src.mkdir()
    harness.mkdir()
    (src / "a.py").write_text(
        "def f(x, by_pos=1, by_kw=2, unset=3, *, kw_only=4, kw_unset=5):\n    pass\n\n\n"
        "def g(x, star=1, *, spread=2):\n    pass\n\n\n"
        "def _private(x=1):\n    pass\n\n\n"
        "class C:\n    def __init__(self, shape=None):\n        pass\n\n"
        "    def m(self, tol=1.0):\n        pass\n\n    def _hidden(self, y=0):\n        pass\n\n\n"
        "def caller(args, opts):\n    f(0, 1, by_kw=2, kw_only=4)\n    g(0, *args, **opts)\n"
        "    C().m(2.0)\n")
    (harness / "run.py").write_text("import a\n\na.C(shape=3)\n")
    assert unpassed_defaults(src, harness) == {("f", "unset"), ("f", "kw_unset")}
    (harness / "run.py").write_text("import a\n\na.C()\na.f(0, 1, 2, 3, kw_unset=5)\n")
    assert unpassed_defaults(src, harness) == {("C", "shape")}


def test_every_default_is_passed_by_the_package_or_the_harness():
    found = unpassed_defaults(SRC, PERFBENCH)
    unpassed = sorted(found - set(UNPASSED_ALLOWED))
    assert unpassed == [], f"defaulted parameters only tests pass (callee, name): {unpassed}"
    stale = sorted(set(UNPASSED_ALLOWED) - found)
    assert stale == [], f"allowed entries that are passed now or gone: {stale}"


# (class, field) of public dataclasses that nothing under src/selflow or
# perfbench/ reads, kept on purpose
UNREAD_FIELDS_ALLOWED: set[tuple[str, str]] = set()


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d, "id", None) == "dataclass" or getattr(d, "attr", None) == "dataclass"
               for d in (dec.func if isinstance(dec, ast.Call) else dec
                         for dec in node.decorator_list))


def unread_dataclass_fields(src: Path, harness: Path) -> set[tuple[str, str]]:
    """(class, field) of each field of a public dataclass of the modules in
    ``src`` that no Python file under ``src`` or ``harness`` reads, as a
    loaded attribute (``x.field``) or as a string constant (a ``getattr``
    name, or an attribute name in ``config.SCHEMA``)."""
    src_trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    harness_trees = [ast.parse(path.read_text(encoding="utf-8"))
                     for path in sorted(harness.rglob("*.py"))]
    reads = set()
    for node in (n for tree in src_trees + harness_trees for n in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return {(node.name, stmt.target.id) for tree in src_trees for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in reads}


def test_finder_flags_an_unread_dataclass_field(tmp_path):
    src, harness = tmp_path / "src", tmp_path / "harness"
    src.mkdir()
    harness.mkdir()
    (src / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Result:\n    read: int\n    named: str\n    unread: float\n"
        "    written: int = 0\n\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Frozen:\n    benched: int\n    idle: int\n\n\n"
        "@dataclass\nclass _Private:\n    hidden: int\n\n\n"
        "class Plain:\n    attr: int\n\n\n"
        "def use(r):\n    r.written = 1\n    return r.read, getattr(r, 'named')\n")
    (harness / "run.py").write_text("def bench(f):\n    return f.benched\n")
    assert unread_dataclass_fields(src, harness) == {
        ("Result", "unread"), ("Result", "written"), ("Frozen", "idle")}


def test_every_dataclass_field_is_read_by_the_package_or_the_harness():
    found = unread_dataclass_fields(SRC, PERFBENCH)
    unread = sorted(found - UNREAD_FIELDS_ALLOWED)
    assert unread == [], f"dataclass fields only tests read (class, field): {unread}"
    stale = sorted(UNREAD_FIELDS_ALLOWED - found)
    assert stale == [], f"allowed entries that are read now or gone: {stale}"
