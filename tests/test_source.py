"""Rules that the library's source itself must keep."""

import ast
import glob
import os

import covlat

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(covlat.__file__), "*.py")))


def test_sources_are_found():
    assert any(path.endswith("cover.py") for path in SOURCES)


def test_no_runtime_check_relies_on_assert():
    # `python -O` strips assert statements, so a check must raise itself
    found = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def require_cap_calls():
    """(file:line, enclosing function, what, kind) for every ``require_cap``
    call in the library, ``what`` and ``kind`` as the call spells them."""
    calls = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "require_cap":
                what, _, kind = (a.value if isinstance(a, ast.Constant) else None for a in child.args)
                calls.append((f"{os.path.basename(path)}:{child.lineno}", function, what, kind))
            visit(child, path, inner)

    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read(), filename=path), path, None)
    return calls


def test_each_cap_check_names_its_function_and_a_known_kind():
    # the name is what a cap error reports; an unknown kind is a KeyError, not exit 3
    from covlat.caps import _DEFAULTS

    calls = require_cap_calls()
    named = {what for _, _, what, _ in calls}
    assert {"initial_closure", "initial_interior_corrected", "initial_interior_paper"} <= named
    assert [c for c in calls if c[2] is not None and c[2] != c[1]] == []
    assert [c for c in calls if c[3] is not None and c[3] not in _DEFAULTS] == []


def unused_imports(path):
    """(file:line, name) for each name a module-level import binds that
    the module never reads; an import whose first line, or the line of
    the name itself, is marked ``# noqa`` is exempt."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    imports = []
    todo = list(tree.body)
    while todo:  # statements outside any def or class
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imports.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo += [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in imports:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
            if name not in read and not any("# noqa" in line for line in marked):
                found.append((f"{os.path.basename(path)}:{alias.lineno}", name))
    return found


def test_no_module_level_import_goes_unused():
    assert [f for path in SOURCES for f in unused_imports(path)] == []


def test_unused_imports_are_found(tmp_path):
    source = (
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import (  # noqa\n    Any,\n)\n"
        "from sets import (\n    Subset,\n    BaseSet,\n)\n"
        "def f(x: BaseSet):\n    import math\n    return os.sep, 'Subset'\n"
    )
    (tmp_path / "m.py").write_text(source, encoding="utf-8")
    assert unused_imports(str(tmp_path / "m.py")) == [("m.py:7", "Subset")]
