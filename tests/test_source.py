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
