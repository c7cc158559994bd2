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
