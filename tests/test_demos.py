"""Every name a demo imports from bvlift exists.

The demos are parsed, not run: running them all takes about half a minute.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def bvlift_imports(tree):
    """(module, name) pairs of the ``from bvlift... import name`` statements."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "bvlift"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bvlift":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = []
    for module, name in bvlift_imports(tree):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports missing names: {missing}"
