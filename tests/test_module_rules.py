"""Design rules of the package that a reader cannot see from one module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jointmotion"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path):
    """(line, module, name) for each ``_``-prefixed name that ``path``
    imports from a jointmotion module; dunder names such as
    ``__version__`` are not private."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "jointmotion":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield node.lineno, "." * node.level + module, name


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "scene.py", "fit.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_another_modules_private_names(path):
    assert list(private_imports(path)) == []


def test_rule_sees_relative_and_absolute_private_imports(tmp_path):
    source = tmp_path / "example.py"
    source.write_text(
        "from . import __version__\n"
        "from .scene import _shaped, json_fields\n"
        "from jointmotion.gaussian import _check\n"
        "from numpy import _private_but_not_ours\n"
    )
    assert list(private_imports(source)) == [
        (2, ".scene", "_shaped"),
        (3, "jointmotion.gaussian", "_check"),
    ]
