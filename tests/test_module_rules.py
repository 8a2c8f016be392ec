"""Design rules of the package that a reader cannot see from one module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jointmotion"
MODULES = sorted(PACKAGE.glob("*.py"))
# where a public name must be used for it to be part of the library's API
USERS = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "demos").rglob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


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


def exported_names(init):
    """The names a package ``__init__`` imports from its modules."""
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


def referenced_names(path):
    """Names that ``path`` loads, bare or as an attribute, outside the
    ``def`` or ``class`` that defines each; comments and imports do not count."""

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in defining:
                yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in defining:
                yield node.attr
        for child in ast.iter_child_nodes(node):
            yield from visit(child, defining)

    return set(visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), frozenset()))


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


def test_every_exported_name_is_used_outside_its_definition():
    used = set().union(*(referenced_names(path) for path in USERS))
    assert [name for name in exported_names(PACKAGE / "__init__.py") if name not in used] == []


def test_use_rule_ignores_definitions_imports_and_comments(tmp_path):
    source = tmp_path / "example.py"
    source.write_text(
        "from .fit import unused, imported_only\n"
        "# called_in_comment()\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Node:\n"
        "    def copy(self):\n"
        "        return Node()\n"
        "def caller(jm):\n"
        "    jm.attribute_use(bare_use)\n"
        "    stored = 1\n"
    )
    assert referenced_names(source) == {"n", "jm", "attribute_use", "bare_use"}
