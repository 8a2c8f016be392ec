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


def defined_names(path):
    """The names ``path`` defines or assigns at module level; imports aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


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


def dtype_conversions(path):
    """(line, call) for each ``np.asarray``, ``np.array`` or
    ``np.asanyarray`` call in ``path`` that passes a dtype, by keyword or
    as its second positional argument."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr in ("asarray", "array", "asanyarray")
        ):
            continue
        if len(node.args) > 1 or any(keyword.arg == "dtype" for keyword in node.keywords):
            yield node.lineno, f"np.{node.func.attr}"


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


def test_every_module_level_name_is_read_outside_its_definition():
    used = set().union(*(referenced_names(path) for path in USERS))
    unread = [
        f"{path.name}: {name}" for path in MODULES for name in defined_names(path) if name not in used
    ]
    assert unread == []


def test_definition_rule_sees_module_level_names_only(tmp_path):
    source = tmp_path / "example.py"
    source.write_text(
        "import os\n"
        "from .fit import imported\n"
        "A = 1\n"
        "B: int = 2\n"
        "C, (D, E) = 3, (4, 5)\n"
        "def f():\n"
        "    local = 1\n"
        "class K:\n"
        "    attribute = 2\n"
    )
    assert list(defined_names(source)) == ["A", "B", "C", "D", "E", "f", "K"]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "scene.py"],
    ids=[p.name for p in MODULES if p.name != "scene.py"],
)
def test_no_array_conversion_outside_real_array(path):
    # every array argument is taken in by scene.real_array, the one dtype rule
    assert list(dtype_conversions(path)) == []


def test_conversion_rule_sees_dtype_by_keyword_or_position(tmp_path):
    source = tmp_path / "example.py"
    source.write_text(
        "a = np.asarray(x, dtype=np.float64)\n"
        "b = np.array(x, np.float64)\n"
        "c = np.asanyarray(x, dtype=float)\n"
        "d = np.asarray(real_array(x, 'x'), dtype=np.float64).view()\n"
        "e = np.asarray(x)\n"
        "f = np.array(x, order='C')\n"
        "g = np.zeros(3, dtype=np.float64)\n"
        "h = x.astype(np.float64)\n"
    )
    assert list(dtype_conversions(source)) == [
        (1, "np.asarray"),
        (2, "np.array"),
        (3, "np.asanyarray"),
        (4, "np.asarray"),
    ]
