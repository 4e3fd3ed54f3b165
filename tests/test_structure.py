"""Structure rules for the package source, checked on its syntax tree."""

import ast
from pathlib import Path

import helpercache

PACKAGE = Path(helpercache.__file__).resolve().parent


def _private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        sibling = node.level == 1 or module.split(".")[0] == "helpercache"
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if sibling and alias.name.startswith("_") and not dunder:
                where = "." * node.level + module
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {where}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling(tmp_path):
    # A private name stays inside the module that owns the decision it
    # encodes; a caller that needs it needs a public function instead.
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .macro_sim import MacroConfig, _plan_graph\n"
        "from helpercache.macro_sim import _helper_positions\n"
        "from . import _private_module, __version__\n"
        "from os.path import _get_sep\n"
    )
    flagged = [hit.split()[2] for hit in _private_sibling_imports(probe)]
    assert flagged == ["_plan_graph", "_helper_positions", "_private_module"]

    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules for hit in _private_sibling_imports(path)]
    assert found == []


def _names_read(path: Path) -> set[str]:
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_export_is_read_by_the_library():
    # The package ships what its own modules use; a helper that only tests
    # call lives under tests/.
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    assert len(modules) > 5
    read = set().union(*(_names_read(path) for path in modules))
    assert sorted(set(helpercache.__all__) - read) == []


def _public_definitions(path: Path) -> list[str]:
    """Public module-level functions and classes, and public methods."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            found.append(node.name)
            found += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.name)
    return [name for name in found if not name.split(".")[-1].startswith("_")]


def test_every_public_definition_is_read_by_the_library_or_exported():
    # A function or method that only tests call lives under tests/, next to
    # the tests that use it.
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    read = set().union(*(_names_read(path) for path in modules))
    unused = [
        f"{path.name}:{name}"
        for path in modules
        for name in _public_definitions(path)
        if name.split(".")[-1] not in read | set(helpercache.__all__)
    ]
    assert unused == []
