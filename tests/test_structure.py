"""Structure rules for the package source, checked on its syntax tree."""

import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

import helpercache
from helpercache import cli, d2d, macro_sim, placement_coded

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


def test_every_public_definition_is_read_by_the_library_or_exported(tmp_path):
    # A function or method that only tests call lives under tests/, next to
    # the tests that use it.  A method or property counts as read only where
    # an attribute of that name is read (a local variable of the same name
    # does not count), by the library or by the benchmark under perfbench/,
    # which reads some results (a placement's caches).
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class A:\n    def used(self):\n        return 1\n"
        "    def shadowed(self):\n        return 2\n"
        "def helper():\n    shadowed = 3\n    return shadowed\n"
        "def caller():\n    return A().used() + helper()\n"
    )
    assert _unread([probe], []) == ["probe.py:A.shadowed", "probe.py:caller"]

    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    benchmark = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert len(benchmark) > 5
    assert _unread(modules, benchmark) == []


def _unread(paths, benchmark) -> list[str]:
    """`module:definition` of each public definition in `paths` that is
    neither exported nor read: a module-level one by name or attribute in
    `paths`, a method by attribute in `paths` or `benchmark`."""
    names = set().union(*(_names_read(path) for path in paths))
    attributes = set().union(*(_attributes_read(path) for path in [*paths, *benchmark]))
    exported = set(helpercache.__all__)
    return [
        f"{path.name}:{name}"
        for path in paths
        for name in _public_definitions(path)
        if name.split(".")[-1] not in (attributes if "." in name else names) | exported
    ]


def _dataclass_fields(path: Path) -> list[str]:
    """`Class.field` of every annotated field of the module's dataclasses."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        found += [
            f"{node.name}.{item.target.id}"
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
    return found


def _attributes_read(path: Path) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read_by_the_library_or_the_benchmark(tmp_path):
    # A field that no module reads is carried for tests alone.  The benchmark
    # under perfbench/ reads some results (a solve's objective and
    # iterations), so its modules count as readers.
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
        "@dataclasses.dataclass\nclass B:\n    z: int\n"
        "class C:\n    w: int\n"
        "def f(a):\n    return a.x\n"
    )
    assert _dataclass_fields(probe) == ["A.x", "A.y", "B.z"]
    assert _attributes_read(probe) == {"dataclass", "x"}

    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    read = set().union(*(_attributes_read(path) for path in readers))
    fields = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _dataclass_fields(path)]
    assert len(fields) > 20
    assert [name for name in fields if name.split(".")[-1] not in read] == []


def test_the_benchmark_probes_resolve(monkeypatch):
    # perfbench/tracer.py wraps library bindings by name, and lists a name it
    # cannot find as missing instead of failing, so a rename would silently
    # zero the traced metric it feeds.  The snapshot probe is missing already.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    modules = {
        "cli": cli, "macro_sim": macro_sim, "placement_coded": placement_coded, "d2d": d2d
    }
    recorder = tracer.Recorder()
    try:
        recorder.install(modules)
    finally:
        recorder.uninstall()
    assert set(recorder.missing) <= {"macro_sim.simulate_snapshot"}


def test_each_macro_flag_is_one_config_field_and_place_shares_the_cell_flags():
    # `cli._macro_config` builds MacroConfig by name, so each `_MACRO` entry
    # but `reps` names one field, under `_FIELD`'s name where the two differ,
    # and takes its default from there.
    entries = [p for p in cli._MACRO if p.name != "reps"]
    names = [cli._FIELD.get(p.name, p.name) for p in entries]
    fields = dataclasses.fields(macro_sim.MacroConfig)
    assert sorted(names) == sorted(f.name for f in fields)
    assert set(cli._FIELD) <= {p.name for p in entries}
    assert [p.default for p in entries] == [getattr(macro_sim.MacroConfig, n) for n in names]
    # `place` declares the cell's flags by reusing the `_MACRO` entries.
    shared = [p for p in cli.COMMANDS["place"] if p.name in cli._CELL]
    assert all(any(p is q for q in cli._MACRO) for p in shared)
    assert len(shared) == len(cli._CELL) == 6


# What the CLI may not import: how a macro experiment draws, fits and plans
# is `macro_sim`'s decision, so a second copy of that sequence fails here
# instead of drifting from the sweeps.
_LIBRARY_SEQUENCING = {
    "stream", "sample_requests", "request_counts", "zipf_model",
    "experiment_popularity", "plan_deployment", "make_placement",
    "HelperSpecs", "check_placement_bytes", "check_user_helper_pairs",
}


def _imported_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_the_cli_leaves_drawing_and_planning_to_the_library(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .rng import stream\n"
        "from .macro_sim import MacroConfig, make_placement as place\n"
        "from helpercache.popularity import fit_zipf, zipf_model\n"
    )
    assert _imported_names(probe) & _LIBRARY_SEQUENCING == {
        "stream", "make_placement", "zipf_model"
    }
    assert _imported_names(PACKAGE / "cli.py") & _LIBRARY_SEQUENCING == set()
