"""Every public definition has a caller: the CLI reaches it, or a reason says why not.

The call graph is read from the sources with ``ast``.  Starting from the
roots of ``cli.py`` (``main``, ``run`` and ``build_parser``, which binds
every ``_cmd_*``), a definition is reached when a reached definition names
it: a call, a reference or a construction.  A name is looked up first in
the ``from .module import`` lines inside the definition (a command imports
what it runs when it runs), then in those at the top of its module.  A
reached class brings its methods, so a type that a reached function builds,
returns or tests against counts as reached too.  A module-level table (such
as ``generators.FAMILIES``) is followed like a definition.  The package's
``_HOMES`` table, which ``__getattr__`` reads to import each exported name
on demand, counts as an import of each name from its module.

Public means a top-level function or class of ``src/orientkit/*.py`` whose
name has no leading underscore, and every name in ``orientkit.__all__``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import orientkit

PACKAGE = Path(orientkit.__file__).resolve().parent

ROOTS = ("main", "run", "build_parser")

# Public definitions ("module.name") that no command reaches, each with the
# reason it stays.  ROADMAP item 9 deletes the last two once the benchmark
# hooks move (item 1a or item 18).
UNREACHED = {
    "density.pseudoarboricity": "public API that bench/workloads.py's density "
                                "jobs call; exact reads the same loop through "
                                "orientation._least_orientation, which also returns "
                                "the orientation found",
    "cnf.dpll": "bench/workloads.py runs it as the dpll job, and tests/cli.txt's "
                "dpll block, which pytest and CI both run, solves a cnf document "
                "with it before decode",
    "flow.Dinic": "bench/tracing.py hooks Dinic.max_flow and "
                  "Dinic.min_cut_source_side, and bench/selftest.py pins them",
    "graphs.connected_components": "bench/tracing.py hooks it",
}


def _relative_imports(nodes):
    """local name -> (module, name) for each ``from .module import name`` among nodes"""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in nodes
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def _modules():
    """module name -> (top-level definitions by name, local name -> (module, name))"""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs, imports = {}, _relative_imports(tree.body)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs[target.id] = node
        if path.stem == "__init__":  # the export table: name -> module
            table = defs["_HOMES"].value
            for key, home in zip(table.keys, table.values):
                imports[key.value] = (home.value, key.value)
        modules[path.stem] = (defs, imports)
    return modules


def _resolve(modules, module, name, local=None):
    """The (module, name) that defines name as seen from module, or None.

    local holds the imports of the definition name is read in."""
    defs, imports = modules[module]
    if local and name in local and local[name][0] in modules:
        return _resolve(modules, *local[name])
    if name in defs:
        return module, name
    if name in imports and imports[name][0] in modules:
        return _resolve(modules, *imports[name])
    return None


def _reached(modules):
    todo = [("cli", name) for name in ROOTS]
    seen = set(todo)
    while todo:
        module, name = todo.pop()
        definition = modules[module][0][name]
        local = _relative_imports(ast.walk(definition))
        for node in ast.walk(definition):
            if isinstance(node, ast.Name):
                target = _resolve(modules, module, node.id, local)
                if target and target not in seen:
                    seen.add(target)
                    todo.append(target)
    return seen


def _public_defs(modules):
    return {
        (module, name)
        for module, (defs, _) in modules.items()
        for name, node in defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_")
    }


def _keys(targets):
    return {f"{module}.{name}" for module, name in targets}


def test_every_public_name_has_a_caller_or_a_reason():
    modules = _modules()
    targets = set()
    for name in orientkit.__all__:
        target = _resolve(modules, "__init__", name)
        assert target is not None, f"{name} is exported but not defined in orientkit"
        targets.add(target)
    # so the == of the next test gives each export a caller or a reason
    assert targets <= _public_defs(modules)


def test_every_public_def_has_a_caller_or_a_reason():
    modules = _modules()
    # a key only on the left needs a reason; one only on the right is a
    # reason for a definition that a command now reaches, or that is gone
    assert _keys(_public_defs(modules) - _reached(modules)) == set(UNREACHED)


def test_the_walk_sees_calls_between_modules():
    reached = _reached(_modules())
    # cli -> cnf.decode_model -> orientation.verify_orientation -> its report type
    assert {("cnf", "decode_model"), ("orientation", "verify_orientation"),
            ("orientation", "OrientationReport")} <= reached
    # gen -> generate -> the FAMILIES table -> the theorem-4 builder
    assert ("generators", "_t4_layout") in reached
    # build_parser binds every command
    assert ("cli", "_cmd_check_t4") in reached


def test_exports_are_read_from_their_modules_each_time(monkeypatch):
    # the package keeps no copy: a name rebound in its module (as the
    # benchmark's tracer and planted faults rebind it) is seen at once, and
    # so is the restore
    original = orientkit.mad_exact
    replacement = object()
    monkeypatch.setattr("orientkit.density.mad_exact", replacement)
    assert orientkit.mad_exact is replacement
    monkeypatch.undo()
    assert orientkit.mad_exact is original
    namespace = {}
    exec("from orientkit import *", namespace)
    assert {name: namespace[name] for name in orientkit.__all__} == {
        name: getattr(orientkit, name) for name in orientkit.__all__
    }


def test_dir_lists_the_exports():
    assert {*orientkit.__all__, "__version__"} <= set(dir(orientkit))


def test_version_matches_pyproject():
    # a regex, since tomllib is missing on Python 3.10
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]*)"$', text, re.MULTILINE) == [orientkit.__version__]


def test_a_missing_dependency_of_a_module_is_not_hidden(tmp_path, monkeypatch):
    # orientkit.<name> for a module that exists but imports a missing one
    # raises that ModuleNotFoundError, not "no attribute <name>"
    (tmp_path / "needs_missing.py").write_text("import orientkit_no_such_dependency\n")
    monkeypatch.setattr(orientkit, "__path__", [*orientkit.__path__, str(tmp_path)])
    with pytest.raises(ModuleNotFoundError) as exc:
        orientkit.needs_missing
    assert exc.value.name == "orientkit_no_such_dependency"
    assert "orientkit.needs_missing" not in sys.modules


def _flow_importers(sources):
    """The modules of sources (module name -> text), flow aside, that import flow."""
    importers = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                dotted = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if module != "flow" and any("flow" in name.split(".") for name in dotted):
                importers.add(module)
    return importers


def test_no_module_but_flow_imports_flow():
    # so no command, Mad or k-orientation can run a max flow
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _flow_importers(sources) == set()
    for planted in ("from .flow import Dinic", "from . import flow", "import orientkit.flow"):
        assert _flow_importers({**sources, "density": f"{planted}\n"}) == {"density"}
