"""Every public name has a caller: the CLI reaches it, or a reason says why not.

The call graph is read from the sources with ``ast``.  Starting from every
``_cmd_*`` function in ``cli.py``, a definition is reached when a reached
definition names it: a call, a reference or a construction.  A reached
class brings its methods, so a type that a reached function builds, returns
or tests against counts as reached too.  A module-level table (such as
``generators.FAMILIES``) is followed like a definition.
"""

import ast
from pathlib import Path

import orientkit

PACKAGE = Path(orientkit.__file__).resolve().parent

# Public names that no command reaches, each with the reason it stays.
UNREACHED = {}


def _modules():
    """module name -> (top-level definitions by name, local name -> (module, name))"""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs, imports = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs[target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (node.module, alias.name)
        modules[path.stem] = (defs, imports)
    return modules


def _resolve(modules, module, name):
    """The (module, name) that defines name as seen from module, or None."""
    defs, imports = modules[module]
    if name in defs:
        return module, name
    if name in imports and imports[name][0] in modules:
        return _resolve(modules, *imports[name])
    return None


def _reached(modules):
    cli_defs = modules["cli"][0]
    todo = [("cli", name) for name in cli_defs if name.startswith("_cmd_")]
    seen = set(todo)
    while todo:
        module, name = todo.pop()
        for node in ast.walk(modules[module][0][name]):
            if isinstance(node, ast.Name):
                target = _resolve(modules, module, node.id)
                if target and target not in seen:
                    seen.add(target)
                    todo.append(target)
    return seen


def test_every_public_name_has_a_caller_or_a_reason():
    modules = _modules()
    reached = _reached(modules)
    unreached = set()
    for name in orientkit.__all__:
        target = _resolve(modules, "__init__", name)
        assert target is not None, f"{name} is exported but not defined in orientkit"
        if target not in reached:
            unreached.add(name)
    assert unreached - set(UNREACHED) == set(), "public names no command reaches"
    assert set(UNREACHED) - unreached == set(), "reasons for names a command now reaches"


def test_the_walk_sees_calls_between_modules():
    reached = _reached(_modules())
    # cli -> cnf.decode_model -> orientation.verify_orientation -> its report type
    assert {("cnf", "decode_model"), ("orientation", "verify_orientation"),
            ("orientation", "OrientationReport")} <= reached
    # gen -> generate -> the FAMILIES table -> the theorem-4 builder
    assert ("generators", "_t4_layout") in reached
    assert ("cli", "build_parser") not in reached
