"""Checks on the package source, using only the standard library: static
checks of its syntax trees, the modules a fresh import loads, and the
methods that profiled CLI runs reach."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import ellprym
from ellprym import builder, covering
from ellprym.cli import main

PACKAGE = Path(ellprym.__file__).parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    """``__init__.py`` is exempt: its imports are the public re-exports."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _unused_imports(tree)]
    assert found == []


def _private_definitions(tree):
    """Module-level ``_name`` functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _class_names(trees):
    return {n.name for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.ClassDef)}


def _references(node, classes):
    """Names, attributes and imported names under node.  An attribute of a
    name that is a package class is qualified by it, ``Class.attr``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            owner = n.value.id if isinstance(n.value, ast.Name) else None
            yield f"{owner}.{n.attr}" if owner in classes else n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _count(refs, defn):
    """References to a definition in a Counter of references: a method
    counts by its bare name, or qualified by its own class."""
    return refs[defn] + (refs[defn.split(".")[1]] if "." in defn else 0)


def _unreferenced(definitions):
    """``file:line: name`` of each definition, given per module tree as
    (name, node) with a method named ``Class.method``, that the package
    references only inside its own body."""
    trees = _package_trees()
    classes = _class_names(trees)
    total = Counter(ref for tree in trees.values()
                    for ref in _references(tree, classes))
    return [f"{name}:{node.lineno}: {defn}"
            for name, tree in trees.items()
            for defn, node in definitions(tree)
            if _count(total, defn) ==
            _count(Counter(_references(node, classes)), defn)]


def test_no_dead_private_definitions():
    """A private definition must be used somewhere in the package besides
    its own body; one that only tests call is dead code."""
    assert _unreferenced(_private_definitions) == []


def _definitions(tree, kinds=(ast.FunctionDef, ast.ClassDef)):
    """Definitions of these kinds, at any depth; a method as
    ``Class.method``."""
    methods = {id(m): f"{c.name}.{m.name}" for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) for m in c.body
               if isinstance(m, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, kinds):
            yield methods.get(id(node), node.name), node


def _public_definitions(tree):
    """Functions, methods and classes, at any depth, not named ``_...``;
    a method as ``Class.method``."""
    return ((defn, node) for defn, node in _definitions(tree)
            if not node.name.startswith("_"))


def test_no_test_only_public_definitions():
    """A public function, method or class must be used in the package
    besides its own body, or be named in ``perfbench/*.py``, whose inputs
    and traced spans use the library; one that only tests call does not
    belong in the package.  A perfbench word names a method only when a
    single class defines a method of that name."""
    bench = {word for path in (PACKAGE.parents[1] / "perfbench").glob("*.py")
             for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    methods = Counter(defn.split(".")[1] for tree in _package_trees().values()
                      for defn, _ in _public_definitions(tree) if "." in defn)

    def exempt(defn):
        bare = defn.split(".")[-1]
        return bare in bench and ("." not in defn or methods[bare] == 1)
    assert [entry for entry in _unreferenced(_public_definitions)
            if not exempt(entry.rsplit(" ", 1)[1])] == []


def test_lower_layers_keep_nothing_only_the_builder_uses():
    """A function or method that ``scalars``, ``series`` or ``covering``
    defines, and that package code outside its own body references only
    from ``builder.py``, belongs in the builder: a command that never
    builds would compile it for nothing.  ``errors`` is exempt, as its
    exception hierarchy is shared on purpose."""
    trees = _package_trees()
    classes = _class_names(trees)
    refs = {name: Counter(_references(tree, classes))
            for name, tree in trees.items()}
    found = []
    for module in ("scalars.py", "series.py", "covering.py"):
        for defn, node in _definitions(trees[module], ast.FunctionDef):
            own = _count(Counter(_references(node, classes)), defn)
            users = {name for name, r in refs.items()
                     if _count(r, defn) > (own if name == module else 0)}
            if users == {"builder.py"}:
                found.append(f"{module}:{node.lineno}: {defn}")
    assert found == []


def _shared_methods():
    """{"Class.method": code} for each public method whose name two or more
    package classes define; the code object is the one a call runs, also
    for a classmethod, staticmethod or property."""
    owners = {}
    for name, tree in _package_trees().items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for m in cls.body:
                    if isinstance(m, ast.FunctionDef) and \
                            not m.name.startswith("_"):
                        owners.setdefault(m.name, []).append(
                            (name[:-len(".py")], cls.name))
    shared = {}
    for method, classes in owners.items():
        if len(classes) < 2:
            continue
        for module, cls in classes:
            raw = vars(getattr(importlib.import_module(f"ellprym.{module}"),
                               cls))[method]
            if isinstance(raw, (classmethod, staticmethod)):
                raw = raw.__func__
            elif isinstance(raw, property):
                raw = raw.fget
            elif isinstance(raw, cached_property):
                raw = raw.func
            shared[f"{cls}.{method}"] = raw.__code__
    return shared


def _profiled_calls(runs):
    """The code objects that the CLI runs, one argv each, call."""
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in runs:
            assert main(argv) == 0, argv
    finally:
        sys.setprofile(previous)
    return called


def test_shared_method_names_are_all_reached(tmp_path, capsys):
    """A method whose name other package classes define too is reached only
    through an attribute of that name, so the static guards above count
    every unqualified ``.name`` for it.  Each such method must run in the
    demo at window 13, a build of the genus-3 double cover with its action
    and the analysis of both, and the analysis of the genus-4 double cover
    without one, or be referenced as ``Class.method`` in the package."""
    spec, datum4 = tmp_path / "spec.json", tmp_path / "double4.json"
    spec.write_text(json.dumps(
        builder.spec_to_json(builder.bielliptic_spec(3, 10))))
    covering.save(builder.build_cover(builder.bielliptic_spec(4, 10)).datum,
                  datum4)
    datum, action = tmp_path / "datum.json", tmp_path / "action.json"
    called = _profiled_calls([
        ["demo-pirola", "--precision", "13", "--out",
         str(tmp_path / "demo.txt")],
        ["build", str(spec), "--out", str(datum), "--action-out", str(action)],
        ["analyze", str(datum), "--action", str(action), "--json"],
        ["analyze", str(datum4)]])
    capsys.readouterr()
    trees = _package_trees()
    classes = _class_names(trees)
    referenced = {ref for tree in trees.values()
                  for ref in _references(tree, classes)}
    assert sorted(defn for defn, code in _shared_methods().items()
                  if code not in called and defn not in referenced) == []


def _record_fields(tree):
    """``Class.field`` for each field of a NamedTuple class in the tree."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "NamedTuple"
                for b in cls.bases):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign):
                    yield f"{cls.name}.{stmt.target.id}"


def test_record_fields_are_read():
    """Every field of a NamedTuple record of the builder, input and analysis
    layers is read by package code, as an attribute load of its name: a
    field that only tests read is carried by every run for nothing."""
    trees = _package_trees()
    loaded = {n.attr for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    assert [f"{module}.py: {field}"
            for module in ("builder", "covering", "table", "diffalg",
                           "prym", "geometry", "equivariant")
            for field in _record_fields(trees[f"{module}.py"])
            if field.split(".")[1] not in loaded] == []


def _unused_parameters(tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = [s for s in node.body if not (
            isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
        if all(isinstance(s, (ast.Pass, ast.Raise)) for s in body):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + \
            [a for a in (args.vararg, args.kwarg) if a is not None]
        used = {n.id for s in node.body for n in ast.walk(s)
                if isinstance(n, ast.Name)}
        for a in params:
            if a.arg not in ("self", "cls") and not a.arg.startswith("_") \
                    and a.arg not in used:
                yield node.lineno, f"{node.name}({a.arg})"


def test_no_unused_parameters():
    """Every parameter is read; ``self``, ``cls``, ``_``-prefixed names and
    bodies that only pass or raise are exempt."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _unused_parameters(tree)]
    assert found == []


def _private_reach(tree):
    """(line, name) of each ``_`` name imported from another package module
    and of each call of a ``_`` attribute other than NamedTuple's
    ``_replace``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.level or (node.module or "").startswith("ellprym")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr.startswith("_") and not attr.startswith("__") and \
                    attr != "_replace":
                yield node.lineno, f".{attr}"


def test_analysis_layer_uses_only_public_names():
    """The analysis modules and the CLI use the lower layers through their
    public names: no private import, constructor or method (``_flat``,
    ``._make``, ``._apply``) reaches into the flat-integer layout."""
    found = [f"{module}.py:{line} {name}"
             for module in ("diffalg", "prym", "geometry", "equivariant",
                            "cli")
             for line, name in _private_reach(ast.parse(
                 (PACKAGE / f"{module}.py").read_text(encoding="utf-8")))]
    assert found == []


def _fresh_modules(source, *args):
    """The names in ``sys.modules`` after source has run, with args as
    ``sys.argv[1:]``, in a fresh interpreter; its exit status must be 0."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", f"{source}\nimport sys; print(*sys.modules)",
         *args],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def _package_modules(loaded):
    return {m[len("ellprym."):] for m in loaded if m.startswith("ellprym.")}


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Records are NamedTuples, so a fresh ``import ellprym.cli`` pulls in
    neither ``dataclasses`` nor the ``inspect`` it imports.  The bare import
    loads no analysis module; the demo run below checks every layer."""
    assert {"dataclasses", "inspect"} & \
        _fresh_modules("import ellprym.cli") == set()


@pytest.mark.parametrize("module", ["cli", "builder", "covering"])
def test_import_leaves_out_fractions(module):
    """Scalar is the package's one rational type, so a fresh import loads
    neither ``fractions`` nor the ``decimal`` and ``numbers`` it imports."""
    assert {"fractions", "decimal", "numbers"} & \
        _fresh_modules(f"import ellprym.{module}") == set()


@pytest.fixture(scope="module")
def command_modules(tmp_path_factory):
    """{command: the names in ``sys.modules``} after ``main`` runs it in a
    fresh interpreter: ``analyze`` of the window-10 genus-4 double cover,
    with and without its action, ``build`` of the window-10 genus-3 double
    cover's spec, and ``demo-pirola`` at window 13."""
    tmp = tmp_path_factory.mktemp("commands")
    spec, datum, action = (tmp / name for name in
                           ("spec.json", "datum.json", "action.json"))
    spec.write_text(json.dumps(
        builder.spec_to_json(builder.bielliptic_spec(3, 10))))
    result = builder.build_cover(builder.bielliptic_spec(4, 10))
    covering.save(result.datum, datum)
    action.write_text(covering.json_text(result.action.to_json()))
    runs = {
        "analyze": ["analyze", str(datum)],
        "analyze --action": ["analyze", str(datum), "--action", str(action)],
        "build": ["build", str(spec), "--out", str(tmp / "built.json")],
        "demo-pirola": ["demo-pirola", "--precision", "13"],
    }
    return {command: _fresh_modules(
        "import sys; from ellprym.cli import main\n"
        "assert main(sys.argv[1:]) == 0", *argv)
        for command, argv in runs.items()}


ANALYSIS = {"cli", "covering", "diffalg", "errors", "geometry", "prym",
            "reader", "scalars", "series", "table"}


@pytest.mark.parametrize("command,closure", [
    ("analyze", ANALYSIS),
    ("analyze --action", ANALYSIS | {"compose", "equivariant"}),
    ("build", {"builder", "cli", "covering", "errors", "scalars", "series"}),
    ("demo-pirola", {path.stem for path in PACKAGE.glob("*.py")
                     if path.name not in ("__init__.py", "reader.py")}),
])
def test_command_loads_only_its_layers(command_modules, command, closure):
    """Each subcommand imports the layers it runs: ``build`` compiles no
    analysis module, no reader and no composition, a plain ``analyze``
    neither the builder nor the battery nor the composition it uses,
    ``analyze --action`` adds only the battery and its composition, and
    the demo, which builds and runs the battery on data it never reads
    from a file, loads every module but the reader."""
    assert _package_modules(command_modules[command]) == closure


# AST nodes that a fresh ``import ellprym.cli`` may load from package
# modules: every command compiles them when no bytecode cache is written
CLI_IMPORT_NODES = 12_000


def test_cli_import_compiles_at_most_its_node_budget():
    """Every command loads what a bare ``import ellprym.cli`` loads, so the
    package modules of that import hold at most CLI_IMPORT_NODES AST
    nodes, counted as ``tools/reach.py`` counts them."""
    nodes = sum(sum(1 for _ in ast.walk(ast.parse(
        (PACKAGE / f"{name}.py").read_text(encoding="utf-8"))))
        for name in _package_modules(_fresh_modules("import ellprym.cli"))
        | {"__init__"})
    assert nodes <= CLI_IMPORT_NODES


def test_demo_run_leaves_out_dataclasses_inspect_and_fractions(
        command_modules):
    """The two guards above on a run that loads every layer: after the demo,
    none of ``dataclasses``, ``inspect``, ``fractions``, ``decimal`` and
    ``numbers`` is loaded."""
    assert {"dataclasses", "inspect", "fractions", "decimal", "numbers"} & \
        command_modules["demo-pirola"] == set()


def test_no_fraction_in_the_package():
    """No name, attribute or import in the package is Fraction or
    fractions."""
    assert [name for name, tree in _package_trees().items()
            if {"Fraction", "fractions"} & set(_references(tree, ()))] == []


@pytest.mark.parametrize("module,closure", [
    ("builder", {"builder", "covering", "errors", "scalars", "series"}),
    ("covering", {"covering", "errors", "scalars", "series"}),
    ("equivariant", {"equivariant", "compose", "covering", "diffalg",
                     "errors", "scalars", "series", "table"}),
    ("cli", {"cli", "covering", "errors", "scalars", "series"}),
])
def test_input_layer_imports_no_analysis_module(module, closure):
    """The builder and the datum and action formats stand below the
    analysis, the CLI imports its other layers inside the subcommands that
    run them, ``covering`` imports the table, the readers and the
    composition inside the calls that use them, and the battery reads the
    quadric decompositions it is given rather than making them: a fresh
    import of each loads exactly these package modules, so ``equivariant``
    loads neither ``geometry`` nor ``prym``, and none of the others loads
    ``table``, ``reader`` or ``compose``."""
    assert _package_modules(_fresh_modules(f"import ellprym.{module}")) \
        == closure
