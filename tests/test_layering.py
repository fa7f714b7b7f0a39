"""Package layering: imports sit at module top and never form a cycle,
every setting the package exposes is one that its callers set, and every
value it stores is one that something reads.

An import hidden in a function body is how a cycle between two modules
gets past the interpreter; both checks read the source with ``ast``, so
they see every import, wherever it is.
"""

import ast
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

import pytest

from crqopt import driver
from crqopt.driver import SolveOptions

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crqopt"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(path):
    """Names of the crqopt modules that ``path`` imports, anywhere in it."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)  # from . import io
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "crqopt":
                found.add(node.module.split(".")[1] if "." in node.module else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "crqopt":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found - {path.stem}


def test_package_has_modules():
    assert len(MODULES) > 5


def test_every_library_error_is_raised():
    """Each exception class of ``crqopt.errors`` but the base ``CrqError``
    appears in a ``raise`` somewhere in the package."""
    defined = {node.name for node in ast.walk(_tree(PACKAGE / "errors.py"))
               if isinstance(node, ast.ClassDef)} - {"CrqError"}
    raised = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    assert not defined - raised, f"never raised: {sorted(defined - raised)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_in_function_body(path):
    lazy = []
    for func in ast.walk(_tree(path)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lazy += [f"{path.name}:{node.lineno} in {getattr(func, 'name', 'lambda')}"
                     for node in ast.walk(func)
                     if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not lazy, f"imports inside function bodies: {lazy}"


def test_import_graph_is_acyclic():
    graph = {path.stem: _package_imports(path) for path in MODULES}
    done, on_path = set(), []

    def visit(name):
        if name in on_path:
            cycle = on_path[on_path.index(name):] + [name]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        on_path.append(name)
        for dep in sorted(graph.get(name, ())):
            visit(dep)
        on_path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_every_solve_option_is_set_outside_the_tests():
    """Each ``SolveOptions`` field is passed by keyword to some
    ``SolveOptions(...)`` or ``replace(...)`` call in the package, the
    benchmarks or the demos; a field that only tests set is a constant."""
    callers = [path for pattern in ("src/**/*.py", "benchmarks/*.py", "demos/*.py")
               for path in sorted(ROOT.glob(pattern)) if not path.name.startswith("test_")]
    passed = set()
    for path in callers:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("SolveOptions", "replace"):
                    passed.update(kw.arg for kw in node.keywords)
    unset = {f.name for f in fields(SolveOptions)} - passed
    assert not unset, f"SolveOptions fields no caller sets: {sorted(unset)}"


def test_every_stored_field_is_read():
    """Each class-level annotated field, and each ``self.x = ...`` of an
    ``__init__``, of a class in the package is read as an attribute
    (``obj.x``) somewhere in the package, the benchmarks, the demos or the
    tests.  The check goes by name only: a field is taken as read when any
    attribute of that name is, so a field that shares its name with a read
    one (``ImageGraph.delta`` did, with ``CheckRecord.delta``) gets past it.
    """
    stored = {}
    for path in MODULES:
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    stored[f"{path.stem}.{cls.name}.{node.target.id}"] = node.target.id
                elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    for sub in ast.walk(node):
                        targets = (sub.targets if isinstance(sub, ast.Assign)
                                   else [sub.target] if isinstance(sub, ast.AnnAssign) else [])
                        stored.update((f"{path.stem}.{cls.name}.{t.attr}", t.attr) for t in targets
                                      if isinstance(t, ast.Attribute)
                                      and isinstance(t.value, ast.Name) and t.value.id == "self")
    read = {node.attr
            for pattern in ("src/**/*.py", "benchmarks/*.py", "demos/*.py", "tests/*.py")
            for path in ROOT.glob(pattern) for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(key for key, name in stored.items() if name not in read)
    assert not unread, f"stored but never read: {unread}"


def _is_dict_field(node):
    """Whether the class-level ``node`` is annotated ``dict`` (or
    ``dict[...]``) or defaults to ``field(default_factory=dict)``."""
    annotation = node.annotation
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Name) and annotation.id == "dict":
        return True
    value = node.value
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and any(kw.arg == "default_factory" and getattr(kw.value, "id", None) == "dict"
                    for kw in value.keywords))


def test_no_class_field_is_a_dict():
    """A string-keyed catch-all field hides the values it holds from
    ``test_every_stored_field_is_read``; each reported value gets a typed
    field of its own instead."""
    found = [f"{path.stem}.{cls.name}.{node.target.id}"
             for path in MODULES for cls in ast.walk(_tree(path)) if isinstance(cls, ast.ClassDef)
             for node in cls.body
             if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
             and _is_dict_field(node)]
    assert not found, f"dict-valued class fields: {found}"


# the dense oracle and the instance generator judge the driver's reduced
# solves, so they share none of its code; the oracle's secular case
# analysis lives in reference.py, beside the dense routines, and the
# reduced solve's module defines none of it
ORACLE_MODULES = ("instances.py", "reference.py")
DRIVER_SOLVE_NAMES = {"solve_rlgopt", "_solves_off_s1", "bottom_eigenpair"}
ORACLE_NAMES = {"SecularSpec", "make_spec", "secular_value", "_secular_t", "smallest_root",
                "_bottom_cluster", "solve_plgopt_spectral", "SECULAR_MAXIT"}


def _referenced_names(node):
    """Every name that ``node`` loads, imports or reads as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in sub.names)
    return found


def _defined_names(tree):
    """Names that a module's top-level functions, classes and assignments define."""
    return ({node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            | {t.id for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)})


@pytest.mark.parametrize("name", ORACLE_MODULES + ("secular.py",))
def test_the_oracle_shares_no_code_with_the_reduced_solve(name):
    path = PACKAGE / name
    if name == "secular.py":
        moved = _defined_names(_tree(path)) & ORACLE_NAMES
        assert not moved, f"secular.py defines oracle code: {sorted(moved)}"
        return
    used = _referenced_names(_tree(path)) & DRIVER_SOLVE_NAMES
    assert not used, f"{name} references the driver's reduced solve: {sorted(used)}"
    assert "lanczos" not in _package_imports(path), f"{name} imports lanczos"


def test_detection_union_bound():
    # KW_DELTA bounds a false "easy" at one detection step; over the at
    # most EIG_MAXIT steps of a run the total stays at or below 5e-8.  The
    # product is taken in decimal: in binary, 500 * 1e-10 rounds up by one
    # ulp past 5e-8
    assert driver.EIG_MAXIT * Decimal(repr(driver.KW_DELTA)) <= Decimal("5e-8")
