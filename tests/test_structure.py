"""Structure of the circiso package: every definition has a caller inside
the package, read from its source with ast, and the layers import in one
direction, read from the source and from the modules a fresh interpreter
loads."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import circiso

SRC = pathlib.Path(circiso.__file__).resolve().parent

# name -> why it stays in circiso although no circiso module reads it;
# code that only tests use belongs in tests/oracles.py instead
ALLOWED: dict[str, str] = {
    "realize": "kept with its 16-slot cache because bench/tracer.py reads its cache_info()",
    "edges": "Circulant.edges and Product.edges: bench/tracer.py's edges_checked counter "
             "and the tests' oracles read them; EdgeGraph.edges, the edge set realize "
             "returns, feeds the tracer's edges_materialized counter and the oracles",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _has_fields(node: ast.ClassDef) -> bool:
    """True for a dataclass or a NamedTuple, whose annotated class-level
    names are fields."""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases))


def _defined(tree: ast.Module):
    """(name, is_member) for each top-level function and class, each method
    other than a dunder, and each field of a dataclass or NamedTuple."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, True) for item in node.body if isinstance(item, defs)
                        and not (item.name.startswith("__") and item.name.endswith("__")))
            if _has_fields(node):
                yield from ((item.target.id, True) for item in node.body
                            if isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name))


def _reads(tree: ast.Module):
    """(name, as_attribute) for every name the code reads, as a Name or as
    an Attribute; an import, a definition, a binding or a string mentioning
    a name does not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True


def unreferenced(modules: dict[str, ast.Module]) -> list[str]:
    """The definitions that no module other than __init__ reads. A function
    or class counts as read by name or as an attribute; a method, property
    or field only as an attribute, so a local variable or a keyword
    argument that shares its name does not hide it. The guard matches
    names, not bindings: two classes' members of one name, such as
    ThetaMap.label and Circulant.label, stay indistinguishable, and one
    attribute read keeps both."""
    reads = {read for stem, tree in modules.items() if stem != "__init__"
             for read in _reads(tree)}
    attributes = {name for name, as_attribute in reads if as_attribute}
    names = {name for name, _ in reads}
    return sorted({name for tree in modules.values() for name, is_method in _defined(tree)
                   if name not in (attributes if is_method else names)})


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced(_modules()) == sorted(ALLOWED)


def test_guard_flags_a_field_nothing_reads():
    # a dataclass field that is set by keyword but never read, as
    # LiftCheck.factor was, is flagged; so is a NamedTuple field
    modules = _modules()
    modules["products"].body += ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Lift:\n"
        "    factor: int\n"
        "    m: int\n"
        "def lift(m):\n"
        "    return Lift(factor=m, m=m).m\n").body
    modules["circulant"].body += ast.parse(
        "class Pair(NamedTuple):\n"
        "    alpha: int\n"
        "    beta: int\n"
        "def pair():\n"
        "    return Pair(1, 2).beta\n"
        "print(lift(1), pair())\n").body
    assert unreferenced(modules) == sorted({*ALLOWED, "factor", "alpha"})


def test_guard_flags_a_definition_only_tests_call():
    # theta_compose, put back into type2 with no caller there, is flagged;
    # the re-export in __init__ does not count as a caller
    modules = _modules()
    modules["type2"].body += ast.parse("def theta_compose(a, b):\n    return a\n").body
    modules["__init__"].body += ast.parse("__all__ = [theta_compose]").body
    assert unreferenced(modules) == sorted({*ALLOWED, "theta_compose"})


def test_guard_flags_a_method_only_a_local_variable_names():
    # a method is read only as an attribute: a variable of the same name,
    # bound and read in another module, does not count as a caller
    modules = _modules()
    [circulant] = [node for node in modules["circulant"].body
                   if isinstance(node, ast.ClassDef) and node.name == "Circulant"]
    circulant.body += ast.parse("def girth(self):\n    return 3\n").body
    modules["type1"].body += ast.parse("girth = 3\nprint(girth)\n").body
    assert unreferenced(modules) == sorted({*ALLOWED, "girth"})


def test_reporting_does_not_import_products():
    # reporting reads LAYERS beside Product in circulant; importing products
    # would pull type2 and type1 into every report reader
    imports = {node.module for node in ast.walk(_modules()["reporting"])
               if isinstance(node, ast.ImportFrom)}
    assert "products" not in imports and "circulant" in imports


def _loaded(module: str) -> set[str]:
    """The circiso modules a fresh interpreter holds after importing module."""
    code = (f"import sys, {module}\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'circiso'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def test_reporting_loads_no_type2_layer():
    # a report reader loads the graph and witness layers it reads, not the
    # products, type1 and type2 layers
    loaded = _loaded("circiso.reporting")
    assert "circiso.reporting" in loaded
    assert not loaded & {"circiso.products", "circiso.type1", "circiso.type2"}


@pytest.mark.parametrize("stem", sorted(p.stem for p in SRC.glob("*.py")
                                        if p.stem not in ("__init__", "__main__")))
def test_each_module_imports_alone(stem):
    # no import cycle, which an import order set by the package root could hide
    assert f"circiso.{stem}" in _loaded(f"circiso.{stem}")
