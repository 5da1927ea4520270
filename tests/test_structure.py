"""Structure of the circiso package, read from its source with ast: every
definition has a caller inside the package, and the layers import in one
direction."""

import ast
import pathlib

import circiso

SRC = pathlib.Path(circiso.__file__).resolve().parent

# name -> why it stays in circiso although no circiso module names it;
# code that only tests use belongs in tests/oracles.py instead
ALLOWED: dict[str, str] = {}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _defined(tree: ast.Module):
    """Top-level functions and classes, and methods other than dunders."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, defs)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _names(tree: ast.Module):
    """Every name the code reads or binds, as a Name or an Attribute; an
    import, a definition or a string mentioning a name does not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unreferenced(modules: dict[str, ast.Module]) -> list[str]:
    """The definitions that no module other than __init__ names."""
    used = {name for stem, tree in modules.items() if stem != "__init__"
            for name in _names(tree)}
    return sorted({name for tree in modules.values() for name in _defined(tree)} - used)


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced(_modules()) == sorted(ALLOWED)


def test_guard_flags_a_definition_only_tests_call():
    # theta_compose, put back into type2 with no caller there, is flagged;
    # the re-export in __init__ does not count as a caller
    modules = _modules()
    modules["type2"].body += ast.parse("def theta_compose(a, b):\n    return a\n").body
    modules["__init__"].body += ast.parse("__all__ = [theta_compose]").body
    assert unreferenced(modules) == sorted({*ALLOWED, "theta_compose"})


def test_reporting_does_not_import_products():
    # reporting reads LAYERS beside Product in circulant; importing products
    # would pull type2 and type1 into every report reader
    imports = {node.module for node in ast.walk(_modules()["reporting"])
               if isinstance(node, ast.ImportFrom)}
    assert "products" not in imports and "circulant" in imports
