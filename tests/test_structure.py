"""Structure of the circiso package, read from its source with ast: every
definition has a caller inside the package, and the layers import in one
direction."""

import ast
import pathlib

import circiso

SRC = pathlib.Path(circiso.__file__).resolve().parent

# name -> why it stays in circiso although no circiso module reads it;
# code that only tests use belongs in tests/oracles.py instead
ALLOWED: dict[str, str] = {
    "realize": "kept with its 16-slot cache because bench/tracer.py reads its cache_info()",
    "edges": "Circulant.edges and Product.edges: bench/tracer.py's edges_checked counter "
             "and the tests' oracles read them",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _defined(tree: ast.Module):
    """(name, is_method) for each top-level function and class, and each
    method other than a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, True) for item in node.body if isinstance(item, defs)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


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
    or class counts as read by name or as an attribute; a method or
    property only as an attribute, so a local variable that shares its name
    does not hide it. The guard matches names, not bindings: two classes'
    methods of one name, such as ThetaMap.label and Circulant.label, stay
    indistinguishable, and one attribute read keeps both."""
    reads = {read for stem, tree in modules.items() if stem != "__init__"
             for read in _reads(tree)}
    attributes = {name for name, as_attribute in reads if as_attribute}
    names = {name for name, _ in reads}
    return sorted({name for tree in modules.values() for name, is_method in _defined(tree)
                   if name not in (attributes if is_method else names)})


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced(_modules()) == sorted(ALLOWED)


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
