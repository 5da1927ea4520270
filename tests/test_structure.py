"""Structure of the circiso package: every definition has a caller inside
the package, read from its source with ast, no module imports another's
private name, and the layers import in one direction, read from the source
and from the modules a fresh interpreter loads."""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

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


def _fields(node: ast.ClassDef):
    """The fields of a NamedTuple: its annotated class-level names, or, for
    a class that validates in __new__ on a base NamedTuple("Name", [...]),
    the names in that base's field list."""
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == "NamedTuple":
            yield from (item.target.id for item in node.body if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name))
        elif (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
              and base.func.id == "NamedTuple"):
            yield from (field.elts[0].value for field in base.args[1].elts)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _members(node: ast.ClassDef):
    """The methods of a class other than dunders, properties included, and
    its NamedTuple fields."""
    yield from (item.name for item in node.body if isinstance(item, _DEFS)
                and not (item.name.startswith("__") and item.name.endswith("__")))
    yield from _fields(node)


def _defined(tree: ast.Module):
    """(name, is_member) for each top-level function and class, each method
    other than a dunder, and each field of a NamedTuple."""
    for node in tree.body:
        if isinstance(node, (*_DEFS, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((name, True) for name in _members(node))


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
    attribute read keeps both; SHARED names each such member's readers."""
    reads = {read for stem, tree in modules.items() if stem != "__init__"
             for read in _reads(tree)}
    attributes = {name for name, as_attribute in reads if as_attribute}
    names = {name for name, _ in reads}
    return sorted({name for tree in modules.values() for name, is_method in _defined(tree)
                   if name not in (attributes if is_method else names)})


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced(_modules()) == sorted(ALLOWED)


# member name -> {class that defines it: who reads it there}, for every
# name that more than one src/ class defines as a method, property or
# NamedTuple field. The guard above matches names, not bindings, so one
# read of such a name keeps every class's member; a new shared name must be
# entered here, with the readers of each owner, before it can hide one
SHARED: dict[str, dict[str, str]] = {
    "base": {"Type1Orbit": "type1.type1_group_table",
             "Type2Orbit": "Type2Orbit.outcome, type2.type2_group_check"},
    "closed": {"GroupTable": "cli.cmd_t1, cli.cmd_t2, GroupTable.ok",
               "Type2GroupReport": "cli.cmd_t2, Type2GroupReport.ok"},
    "edge_count": {"Circulant": "iso_oracle.verify_circulant_witness, circulant.sizes, cli._stored",
                   "Product": "iso_oracle.verify_circulant_witness"},
    "edges": {"Circulant": "bench/tracer.py and tests/oracles.py only (ALLOWED)",
              "EdgeGraph": "bench/tracer.py and tests/oracles.py only (ALLOWED)",
              "Product": "bench/tracer.py and tests/oracles.py only (ALLOWED)"},
    "factors": {"Circulant": "iso_oracle.verify_circulant_witness, through circulant.steps",
                "Product": "iso_oracle.verify_circulant_witness, reporting.graph_desc, Product.label"},
    "kind": {"LiftCheck": "cli.cmd_scan",
             "ThetaClassification": "cli.cmd_classify, products._lift_checks, reproduce"},
    "label": {"Circulant": "the messages and summaries of cli, products, type2 and reproduce",
              "Product": "iso_oracle.walk_or_raise's message",
              "ThetaMap": "bench/workloads.py:114 and tests/oracles.theta_compose only; "
                          "no src/ module reads it"},
    "m": {"LiftCheck": "cli.cmd_scan",
          "ThetaMap": "type2.classify_theta",
          "Type2Orbit": "Type2Orbit.outcome, type2.type2_group_check"},
    "members": {"Type1Orbit": "cli.cmd_t1, reproduce",
                "Type2Orbit": "cli.cmd_t2, products.scan_conjecture, reproduce"},
    "n": {"Circulant": "every module that builds or checks a graph",
          "EdgeGraph": "tests/oracles.py only, on what realize returns (ALLOWED)",
          "PeriodicMap": "iso_oracle.verify_circulant_witness",
          "Product": "iso_oracle.verify_circulant_witness, reporting.graph_desc",
          "ThetaMap": "type2.classify_theta"},
    "ok": {"GroupTable": "reproduce, Type2GroupReport.ok",
           "Type2GroupReport": "reproduce, bench/workloads.py"},
    "t": {"LiftCheck": "cli.cmd_scan", "ThetaMap": "type2.classify_theta"},
    "witnesses": {"Type1Orbit": "cli.cmd_t1", "Type2Orbit": "cli.cmd_t2"},
}


def shared_members(modules: dict[str, ast.Module]) -> dict[str, set[str]]:
    """member name -> the classes that define it (_members), for every name
    that more than one class defines."""
    owners: dict[str, set[str]] = {}
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for name in _members(node):
                    owners.setdefault(name, set()).add(node.name)
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


def test_every_shared_member_name_names_its_readers():
    assert shared_members(_modules()) == {name: set(by) for name, by in SHARED.items()}
    # a method that Type2Orbit gains under a name Circulant already has
    # makes a new shared name
    modules = _modules()
    [orbit] = [node for node in modules["type2"].body
               if isinstance(node, ast.ClassDef) and node.name == "Type2Orbit"]
    orbit.body += ast.parse("def text(self):\n    return ''\n").body
    assert shared_members(modules)["text"] == {"Circulant", "Type2Orbit"}


def test_guard_flags_a_field_nothing_reads():
    # a field that is set by keyword but never read, as LiftCheck.factor
    # was, is flagged; so is one named in the NamedTuple(...) base of a
    # value type that validates in __new__, as Circulant does
    modules = _modules()
    modules["products"].body += ast.parse(
        "class Lift(NamedTuple):\n"
        "    factor: int\n"
        "    m: int\n"
        "def lift(m):\n"
        "    return Lift(factor=m, m=m).m\n").body
    modules["circulant"].body += ast.parse(
        "class Pair(NamedTuple('Pair', [('alpha', int), ('beta', int)])):\n"
        "    __slots__ = ()\n"
        "    def __new__(cls, alpha, beta):\n"
        "        return super().__new__(cls, alpha, beta)\n"
        "def pair():\n"
        "    return Pair(1, 2).beta\n"
        "print(lift(1), pair())\n").body
    assert unreferenced(modules) == sorted({*ALLOWED, "factor", "alpha"})


def _unchecked_builds(modules: dict[str, ast.Module]) -> list[str]:
    """module:line of every call of a _replace or _make method, which build
    a NamedTuple without running its __new__ and so skip the checks of
    Circulant, ThetaMap and PeriodicMap."""
    return [f"{stem}:{node.lineno}" for stem, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_replace", "_make")]


def test_no_value_is_built_around_its_checks():
    assert _unchecked_builds(_modules()) == []
    modules = _modules()
    modules["type2"].body += ast.parse("def shifted(tm):\n    return tm._replace(t=1)\n"
                                       "def made(n):\n    return ThetaMap._make((n, 2, 0))\n"
                                       ).body
    assert len(_unchecked_builds(modules)) == 2


def _witness_builds(modules: dict[str, ast.Module]) -> list[str]:
    """module:verified for every IsoWitness(...) call, with the source text
    of its verified argument, given by keyword or by position; a position
    behind a *args is counted from the end of the call, and "?" stands for
    one that cannot be read."""
    [witness] = [node for node in modules["iso_oracle"].body
                 if isinstance(node, ast.ClassDef) and node.name == "IsoWitness"]
    fields = list(_fields(witness))
    k = fields.index("verified")
    builds = []
    for stem, tree in modules.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and "IsoWitness" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            args = node.args
            starred = [i for i, a in enumerate(args) if isinstance(a, ast.Starred)]
            after = len([f for f in fields[k + 1:] if f not in keywords])
            if "verified" in keywords:
                arg = keywords["verified"]
            elif not starred or starred[0] > k:
                arg = args[k] if len(args) > k else None
            else:
                arg = args[-1 - after] if starred[-1] < len(args) - 1 - after else None
            builds.append(f"{stem}:{'?' if arg is None else ast.unparse(arg)}")
    return builds


def test_only_walk_or_raise_builds_a_verified_witness():
    # iso_oracle.walk_or_raise issues every verified witness, after its
    # walk; reporting.witness_from_json reads one from a report, unverified
    builds = _witness_builds(_modules())
    assert sorted(set(builds)) == ["iso_oracle:True", "reporting:False"]
    # a witness marked verified by its producer, by position or keyword,
    # and one whose flag is a variable behind a *args, are flagged
    modules = _modules()
    modules["type2"].body += ast.parse(
        "def forged(g, f):\n"
        "    return IsoWitness(g, g, f, True, 'theta(m=2,t=1)')\n"
        "def keyed(g, f):\n"
        "    return iso_oracle.IsoWitness(g, g, f, verified=True, origin='x')\n").body
    modules["products"].body += ast.parse(
        "def starred(ends, f, ok):\n"
        "    return IsoWitness(*ends, f, ok, 'crt')\n").body
    planted = Counter(_witness_builds(modules)) - Counter(builds)
    assert planted == {"type2:True": 2, "products:ok": 1}


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(modules: dict[str, ast.Module]) -> list[str]:
    """module:name for every _-prefixed name, dunders aside, that a module
    imports from another circiso module, by a relative import or by an
    absolute one from circiso. Such a name is a module's own detail; a
    second module that needs it needs a public name."""
    return [f"{stem}:{alias.name}" for stem, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "circiso")
            for alias in node.names if _private(alias.name)]


def test_no_module_imports_another_modules_private_name():
    assert _private_imports(_modules()) == []
    # the import type2 once made of type1's unit scaling is flagged, and so
    # is an absolute one; reporting's import of the package's __version__ is not
    modules = _modules()
    modules["type2"].body += ast.parse("from .type1 import _scaled\n"
                                       "from circiso.type2 import _lattice_conn as conn\n").body
    assert _private_imports(modules) == ["type2:_scaled", "type2:_lattice_conn"]


def test_reporting_does_not_import_products():
    # reporting reads LAYERS beside Product in circulant; importing products
    # would pull type2 and type1 into every report reader
    imports = {node.module for node in ast.walk(_modules()["reporting"])
               if isinstance(node, ast.ImportFrom)}
    assert "products" not in imports and "circulant" in imports


def _loaded(module: str) -> set[str]:
    """The modules a fresh interpreter holds after importing module."""
    code = f"import sys, {module}\nprint(*sys.modules)"
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


def test_cli_loads_no_module_it_does_not_use():
    # every command pays for what importing the CLI loads: dataclasses
    # (which pulls in inspect), datetime for the report timestamp, and
    # hashlib, which only the catalog's checksum reads, stay out of it
    assert not _loaded("circiso.cli") & {"dataclasses", "inspect", "datetime", "hashlib"}


@pytest.mark.parametrize("stem", sorted(p.stem for p in SRC.glob("*.py")
                                        if p.stem not in ("__init__", "__main__")))
def test_each_module_imports_alone(stem):
    # no import cycle, which an import order set by the package root could hide
    assert f"circiso.{stem}" in _loaded(f"circiso.{stem}")
