import ast
import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import circiso
from circiso import cli, iso_oracle, products, type1, type2
from circiso.circulant import (
    WITNESS_EDGE_CAP,
    Circulant,
    edge_set,
    parse_graph,
    realize,
    shifted,
    steps,
)
from circiso.cli import main
from circiso.residue import MAX_MODULUS
from circiso.reporting import graph_from_desc, witness_json
from circiso.type1 import adams_apply, adams_periodic, type1_set
from circiso.type2 import ThetaClassification, ThetaMap, classify_theta

from oracles import make_witness, search_isomorphism
from test_iso_oracle import _Reads
from test_products import layered_graph

SRC = pathlib.Path(circiso.__file__).resolve().parents[1]
A432 = "n=432;R=16,27,48,54,128,160,189"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_t1_text_output(capsys):
    code, out, _ = run(capsys, "t1", "n=16;R=1,2,7")
    assert code == 0
    assert "1,2,7 | 3,5,6" in out


def test_t1_json_output(capsys):
    code, out, _ = run(capsys, "t1", "n=27;R=1,3,8,10", "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["meta", "input", "results", "assertions"]
    assert doc["meta"]["tool"] == "circiso"
    assert len(doc["results"]["members"]) == 3
    assert all(a["passed"] for a in doc["assertions"])
    assert all(w["verified"] for w in doc["results"]["witnesses"])


def test_t1_flag_style_graph(capsys):
    code, out, _ = run(capsys, "t1", "--n", "16", "--set", "1,2,7")
    assert code == 0


def _forbid_calls(monkeypatch, *fns):
    """Fail the test if any fn is called through a circiso module binding."""
    for fn in fns:
        def forbidden(*args, _name=fn.__name__):
            pytest.fail(f"{_name} was called")

        for name, mod in list(sys.modules.items()):
            if name.startswith("circiso") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, forbidden)


def _circulant(g):
    return {"kind": "circulant", "n": g.n, "conn": list(g.conn)}


def test_t1_builds_no_edge_set(capsys, monkeypatch):
    # each adam(x) map is checked on the connection sets, and the written
    # witnesses are those the edge-level check gives
    g = parse_graph(A432)
    orbit = type1_set(g)
    expected = []
    for member, x in zip(orbit.members, orbit.reps):
        w = make_witness(g, member, adams_periodic(g.n, x).expand(), f"adam(x={x})")
        expected.append({"source": _circulant(g), "target": _circulant(member),
                         "bijection": list(w.bijection), "origin": w.origin,
                         "verified": w.verified})
    type1_set.cache_clear()  # the orbit, witnesses included, is built under the guard
    _forbid_calls(monkeypatch, realize, edge_set)
    code, out, _ = run(capsys, "t1", A432, "--json")
    assert code == 0 and json.loads(out)["results"]["witnesses"] == expected


def test_t1_rejects_a_wrong_member_map(capsys, monkeypatch):
    # vertices 0 and 1 of A_1 have different neighbourhoods, so a map with
    # their images swapped is no isomorphism; the map is given as the
    # PeriodicMap (p, c) = (n, 0) of that image list. The orbit's walk
    # refuses it, and t1 exits 2 naming the map, as t2 does
    def transposed(n, x):
        f = list(adams_periodic(n, x).expand())
        f[0], f[1] = f[1], f[0]
        return iso_oracle.PeriodicMap(n, n, 0, f)

    type1_set.cache_clear()
    monkeypatch.setattr(type1, "adams_periodic", transposed)
    code, out, err = run(capsys, "t1", A432, "--json")
    assert code == 2 and out == ""
    assert re.match(r"error: adam\(x=\d+\) does not map C_432\(", err) and err.count("\n") == 1


def test_t2_command(capsys):
    code, out, _ = run(capsys, "t2", "n=16;R=1,2,7", "--m", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    members = [tuple(m["conn"]) for m in doc["results"]["members"]]
    assert sorted(members) == [(1, 2, 7), (2, 3, 5)]
    assert doc["results"]["t_stabilizer"] == [0, 2, 4, 6]
    kinds = {c["t"]: c["kind"] for c in doc["results"]["classifications"]}
    assert kinds[0] == "identity" and kinds[2] == "type2" and kinds[1] == "not_circulant"


def _count_calls(monkeypatch, fn, counts):
    """Count calls of fn at every circiso module that binds it."""
    def counting(*args):
        counts[fn.__name__] += 1
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("circiso") and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counting)


def test_t2_classifies_each_t_once(capsys, monkeypatch):
    # every t in [0, 216) gets one classification, in order; only the t on
    # the lattice 54·Z, where A_1's image can be circulant, are handled, by
    # one edge walk each and no re-detection up to t = 108, where the image
    # is A_1 again; t = 162 takes the outcome of t = 54 without a walk
    counts = Counter()
    _count_calls(monkeypatch, iso_oracle.verify_circulant_witness, counts)
    _count_calls(monkeypatch, type2.theta_image, counts)
    _count_calls(monkeypatch, type2._type2_refusal, counts)
    _count_calls(monkeypatch, realize, counts)
    code, out, _ = run(capsys, "t2", A432, "--m", "2", "--json")
    results = json.loads(out)["results"]
    assert code == 0 and len(results["witnesses"]) == 1
    assert [c["t"] for c in results["classifications"]] == list(range(216))
    assert [c["t"] for c in results["classifications"] if c["image"]] == [0, 54, 108, 162]
    assert counts["verify_circulant_witness"] == 3 and counts["theta_image"] == 0
    # m is refused or admitted once, not once per t
    assert counts["_type2_refusal"] == 1
    # the member witness keeps circulant endpoints, so no edge set is built
    assert counts["realize"] == 0


def _swapped(w):
    """w with the images of vertices 0 and 1 swapped in its bijection."""
    f = list(w.images())
    f[0], f[1] = f[1], f[0]
    return w._replace(bijection=tuple(f))


def test_classification_builds_no_edge_set(monkeypatch):
    # the catalog row theta(432, 2, 54) carries A_1 onto D_1; its witness
    # holds the two circulants, and the edge-level check still runs on them
    g = parse_graph(A432)
    tm = ThetaMap(g.n, 2, 54)
    with monkeypatch.context() as mp:
        _forbid_calls(mp, realize, edge_set)
        cls = classify_theta(tm, g)
        orbit = type2.type2_set(g, 2)
    assert cls.kind == "type2" and cls.witness.source == g and cls.witness.target == cls.image
    assert cls.image in orbit.members and orbit.witnesses
    # vertices 0 and 1 of A_1 have different neighbourhoods
    for w in (cls.witness, *orbit.witnesses):
        assert iso_oracle.verify_witness(w)
        assert not iso_oracle.verify_witness(_swapped(w))


def test_edge_check_is_independent_of_the_circulant_check(monkeypatch):
    # verify_witness reads the period of the stored images from the images
    # themselves; it must not fall back on the map the witness was built from
    g = parse_graph(A432)
    witnesses = [classify_theta(ThetaMap(g.n, 2, 54), g).witness,
                 make_witness(g, adams_apply(g, 5), adams_periodic(g.n, 5).expand(), "adam(x=5)"),
                 products.product_witness("coprime", parse_graph("n=16;R=1,2,7"),
                                          parse_graph("n=27;R=1,3,8,10"))[1]]
    _forbid_calls(monkeypatch, iso_oracle.verify_circulant_witness)
    # vertices 0 and 1 have different neighbourhoods in A_1 and in the
    # product of the two factors
    for w in witnesses:
        assert iso_oracle.verify_witness(w)
        assert not iso_oracle.verify_witness(_swapped(w))


@pytest.mark.parametrize("argv", [("t2", A432, "--m", "2"), ("t2", A432, "--m", "3"),
                                  ("classify", A432, "--m", "2", "--t", "54")])
def test_type2_commands_build_no_edge_set(capsys, monkeypatch, argv):
    _forbid_calls(monkeypatch, realize, edge_set)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["results"]["witnesses"]


@pytest.mark.parametrize("graph, m", [("n=16;R=1,2,7", 2), (A432, 2), (A432, 3)])
def test_t2_witnesses_match_reclassification(capsys, graph, m):
    code, out, _ = run(capsys, "t2", graph, "--m", str(m), "--json")
    assert code == 0
    results = json.loads(out)["results"]
    g = parse_graph(graph)
    expected = []
    for desc in results["members"]:
        member = Circulant(desc["n"], tuple(desc["conn"]))
        if member == g:
            continue
        t = min(c["t"] for c in results["classifications"]
                if c["kind"] == "type2" and c["image"] == desc)
        w = classify_theta(ThetaMap(g.n, m, t), g).witness
        expected.append({"source": _circulant(g), "target": _circulant(member),
                         "bijection": list(w.images()), "origin": w.origin,
                         "verified": w.verified})
    assert expected and results["witnesses"] == expected


def test_t2_parameter_error_has_hint(capsys):
    code, out, err = run(capsys, "t2", "n=432;R=16,27,48,54,128,160,189", "--m", "5")
    assert code == 2
    assert "hint" in err
    assert "2, 3, 6" in err  # the valid m values for this graph
    # m = 2 meets m^3 | n and divides an offset, but two offsets admit no m:
    # the hint reads the rule that refused the classification
    code, out, err = run(capsys, "t2", "n=16;R=2,4", "--m", "2")
    assert code == 2
    assert err.splitlines() == ["error: Type-2 classification needs at least 3 offsets",
                                "hint: no valid m exists for C_16(2,4)"]


WALK_FAILURES = [
    (("t1", A432), r"adam\(x=\d+\)"),
    (("t2", "n=432;R=16,27,54,128", "--m", "2"), r"theta\(m=2,t=0\)"),
    (("classify", A432, "--m", "2", "--t", "54"), r"theta\(m=2,t=54\)"),
    (("product", "coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10"), r"crt-embedding\(16x27\)"),
]


@pytest.mark.parametrize("argv, origin", WALK_FAILURES, ids=[a[0] for a, _ in WALK_FAILURES])
def test_walk_failure_exits_2_with_one_line(capsys, monkeypatch, argv, origin):
    # a walk fails only through a bug; every command that walks then exits 2
    # with main's one error line, which names the map, and t2 gives no hint
    type1_set.cache_clear()
    monkeypatch.setattr(iso_oracle, "verify_circulant_witness", lambda g, h, f: False)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert re.match(f"error: {origin} does not map ", err) and err.count("\n") == 1


def test_walk_failure_exits_2_under_optimize():
    # python -O strips assert statements; a failed walk must still stop
    # every command with one error line naming the map
    code = ("import contextlib, io, re, sys\n"
            "from circiso import cli, iso_oracle\n"
            "iso_oracle.verify_circulant_witness = lambda g, h, f: False\n"
            f"for argv, origin in {WALK_FAILURES!r}:\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        code = cli.main(list(argv))\n"
            "    err = err.getvalue()\n"
            "    if code != 2 or err.count('\\n') != 1 or not re.match(\n"
            "            f'error: {origin} does not map ', err):\n"
            "        sys.exit(f'{argv[0]}: exit {code}, {err!r}')\n")
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert res.returncode == 0, res.stderr


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "n=432;R=16,27,48,54,128,160,189", "--m", "3", "--t", "48", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["kind"] == "identity"


def test_classify_verdict_is_computed(capsys, monkeypatch):
    # the "classification computed" assertion fails on an outcome that
    # contradicts its own kind
    g, tm = parse_graph(A432), ThetaMap(432, 2, 54)
    good = classify_theta(tm, g)
    for bad in (good._replace(witness=None), good._replace(kind="type3"),
                ThetaClassification(kind="not_circulant"),
                ThetaClassification(kind="not_circulant", failing_vertex=2)):
        monkeypatch.setattr(cli, "classify_theta", lambda tm, g, bad=bad: bad)
        code, out, _ = run(capsys, "classify", A432, "--m", "2", "--t", "54")
        assert code == 1 and "[FAIL] classification computed" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "t1", "n=16;R=1,,7")
    assert code == 2
    assert "byte" in err


@pytest.mark.parametrize("argv", [
    ("verify", "{dir}"),
    ("t1", "n=16;R=1,2,7", "--out", "{dir}"),
    ("t1", "n=16;R=1,2,7", "--json", "--out", "{dir}"),
    ("verify", "{dir}/missing.json"),
])
def test_unusable_path_exits_2(tmp_path, capsys, argv):
    # a report path that cannot be opened is bad input, not a failed check
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once_and_shared(tmp_path, capsys):
    cli.build_parser.cache_clear()
    code, out, _ = run(capsys, "classify", "n=16;R=1,2,7", "--m", "2", "--t", "2", "--json")
    assert code == 0 and json.loads(out)["results"]["kind"] == "type2"
    # neither --json nor --out carries over to the next call
    code, out, _ = run(capsys, "classify", "n=16;R=1,2,7", "--m", "2", "--t", "2")
    assert code == 0 and out.startswith("[PASS]") and "written" not in out
    report = tmp_path / "r.json"
    assert run(capsys, "t1", "n=16;R=1,2,7", "--out", str(report))[0] == 0
    code, out, _ = run(capsys, "t1", "n=16;R=1,2,7")
    assert code == 0 and "written" not in out
    # a call argparse rejects leaves nothing behind for the next one
    with pytest.raises(SystemExit) as exit_info:
        main(["t2", "n=16;R=1,2,7"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(report))
    assert code == 0 and out.count("[PASS] witness") == 2
    assert cli.build_parser.cache_info().misses == 1


def test_product_commands(capsys):
    code, out, _ = run(capsys, "product", "coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["product"]["conn"] == [16, 27, 48, 54, 128, 160, 189]
    assert doc["results"]["witnesses"][0]["verified"]
    assert doc["results"]["witnesses"][0]["source"]["kind"] == "cartesian"

    code, out, _ = run(capsys, "product", "prism", "n=5;R=1,2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["product"]["conn"] == [2, 4, 5]
    assert doc["results"]["witnesses"][0]["source"]["kind"] == "prism"

    code, _, err = run(capsys, "product", "prism", "n=5;R=1", "n=7;R=1")
    assert code == 2
    code, _, err = run(capsys, "product", "coprime", "n=5;R=1")
    assert code == 2 and err == "error: coprime products take two graphs\n"

    # above the cap nothing is checked edge for edge, and the report says so
    code, out, _ = run(capsys, "product", "coprime", "n=16;R=1,2,3,4,5,6", "n=625;R=1,2,3,4,5",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["product"]["n"] == 10_000 and doc["results"]["witnesses"] == []
    [a] = doc["assertions"]
    assert "formula only" in a["name"] and "verified" not in a["name"]


def _complete(n):
    return parse_graph(f"n={n};R={','.join(map(str, range(1, n // 2 + 1)))}")


def test_stored_witnesses_stay_within_the_verify_cap(tmp_path, capsys):
    # commands store a witness only while both endpoints have at most
    # WITNESS_EDGE_CAP edges, the bound verify enforces, so every report they
    # write verifies; past the cap a report stores none and says so
    at_cap = parse_graph("n=16;R=1,2,3,4,5"), parse_graph("n=625;R=1,2,3,4,5")
    assert products.product_coprime(*at_cap).edge_count == WITNESS_EDGE_CAP
    assert _complete(447).edge_count <= WITNESS_EDGE_CAP < _complete(449).edge_count
    report = tmp_path / "report.json"
    for argv in (("product", "coprime", *(g.text() for g in at_cap)),
                 ("t1", _complete(447).text())):
        code, _, _ = run(capsys, *argv, "--out", str(report))
        assert code == 0 and json.loads(report.read_text())["results"]["witnesses"]
        code, out, _ = run(capsys, "verify", str(report))
        assert code == 0 and "[PASS] witness 0" in out
    dense = "n=99;R=" + ",".join(map(str, range(1, 50))), "n=101;R=" + ",".join(map(str, range(1, 51)))
    for argv, note in ((("product", "coprime", *dense), "formula only"),
                       (("t1", _complete(449).text()), "witnesses not stored"),
                       (("classify", _complete(512).text(), "--m", "2", "--t", "3"),
                        "witnesses not stored")):
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["results"]["witnesses"] == []
        assert note in doc["assertions"][-1]["name"] and doc["assertions"][-1]["passed"]


def test_product_builds_witness_once(capsys, monkeypatch):
    # each product command checks its CRT embedding once, on the result's
    # connection set, with the embedding in periodic form (p = c = the
    # order of the second factor), and builds no witness through the
    # edge-level route
    calls = []
    real = iso_oracle.verify_circulant_witness

    def counting(source, target, bijection):
        calls.append((source, target, bijection))
        return real(source, target, bijection)

    def forbidden(*args, **kwargs):
        pytest.fail("search_isomorphism or verify_witness ran on the product path")

    banned = (search_isomorphism, iso_oracle.verify_witness)
    for name, mod in list(sys.modules.items()):
        if name.startswith("circiso"):
            if getattr(mod, "verify_circulant_witness", None) is real:
                monkeypatch.setattr(mod, "verify_circulant_witness", counting)
            for fn in banned:
                if getattr(mod, fn.__name__, None) is fn:
                    monkeypatch.setattr(mod, fn.__name__, forbidden)
    for argv, origin, n in ((("coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10"),
                             "crt-embedding(16x27)", 27),
                            (("prism", "n=7;R=1,2"), "crt-embedding(2x7)", 7),
                            (("c4", "n=45;R=1,7"), "crt-embedding(4x45)", 45)):
        calls.clear()
        code, out, _ = run(capsys, "product", *argv, "--json")
        assert code == 0 and len(calls) == 1
        [(source, target, f)] = calls
        assert isinstance(source, products.Product) and (f.p, f.c) == (n, n)
        [w] = json.loads(out)["results"]["witnesses"]
        assert w["verified"] and w["origin"] == origin
        assert w["bijection"] == list(f.expand())
        assert target == graph_from_desc(w["target"], target.n)
        assert source == graph_from_desc(w["source"], source.n)


def test_verify_rebuilds_product_witnesses(tmp_path, capsys):
    f = tmp_path / "prod.json"
    code, _, _ = run(capsys, "product", "prism", "n=7;R=1,2", "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0
    assert "[PASS]" in out and "prism" in out


def test_verify_accepts_layered_search_witness(tmp_path, capsys):
    # layered reports written before the CRT embedding carry the bijection
    # that the backtracking search found; the descriptors still rebuild them.
    # The search's first hit is often the CRT bijection itself, but not on
    # the three triangles C_9(3)
    for kind, g in (("prism", Circulant(9, (3,))), ("c4", Circulant(9, (3,)))):
        result, crt = products.product_witness(kind, g)
        w = search_isomorphism(layered_graph(kind, g), realize(result))
        assert w.bijection != crt.images()
        f = tmp_path / f"{kind}.json"
        f.write_text(json.dumps({"results": {"witnesses": [
            witness_json(w._replace(source=crt.source, target=crt.target))]}}))
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 0 and f"[PASS] witness 0: {kind} n={result.n}" in out


def test_verify_round_trip(tmp_path, capsys):
    report_file = tmp_path / "t2.json"
    code, _, _ = run(capsys, "t2", "n=16;R=1,2,7", "--m", "2", "--out", str(report_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(report_file))
    assert code == 0
    assert "[PASS]" in out

    # corrupt the stored bijection and expect an itemized failure
    doc = json.loads(report_file.read_text())
    doc["results"]["witnesses"][0]["bijection"][1:3] = [
        doc["results"]["witnesses"][0]["bijection"][2],
        doc["results"]["witnesses"][0]["bijection"][1],
    ]
    report_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(report_file))
    assert code == 1
    assert "[FAIL]" in out


def _witness(**fields):
    w = {"source": {"kind": "circulant", "n": 5, "conn": [1]},
         "target": {"kind": "circulant", "n": 5, "conn": [2]},
         "bijection": [0, 2, 4, 1, 3], "origin": "adam(x=2)", "verified": True}
    w.update(fields)
    return {k: v for k, v in w.items() if v is not None}


def _product_report(kind, *graphs, **source):
    """The witness a `product` report stores, with the given fields of its
    source descriptor replaced."""
    result, w = products.product_witness(kind, *(parse_graph(text) for text in graphs))
    stored = witness_json(w)
    stored["source"].update(source)
    return json.dumps({"results": {"witnesses": [stored]}})


def _onto_product(kind, *graphs):
    """The witness from a product's circulant onto the Product itself,
    through the inverse of its CRT embedding: an isomorphism whose target
    is no circulant."""
    result, crt = products.product_witness(kind, *(parse_graph(text) for text in graphs))
    inverse = [0] * result.n
    for v, image in enumerate(crt.images()):
        inverse[image] = v
    return _witness(source=_circulant(result), target=witness_json(crt)["source"],
                    bijection=inverse, origin="inverse")


_NESTED = {"kind": "cartesian", "n": 105,
           "factors": [{"kind": "cartesian", "n": 15,
                        "factors": [{"kind": "circulant", "n": 3, "conn": [1]},
                                    {"kind": "circulant", "n": 5, "conn": [1]}]},
                       {"kind": "circulant", "n": 7, "conn": [1]}]}
# every factor and base must be a circulant descriptor: the first two
# bijections do map the graphs the reports name, so only that rule refuses them
NON_CIRCULANT_PARTS = [
    pytest.param(_product_report("prism", "n=7;R=1,2",
                                 base={"kind": "torus", "n": 7, "conn": [1, 2]}),
                 "prism base has kind 'torus', not 'circulant'", id="prism-base-torus"),
    pytest.param(_product_report("c4", "n=9;R=1,2",
                                 base={"kind": "cartesian", "n": 9, "conn": [1, 2]}),
                 "c4 base has kind 'cartesian', not 'circulant'", id="c4-base-cartesian"),
    pytest.param(json.dumps({"results": {"witnesses": [_witness(
        source=_NESTED, target={"kind": "circulant", "n": 105, "conn": [1]},
        bijection=list(range(105)))]}}),
        "cartesian factor has kind 'cartesian', not 'circulant'", id="nested-cartesian"),
]


@pytest.mark.parametrize("content, message", [
    ("{not json", "is not a JSON report"),
    (json.dumps({"results": {"witnesses": [_witness(source=None)]}}), "has no 'source'"),
    (json.dumps({"results": {"witnesses": [_witness(source={"kind": "torus", "n": 5})]}}),
     "unknown graph descriptor kind 'torus'"),
    (json.dumps({"results": {"witnesses": [_witness(bijection=[0, 2, "4", 1, 3])]}}),
     "bijection is not a list of integers"),
    (json.dumps({"results": {"witnesses": {"0": _witness()}}}), "is not a list"),
    # orders and edge counts are checked against the bijection and the cap
    # before any edge set is built
    pytest.param(json.dumps({"results": {"witnesses": [_witness(bijection=list(range(6)))]}}),
        "circulant descriptor has order 5, but the bijection has 6 entries", id="order-short"),
    pytest.param(json.dumps({"results": {"witnesses": [_witness(
        source={"kind": "circulant", "n": 2**31, "conn": [1]}, bijection=[0])]}}),
        "circulant descriptor names at least 2147483648 vertices, more than 1",
        id="order-2^31"),
    pytest.param(json.dumps({"results": {"witnesses": [_witness(source={
        "kind": "cartesian", "n": 46_000 * 46_001,
        "factors": [{"kind": "circulant", "n": 46_000, "conn": [1]},
                    {"kind": "circulant", "n": 46_001, "conn": [1]}]})]}}),
        "cartesian descriptor names at least 46000 vertices, more than 5",
        id="cartesian-46000x46001"),
    pytest.param(json.dumps({"results": {"witnesses": [_witness(source={
        "kind": "prism", "n": 2 * (2**30 + 1),
        "base": {"kind": "circulant", "n": 2**30 + 1, "conn": [1]}})]}}),
        "prism descriptor names at least 2147483650 vertices, more than 5",
        id="prism-base-2^30+1"),
    pytest.param(json.dumps({"results": {"witnesses": [_witness(
        source={"kind": "circulant", "n": 20_000, "conn": list(range(1, 10_001))},
        bijection=list(range(20_000)))]}}),
        f"names at least 199990000 edges, more than the limit of {WITNESS_EDGE_CAP}",
        id="dense-20000"),
    # 2^14 leaves; the read stops at the first factor, a cartesian
    pytest.param(json.dumps({"results": {"witnesses": [_witness(
        source=functools.reduce(lambda d, _: {"kind": "cartesian", "factors": [d, d]},
                                range(14), {"kind": "circulant", "n": 3, "conn": [1]}))]}}),
        "cartesian factor has kind 'cartesian', not 'circulant'", id="wide-tree-2^14"),
    pytest.param('{"results": {"witnesses": [{"source": '
                 + '{"kind": "cartesian", "factors": [' * 5000
                 + '{"kind": "circulant", "n": 3, "conn": [1]}'
                 + ', {"kind": "circulant", "n": 3, "conn": [1]}]}' * 5000
                 + ', "target": {"kind": "circulant", "n": 5, "conn": [1]}, "bijection": [0]}]}}',
                 "is not a JSON report: maximum recursion depth exceeded", id="nested-5000"),
    # the stored n of a composite must be the order of its factors
    pytest.param(_product_report("coprime", "n=5;R=1", "n=3;R=1", n=999),
                 "cartesian descriptor has n=999, but its factors have order 15",
                 id="coprime-n-999"),
    pytest.param(_product_report("prism", "n=5;R=1", n=7),
                 "prism descriptor has n=7, but its factors have order 10", id="prism-n-7"),
    pytest.param(json.dumps({"results": {"witnesses": [_witness(source={
        "kind": "cartesian", "n": 105,
        "factors": [{"kind": "cartesian", "n": 16,
                     "factors": [{"kind": "circulant", "n": 3, "conn": [1]},
                                 {"kind": "circulant", "n": 5, "conn": [1]}]},
                    {"kind": "circulant", "n": 7, "conn": [1]}]},
        target={"kind": "circulant", "n": 105, "conn": [1]}, bijection=list(range(105)))]}}),
        "cartesian factor has kind 'cartesian', not 'circulant'", id="inner-n-16"),
    *NON_CIRCULANT_PARTS,
    # the target must be a circulant, even under a bijection that is an
    # isomorphism
    pytest.param(json.dumps({"results": {"witnesses": [_onto_product("c4", "n=5;R=1,2")]}}),
                 "target has kind 'c4', not 'circulant'", id="c4-target"),
    # a permutation mod n that holds n in place of 0
    pytest.param(json.dumps({"results": {"witnesses": [_witness(bijection=[5, 2, 4, 1, 3])]}}),
                 "bijection is not a permutation of the vertex set", id="n-for-0"),
])
def test_verify_hostile_report_fails_cleanly(tmp_path, capsys, monkeypatch, content, message):
    f = tmp_path / "hostile.json"
    f.write_text(content)
    _forbid_calls(monkeypatch, realize, edge_set, steps, shifted)
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_verify_accepts_handwritten_witness(tmp_path, capsys):
    f = tmp_path / "adam.json"
    f.write_text(json.dumps({"results": {"witnesses": [_witness()]}}))
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0 and "[PASS] witness 0: circulant n=5 -> circulant n=5" in out


def test_verify_keeps_no_edge_set(tmp_path, capsys, monkeypatch):
    # verify walks each witness's steps from the endpoints' factors and
    # builds no edge set
    reports = []
    for i, argv in enumerate((("t1", A432), ("t2", A432, "--m", "3"),
                              ("product", "coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10"),
                              ("product", "c4", "n=9;R=1,2"))):
        reports.append(tmp_path / f"{i}.json")
        code, _, _ = run(capsys, *argv, "--out", str(reports[-1]))
        assert code == 0
    _forbid_calls(monkeypatch, realize, edge_set)
    for report in reports:
        witnesses = len(json.loads(report.read_text())["results"]["witnesses"])
        code, out, _ = run(capsys, "verify", str(report))
        assert code == 0 and witnesses and out.count("[PASS] witness") == witnesses


def test_verify_builds_each_factor_once(tmp_path, capsys, monkeypatch):
    # verify reads each stored descriptor in one pass, bounds and endpoint
    # together, so each factor of a coprime product's source, and its
    # circulant target, is built once
    report = tmp_path / "coprime.json"
    code, _, _ = run(capsys, "product", "coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10",
                     "--out", str(report))
    assert code == 0
    built, real = Counter(), Circulant.__new__

    def counting(cls, n, conn):
        built[n, tuple(conn)] += 1
        return real(cls, n, conn)

    monkeypatch.setattr(Circulant, "__new__", counting)
    code, out, _ = run(capsys, "verify", str(report))
    assert code == 0 and "[PASS] witness 0: cartesian n=432 -> circulant n=432" in out
    assert built[16, (1, 2, 7)] == built[27, (1, 3, 8, 10)] == 1
    assert len(built) == 3 and set(built.values()) == {1}


@pytest.fixture(scope="module")
def real_reports(tmp_path_factory):
    """Reports the commands write, each with at least one witness."""
    out = tmp_path_factory.mktemp("reports")
    docs = []
    for i, argv in enumerate((("t2", "n=16;R=1,2,7", "--m", "2"),
                              ("classify", A432, "--m", "2", "--t", "54"),
                              ("product", "coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10"),
                              ("product", "prism", "n=7;R=1,2"),
                              ("product", "c4", "n=9;R=1,2"))):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out / f"{i}.json")]) == 0
        docs.append(json.loads((out / f"{i}.json").read_text()))
    return out / "fuzzed.json", docs


_FOREIGN = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.floats(),
                     st.lists(st.integers(-2, 3), max_size=3),
                     st.dictionaries(st.text(), st.none()))


@st.composite
def _mutation(draw, docs):
    """A report the commands wrote, with one witness field mutated."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    w = doc["results"]["witnesses"][0]
    end = draw(st.sampled_from(["source", "target"]))
    desc = w[end]
    if "base" in desc and draw(st.booleans()):
        desc = desc["base"]
    elif "factors" in desc and draw(st.booleans()):
        desc = desc["factors"][draw(st.integers(0, 1))]
    how = draw(st.sampled_from(["truncate", "transpose", "foreign", "kind", "n", "conn",
                                "nest"]))
    if how == "truncate":
        w["bijection"] = w["bijection"][:draw(st.integers(0, len(w["bijection"])))]
    elif how == "transpose":
        f = w["bijection"]
        i, j = draw(st.integers(0, len(f) - 1)), draw(st.integers(0, len(f) - 1))
        f[i], f[j] = f[j], f[i]
    elif how == "foreign":
        field = draw(st.sampled_from(["bijection", "origin", *desc]))
        (w if field in ("bijection", "origin") else desc)[field] = draw(_FOREIGN)
    elif how == "kind":
        desc["kind"] = draw(st.sampled_from(["circulant", "cartesian", "prism", "c4", "torus"]))
    elif how == "n":
        desc["n"] = draw(st.integers(-3, 2 * len(w["bijection"])))
    elif how == "conn":
        desc["conn"] = draw(st.lists(st.integers(-3, 250), max_size=6))
    else:
        w[end] = {"kind": "cartesian", "n": draw(st.integers(0, 3 * len(w["bijection"]))),
                  "factors": [w[end], {"kind": "circulant", "n": 3, "conn": [1]}]}
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_survives_mutated_reports(real_reports, data):
    path, docs = real_reports
    path.write_text(json.dumps(data.draw(_mutation(docs))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert code in (0, 1, 2)
    event(f"exit {code}")
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and "witness 0" in out.getvalue()


def test_catalog_row_certified_under_optimize(tmp_path):
    # python -O strips assert statements; the Type-2 witness of a catalog
    # row (theta(432, 2, 54) carries A_1 onto D_1) and those of A_1's
    # Type-2 set w.r.t. m = 3 must still be checked
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def circiso_O(*argv):
        return subprocess.run([sys.executable, "-O", "-m", "circiso", *argv],
                              capture_output=True, text=True, env=env)

    report = tmp_path / "row.json"
    res = circiso_O("classify", A432, "--m", "2", "--t", "54", "--out", str(report))
    assert res.returncode == 0, res.stderr
    doc = json.loads(report.read_text())
    assert doc["results"]["kind"] == "type2"
    assert doc["results"]["image"]["conn"] == [16, 48, 54, 81, 128, 135, 160]
    assert all(a["passed"] for a in doc["assertions"])
    res = circiso_O("verify", str(report))
    assert res.returncode == 0 and "[PASS] witness 0" in res.stdout

    report = tmp_path / "t2.json"
    res = circiso_O("t2", A432, "--m", "3", "--out", str(report))
    assert res.returncode == 0, res.stderr
    doc = json.loads(report.read_text())
    assert doc["results"]["witnesses"] and all(a["passed"] for a in doc["assertions"])
    res = circiso_O("verify", str(report))
    assert res.returncode == 0 and "[FAIL]" not in res.stdout
    # vertices 0 and 1 of A_1 have different neighbourhoods, so swapping
    # their images cannot give an isomorphism
    bij = doc["results"]["witnesses"][-1]["bijection"]
    bij[0], bij[1] = bij[1], bij[0]
    report.write_text(json.dumps(doc))
    res = circiso_O("verify", str(report))
    assert res.returncode == 1 and res.stdout.count("[FAIL]") == 1


def test_no_bare_asserts_in_source():
    # python -O strips assert statements, so no certificate may rest on one
    paths = sorted((SRC / "circiso").glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_edge_graphs_built_only_by_the_builders():
    # EdgeGraph does not check its edges, so it may be constructed only in
    # the builders that emit (a, b) with 0 <= a < b < n by construction:
    # realize in the package, and the test oracles' tuple builders; a new
    # path from raw data must go through a boundary check on purpose
    builders = {path: {"realize"} for path in sorted((SRC / "circiso").glob("*.py"))}
    builders[pathlib.Path(__file__).with_name("oracles.py")] = {
        "permute_edges", "cartesian_edges", "ring_edges"}
    owners = set()

    def visit(node, owner, path):
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and "EdgeGraph" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None)):
            assert owner in builders[path], (
                f"{path.name}:{node.lineno} builds an EdgeGraph in {owner}")
            owners.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, path)

    for path in builders:
        visit(ast.parse(path.read_text(), filename=str(path)), None, path)
    assert owners == set().union(*builders.values())


def test_products_certified_under_optimize(tmp_path):
    # python -O strips assert statements; every product kind must still
    # write a checked witness, and verify must still reject a tampered one
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def circiso_O(*argv):
        return subprocess.run([sys.executable, "-O", "-m", "circiso", *argv],
                              capture_output=True, text=True, env=env)

    for argv in (("coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10"), ("prism", "n=7;R=1,2"),
                 ("c4", "n=9;R=1,2")):
        report = tmp_path / f"{argv[0]}.json"
        res = circiso_O("product", *argv, "--out", str(report))
        assert res.returncode == 0, res.stderr
        doc = json.loads(report.read_text())
        assert doc["results"]["witnesses"][0]["verified"]
        res = circiso_O("verify", str(report))
        assert res.returncode == 0 and "[PASS] witness 0" in res.stdout
        # vertices 0 and 1 have different neighbourhoods in each source graph,
        # so swapping their images cannot give an isomorphism
        bij = doc["results"]["witnesses"][0]["bijection"]
        bij[0], bij[1] = bij[1], bij[0]
        report.write_text(json.dumps(doc))
        res = circiso_O("verify", str(report))
        assert res.returncode == 1 and "[FAIL] witness 0" in res.stdout


def test_verify_reads_periods_under_optimize(tmp_path):
    # python -O strips assert statements; verify must still reject a coprime
    # product report with its last two images swapped, whose periodic
    # prefix holds up to that swap, and accept an automorphism of
    # K_{4,4} = C_8(1,3) that keeps f(x + 4) = f(x) + 2 on [0, 8) but does
    # not close round the cycle, and so is no PeriodicMap of period 4
    crt = json.loads(_product_report("coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10"))
    bij = crt["results"]["witnesses"][0]["bijection"]
    bij[-2], bij[-1] = bij[-1], bij[-2]
    c8 = {"kind": "circulant", "n": 8, "conn": [1, 3]}
    wrap = {"results": {"witnesses": [_witness(source=c8, target=c8,
                                               bijection=[0, 1, 4, 5, 2, 3, 6, 7])]}}
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for doc, code, verdict in ((crt, 1, "[FAIL] witness 0"), (wrap, 0, "[PASS] witness 0")):
        report.write_text(json.dumps(doc))
        res = subprocess.run([sys.executable, "-O", "-m", "circiso", "verify", str(report)],
                             capture_output=True, text=True, env=env)
        assert res.returncode == code and verdict in res.stdout, res.stderr


def _unprobed(images):
    """The indices of an image list that the period probes do not read,
    ascending."""
    f = _Reads(images)
    iso_oracle._periodic_form(f, len(f))
    probed = set(f.indexed)
    return [i for i in range(len(f)) if i not in probed]


_COPRIME = json.loads(_product_report("coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10"))
_HIDDEN = _unprobed(_COPRIME["results"]["witnesses"][0]["bijection"])
_HIDDEN = _HIDDEN[len(_HIDDEN) // 3], _HIDDEN[-1]
_C8 = {"kind": "circulant", "n": 8, "conn": [1, 3]}


def _coprime_with(i, value=None, swap=None, doc=_COPRIME):
    """A coprime product report, the 16 x 27 one by default, with image i
    set to value, or with images i and swap exchanged."""
    doc = copy.deepcopy(doc)
    f = doc["results"]["witnesses"][0]["bijection"]
    if swap is None:
        f[i] = value
    else:
        f[i], f[swap] = f[swap], f[i]
    return doc


@pytest.mark.parametrize("doc, code, verdict", [
    # json reads 1.0 and true, which equal 1 but are no ints
    pytest.param(_coprime_with(5, 1.0), 2, "bijection is not a list of integers",
                 id="float"),
    pytest.param(_coprime_with(5, True), 2, "bijection is not a list of integers",
                 id="true"),
    # an entry out of range where no probe reads: the candidate map is
    # compared with the whole list, and its entries lie in [0, n)
    pytest.param(_coprime_with(_HIDDEN[0], 432), 2,
                 "bijection is not a permutation of the vertex set", id="n-unprobed"),
    pytest.param(_coprime_with(_HIDDEN[0], -1), 2,
                 "bijection is not a permutation of the vertex set", id="minus-1-unprobed"),
    pytest.param(_coprime_with(432 - 27 + 3, swap=432 - 1), 1, "[FAIL] witness 0",
                 id="swap-in-last-period"),
    pytest.param(_coprime_with(_HIDDEN[0], swap=_HIDDEN[1]), 1, "[FAIL] witness 0",
                 id="swap-unprobed"),
    # f(x + 4) = f(x) + 2 throughout, but the recurrence does not close round
    # the cycle: an automorphism of K_{4,4} = C_8(1,3), read at p = 8
    pytest.param({"results": {"witnesses": [_witness(source=_C8, target=_C8,
                                                     bijection=[0, 1, 4, 5, 2, 3, 6, 7])]}},
                 0, "[PASS] witness 0", id="wrap-n-8"),
])
def test_verify_hostile_images_keep_their_verdicts(tmp_path, capsys, doc, code, verdict):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    got, out, err = run(capsys, "verify", str(report))
    assert got == code and verdict in (err if code == 2 else out)


def test_verify_refuses_a_transposed_product_under_optimize(tmp_path):
    # python -O strips assert statements; on the 81 x 121 product, two
    # images swapped where no probe reads pass the probes, so the candidate
    # map is built, compared with the list and refused, and the list is
    # walked at p = n
    doc = json.loads(_product_report("coprime", "n=81;R=1,5,13", "n=121;R=1,7,30"))
    hidden = _unprobed(doc["results"]["witnesses"][0]["bijection"])
    report = tmp_path / "report.json"
    report.write_text(json.dumps(_coprime_with(hidden[len(hidden) // 3], swap=hidden[-1],
                                               doc=doc)))
    res = subprocess.run([sys.executable, "-O", "-m", "circiso", "verify", str(report)],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert res.returncode == 1 and "[FAIL] witness 0" in res.stdout, res.stderr


def test_commands_build_no_report_text_unless_it_is_written(tmp_path, capsys, monkeypatch):
    # to_json runs only for --out or --json; a plain run prints assertions
    report = tmp_path / "product.json"
    code, _, _ = run(capsys, "product", "coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10",
                     "--out", str(report))
    assert code == 0
    _forbid_calls(monkeypatch, cli.to_json)
    code, out, _ = run(capsys, "verify", str(report))
    assert code == 0 and "[PASS] witness 0" in out


def test_verify_prism_target(tmp_path, capsys):
    # only a hand-written report gives verify a Product target, and verify
    # refuses it, in process and under -O, before it checks any bijection:
    # here the prism of C_7(1,2) onto itself through the identity, and the
    # product circulant onto the prism through the inverse CRT embedding,
    # both isomorphisms
    prism = {"kind": "prism", "n": 14, "base": {"kind": "circulant", "n": 7, "conn": [1, 2]}}
    report = tmp_path / "prism.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for w in (_witness(source=prism, target=prism, bijection=list(range(14)), origin="identity"),
              _onto_product("prism", "n=7;R=1,2")):
        report.write_text(json.dumps({"results": {"witnesses": [w]}}))
        res = subprocess.run([sys.executable, "-O", "-m", "circiso", "verify", str(report)],
                             capture_output=True, text=True, env=env)
        for code, out, err in (run(capsys, "verify", str(report)),
                               (res.returncode, res.stdout, res.stderr)):
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "target has kind 'prism', not 'circulant'" in err
    # a factor or base other than a circulant is refused under -O too
    for case in NON_CIRCULANT_PARTS:
        content, message = case.values
        report.write_text(content)
        res = subprocess.run([sys.executable, "-O", "-m", "circiso", "verify", str(report)],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 2 and res.stdout == "", case.id
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert message in res.stderr


def test_reports_are_byte_stable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "t1", "n=16;R=1,2,7", "--out", str(f1))
    run(capsys, "t1", "n=16;R=1,2,7", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


A6750 = "n=6750;R=135,243,250,750,1107,1593,2000,2457,2500,2943"
# sha256 of each command's --json report under SOURCE_DATE_EPOCH=0, as the
# writer and the classification stood before Type-2 orbits were kept in
# lattice form; a change to any report's bytes shows here
REPORT_DIGESTS = {
    ("t2", "n=16;R=1,2,7", "--m", "2"):
        "39f1dbb79a1621c25173a0fdf9d3d17de9b1c457c8edafe84e8a50a171c2f60c",
    ("t2", A432, "--m", "2"): "c0d44fb895c38b40bfd91c45da1da4d266af91192debb8a584bbe9d1526ca6b3",
    ("t2", A432, "--m", "3"): "4c3fffae4116ef3e2ac6319c20a5e2e38aa80851c968397ca64d4aaab021bd4a",
    ("t2", A6750, "--m", "3"): "52641e4eed11dcbaf154ec0a3fb13f438918cf49cba1d28a41ba8834ecd2ae00",
    ("t2", A6750, "--m", "5"): "64382f5e256a46d49201c3b5208b4ad9a47c45b10e76a80860bc8612f37c98f2",
    ("classify", "n=16;R=1,2,7", "--m", "2", "--t", "2"):
        "d7ab038c8b281dfb7e42efdff94414cdd63d0018d4dead4fe862bd327da67dce",
    ("t1", A432): "4d76fd36f213c96e19e85c6d3ec0ebb1cf154e3ed30741dad759df42ffdc5131",
    ("product", "coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10"):
        "bc7afe6d996c7ec4606664b776f8e8c79fc49e9f85da1db9ef58901a50c40376",
    ("scan-conjecture", "--n1", "16", "--n2", "27", "--budget", "20"):
        "94c1bb0479185a37f3575a37748dd57d71c6e913c85f1461956111c44af2286c",
    ("reproduce", "--section", "3"):
        "d12f0534be2bf0192fe7b1c9ddfbe89c141a8f3c40519f5f14b98ff1905b0011",
    ("reproduce", "--section", "4"):
        "0b6015bdb63ebc2f07e65863ae7bb2d07ee197190557b3096524cf6ab10dce9f",
    ("product", "prism", "n=7;R=1,2"):
        "eeda651b3c81054704f0d5f5dc18244f4dcd6e012ca807ac44fcb494f3fd0f11",
    ("product", "c4", "n=9;R=1,2,4"):
        "045595a9e59461d147ed22f1d48c55e2ed71d91e50a236712cbf126a22a273f6",
    # above WITNESS_EDGE_CAP: the product by formula only
    ("product", "coprime", "n=1001;R=1,2,4", "n=1024;R=1,3,5"):
        "93e18a311280c6d061059323e9be35cf3f12d6669dd85afd97f31241c0532b03",
    # the prism report above, stored under this name in the working directory
    ("verify", "prism.json"): "48d9fe5274acd128889ee0a93dfcdb104587f2a3e9e6cde61660db5bb1601ee3",
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
def test_report_bytes_are_pinned(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    # verify names its report path in its own report, so the path is fixed
    monkeypatch.chdir(tmp_path)
    if argv[0] == "verify":
        assert run(capsys, "product", "prism", "n=7;R=1,2", "--out", argv[1])[0] == 0
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[argv]


def test_scan_conjecture_cli(capsys):
    code, out, _ = run(capsys, "scan-conjecture", "--n1", "3", "--n2", "4",
                       "--budget", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "experimental" in doc["results"]["header"]
    assert doc["results"]["cases"] == 2


@pytest.mark.parametrize("n1, n2, message", [
    (2, 3, "modulus must be >= 3, got 2"),
    (-7, 3, "modulus must be >= 3, got -7"),
    (MAX_MODULUS + 1, 3, f"modulus {MAX_MODULUS + 1} exceeds supported bound"),
    # each factor is in range, their product is not
    (65_537, 32_768, f"modulus {65_537 * 32_768} exceeds supported bound"),
])
def test_scan_conjecture_rejects_bad_orders(capsys, n1, n2, message):
    code, out, err = run(capsys, "scan-conjecture", "--n1", str(n1), "--n2", str(n2))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_scan_conjecture_rejects_budget_below_one(capsys, budget):
    # a scan of no cases would report a completed enumeration, or a pass
    code, out, err = run(capsys, "scan-conjecture", "--n1", "3", "--n2", "4", "--budget", budget)
    assert code == 2 and out == ""
    assert err == f"error: budget must be at least 1, got {budget}\n"


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    # an order below MAX_ORDER can still exhaust memory, as t1 at order 8191
    # does under a 1 GiB address-space limit
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli, "type1_set", exhausted)
    code, out, err = run(capsys, "t1", "n=16;R=1,2,7")
    assert code == 2 and out == ""
    assert err == "error: out of memory\n" and "Traceback" not in err


def test_scan_conjecture_enumerates_lazily():
    # offset sets are drawn one at a time, so a large order costs no memory
    # in proportion to it: at order 715,827,881 a copied range of its
    # offsets alone would take gigabytes
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from circiso.cli import main\n"
            "sys.exit(main(['scan-conjecture', '--n1', '715827881', '--n2', '3', "
            "'--budget', '1']))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    assert "1 cases scanned" in res.stdout


@pytest.mark.parametrize("argv", [
    ("classify", "n=2147483648;R=1,2,3", "--m", "2", "--t", "0"),
    ("t1", "n=2147483647;R=1"),
    ("t2", "n=2147483648;R=1,2,3", "--m", "2"),
])
def test_huge_orders_exit_2_under_a_memory_limit(argv):
    # each command checks the order before it builds a list of n entries:
    # without the check, each of these raises MemoryError under the limit
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from circiso.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert f"exceeds the limit of {cli.MAX_ORDER}" in res.stderr


def test_order_limit_is_inclusive(capsys):
    code, _, err = run(capsys, "t1", "--n", str(cli.MAX_ORDER + 1), "--set", "1")
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "classify", f"n={cli.MAX_ORDER};R=1,2,3", "--m", "2", "--t", "0")
    assert code == 0 and "identity" in out


def test_classify_bad_params_exit_code(capsys):
    code, _, err = run(capsys, "classify", "n=432;R=16,27,48", "--m", "3", "--t", "999")
    assert code == 2
    assert "t must lie" in err


def test_module_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-m", "circiso", "classify", "n=16;R=1,2,7",
         "--m", "2", "--t", "2", "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["results"]["kind"] == "type2"
    assert doc["results"]["image"]["conn"] == [2, 3, 5]


def test_reproduce_section3(capsys):
    code, out, _ = run(capsys, "reproduce", "--section", "3")
    assert code == 0
    assert "assertions passed" in out
    assert "[FAIL]" not in out


def test_reproduce_detects_corruption(capsys, monkeypatch):
    import circiso.reproduce as rep
    from circiso.catalog import Catalog, _read_raw

    raw = json.loads(_read_raw())
    raw["s3"]["families"]["A"][2] = [27, 32, 54, 96, 112, 176, 190]

    monkeypatch.setattr(rep, "load", lambda: Catalog(raw))
    code, out, _ = run(capsys, "reproduce", "--section", "3")
    assert code == 1
    assert "[FAIL]" in out
