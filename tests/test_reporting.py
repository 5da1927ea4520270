"""The report writer: to_json writes what json.dumps(indent=2) writes, byte
for byte, on any JSON document and on the reports every command writes;
and a witness written to a report reads back as the map it was issued."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from datetime import datetime, timezone
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circiso import cli, products
from circiso.circulant import parse_graph
from circiso.reporting import _timestamp, to_json, witness_from_json, witness_json
from circiso.type1 import type1_set
from circiso.type2 import ThetaMap, classify_theta, theta_periodic


class _Level(IntEnum):
    LOW = 1
    HIGH = 10**20


class _Name(str):
    pass


def oracle(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


_INTS = st.integers() | st.integers(-(2**200), 2**200)
# any code point, lone surrogates too: json.dumps escapes each of them
_CHARS = st.characters(exclude_categories=())
_LEAVES = (st.none() | st.booleans() | _INTS | st.floats() | st.text(_CHARS, max_size=8))
# int lists are written by a join of their own, so they come in whole, with a
# bool among them now and then (json prints it as true/false, not 1/0)
_INT_LISTS = st.lists(_INTS, max_size=6) | st.lists(_INTS | st.booleans(), min_size=1, max_size=6)
_KEYS = st.text(_CHARS, max_size=6) | _INTS | st.booleans() | st.none() | st.floats()


# a named function, not a lambda: Hypothesis reads the source of extend to
# see whether it uses its argument, and a lambda spread over the lines of a
# call gives it text that need not parse on its own
def _extend(inner):
    return (st.lists(inner, max_size=4) | st.tuples(inner, inner)
            | st.dictionaries(_KEYS, inner, max_size=4))


_DOCS = st.recursive(_LEAVES | _INT_LISTS, _extend, max_leaves=30)


@settings(max_examples=500, deadline=None)
@given(_DOCS)
def test_writer_matches_json_dumps(doc):
    assert to_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], {"a": {}}, [1, True, 2], [False], [-1, 0, 10**40],
    {"s": "é\x00\x1f\"\\ ", "f": [1.5, float("inf"), float("nan")], "none": None},
    {1: [1, 2], None: [], True: {"x": (3, 4)}, 2.5: [[1], [True]]},
    # lists the int path must leave to the element-wise writer: a str
    # holding the separator, a str among ints, a bool, nested lists and an
    # int subclass, alone and in a list
    ["a, b", 1], [1, "2"], [True, 1], [[1, 2], [3]], _Level.HIGH, [_Level.HIGH, 1],
    {"level": _Level.LOW},
    # and lists it writes: a tuple, big and negative ints, and a bijection
    # as the commands store it
    (1, 2), [10**40, -3], {"bijection": theta_periodic(432, 2, 54).expand()},
    # a lone surrogate, value and key; non-ASCII and control-character
    # keys; a str subclass, value and key, which takes json.dumps's path
    ["\ud800", "a\udcff"], {"\ud800": 1}, {"é": 1, "\u3000": [2], "\x00\n\x7f": "x"},
    _Name("name"), [_Name("é")], {_Name("key"): _Name("\x01")},
])
def test_writer_matches_json_dumps_examples(doc):
    assert to_json(doc) == oracle(doc)


def test_writer_raises_where_json_dumps_raises():
    for doc in ({(1, 2): 0}, [object()], {"a": [1, {2}]}):
        with pytest.raises(TypeError):
            oracle(doc)
        with pytest.raises(TypeError):
            to_json(doc)


def test_command_reports_match_json_dumps(tmp_path, monkeypatch):
    written = []

    def spy(report):
        text = to_json(report)
        written.append((report, text))
        return text

    monkeypatch.setattr(cli, "to_json", spy)
    product = tmp_path / "product.json"
    for argv in (("t1", "n=432;R=16,27,48,54,128,160,189"),
                 ("t2", "n=432;R=16,27,48,54,128,160,189", "--m", "2"),
                 ("classify", "n=432;R=16,27,48,54,128,160,189", "--m", "2", "--t", "54"),
                 ("classify", "n=16;R=1,2,7", "--m", "2", "--t", "1"),
                 ("product", "coprime", "n=16;R=1,2,7", "n=27;R=1,3,8,10", "--out", str(product)),
                 ("product", "prism", "n=7;R=1,2"),
                 ("product", "c4", "n=9;R=1,2"),
                 ("verify", str(product)),
                 ("reproduce", "--section", "3"),
                 ("scan-conjecture", "--n1", "3", "--n2", "4", "--budget", "2")):
        # the report text is built only when --out or --json writes it
        if "--out" not in argv:
            argv += ("--json",)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
    assert [r["meta"]["command"][0] for r, _ in written] == [
        "t1", "t2", "classify", "classify", "product", "product", "product", "verify",
        "reproduce", "scan-conjecture"]
    for report, text in written:
        assert text == oracle(report), report["meta"]["command"]


def test_witnesses_round_trip_through_the_report_format():
    # a witness written as a report stores it, and read back, holds the
    # map its producer issued, found again from the stored image list alone,
    # and is unverified: a theta map of period m, one of period 1 (m²t ≡ 0, so
    # theta(m=2,t=108) on A_1 is the unit map 217), an Adam map, and the CRT
    # embeddings of a coprime, a prism and a c4 product
    a1 = parse_graph("n=432;R=16,27,48,54,128,160,189")
    witnesses = [classify_theta(ThetaMap(432, 2, t), a1).witness for t in (54, 108)]
    witnesses.append(type1_set(a1).witnesses[1])
    for kind, graphs in (("coprime", ("n=16;R=1,2,7", "n=27;R=1,3,8,10")),
                         ("prism", ("n=7;R=1,2",)), ("c4", ("n=45;R=1,7",))):
        witnesses.append(products.product_witness(kind, *map(parse_graph, graphs))[1])
    assert [(w.origin, w.bijection.p) for w in witnesses] == [
        ("theta(m=2,t=54)", 2), ("theta(m=2,t=108)", 1), ("adam(x=19)", 1),
        ("crt-embedding(16x27)", 27), ("crt-embedding(2x7)", 7), ("crt-embedding(4x45)", 45)]
    for w in witnesses:
        _, read = witness_from_json(json.loads(to_json(witness_json(w))))
        assert read.bijection == w.bijection and read.verified is False
        assert (read.source, read.target, read.origin) == (w.source, w.target, w.origin)


# the epoch, a leap day, a recent date, the last 32-bit second, the last
# second of year 9999, and two years below 1000, which isoformat pads to
# four digits
@pytest.mark.parametrize("ts", [0, 951782400, 1700000000, 2**31 - 1, 253402300799,
                                -40000000000, -62135596800])
def test_timestamp_matches_datetime_isoformat(ts, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(ts))
    assert _timestamp() == datetime.fromtimestamp(ts, timezone.utc).isoformat()


# a word, an int too large for time.gmtime, and the seconds just past either
# end of the years 1 to 9999, which isoformat cannot write
@pytest.mark.parametrize("epoch", ["abc", "99999999999999999999", "253402300800",
                                   "-62135596801"])
def test_hostile_source_date_epoch_exits_2_with_one_line(epoch):
    env = dict(os.environ, SOURCE_DATE_EPOCH=epoch,
               PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
    for flags in ((), ("-O",)):
        res = subprocess.run([sys.executable, *flags, "-m", "circiso", "product", "prism",
                              "n=21;R=1,2", "--json"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (res.returncode, res.stdout) == (2, ""), (flags, res.stderr)
        assert res.stderr.startswith("error: SOURCE_DATE_EPOCH=") and res.stderr.count("\n") == 1
