"""JSON report assembly. Reports are single documents with fixed key order
(meta, input, results, assertions) so identical inputs produce identical
bytes; set SOURCE_DATE_EPOCH to pin the timestamp."""

import json
import os
import time
from typing import Union

from . import __version__
from .circulant import LAYERS, WITNESS_EDGE_CAP, Circulant, Product, sizes
from .errors import CircisoError
from .iso_oracle import IsoWitness, periodic_form

SCHEMA = 1


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:  # an int epoch in the years 1 to 9999, the ones isoformat writes
        ts = int(epoch) if epoch else int(time.time())
        if not -62135596800 <= ts <= 253402300799:
            raise ValueError
    except ValueError:
        raise CircisoError(f"SOURCE_DATE_EPOCH={epoch!r} is no int epoch in years 1-9999") from None
    # datetime's isoformat in UTC; %04d pads a year below 1000, as %Y does not
    return "%04d-%02d-%02dT%02d:%02d:%02d+00:00" % time.gmtime(ts)[:6]


def circulant_json(g: Circulant) -> dict:
    return {"n": g.n, "conn": list(g.conn)}


def graph_desc(g: Union[Circulant, Product]) -> dict:
    """Descriptor of a witness endpoint, in one of four shapes: a circulant,
    the cartesian product of two circulants, or the prism (k = 2) or c4
    (k = 4) product (k, base) of a ring and a circulant. graph_from_desc
    reads these four and no other."""
    if isinstance(g, Circulant):
        return {"kind": "circulant", **circulant_json(g)}
    a, b = g.factors
    if isinstance(a, int):
        kind = next(kind for kind, k in LAYERS.items() if k == a)
        return {"kind": kind, "n": g.n, "base": graph_desc(b)}
    return {"kind": "cartesian", "n": g.n, "factors": [graph_desc(a), graph_desc(b)]}


def _circulant_from(d: dict, kind: str) -> Circulant:
    """The Circulant a circulant descriptor names, d being the whole of a
    kind descriptor or one of its factors or its base."""
    if d["kind"] != "circulant":
        role = "base" if kind in LAYERS else "factor"
        raise ValueError(f"{kind} {role} has kind {d['kind']!r}, not 'circulant'")
    return Circulant(d["n"], tuple(d["conn"]))


def graph_from_desc(desc: dict, max_order: int) -> Union[Circulant, Product]:
    """The endpoint a descriptor of one of graph_desc's four shapes names: a
    Circulant, or the Product of a cartesian, prism or c4 descriptor, whose
    factors or base must be circulant descriptors. Order and edge count are
    folded from the factors (circulant.sizes), and a ValueError stops the
    read at the first partial product past max_order vertices or
    WITNESS_EDGE_CAP edges, the cap under which commands store witnesses.
    The n stored on a composite must be the int its factors' orders
    multiply to. No edge set is built."""
    kind = desc["kind"]
    if kind == "circulant":
        factors = (_circulant_from(desc, kind),)
    elif kind == "cartesian":
        a, b = desc["factors"]
        factors = (_circulant_from(a, kind), _circulant_from(b, kind))
    elif kind in LAYERS:
        factors = (LAYERS[kind], _circulant_from(desc["base"], kind))
    else:
        raise ValueError(f"unknown graph descriptor kind {kind!r}")
    for order, edges in sizes(factors):
        if order > max_order:
            raise ValueError(f"{kind} descriptor names at least {order} vertices, "
                             f"more than {max_order}")
        if edges > WITNESS_EDGE_CAP:
            raise ValueError(f"{kind} descriptor names at least {edges} edges, "
                             f"more than the limit of {WITNESS_EDGE_CAP}")
    if len(factors) == 1:
        return factors[0]
    n = desc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n != order:
        raise ValueError(f"{kind} descriptor has n={n!r}, but its factors have order {order}")
    return Product(factors)


def witness_json(w: IsoWitness) -> dict:
    """A witness as a report stores it, endpoints as graph_desc descriptors
    and the bijection as its expanded image list, so `verify` can rebuild
    both and re-check the bijection from the file alone; witness_from_json
    reads it back."""
    return {
        "source": graph_desc(w.source),
        "target": graph_desc(w.target),
        "bijection": w.bijection.expand(),
        "origin": w.origin,
        "verified": w.verified,
    }


def witness_from_json(w: dict) -> tuple[str, IsoWitness]:
    """The inverse of witness_json: a label naming both endpoints, and the
    stored witness, unverified. The bijection must be a list of ints, the
    target a circulant descriptor, and each endpoint a graph of order
    n = len(bijection) with at most WITNESS_EDGE_CAP edges, read by
    graph_from_desc under those bounds. The list is then read once, into
    the PeriodicMap it equals (iso_oracle.periodic_form), which the witness
    holds and verify_witness walks. A malformed witness raises KeyError,
    TypeError or ValueError; a list that is no permutation raises
    NotAPermutation, a ValueError."""
    bijection = w["bijection"]
    if not isinstance(bijection, list) or not {*map(type, bijection)} <= {int}:
        raise ValueError("bijection is not a list of integers")
    descs = w["source"], w["target"]
    if descs[1]["kind"] != "circulant":
        raise ValueError(f"target has kind {descs[1]['kind']!r}, not 'circulant'")
    n = len(bijection)
    ends = []
    for d in descs:
        ends.append(graph_from_desc(d, n))
        if ends[-1].n != n:
            raise ValueError(f"{d['kind']} descriptor has order {ends[-1].n}, but the "
                             f"bijection has {n} entries")
    label = f"{descs[0]['kind']} n={n} -> {descs[1]['kind']} n={n}"
    f = periodic_form(tuple(bijection))
    return label, IsoWitness(*ends, f, False, str(w.get("origin", "file")))


def assertion(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def make_report(command: list, input_obj, results, assertions) -> dict:
    return {
        "meta": {"schema": SCHEMA, "tool": "circiso", "version": __version__,
                 "timestamp": _timestamp(), "command": list(command)},
        "input": input_obj,
        "results": results,
        "assertions": assertions,
    }


def to_json(report: dict) -> str:
    """The report as `json.dumps(report, indent=2) + "\\n"` writes it, byte
    for byte: reports are compared with cmp, so the layout is a contract.

    With an indent, json.dumps takes its pure-Python encoder, which spends
    most of a report's time on the long int lists (bijections, member
    sets) and on the many small dicts of a classification list. Here a
    plain int (type int, so a bool still prints as true/false) is written
    with str, and a list of them by one call of the C encoder, which
    json.dumps takes without an indent: its item separator is the comma,
    newline and indentation of the indented layout, so it writes the same
    bytes. None, True and False are written as their literals, and a str,
    key or leaf, by json.encoder.encode_basestring_ascii, the function
    json.dumps calls for one; the containers are laid out as json lays
    them out, and any other value is written by json.dumps."""
    out = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(v, nl: str, out: list) -> None:
    """Append the JSON text of v to out; nl is a newline plus the
    indentation of the line v starts on."""
    t = type(v)
    if t is int:
        out.append(str(v))
    elif t is str:
        out.append(json.encoder.encode_basestring_ascii(v))
    elif v is None or t is bool:
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, dict) and v:
        inner = nl + "  "
        sep = "{" + inner
        for k, x in v.items():
            if type(k) is str:
                key = json.encoder.encode_basestring_ascii(k)
            else:  # json.dumps turns a non-str key into the string it prints
                key = json.dumps({k: 0})[1:-4]
            out.append(sep + key + ": ")
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(v, (list, tuple)) and v:
        inner = nl + "  "
        if {*map(type, v)} == {int}:
            text = json.dumps(v, separators=("," + inner, ": "))
            out += "[" + inner, text[1:-1], nl + "]"
            return
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(v))
