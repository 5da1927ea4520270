"""JSON report assembly. Reports are single documents with fixed key order
(meta, input, results, assertions) so identical inputs produce identical
bytes; set SOURCE_DATE_EPOCH to pin the timestamp."""

import json
import os
import time
from datetime import datetime, timezone
from typing import Union

from . import __version__
from .circulant import Circulant
from .iso_oracle import IsoWitness
from .products import LAYERS, Product

SCHEMA = 1


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    ts = int(epoch) if epoch else int(time.time())
    return datetime.fromtimestamp(ts, timezone.utc).isoformat()


def make_meta(command: list) -> dict:
    return {
        "schema": SCHEMA,
        "tool": "circiso",
        "version": __version__,
        "timestamp": _timestamp(),
        "command": list(command),
    }


def circulant_json(g: Circulant) -> dict:
    return {"n": g.n, "conn": list(g.conn)}


def graph_desc(g: Union[Circulant, Product]) -> dict:
    """Descriptor of a witness endpoint: a Circulant, the Product of two
    circulants (cartesian), or the Product (k, base) of a ring and a
    circulant (prism for k = 2, c4 for k = 4)."""
    if isinstance(g, Circulant):
        return {"kind": "circulant", **circulant_json(g)}
    a, b = g.factors
    if isinstance(a, int):
        kind = next(kind for kind, k in LAYERS.items() if k == a)
        return {"kind": kind, "n": g.n, "base": graph_desc(b)}
    return {"kind": "cartesian", "n": g.n, "factors": [graph_desc(a), graph_desc(b)]}


def _desc_factors(desc: dict):
    """The factors of the graph a witness endpoint descriptor names, in
    encoding order: a Circulant, or the ring length of a layered product.
    The graph is their Cartesian product. Each factor is validated through
    Circulant as it is reached. The n stored on a cartesian, prism or c4
    node is checked once every factor under it is out: it must be the int
    their orders multiply to. No edge set is built."""
    order = 1  # of the factors yielded so far
    stack = [desc]
    while stack:
        d = stack.pop()
        if isinstance(d, tuple):  # (composite node, order before its factors)
            node, before = d
            n, below = node["n"], order // before
            if isinstance(n, bool) or not isinstance(n, int) or n != below:
                raise ValueError(f"{node['kind']} descriptor has n={n!r}, but its factors "
                                 f"have order {below}")
            continue
        kind = d["kind"]
        if kind == "cartesian":
            a, b = d["factors"]
            stack += ((d, order), b, a)
            continue
        if kind == "circulant":
            factors = (Circulant(d["n"], tuple(d["conn"])),)
        elif kind in LAYERS:
            stack.append((d, order))
            factors = (LAYERS[kind], Circulant(d["base"]["n"], tuple(d["base"]["conn"])))
        else:
            raise ValueError(f"unknown graph descriptor kind {kind!r}")
        for f in factors:
            order *= f if isinstance(f, int) else f.n
            yield f


def desc_size(desc: dict, max_order: int, max_edges: int) -> tuple[int, int]:
    """(order, edge count) of the graph a descriptor names, from its factors
    alone: a product G x F has |G|·|F| vertices and E(G)·|F| + E(F)·|G|
    edges. The 2-cycle ring is a single edge. Both counts grow with every
    factor, so a ValueError stops the count at the first partial product
    past max_order vertices or max_edges edges, after a few factors
    whatever the descriptor's size."""
    kind = desc["kind"]
    order, edges = 1, 0
    for f in _desc_factors(desc):
        n, e = (f, 1 if f == 2 else f) if isinstance(f, int) else (f.n, f.edge_count)
        order, edges = order * n, edges * n + e * order
        if order > max_order:
            raise ValueError(f"{kind} descriptor names at least {order} vertices, "
                             f"more than {max_order}")
        if edges > max_edges:
            raise ValueError(f"{kind} descriptor names at least {edges} edges, "
                             f"more than the limit of {max_edges}")
    return order, edges


def graph_from_desc(desc: dict) -> Union[Circulant, Product]:
    """The endpoint a descriptor names, a Circulant or a flat Product; the
    factors are validated as in desc_size, and no edge set is built."""
    factors = tuple(_desc_factors(desc))
    return factors[0] if desc["kind"] == "circulant" else Product(factors)


def witness_json(w: IsoWitness) -> dict:
    """Witnesses are stored with endpoint descriptors, so `verify` can
    rebuild both endpoints and re-check the bijection from the file alone."""
    return {
        "source": graph_desc(w.source),
        "target": graph_desc(w.target),
        "bijection": list(w.bijection),
        "origin": w.origin,
        "verified": w.verified,
    }


def assertion(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def make_report(command: list, input_obj, results, assertions) -> dict:
    return {
        "meta": make_meta(command),
        "input": input_obj,
        "results": results,
        "assertions": assertions,
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def all_passed(report: dict) -> bool:
    return all(a["passed"] for a in report["assertions"])
