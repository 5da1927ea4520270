"""JSON report assembly. Reports are single documents with fixed key order
(meta, input, results, assertions) so identical inputs produce identical
bytes; set SOURCE_DATE_EPOCH to pin the timestamp."""

import json
import os
import time
from datetime import datetime, timezone

from . import __version__
from .circulant import Circulant, realize
from .iso_oracle import IsoWitness
from .products import LAYERS, cartesian_edges, ring_edges

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


def circulant_desc(g: Circulant) -> dict:
    return {"kind": "circulant", "n": g.n, "conn": list(g.conn)}


def cartesian_desc(g: Circulant, h: Circulant) -> dict:
    """Product graph on pairs (x, y) encoded as x*h.n + y."""
    return {
        "kind": "cartesian",
        "n": g.n * h.n,
        "factors": [circulant_desc(g), circulant_desc(h)],
    }


def layered_desc(kind: str, base: Circulant) -> dict:
    """Two- or four-layer product of a circulant; kind is 'prism' or 'c4'.
    Vertex (layer, v) is encoded layer*base.n + v."""
    return {"kind": kind, "n": LAYERS[kind] * base.n, "base": circulant_desc(base)}


def graph_from_desc(desc: dict):
    """Rebuild the edge graph named by a witness endpoint descriptor."""
    kind = desc["kind"]
    if kind == "circulant":
        return realize(Circulant(desc["n"], tuple(desc["conn"])))
    if kind == "cartesian":
        a, b = (graph_from_desc(f) for f in desc["factors"])
        return cartesian_edges(a, b)
    if kind not in LAYERS:
        raise ValueError(f"unknown graph descriptor kind {kind!r}")
    base = Circulant(desc["base"]["n"], tuple(desc["base"]["conn"]))
    return cartesian_edges(ring_edges(LAYERS[kind]), realize(base))


def witness_json(w: IsoWitness, source_desc: dict, target_desc: dict) -> dict:
    """Witnesses are stored with rebuildable endpoint descriptors so `verify`
    can reconstruct both edge sets and re-check the bijection from the file
    alone."""
    return {
        "source": source_desc,
        "target": target_desc,
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
