"""Command-line surface: orbit and classification reports, product
constructors, witness re-verification, and the embedded-catalog
reproduction harness."""

import argparse
import functools
import json
import sys

from .circulant import WITNESS_EDGE_CAP, Circulant, parse_graph
from .errors import CircisoError, ParseError, ReportError
from .iso_oracle import verify_witness
from .products import SCAN_HEADER, product_witness, scan_conjecture
from .reporting import (
    all_passed,
    assertion,
    circulant_json,
    make_report,
    to_json,
    witness_from_json,
    witness_json,
)
from .reproduce import SECTIONS
from .type1 import type1_group_table, type1_set
from .type2 import ThetaMap, classify_theta, type2_group_check, type2_set, valid_type2_ms

# largest order t1, t2 and classify accept. t1 lists the units of Z_n, and
# t2's report one classification per t in [0, n/m), though its orbit keeps
# the lattice t only; witnesses stay in periodic form, and an n-entry image
# list is built only to store a witness of at most WITNESS_EDGE_CAP edges
MAX_ORDER = 2**17


def _graph_from_args(args) -> Circulant:
    """The graph of a t1, t2 or classify command, checked against MAX_ORDER
    before anything of its order is built."""
    if args.graph is not None:
        g = parse_graph(args.graph)
    elif args.n is not None and args.set is not None:
        g = parse_graph(f"n={args.n};R={args.set}")
    else:
        raise ParseError("no graph given: pass `n=<int>;R=...` or --n with --set")
    if g.n > MAX_ORDER:
        raise CircisoError(f"order {g.n} exceeds the limit of {MAX_ORDER} for this command")
    return g


def _emit(report: dict, args) -> int:
    """Write the report where args ask for it, to --out and to stdout with
    --json, else print its assertions and summary; the JSON text is built
    only when it is written. The exit code is 0 iff every assertion passed."""
    if args.out or args.json:
        text = to_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        for a in report["assertions"]:
            print(f"[{'PASS' if a['passed'] else 'FAIL'}] {a['name']}"
                  + (f" -- {a['detail']}" if a["detail"] and not a["passed"] else ""))
        print(report["results"]["summary"])
        if args.out:
            print(f"report written to {args.out}")
    return 0 if all_passed(report) else 1


def _member_summary(members) -> str:
    shown = " | ".join(",".join(map(str, m.conn)) for m in members[:8])
    extra = f" ... ({len(members) - 8} more)" if len(members) > 8 else ""
    return f"{len(members)} members: {shown}{extra}"


def _stored(witnesses: list, graphs, checks: list) -> list:
    """The witnesses a report stores, as JSON: `verify` rebuilds both
    endpoints of each, so none is stored when a graph has more than
    WITNESS_EDGE_CAP edges, and one passing assertion says so."""
    edges = max(g.edge_count for g in graphs)
    if not witnesses or edges <= WITNESS_EDGE_CAP:
        return [witness_json(w) for w in witnesses]
    checks.append(assertion(f"witnesses not stored: {edges} edges, above the limit of "
                            f"{WITNESS_EDGE_CAP}", True))
    return []


def cmd_t1(args) -> int:
    g = _graph_from_args(args)
    orbit = type1_set(g)
    table = type1_group_table(orbit)
    checks = [
        assertion("orbit-stabilizer product equals unit count",
                  len(orbit.members) * len(orbit.stabilizer) == orbit.unit_count,
                  f"{len(orbit.members)} members x {len(orbit.stabilizer)} stabilizer"),
        assertion("group table closed", table.closed),
        assertion("group table commutative", table.commutative),
        assertion("group table identity", table.identity_ok),
        assertion(f"group table associativity ({table.associativity})",
                  table.associativity in ("exhaustive", "structural")),
        *[assertion(f"witness for member {i}", w.verified) for i, w in enumerate(orbit.witnesses)],
    ]
    witnesses = _stored(orbit.witnesses, orbit.members, checks)
    results = {
        "base": circulant_json(g),
        "members": [circulant_json(m) for m in orbit.members],
        "representatives": list(orbit.reps),
        "stabilizer": list(orbit.stabilizer),
        "witnesses": witnesses,
        "summary": _member_summary(orbit.members),
    }
    return _emit(make_report(["t1", g.text()], {"graph": g.text()}, results, checks), args)


def cmd_t2(args) -> int:
    g = _graph_from_args(args)
    m = args.m
    try:
        orbit = type2_set(g, m)
    except CircisoError as e:
        ok = valid_type2_ms(g)
        if m in ok:  # m is admitted, so the error is no refusal of m
            raise
        hint = (f"valid m for {g.label()}: {', '.join(map(str, ok))}"
                if ok else f"no valid m exists for {g.label()}")
        print(f"error: {e}\nhint: {hint}", file=sys.stderr)
        return 2
    group = type2_group_check(orbit)
    checks = [
        assertion("t-stabilizer contains 0", group.contains_zero),
        assertion("t-stabilizer closed under addition", group.closed),
        assertion("t-stabilizer closed under negation", group.has_inverses),
        assertion("induced composition closed", group.composition_closed),
        assertion("induced composition abelian", group.abelian),
        assertion("base acts as identity", group.identity_ok),
        *[assertion(f"witness for member {i}", w.verified) for i, w in enumerate(orbit.witnesses)],
    ]
    witnesses = _stored(orbit.witnesses, orbit.members, checks)
    results = {
        "base": circulant_json(g),
        "m": m,
        "members": [circulant_json(x) for x in orbit.members],
        "t_stabilizer": list(orbit.t_stabilizer),
        "classifications": [
            {"t": t, "kind": kind, "image": circulant_json(img) if img else None}
            for t, kind, img in map(orbit.outcome, range(g.n // m))
        ],
        "witnesses": witnesses,
        "summary": f"T2 set (m={m}): " + _member_summary(orbit.members),
    }
    return _emit(
        make_report(["t2", g.text(), f"m={m}"], {"graph": g.text(), "m": m}, results, checks),
        args,
    )


def _classification_consistent(cls, m: int) -> bool:
    """A circulant kind carries an image and a witness, which classify_theta
    walked before returning it; a non-circulant one names a failing vertex
    in [1, m), for the m of the transform."""
    if cls.kind == "not_circulant":
        return cls.failing_vertex is not None and 1 <= cls.failing_vertex < m
    return (cls.kind in ("identity", "type1", "type2") and cls.image is not None
            and cls.witness is not None)


def cmd_classify(args) -> int:
    g = _graph_from_args(args)
    cls = classify_theta(ThetaMap(g.n, args.m, args.t), g)
    witnesses = [] if cls.witness is None else [cls.witness]
    checks = [assertion("classification computed", _classification_consistent(cls, args.m),
                        cls.kind)]
    if witnesses:
        checks.append(assertion("witness verified", cls.witness.verified))
        witnesses = _stored(witnesses, (g, cls.image), checks)
    results = {
        "graph": circulant_json(g),
        "m": args.m,
        "t": args.t,
        "kind": cls.kind,
        "image": circulant_json(cls.image) if cls.image else None,
        "unit": cls.unit,
        "failing_vertex": cls.failing_vertex,
        "witnesses": witnesses,
        "summary": f"{g.label()} under theta(m={args.m},t={args.t}): {cls.kind}"
                   + (f" -> {cls.image.label()}" if cls.image else ""),
    }
    return _emit(
        make_report(["classify", g.text(), f"m={args.m}", f"t={args.t}"],
                    {"graph": g.text(), "m": args.m, "t": args.t}, results, checks),
        args,
    )


def cmd_product(args) -> int:
    g = parse_graph(args.left)
    if args.kind == "coprime":
        if args.right is None:
            raise CircisoError("coprime products take two graphs")
        h = parse_graph(args.right)
        result, w = product_witness("coprime", g, h)
        inputs = {"kind": args.kind, "left": g.text(), "right": h.text()}
        name = f"{g.label()} x {h.label()}"
    else:
        if args.right is not None:
            raise CircisoError("prism/c4 products take a single graph")
        result, w = product_witness(args.kind, g)
        inputs = {"kind": args.kind, "graph": g.text()}
        name = f"{args.kind} x {g.label()}"
    if w is None:
        witnesses = []
        checks = [assertion(f"{name} by formula only: no edge-level check above "
                            f"{WITNESS_EDGE_CAP} edges", True, result.label())]
    else:
        witnesses = [witness_json(w)]
        checks = [assertion(f"{name} verified", w.verified, result.label()),
                  assertion("product witness verified", w.verified)]
    results = {
        "product": circulant_json(result),
        "witnesses": witnesses,
        "summary": f"{name} = {result.label()}",
    }
    return _emit(make_report(["product", args.kind], inputs, results, checks), args)


def _read_witnesses(path: str) -> list:
    """(label, unverified IsoWitness) for every witness stored in a report
    file, each read by reporting.witness_from_json, which bounds each
    endpoint by its order and by WITNESS_EDGE_CAP, the cap under which
    commands store witnesses. A file that is not a well-formed report, or
    breaks those bounds, raises ReportError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nested too deep
            raise ReportError(f"{path} is not a JSON report: {e}") from e
    results = doc.get("results", {}) if isinstance(doc, dict) else None
    if not isinstance(results, dict):
        return []
    witnesses = results.get("witnesses", [])
    if not isinstance(witnesses, list):
        raise ReportError(f"{path}: results.witnesses is not a list")
    out = []
    for i, w in enumerate(witnesses):
        try:
            out.append(witness_from_json(w))
        except KeyError as e:
            raise ReportError(f"{path}: witness {i} has no {e}") from e
        except (TypeError, ValueError) as e:
            raise ReportError(f"{path}: witness {i} is malformed: {e}") from e
    return out


def cmd_verify(args) -> int:
    witnesses = _read_witnesses(args.report)
    # every witness is read, both endpoints built, before any is verified
    checks = [assertion(f"witness {i}: {label}", verify_witness(w), w.origin)
              for i, (label, w) in enumerate(witnesses)]
    if not checks:
        checks.append(assertion("no witnesses found in report", False, args.report))
    results_out = {"checked": len(witnesses),
                   "summary": f"re-verified {len(witnesses)} witnesses from {args.report}"}
    return _emit(make_report(["verify", args.report], {"report": args.report},
                             results_out, checks), args)


def cmd_reproduce(args) -> int:
    checks = SECTIONS[args.section]()
    passed = sum(1 for c in checks if c["passed"])
    results = {
        "section": args.section,
        "total": len(checks),
        "passed": passed,
        "summary": f"section {args.section}: {passed}/{len(checks)} assertions passed",
    }
    return _emit(
        make_report(["reproduce", f"section={args.section}"], {"section": args.section},
                    results, checks),
        args,
    )


def cmd_scan(args) -> int:
    report = scan_conjecture(args.n1, args.n2, budget=args.budget)
    checks = []
    for c in report.cases:
        checks.append(
            assertion(
                f"{c.left.label()} x {c.right.label()} conjecture-consistent",
                c.consistent,
                f"factors type2: {c.left_type2}/{c.right_type2}, product: {c.product_type2}",
            )
        )
        for l in c.lifts:
            checks.append(
                assertion(
                    f"lift (m={l.m}, t={l.t}) -> t={l.lifted_t} on {c.product.label()}",
                    l.kind == "type2",
                    f"classified {l.kind}",
                )
            )
    results = {
        "header": SCAN_HEADER,
        "n1": args.n1,
        "n2": args.n2,
        "budget": args.budget,
        "cases": len(report.cases),
        "budget_exhausted": report.exhausted,
        "summary": f"{SCAN_HEADER}; {len(report.cases)} cases scanned",
    }
    return _emit(
        make_report(["scan-conjecture", str(args.n1), str(args.n2)],
                    {"n1": args.n1, "n2": args.n2, "budget": args.budget},
                    results, checks),
        args,
    )


def _add_graph_opts(p):
    p.add_argument("graph", nargs="?", help="graph text n=<int>;R=<int>,<int>,...")
    p.add_argument("--n", type=int, help="order (alternative to graph text)")
    p.add_argument("--set", help="comma-separated offsets (alternative to graph text)")


def _add_output_opts(p):
    p.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    p.add_argument("--out", help="write the JSON report to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parse_args keeps no state between calls, and each subcommand's handler
    is bound here, when the parser is built."""
    ap = argparse.ArgumentParser(
        prog="circiso",
        description="Type-1/Type-2 isomorphism structure of circulant graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("t1", help="unit-multiplication orbit of a graph")
    _add_graph_opts(p)
    _add_output_opts(p)
    p.set_defaults(fn=cmd_t1)

    p = sub.add_parser("t2", help="Type-2 set of a graph w.r.t. m")
    _add_graph_opts(p)
    p.add_argument("--m", type=int, required=True)
    _add_output_opts(p)
    p.set_defaults(fn=cmd_t2)

    p = sub.add_parser("classify", help="classify a single theta transform")
    _add_graph_opts(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_output_opts(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("product", help="product constructors")
    p.add_argument("kind", choices=["coprime", "prism", "c4"])
    p.add_argument("left", help="graph text")
    p.add_argument("right", nargs="?", help="second graph (coprime only)")
    _add_output_opts(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("verify", help="re-check witnesses stored in a report file")
    p.add_argument("report")
    _add_output_opts(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reproduce", help="run an embedded catalog section")
    p.add_argument("--section", type=int, choices=sorted(SECTIONS), required=True)
    _add_output_opts(p)
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("scan-conjecture", help="experimental product conjecture scan")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--budget", type=int, default=16)
    _add_output_opts(p)
    p.set_defaults(fn=cmd_scan)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (CircisoError, OSError) as e:  # OSError: a report path that cannot be opened
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # an input below every order limit can still need more
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
