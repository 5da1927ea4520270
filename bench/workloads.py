"""The three benchmark workloads: input generation from a seed, the timed
operation, and the independent check of each operation's output.

Each workload class provides
  OPS_PER_S              ops per second of wall time (op and output check
                         together) at the baseline on a 2-vCPU host
  ROUND                  ops per round of the generator
  BLOCK                  ops per block; a run holds whole blocks of rounds
  HOST_EXPONENT          how strongly op times follow the host-speed kernel
                         (hostspeed.rescale), fitted on the baseline runs
  generate(cat, rng, n)  -> list of n ops (plain tuples)
  key(op)                -> canonical text of an op, for the op-list digest
  execute(op)            -> (output, busy_ns): the timed calls into circiso
  check(op, output)      -> (ok, record): record feeds the output digest
and is built with the run's work directory.

Calls go through module attributes (``type2.classify_theta``), never through
names copied into this module, so the tracer's patched bindings are used.
"""

import contextlib
import hashlib
import io
import json
import os
import time
from math import gcd

from circiso import catalog, cli, iso_oracle, products, type2
from circiso.circulant import Circulant, is_connected

clock = time.perf_counter_ns


def op_count(wl, seconds, part=1):
    """Ops in a run of `seconds` at the baseline rate, in whole blocks, or
    the first 1/part of them in whole rounds. The count, not the clock, ends
    a run, so a faster or slower program runs the same ops."""
    n = wl.BLOCK * max(1, round(seconds * wl.OPS_PER_S / wl.BLOCK))
    return wl.ROUND * max(1, round(n / part / wl.ROUND))


def reduce_offsets(values, n):
    """Reflexive reduction written out here, independent of circiso."""
    out = set()
    for v in values:
        r = v % n
        out.add(min(r, n - r))
    return tuple(sorted(out))


def expected_product(kind, graphs):
    """The product circulant by its defining formula, computed here."""
    if kind == "coprime":
        g, h = graphs
        vals = [h.n * r for r in g.conn] + [g.n * s for s in h.conn]
        return g.n * h.n, reduce_offsets(vals, g.n * h.n)
    (g,) = graphs
    k = 2 if kind == "prism" else 4
    return k * g.n, reduce_offsets([k * r for r in g.conn] + [g.n], k * g.n)


def draw_connected(rng, n, k):
    """A connected C_n(R) with k offsets drawn uniformly from [1, n//2]."""
    while True:
        conn = tuple(sorted(rng.sample(range(1, n // 2 + 1), k)))
        if is_connected(Circulant(n, conn)):
            return Circulant(n, conn)


# ---------------------------------------------------------------- theta-6750
class Theta6750:
    """One classify_theta at n = 6750 per op: every catalog theta row over
    all fifteen families, plus the not-circulant rows of family A, grouped by
    member index in the order reproduce --section 4 uses. The seed orders the
    member indices."""

    # reproduce --section 4 asserts the rows for member indices 1 and 2 only;
    # all nine theta rows and the five not-circulant rows were checked to
    # hold for every index 1..30 when this workload was written
    MEMBERS = tuple(range(1, 31))
    OPS_PER_S = 3.7
    ROUND = BLOCK = 1
    # memory traffic over 67,500-edge sets dominates these ops, and they
    # slow down about half as much (in log terms) as the kernel does
    HOST_EXPONENT = 0.5

    def __init__(self, workdir):
        pass

    def generate(self, cat, rng, n):
        members = list(self.MEMBERS)
        rng.shuffle(members)
        ops = []
        nc = cat.s4_not_circulant()
        for idx in members:
            graphs = {L: cat.s4_member(L, idx) for L in catalog.S4_LETTERS}
            for row in cat.s4_theta_rows():
                tm = type2.ThetaMap(6750, row["m"], row["t"])
                for L, g in graphs.items():
                    if isinstance(row["map"], dict):
                        ops.append((idx, L, tm, g, "type2", graphs[row["map"][L]]))
                    else:
                        ops.append((idx, L, tm, g, row["map"], None))
            for t in nc["ts"]:
                tm = type2.ThetaMap(6750, nc["m"], t)
                ops.append((idx, "A", tm, graphs["A"], "not_circulant", None))
            if len(ops) >= n:
                return ops[:n]
        raise ValueError(f"theta-6750 has {len(ops)} ops, not {n}")

    def key(self, op):
        idx, L, tm, g, kind, image = op
        return f"{idx}{L} {tm.label()} {g.text()} {kind} {image.text() if image else '-'}"

    def execute(self, op):
        start = clock()
        cls = type2.classify_theta(op[2], op[3])
        return cls, clock() - start

    def check(self, op, cls):
        idx, L, tm, g, kind, image = op
        ok = cls.kind == kind
        if kind == "identity":
            ok = ok and cls.image == g
        elif kind == "type2":
            ok = ok and cls.image == image
        if cls.witness is not None:
            ok = ok and cls.witness.verified and iso_oracle.verify_witness(cls.witness)
        elif kind != "not_circulant":
            ok = False
        got = cls.image.text() if cls.image else f"vertex {cls.failing_vertex}"
        return ok, f"{idx}{L} {tm.label()} {cls.kind} {got} {cls.unit}"


# ------------------------------------------------------------------- t2-scan
class T2Scan:
    """One scan_conjecture case per op over a seed-drawn connected pair with
    3-6 offsets per factor. Every case brings new graphs, so each graph's
    first touch misses the caches."""

    # coprime order pairs, cheapest first; one case of each per round keeps
    # the op mix the same for every seed, and an odd count puts the median op
    # inside the middle class rather than on a class boundary
    ORDERS = ((8, 27), (16, 27), (8, 81), (27, 32), (16, 81))
    OFFSETS = range(3, 7)
    OPS_PER_S = 7.6
    ROUND = len(ORDERS)
    # a case's cost follows its offset counts; each order pair deals its
    # (left, right) counts from a seed-shuffled deck of every combination
    # (16, or 8 where a factor of order 8 allows at most 4 offsets), and
    # sixteen rounds deal every deck whole, so every run holds the same counts
    BLOCK = 16 * ROUND
    HOST_EXPONENT = 1.0

    def __init__(self, workdir):
        # record every Type-2 orbit the scanner computes, for the output check
        self.orbits = []
        inner = products.type2_set

        def recording(g, m):
            orbit = inner(g, m)
            self.orbits.append(orbit)
            return orbit

        products.type2_set = recording

    def generate(self, cat, rng, n):
        decks = {orders: [] for orders in self.ORDERS}
        ops = []
        for _ in range(-(-n // self.ROUND)):
            for n1, n2 in self.ORDERS:
                deck = decks[(n1, n2)]
                if not deck:
                    deck += [(k1, k2) for k1 in self.OFFSETS if k1 <= n1 // 2
                             for k2 in self.OFFSETS if k2 <= n2 // 2]
                    rng.shuffle(deck)
                k1, k2 = deck.pop()
                ops.append((draw_connected(rng, n1, k1), draw_connected(rng, n2, k2)))
        return ops[:n]

    def key(self, op):
        return f"{op[0].text()} x {op[1].text()}"

    def execute(self, op):
        left, right = op
        self.orbits.clear()
        start = clock()
        report = products.scan_conjecture(left.n, right.n, budget=1, pairs=[(left, right)])
        return (report, list(self.orbits)), clock() - start

    def check(self, op, out):
        left, right = op
        report, orbits = out
        if len(report.cases) != 1:
            return False, f"{len(report.cases)} cases"
        c = report.cases[0]
        ok = (c.left == left and c.right == right
              and (c.product.n, c.product.conn) == expected_product("coprime", op))
        for orbit in orbits:
            ok = ok and orbit.base in orbit.members and type2.type2_group_check(orbit).ok
        lifts = ";".join(f"{l.m},{l.t},{l.lifted_t},{l.kind}" for l in c.lifts)
        sets = ";".join(f"{o.base.n}/{o.m}:{len(o.members)}:{len(o.t_stabilizer)}" for o in orbits)
        return ok, (f"{c.product.text()} {c.left_type2} {c.right_type2} {c.product_type2}"
                    f" [{lifts}] [{sets}]")


# --------------------------------------------------------------- certify-cli
def _neighbours(kind, graphs, v):
    """Neighbours of vertex v in the report's source graph, from the
    descriptor's definition: x*n + y for a Cartesian product, layer*N + u for
    the prism and the four-layer ring."""
    if kind == "coprime":
        g, h = graphs
        x, y = divmod(v, h.n)
        out = {((x + s) % g.n) * h.n + y for r in g.conn for s in (r, -r)}
        return out | {x * h.n + (y + s) % h.n for r in h.conn for s in (r, -r)}
    (g,) = graphs
    layer, u = divmod(v, g.n)
    out = {layer * g.n + (u + s) % g.n for r in g.conn for s in (r, -r)}
    if kind == "prism":
        return out | {(1 - layer) * g.n + u}
    return out | {((layer + d) % 4) * g.n + u for d in (1, -1)}


def _transposition(rng, kind, graphs, order):
    """Two vertices whose swap is not an automorphism of the source graph,
    so the tampered bijection must fail verification."""
    while True:
        i, j = rng.sample(range(order), 2)
        if _neighbours(kind, graphs, i) - {j} != _neighbours(kind, graphs, j) - {i}:
            return (i, j)


class CertifyCli:
    """One cli.main round trip per op: `product ... --out` then `verify` on
    that report. A round holds eleven ops: two C4 and two prism products of
    graphs with 2-4 offsets, a C4 and a prism product of a single-offset
    cycle (result order <= 60 for all six, so the oracle search runs), three
    coprime products of the smallest orders and two of rising order
    (<= 10,000, so the explicit embedding witness is written). One report
    per round, at a seed-drawn position, gets a transposition in its
    bijection, and verify must reject it."""

    PRISM_N = (21, 23, 25, 27, 29)
    C4_N = (9, 11, 13, 15)
    # a single-offset cycle C_n(r) is the oracle search's slow case; at these
    # orders every r >= 2 takes 120-800 ms per op, so the cycles sit above
    # the round's middle ops (the smallest coprime products) and the median op
    # stays inside one class (r = 1 is the fast labelling)
    PRISM_CYCLE_N = 23
    C4_CYCLE_N = 13
    COPRIME = ((25, 64), (49, 125), (81, 121))
    OPS_PER_S = 6.0
    ROUND = 11
    # ten rounds deal each cycle's deck of offsets whole (5 units r >= 2 of
    # 13, 10 of 23), so every run holds the same cycles, whatever the seed
    BLOCK = 10 * ROUND
    HOST_EXPONENT = 1.0

    def __init__(self, workdir):
        self.path = os.path.join(workdir, "report.json")

    def generate(self, cat, rng, n):
        def offsets():
            return rng.randint(2, 4)

        def layered(kind, orders):
            return (kind, (draw_connected(rng, rng.choice(orders), offsets()),))

        # each cycle's offset is dealt from a shuffled deck of its units, so
        # a run covers every offset about equally whatever the seed
        decks = {}

        def cycle(kind, order):
            deck = decks.setdefault(kind, [])
            if not deck:
                deck += [r for r in range(2, order // 2 + 1) if gcd(r, order) == 1]
                rng.shuffle(deck)
            return (kind, (Circulant(order, (deck.pop(),)),))

        def coprime(orders, k1, k2):
            return ("coprime", (draw_connected(rng, orders[0], k1),
                                draw_connected(rng, orders[1], k2)))

        small, mid, large = self.COPRIME
        ops = []
        for _ in range(-(-n // self.ROUND)):
            # the three smallest coprime products are the round's middle ops,
            # so their factors have three offsets each: the median op then
            # measures speed rather than the seed's offset counts, over three
            # samples a round
            kinds = [layered("c4", self.C4_N), layered("prism", self.PRISM_N),
                     coprime(small, 3, 3), layered("c4", self.C4_N),
                     layered("prism", self.PRISM_N), coprime(small, 3, 3),
                     cycle("c4", self.C4_CYCLE_N), coprime(small, 3, 3),
                     coprime(mid, offsets(), offsets()), cycle("prism", self.PRISM_CYCLE_N),
                     coprime(large, offsets(), offsets())]
            tampered = rng.randrange(len(kinds))
            for i, (kind, graphs) in enumerate(kinds):
                swap = None
                if i == tampered:
                    order = expected_product(kind, graphs)[0]
                    swap = _transposition(rng, kind, graphs, order)
                ops.append((kind, graphs, swap))
        return ops[:n]

    def key(self, op):
        kind, graphs, swap = op
        return f"{kind} {' '.join(g.text() for g in graphs)} {swap}"

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def execute(self, op):
        kind, graphs, swap = op
        start = clock()
        rc_emit = self._main(["product", kind, *(g.text() for g in graphs), "--out", self.path])
        busy = clock() - start
        with open(self.path) as fh:
            text = fh.read()
        if swap is not None:
            doc = json.loads(text)
            bij = doc["results"]["witnesses"][0]["bijection"]
            i, j = swap
            bij[i], bij[j] = bij[j], bij[i]
            with open(self.path, "w") as fh:
                fh.write(json.dumps(doc, indent=2) + "\n")
        start = clock()
        rc_verify = self._main(["verify", self.path])
        busy += clock() - start
        return (rc_emit, text, rc_verify), busy

    def check(self, op, out):
        kind, graphs, swap = op
        rc_emit, text, rc_verify = out
        doc = json.loads(text)
        n, conn = expected_product(kind, graphs)
        ok = (rc_emit == 0
              and all(a["passed"] for a in doc["assertions"])
              and doc["results"]["product"] == {"n": n, "conn": list(conn)}
              and len(doc["results"]["witnesses"]) == 1
              and rc_verify == (1 if swap is not None else 0))
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return ok, f"{rc_emit} {rc_verify} {digest}"


WORKLOADS = {"theta-6750": Theta6750, "t2-scan": T2Scan, "certify-cli": CertifyCli}
