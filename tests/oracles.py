"""Test oracles that no command uses: witnesses built from an image list
and checked by verify_witness (make_witness), the tuple edge-set route that
verify_witness replaced (factor edge sets folded by cartesian_edges, and a
check that looks up each image), the per-vertex difference-set route that
theta_image replaced, the composition law of theta maps that type2_set
proves in its docstring (theta_compose), a Type-2 orbit built from
classify_theta at every t, the inconsistent cases of a conjecture scan,
circulance detection on an explicit edge set, vertex relabeling, and a
bounded deterministic backtracking isomorphism search.

The search is a desk-scale verification device. It never certifies a claim
it has not checked edge-by-edge, and a budget overrun is an explicit error,
never a silent "not isomorphic". It keeps its own stack of candidate
iterators, one per mapped vertex, so its depth is not bounded by Python's
recursion limit.
"""

import itertools
from functools import reduce
from typing import Optional, Union

from circiso.circulant import Circulant, EdgeGraph, NotCirculant, realize, symmetric_set
from circiso.errors import (CircisoError, InvariantViolation, NotAPermutation, OrderMismatch,
                            ParamMismatch)
from circiso.iso_oracle import IsoWitness, PeriodicMap, verify_witness
from circiso.products import ConjectureCase, ConjectureReport
from circiso.residue import reflexive_reduce
from circiso.type2 import ThetaMap, Type2Orbit, classify_theta, theta_periodic

DEFAULT_NODE_BUDGET = 10**7


class BudgetExceeded(CircisoError):
    """Search ran out of nodes before deciding; not a non-isomorphism proof."""


def edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def cartesian_edges(a: EdgeGraph, b: EdgeGraph) -> EdgeGraph:
    """Cartesian product of two explicit graphs; vertex (x, y) encoded x*b.n + y."""
    n = b.n
    # factor edges (x, y) have x < y, so both encodings below keep u < v
    return EdgeGraph(a.n * n, frozenset(itertools.chain(
        ((x * n + z, y * n + z) for x, y in a.edges for z in range(n)),
        ((z * n + x, z * n + y) for x, y in b.edges for z in range(a.n)))))


def ring_edges(k: int) -> EdgeGraph:
    """The k-cycle as an explicit graph; k = 2 is a single edge."""
    return EdgeGraph(k, frozenset(edge(i, (i + 1) % k) for i in range(k)))


def endpoint_edges(e) -> EdgeGraph:
    """The edge set of a witness endpoint (a Circulant or a Product),
    folded from its factors' edge sets by cartesian_edges."""
    return reduce(cartesian_edges, (ring_edges(f) if isinstance(f, int) else realize(f)
                                    for f in e.factors))


def maps_edges_onto(a: EdgeGraph, b: EdgeGraph, f) -> bool:
    """True iff f maps a's edge set exactly onto b's: the edge counts agree
    and the image of every edge of a is an edge of b. Sound only on edges
    (x, y) with 0 <= x < y < n: a source holding a reversed (y, x)
    duplicate could pass with a target that misses an edge."""
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
    if sorted(f) != list(range(a.n)):
        raise NotAPermutation("bijection is not a permutation of the vertex set")
    if len(a.edges) != len(b.edges):
        return False
    target = b.edges
    for x, y in a.edges:
        fx, fy = f[x], f[y]
        if ((fx, fy) if fx < fy else (fy, fx)) not in target:
            return False
    return True


def make_witness(source, target, bijection, origin: str) -> IsoWitness:
    """A witness for an image list, its status set by verify_witness."""
    w = IsoWitness(source, target, tuple(bijection), False, origin)
    return IsoWitness(source, target, w.bijection, verify_witness(w), origin)


def permute_edges(eg: EdgeGraph, perm) -> EdgeGraph:
    """Relabel vertices through a permutation given as an image list."""
    if sorted(perm) != list(range(eg.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    es = set()
    add = es.add
    for a, b in eg.edges:
        pa, pb = perm[a], perm[b]
        add((pa, pb) if pa < pb else (pb, pa))
    return EdgeGraph(eg.n, frozenset(es))


def periodic_value(f: PeriodicMap, x: int) -> int:
    """f(x) for x in Z_n: x = i + k*p with i = x mod p."""
    k, i = divmod(x % f.n, f.p)
    return (f.head[i] + k * f.c) % f.n


def theta_offsets(tm: ThetaMap, full) -> tuple[int, ...]:
    """Apply the transform elementwise to a symmetric offset set.

    Offsets divisible by m are fixed; the result is the image graph's
    difference set at vertex 0, sorted, and is symmetric exactly when the
    image is circulant.
    """
    n, m, mt = tm.n, tm.m, tm.m * tm.t
    return tuple(sorted((s + (s % m) * mt) % n for s in full))


def theta_compose(a: ThetaMap, b: ThetaMap) -> ThetaMap:
    """Compose two transforms at the same (n, m): t values add mod n/m.

    The composed parameter map is checked against the actual composition
    of the two vertex permutations, on the periodic form (_composes).
    """
    if a.n != b.n or a.m != b.m:
        raise ParamMismatch(f"cannot compose {a.label()} with {b.label()}")
    c = ThetaMap(a.n, a.m, (a.t + b.t) % (a.n // a.m))
    if not _composes(a, b, c):
        raise InvariantViolation(f"{c.label()} is not {a.label()} after {b.label()}")
    return c


def _composes(a: ThetaMap, b: ThetaMap, c: ThetaMap) -> bool:
    """Whether theta c is theta a after theta b, for three maps at one (n, m).

    Each map is a PeriodicMap with period and step m, so f(x + m) = f(x) + m.
    Then a(b(x + m)) = a(b(x) + m) = a(b(x)) + m, so the composite has the
    same form, and two such maps agree everywhere iff they agree on
    x in [0, m). Comparing m values is a complete check.
    """
    fa, fb, fc = (theta_periodic(x.n, x.m, x.t) for x in (a, b, c))
    return all(fc.head[x] == periodic_value(fa, fb.head[x]) for x in range(a.m))


def counterexamples(report: ConjectureReport) -> tuple[ConjectureCase, ...]:
    """The cases of a conjecture scan whose verdicts disagree."""
    return tuple(c for c in report.cases if not c.consistent)


def theta_image_by_difference_sets(tm: ThetaMap, g: Circulant) -> Union[Circulant, NotCirculant]:
    """theta_image decided on m vertices: the image vertex theta(u) has
    difference set D_u = {theta(u+s) - theta(u) : s in R ∪ -R}, which
    depends only on u mod m, so the image is circulant iff D_u = D_0 for u
    in [0, m); otherwise the result names the least failing u."""
    n, m, mt = tm.n, tm.m, tm.m * tm.t
    full = symmetric_set(g)
    d0 = frozenset(theta_offsets(tm, full))
    for u in range(1, m):
        # theta(u+s) - theta(u) = s + ((u+s) mod m - u)*m*t
        if frozenset((s + ((u + s) % m - u) * mt) % n for s in full) != d0:
            return NotCirculant(u)
    return Circulant(n, reflexive_reduce(d0, n))


def type2_orbit_by_classification(g: Circulant, m: int) -> Type2Orbit:
    """The Type-2 orbit of g w.r.t. m from classify_theta at every t in
    [0, n/m), each t classified on its own and nothing derived from another
    t. step is the least t > 0 with a circulant image (n/m if there is
    none), and an image that is circulant at a t off its multiples raises
    InvariantViolation. Each member other than g keeps the witness of its
    least Type-2 t."""
    q = g.n // m
    cls = [classify_theta(ThetaMap(g.n, m, t), g) for t in range(q)]
    step = next((t for t in range(1, q) if cls[t].image is not None), q)
    if any((c.image is not None) != (t % step == 0) for t, c in enumerate(cls)):
        raise InvariantViolation(f"the circulant t of {g.label()} at m={m} are not the "
                                 f"multiples of {step}")
    lattice = tuple(zip(range(0, q, step), cls[::step]))  # (t, its classification)
    first = {}  # Type-2 image -> its least classification
    for _, c in lattice:
        if c.kind == "type2":
            first.setdefault(c.image, c)
    members = tuple(sorted({g, *first}))
    return Type2Orbit(base=g, m=m, members=members,
                      t_stabilizer=tuple(t for t, c in lattice if c.image in members),
                      step=step, outcomes=tuple((t, c.kind, c.image) for t, c in lattice),
                      witnesses=tuple(first[x].witness for x in members if x != g))


def detect_circulant(eg: EdgeGraph) -> Union[Circulant, NotCirculant]:
    """Return the connection set if every vertex sees the same difference set.

    The per-vertex sets are compared unreduced: comparing reflexively
    reduced sets would accept graphs such as a path on Z_4, where every
    vertex reduces to {1} although the edge sets differ.
    """
    n = eg.n
    if not eg.edges:
        raise ValueError("empty graph has no connection set")
    adj = [[] for _ in range(n)]
    for a, b in eg.edges:
        adj[a].append(b)
        adj[b].append(a)
    base = frozenset(adj[0])  # differences (y - 0) mod n
    k = len(base)
    for x in range(1, n):
        row = adj[x]
        # neighbours are distinct, so distinct differences: count plus
        # membership is full set equality
        if len(row) != k:
            return NotCirculant(x)
        for y in row:
            if (y - x) % n not in base:
                return NotCirculant(x)
    return Circulant(n, reflexive_reduce(base, n))


def search_isomorphism(
    a: EdgeGraph, b: EdgeGraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[IsoWitness]:
    """Backtracking isomorphism search with degree and neighbourhood pruning.

    Returns a verified witness, or None when the exhausted search proves
    non-isomorphism. Raises BudgetExceeded when the node budget runs out,
    which proves nothing either way.

    Vertex 0's image is enumerated in ascending order; after that the next
    vertex chosen is always the one with the most already-mapped
    neighbours (ties by ascending id), candidates ascending, so runs are
    deterministic and failures reproduce.
    """
    if a.n != b.n:
        return None
    n = a.n
    if len(a.edges) != len(b.edges):
        return None

    adj_a = [set() for _ in range(n)]
    adj_b = [set() for _ in range(n)]
    for x, y in a.edges:
        adj_a[x].add(y)
        adj_a[y].add(x)
    for x, y in b.edges:
        adj_b[x].add(y)
        adj_b[y].add(x)
    deg_a = [len(s) for s in adj_a]
    deg_b = [len(s) for s in adj_b]
    if sorted(deg_a) != sorted(deg_b):
        return None

    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def next_vertex() -> int:
        best, best_score = -1, -1
        for v in range(n):
            if mapping[v] >= 0:
                continue
            score = sum(1 for w in adj_a[v] if mapping[w] >= 0)
            if score > best_score:
                best, best_score = v, score
        return best

    # inverse[u] = already-mapped source vertex for target vertex u
    inverse = [-1] * n

    def consistent(v: int, u: int) -> bool:
        if deg_a[v] != deg_b[u]:
            return False
        for w in adj_a[v]:
            fw = mapping[w]
            if fw >= 0 and fw not in adj_b[u]:
                return False
        # non-adjacency must be preserved too: mapped neighbours of u must
        # all pull back to neighbours of v
        for u2 in adj_b[u]:
            w = inverse[u2]
            if w >= 0 and w not in adj_a[v]:
                return False
        return True

    # one entry per placed depth: the source vertex and its untried target
    # candidates; a vertex's mapping is its candidate being explored
    stack = [(0, iter(range(n)))] if n else []
    while stack:
        v, todo = stack[-1]
        if mapping[v] >= 0:  # back from a failed deeper search: undo v's candidate
            u = mapping[v]
            mapping[v] = inverse[u] = -1
            used[u] = False
        for u in todo:
            if used[u]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(f"isomorphism search exceeded {node_budget} nodes")
            if consistent(v, u):
                break
        else:
            stack.pop()
            continue
        mapping[v] = u
        inverse[u] = v
        used[u] = True
        if len(stack) == n:
            break
        stack.append((next_vertex(), iter(range(n))))
    if -1 in mapping:
        return None
    w = IsoWitness(a, b, tuple(mapping), maps_edges_onto(a, b, mapping), "search")
    if not w.verified:
        raise InvariantViolation("search found a bijection that fails verification")
    return w
