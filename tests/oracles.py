"""Test oracles that no command uses: the tuple edge-set route that
verify_witness replaced (factor edge sets folded by cartesian_edges, and a
check that looks up each image), circulance detection on an explicit edge
set, vertex relabeling, and a bounded deterministic backtracking
isomorphism search for small orders.

The search is a desk-scale verification device. It never certifies a claim
it has not checked edge-by-edge, and a budget overrun is an explicit error,
never a silent "not isomorphic". It recurses once per vertex, so it is for
small orders only.
"""

import itertools
from functools import reduce
from typing import Optional, Union

from circiso.circulant import Circulant, EdgeGraph, NotCirculant, realize
from circiso.errors import CircisoError, InvariantViolation, NotAPermutation, OrderMismatch
from circiso.iso_oracle import IsoWitness
from circiso.residue import reflexive_reduce

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

    def dfs(depth: int) -> bool:
        nonlocal nodes
        if depth == n:
            return True
        v = 0 if depth == 0 else next_vertex()
        for u in range(n):
            if used[u]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(f"isomorphism search exceeded {node_budget} nodes")
            if not consistent(v, u):
                continue
            mapping[v] = u
            inverse[u] = v
            used[u] = True
            if dfs(depth + 1):
                return True
            mapping[v] = -1
            inverse[u] = -1
            used[u] = False
        return False

    if not dfs(0):
        return None
    w = IsoWitness(a, b, tuple(mapping), maps_edges_onto(a, b, mapping), "search")
    if not w.verified:
        raise InvariantViolation("search found a bijection that fails verification")
    return w
