"""Ground truth for isomorphism claims: witness verification, plus a bounded
deterministic backtracking search for small orders.

The search is a desk-scale verification device. It never certifies a claim
it has not checked edge-by-edge, and a budget overrun is an explicit error,
never a silent "not isomorphic".
"""

from dataclasses import dataclass
from operator import sub
from typing import Optional, Union

from .circulant import Circulant, EdgeGraph
from .errors import BudgetExceeded, InvariantViolation, NotAPermutation, OrderMismatch

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class IsoWitness:
    """An explicit vertex bijection from source to target, plus its status.

    Each endpoint is an EdgeGraph or a Circulant: both expose n and edges,
    and a circulant's edges are realized only when read, so a witness
    between circulants costs no edge set until an edge-level check runs.
    origin records how the bijection was produced, e.g. "theta(m=2,t=54)",
    "adam(x=5)", "search", "identity".
    """

    source: Union[Circulant, EdgeGraph]
    target: Union[Circulant, EdgeGraph]
    bijection: tuple[int, ...]
    verified: bool
    origin: str


def verify_witness(w: IsoWitness) -> bool:
    """True iff the bijection maps the source edge set exactly onto the target's."""
    if w.source.n != w.target.n:
        raise OrderMismatch(f"orders differ: {w.source.n} vs {w.target.n}")
    if sorted(w.bijection) != list(range(w.source.n)):
        raise NotAPermutation("bijection is not a permutation of the vertex set")
    if len(w.source.edges) != len(w.target.edges):
        return False
    f = w.bijection
    target = w.target.edges
    for a, b in w.source.edges:
        fa, fb = f[a], f[b]
        if ((fa, fb) if fa < fb else (fb, fa)) not in target:
            return False
    return True


def verify_circulant_witness(g: Circulant, h: Circulant, bijection) -> bool:
    """True iff the bijection maps C_n(R) edge for edge onto C_n(S).

    The same complete check as verify_witness, run on connection sets: every
    source edge is {x, x+s} for some x in Z_n and s in R, and its image is an
    edge of the target exactly when f(x+s) - f(x) lies in S ∪ (n-S). A
    bijection maps distinct edges to distinct edges, so once the degrees (and
    with them the edge counts) agree, the image covers every target edge.
    """
    n = g.n
    if h.n != n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    if len(bijection) != n:
        raise NotAPermutation(f"bijection has {len(bijection)} entries, not {n}")
    seen = bytearray(n)
    for v in bijection:
        if not 0 <= v < n or seen[v]:
            raise NotAPermutation("bijection is not a permutation of the vertex set")
        seen[v] = 1
    if g.degree != h.degree:
        return False
    mask = bytearray(n)
    for s in h.conn:
        mask[s] = mask[n - s] = 1
    f = tuple(bijection)
    for s in g.conn:
        # f[x+s] - f[x] lies in (-n, n), and a bytearray of length n indexes
        # negative values modulo n, so the mask needs no explicit reduction;
        # each distinct difference is looked up once
        if not all(mask[d] for d in set(map(sub, f[s:] + f[:s], f))):
            return False
    return True


def make_witness(source: EdgeGraph, target: EdgeGraph, bijection, origin: str) -> IsoWitness:
    w = IsoWitness(source, target, tuple(bijection), False, origin)
    return IsoWitness(source, target, w.bijection, verify_witness(w), origin)


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
    w = make_witness(a, b, mapping, "search")
    if not w.verified:
        raise InvariantViolation("search found a bijection that fails verification")
    return w
