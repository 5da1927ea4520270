"""Ground truth for isomorphism claims: an explicit vertex bijection,
checked edge for edge, either step by step over the endpoints' factors or
on connection sets."""

from dataclasses import dataclass
from operator import add, sub
from typing import TYPE_CHECKING, Union

from .circulant import Circulant, shifted, steps
from .errors import NotAPermutation, OrderMismatch

if TYPE_CHECKING:
    from .products import Product


@dataclass(frozen=True)
class IsoWitness:
    """An explicit vertex bijection from source to target, plus its status.

    Each endpoint is the graph a report names: a Circulant, or a Product of
    circulants and rings. Both expose n and factors, from which
    verify_witness lists the steps that make up the edges. origin records
    how the bijection was produced, e.g. "theta(m=2,t=54)", "adam(x=5)",
    "crt-embedding(16x27)".
    """

    source: Union[Circulant, "Product"]
    target: Union[Circulant, "Product"]
    bijection: tuple[int, ...]
    verified: bool
    origin: str


def verify_witness(w: IsoWitness) -> bool:
    """True iff the bijection maps the source edge set exactly onto the target's.

    The source edges are listed step by step from its factors
    (circulant.steps): a step joins each v to u(v), and the image
    neighbour list f(u(v)) is shifted(f, block, shift), built from slices
    of f. Every image pair {f(v), f(u(v))} of every step is checked:
    against a mask of S ∪ (n-S) for a Circulant target, where the pair is
    an edge exactly when f(u(v)) - f(v) lies in it (each distinct
    difference is looked up once), and against the arcs a*n + b of the
    target's edges, in both directions, for a Product target.

    That covers the target too. A bijection f maps distinct vertex pairs to
    distinct pairs, so f(E) is a set of |E| target edges; once |E| equals
    the target's edge count, f(E) is the whole target edge set. Both counts
    come from the steps, n/2 for a half step and n for any other: steps of
    different factors move different coordinates, and the offsets of a
    Circulant are distinct reflexive classes in [1, n/2], so no edge is
    listed by two steps, and a half step lists its n/2 edges once from each
    end.
    """
    source, target = w.source, w.target
    n = source.n
    if n != target.n:
        raise OrderMismatch(f"orders differ: {n} vs {target.n}")
    f = w.bijection
    if sorted(f) != list(range(n)):
        raise NotAPermutation("bijection is not a permutation of the vertex set")
    if _edge_count(source) != _edge_count(target):
        return False
    images = (shifted(f, block, shift) for block, shift, _ in steps(source.factors))
    if isinstance(target, Circulant):
        mask = bytearray(n)
        for s in target.conn:
            mask[s] = mask[n - s] = 1
        # f(u) - f(v) lies in (-n, n), and a bytearray of length n indexes
        # negative values modulo n
        return all(mask[d] for fu in images for d in set(map(sub, fu, f)))
    arcs = set()
    vertices = range(n)
    for block, shift, _ in steps(target.factors):
        u = shifted(vertices, block, shift)
        arcs.update(map(add, range(0, n * n, n), u))
        arcs.update(map(add, [x * n for x in u], vertices))
    fn = [x * n for x in f]
    return all(arcs.issuperset(map(add, fn, fu)) for fu in images)


def _edge_count(g) -> int:
    """Edges of a witness endpoint, counted from its steps."""
    return sum(g.n // 2 if half else g.n for _, _, half in steps(g.factors))


def verify_circulant_witness(g: Circulant, h: Circulant, bijection) -> bool:
    """True iff the bijection maps C_n(R) edge for edge onto C_n(S).

    The same complete check as verify_witness, run on connection sets: every
    source edge is {x, x+s} for some x in Z_n and s in R, and its image is an
    edge of the target exactly when f(x+s) - f(x) lies in S ∪ (n-S). A
    bijection maps distinct edges to distinct edges, so once the degrees (and
    with them the edge counts) agree, the image covers every target edge.

    Only x in [0, p) is checked, for p = _period(f): if
    d(x) = f(x+1) - f(x) mod n has d(x+p) = d(x) for all x, then
    f(x+p) - f(x) ≡ c for one c (consecutive values differ by
    d(x+p) - d(x) = 0), so f(x+p+s) - f(x+p) ≡ f(x+s) - f(x) and every
    difference is p-periodic in x. Theta maps have p | m and Adam maps
    v -> x*v have p = 1; p = n, which always qualifies, checks all n*|R|
    edges.
    """
    n = g.n
    if h.n != n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    if len(bijection) != n:
        raise NotAPermutation(f"bijection has {len(bijection)} entries, not {n}")
    f = tuple(bijection)
    if len(set(f)) != n or min(f) < 0 or max(f) >= n:
        raise NotAPermutation("bijection is not a permutation of the vertex set")
    if g.degree != h.degree:
        return False
    mask = bytearray(n)
    for s in h.conn:
        mask[s] = mask[n - s] = 1
    p = _period(f)
    ff = f + f[:p]  # f[x+s] for x < p and s <= n/2, without reducing x+s
    for s in g.conn:
        # map stops after the p entries of the slice; f[x+s] - f[x] lies in
        # (-n, n), and a bytearray of length n indexes negative values
        # modulo n, so the mask needs no explicit reduction; each distinct
        # difference is looked up once
        if not all(mask[d] for d in set(map(sub, ff[s:s + p], f))):
            return False
    return True


def _period(f) -> int:
    """Least p | n with d(x+p) = d(x) on Z_n, d(x) = f(x+1) - f(x) mod n.

    Divisors are tried in ascending order; since p | n, d[p:] == d[:-p]
    makes d p-periodic all the way round, and p = n always qualifies.
    """
    n = len(f)
    d = [v % n for v in map(sub, f[1:] + f[:1], f)]
    larger = []
    p = 1
    while p * p <= n:
        if n % p == 0:
            if d[p:] == d[:-p]:
                return p
            larger.append(n // p)
        p += 1
    for p in reversed(larger):  # ends at p = n, where both slices are empty
        if d[p:] == d[:-p]:
            break
    return p


def make_witness(source, target, bijection, origin: str) -> IsoWitness:
    w = IsoWitness(source, target, tuple(bijection), False, origin)
    return IsoWitness(source, target, w.bijection, verify_witness(w), origin)
