"""Ground truth for isomorphism claims: an explicit vertex bijection,
checked edge for edge, either on edge sets enumerated from the factors or
on connection sets."""

from dataclasses import dataclass
from operator import sub
from typing import TYPE_CHECKING, Union

from .circulant import Circulant, neighbour_maps
from .errors import NotAPermutation, OrderMismatch

if TYPE_CHECKING:
    from .products import Product


@dataclass(frozen=True)
class IsoWitness:
    """An explicit vertex bijection from source to target, plus its status.

    Each endpoint is the graph a report names: a Circulant, or a Product of
    circulants and rings. Both expose n and factors, from which
    verify_witness enumerates the edges. origin records how the bijection
    was produced, e.g. "theta(m=2,t=54)", "adam(x=5)", "crt-embedding(16x27)".
    """

    source: Union[Circulant, "Product"]
    target: Union[Circulant, "Product"]
    bijection: tuple[int, ...]
    verified: bool
    origin: str


def verify_witness(w: IsoWitness) -> bool:
    """True iff the bijection maps the source edge set exactly onto the target's.

    Both edge sets are enumerated from the endpoints' factors and compared
    as sets of codes a*n + b, a < b: the images of the source edges, and
    the target's edges.
    """
    n = w.source.n
    if n != w.target.n:
        raise OrderMismatch(f"orders differ: {n} vs {w.target.n}")
    if sorted(w.bijection) != list(range(n)):
        raise NotAPermutation("bijection is not a permutation of the vertex set")
    return _edge_codes(w.source, w.bijection) == _edge_codes(w.target, range(n))


def _edge_codes(g, f) -> set:
    """Codes a*n + b, a < b, of the images {f[v], f[u[v]]} of g's edges."""
    n = g.n
    return {a * n + b if a < b else b * n + a
            for u in neighbour_maps(g.factors) for a, b in zip(f, [f[v] for v in u])}


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
