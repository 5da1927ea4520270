"""Ground truth for isomorphism claims: an explicit vertex bijection onto a
circulant, checked edge for edge by one walk over the steps of the
source's factors, on the target's connection set."""

from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import mod, sub
from typing import Union

from .circulant import Circulant, Product, shifted, steps
from .errors import NotAPermutation, OrderMismatch, TargetNotCirculant

_NOT_A_PERMUTATION = "bijection is not a permutation of the vertex set"


@dataclass(frozen=True)
class PeriodicMap:
    """The vertex map f of Z_n with f(i + k*p) ≡ head[i] + k*c (mod n) for
    every i in [0, p) and every integer k.

    A theta map x -> x + (x mod m)*m*t is (p = c = m,
    head = (i + i*m*t mod n for i < m)), an Adam map v -> x*v is (p = 1,
    c = x, head = (0,)), and the CRT embedding (x, y) -> n*x + m*y of a
    product G x H, |G| = m and |H| = n, is (p = c = n,
    head = (m*y for y < n)). Construction checks in O(p) that f is a
    well-defined bijection, by the criterion below, and raises
    NotAPermutation otherwise; head and c are kept reduced mod n. It also
    refuses p not dividing n and a head of other than p values: the sets
    {i + k*p} are then not the p residue classes mod p.

    For p | n, f is a well-defined bijection iff gcd(c, n) = p and the head
    values are distinct mod p. Proof: i + k*p ≡ i' + k'*p (mod n) forces
    i = i' (both lie in [0, p) and p | n) and k ≡ k' (mod n/p), so f is
    well defined iff (n/p)*c ≡ 0 (mod n), that is iff p | c. Then f maps
    the class {i + k*p} of n/p vertices into the coset head[i] + pZ_n of
    n/p elements by k -> head[i] + k*c, one to one iff no 0 < k < n/p has
    k*c ≡ 0 (mod n). The least positive such k is n/gcd(c, n), which
    divides n/p since p | gcd(c, n), so that holds iff gcd(c, n) = p. The
    class then fills its coset, and f is onto iff the p cosets differ, that
    is iff the heads are distinct mod p. The two conditions on c together
    say gcd(c, n) = p, since gcd(c, n) = p gives p | c.
    """

    n: int
    p: int
    c: int
    head: tuple[int, ...]

    def __post_init__(self):
        n, p = self.n, self.p
        if not (n >= 1 and p >= 1 and n % p == 0 and len(self.head) == p):
            raise NotAPermutation(f"({p}, {len(self.head)}-entry head) is no period of Z_{n}")
        head = tuple(self.head)
        if min(head) < 0 or max(head) >= n:  # a reduced head is kept, not copied
            head = tuple(map(mod, head, repeat(n)))
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "c", self.c % n)
        # head is reduced mod n; a dict holds the classes in less memory than a set
        classes = dict.fromkeys(head if p == n else map(mod, head, repeat(p)))
        if gcd(self.c, n) != p or len(classes) != p:
            raise NotAPermutation(f"(p={p}, c={self.c}) does not permute Z_{n}")

    def expand(self) -> tuple[int, ...]:
        """The image list, indexed by vertex, built a slice at a time: one
        per class {i + k*p} when there are fewer classes than rows of p
        consecutive vertices, else one per row."""
        n, p, c, head = self.n, self.p, self.c, self.head
        rows = n // p
        if p >= rows:
            out = []
            for k in range(rows):
                kc = k * c
                out += [(v + kc) % n for v in head]
            return tuple(out)
        out = [0] * n  # p < rows, so p < n and c is not 0
        for i, v in enumerate(head):
            out[i::p] = map(mod, range(v, v + rows * c, c), repeat(n))
        return tuple(out)


@dataclass(frozen=True)
class IsoWitness:
    """An explicit vertex bijection from source to target, plus its status.

    The source is the graph a report names, a Circulant or a Product of
    circulants and rings (it exposes n, edge_count and factors, from which
    the checks list the steps that make up its edges); the target is a
    Circulant, whose connection set the checks read. origin records how
    the bijection was produced, e.g. "theta(m=2,t=54)", "adam(x=5)",
    "crt-embedding(16x27)". A theta, Adam or CRT-embedding bijection is
    kept as its PeriodicMap, any other (one read from a report, or built
    by a test) as its image list.
    """

    source: Union[Circulant, Product]
    target: Circulant
    bijection: Union[tuple[int, ...], PeriodicMap]
    verified: bool
    origin: str

    def images(self) -> tuple[int, ...]:
        """The bijection as an image list indexed by vertex."""
        f = self.bijection
        return f.expand() if isinstance(f, PeriodicMap) else f


def verify_witness(w: IsoWitness) -> bool:
    """True iff the bijection maps the source edge set exactly onto the
    target's, by the step walk (_walk) read over the least period of the
    bijection's n images (_periodic_form). Images outside [0, n), too few
    or too many of them, or a list that is no permutation raise
    NotAPermutation before any step is listed; a Product target raises
    TargetNotCirculant."""
    n = _order(w.source, w.target)
    f = w.images()
    if len(f) != n or min(f) < 0 or max(f) >= n:
        raise NotAPermutation(_NOT_A_PERMUTATION)
    pm = _periodic_form(f, n)
    return _walk(w.source, w.target, pm.p, pm.c, pm.head)


def _periodic_form(f: tuple[int, ...], n: int) -> PeriodicMap:
    """The PeriodicMap equal to the image list f, entries in [0, n), at the
    least period _least_period finds, or (p, c) = (n, 0) with head f.

    At a period p < n the list satisfies f[x+p] - f[x] ≡ c (mod n) for
    every x < n - p, so by induction on k, f[i + k*p] ≡ f[i] + k*c for
    every i < p and k < n/p, and since f[i + k*p] lies in [0, n) it is
    (head[i] + k*c) mod n, the map's value at i + k*p: the map and the list
    agree on all of Z_n, and the map's construction checks, in O(p), that
    it is a bijection. The construction also refuses a list whose
    recurrence does not close round the cycle, (n/p)*c ≢ 0 (mod n), as
    [0, 1, 4, 5, 2, 3, 6, 7] at n = 8 (p = 4, c = 2) does not; such a list
    is read at p = n, where the check is that the n entries are distinct.
    A list that is no permutation raises NotAPermutation."""
    p = _least_period(f, n)
    if p < n:
        with suppress(NotAPermutation):
            return PeriodicMap(n, p, f[p] - f[0], f[:p])
    try:
        return PeriodicMap(n, n, 0, f)
    except NotAPermutation:
        raise NotAPermutation(_NOT_A_PERMUTATION) from None


def _least_period(f: tuple[int, ...], n: int) -> int:
    """The least divisor p < n of n with f[x+p] - f[x] ≡ f[p] - f[0]
    (mod n) for every x < n - p, or n if there is none, or if the search
    has compared 2n entries first.

    The divisors are tried in ascending order, each on chunks of x that
    double in length from 8, starting at x = 1 (x = 0 holds by the choice
    of c), and a divisor is dropped at the chunk of its first mismatch; the
    2n bound is charged per chunk, before it is read. A difference of two
    entries in [0, n) lies in (-n, n), so it is ≡ c (mod n) exactly when it
    is c or c - n, for c in [0, n)."""
    budget = 2 * n
    for p in _divisors_below(n):
        c = (f[p] - f[0]) % n
        ok = {c, c - n}
        x, size = 1, 8
        while x < n - p:
            end = min(x + size, n - p)
            budget -= end - x
            if budget < 0:
                return n
            if not ok.issuperset(map(sub, f[x + p:end + p], f[x:end])):
                break
            x, size = end, 2 * size
        else:
            return p
    return n


def _divisors_below(n: int) -> list[int]:
    """The divisors of n below n, ascending."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)} - {n})


def verify_circulant_witness(g: Union[Circulant, Product], h: Circulant, f: PeriodicMap) -> bool:
    """True iff the periodic bijection f maps g edge for edge onto
    h = C_n(S), read over the period of f. The source g is a Circulant,
    or a Product such as the source of a CRT embedding; a Product target
    raises TargetNotCirculant. A theta map (p = m) takes one test per
    offset divisible by m, and a CRT embedding of G x H (p = |H|, whose
    steps have block |H|, while G's or the ring's are global with shifts
    that are multiples of |H|) |H| per offset of H and one per offset
    of G."""
    n = _order(g, h)
    if f.n != n:
        raise NotAPermutation(f"bijection permutes Z_{f.n}, not Z_{n}")
    return _walk(g, h, f.p, f.c, f.head)


def _order(g: Union[Circulant, Product], h: Circulant) -> int:
    """The order of g and of the target h, which must be a Circulant."""
    if not isinstance(h, Circulant):
        raise TargetNotCirculant(f"target is a {type(h).__name__}, not a Circulant")
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    return g.n


def _walk(g: Union[Circulant, Product], h: Circulant, p: int, c: int, head) -> bool:
    """True iff the bijection f of Z_n with f(i + k*p) = head[i] + k*c
    (mod n), for i in [0, p), head values in [0, n) and p | n, maps g edge
    for edge onto h = C_n(S).

    Every source edge is {x, u(x)} for some x in Z_n and some step u of
    circulant.steps(g.factors), and its image is an edge of the target
    exactly when f(u(x)) - f(x) lies in S ∪ (n-S). A bijection maps
    distinct vertex pairs to distinct pairs, so f(E) is a set of |E|
    target edges; once |E| equals the target's edge count, f(E) is the
    whole target edge set. Both counts are edge_count, which is exact: a
    Circulant's offsets are distinct reflexive classes in [1, n/2], each
    giving n edges except n/2, which gives n/2; a Product's count is folded
    from its factors (circulant.sizes), since every edge of G x F moves one
    coordinate along an edge of its factor, giving E(G)·|F| + E(F)·|G|
    distinct edges.

    Only x in [0, p) is checked. That is sound when u(x+p) = u(x) + p for
    every x and every step, since then d(x) = f(u(x)) - f(x) has
    d(x+p) = f(u(x) + p) - f(x + p) = d(x). A step is a rotation by shift
    inside blocks of `block` consecutive vertices, and the condition holds
    in two cases:
    - block | p: x + p sits at the place of x in another block, so one step
      carries it to u(x) + p; for x < p, u(x) < p too, and
      f(u(x)) = head[u(x)], so the step rotates the blocks of head. With
      p = n every step is of this kind, and every entry is read;
    - block = n: u(x) = x + shift for every x, whatever p is. On a shift
      of j*p, d(x) = f(x + j*p) - f(x) = j*c for every x, so one test
      decides it.
    When the walk meets a block b of neither kind, p is lifted to
    lcm(p, b), which divides n since b and p do, and the same map is read
    from then on with the larger period, c scaled by lcm/p; a step checked
    before holds for every period of the map. The differences of a step
    lie in (-n, n), and each distinct one is reduced mod n and looked up
    once.
    """
    n = g.n
    if g.edge_count != h.edge_count:
        return False
    target = {v for s in h.conn for v in (s, n - s)}
    for block, shift in steps(g.factors):
        if block == n != p:
            if shift % p:
                ok = all((head[(x + shift) % p] + (x + shift) // p * c - head[x]) % n in target
                         for x in range(p))
            else:
                ok = shift // p * c % n in target
        else:
            if p % block:  # the steps already checked hold for any period
                q = lcm(p, block)
                p, c, head = q, c * (q // p) % n, [(v + k * c) % n
                                                   for k in range(q // p) for v in head]
            diffs = set(map(sub, shifted(head, block, shift), head))
            ok = target.issuperset(map(mod, diffs, repeat(n)))
        if not ok:
            return False
    return True
