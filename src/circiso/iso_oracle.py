"""Ground truth for isomorphism claims: an explicit vertex bijection onto a
circulant, checked edge for edge by one walk over the steps of the
source's factors, on the target's connection set."""

from contextlib import suppress
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import mod, sub
from typing import NamedTuple, Union

from .circulant import Circulant, Product, shifted, steps
from .errors import InvariantViolation, NotAPermutation, OrderMismatch, TargetNotCirculant

class PeriodicMap(NamedTuple("PeriodicMap", [("n", int), ("p", int), ("c", int),
                                             ("head", tuple[int, ...])])):
    """The vertex map f of Z_n with f(i + k*p) ≡ head[i] + k*c (mod n) for
    every i in [0, p) and every integer k.

    A theta map x -> x + (x mod m)*m*t is (p = c = m,
    head = (i + i*m*t mod n for i < m)), or, when m²*t ≡ 0 (mod n), the
    unit map it equals, (p = 1, c = 1 + m*t, head = (0,)); an Adam map
    v -> x*v is (p = 1, c = x, head = (0,)), and the CRT embedding
    (x, y) -> n*x + m*y of a product G x H, |G| = m and |H| = n, is
    (p = c = n, head = (m*y for y < n)). Construction checks in O(p) that
    f is a well-defined bijection, by the criterion below, and raises
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

    __slots__ = ()

    def __new__(cls, n: int, p: int, c: int, head):
        if not (n >= 1 and p >= 1 and n % p == 0 and len(head) == p):
            raise NotAPermutation(f"({p}, {len(head)}-entry head) is no period of Z_{n}")
        head = tuple(head)
        if min(head) < 0 or max(head) >= n:  # a reduced head is kept, not copied
            head = tuple(map(mod, head, repeat(n)))
        c %= n
        # head is reduced mod n; a dict holds the classes in less memory than a set
        classes = dict.fromkeys(head if p == n else map(mod, head, repeat(p)))
        if gcd(c, n) != p or len(classes) != p:
            raise NotAPermutation(f"(p={p}, c={c}) does not permute Z_{n}")
        return super().__new__(cls, n, p, c, head)

    def expand(self) -> tuple[int, ...]:
        """The image list, indexed by vertex, built one slice per class
        {i + k*p}; at p = n, where c = 0, it is the head.

        With c = p, as for every theta and CRT map, class i is written from
        two ranges: its values are v + k*p (mod n) for k < n/p, v = head[i]
        in [0, n). For k < (n - v)/p the sum is below n, so those values are
        range(v, n, p), in order of k. Each later k has k*p < n, so
        v + k*p lies in [n, n + v) and its value is v + k*p - n. The first
        such value is below p, as the step before it was below n, and is
        ≡ v (mod p) since p | n, so it is v % p; the values go up by p to
        the last, at k = n/p - 1, which is v - p: range(v % p, v, p). With
        any other c, class i is range(v, v + (n/p)*c, c) reduced mod n."""
        n, p, c, head = self.n, self.p, self.c, self.head
        if p == n:
            return head
        out = [0] * n
        if c == p:
            for i, v in enumerate(head):
                out[i::p] = [*range(v, n, p), *range(v % p, v, p)]
        else:  # p < n, so c is not 0
            rows = n // p
            for i, v in enumerate(head):
                out[i::p] = map(mod, range(v, v + rows * c, c), repeat(n))
        return tuple(out)


class IsoWitness(NamedTuple):
    """An explicit vertex bijection from source to target, plus its status.

    The source is the graph a report names, a Circulant or a Product of
    circulants and rings (it exposes n, edge_count and factors, from which
    the checks list the steps that make up its edges); the target is a
    Circulant, whose connection set the checks read. origin records how
    the bijection was produced, e.g. "theta(m=2,t=54)", "adam(x=5)",
    "crt-embedding(16x27)". The bijection is a PeriodicMap: the map a
    theta, Adam or CRT-embedding producer issues, or the one
    reporting.witness_from_json read a stored image list into
    (periodic_form); an image list exists only inside a report. verified
    is True only on a witness that walk_or_raise issued after its walk
    passed, and False on one that witness_from_json read, unchecked.
    """

    source: Union[Circulant, Product]
    target: Circulant
    bijection: PeriodicMap
    verified: bool
    origin: str


def verify_witness(w: IsoWitness) -> bool:
    """True iff the bijection maps the source edge set exactly onto the
    target's, by verify_circulant_witness's step walk over the period of
    the map. A report's list was read into that map once, by
    witness_from_json, so nothing is expanded here. A map of another order
    raises NotAPermutation, a Product target TargetNotCirculant."""
    return verify_circulant_witness(w.source, w.target, w.bijection)


def periodic_form(f: tuple[int, ...]) -> PeriodicMap:
    """The PeriodicMap whose expansion is the image list f, a tuple of
    n = len(f) entries: reporting.witness_from_json reads each stored list
    through it, once, when the report is read.

    The candidate period is the least divisor p < n of n whose difference
    f[p] - f[0] at x = 0 equals, mod n, the cyclic difference
    f[p-1] - f[n-1] at x = n - 1. PeriodicMap(n, p, f[p] - f[0], f[:p]) is
    built, whose construction checks in O(p) that it is a bijection, and it
    is taken iff its expansion equals f: f is then that bijection, entry for
    entry, and so every entry lies in [0, n). The probe only picks p;
    soundness rests on this one comparison. A list of no period below n,
    or one the candidate does not reproduce, is read at p = n, where the
    check is that its entries lie in [0, n) and are distinct; a list that
    is no permutation raises NotAPermutation.

    The probe is exact on the lists circiso writes. A theta, Adam or CRT
    list of least period P has head[i] = a*i (mod n) and steps by C (mod n)
    per row of P. For 0 < r < P its difference at x is a*r when
    x mod P < P - r, and C - a*(P - r) otherwise; the two differ, or else
    C ≡ a*P, f(x) = a*x for every x and P would be 1. A divisor p of n
    that P does not divide has 0 < r = p mod P, and its difference at x is
    that of r plus (p // P)*C. x = 0 is in the first case, and
    x = n - 1 ≡ P - 1 (mod P) in the second, so every such divisor, and so
    every divisor below P, fails the probe; P passes it, and the candidate
    is f's map at P. The cyclic probe also refuses a recurrence
    f[x+p] - f[x] = c on x < n - p that does not close round the cycle,
    (n/p)*c ≢ 0: f[n-1] = f[p-1] + (n/p - 1)*c, so the difference at
    n - 1 is c - (n/p)*c. [0, 1, 4, 5, 2, 3, 6, 7] at n = 8 and p = 4 has
    c = 2, and f[3] - f[7] ≡ 6.

    The probes read 4 entries, 2 differences, per divisor tried, and n has
    at most n/2 divisors below n, so they compare at most n differences;
    with the one expansion compared with f, a read compares at most 2n
    entries."""
    n = len(f)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    for p in sorted({*small, *(n // d for d in small)} - {n}):
        c = f[p] - f[0]
        if (c - f[p - 1] + f[n - 1]) % n == 0:
            with suppress(NotAPermutation):
                pm = PeriodicMap(n, p, c, f[:p])
                if pm.expand() == f:
                    return pm
            break
    with suppress(NotAPermutation):
        pm = PeriodicMap(n, n, 0, f)
        if pm.head == f:  # the head is f's entries reduced mod n
            return pm
    raise NotAPermutation("bijection is not a permutation of the vertex set")


def verify_circulant_witness(g: Union[Circulant, Product], h: Circulant, f: PeriodicMap) -> bool:
    """True iff the periodic bijection f maps g edge for edge onto
    h = C_n(S), read over the period of f. The source g is a Circulant,
    or a Product such as the source of a CRT embedding; a Product target
    raises TargetNotCirculant. A theta map takes one test per offset
    divisible by its period p (m, or 1 when it is a unit map), and a CRT
    embedding of G x H (p = |H|, whose steps have block |H|, while G's or
    the ring's are global with shifts that are multiples of |H|) |H| per
    offset of H and one per offset of G."""
    n = _order(g, h)
    if f.n != n:
        raise NotAPermutation(f"bijection permutes Z_{f.n}, not Z_{n}")
    return _walk(g, h, f.p, f.c, f.head)


def walk_or_raise(g: Union[Circulant, Product], h: Circulant, f: PeriodicMap,
                  origin: str) -> IsoWitness:
    """The verified IsoWitness of f from g onto h, once
    verify_circulant_witness has walked it: the one place that issues a
    certificate. A failed walk raises InvariantViolation, with no assert,
    naming origin, the name the witness would carry."""
    if not verify_circulant_witness(g, h, f):
        raise InvariantViolation(f"{origin} does not map {g.label()} onto {h.label()}")
    return IsoWitness(g, h, f, True, origin)


def _order(g: Union[Circulant, Product], h: Circulant) -> int:
    """The order of g and of the target h, which must be a Circulant."""
    if not isinstance(h, Circulant):
        raise TargetNotCirculant(f"target is a {type(h).__name__}, not a Circulant")
    n = g.n  # a Product folds its order from its factors on each read
    if n != h.n:
        raise OrderMismatch(f"orders differ: {n} vs {h.n}")
    return n


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
