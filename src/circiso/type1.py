"""The unit-multiplication action on connection sets: orbits, their abelian
group structure, and least-unit isomorphism witnesses."""

from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional

from .circulant import Circulant
from .errors import InvariantViolation, NotAUnit, OrderMismatch
from .iso_oracle import IsoWitness, PeriodicMap, walk_or_raise
from .residue import reflexive_reduce, units


def _scaled(g: Circulant, x: int) -> tuple[int, ...]:
    """x·R reduced reflexively, for a unit x the caller has checked."""
    conn = reflexive_reduce((x * s for s in g.conn), g.n)
    # unit multiplication permutes reflexive classes, so sizes must agree
    if len(conn) != len(g.conn):
        raise InvariantViolation(f"{x}*{g.label()} has {len(conn)} classes, not {len(g.conn)}")
    return conn


def adams_apply(g: Circulant, x: int) -> Circulant:
    """Multiply the connection set by a unit x and reduce reflexively."""
    if gcd(g.n, x) != 1:
        raise NotAUnit(f"gcd({g.n}, {x}) != 1")
    return Circulant(g.n, _scaled(g, x))


def adams_periodic(n: int, x: int) -> PeriodicMap:
    """The vertex bijection v -> x*v mod n realizing C_n(R) ~ C_n(xR), as
    the PeriodicMap (p, c, head) = (1, x, (0,))."""
    if gcd(n, x) != 1:
        raise NotAUnit(f"gcd({n}, {x}) != 1")
    return PeriodicMap(n, 1, x, (0,))


class Type1Orbit(NamedTuple):
    """Orbit of a connection set under all units of Z_n.

    reps[i] is the least unit sending the base to members[i]; the
    stabilizer collects every unit fixing the base. unit_count is the
    number of units of Z_n, which the orbit-stabilizer equation
    len(members) * len(stabilizer) == unit_count relates to the orbit.
    witnesses[i] is the adam(x) witness of x = reps[i] from the base onto
    members[i], in member order, from iso_oracle.walk_or_raise.
    """

    base: Circulant
    members: tuple[Circulant, ...]
    reps: tuple[int, ...]
    stabilizer: tuple[int, ...]
    unit_count: int
    witnesses: tuple[IsoWitness, ...]


@lru_cache(maxsize=128)
def type1_set(g: Circulant) -> Type1Orbit:
    """Compute the full orbit of g under unit multiplication. Images are
    kept as connection sets; a Circulant is built per member, not per unit,
    and its witness v -> x*v comes from iso_oracle.walk_or_raise."""
    least: dict[tuple[int, ...], int] = {}
    stab = []
    us = units(g.n)
    for x in us:  # ascending, so first hit records the least unit
        conn = _scaled(g, x)
        if conn not in least:
            least[conn] = x
        if conn == g.conn:
            stab.append(x)
    if len(least) * len(stab) != len(us):
        raise InvariantViolation(f"orbit-stabilizer violated for {g.label()}")
    # one order, so sorting the sets sorts the graphs
    conns = sorted(least)
    members = tuple(Circulant(g.n, c) for c in conns)
    reps = tuple(least[c] for c in conns)
    witnesses = tuple(walk_or_raise(g, member, adams_periodic(g.n, x), f"adam(x={x})")
                      for member, x in zip(members, reps))
    return Type1Orbit(base=g, members=members, reps=reps, stabilizer=tuple(stab),
                      unit_count=len(us), witnesses=witnesses)


class GroupTable(NamedTuple):
    """The group axioms of an induced composition on the members of a
    Type-1 or Type-2 orbit; ok when every axiom held."""

    closed: bool
    commutative: bool
    identity_ok: bool
    associativity: str  # "exhaustive", "structural" or "failed"

    @property
    def ok(self) -> bool:
        return (self.closed and self.commutative and self.identity_ok
                and self.associativity != "failed")


# orbits up to this size have associativity enumerated over all triples
EXHAUSTIVE_ASSOC_LIMIT = 30


def induced_composition(reps, op, member_of, identity: Optional[int]) -> GroupTable:
    """The group axioms of i o j = member_of(op(reps[i], reps[j])) on the
    members of an orbit, member i being reached by the group element reps[i].

    member_of gives a member's index or None, and identity is the base's
    index or None. Each product element is looked up once and kept, so the
    store holds at most one entry per group element, never one per pair.
    Closure, commutativity and the two-sided identity are checked on every
    pair, and associativity on every triple up to the size limit. Past it
    the action law (x.(y.R) = (x op y).R) forces associativity, so it is
    only recorded as structural.
    """
    looked_up = {}

    def compose(i, j):
        x = op(reps[i], reps[j])
        if x not in looked_up:
            looked_up[x] = member_of(x)
        return looked_up[x]

    k = range(len(reps))
    closed = all(compose(i, j) is not None for i in k for j in k)
    commutative = all(compose(i, j) == compose(j, i) for i in k for j in k if i < j)
    identity_ok = all(identity is not None and compose(identity, j) == j == compose(j, identity)
                      for j in k)
    if closed and len(k) <= EXHAUSTIVE_ASSOC_LIMIT:
        assoc_holds = all(compose(compose(i, j), h) == compose(i, compose(j, h))
                          for i in k for j in k for h in k)
        associativity = "exhaustive" if assoc_holds else "failed"
    else:
        associativity = "structural"
    return GroupTable(closed, commutative, identity_ok, associativity)


def type1_group_table(orbit: Type1Orbit) -> GroupTable:
    """The group axioms of the induced composition on orbit members.

    members[i] o members[j] is (reps[i]*reps[j])*R, which depends only on
    the product unit: each is scaled once, and no graph is built.
    """
    base, n = orbit.base, orbit.base.n
    index = {m.conn: i for i, m in enumerate(orbit.members)}

    def member_of(x: int) -> Optional[int]:
        if gcd(x, n) != 1:
            raise NotAUnit(f"gcd({n}, {x}) != 1")
        return index.get(_scaled(base, x))

    return induced_composition(orbit.reps, lambda x, y: x * y % n, member_of,
                               index.get(base.conn))


def is_adams_isomorphic(a: Circulant, b: Circulant) -> Optional[int]:
    """Least unit x with x*a = b, or None when no unit works.

    Solved for, not looked up in the orbit, and never by listing candidates
    in Z_n. Take r in R with g = gcd(r, n) and q = n/g; r/g is a unit mod q.
    For s in S with gcd(s, n) = g, an integer x has x*r ≡ ±s (mod n) iff
    x*(r/g) ≡ ±s/g (mod q), that is iff x mod q lies in
    D_r = {±(s/g)*(r/g)^-1 mod q}. A unit x keeps gcd(x*r, n) = g, so x*r
    lies in S ∪ -S iff x mod q lies in D_r. Each d in D_r is a unit mod q,
    so d is not 0 and -d mod q is q - d.

    The units with x*r in S ∪ -S for every r in R are therefore those whose
    residue mod each q lies in that offset's D_r. The solve keeps the
    residues mod M that meet every condition read so far, starting from {0}
    mod 1. By the generalized CRT, with h = gcd(M, q), residues c mod M and
    d mod q are both met by some x iff c ≡ d (mod h), and then by exactly
    one x mod lcm(M, q) = M*(q/h), namely
    x = c + M*(((d - c)/h)*(M/h)^-1 mod q/h). Bucketing D_r by d mod h forms
    only those pairs. When q | M the step is a filter on c mod q. The
    offsets with the largest gcd go first: their q is smallest, so the
    early sets are small and most non-isomorphic pairs are refuted by an
    empty set within the first few offsets. The order does not change the
    final set, only how soon an empty one ends the solve.

    At the end M = lcm of the q, which is n/gcd(n, R), so n for a connected
    graph; every residue left is a unit mod M, and every x ≡ c (mod M) meets
    all conditions, so the least unit is the first c + k*M, in ascending
    order, that is a unit mod n (units mod M lift to units mod n, so one
    exists). A unit x with x*r in S ∪ -S for every r in R has reflexively
    reduced x*R ⊆ S; unit multiplication permutes reflexive classes, so x*R
    has |R| = |S| classes and the inclusion is equality. So the solve
    returns exactly the least unit with x*R = S.
    """
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
    if len(a.conn) != len(b.conn):
        return None
    n = a.n
    by_gcd: dict[int, list[int]] = {}
    for s in b.conn:
        by_gcd.setdefault(gcd(s, n), []).append(s)
    residues, modulus = [0], 1
    for g, r in sorted([(gcd(r, n), r) for r in a.conn], reverse=True):
        q = n // g
        inv = pow(r // g, -1, q)
        wanted = set()
        for s in by_gcd.get(g, ()):
            d = s // g * inv % q
            wanted.add(d)
            wanted.add(q - d)
        h = gcd(modulus, q)
        if h == q:
            residues = [c for c in residues if c % q in wanted]
        else:
            buckets: dict[int, list[int]] = {}
            for d in wanted:
                buckets.setdefault(d % h, []).append(d)
            k = q // h
            m_inv = pow(modulus // h, -1, k)
            residues = [c + modulus * ((d - c) // h * m_inv % k)
                        for c in residues for d in buckets.get(c % h, ())]
            modulus *= k
        if not residues:
            return None
    residues.sort()
    for base in range(0, n, modulus):
        for c in residues:
            if gcd(base + c, n) == 1:
                return base + c
    return None
