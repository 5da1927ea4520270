"""The unit-multiplication action on connection sets: orbits, their abelian
group structure, and least-unit isomorphism witnesses."""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional

from .circulant import Circulant
from .errors import InvariantViolation, NotAUnit, OrderMismatch
from .iso_oracle import PeriodicMap
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


def adams_vertex_map(n: int, x: int) -> tuple[int, ...]:
    """Image list of v -> x*v mod n, indexed by vertex."""
    return adams_periodic(n, x).expand()


@dataclass(frozen=True)
class Type1Orbit:
    """Orbit of a connection set under all units of Z_n.

    reps[i] is the least unit sending the base to members[i]; the
    stabilizer collects every unit fixing the base.
    """

    base: Circulant
    members: tuple[Circulant, ...]
    reps: tuple[int, ...]
    stabilizer: tuple[int, ...]


@lru_cache(maxsize=128)
def type1_set(g: Circulant) -> Type1Orbit:
    """Compute the full orbit of g under unit multiplication. Images are
    kept as connection sets; a Circulant is built per member, not per unit."""
    least: dict[tuple[int, ...], int] = {}
    stab = []
    for x in units(g.n):  # ascending, so first hit records the least unit
        conn = _scaled(g, x)
        if conn not in least:
            least[conn] = x
        if conn == g.conn:
            stab.append(x)
    # one order, so sorting the sets sorts the graphs
    conns = sorted(least)
    orbit = Type1Orbit(
        base=g,
        members=tuple(Circulant(g.n, c) for c in conns),
        reps=tuple(least[c] for c in conns),
        stabilizer=tuple(stab),
    )
    if len(conns) * len(stab) != len(units(g.n)):
        raise InvariantViolation(f"orbit-stabilizer violated for {g.label()}")
    return orbit


@dataclass(frozen=True)
class GroupTable:
    """Multiplication table over orbit members, indexed by member position."""

    members: tuple[Circulant, ...]
    entries: dict  # (i, j) -> k meaning members[i] o members[j] = members[k]
    closed: bool
    commutative: bool
    identity_ok: bool
    associativity: str  # "exhaustive" or "structural"

    @property
    def ok(self) -> bool:
        return self.closed and self.commutative and self.identity_ok


# orbits up to this size have associativity enumerated over all triples
EXHAUSTIVE_ASSOC_LIMIT = 30


def type1_group_table(orbit: Type1Orbit) -> GroupTable:
    """Build the induced composition table and verify the group axioms.

    Identity and commutativity are checked exhaustively. Associativity is
    enumerated over all triples up to the size limit; past it the action
    law (x*(y*R) = (xy)*R) already forces associativity, so it is only
    recorded as structural.
    """
    base = orbit.base
    members, reps = orbit.members, orbit.reps
    index = {m.conn: i for i, m in enumerate(members)}
    # members[i] o members[j] is (reps[i]*reps[j])*R, which depends only on
    # the product unit: each is scaled once, and no graph is built
    member_of = {}
    entries = {}
    for i in range(len(members)):
        for j in range(len(members)):
            x = (reps[i] * reps[j]) % base.n
            if x not in member_of:
                if gcd(x, base.n) != 1:
                    raise NotAUnit(f"gcd({base.n}, {x}) != 1")
                member_of[x] = index.get(_scaled(base, x))
            entries[(i, j)] = member_of[x]
    closed = None not in member_of.values()
    commutative = all(
        entries[(i, j)] == entries[(j, i)]
        for i in range(len(members))
        for j in range(len(members))
    )
    b = index[base.conn]
    identity_ok = all(entries[(b, j)] == j and entries[(j, b)] == j for j in range(len(members)))
    if closed and len(members) <= EXHAUSTIVE_ASSOC_LIMIT:
        assoc_holds = all(
            entries[(entries[(i, j)], k)] == entries[(i, entries[(j, k)])]
            for i in range(len(members))
            for j in range(len(members))
            for k in range(len(members))
        )
        associativity = "exhaustive" if assoc_holds else "failed"
    else:
        associativity = "structural"
    return GroupTable(
        members=members,
        entries=entries,
        closed=closed,
        commutative=commutative,
        identity_ok=identity_ok,
        associativity=associativity,
    )


def is_adams_isomorphic(a: Circulant, b: Circulant) -> Optional[int]:
    """Least unit x with x*a = b, or None when no unit works.

    Solved for, not looked up in the orbit: take r in R with the least
    d = gcd(r, n). A unit x with x*R = S sends r to ±s for some s in S, and
    then gcd(s, n) = d and x ≡ ±(s/d)*(r/d)^-1 (mod n/d). That leaves at
    most 2*|S|*d candidates, each residue lifted by multiples of n/d, and
    every candidate sends r into ±S (x*r = x*(r/d)*d ≡ ±s mod n). The
    whole list is then filtered against one other offset r' of R at a
    time, keeping the x with x*r' in S ∪ -S. The offsets with the largest
    gcd(r', n) go first: x*r' depends only on x mod n/gcd(r', n), so they
    fix the candidates modulo the smallest number and prune the most. The
    solve stops as soon as the list is empty, and otherwise returns the
    least unit among the survivors.

    A unit x with x*r in ±S for every r in R has reflexively reduced
    x*R ⊆ S; unit multiplication permutes reflexive classes, so x*R has
    |R| = |S| classes and the inclusion is equality. So the mask test
    accepts exactly the units with x*R = S, whatever order the filters run
    in, and the least unit is the same.
    """
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
    if len(a.conn) != len(b.conn):
        return None
    n = a.n
    offsets = sorted(a.conn, key=lambda s: gcd(s, n), reverse=True)
    r = offsets[-1]
    d = gcd(r, n)
    q = n // d
    inv = pow(r // d, -1, q)
    residues = {(e * (s // d) * inv) % q for s in b.conn if gcd(s, n) == d for e in (1, -1)}
    xs = [x for c in residues for x in range(c, n, q)]
    target = {v for s in b.conn for v in (s, n - s)}
    for s in offsets[:-1]:
        xs = [x for x in xs if x * s % n in target]
        if not xs:
            return None
    return min((x for x in xs if gcd(x, n) == 1), default=None)
