"""The theta transform family: vertex permutations of Z_n parameterized by
(n, m, t), image classification against the source graph, and Type-2 orbits
with their group structure."""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .circulant import Circulant, NotCirculant, symmetric_set
from .errors import InvalidParams, InvariantViolation, ParamMismatch, PreconditionViolation
from .iso_oracle import IsoWitness, verify_circulant_witness
from .residue import check_modulus, reflexive_reduce, valid_type2_params
from .type1 import is_adams_isomorphic


@dataclass(frozen=True, order=True)
class ThetaMap:
    """Parameters (n, m, t) of the vertex map x -> x + (x mod m)*m*t mod n.

    Valid only when m > 1, m^3 divides n and 0 <= t < n/m; the induced map
    is then always a permutation of Z_n (classes mod m are preserved, and
    the shift inside a class is constant).
    """

    n: int
    m: int
    t: int

    def __post_init__(self):
        check_modulus(self.n)
        if self.m <= 1:
            raise InvalidParams(f"m must be > 1, got {self.m}")
        if self.n % self.m**3 != 0:
            raise InvalidParams(f"m^3 = {self.m ** 3} does not divide n = {self.n}")
        if not 0 <= self.t < self.n // self.m:
            raise InvalidParams(f"t must lie in [0, {self.n // self.m - 1}], got {self.t}")

    def label(self) -> str:
        return f"theta(n={self.n},m={self.m},t={self.t})"


@lru_cache(maxsize=32)
def theta_vertex_map(tm: ThetaMap) -> tuple[int, ...]:
    """Image list of the permutation, indexed by vertex."""
    n, m, mt = tm.n, tm.m, tm.m * tm.t
    img = tuple((x + (x % m) * mt) % n for x in range(n))
    if len(set(img)) != n:
        raise InvariantViolation(f"{tm.label()} is not a permutation")
    return img


def theta_offsets(tm: ThetaMap, full) -> tuple[int, ...]:
    """Apply the transform elementwise to a symmetric offset set.

    Offsets divisible by m are fixed; the result is the image graph's
    difference set at vertex 0, sorted, and is symmetric exactly when the
    image is circulant.
    """
    n, m, mt = tm.n, tm.m, tm.m * tm.t
    return tuple(sorted((s + (s % m) * mt) % n for s in full))


@dataclass(frozen=True)
class ThetaClassification:
    """Outcome of applying one theta transform to one circulant graph.

    kind is one of "identity", "type1", "type2", "not_circulant". A
    circulant outcome always carries the image set and a verified witness;
    "type1" also records the least unit, "not_circulant" the first vertex
    where the difference sets disagree.
    """

    map: ThetaMap
    source: Circulant
    kind: str
    image: Optional[Circulant] = None
    unit: Optional[int] = None
    failing_vertex: Optional[int] = None
    witness: Optional[IsoWitness] = None


def _check_classify_preconditions(tm: ThetaMap, g: Circulant):
    if tm.n != g.n:
        raise ParamMismatch(f"transform order {tm.n} != graph order {g.n}")
    if len(g.conn) < 3:
        raise PreconditionViolation("Type-2 classification needs at least 3 offsets")
    v = valid_type2_params(g.n, tm.m, g.conn)
    if not v.divisible_offsets:
        raise PreconditionViolation(f"no offset of {g.label()} is divisible by m={tm.m}")


def theta_image(tm: ThetaMap, g: Circulant) -> Union[Circulant, NotCirculant]:
    """Decide whether theta maps C_n(R) onto a circulant, on m vertices.

    The image vertex theta(u) has difference set
    D_u = {theta(u+s) - theta(u) : s in R ∪ -R}. Since
    theta(x+m) = theta(x) + m, D_u depends only on u mod m, so the image is
    circulant iff D_u = D_0 for u in [0, m); D_0 is theta_offsets. Otherwise
    the result names the least failing u. Image vertex x has a preimage
    congruent to x mod m, so u is also the least image vertex whose
    difference set differs from vertex 0's, the vertex that an edge-level
    circulance test on the transformed edge set reports.
    """
    n, m, mt = tm.n, tm.m, tm.m * tm.t
    full = symmetric_set(g)
    d0 = frozenset(theta_offsets(tm, full))
    for u in range(1, m):
        # theta(u+s) - theta(u) = s + ((u+s) mod m - u)*m*t
        if frozenset((s + ((u + s) % m - u) * mt) % n for s in full) != d0:
            return NotCirculant(u)
    return Circulant(n, reflexive_reduce(d0, n))


def classify_theta(tm: ThetaMap, g: Circulant) -> ThetaClassification:
    """Decide whether theta maps g onto a circulant and classify the image.

    Detection runs on m vertices (theta_image). A circulant image comes with
    the vertex bijection as witness, checked edge for edge on the two
    connection sets before it is attached; a failed check raises
    InvariantViolation. The witness endpoints are g and the image
    themselves, so classification builds no edge set.
    """
    _check_classify_preconditions(tm, g)
    kind, image, unit, vertex = _classify(tm, g)
    return ThetaClassification(map=tm, source=g, kind=kind, image=image, unit=unit,
                               failing_vertex=vertex,
                               witness=None if image is None else _witness(tm, g, image))


def _classify(tm: ThetaMap, g: Circulant):
    """(kind, image, unit, failing vertex) of theta on g, without the
    precondition checks, for callers that check them once for the whole t
    range. A circulant image's bijection is checked on the connection sets
    here; only the endpoints of a kept witness are left to _witness."""
    image = theta_image(tm, g)
    if isinstance(image, NotCirculant):
        return "not_circulant", None, None, image.vertex
    if not verify_circulant_witness(g, image, theta_vertex_map(tm)):
        raise InvariantViolation(f"{tm.label()} does not map {g.label()} onto {image.label()}")
    if image == g:
        return "identity", image, None, None
    x = is_adams_isomorphic(g, image)
    return ("type2", image, None, None) if x is None else ("type1", image, x, None)


def _witness(tm: ThetaMap, g: Circulant, image: Circulant) -> IsoWitness:
    """The theta bijection of g onto image, checked by _classify, between
    the two circulants."""
    return IsoWitness(g, image, theta_vertex_map(tm), True, f"theta(m={tm.m},t={tm.t})")


@dataclass(frozen=True)
class Type2Orbit:
    """Type-2 set of a graph w.r.t. m: the base plus every Type-2 image.

    outcomes records (t, kind, image) for every t in [0, n/m); the
    t_stabilizer collects every t whose image is circulant and lies in the
    member set, and is a subgroup of Z_{n/m} under addition. witnesses
    holds, for each member after the base is left out and in member order,
    the verified witness of its least t with kind "type2".
    """

    base: Circulant
    m: int
    members: tuple[Circulant, ...]
    t_stabilizer: tuple[int, ...]
    outcomes: tuple  # of (t, kind, Optional[Circulant])
    witnesses: tuple[IsoWitness, ...]


def type2_set(g: Circulant, m: int) -> Type2Orbit:
    """Classify theta(n, m, t) on g for every t in [0, n/m) and collect the
    Type-2 orbit of g. Every circulant image's bijection is checked, so no
    membership claim rests on the difference sets alone; each member keeps
    the bijection of its least t as its witness."""
    # validates m before range(n // m) is taken
    _check_classify_preconditions(ThetaMap(g.n, m, 0), g)
    outcomes = []
    first = {}  # Type-2 image -> witness of its least t
    for t in range(g.n // m):
        tm = ThetaMap(g.n, m, t)
        kind, image, _, _ = _classify(tm, g)
        outcomes.append((t, kind, image))
        if kind == "type2" and image not in first:
            first[image] = _witness(tm, g, image)
    members = tuple(sorted({g, *first}))
    t_stab = tuple(t for t, _, img in outcomes if img is not None and img in members)
    return Type2Orbit(base=g, m=m, members=members, t_stabilizer=t_stab,
                      outcomes=tuple(outcomes),
                      witnesses=tuple(first[x] for x in members if x != g))


@dataclass(frozen=True)
class Type2GroupReport:
    """Subgroup and abelian-group checks for a Type-2 orbit."""

    t_modulus: int
    contains_zero: bool
    closed: bool
    has_inverses: bool
    composition_closed: bool
    abelian: bool
    identity_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.contains_zero
            and self.closed
            and self.has_inverses
            and self.composition_closed
            and self.abelian
            and self.identity_ok
        )


def type2_group_check(orbit: Type2Orbit) -> Type2GroupReport:
    """Verify the t-stabilizer is a subgroup of Z_{n/m} and that the induced
    composition on members is abelian with the base as identity."""
    q = orbit.base.n // orbit.m
    ts = set(orbit.t_stabilizer)
    contains_zero = 0 in ts
    closed = all((a + b) % q in ts for a in ts for b in ts)
    has_inverses = all((-a) % q in ts for a in ts)

    image_at = {t: orbit.outcomes[t][2] for t in ts}
    rep = {}
    for t in sorted(ts):
        img = image_at[t]
        if img not in rep:
            rep[img] = t
    composition_closed = True
    abelian = True
    table = {}
    for ma, ta in rep.items():
        for mb, tb in rep.items():
            img = image_at.get((ta + tb) % q) if (ta + tb) % q in ts else None
            if img is None or img not in rep:
                composition_closed = False
            table[(ma, mb)] = img
    for ma in rep:
        for mb in rep:
            if table[(ma, mb)] != table[(mb, ma)]:
                abelian = False
    identity_ok = all(table.get((orbit.base, mb)) == mb for mb in rep)
    return Type2GroupReport(
        t_modulus=q,
        contains_zero=contains_zero,
        closed=closed,
        has_inverses=has_inverses,
        composition_closed=composition_closed,
        abelian=abelian,
        identity_ok=identity_ok,
    )


def theta_compose(a: ThetaMap, b: ThetaMap) -> ThetaMap:
    """Compose two transforms at the same (n, m): t values add mod n/m.

    The composed parameter map is checked pointwise against the actual
    composition of the two vertex permutations.
    """
    if a.n != b.n or a.m != b.m:
        raise ParamMismatch(f"cannot compose {a.label()} with {b.label()}")
    c = ThetaMap(a.n, a.m, (a.t + b.t) % (a.n // a.m))
    pa, pb, pc = theta_vertex_map(a), theta_vertex_map(b), theta_vertex_map(c)
    if any(pc[x] != pa[pb[x]] for x in range(a.n)):
        raise InvariantViolation(f"{c.label()} is not {a.label()} after {b.label()}")
    return c
