"""The theta transform family: vertex permutations of Z_n parameterized by
(n, m, t), image classification against the source graph, and Type-2 orbits
with their group structure."""

from itertools import count, takewhile
from math import gcd
from typing import NamedTuple, Optional

from .circulant import Circulant, symmetric_set
from .errors import (CircisoError, InvalidParams, InvariantViolation, ParamMismatch,
                     PreconditionViolation)
from .iso_oracle import IsoWitness, PeriodicMap, walk_or_raise
from .residue import check_modulus, reflexive_reduce
from .type1 import GroupTable, induced_composition, is_adams_isomorphic


class ThetaMap(NamedTuple("ThetaMap", [("n", int), ("m", int), ("t", int)])):
    """Parameters (n, m, t) of the vertex map x -> x + (x mod m)*m*t mod n.

    Valid only when m > 1, m^3 divides n and 0 <= t < n/m; the induced map
    is then always a permutation of Z_n (classes mod m are preserved, and
    the shift inside a class is constant). Since theta(x + m) = theta(x) + m,
    the map is the PeriodicMap theta_periodic(n, m, t), of period m, or of
    period 1 when m²*t ≡ 0 (mod n): it is then the unit map
    v -> (1 + m*t)*v.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, t: int):
        check_modulus(n)
        if error := _order_refusal(n, m):
            raise error
        if not 0 <= t < n // m:
            raise InvalidParams(f"t must lie in [0, {n // m - 1}], got {t}")
        return super().__new__(cls, n, m, t)

    def label(self) -> str:
        return f"theta(n={self.n},m={self.m},t={self.t})"


def theta_periodic(n: int, m: int, t: int) -> PeriodicMap:
    """The vertex map of theta(n, m, t), for m | n, as a PeriodicMap at its
    least period; its construction checks that it is a bijection.

    When m²*t ≡ 0 (mod n) it is the unit map v -> (1 + m*t)*v, the
    PeriodicMap (p, c, head) = (1, 1 + m*t, (0,)) that adams_periodic
    builds: theta(x) - (1 + m*t)*x = m*t*((x mod m) - x) = -m²*t*(x // m),
    a multiple of n. And 1 + m*t is a unit: for a prime r | n, either
    r | m, or r ∤ m and n | m²*t force r | t; both give 1 + m*t ≡ 1
    (mod r). The walk (iso_oracle.verify_circulant_witness) reads such a
    map with one lookup per offset of a circulant, whose steps are all
    global shifts, each a multiple of p = 1. Any other t gives
    (m, m, (i + i*m*t mod n for i < m)), read with up to m lookups per
    offset not divisible by m."""
    mt = m * t
    if m * mt % n == 0:
        return PeriodicMap(n, 1, 1 + mt, (0,))
    return PeriodicMap(n, m, m, tuple(i + i * mt for i in range(m)))


class ThetaClassification(NamedTuple):
    """Outcome of applying one theta transform to one circulant graph.

    kind is one of "identity", "type1", "type2", "not_circulant". A
    circulant outcome always carries the image and its witness, from
    iso_oracle.walk_or_raise; "type1" also records the least unit.
    "not_circulant" records only the first image vertex whose difference
    set differs from vertex 0's, read from the moving offsets F (_moving)
    once the walk has failed.
    """

    kind: str
    image: Optional[Circulant] = None
    unit: Optional[int] = None
    failing_vertex: Optional[int] = None
    witness: Optional[IsoWitness] = None


def _admits_order(n: int, m: int) -> bool:
    """m > 1 and m^3 | n: the one rule for m at order n, which
    _order_refusal explains and valid_type2_ms screens with."""
    return m > 1 and n % m**3 == 0


def _order_refusal(n: int, m: int) -> Optional[InvalidParams]:
    """The error refusing m at order n, or None when _admits_order(n, m)."""
    if _admits_order(n, m):
        return None
    if m <= 1:
        return InvalidParams(f"m must be > 1, got {m}")
    if m**3 > n:  # m may have thousands of digits, too many to print its cube
        return InvalidParams(f"m^3 exceeds n = {n}")
    return InvalidParams(f"m^3 = {m ** 3} does not divide n = {n}")


def _type2_refusal(g: Circulant, m: int) -> Optional[CircisoError]:
    """The error refusing Type-2 classification of g w.r.t. m, or None when
    g admits it: m > 1, m^3 | n, at least 3 offsets, and some offset r
    divisible by m. Since m | n, m | gcd(n, r) is the same test as m | r.
    The existential reading (some r, not every r) is deliberate."""
    if error := _order_refusal(g.n, m):
        return error
    if len(g.conn) < 3:
        return PreconditionViolation("Type-2 classification needs at least 3 offsets")
    if all(r % m for r in g.conn):
        return PreconditionViolation(f"no offset of {g.label()} is divisible by m={m}")
    return None


def valid_type2_ms(g: Circulant) -> tuple[int, ...]:
    """Every m that g admits for Type-2 classification (_type2_refusal),
    ascending; () for fewer than 3 offsets. _type2_refusal decides only
    the m that _admits_order passes, the only ones it can admit, so no
    refusal is built for the rest."""
    n = g.n
    ms = takewhile(lambda m: m**3 <= n, count(2))
    return tuple(m for m in ms if _admits_order(n, m) and _type2_refusal(g, m) is None)


def _theta_step(g: Circulant, m: int, t: int, full, seen: dict) -> tuple:
    """(image, kind, witness) of theta(n, m, t) on g, for full = R ∪ -R:
    the witness of the bijection f = theta_periodic(n, m, t) from g onto the
    image C_n(D_0) comes from iso_oracle.walk_or_raise, which walks f edge
    for edge and raises InvariantViolation naming theta(m=…,t=…) when the
    walk fails. seen maps a connection set to its one graph value and
    kind, so the image is that value and kind when D_0 is in seen, and a
    new Circulant with kind None otherwise; the step adds nothing to seen.

    At period 1 theta is v -> c*v (theta_periodic), so theta(-s) =
    -theta(s), and D_0 over R alone reduces to the same set as over full,
    from half the offsets.

    The walk decides that the image is circulant. If theta maps g onto some
    circulant C_n(S), then S ∪ -S is the image's difference set at
    theta(0) = 0, which is D_0, so the image is C_n(D_0) and the walk
    passes; and if the walk passes, theta maps the edges of g exactly onto
    those of C_n(D_0), a circulant. The walk's soundness needs f to be a
    bijection, which the construction of its PeriodicMap checks.
    """
    n = g.n
    f = theta_periodic(n, m, t)
    conn = _lattice_conn(n, m, t, g.conn if f.p == 1 else full)
    image, kind = seen.get(conn) or (Circulant(n, conn), None)
    return image, kind, walk_or_raise(g, image, f, f"theta(m={m},t={t})")


def _lattice_conn(n: int, m: int, t: int, full) -> tuple[int, ...]:
    """D_0 = {s + (s mod m)*m*t : s in full} reduced reflexively, for full
    the symmetric offset set R ∪ -R, or R alone at period 1 (_theta_step).
    D_0 is the image's difference set at theta(0) = 0, so it is the
    connection set of the image whenever the image is circulant. It holds
    no 0, since theta is a bijection fixing 0."""
    mt = m * t
    return reflexive_reduce((s + (s % m) * mt for s in full), n)


def _moving(full, m: int) -> set[int]:
    """F = {s in full : m ∤ s}, for full = R ∪ -R: the offsets outside
    class 0 mod m, the only ones that theta(n, m, t) translates. A
    translation by d ≡ 0 (mod m) keeps every residue mod m (m | n), so it
    fixes F exactly when it fixes each class S_r = {s in full : s ≡ r
    (mod m)}, r in [1, m), and a class S_r moves exactly when some s in S_r
    has s + d outside F.

    theta(n, m, t) maps g onto a circulant exactly when F + m²*t = F, and
    otherwise the least image vertex whose difference set differs from
    vertex 0's is m - r, for the largest r whose class moves.

    The image vertex theta(u) has difference set
    D_u = {theta(u+s) - theta(u) : s in full}. Since
    theta(x+m) = theta(x) + m, D_u depends only on u mod m. For u in
    [0, m) and s in S_r, theta(u+s) - theta(u) = s + ((u+r) mod m - u)*m*t,
    which is s + r*m*t, less a further m²*t exactly when u + r >= m. Every
    value keeps its residue r mod m, so D_u is the disjoint union over r of
    these translates of S_r, and D_u = D_0 iff S_r + m²*t = S_r for every
    r >= m - u. The image is circulant iff that holds at u = m - 1, that is
    F + m²*t = F, and otherwise the least failing u is m - r for the
    largest r whose class moves. Image vertex x has a preimage congruent
    to x mod m, so u is also the least failing image vertex, the vertex
    that an edge-level circulance test on the transformed edge set reports.
    """
    return {s for s in full if s % m}


def _class_period(cls, n: int) -> int:
    """Least d > 0 with cls + d = cls mod n, for cls a set of residues
    mod n; 1 for the empty set.

    The translations fixing cls form a subgroup of Z_n, and every subgroup
    of Z_n is dZ_n for its least positive element d, which divides n: n
    itself fixes cls, and the remainder of n by d is again in the subgroup
    and below d, so it is 0. For s0 in cls, s0 + d must lie in cls, so the
    least d is some s - s0 (mod n) that divides n, or n when no such
    candidate fixes cls. A cls fixed by such a d is a union of cosets of
    dZ_n, each of n/d elements, so n/d divides |cls|, that is
    |cls|*d ≡ 0 (mod n). Only the candidates that pass both tests are
    tried.
    """
    k = len(cls)
    if not k:
        return 1
    s0 = min(cls)
    for d in sorted({d for s in cls if (d := (s - s0) % n) and k * d % n == 0 and n % d == 0}):
        if all((s + d) % n in cls for s in cls):
            return d
    return n


def _lattice_step(full, m: int, n: int) -> int:
    """The least q > 0 such that theta(n, m, t) maps g onto a circulant
    exactly when q | t, for full = R ∪ -R: that is F + m²*t = F (_moving),
    and the translations fixing F are the multiples of its period P
    (_class_period), which divides n, so the condition is P | m²*t, that
    is P / gcd(P, m²) | t."""
    p = _class_period(_moving(full, m), n)
    return p // gcd(p, m * m)


def unit_lattice(g: Circulant, m: int) -> bool:
    """Whether m²*step ≡ 0 (mod n) for the lattice step of g w.r.t. m,
    the step type2_set takes; refused like type2_set.

    When it holds, g has no Type-2 partner w.r.t. m:
    type2_set(g, m).members == (g,). Every lattice t is a multiple of step,
    so m²*t ≡ 0 (mod n), and theta_periodic(n, m, t) is the period-1 unit
    map v -> (1 + m*t)*v, whose image is g itself (the identity) or a
    Type-1 image. Every t off the lattice gives no circulant image
    (_lattice_step). So only the period of F (_moving) is read: no image
    is built and no map is walked."""
    if error := _type2_refusal(g, m):
        raise error
    return m * m * _lattice_step(symmetric_set(g), m, g.n) % g.n == 0


def classify_theta(tm: ThetaMap, g: Circulant) -> ThetaClassification:
    """Decide whether theta maps g onto a circulant and classify the image.

    The image C_n(D_0) is built and the theta bijection walked onto it by
    _theta_step, which type2_set runs for each lattice t. A walk that
    passes makes the image circulant, and the witness walk_or_raise issued
    is passed on; its endpoints are g and the image themselves, so
    classification builds no edge set. A Type-1 image records the least
    unit mapping g onto it (is_adams_isomorphic). A failed walk makes the
    image not circulant, and its first failing vertex is m - r for the
    largest r whose class moves (_moving): the largest s mod m over the s
    in F with s + m²*t outside F. When no class moves the walk and F
    disagree, and the walk's InvariantViolation is raised.
    """
    if tm.n != g.n:
        raise ParamMismatch(f"transform order {tm.n} != graph order {g.n}")
    m, t = tm.m, tm.t
    if error := _type2_refusal(g, m):
        raise error
    full = symmetric_set(g)
    try:
        image, kind, witness = _theta_step(g, m, t, full, {g.conn: (g, "identity")})
    except InvariantViolation:
        moving, n, d = _moving(full, m), g.n, m * m * t
        moved = [s % m for s in moving if (s + d) % n not in moving]
        if not moved:
            raise
        return ThetaClassification("not_circulant", failing_vertex=m - max(moved))
    if kind:
        return ThetaClassification(kind, image, witness=witness)
    x = is_adams_isomorphic(g, image)
    return ThetaClassification("type2" if x is None else "type1", image, x, witness=witness)


class Type2Orbit(NamedTuple):
    """Type-2 set of a graph w.r.t. m: the base plus every Type-2 image.

    theta(n, m, t) maps the base onto a circulant exactly when step divides
    t (_lattice_step), so outcomes records (t, kind, image) for those t
    alone, ascending, and outcome(t) answers for any t in [0, n/m). The
    outcomes repeat with the least t > 0 whose image is the base. t = 0,
    where theta is the identity map, is recorded as the base's "identity";
    every t > 0 up to that period was walked edge for edge, and the later
    ones are derived from them (type2_set). The t_stabilizer collects every
    t whose image is circulant and lies in the member set, and is a
    subgroup of Z_{n/m} under addition. witnesses holds, for each member
    after the base is left out and in member order, the witness of its
    least t with kind "type2", from iso_oracle.walk_or_raise.
    """

    base: Circulant
    m: int
    members: tuple[Circulant, ...]
    t_stabilizer: tuple[int, ...]
    step: int
    outcomes: tuple  # of (t, kind, Circulant) for the t with step | t
    witnesses: tuple[IsoWitness, ...]

    def outcome(self, t: int) -> tuple:
        """(t, kind, image) of theta(n, m, t) on the base: not circulant off
        the lattice, the classified outcome on it. Like ThetaMap, it refuses
        any t outside [0, n/m)."""
        if not 0 <= t < self.base.n // self.m:
            raise InvalidParams(f"t must lie in [0, {self.base.n // self.m - 1}], got {t}")
        q, r = divmod(t, self.step)
        return (t, "not_circulant", None) if r else self.outcomes[q]


def type2_set(g: Circulant, m: int) -> Type2Orbit:
    """Classify theta(n, m, t) on g for every t on the lattice of
    _lattice_step and collect the Type-2 orbit of g; no other t in [0, n/m)
    can give a circulant image.

    t = 0 is recorded as (0, "identity", g) without a walk: theta(n, m, 0)
    is x -> x + (x mod m)*m*0 = x, so its image is g itself. It gives no
    witness and no member; first holds Type-2 images only. The lattice
    t > 0 are taken in ascending order up to and including q0, the least
    t > 0 whose image is g (or all of them, when there is none), each by
    _theta_step, the step classify_theta runs: one image build and one edge
    walk, which reads one difference per offset when theta(n, m, t) has
    period 1. The image is C_n(D_0), one graph value per distinct
    connection set, g itself for g's own set, so no membership claim rests
    on the lattice alone. Every walked t gets a witness, and each member
    keeps the witness of its least t. A lattice t whose image is not
    circulant, which would contradict _lattice_step, fails its walk, and
    that raises InvariantViolation naming t, with no assert.

    Every lattice t after q0 takes the outcome of t mod q0. Write theta(t)
    for theta(n, m, t) and q = n/m. theta(a) after theta(b) is
    theta(a + b mod q): theta(b) keeps x mod m, since
    m | m*b and m | n, so theta(a)(theta(b)(x)) = x + (x mod m)*m*(a + b),
    and (x mod m)*m*q is a multiple of n. So the t whose image is g form a
    subgroup of Z_q, holding 0 and closed under addition, and q0 is its
    least positive element, which divides q. Its image g is circulant, so
    q0 is on the lattice and is walked before any larger t. The walk at q0
    shows that theta(q0) maps the edges of g onto those of g, so
    theta(t + q0) = theta(t) after theta(q0) maps g onto the image of t:
    the images, and so the outcomes, repeat with period q0 along the
    lattice. Its base case is t = 0, the identity, so every
    theta(k*q0) = theta(q0)^k maps g onto g. The kind depends only on the
    image. A member's least t lies below q0, since subtracting q0 from a
    larger one gives the same image, so every member other than g keeps a
    walked witness. If the walk at q0 fails, the loop raises before
    anything is derived.

    An image other than g is Type-1 when some unit maps R onto it, and its
    kind is decided once, at its least t. A walked map of period 1
    (theta_periodic, at m²*t ≡ 0 (mod n)) is v -> c*v, and PeriodicMap
    checked that c is a unit, so the walk itself showed that c*R, reduced
    reflexively, is the image's connection set, and the image is Type-1.
    Any other image goes to is_adams_isomorphic.
    """
    if error := _type2_refusal(g, m):
        raise error
    n, q = g.n, g.n // m
    full = symmetric_set(g)
    step = _lattice_step(full, m, n)
    walked = [("identity", g)]  # (kind, image) of each lattice t up to q0, ascending
    seen = {g.conn: (g, "identity")}  # connection set -> its one graph value, its kind
    first = {}  # Type-2 image -> the witness of its least t
    q0 = q  # theta(q) is theta(0)
    for t in range(step, q, step):
        image, kind, w = _theta_step(g, m, t, full, seen)
        if kind is None:
            unit = w.bijection.p == 1 or is_adams_isomorphic(g, image) is not None
            kind = "type1" if unit else "type2"
            seen[image.conn] = image, kind
            if not unit:
                first[image] = w
        walked.append((kind, image))
        if image is g:
            q0 = t
            break
    outcomes = tuple((t, *walked[t % q0 // step]) for t in range(0, q, step))
    members = tuple(sorted({g, *first}))
    t_stab = tuple(t for t, _, img in outcomes if img in members)
    return Type2Orbit(base=g, m=m, members=members, t_stabilizer=t_stab, step=step,
                      outcomes=outcomes, witnesses=tuple(first[x] for x in members if x != g))


class Type2GroupReport(NamedTuple):
    """The subgroup tests of a Type-2 orbit's t-stabilizer and the group
    axioms of the induced composition on its members."""

    contains_zero: bool
    closed: bool
    has_inverses: bool
    composition: GroupTable

    @property
    def ok(self) -> bool:
        return self.contains_zero and self.closed and self.has_inverses and self.composition.ok


def type2_group_check(orbit: Type2Orbit) -> Type2GroupReport:
    """Verify the t-stabilizer is a subgroup of Z_{n/m} and that the induced
    composition on members is an abelian group with the base as identity.

    Theta maps at one (n, m) compose by adding t mod n/m (type2_set).
    The members are the circulant images of the t in the stabilizer, each
    reached by its least t, and induced_composition composes them by adding
    those. The composition is closed only when the stabilizer's images are
    exactly the member set: a t whose image is not circulant names no
    member, and a member no t reaches, or an image outside the members,
    means the stabilizer and the member list disagree.
    """
    q = orbit.base.n // orbit.m
    image = {t: orbit.outcome(t)[2] for t in orbit.t_stabilizer}
    ts = image.keys()
    least = {}  # circulant image -> its least t
    for t in sorted(ts):
        if image[t] is not None:
            least.setdefault(image[t], t)
    index = {x: i for i, x in enumerate(least)}
    closed, commutative, identity_ok, associativity = induced_composition(
        tuple(least.values()), lambda a, b: (a + b) % q,
        lambda t: index.get(image.get(t)), index.get(orbit.base))
    return Type2GroupReport(
        contains_zero=0 in ts,
        closed=_closed_under_addition(ts, q),
        has_inverses=all((-a) % q in ts for a in ts),
        composition=GroupTable(closed and set(image.values()) == set(orbit.members),
                               commutative, identity_ok, associativity),
    )


def _closed_under_addition(ts: set, q: int) -> bool:
    """Whether ts ⊆ [0, q) is closed under addition mod q, in O(|ts|).

    A nonempty subset of a finite group that is closed under addition is a
    subgroup: it holds every multiple of each of its elements, 0 and the
    inverses among them. The subgroup ts generates in Z_q is dZ_q for
    d = gcd(q, *ts), so ts is closed iff ts = dZ_q. Every element of ts is
    a multiple of d, so that holds iff ts has q/d elements. The empty set
    is closed.
    """
    return not ts or len(ts) * gcd(q, *ts) == q

