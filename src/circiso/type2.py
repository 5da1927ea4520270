"""The theta transform family: vertex permutations of Z_n parameterized by
(n, m, t), image classification against the source graph, and Type-2 orbits
with their group structure."""

from itertools import count, takewhile
from math import gcd, lcm
from typing import NamedTuple, Optional, Union

from .circulant import Circulant, NotCirculant, symmetric_set
from .errors import CircisoError, InvalidParams, ParamMismatch, PreconditionViolation
from .iso_oracle import IsoWitness, PeriodicMap, walk_or_raise
from .residue import check_modulus, reflexive_reduce
from .type1 import _scaled, induced_composition, is_adams_isomorphic


class ThetaMap(NamedTuple("ThetaMap", [("n", int), ("m", int), ("t", int)])):
    """Parameters (n, m, t) of the vertex map x -> x + (x mod m)*m*t mod n.

    Valid only when m > 1, m^3 divides n and 0 <= t < n/m; the induced map
    is then always a permutation of Z_n (classes mod m are preserved, and
    the shift inside a class is constant). Since theta(x + m) = theta(x) + m,
    the map is the PeriodicMap theta_periodic(n, m, t).
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


_THETA_ORIGIN = "theta(m={},t={})"


def theta_periodic(n: int, m: int, t: int) -> PeriodicMap:
    """The vertex map of theta(n, m, t) as the PeriodicMap
    (p, c, head) = (m, m, (i + i*m*t mod n for i < m)); its construction
    checks that it is a bijection."""
    mt = m * t
    return PeriodicMap(n, m, m, tuple(i + i * mt for i in range(m)))


class ThetaClassification(NamedTuple):
    """Outcome of applying one theta transform to one circulant graph.

    kind is one of "identity", "type1", "type2", "not_circulant". A
    circulant outcome always carries the image set and a verified witness;
    "type1" also records the least unit, "not_circulant" the first vertex
    where the difference sets disagree.
    """

    kind: str
    image: Optional[Circulant] = None
    unit: Optional[int] = None
    failing_vertex: Optional[int] = None
    witness: Optional[IsoWitness] = None


def _order_refusal(n: int, m: int) -> Optional[InvalidParams]:
    """The error refusing m at order n, or None when m > 1 and m^3 | n."""
    if m <= 1:
        return InvalidParams(f"m must be > 1, got {m}")
    if n % m**3:
        return InvalidParams(f"m^3 = {m ** 3} does not divide n = {n}")
    return None


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
    ascending; () for fewer than 3 offsets."""
    ms = takewhile(lambda m: m**3 <= g.n, count(2))
    return tuple(m for m in ms if _type2_refusal(g, m) is None)


def theta_image(tm: ThetaMap, g: Circulant) -> Union[Circulant, NotCirculant]:
    """Decide whether theta maps C_n(R) onto a circulant, one residue class
    of offsets at a time; a circulant image is C_n(D_0) of _lattice_conn, g
    itself when D_0 reduces to g's own set.

    The image vertex theta(u) has difference set
    D_u = {theta(u+s) - theta(u) : s in R ∪ -R}. Since
    theta(x+m) = theta(x) + m, D_u depends only on u mod m. Split R ∪ -R
    into the classes S_r = {s : s ≡ r (mod m)}; for u in [0, m) and s in
    S_r, theta(u+s) - theta(u) = s + ((u+r) mod m - u)*m*t, which is
    s + r*m*t, less a further m²*t exactly when u + r >= m. Every value
    keeps its residue r mod m (m | n), so D_u is the disjoint union over r
    of these translates of S_r, and D_u = D_0 iff S_r + m²*t = S_r for every
    r >= m - u. The image is circulant iff that holds at u = m - 1, i.e.
    iff every S_r with r in [1, m) is invariant under translation by
    m²*t mod n; then D_0 (_lattice_conn) is its connection set. Otherwise
    the least failing u is m - r for the largest non-invariant r. Image
    vertex x has a preimage congruent to x mod m, so u is also the least
    image vertex whose difference set differs from vertex 0's, the vertex
    that an edge-level circulance test on the transformed edge set reports.
    """
    n, m = tm.n, tm.m
    full = symmetric_set(g)
    classes = _offset_classes(full, m)
    shift = m * m * tm.t % n
    for r in range(m - 1, 0, -1):
        if {(s + shift) % n for s in classes[r]} != classes[r]:
            return NotCirculant(m - r)
    conn = _lattice_conn(n, m, tm.t, full)
    return g if conn == g.conn else Circulant(n, conn)


def _lattice_conn(n: int, m: int, t: int, full) -> tuple[int, ...]:
    """D_0 = {s + (s mod m)*m*t : s in full} reduced reflexively, for full
    the symmetric offset set R ∪ -R. D_0 is the image's difference set at
    theta(0) = 0, so it is the connection set of the image whenever the
    image is circulant. It holds no 0, since theta is a bijection fixing 0."""
    mt = m * t
    return reflexive_reduce((s + (s % m) * mt for s in full), n)


def _offset_classes(full, m: int) -> list[set]:
    """The classes S_r = {s in full : s ≡ r (mod m)}, indexed by r in [0, m)."""
    classes = [set() for _ in range(m)]
    for s in full:
        classes[s % m].add(s)
    return classes


def _class_period(cls, n: int) -> int:
    """Least d > 0 with cls + d = cls mod n; 1 for the empty set.

    The translations fixing cls form a subgroup of Z_n, and every subgroup
    of Z_n is dZ_n for its least positive element d, which divides n: n
    itself fixes cls, and the remainder of n by d is again in the subgroup
    and below d, so it is 0. For s0 in cls, s0 + d must lie in cls, so the
    least d is some s - s0 (mod n) that divides n, or n when no such
    candidate fixes cls. Only those candidates are tried.
    """
    if not cls:
        return 1
    s0 = min(cls)
    for d in sorted({d for s in cls if (d := (s - s0) % n) and n % d == 0}):
        if all((s + d) % n in cls for s in cls):
            return d
    return n


def _lattice_step(classes, n: int) -> int:
    """The least q > 0 such that theta(n, m, t) maps g onto a circulant
    exactly when q | t.

    By theta_image the image is circulant iff m²*t fixes every S_r, r in
    [1, m). The translations fixing S_r are the multiples of its period
    P_r | n, so the condition is P | m²*t for P = lcm of the P_r, that is
    P / gcd(P, m²) | t. classes are the S_r of _offset_classes, r in [0, m).
    """
    m = len(classes)
    p = lcm(*(_class_period(c, n) for c in classes[1:]))
    return p // gcd(p, m * m)


def classify_theta(tm: ThetaMap, g: Circulant) -> ThetaClassification:
    """Decide whether theta maps g onto a circulant and classify the image.

    Detection runs on the residue classes of R (theta_image), which also
    names the first failing vertex of an image that is not circulant. A
    circulant image C_n(D_0) comes with the theta bijection as witness,
    walked edge for edge on the two connection sets (iso_oracle.walk_or_raise)
    before it is attached; a failed walk raises InvariantViolation. The witness
    endpoints are g and the image themselves, so classification builds no
    edge set. A Type-1 image records the least unit mapping g onto it
    (is_adams_isomorphic).
    """
    if tm.n != g.n:
        raise ParamMismatch(f"transform order {tm.n} != graph order {g.n}")
    if error := _type2_refusal(g, tm.m):
        raise error
    image = theta_image(tm, g)
    if isinstance(image, NotCirculant):
        return ThetaClassification("not_circulant", failing_vertex=image.vertex)
    origin = _THETA_ORIGIN.format(tm.m, tm.t)
    f = walk_or_raise(g, image, theta_periodic(g.n, tm.m, tm.t), origin)
    witness = IsoWitness(g, image, f, True, origin)
    if image == g:
        return ThetaClassification("identity", image, witness=witness)
    x = is_adams_isomorphic(g, image)
    return ThetaClassification("type2" if x is None else "type1", image, x, witness=witness)


class Type2Orbit(NamedTuple):
    """Type-2 set of a graph w.r.t. m: the base plus every Type-2 image.

    theta(n, m, t) maps the base onto a circulant exactly when step divides
    t (_lattice_step), so outcomes records (t, kind, image) for those t
    alone, ascending, and outcome(t) answers for any t in [0, n/m). The
    outcomes repeat with the least t > 0 whose image is the base; those up
    to it were walked edge for edge and the later ones are derived from
    them (type2_set). The t_stabilizer collects every t whose image is
    circulant and lies in the member set, and is a subgroup of Z_{n/m}
    under addition. witnesses holds, for each member after the base is left
    out and in member order, the witness of its least t with kind "type2",
    walked by iso_oracle.walk_or_raise.
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

    The lattice t are walked in ascending order up to and including q0, the
    least t > 0 whose image is g (or all of them, when there is none), and
    each walked t costs one image build and one edge walk. The image is
    C_n(D_0) (_lattice_conn), one graph value per distinct connection set,
    g itself for g's own set. The walk (iso_oracle.walk_or_raise, which
    classify_theta runs too) is verify_circulant_witness of the theta
    bijection theta_periodic(n, m, t) from g onto it, so no membership
    claim rests on the offset classes alone; the map's construction still
    checks that it is a bijection, which the walk's soundness needs. Each
    member keeps, as its witness, the bijection of its least t, and only
    those get an IsoWitness. The walk also decides, for
    this one t, that the image is circulant: if theta maps g onto some
    circulant C_n(S), then S ∪ -S is the image's difference set at
    theta(0) = 0, which is D_0, so the image is C_n(D_0) and the walk
    passes; and if the walk passes, theta maps the edges of g exactly onto
    those of C_n(D_0), a circulant.
    A lattice t whose image is not circulant, which would contradict
    _lattice_step, therefore fails its walk, and that raises
    InvariantViolation naming t, with no assert.

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
    lattice. The kind depends only on the image. A member's least t lies
    below q0, since subtracting q0 from a larger one gives the same image,
    so every member keeps a walked witness. If the walk at q0 fails, the
    loop raises before anything is derived.

    An image other than g is Type-1 when some unit maps R onto it. The kind
    is decided once per distinct image, first by trying the unit
    u = 1 + m*t: if gcd(u, n) = 1 and u*R, reduced reflexively, is the
    image's connection set S, u is the certificate (it is the test
    adams_apply(g, u) == image, without building the graph). Only when it
    fails does is_adams_isomorphic search for one. Why u almost always
    works: on the lattice m²*t fixes every S_r, r in [1, m). For
    s = r + m*j in S_r, u*s = s + r*m*t + m²*t*j lies in S_r + r*m*t, the
    image's class r (theta_image), and u ≡ 1 (mod m) keeps every class.
    So a unit u maps R ∪ -R onto the image's set exactly when u*S_0 = S_0.
    No verdict rests on this; it only explains why the solve is rarely run.
    """
    if error := _type2_refusal(g, m):
        raise error
    n, q = g.n, g.n // m
    full = symmetric_set(g)
    step = _lattice_step(_offset_classes(full, m), n)
    walked = []  # (kind, image) of each walked t, ascending
    seen = {g.conn: (g, "identity")}  # connection set -> its one graph value, its kind
    first = {}  # Type-2 image -> (t, bijection) of its least t
    q0 = q  # theta(q) is theta(0)
    for t in range(0, q, step):
        conn = _lattice_conn(n, m, t, full)
        image, kind = seen.get(conn) or (Circulant(n, conn), None)
        f = walk_or_raise(g, image, theta_periodic(n, m, t), _THETA_ORIGIN, m, t)
        if kind is None:
            u = 1 + m * t
            unit = (gcd(u, n) == 1 and _scaled(g, u) == conn
                    or is_adams_isomorphic(g, image) is not None)
            kind = "type1" if unit else "type2"
            seen[conn] = image, kind
            if not unit:
                first[image] = t, f
        walked.append((kind, image))
        if t and image is g:
            q0 = t
            break
    outcomes = tuple((t, *walked[t % q0 // step]) for t in range(0, q, step))
    members = tuple(sorted({g, *first}))
    t_stab = tuple(t for t, _, img in outcomes if img in members)
    witnesses = (IsoWitness(g, x, first[x][1], True, _THETA_ORIGIN.format(m, first[x][0]))
                 for x in members if x != g)
    return Type2Orbit(base=g, m=m, members=members, t_stabilizer=t_stab, step=step,
                      outcomes=outcomes, witnesses=tuple(witnesses))


class Type2GroupReport(NamedTuple):
    """Subgroup and abelian-group checks for a Type-2 orbit."""

    contains_zero: bool
    closed: bool
    has_inverses: bool
    composition_closed: bool
    abelian: bool
    identity_ok: bool

    @property
    def ok(self) -> bool:
        return (self.contains_zero and self.closed and self.has_inverses
                and self.composition_closed and self.abelian and self.identity_ok)


def type2_group_check(orbit: Type2Orbit) -> Type2GroupReport:
    """Verify the t-stabilizer is a subgroup of Z_{n/m} and that the induced
    composition on members is abelian with the base as identity.

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
    composition = induced_composition(tuple(least.values()), lambda a, b: (a + b) % q,
                                      lambda t: index.get(image.get(t)), index.get(orbit.base))
    return Type2GroupReport(
        contains_zero=0 in ts,
        closed=_closed_under_addition(ts, q),
        has_inverses=all((-a) % q in ts for a in ts),
        composition_closed=composition.closed and set(image.values()) == set(orbit.members),
        abelian=composition.commutative,
        identity_ok=composition.identity_ok,
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

