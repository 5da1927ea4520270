"""Invariant checks beyond the acceptance property suites: exhaustive action
law at small orders, orbit symmetry, and round trips."""

import itertools
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circiso import catalog, type2
from circiso.circulant import (
    LAYERS,
    Circulant,
    EdgeGraph,
    Product,
    edge_set,
    is_connected,
    realize,
    steps,
    symmetric_set,
)
from circiso.errors import (InvalidParams, InvariantViolation, NotAPermutation,
                            PreconditionViolation, TargetNotCirculant)
from circiso.iso_oracle import (
    IsoWitness,
    PeriodicMap,
    periodic_form,
    verify_circulant_witness,
    verify_witness,
)
from circiso.residue import reflexive_reduce, units
from circiso.type1 import (
    EXHAUSTIVE_ASSOC_LIMIT,
    GroupTable,
    adams_apply,
    adams_periodic,
    is_adams_isomorphic,
    type1_group_table,
    type1_set,
)
from circiso.type2 import (
    ThetaMap,
    Type2GroupReport,
    _class_period,
    _closed_under_addition,
    _lattice_conn,
    _lattice_step,
    _theta_step,
    classify_theta,
    theta_periodic,
    type2_set,
    unit_lattice,
    valid_type2_ms,
)
from circiso.products import product_coprime, product_witness, scan_conjecture
from circiso.reporting import graph_desc, graph_from_desc

import oracles
from conftest import brute_edges, brute_least_unit, brute_product_edges
from oracles import (
    NotCirculant,
    _composes,
    cartesian_edges,
    detect_circulant,
    endpoint_edges,
    failing_vertex_by_classes,
    lattice_step_by_classes,
    maps_edges_onto,
    periodic_value,
    permute_edges,
    ring_edges,
    theta_compose,
    scan_case_by_full_orbits,
    theta_image_by_difference_sets,
    type2_orbit_by_classification,
)
from test_acceptance import _theta_graph


def test_action_law_exhaustive_small():
    for n, conn in ((16, (1, 2, 7)), (27, (1, 3, 8, 10)), (64, (2, 3, 8, 9))):
        g = Circulant(n, conn)
        for x in units(n):
            for y in units(n):
                assert adams_apply(adams_apply(g, x), y) == adams_apply(g, (x * y) % n)


@st.composite
def graphs(draw, max_n=96):
    n = draw(st.integers(3, max_n))
    half = n // 2
    conn = draw(st.sets(st.integers(1, half), min_size=1, max_size=half))
    return Circulant(n, tuple(sorted(conn)))


def _circulant(g):
    return {"kind": "circulant", "n": g.n, "conn": list(g.conn)}


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=48), graphs(max_n=16))
def test_realize_matches_brute_force(g, h):
    # the enumeration behind verify_witness, and the tuple edge sets the
    # oracles fold, are each compared with an edge set written out from the
    # definition in the form (a, b), 0 <= a < b < n
    assert edge_set(g.factors) == set(realize(g).edges) == brute_edges(g.n, set(g.conn))
    # verify bounds a report by the sizes its descriptors name, from the factors
    e = graph_from_desc(_circulant(g), g.n)
    assert (e.n, e.edge_count) == (g.n, len(realize(g).edges))
    for k in LAYERS.values():  # the 2-ring is a single edge, the 4-ring C_4(1)
        ring = SimpleNamespace(n=k, conn=(1,))
        assert edge_set((k, g)) == brute_product_edges(ring, g)
        assert Product((k, g)).edge_count == len(brute_product_edges(ring, g))
        assert set(cartesian_edges(ring_edges(k), realize(g)).edges) == brute_product_edges(ring, g)
    if gcd(g.n, h.n) == 1:
        product = cartesian_edges(realize(g), realize(h))
        assert product.n == g.n * h.n and set(product.edges) == brute_product_edges(g, h)
        assert edge_set(Product((g, h)).factors) == product.edges
        assert Product((g, h)).edge_count == len(product.edges)
        desc = {"kind": "cartesian", "n": g.n * h.n, "factors": [_circulant(g), _circulant(h)]}
        e = graph_from_desc(desc, product.n)
        assert (e.n, e.edge_count) == (product.n, len(product.edges))


@st.composite
def endpoints(draw):
    """A witness endpoint of each shape a report stores, with its descriptor
    written out: a circulant, a product of two circulants of coprime
    orders, or the prism or four-layer ring of a circulant."""
    kind = draw(st.sampled_from(["circulant", "cartesian", "prism", "c4"]))
    g = draw(graphs(max_n=24))
    if kind == "circulant":
        return g, _circulant(g)
    if kind == "cartesian":
        h = draw(graphs(max_n=12))
        assume(gcd(g.n, h.n) == 1)
        return Product((g, h)), {"kind": "cartesian", "n": g.n * h.n,
                                 "factors": [_circulant(g), _circulant(h)]}
    k = {"prism": 2, "c4": 4}[kind]
    return Product((k, g)), {"kind": kind, "n": k * g.n, "base": _circulant(g)}


def _transposed(f, seed):
    """f with the images of two vertices, chosen by seed, swapped."""
    n = len(f)
    i = seed % n
    j = (i + 1 + seed // n % (n - 1)) % n
    f = list(f)
    f[i], f[j] = f[j], f[i]
    return tuple(f)


def _crt_witness(e):
    """product_witness's CRT witness out of a Product endpoint, where the
    product's preconditions hold."""
    a, b = e.factors
    if isinstance(a, int):
        kind = next(kind for kind, k in LAYERS.items() if k == a)
        return product_witness(kind, b)[1] if b.n % 2 else None
    return product_witness("coprime", a, b)[1] if is_connected(a) and is_connected(b) else None


@settings(max_examples=200, deadline=None)
@given(endpoints(), st.integers(0, 10**6))
def test_endpoint_round_trip(case, seed):
    e, desc = case
    assert graph_desc(e) == desc and graph_from_desc(desc, e.n) == e
    # the edge set the stored descriptors were rebuilt into before the
    # enumeration: realized factors folded by cartesian_edges
    old = endpoint_edges(e)
    assert e.n == old.n and e.edges == old.edges
    # both counts verify reads come from the factors alone
    assert e.edge_count == len(old.edges)
    # the identity with two images transposed is a witness from e onto
    # itself exactly when the transposition is an automorphism of e; the
    # check reads a circulant target and refuses a Product
    f = _transposed(range(e.n), seed)
    automorphism = {tuple(sorted((f[a], f[b]))) for a, b in old.edges} == old.edges
    w = IsoWitness(e, e, periodic_form(f), False, "transposition")
    witnesses = []
    if isinstance(e, Circulant):
        assert verify_witness(w) == automorphism
        witnesses.append(w)
    else:
        with pytest.raises(TargetNotCirculant):
            verify_witness(w)
        crt = _crt_witness(e)
        if crt is not None:
            assert crt.verified
            swapped = periodic_form(_transposed(crt.bijection.expand(), seed))
            witnesses += [crt, IsoWitness(crt.source, crt.target, swapped, False,
                                          "transposition")]
    # the enumerated check agrees with the tuple-set oracle on every one
    for w in witnesses:
        assert verify_witness(w) == maps_edges_onto(endpoint_edges(w.source),
                                                    endpoint_edges(w.target),
                                                    w.bijection.expand())


@st.composite
def crt_witnesses(draw):
    """The CRT embedding witness of a coprime, prism or c4 product."""
    kind = draw(st.sampled_from(["coprime", "prism", "c4"]))
    if kind == "coprime":
        g, h = draw(graphs(max_n=24)), draw(graphs(max_n=16))
        assume(gcd(g.n, h.n) == 1 and is_connected(g) and is_connected(h))
        return product_witness(kind, g, h)[1]
    g = draw(graphs(max_n=45))
    assume(g.n % 2 == 1)
    return product_witness(kind, g)[1]


@st.composite
def crt_cases(draw):
    """A CRT embedding witness of a coprime, prism or c4 product, a target
    and a form of its map. The target is the product's result, the result
    with one offset moved to a residue it lacks, or the circulant whose
    offsets are the shifts of the source's steps, which a check blind to
    the wrap-around inside a step's blocks would accept under the
    identity. The map is the stored PeriodicMap, its image list f as the
    PeriodicMap (p, c) = (n, 0) with head f, that list with two images
    transposed, the identity (in that form, or as a PeriodicMap of any
    period d | n) or an Adam map: the last two have periods that need not
    fit the blocks of the product's second factor."""
    w = draw(crt_witnesses())
    target, n = w.target, w.target.n
    aim = draw(st.sampled_from(["result", "moved", "shifts"]))
    if aim == "moved":
        free = [s for s in range(1, n // 2 + 1) if s not in target.conn]
        assume(free)
        conn = set(target.conn) - {draw(st.sampled_from(target.conn))}
        target = Circulant(n, tuple(sorted(conn | {draw(st.sampled_from(free))})))
    elif aim == "shifts":
        target = Circulant(n, reflexive_reduce([shift for _, shift in steps(w.source.factors)], n))
    form = draw(st.sampled_from(["periodic", "list", "transposed", "identity", "adam"]))
    if form == "identity" and draw(st.booleans()):  # the identity read with period d | n
        d = draw(st.sampled_from(_divisors(n)))
        return w, target, PeriodicMap(n, d, d, tuple(range(d)))
    if form == "periodic":
        f = w.bijection
    elif form == "list":
        f = PeriodicMap(n, n, 0, w.bijection.expand())
    elif form == "transposed":
        f = PeriodicMap(n, n, 0, _transposed(w.bijection.expand(), draw(st.integers(0, 10**6))))
    elif form == "identity":
        f = PeriodicMap(n, n, 0, tuple(range(n)))
    else:
        f = adams_periodic(n, draw(st.sampled_from(units(n))))
    return w, target, f


_C3_X_C4 = product_witness("coprime", Circulant(3, (1,)), Circulant(4, (1,)))[1]


@settings(max_examples=300, deadline=None)
@given(crt_cases())
# the identity with period 2, against the circulant of the source's shifts:
# C_4(1)'s blocks of 4 do not fit the period, which must be lifted
@example((_C3_X_C4, Circulant(12, (1, 4)), PeriodicMap(12, 2, 2, (0, 1))))
def test_product_source_check_matches_edge_check(case):
    """verify_circulant_witness on a Product source, read over one period,
    gives the verdict of verify_witness and of the tuple-set oracle."""
    w, target, f = case
    edge = verify_witness(IsoWitness(w.source, target, f, False, "crt"))
    images = f.expand()
    assert edge == maps_edges_onto(endpoint_edges(w.source), realize(target), images)
    assert verify_circulant_witness(w.source, target, f) == edge
    if target == w.target and images == w.bijection.expand():
        assert edge


@st.composite
def expanded_lists(draw):
    """(source, target, f, origin): f the image list of a theta map, an Adam
    map or a CRT embedding, as it is, with a random transposition, or with
    a transposition or one changed entry in its last quarter, after a long
    periodic prefix. A theta or Adam map's target is its image where that
    is circulant, else the source."""
    maker = draw(st.sampled_from(["theta", "adam", "crt"]))
    if maker == "crt":
        w = draw(crt_witnesses())
        source, target, f = w.source, w.target, w.bijection.expand()
    else:
        source, tm = draw(theta_cases)
        if maker == "theta":
            image = theta_image_by_difference_sets(tm, source)
            target = source if isinstance(image, NotCirculant) else image
            f = theta_periodic(tm.n, tm.m, tm.t).expand()
        else:
            x = draw(st.sampled_from(units(source.n)))
            target, f = adams_apply(source, x), adams_periodic(source.n, x).expand()
    n = len(f)
    change = draw(st.sampled_from(["none", "transposed", "late-transposed", "late-changed"]))
    if change == "transposed":
        f = _transposed(f, draw(st.integers(0, 10**6)))
    elif change != "none":
        late = st.integers(n - max(2, n // 4), n - 1)
        f, j = list(f), draw(late)
        if change == "late-transposed":
            i = draw(late)
            f[i], f[j] = f[j], f[i]
        else:
            f[j] = draw(st.integers(0, n - 1))
        f = tuple(f)
    return source, target, f, f"{maker}/{change}"


@settings(max_examples=400, deadline=None)
@given(expanded_lists())
def test_periodic_reading_of_image_lists_matches_edge_check(case):
    """An image list read by periodic_form, over the least period its
    entries show, and walked by verify_witness gets the verdict of the
    tuple-set oracle on theta, Adam and CRT image lists, tampered or not;
    periodic_form refuses what the oracle refuses."""
    source, target, f, origin = case
    try:
        expected = maps_edges_onto(endpoint_edges(source), realize(target), f)
    except NotAPermutation:
        with pytest.raises(NotAPermutation):
            periodic_form(f)
        return
    assert verify_witness(IsoWitness(source, target, periodic_form(f), False, origin)) == expected


def _inverse(f):
    inverse = [0] * len(f)
    for v, image in enumerate(f):
        inverse[image] = v
    return tuple(inverse)


def _scaling(factors, xs):
    """The map that multiplies each coordinate of a vertex of the product
    of factors by its own unit xs[i] (1 on a ring)."""
    orders = [f if isinstance(f, int) else f.n for f in factors]
    f = []
    for coords in itertools.product(*map(range, orders)):
        v = 0
        for c, x, k in zip(coords, xs, orders):
            v = v * k + c * x % k
        f.append(v)
    return tuple(f)


def _scaled(factors, xs):
    return Product(tuple(f if isinstance(f, int)
                         else Circulant(f.n, reflexive_reduce([x * s for s in f.conn], f.n))
                         for f, x in zip(factors, xs)))


@st.composite
def product_target_witnesses(draw):
    """A witness whose target is a Product, its map transposed or not:
    - the product circulant onto the Product through the inverse CRT map;
    - the Product onto a copy of it whose circulant factors are each
      multiplied by a unit, through the map that multiplies each coordinate
      by its unit (an isomorphism) or through the identity, where the
      edge counts agree but the edge sets may differ."""
    e, _ = draw(endpoints().filter(lambda case: isinstance(case[0], Product)))
    if draw(st.booleans()):
        crt = _crt_witness(e)
        assume(crt is not None)
        source, target, origin = crt.target, e, "inverse-crt"
        f = _inverse(crt.bijection.expand())
    else:
        xs = [1 if isinstance(f, int) else draw(st.sampled_from(units(f.n))) for f in e.factors]
        f = _scaling(e.factors, xs) if draw(st.booleans()) else tuple(range(e.n))
        source, target, origin = e, _scaled(e.factors, xs), "scaling"
    if draw(st.booleans()):
        f = _transposed(f, draw(st.integers(0, 10**6)))
    return IsoWitness(source, target, periodic_form(f), False, origin)


@settings(max_examples=300, deadline=None)
@given(product_target_witnesses())
def test_edge_check_on_product_targets(w):
    # the check reads the target's connection set, so it refuses a Product
    # target, an isomorphism or not
    with pytest.raises(TargetNotCirculant):
        verify_witness(w)


def test_edge_check_on_product_targets_examples():
    # equal edge counts, different edges: C_9(1,4) = 5*C_9(1,2) and
    # C_8(3,4) = 3*C_8(1,4), the latter with an n/2 offset and the 2-ring
    # as half steps; the examples run with and without a transposition.
    # The tuple-set oracle gives each verdict, and verify_witness refuses
    # every one of these Product targets
    cases = []
    for ring, g, x in ((4, Circulant(9, (1, 2)), 5), (2, Circulant(8, (1, 4)), 3),
                       (4, Circulant(8, (1, 4)), 3)):
        source, target = Product((ring, g)), _scaled((ring, g), (1, x))
        a, b = endpoint_edges(source), endpoint_edges(target)
        assert len(a.edges) == len(b.edges) and a.edges != b.edges
        cases += [(source, target, _scaling((ring, g), (1, x)), True),
                  (source, target, tuple(range(source.n)), False)]
    # the product circulant onto the prism and the C_4 layering of C_9(1,2)
    for kind in LAYERS:
        crt = product_witness(kind, Circulant(9, (1, 2)))[1]
        cases.append((crt.target, crt.source, _inverse(crt.bijection.expand()), True))
    for source, target, f, expected in cases:
        assert maps_edges_onto(endpoint_edges(source), endpoint_edges(target), f) == expected
        for g in (f, _transposed(f, 0), _transposed(f, 12345)):
            with pytest.raises(TargetNotCirculant):
                verify_witness(IsoWitness(source, target, periodic_form(g), False, "example"))


def test_nested_cartesian_is_refused():
    # graph_desc writes the factors of a cartesian as circulants, and
    # graph_from_desc reads no deeper tree, however consistent its orders
    c3, c5, c7 = Circulant(3, (1,)), Circulant(5, (1, 2)), Circulant(7, (3,))
    inner = {"kind": "cartesian", "n": 15, "factors": [_circulant(c3), _circulant(c5)]}
    for factors in ([inner, _circulant(c7)], [_circulant(c7), inner]):
        desc = {"kind": "cartesian", "n": 105, "factors": factors}
        with pytest.raises(ValueError, match="cartesian factor has kind 'cartesian'"):
            graph_from_desc(desc, 105)


def test_ring_edges_written_out():
    assert ring_edges(2) == EdgeGraph(2, frozenset({(0, 1)}))
    assert ring_edges(4) == EdgeGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=48))
def test_detect_round_trip(g):
    assert detect_circulant(realize(g)) == g


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=40), st.integers(0, 10**6))
def test_orbit_membership_symmetry(g, seed):
    orbit = type1_set(g)
    member = orbit.members[seed % len(orbit.members)]
    assert set(type1_set(member).members) == set(orbit.members)
    assert is_connected(member) == is_connected(g)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=64), st.integers(0, 10**6))
def test_orbit_stabilizer_relation(g, seed):
    orbit = type1_set(g)
    assert len(orbit.members) * len(orbit.stabilizer) == len(units(g.n))
    # recorded representative really lands on the member
    i = seed % len(orbit.members)
    assert adams_apply(g, orbit.reps[i]) == orbit.members[i]


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=64), st.booleans())
def test_type1_orbit_matches_definition(g, self_paired):
    if self_paired:  # an even order with its self-paired class n/2 in R
        n = g.n + g.n % 2
        g = Circulant(n, tuple(sorted({*g.conn, n // 2})))
    n = g.n

    def times(x):  # x·R, reduced reflexively by hand
        return tuple(sorted({min(x * s % n, n - x * s % n) for s in g.conn}))

    unit_list = [x for x in range(1, n) if gcd(x, n) == 1]
    least = {}
    for x in unit_list:  # ascending, so the first hit is the least unit
        least.setdefault(times(x), x)
    conns = sorted(least)
    # the uncached function, so a cached orbit cannot stand in for it
    orbit = type1_set.__wrapped__(g)
    assert orbit.base == g
    assert orbit.members == tuple(Circulant(n, c) for c in conns)
    assert orbit.reps == tuple(least[c] for c in conns)
    assert orbit.stabilizer == tuple(x for x in unit_list if times(x) == g.conn)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=48), st.data())
def test_group_table_matches_adams_apply(g, data):
    # every verdict against the composition written out: member i o member
    # j is the member adams_apply gives for reps[i]*reps[j]. With one
    # non-base member dropped, the products that land on it are missing,
    # and the composition is not closed
    orbit = type1_set(g)
    if len(orbit.members) > 1 and data.draw(st.booleans()):
        drop = data.draw(st.sampled_from([i for i, m in enumerate(orbit.members) if m != g]))
        orbit = orbit._replace(members=orbit.members[:drop] + orbit.members[drop + 1:],
                               reps=orbit.reps[:drop] + orbit.reps[drop + 1:])
    index = {m: i for i, m in enumerate(orbit.members)}
    k, b = range(len(orbit.reps)), index[g]
    compose = {(i, j): index.get(adams_apply(g, x * y % g.n))
               for i, x in enumerate(orbit.reps) for j, y in enumerate(orbit.reps)}
    table = type1_group_table(orbit)
    assert table.closed == (None not in compose.values())
    assert table.commutative == all(compose[i, j] == compose[j, i] for i in k for j in k)
    assert table.identity_ok == all(compose[b, j] == j == compose[j, b] for j in k)
    if table.closed and len(k) <= EXHAUSTIVE_ASSOC_LIMIT:
        assoc = all(compose[compose[i, j], h] == compose[i, compose[j, h]]
                    for i in k for j in k for h in k)
        assert table.associativity == ("exhaustive" if assoc else "failed")
    else:
        assert table.associativity == "structural"
    assert table.ok == (table.closed and table.commutative and table.identity_ok
                        and table.associativity != "failed")


@st.composite
def _disconnected_graphs(draw):
    """C_n(R) with every offset a multiple of a divisor e > 1 of n, so that
    gcd(n, R) > 1 and the residue classes the solve intersects end at the
    modulus L = n/gcd(n, R) < n. For n divisible by 30, e is a multiple of
    6: with two primes of n outside L, every class below L can be a
    non-unit mod n, and the least unit is then c + k*L for some k > 0."""
    n = draw(st.sampled_from([16, 36, 108, 432, 30, 60, 90, 210, 420]))
    f = 6 if n % 30 == 0 else 1
    e = draw(st.sampled_from([d for d in range(2, n // 2 + 1) if n % d == 0 and d % f == 0]))
    conn = draw(st.sets(st.integers(1, n // (2 * e)), min_size=1, max_size=6))
    return Circulant(n, tuple(sorted(e * c for c in conn)))


@settings(max_examples=500, deadline=None)
@given(graphs(max_n=96),
       st.sampled_from(["any", "self-paired", "no unit", "disconnected", "profile"]),
       st.booleans(), st.data())
def test_least_unit_solve_matches_unit_scan(g, offsets, from_orbit, data):
    """The solver against a scan of every unit, for partners in the orbit
    and drawn at random: on graphs with n/2; on graphs without a unit
    offset, where the least gcd d exceeds 1 and no offset alone fixes a
    unit mod n; on disconnected graphs, whose least unit is lifted from
    residues mod n/gcd(n, R); and on partners with one offset swapped for
    one of another gcd, so that the gcd profiles differ."""
    if offsets == "self-paired":
        n = g.n + g.n % 2
        g = Circulant(n, tuple(sorted({*g.conn, n // 2})))
    elif offsets == "no unit":
        conn = tuple(s for s in g.conn if gcd(s, g.n) > 1)
        assume(conn)
        g = Circulant(g.n, conn)
    elif offsets == "disconnected":
        g = data.draw(_disconnected_graphs())
    n = g.n
    if from_orbit:
        b = adams_apply(g, data.draw(st.sampled_from(units(n))))
    else:
        k = len(g.conn) + data.draw(st.sampled_from([0, 0, 0, 1]))
        b = Circulant(n, tuple(sorted(data.draw(
            st.sets(st.integers(1, n // 2), min_size=min(k, n // 2), max_size=min(k, n // 2))))))
    if offsets == "profile":
        out = data.draw(st.sampled_from(b.conn))
        others = [s for s in range(1, n // 2 + 1) if s not in b.conn and gcd(s, n) != gcd(out, n)]
        assume(others)
        b = Circulant(n, tuple(sorted({*b.conn, data.draw(st.sampled_from(others))} - {out})))
    # the least unit is also the orbit's representative of b, and there is
    # none when b lies outside the orbit
    orbit = type1_set(g)
    least = dict(zip(orbit.members, orbit.reps)).get(b)
    assert is_adams_isomorphic(g, b) == brute_least_unit(g, b) == least


@st.composite
def _shared_factor_graphs(draw):
    """C_n(R) at n = 216, 432, 1000 or 6750 with every offset sharing a
    factor with n, so that the least gcd d exceeds 1 and a unit mod n is
    fixed only by joining the residue classes of several offsets."""
    n = draw(st.sampled_from([216, 432, 1000, 6750]))
    shared = st.integers(1, n // 2).filter(lambda s: gcd(s, n) > 1)
    return Circulant(n, tuple(sorted(draw(st.sets(shared, min_size=2, max_size=10)))))


@settings(max_examples=120, deadline=None)
@given(_shared_factor_graphs(), st.sampled_from(["orbit", "random", "perturbed"]), st.data())
def test_least_unit_solve_matches_unit_scan_with_lifted_candidates(g, partner, data):
    """The solver against a scan of every unit where d > 1: a partner in the
    orbit meets every offset's residue classes, a random one of the same
    size usually leaves an empty intersection within the first offsets, and
    an orbit member with one offset moved empties it later."""
    n = g.n
    b = adams_apply(g, data.draw(st.sampled_from(units(n))))
    if partner == "random":
        b = Circulant(n, tuple(sorted(data.draw(
            st.sets(st.integers(1, n // 2), min_size=len(g.conn), max_size=len(g.conn))))))
    elif partner == "perturbed":
        out = data.draw(st.sampled_from(b.conn))
        new = data.draw(st.integers(1, n // 2).filter(lambda s: s not in b.conn))
        b = Circulant(n, tuple(sorted({*b.conn, new} - {out})))
    assert is_adams_isomorphic(g, b) == brute_least_unit(g, b)


def test_layer_products_verified_at_all_small_orders():
    # the constructors check their CRT embedding edge for edge
    for n in (3, 5, 7, 9, 11, 13):
        product_witness("prism", Circulant(n, (1,)))
        product_witness("c4", Circulant(n, (1,)))
    product_witness("prism", Circulant(9, (1, 2, 4)))
    product_witness("c4", Circulant(7, (1, 3)))


# ---- the m-vertex Type-2 kernel against the generic edge route ----

@st.composite
def _theta_graph_m5(draw):
    """_theta_graph's cases at m = 5. At m = 2 and 3 the least vertex whose
    difference set differs from vertex 0's is always 1; at m = 5 it can be
    2, e.g. C_125(7,28,48,55) under theta(125,5,12)."""
    n = 125 * draw(st.integers(1, 2))
    half = n // 2
    divisible = 5 * draw(st.integers(1, half // 5))
    rest = draw(st.sets(st.integers(1, half), min_size=2, max_size=9))
    conn = tuple(sorted({divisible} | rest))
    assume(len(conn) >= 3)
    t = draw(st.integers(0, n // 5 - 1))
    return Circulant(n, conn), ThetaMap(n, 5, t)


theta_cases = st.one_of(_theta_graph(), _theta_graph_m5())


@settings(max_examples=500, deadline=None)
@given(theta_cases)
def test_theta_kernel_matches_edge_route(case):
    g, tm = case
    cls = classify_theta(tm, g)
    f = theta_periodic(tm.n, tm.m, tm.t).expand()
    edge = detect_circulant(permute_edges(realize(g), f))
    if isinstance(edge, NotCirculant):
        assert (cls.kind, cls.image, cls.failing_vertex) == ("not_circulant", None, edge.vertex)
        return
    if edge == g:
        kind = "identity"
    else:
        kind = "type1" if is_adams_isomorphic(g, edge) is not None else "type2"
        # the classification solves for the unit; the orbit, built by a
        # scan of every unit, is an independent second opinion
        orbit = type1_set(g)
        assert (kind == "type1") == (edge in orbit.members)
        if kind == "type1":
            assert cls.unit == orbit.reps[orbit.members.index(edge)]
    assert (cls.kind, cls.image, cls.failing_vertex) == (kind, edge, None)


# ---- the per-class circulance rule against the difference-set route ----

def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _closed(offsets, p, n):
    """The offsets closed under translation by p, a divisor of n, less 0."""
    return {s % p + k * p for s in offsets for k in range(n // p)} - {0}


@st.composite
def _class_graph(draw, m, n, max_offsets=9):
    """C_n(R) with R drawn from some of the classes mod m, so that other
    classes are empty; half the time R is closed under a shift by a
    multiple p of m dividing n, so that its classes are p-periodic and
    some theta images are circulant; n/2 joins R when drawn."""
    half = n // 2
    residues = draw(st.sets(st.integers(0, m - 1), min_size=1))
    pool = [s for s in range(1, half + 1) if s % m in residues]
    base = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=max_offsets))
    if draw(st.booleans()):
        base = _closed(base, draw(st.sampled_from([d for d in _divisors(n) if d % m == 0])), n)
    if n % 2 == 0 and draw(st.booleans()):
        base.add(half)
    return Circulant(n, reflexive_reduce(base, n))


@st.composite
def _class_case(draw):
    """A _class_graph that meets the Type-2 preconditions, by an offset
    divisible by m joining class 0, and a theta map at its m."""
    m = draw(st.sampled_from([2, 3, 5]))
    n = m**3 * draw(st.integers(1, 250 // m**3))
    g = draw(_class_graph(m, n))
    g = Circulant(n, reflexive_reduce({*g.conn, m * draw(st.integers(1, n // 2 // m))}, n))
    assume(len(g.conn) >= 3)
    return g, ThetaMap(n, m, draw(st.integers(0, n // m - 1)))


@settings(max_examples=500, deadline=None)
@given(st.one_of(_class_case(), theta_cases))
# n/2 lies in class 0 whenever m^3 | n; here with classes 1 and 2 empty
@example((Circulant(108, (3, 6, 54)), ThetaMap(108, 3, 5)))
@example((Circulant(16, (1, 2, 7, 8)), ThetaMap(16, 2, 1)))
# classes 2 and 3 mod 5 are empty
@example((Circulant(125, (1, 5, 24)), ThetaMap(125, 5, 3)))
# classes 2 and 3 mod 5 are not invariant and 1 and 4 are empty: the least
# failing vertex is 5 - 3 = 2, for the largest such r, not 5 - 2 = 3
@example((Circulant(125, (7, 28, 48, 55)), ThetaMap(125, 5, 12)))
def test_classification_matches_difference_set_route(case):
    """classify_theta, which decides by its walk and names a failing vertex
    from the moving offsets, gives what the m per-vertex difference sets
    decide: the same image, or the same failing vertex."""
    g, tm = case
    cls = classify_theta(tm, g)
    ref = theta_image_by_difference_sets(tm, g)
    if isinstance(ref, NotCirculant):
        assert (cls.kind, cls.image, cls.failing_vertex) == ("not_circulant", None, ref.vertex)
    else:
        assert (cls.image, cls.failing_vertex) == (ref, None) and cls.kind != "not_circulant"


@st.composite
def _type2_case(draw):
    """A graph that meets the Type-2 preconditions at a small order."""
    m = draw(st.sampled_from([2, 3, 5]))
    n = m**3 * draw(st.integers(1, {2: 4, 3: 2, 5: 1}[m]))
    g = draw(_class_graph(m, n, max_offsets=6))
    g = Circulant(n, reflexive_reduce({*g.conn, m * draw(st.integers(1, n // 2 // m))}, n))
    assume(len(g.conn) >= 3)
    return g, m


@st.composite
def _small_graph(draw):
    """C_n(R) with 1 to 4 offsets, none forced divisible by any m; half the
    orders are drawn from multiples of m^3 for m = 2, 3 or 5."""
    n = draw(st.one_of(st.sampled_from([8, 16, 24, 27, 54, 64, 125, 216, 250]),
                       st.integers(3, 250)))
    conn = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    return Circulant(n, reflexive_reduce(conn, n))


@st.composite
def _product_case(draw):
    """A connected coprime product of order 216 or 432, C_8 or C_16 times
    C_27 with 3 or 4 offsets per factor, like the cases scan_conjecture
    classifies, and an m it admits."""
    factors = []
    for k in (draw(st.sampled_from([8, 16])), 27):
        conn = draw(st.sets(st.integers(1, k // 2), min_size=3, max_size=4))
        assume(gcd(k, *conn) == 1)
        factors.append(Circulant(k, reflexive_reduce(conn, k)))
    g = product_coprime(*factors)
    ms = valid_type2_ms(g)
    assume(ms)
    return g, draw(st.sampled_from(ms))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_type2_case(), _product_case()), _small_graph())
@example((Circulant(16, (1, 2, 7)), 2), Circulant(16, (2, 4)))
# Type-1 images that 1 + m*t does not map g onto: it is no unit for C_54 at
# t = 3 or for C_250 at t = 5, and for C_108 at t = 6 it is a unit that
# moves the offsets divisible by m
@example((Circulant(54, (2, 6, 9, 11, 16, 25, 27)), 3), Circulant(16, (2, 4)))
@example((Circulant(108, (3, 5, 19, 35, 49, 54)), 3), Circulant(16, (2, 4)))
@example((Circulant(250, (29, 35, 40, 96)), 5), Circulant(16, (2, 4)))
def test_type2_set_outcomes_match_classify_theta(case, other):
    """type2_set classifies and keeps only the t on its lattice, the t that
    its step divides, in ascending order; outcome(t) at every t in
    [0, n/m), those it skips included, is the one classify_theta gives.
    At every lattice t with a circulant image where u = 1 + m*t is a unit,
    u*R is the image exactly when u fixes the offsets divisible by m.
    On that graph and on one with few offsets, m is in valid_type2_ms
    exactly when type2_set refuses it with neither PreconditionViolation
    nor InvalidParams, for every m >= 2 with m^3 <= n."""
    g, m = case
    orbit = type2_set(g, m)
    assert [t for t, _, _ in orbit.outcomes] == list(range(0, g.n // m, orbit.step))
    for t in range(g.n // m):
        cls = classify_theta(ThetaMap(g.n, m, t), g)
        assert orbit.outcome(t) == (t, cls.kind, cls.image)
    s0 = {s for s in symmetric_set(g) if s % m == 0}
    for t, _, image in orbit.outcomes:
        u = 1 + m * t
        if image is not None and gcd(u, g.n) == 1:
            assert (adams_apply(g, u) == image) == ({u * s % g.n for s in s0} == s0)
    for h in (g, other):
        valid = valid_type2_ms(h)
        for k in itertools.takewhile(lambda k: k**3 <= h.n, itertools.count(2)):
            try:
                type2_set(h, k)
            except (PreconditionViolation, InvalidParams):
                assert k not in valid
            else:
                assert k in valid


@st.composite
def _orbit_graph(draw):
    """A graph of order 16 to 1296 that some m admits: n is a multiple of
    m0^3 for m0 = 2, 3 or 5, R is a _class_graph mod m0 plus an offset
    divisible by m0, and half the time its classes are periodic, so that
    the base recurs at some t > 0 and members other than the base occur."""
    m0 = draw(st.sampled_from([2, 3, 5]))
    n = m0**3 * draw(st.integers(-(-16 // m0**3), 1296 // m0**3))
    g = draw(_class_graph(m0, n, max_offsets=5))
    g = Circulant(n, reflexive_reduce({*g.conn, m0 * draw(st.integers(1, n // 2 // m0))}, n))
    assume(len(g.conn) >= 3)
    return g


@settings(max_examples=60, deadline=None)
@given(_orbit_graph())
def test_theta_at_t0_is_the_identity(g):
    """type2_set records t = 0 as the base's identity without a walk; that
    rests on theta(n, m, 0) being x -> x, whose image C_n(D_0) is g's own
    set, at every m the graph admits."""
    full = symmetric_set(g)
    for m in valid_type2_ms(g):
        assert theta_periodic(g.n, m, 0).expand() == tuple(range(g.n))
        assert _lattice_conn(g.n, m, 0, full) == g.conn
        assert type2_set(g, m).outcome(0) == (0, "identity", g)


def _assert_orbit_matches_classification(g, m):
    orbit = type2_set(g, m)
    ref = type2_orbit_by_classification(g, m)
    assert (orbit.members, orbit.t_stabilizer, orbit.step) == (
        ref.members, ref.t_stabilizer, ref.step)
    assert orbit.outcomes == ref.outcomes
    assert [(w.source, w.target, w.bijection, w.verified, w.origin) for w in orbit.witnesses] \
        == [(w.source, w.target, w.bijection, w.verified, w.origin) for w in ref.witnesses]


@settings(max_examples=60, deadline=None)
@given(_orbit_graph())
# the base recurs at t = 9 of six lattice t, after two Type-1 images
@example(Circulant(54, (2, 6, 9, 11, 16, 25, 27)))
# two members at m = 2, the base recurring at t = 4, the third of four lattice t
@example(Circulant(16, (1, 2, 7)))
# every lattice t at m = 2, 3 and 6 (steps 108, 48 and 12) has m²t ≡ 0 (mod n),
# so each walk reads a unit map and each image is built from R alone
@example(Circulant(432, (27, 54, 64, 81, 108, 128, 162, 189, 192)))
def test_type2_set_derived_outcomes_match_classification_at_every_t(g):
    """type2_set walks the lattice t up to the least t > 0 whose image is
    the base and derives the rest; the orbit equals the one built from
    classify_theta at every t in [0, n/m), in members, t_stabilizer, step,
    outcomes and each witness's endpoints, bijection and origin, at every
    m the graph admits."""
    ms = valid_type2_ms(g)
    assert ms
    for m in ms:
        _assert_orbit_matches_classification(g, m)


def test_catalog_orbits_match_classification_at_every_t():
    """The four catalog orbits: the order-432 and order-6750 A seeds, at
    m = 2, 3 and m = 3, 5."""
    cat = catalog.load()
    for g, ms in ((cat.s3_seed("A"), (2, 3)), (cat.s4_seed("A"), (3, 5))):
        for m in ms:
            _assert_orbit_matches_classification(g, m)


_CATALOG = catalog.load()
_S3_SEEDS = tuple(_CATALOG.s3_seed(x) for x in catalog.S3_LETTERS)
_S4_SEEDS = tuple(_CATALOG.s4_seed(x) for x in catalog.S4_LETTERS)


@st.composite
def _connected_type2_graph(draw):
    """A connected C_n(R) with 3 to 7 drawn offsets that some m admits, at
    an order that 2^3 or 3^3 divides; half the time R is closed under a
    shift by a divisor of n, so that its classes are periodic and some
    lattices hold maps of period m."""
    n = draw(st.sampled_from([16, 27, 32, 54, 64, 81, 108, 128, 216, 432]))
    conn = draw(st.sets(st.integers(1, n // 2), min_size=3, max_size=7))
    if draw(st.booleans()):
        conn = _closed(conn, draw(st.sampled_from(_divisors(n)[1:])), n)
    g = Circulant(n, reflexive_reduce(conn, n))
    assume(is_connected(g) and valid_type2_ms(g))
    return g


@settings(max_examples=200, deadline=None)
@given(_connected_type2_graph())
@example(_S3_SEEDS[0])
@example(_S3_SEEDS[1])
@example(_S3_SEEDS[2])
@example(_S3_SEEDS[3])
@example(_S3_SEEDS[4])
@example(_S3_SEEDS[5])
@example(_S4_SEEDS[0])
@example(_S4_SEEDS[1])
@example(_S4_SEEDS[2])
def test_unit_lattice_orbit_has_no_partner(g):
    """Wherever unit_lattice holds, the orbit type2_set builds has no
    member but g, every outcome on its lattice is the identity or Type-1,
    and every lattice t has m²t ≡ 0 (mod n): the scan may skip it."""
    for m in valid_type2_ms(g):
        if unit_lattice(g, m):
            orbit = type2_set(g, m)
            assert orbit.members == (g,)
            assert {kind for _, kind, _ in orbit.outcomes} <= {"identity", "type1"}
            assert all(m * m * t % g.n == 0 for t, _, _ in orbit.outcomes)


def test_catalog_seeds_have_a_unit_lattice_only_at_the_composite_m():
    """The paper's partners are at m = 2, 3 (order 432) and m = 3, 5 (order
    6750); m = 6 and m = 15, which the seeds also admit, have only unit
    maps on their lattices, so they can hold no partner."""
    for seeds, ms in ((_S3_SEEDS, (2, 3, 6)), (_S4_SEEDS, (3, 5, 15))):
        for g in seeds:
            assert valid_type2_ms(g) == ms
            assert [unit_lattice(g, m) for m in ms] == [False, False, True]


@st.composite
def _scan_pair(draw):
    """A connected pair of factors at one of the orders 8 x 27, 16 x 27,
    8 x 81, 27 x 32 and 16 x 81, each with at least 3 offsets: 1 to 3 drawn
    offsets, half the time closed under the shift by k/p, for k the order
    and p its prime, and 0 to 3 more, so that some classes are periodic and
    others not and some factors have partners."""
    pair = []
    for k in draw(st.sampled_from([(8, 27), (16, 27), (8, 81), (27, 32), (16, 81)])):
        conn = draw(st.sets(st.integers(1, k // 2), min_size=1, max_size=3))
        if draw(st.booleans()):
            conn = _closed(conn, k // (2 if k % 2 == 0 else 3), k)
        conn |= draw(st.sets(st.integers(1, k // 2), max_size=3))
        g = Circulant(k, reflexive_reduce(conn, k))
        assume(len(g.conn) >= 3 and gcd(k, *g.conn) == 1)
        pair.append(g)
    return tuple(pair)


@settings(max_examples=100, deadline=None)
@given(_scan_pair())
@example((Circulant(16, (1, 2, 7)), Circulant(27, (1, 3, 8, 10))))
@example((Circulant(16, (1, 2, 4)), Circulant(27, (1, 2, 4))))
def test_scan_case_matches_full_orbit_reference(pair):
    """The scan skips every m where unit_lattice holds and stops the
    product's orbits at its first partner; its case equals the one built
    from every orbit of all three graphs, verdicts and lifts alike."""
    left, right = pair
    [case] = scan_conjecture(left.n, right.n, budget=1, pairs=[pair]).cases
    assert case == scan_case_by_full_orbits(left, right)


@st.composite
def _any_m_case(draw):
    """A _class_graph at a prime or composite m (4 and 6 among them) that
    meets the Type-2 preconditions, and a t in [0, n/m)."""
    m = draw(st.sampled_from([2, 3, 4, 5, 6]))
    n = m**3 * draw(st.integers(1, 250 // m**3))
    g = draw(_class_graph(m, n))
    g = Circulant(n, reflexive_reduce({*g.conn, m * draw(st.integers(1, n // 2 // m))}, n))
    assume(len(g.conn) >= 3)
    return g, m, draw(st.integers(0, n // m - 1))


@settings(max_examples=300, deadline=None)
@given(_any_m_case())
# F is empty: every offset is a multiple of m, so the step is 1
@example((Circulant(64, (4, 8, 12)), 4, 5))
@example((Circulant(216, (6, 36, 108)), 6, 7))
# classes 1 and 5 mod 6 have period 36 = m²t, classes 2 and 4 move: the
# failing vertex is 6 - 4 = 2; the lattice step is 216 / gcd(216, 36) = 6
@example((Circulant(216, (1, 2, 6, 35, 37, 71, 73, 107)), 6, 1))
# classes 1 and 3 mod 4 have period 32 = m²t, class 2 moves: vertex 2 fails
@example((Circulant(128, (1, 2, 4, 31, 33, 63)), 4, 2))
def test_moving_set_matches_per_class_reference(case):
    """The lattice step, unit_lattice and the not-circulant vertex, all read
    from the one moving set F, equal what the m - 1 class periods give:
    the lcm of the periods, and m - r for the largest r with P_r ∤ m²t."""
    g, m, t = case
    step = lattice_step_by_classes(g, m)
    assert _lattice_step(symmetric_set(g), m, g.n) == step
    assert unit_lattice(g, m) == (m * m * step % g.n == 0)
    assert classify_theta(ThetaMap(g.n, m, t), g).failing_vertex == (
        failing_vertex_by_classes(g, m, t))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_class_period_matches_least_fixing_shift(data):
    """_class_period against a scan of every shift d in [1, n], on sets
    closed under a divisor of n, with and without stray elements, and on
    the empty set. Some strays differ from the least element by a shift
    that does not divide n, which _class_period never tries."""
    n = data.draw(st.integers(1, 120))
    p = data.draw(st.sampled_from(_divisors(n)))
    base = data.draw(st.sets(st.integers(0, p - 1), max_size=p))
    stray = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
    cls = {b + k * p for b in base for k in range(n // p)} | stray
    s0 = min(cls, default=n)
    off = [d for d in range(1, n - s0) if n % d]  # s0 + d stays below n, d ∤ n
    if off:
        cls |= {s0 + d for d in data.draw(st.lists(st.sampled_from(off), max_size=2))}
    least = min(d for d in range(1, n + 1) if {(s + d) % n for s in cls} == cls)
    assert _class_period(cls, n) == least
    assert _class_period(set(), n) == 1


@settings(max_examples=500, deadline=None)
@given(theta_cases, st.sampled_from(["theta", "adam"]), st.booleans(), st.integers(0, 10**6))
def test_circulant_witness_check_matches_edge_check(case, maker, swap, seed):
    """On theta maps, Adam maps and either one with two images swapped, the
    connection-set check, the enumerated edge check and the tuple-set
    oracle give one verdict. The target is the map's image where that is
    circulant, else the source."""
    g, tm = case
    n = g.n
    if maker == "theta":
        periodic = theta_periodic(tm.n, tm.m, tm.t)
        image = theta_image_by_difference_sets(tm, g)
        h = g if isinstance(image, NotCirculant) else image
    else:
        u = units(n)
        x = u[seed % len(u)]
        periodic, h = adams_periodic(n, x), adams_apply(g, x)
    f = list(periodic.expand())
    if swap:
        i, j = seed % n, (seed // n + 1 + seed % n) % n
        f[i], f[j] = f[j], f[i]
    edge = verify_witness(IsoWitness(g, h, periodic_form(tuple(f)), False, maker))
    assert edge == maps_edges_onto(realize(g), realize(h), f)
    # the image list as the PeriodicMap (p, c) = (n, 0): every edge is read
    assert verify_circulant_witness(g, h, PeriodicMap(n, n, 0, f)) == edge
    if not swap:  # the periodic form, read in O(p*|R|), gives the same verdict
        assert verify_witness(IsoWitness(g, h, periodic, False, maker)) == edge
        assert verify_circulant_witness(g, h, periodic) == edge


@settings(max_examples=300, deadline=None)
@given(theta_cases, st.integers(0, 10**6))
def test_periodic_maps_expand_to_the_theta_and_adam_formulas(case, seed):
    _, tm = case
    n, m, t = tm.n, tm.m, tm.t
    assert theta_periodic(n, m, t).expand() == tuple((x + (x % m) * m * t) % n for x in range(n))
    u = units(n)
    v = u[seed % len(u)]
    assert adams_periodic(n, v).expand() == tuple(x * v % n for x in range(n))


@st.composite
def _theta_params(draw):
    """(n, m, t) with n <= 96, m > 1 dividing n and t in [0, n/m): t is a
    multiple of n/gcd(n, m²), where m²t ≡ 0 (mod n), or any t."""
    n = draw(st.integers(2, 96))
    m = draw(st.sampled_from(_divisors(n)[1:]))
    if draw(st.booleans()):
        d = n // gcd(n, m * m)
        return n, m, draw(st.sampled_from(range(0, n // m, d)))
    return n, m, draw(st.integers(0, n // m - 1))


@settings(max_examples=1000, deadline=None)
@given(_theta_params())
@example((16, 2, 4))  # a return of C_16(1,2,7): v -> 9v
@example((432, 2, 108))  # m²t = n: v -> 217v
@example((12, 2, 3))  # the prime 3 | n does not divide m, so 3 | t: 1 + mt = 7 is a unit
def test_theta_periodic_is_theta_at_its_least_period(params):
    """theta_periodic(n, m, t) expands to x -> x + (x mod m)*m*t, has
    period 1 exactly when m²t ≡ 0 (mod n), and is then v -> (1 + mt)*v."""
    n, m, t = params
    f = theta_periodic(n, m, t)
    assert f.expand() == tuple((x + (x % m) * m * t) % n for x in range(n))
    assert (f.p == 1) == (m * m * t % n == 0)
    if f.p == 1:
        assert f.c == (1 + m * t) % n and f.head == (0,)
    else:
        assert (f.p, f.c) == (m, m)


@st.composite
def _unit_step_graph(draw):
    """C_n(R) with n a multiple of m0^3 for m0 = 2, 3 or 5, up to 1296, and
    R drawn at random."""
    m0 = draw(st.sampled_from([2, 3, 5]))
    n = m0**3 * draw(st.integers(1, 1296 // m0**3))
    conn = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=8))
    return Circulant(n, tuple(sorted(conn)))


@settings(max_examples=300, deadline=None)
@given(_unit_step_graph())
@example(Circulant(432, (27, 54, 64, 81, 108, 128, 162, 189, 192)))
@example(Circulant(16, (1, 2, 7)))
def test_unit_step_image_is_the_class_formula(g):
    """At every m with m^3 | n and every t in [0, n/m) with m²t ≡ 0 (mod n),
    where theta(n, m, t) has period 1 and _theta_step reads R alone, the
    image _theta_step walks onto is C_n(D_0) for _lattice_conn's D_0 over
    R ∪ -R, which is (1 + m*t)*R reduced reflexively."""
    n, full = g.n, symmetric_set(g)
    for m in itertools.takewhile(lambda m: m**3 <= n, itertools.count(2)):
        if n % m**3:
            continue
        for t in range(0, n // m, n // gcd(n, m * m)):
            assert theta_periodic(n, m, t).p == 1
            image, _, _ = _theta_step(g, m, t, full, {})
            assert image.conn == _lattice_conn(n, m, t, full) \
                == reflexive_reduce([(1 + m * t) * s for s in g.conn], n)


@st.composite
def _periodic_params(draw):
    """(n, p, c, head) with p | n and p head values: drawn at random, or
    with c a multiple of p and heads from distinct classes mod p, where
    bijections are common."""
    n = draw(st.integers(1, 48))
    p = draw(st.sampled_from(_divisors(n)))
    if draw(st.booleans()):
        c = draw(st.integers(-2 * n, 2 * n))
        head = draw(st.lists(st.integers(-2 * n, 2 * n), min_size=p, max_size=p))
    else:
        c = p * draw(st.integers(-n, n))
        classes = draw(st.permutations(range(p)))
        head = [r + p * draw(st.integers(-n, n)) for r in classes]
    return n, p, c, tuple(head)


@settings(max_examples=500, deadline=None)
@given(_periodic_params())
@example((16, 2, 2, (0, 3)))  # theta(16, 2, 1)
@example((16, 2, 6, (0, 1)))  # c != p, but gcd(c, n) = p: a bijection
@example((16, 2, 4, (0, 1)))  # gcd(c, n) = 4: two vertices of a class merge
@example((4, 2, 1, (0, 2)))  # a permutation, but not f(x + 2) = f(x) + 1 round the cycle
# c != p with p >= n/p, so no fewer classes than rows, and p = n, where c = 0
@example((16, 4, 12, (3, -2, 9, 16)))
@example((18, 6, 12, (5, 0, 13, 2, 9, 4)))
@example((6, 6, -6, (5, -2, 13, 0, 9, 2)))
def test_periodic_map_criterion_matches_its_expansion(params):
    """PeriodicMap accepts (n, p, c, head) exactly when the map written out
    from its definition permutes Z_n and keeps f(x+p) = f(x) + c all the
    way round the cycle; it then expands to that map."""
    n, p, c, head = params
    f = tuple((head[x % p] + (x // p) * c) % n for x in range(n))
    bijective = sorted(f) == list(range(n)) and all(
        f[(x + p) % n] == (f[x] + c) % n for x in range(n))
    if bijective:
        periodic = PeriodicMap(n, p, c, head)
        assert periodic.expand() == f
        values = [periodic_value(periodic, x) for x in range(-n, 2 * n)]
        assert values == [f[x % n] for x in range(-n, 2 * n)]
    else:
        with pytest.raises(NotAPermutation):
            PeriodicMap(n, p, c, head)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closure_under_addition_matches_pairwise_definition(data):
    """The O(|ts|) closure test against every pair, on subgroups dZ_q,
    subgroups with an element or two added or removed, and random sets."""
    q = data.draw(st.integers(1, 60))
    ts = set(range(0, q, data.draw(st.sampled_from(_divisors(q)))))
    ts ^= data.draw(st.sets(st.integers(0, q - 1), max_size=2))
    if data.draw(st.booleans()):
        ts = data.draw(st.sets(st.integers(0, q - 1)))
    assert _closed_under_addition(ts, q) == all((a + b) % q in ts for a in ts for b in ts)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.booleans(), st.data())
def test_theta_compose_check_matches_expanded_composition(m, k, wrong, data):
    """The m-value check of theta_compose against the composition of the
    expanded n-entry maps, for the true composite t and for a wrong one."""
    n = m**3 * k
    ts = st.integers(0, n // m - 1)
    a, b = ThetaMap(n, m, data.draw(ts)), ThetaMap(n, m, data.draw(ts))
    t = (a.t + b.t) % (n // m)
    if wrong:
        t = (t + data.draw(st.integers(1, n // m - 1))) % (n // m)
    c = ThetaMap(n, m, t)
    pa, pb, pc = (theta_periodic(n, m, x.t).expand() for x in (a, b, c))
    expanded = all(pc[x] == pa[pb[x]] for x in range(n))
    assert _composes(a, b, c) == expanded == (not wrong)
    assert theta_compose(a, b).t == (a.t + b.t) % (n // m)


def test_theta_compose_raises_on_a_failed_check(monkeypatch):
    monkeypatch.setattr(oracles, "_composes", lambda a, b, c: False)
    with pytest.raises(InvariantViolation):
        theta_compose(ThetaMap(432, 3, 16), ThetaMap(432, 3, 32))


@st.composite
def _graph_and_map(draw):
    """A graph and a PeriodicMap of its vertices that is neither a theta nor
    an Adam map: a random permutation f as (p, c) = (n, 0) with head f, or
    x -> a*(x + p*c[x mod p]) for a unit a and p | n, which shifts each
    class mod p by its own multiple of p, as (p, a*p) with its first p
    images for head."""
    g = draw(graphs(max_n=96))
    n = g.n
    if draw(st.booleans()):
        return g, PeriodicMap(n, n, 0, tuple(draw(st.permutations(range(n)))))
    p = draw(st.sampled_from(_divisors(n)))
    a = draw(st.sampled_from(units(n)))
    c = draw(st.lists(st.integers(0, n // p - 1), min_size=p, max_size=p))
    return g, PeriodicMap(n, p, a * p, tuple(a * (x + p * c[x]) for x in range(p)))


@settings(max_examples=300, deadline=None)
@given(_graph_and_map())
def test_period_reduced_check_on_other_maps(case):
    """The connection-set check reads only p positions per offset; on maps
    outside the theta and Adam families it still gives the verdict of both
    edge checks, and so does the map's (n, 0) form, which reads every edge.
    The target is the image where that is circulant, else the source. The
    image list is read back as a map that expands to it, whichever period
    the probe picks on these lists."""
    g, f = case
    images = f.expand()
    read = periodic_form(images)
    assert read.expand() == images
    image = detect_circulant(permute_edges(realize(g), images))
    h = g if isinstance(image, NotCirculant) else image
    edge = verify_witness(IsoWitness(g, h, read, False, "map"))
    assert edge == maps_edges_onto(realize(g), realize(h), images)
    assert verify_circulant_witness(g, h, f) == edge
    assert verify_circulant_witness(g, h, PeriodicMap(g.n, g.n, 0, images)) == edge


# ---- type2_group_check on tampered orbits against a check of every pair ----

_GROUP_ORBITS = [
    (Circulant(16, (1, 2, 7)), 2),
    (Circulant(27, (1, 3, 8, 10)), 3),
    (Circulant(8, (1, 2, 4)), 2),  # its one other circulant image is Type-1
    (Circulant(16, (2, 4, 6)), 2),  # every t fixes it
    (Circulant(432, (16, 27, 48, 54, 128, 160, 189)), 2),
    (Circulant(432, (16, 27, 48, 54, 128, 160, 189)), 3),
]


def _group_verdicts_by_pairs(g, m, ts, orbit_members):
    """type2_group_check's verdicts written out: the subgroup tests over
    every pair of t in ts, and the induced composition over every pair of
    members, and over every triple for associativity when it is closed on
    at most EXHAUSTIVE_ASSOC_LIMIT members ("structural" otherwise). The
    members are the circulant images of the t in ts, each represented by
    its least t, with every image taken from classify_theta; a t in ts
    whose image is not circulant names no member, and the composition is
    closed only when the members are orbit_members."""
    q = g.n // m
    image = {t: classify_theta(ThetaMap(g.n, m, t), g).image for t in ts}
    least = {}
    for t in sorted(ts):
        least.setdefault(image[t], t)
    members = [x for x in least if x is not None]

    def compose(a, b):
        s = (least[a] + least[b]) % q
        return image[s] if s in ts else None

    closed = all(compose(a, b) in members for a in members for b in members)
    if closed and len(members) <= EXHAUSTIVE_ASSOC_LIMIT:
        associative = all(compose(compose(a, b), c) == compose(a, compose(b, c))
                          for a in members for b in members for c in members)
        associativity = "exhaustive" if associative else "failed"
    else:
        associativity = "structural"
    return Type2GroupReport(
        contains_zero=0 in ts,
        closed=all((a + b) % q in ts for a in ts for b in ts),
        has_inverses=all((q - a) % q in ts for a in ts),
        composition=GroupTable(
            closed=set(least) == set(orbit_members) and closed,
            commutative=all(compose(a, b) == compose(b, a) for a in members for b in members),
            identity_ok=all(g in least and compose(g, b) == b == compose(b, g) for b in members),
            associativity=associativity,
        ),
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(_GROUP_ORBITS), _type2_case()),
       st.sampled_from(["none", "drop member", "drop member only", "drop t", "add t"]),
       st.data())
def test_type2_group_check_matches_pairwise_check_on_tampered_orbits(case, tamper, data):
    """Every verdict of type2_group_check equals the pairwise check, on the
    orbit type2_set gives and on four tamperings of it: a non-base member
    dropped together with the t that map onto it, a non-base member dropped
    with its t kept, one t dropped from the t-stabilizer, and one t in
    [0, n/m) outside it added."""
    g, m = case
    orbit = type2_set(g, m)
    q = g.n // m
    ts = orbit.t_stabilizer
    if tamper in ("drop member", "drop member only"):
        others = [x for x in orbit.members if x != g]
        assume(others)
        drop = data.draw(st.sampled_from(others))
        if tamper == "drop member":
            ts = tuple(t for t in ts if orbit.outcome(t)[2] != drop)
        orbit = orbit._replace(members=tuple(x for x in orbit.members if x != drop),
                               t_stabilizer=ts)
    elif tamper == "drop t":
        drop = data.draw(st.sampled_from(ts))
        orbit = orbit._replace(t_stabilizer=tuple(t for t in ts if t != drop))
    elif tamper == "add t":
        free = [t for t in range(q) if t not in ts]
        assume(free)
        orbit = orbit._replace(t_stabilizer=tuple(sorted({*ts, data.draw(st.sampled_from(free))})))
    report = type2.type2_group_check(orbit)
    expected = _group_verdicts_by_pairs(g, m, set(orbit.t_stabilizer), orbit.members)
    assert report == expected
    assert report.ok == all(v and v != "failed" for v in (*expected[:3], *expected.composition))
    if tamper == "none":
        assert report.ok
    if tamper == "drop member only":
        assert not report.composition.closed
