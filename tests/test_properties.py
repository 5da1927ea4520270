"""Invariant checks beyond the acceptance property suites: exhaustive action
law at small orders, orbit symmetry, and round trips."""

from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circiso.circulant import (
    WITNESS_EDGE_CAP,
    Circulant,
    EdgeGraph,
    NotCirculant,
    detect_circulant,
    is_connected,
    permute_edges,
    realize,
)
from circiso.iso_oracle import IsoWitness, verify_circulant_witness, verify_witness
from circiso.residue import units
from circiso.type1 import adams_apply, adams_vertex_map, is_adams_isomorphic, type1_set
from circiso.type2 import ThetaMap, classify_theta, theta_image, theta_vertex_map
from circiso.products import cartesian_edges, product_c4, product_prism, ring_edges
from circiso.reporting import cartesian_desc, circulant_desc, desc_size

from conftest import brute_edges, brute_product_edges
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


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=48), graphs(max_n=16))
def test_realize_matches_brute_force(g, h):
    # EdgeGraph does not check its edges, and verify_witness is sound only
    # on edges (a, b) with 0 <= a < b < n: every builder is compared here
    # with an edge set written out in that form
    assert set(realize(g).edges) == brute_edges(g.n, set(g.conn))
    # verify bounds a report by the sizes its descriptors name, before building
    assert desc_size(circulant_desc(g), g.n, WITNESS_EDGE_CAP) == (g.n, len(realize(g).edges))
    if gcd(g.n, h.n) == 1:
        product = cartesian_edges(realize(g), realize(h))
        assert product.n == g.n * h.n and set(product.edges) == brute_product_edges(g, h)
        assert desc_size(cartesian_desc(g, h), product.n, WITNESS_EDGE_CAP) == (
            product.n, len(product.edges))


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


def test_layer_products_verified_at_all_small_orders():
    # the constructors check their CRT embedding edge for edge
    for n in (3, 5, 7, 9, 11, 13):
        product_prism(Circulant(n, (1,)))
        product_c4(Circulant(n, (1,)))
    product_prism(Circulant(9, (1, 2, 4)))
    product_c4(Circulant(7, (1, 3)))


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
    edge = detect_circulant(permute_edges(realize(g), theta_vertex_map(tm)))
    if isinstance(edge, NotCirculant):
        assert (cls.kind, cls.image, cls.failing_vertex) == ("not_circulant", None, edge.vertex)
        return
    if edge == g:
        kind = "identity"
    else:
        kind = "type1" if is_adams_isomorphic(g, edge) is not None else "type2"
    assert (cls.kind, cls.image, cls.failing_vertex) == (kind, edge, None)


@settings(max_examples=500, deadline=None)
@given(theta_cases, st.sampled_from(["theta", "adam"]), st.booleans(), st.integers(0, 10**6))
def test_circulant_witness_check_matches_edge_check(case, maker, swap, seed):
    """On theta maps, Adam maps and either one with two images swapped, the
    connection-set check gives the edge-level verdict. The target is the
    map's image where that is circulant, else the source."""
    g, tm = case
    n = g.n
    if maker == "theta":
        f = list(theta_vertex_map(tm))
        image = theta_image(tm, g)
        h = g if isinstance(image, NotCirculant) else image
    else:
        u = units(n)
        x = u[seed % len(u)]
        f, h = list(adams_vertex_map(n, x)), adams_apply(g, x)
    if swap:
        i, j = seed % n, (seed // n + 1 + seed % n) % n
        f[i], f[j] = f[j], f[i]
    edge = verify_witness(IsoWitness(realize(g), realize(h), tuple(f), False, maker))
    assert verify_circulant_witness(g, h, f) == edge
