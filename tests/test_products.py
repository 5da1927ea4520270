import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circiso import iso_oracle, products, reproduce, type2
from circiso.circulant import WITNESS_EDGE_CAP, Circulant, EdgeGraph, Product
from circiso.errors import EvenOrder, InvariantViolation, NotConnected, NotCoprime, OrderMismatch
from circiso.iso_oracle import verify_witness
from circiso.products import SCAN_HEADER, product_coprime, product_witness, scan_conjecture
from circiso.reporting import graph_from_desc
from circiso.residue import reflexive_reduce
from circiso.type1 import adams_apply
from circiso.type2 import unit_lattice, valid_type2_ms

from conftest import brute_product_edges
from oracles import counterexamples, edge, make_witness, search_isomorphism

X1 = Circulant(16, (1, 2, 7))
X2 = Circulant(16, (2, 3, 5))
Y1 = Circulant(27, (1, 3, 8, 10))
Y2 = Circulant(27, (3, 4, 5, 13))
Y3 = Circulant(27, (2, 3, 7, 11))


def test_six_products_at_432():
    expect = {
        (X1, Y1): (16, 27, 48, 54, 128, 160, 189),
        (X1, Y3): (27, 32, 48, 54, 112, 176, 189),
        (X1, Y2): (27, 48, 54, 64, 80, 189, 208),
        (X2, Y1): (16, 48, 54, 81, 128, 135, 160),
        (X2, Y3): (32, 48, 54, 81, 112, 135, 176),
        (X2, Y2): (48, 54, 64, 80, 81, 135, 208),
    }
    for (g, h), conn in expect.items():
        assert product_coprime(g, h) == Circulant(432, conn)


def test_product_at_6750():
    g = Circulant(250, (5, 9, 41, 59, 91, 109))
    assert product_coprime(Y1, g) == Circulant(
        6750, (135, 243, 250, 750, 1107, 1593, 2000, 2457, 2500, 2943)
    )


def test_product_symmetry_and_counts():
    p = product_coprime(X1, Y1)
    assert product_coprime(Y1, X1) == p
    assert p.n == X1.n * Y1.n
    assert p.degree == X1.degree + Y1.degree
    assert len(Product((X1, Y1)).edges) == len(p.edges) == p.edge_count


def test_product_embedding_exact(monkeypatch):
    p, w = product_witness("coprime", X1, Y1)
    assert p == product_coprime(X1, Y1)
    assert w.verified and w.origin == "crt-embedding(16x27)"
    assert w.source == Product((X1, Y1)) and w.target == p
    assert w.source.edges == brute_product_edges(X1, Y1)
    # a wrong result set must fail the embedding check
    assert not make_witness(w.source, adams_apply(p, 5), w.bijection.expand(), w.origin).verified
    # and a product formula gone wrong raises, for every kind, even under -O
    real = products.crt_circulant
    monkeypatch.setattr(products, "crt_circulant", lambda *args: adams_apply(real(*args), 5))
    for kind, args in (("coprime", (X1, Y1)), ("prism", (Circulant(7, (1, 2)),)),
                       ("c4", (Circulant(7, (1, 2)),))):
        with pytest.raises(InvariantViolation):
            product_witness(kind, *args)


def test_reproduce_rechecks_product_embeddings_edge_by_edge(monkeypatch):
    # product_witness checks its CRT embedding on connection sets; section 3
    # re-checks each of its six embeddings with the edge-level check, and a
    # failed re-check fails the embedding's assertion
    origins = []

    def failing(w):
        origins.append(w.origin)
        return not w.origin.startswith("crt-embedding")

    monkeypatch.setattr(reproduce, "verify_witness", failing)
    checks = reproduce.section3()
    assert origins.count("crt-embedding(16x27)") == 6
    embeddings = [c for c in checks if c["name"].startswith("explicit product embedding")]
    assert len(embeddings) == 6 and not any(c["passed"] for c in embeddings)


def test_product_coprime_errors():
    with pytest.raises(NotCoprime):
        product_coprime(Circulant(16, (1,)), Circulant(24, (1,)))
    with pytest.raises(NotConnected):
        product_coprime(Circulant(16, (2, 4)), Y1)


def test_prism_products():
    assert product_witness("prism", Circulant(5, (1, 2)))[0] == Circulant(10, (2, 4, 5))
    assert product_witness("prism", Circulant(3, (1,)))[0] == Circulant(6, (2, 3))
    assert product_witness("prism", Circulant(7, (1,)))[0] == Circulant(14, (2, 7))
    with pytest.raises(EvenOrder):
        product_witness("prism", Circulant(10, (1,)))


def test_c4_products():
    assert product_witness("c4", Circulant(3, (1,)))[0] == Circulant(12, (3, 4))
    assert product_witness("c4", Circulant(5, (1, 2)))[0] == Circulant(20, (4, 5, 8))
    assert product_witness("c4", Circulant(5, (1,)))[0] == Circulant(20, (4, 5))
    with pytest.raises(EvenOrder):
        product_witness("c4", Circulant(6, (1,)))


def test_layer_product_counts():
    g = Circulant(5, (1, 2))
    prism = product_witness("prism", g)[0]
    assert prism.n == 2 * g.n and prism.degree == g.degree + 1
    ring = product_witness("c4", g)[0]
    assert ring.n == 4 * g.n and ring.degree == g.degree + 2


def test_product_witness_cap():
    # a product with up to WITNESS_EDGE_CAP edges carries its witness; one
    # more offset and it is computed by formula only, with no witness
    g, h = Circulant(16, (1, 2, 3, 4, 5)), Circulant(625, (1, 2, 3, 4, 5))
    result, w = product_witness("coprime", g, h)
    assert result.edge_count == WITNESS_EDGE_CAP and w.verified
    result, w = product_witness("coprime", Circulant(16, (1, 2, 3, 4, 5, 6)), h)
    assert result.edge_count > WITNESS_EDGE_CAP and w is None
    # sparse products past the old order cap of 10,000 carry one too
    result, w = product_witness("coprime", Circulant(81, (1, 2)), Circulant(125, (1, 3)))
    assert result.n == 10_125 and w.verified
    # layered orders past the old oracle cap of 60 now carry a witness
    result, w = product_witness("c4", Circulant(45, (1, 7)))
    assert result == Circulant(180, (4, 28, 45)) and w.verified


def layered_graph(kind, g):
    """The prism or four-layer ring of copies of g, written out here:
    vertex (layer, v) is layer*N + v."""
    k, N = {"prism": 2, "c4": 4}[kind], g.n
    es = set()
    for layer in range(k):
        for v in range(N):
            es.update(edge(layer * N + v, layer * N + (v + r) % N) for r in g.conn)
            es.add(edge(layer * N + v, (layer + 1) % k * N + v))
    return EdgeGraph(k * N, frozenset(es))


@st.composite
def layered_cases(draw):
    n = draw(st.integers(1, 22)) * 2 + 1  # odd N in [3, 45]
    conn = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=n // 2))
    return draw(st.sampled_from(["prism", "c4"])), Circulant(n, tuple(sorted(conn)))


@settings(max_examples=60, deadline=None)
@given(layered_cases())
def test_layered_witness_is_the_crt_embedding(case):
    kind, g = case
    result, w = product_witness(kind, g)
    k = products.LAYERS[kind]
    assert result == Circulant(k * g.n, reflexive_reduce([k * r for r in g.conn] + [g.n], k * g.n))
    assert w.verified and verify_witness(w)
    assert w.source == Product((k, g)) and w.target == result
    assert w.source.edges == layered_graph(kind, g).edges
    desc = {"kind": kind, "n": k * g.n, "base": {"kind": "circulant", "n": g.n,
                                                 "conn": list(g.conn)}}
    e = graph_from_desc(desc, w.source.n)
    assert (e.n, e.edge_count) == (w.source.n, len(w.source.edges))
    assert w.origin == f"crt-embedding({k}x{g.n})"
    if result.n <= 60:
        # the backtracking oracle independently confirms the same endpoints
        found = search_isomorphism(w.source, w.target)
        assert found is not None and found.verified


def test_valid_type2_ms():
    assert valid_type2_ms(Circulant(432, (16, 27, 48, 54, 128, 160, 189))) == (2, 3, 6)
    assert valid_type2_ms(Circulant(16, (1, 2, 7))) == (2,)
    assert valid_type2_ms(Circulant(16, (1, 3, 7))) == ()


def test_scan_conjecture_seed_pair():
    report = scan_conjecture(16, 27, budget=1, pairs=[(X1, Y1)])
    assert len(report.cases) == 1
    case = report.cases[0]
    assert case.left_type2 and case.right_type2 and case.product_type2
    assert case.consistent
    assert case.lifts and all(l.kind == "type2" for l in case.lifts)
    # the order-16 witness (m=2, t=2) lifts to t = 2*27 = 54 on the product
    lifted = {(l.m, l.t, l.lifted_t) for l in case.lifts}
    assert (2, 2, 54) in lifted
    assert not counterexamples(report)


def test_scan_computes_each_orbit_once(monkeypatch):
    # a factor's orbits feed both its verdict and its lifts, and the
    # product's stop at the first m with a partner
    calls = []
    real = products.type2_set

    def recording(g, m):
        calls.append((g, m))
        return real(g, m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("circiso") and getattr(mod, "type2_set", None) is real:
            monkeypatch.setattr(mod, "type2_set", recording)
    [case] = scan_conjecture(16, 27, budget=1, pairs=[(X1, Y1)]).cases
    assert calls == [(X1, 2), (Y1, 3), (case.product, 2)]
    # factors with and without partners; some products have none for any m.
    # An m whose lattice holds only unit maps (type2.unit_lattice) builds no
    # orbit, so a pair where no m can hold a partner builds none at all
    lefts = (X1, Circulant(16, (1, 2, 4)), Circulant(16, (1, 4, 6)))
    rights = (Y1, Circulant(27, (1, 2, 4)), Circulant(27, (1, 3, 6)))
    for left, right in itertools.product(lefts, rights):
        product = product_coprime(left, right)
        expected = [(g, m) for g in (left, right)
                    for m in valid_type2_ms(g) if not unit_lattice(g, m)]
        for m in valid_type2_ms(product):  # up to the product's first partner
            if not unit_lattice(product, m):
                expected.append((product, m))
                if len(real(product, m).members) > 1:
                    break
        calls.clear()
        scan_conjecture(16, 27, budget=1, pairs=[(left, right)])
        assert calls == expected


def test_scan_walks_no_identity(monkeypatch):
    # one case of the seed pair walks 10 maps: the CRT embedding, the lattice
    # t > 0 of each orbit up to the base's return (t = 2 and 4 of X1 at
    # m = 2, t = 1, 2 and 3 of Y1 at m = 3, t = 54 and 108 of the product at
    # m = 2) and the two lifts; t = 0 of an orbit is the identity, not walked.
    # The returns have m²t ≡ 0 (mod n) and are walked as the unit maps
    # v -> (1 + mt)v of period 1; the CRT map has period 27. The 4 new
    # images are reached by maps of period m, so type2_set solves for a unit
    # onto each once (type2.is_adams_isomorphic), and classify_theta solves
    # once more for each of the two lifts, whose images are not the product
    calls, solves = [], []
    real, real_solve = iso_oracle.verify_circulant_witness, type2.is_adams_isomorphic
    monkeypatch.setattr(iso_oracle, "verify_circulant_witness",
                        lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(type2, "is_adams_isomorphic",
                        lambda g, h: solves.append((g.n, h)) or real_solve(g, h))
    [case] = scan_conjecture(16, 27, budget=1, pairs=[(X1, Y1)]).cases
    assert len(calls) == 10
    assert [(f.n, f.p) for _, _, f in calls] == [
        (432, 27), (16, 2), (16, 1), (27, 3), (27, 3), (27, 1), (432, 2), (432, 1), (432, 2),
        (432, 3)]
    assert [(f.n, f.c) for _, _, f in calls if f.p == 1] == [(16, 9), (27, 10), (432, 217)]
    assert [n for n, _ in solves] == [16, 27, 27, 432, 432, 432]
    assert len(set(solves[:4])) == 4  # one solve per new image
    assert [(l.m, l.t, l.lifted_t) for l in case.lifts] == [(2, 2, 54), (3, 1, 16)]


def test_scan_builds_no_orbit_where_every_lattice_is_unit_maps(monkeypatch):
    # C_16(1,2,4) at m = 2 and the product C_432 at m = 2, 3 and 6 have
    # m²·step ≡ 0 (mod n), and C_27(1,2,4) has no offset divisible by 3, so
    # no orbit is built and the case walks only its CRT embedding
    walks, built = [], []
    real, real_set = iso_oracle.verify_circulant_witness, products.type2_set
    monkeypatch.setattr(iso_oracle, "verify_circulant_witness",
                        lambda *args: walks.append(args) or real(*args))
    monkeypatch.setattr(products, "type2_set",
                        lambda g, m: built.append((g, m)) or real_set(g, m))
    left, right = Circulant(16, (1, 2, 4)), Circulant(27, (1, 2, 4))
    [case] = scan_conjecture(16, 27, budget=1, pairs=[(left, right)]).cases
    assert built == []
    assert [(f.n, f.p) for _, _, f in walks] == [(432, 27)]
    assert not (case.left_type2 or case.right_type2 or case.product_type2)
    assert case.lifts == ()
    assert [m for g in (left, case.product) for m in valid_type2_ms(g)] == [2, 2, 3, 6]


def test_scan_refuses_pairs_of_other_orders(monkeypatch):
    # a lift scales t by the other factor's order, so a pair whose orders
    # are not (n1, n2) would be lifted wrongly: scanned as 16 x 27, the m = 3
    # witness t = 1 of C_27(1,3,8,10) beside C_8(1,2,3) would lift to 16,
    # where the true lift is 8. Every given pair is checked before any case
    monkeypatch.setattr(products, "product_coprime", None)
    bad = (Circulant(8, (1, 2, 3)), Y1)
    for pairs in ([bad], [(X1, Y1), bad], [(Y1, X1)]):
        with pytest.raises(OrderMismatch, match=r"^pair orders \(\d+, \d+\) != \(16, 27\)$"):
            scan_conjecture(16, 27, budget=1, pairs=pairs)


def test_scan_enumerates_sets_in_combination_order():
    # offset sets are drawn lazily but in itertools.combinations order (by
    # size, then lexicographically), so scan reports stay the same
    for n in (16, 17):
        half = n // 2
        expected = [Circulant(n, c) for size in range(1, half + 1)
                    for c in itertools.combinations(range(1, half + 1), size)
                    if math.gcd(n, *c) == 1]
        assert list(products._connected_sets(n)) == expected


def _full_draw_diagonal_pairs(n1, n2, limit):
    """The diagonal order with both sides drawn in full before the first pair."""
    left = list(itertools.islice(products._connected_sets(n1), limit + 1))
    right = list(itertools.islice(products._connected_sets(n2), limit + 1))
    return [(left[i], right[s - i]) for s in range(len(left) + len(right) - 1)
            for i in range(min(s, len(left) - 1), -1, -1) if s - i < len(right)]


def test_diagonal_pairs_match_a_full_draw():
    # drawing each side only as far as the diagonals reach changes no pair,
    # whether the limit or an enumeration runs out first: the first
    # limit + 1 pairs are those of both sides capped at limit + 1 sets, so
    # a scan of budget limit, which reads at most limit + 1 pairs, needs
    # no cap on either side
    for n1, n2 in ((3, 4), (5, 7), (7, 8), (9, 4)):
        for limit in range(40):
            assert (list(itertools.islice(products._diagonal_pairs(n1, n2), limit + 1))
                    == _full_draw_diagonal_pairs(n1, n2, limit)[:limit + 1])


def test_diagonal_pairs_under_a_huge_limit():
    # the first 55 pairs fill diagonals 0..9, so they read the first ten
    # sets of each side, and draw no more
    first = list(itertools.islice(products._diagonal_pairs(64, 81), 55))
    assert first == _full_draw_diagonal_pairs(64, 81, 9)[:55]
    assert len({a for a, _ in first}) == len({b for _, b in first}) == 10


def test_scan_conjecture_trivial_orders():
    report = scan_conjecture(3, 4, budget=4)
    assert report.cases
    assert all(not c.product_type2 and c.consistent for c in report.cases)
    assert "experimental" in SCAN_HEADER


def test_scan_conjecture_budget():
    report = scan_conjecture(3, 4, budget=1)
    assert len(report.cases) == 1
    assert report.exhausted  # more pairs existed than the budget allowed
    with pytest.raises(NotCoprime):
        scan_conjecture(4, 6, budget=16)
