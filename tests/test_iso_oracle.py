from itertools import permutations

import pytest

from circiso.circulant import Circulant, EdgeGraph, realize
from circiso.products import Product
from circiso.errors import NotAPermutation, OrderMismatch
from circiso.iso_oracle import IsoWitness, make_witness, verify_circulant_witness, verify_witness
from circiso.type2 import ThetaMap, theta_vertex_map

from oracles import BudgetExceeded, maps_edges_onto, search_isomorphism


def test_theta_bijection_is_a_witness():
    src = Circulant(16, (1, 2, 7))
    tgt = Circulant(16, (2, 3, 5))
    w = make_witness(src, tgt, theta_vertex_map(ThetaMap(16, 2, 2)), "theta(m=2,t=2)")
    assert w.verified


def test_identity_witness():
    g = Circulant(16, (1, 2, 7))
    assert make_witness(g, g, range(16), "identity").verified
    p = Product((2, Circulant(5, (1, 2))))
    assert make_witness(p, p, range(10), "identity").verified


def test_identity_across_different_graphs_fails():
    src = Circulant(16, (1, 2, 7))
    tgt = Circulant(16, (2, 3, 5))
    assert not make_witness(src, tgt, range(16), "identity").verified


def test_verify_witness_errors():
    a = Circulant(16, (1, 2, 7))
    b = Circulant(10, (1, 2))
    with pytest.raises(OrderMismatch):
        verify_witness(IsoWitness(a, b, tuple(range(16)), False, "x"))
    with pytest.raises(NotAPermutation):
        verify_witness(IsoWitness(a, a, (0,) * 16, False, "x"))
    with pytest.raises(OrderMismatch):
        maps_edges_onto(realize(a), realize(b), tuple(range(16)))
    with pytest.raises(NotAPermutation):
        maps_edges_onto(realize(a), realize(a), (0,) * 16)
    # EdgeGraph does not reject malformed edges on construction: for the
    # tuple-set oracle, a target whose edge count matches but that holds a
    # reversed, out-of-range or looped edge must fail under every bijection
    src = realize(Circulant(5, (1,)))
    good = src.edges - {(0, 4)}
    for bad in ((4, 0), (0, 5), (0, 0)):
        tgt = EdgeGraph(5, good | {bad})
        assert len(tgt.edges) == len(src.edges)
        assert not any(maps_edges_onto(src, tgt, f) for f in permutations(range(5)))


def test_verify_circulant_witness_accepts_theta_and_identity():
    a, b = Circulant(16, (1, 2, 7)), Circulant(16, (2, 3, 5))
    assert verify_circulant_witness(a, b, theta_vertex_map(ThetaMap(16, 2, 2)))
    assert verify_circulant_witness(a, a, tuple(range(16)))
    assert not verify_circulant_witness(a, b, tuple(range(16)))


def test_verify_circulant_witness_rejections():
    a, b = Circulant(16, (1, 2, 7)), Circulant(16, (2, 3, 5))
    f = list(theta_vertex_map(ThetaMap(16, 2, 2)))
    with pytest.raises(NotAPermutation):
        verify_circulant_witness(a, b, [f[0]] + f[:-1])  # repeats an image
    with pytest.raises(NotAPermutation):
        verify_circulant_witness(a, b, f[:-1] + [16])  # image out of range
    with pytest.raises(NotAPermutation):
        verify_circulant_witness(a, b, f[:-1] + [-1])
    with pytest.raises(NotAPermutation):
        verify_circulant_witness(a, b, f[:-1])  # wrong length
    with pytest.raises(OrderMismatch):
        verify_circulant_witness(a, Circulant(10, (1, 2, 3)), f)
    # C_16(1,2,8) has degree 5: the edge counts differ, whatever the map
    c = Circulant(16, (1, 2, 8))
    assert not verify_circulant_witness(a, c, tuple(range(16)))
    assert not verify_circulant_witness(c, a, tuple(range(16)))
    assert not verify_witness(IsoWitness(a, c, tuple(range(16)), False, "x"))


def test_search_finds_type2_pair_16():
    w = search_isomorphism(realize(Circulant(16, (1, 2, 7))), realize(Circulant(16, (2, 3, 5))))
    assert w is not None and w.verified


def test_search_finds_type2_pairs_27():
    a = realize(Circulant(27, (1, 3, 8, 10)))
    b = realize(Circulant(27, (3, 4, 5, 13)))
    c = realize(Circulant(27, (2, 3, 7, 11)))
    assert search_isomorphism(a, b) is not None
    assert search_isomorphism(b, c) is not None


def test_search_distinguishes_cycle_from_matching():
    assert search_isomorphism(realize(Circulant(4, (1,))), realize(Circulant(4, (2,)))) is None


def test_search_self_is_identity():
    eg = realize(Circulant(12, (1, 3, 4)))
    w = search_isomorphism(eg, eg)
    assert w is not None and w.bijection == tuple(range(12))


def test_search_degree_mismatch_absent():
    assert search_isomorphism(realize(Circulant(8, (1, 2))), realize(Circulant(8, (1, 4)))) is None


def test_search_budget_exceeded_is_loud():
    a = realize(Circulant(16, (1, 2, 7)))
    b = realize(Circulant(16, (2, 3, 5)))
    with pytest.raises(BudgetExceeded):
        search_isomorphism(a, b, node_budget=3)


def test_search_agrees_on_orbit_pairs():
    from circiso.type1 import type1_set

    base = Circulant(16, (1, 2, 7))
    for member in type1_set(base).members:
        assert search_isomorphism(realize(base), realize(member)) is not None


def test_search_none_for_different_edge_counts():
    assert (
        search_isomorphism(realize(Circulant(8, (1,))), realize(Circulant(8, (1, 2)))) is None
    )
