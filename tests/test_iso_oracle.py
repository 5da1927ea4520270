import os
import pathlib
import subprocess
import sys
from itertools import permutations

import pytest

import circiso
from circiso import iso_oracle, products
from circiso.circulant import Circulant, EdgeGraph, realize
from circiso.products import Product
from circiso.errors import InvariantViolation, NotAPermutation, OrderMismatch, TargetNotCirculant
from circiso.iso_oracle import (
    IsoWitness,
    PeriodicMap,
    verify_circulant_witness,
    verify_witness,
)
from circiso.type1 import adams_periodic, type1_set
from circiso.type2 import ThetaMap, classify_theta, theta_periodic, type2_set

from oracles import (
    BudgetExceeded,
    endpoint_edges,
    make_witness,
    maps_edges_onto,
    search_isomorphism,
)


def test_theta_bijection_is_a_witness():
    src = Circulant(16, (1, 2, 7))
    tgt = Circulant(16, (2, 3, 5))
    w = make_witness(src, tgt, theta_periodic(16, 2, 2).expand(), "theta(m=2,t=2)")
    assert w.verified


A1 = Circulant(432, (16, 27, 48, 54, 128, 160, 189))
C7 = Circulant(7, (1, 2))


@pytest.mark.parametrize("produce, message", [
    (lambda: classify_theta(ThetaMap(432, 2, 54), A1), r"theta\(m=2,t=54\) does not map C_432\("),
    # type2_set walks t = 0 first
    (lambda: type2_set(A1, 2), r"theta\(m=2,t=0\) does not map C_432\("),
    # the orbit is built afresh, not read from the cache
    (lambda: type1_set.__wrapped__(A1), r"adam\(x=\d+\) does not map C_432\("),
    # a Product source is named by its factors, a ring of length k as C_k(1)
    (lambda: products.product_witness("coprime", Circulant(16, (1, 2, 7)),
                                      Circulant(27, (1, 3, 8, 10))),
     r"crt-embedding\(16x27\) does not map C_16\(1,2,7\) x C_27\(1,3,8,10\) onto C_432\("),
    (lambda: products.product_witness("prism", C7),
     r"crt-embedding\(2x7\) does not map C_2\(1\) x C_7\(1,2\) onto C_14\("),
    (lambda: products.product_witness("c4", C7),
     r"crt-embedding\(4x7\) does not map C_4\(1\) x C_7\(1,2\) onto C_28\("),
], ids=["classify_theta", "type2_set", "type1_set", "coprime", "prism", "c4"])
def test_every_producer_walks_or_raises(monkeypatch, produce, message):
    # one walk-or-raise: every certificate circiso produces is walked by
    # iso_oracle.walk_or_raise, and a failed walk raises, naming the map
    monkeypatch.setattr(iso_oracle, "verify_circulant_witness", lambda g, h, f: False)
    with pytest.raises(InvariantViolation, match=f"^{message}"):
        produce()


def test_identity_witness():
    g = Circulant(16, (1, 2, 7))
    assert make_witness(g, g, range(16), "identity").verified
    # the checks read the target's connection set, so a Product target is
    # refused
    p = Product((2, Circulant(5, (1, 2))))
    with pytest.raises(TargetNotCirculant):
        make_witness(p, p, range(10), "identity")


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
    # an image list f is the PeriodicMap (p, c) = (n, 0) with head f
    a, b = Circulant(16, (1, 2, 7)), Circulant(16, (2, 3, 5))
    identity = PeriodicMap(16, 16, 0, tuple(range(16)))
    assert verify_circulant_witness(a, b, PeriodicMap(16, 16, 0,
                                                      theta_periodic(16, 2, 2).expand()))
    assert verify_circulant_witness(a, a, identity)
    assert not verify_circulant_witness(a, b, identity)


def test_verify_circulant_witness_rejections():
    a, b = Circulant(16, (1, 2, 7)), Circulant(16, (2, 3, 5))
    f = list(theta_periodic(16, 2, 2).expand())
    with pytest.raises(NotAPermutation):
        PeriodicMap(16, 16, 0, [f[0]] + f[:-1])  # repeats an image
    with pytest.raises(NotAPermutation):
        PeriodicMap(16, 16, 0, f[:-1] + [16])  # 16 is vertex 0 again
    with pytest.raises(NotAPermutation):
        PeriodicMap(16, 16, 0, f[:-1] + [-1])  # -1 is vertex 15 again
    with pytest.raises(NotAPermutation):
        PeriodicMap(16, 16, 0, f[:-1])  # wrong length
    with pytest.raises(OrderMismatch):
        verify_circulant_witness(a, Circulant(10, (1, 2, 3)), PeriodicMap(16, 16, 0, f))
    # C_16(1,2,8) has degree 5: the edge counts differ, whatever the map
    c = Circulant(16, (1, 2, 8))
    identity = PeriodicMap(16, 16, 0, tuple(range(16)))
    assert not verify_circulant_witness(a, c, identity)
    assert not verify_circulant_witness(c, a, identity)
    assert not verify_witness(IsoWitness(a, c, tuple(range(16)), False, "x"))
    # the identity carries every edge of C_16(1,2) onto an edge of
    # C_16(1,2,3), but does not cover the target: only the degrees tell
    sub, sup = Circulant(16, (1, 2)), Circulant(16, (1, 2, 3))
    assert not verify_circulant_witness(sub, sup, identity)
    assert not verify_witness(IsoWitness(sub, sup, tuple(range(16)), False, "x"))


def test_malformed_periodic_maps_raise_under_optimize():
    # python -O strips assert statements; a PeriodicMap that is no
    # bijection of Z_n must still be refused when it is built, so neither
    # check ever reads one
    bad = [(16, 3, 3, (0, 1, 2)),  # p does not divide n
           (16, 2, 2, (0,)),  # head shorter than p
           (16, 0, 0, ()),
           (16, 2, 4, (0, 1)),  # gcd(c, n) = 4 != p: a class folds onto itself
           (16, 2, 3, (0, 1)),  # gcd(c, n) = 1: not well defined round the cycle
           (16, 2, 2, (0, 2))]  # both heads in one class mod p
    code = ("import sys\n"
            "from circiso.errors import NotAPermutation\n"
            "from circiso.iso_oracle import PeriodicMap\n"
            f"for args in {bad!r}:\n"
            "    try:\n"
            "        PeriodicMap(*args)\n"
            "    except NotAPermutation:\n"
            "        continue\n"
            "    sys.exit(f'accepted {args}')\n")
    src = pathlib.Path(circiso.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert res.returncode == 0, res.stderr
    a = Circulant(16, (1, 2, 7))
    with pytest.raises(NotAPermutation):  # a map of Z_8 on a graph of order 16
        verify_circulant_witness(a, a, PeriodicMap(8, 1, 1, (0,)))


def test_product_source_maps_raise_under_optimize():
    # the connection-set check of a product embedding must refuse, with
    # NotAPermutation and no assert statement, a periodic map that is no
    # bijection or does not fit Z_n, among them the (p, c) = (n, 0) form of
    # an image list that is no permutation, and both checks a Product
    # target with TargetNotCirculant; a bijection whose period fits
    # no block of the product is read over a lifted period and gets the
    # edge-level verdict
    code = ("import sys\n"
            "from circiso.circulant import Circulant\n"
            "from circiso.errors import NotAPermutation, TargetNotCirculant\n"
            "from circiso.iso_oracle import IsoWitness, PeriodicMap, verify_circulant_witness,"
            " verify_witness\n"
            "from circiso.products import product_witness\n"
            "result, w = product_witness('coprime', Circulant(16, (1, 2, 7)),"
            " Circulant(27, (1, 3, 8, 10)))\n"
            "f = list(w.images())\n"
            "bad = [lambda: PeriodicMap(432, 5, 5, (0, 1, 2, 3, 4)),\n"
            "       lambda: PeriodicMap(432, 27, 54, tuple(range(0, 432, 16))),\n"
            "       lambda: PeriodicMap(432, 27, 27, (0,) * 27),\n"
            "       lambda: verify_circulant_witness(w.source, result, PeriodicMap(216, 1, 1, (0,))),\n"
            "       lambda: PeriodicMap(432, 432, 0, [f[1]] + f[1:]),\n"
            "       lambda: PeriodicMap(432, 432, 0, f[:-1])]\n"
            "for i, call in enumerate(bad):\n"
            "    try:\n"
            "        call()\n"
            "    except NotAPermutation:\n"
            "        continue\n"
            "    sys.exit(f'case {i} raised nothing')\n"
            "# a Product target is refused by both checks\n"
            "for call in (lambda: verify_circulant_witness(w.source, w.source, w.bijection),\n"
            "             lambda: verify_witness(IsoWitness(w.source, w.source, w.bijection,"
            " False, 'x'))):\n"
            "    try:\n"
            "        call()\n"
            "    except TargetNotCirculant:\n"
            "        continue\n"
            "    sys.exit('a Product target was not refused')\n"
            "for g in (PeriodicMap(432, 1, 1, (0,)), PeriodicMap(432, 432, 0, range(432))):\n"
            "    edge = verify_witness(IsoWitness(w.source, result, g, False, 'x'))\n"
            "    if edge or verify_circulant_witness(w.source, result, g) != edge:\n"
            "        sys.exit('a misaligned map was not read over its lifted period')\n"
            "# the identity with period 2 on C_3(1) x C_4(1), whose C_4 steps have\n"
            "# blocks of 4: read without lifting, it would pass C_12(1,4)\n"
            "source = product_witness('coprime', Circulant(3, (1,)), Circulant(4, (1,)))[1].source\n"
            "f, h = PeriodicMap(12, 2, 2, (0, 1)), Circulant(12, (1, 4))\n"
            "if verify_circulant_witness(source, h, f) or verify_witness(IsoWitness(source, h,"
            " f, False, 'x')):\n"
            "    sys.exit('the identity was taken for an isomorphism')\n"
            "if not verify_circulant_witness(w.source, result, w.bijection):\n"
            "    sys.exit('the CRT embedding failed')\n")
    src = pathlib.Path(circiso.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert res.returncode == 0, res.stderr


def test_verify_witness_counts_half_steps_once():
    # each map carries every source edge onto a target edge, but the source
    # has fewer edges: only a half step's count, n/2 and not n, tells. The
    # perfect matching C_4(2) sits in the 4-cycle, and the prism of the
    # triangle (its 2-ring a half step) in the octahedron C_6(1,2)
    for source, target, f in ((Circulant(4, (2,)), Circulant(4, (1,)), (0, 1, 3, 2)),
                              (Product((2, Circulant(3, (1,)))), Circulant(6, (1, 2)),
                               (0, 1, 2, 4, 5, 3))):
        a, b = endpoint_edges(source), endpoint_edges(target)
        assert {tuple(sorted((f[x], f[y]))) for x, y in a.edges} < b.edges
        assert not verify_witness(IsoWitness(source, target, f, False, "x"))


def test_image_lists_are_read_over_their_maps_periods():
    # the lists the commands store, a theta map (whose images wrap round
    # Z_n, so some differences are c - n), an Adam map and a CRT embedding,
    # are read over the period of the map they were expanded from
    crt = products.product_witness("coprime", Circulant(16, (1, 2, 7)),
                                   Circulant(27, (1, 3, 8, 10)))[1].bijection
    for f in (theta_periodic(432, 2, 54), adams_periodic(432, 5), crt):
        assert iso_oracle._least_period(f.expand(), f.n) == f.p


def test_verify_witness_reads_a_recurrence_that_does_not_close():
    # the list keeps f(x + 4) = f(x) + 2 on [0, 8), but 2 * (8/4) is not 0
    # mod 8, so no PeriodicMap of period 4 is this list, and it is read at
    # period 8: it is an automorphism of K_{4,4} = C_8(1,3)
    g = Circulant(8, (1, 3))
    f = (0, 1, 4, 5, 2, 3, 6, 7)
    assert iso_oracle._least_period(f, 8) == 4
    with pytest.raises(NotAPermutation):
        PeriodicMap(8, 4, 2, f[:4])
    assert maps_edges_onto(realize(g), realize(g), f)
    assert verify_witness(IsoWitness(g, g, f, False, "x"))


@pytest.mark.parametrize("n", [55_440, 83_160])
def test_period_search_compares_at_most_2n_entries(monkeypatch, n):
    # the identity with its last two images swapped keeps the recurrence of
    # every divisor of n below n (119 and 127 of them) up to its last
    # entries, so only the 2n bound stops the search
    f = (*range(n - 2), n - 1, n - 2)
    compared = 0

    def counting(a, b):
        nonlocal compared
        compared += 1
        return a - b

    with monkeypatch.context() as mp:
        mp.setattr(iso_oracle, "sub", counting)
        assert iso_oracle._least_period(f, n) == n
    assert n < compared <= 2 * n
    g = Circulant(n, (1,))
    assert not verify_witness(IsoWitness(g, g, f, False, "x"))


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


def test_search_goes_deeper_than_the_recursion_limit():
    # 1,500 placed vertices, past Python's default limit of 1,000 frames
    a, b = realize(Circulant(1500, (1,))), realize(Circulant(1500, (7,)))
    w = search_isomorphism(a, b)
    assert w is not None and w.verified
    assert verify_witness(IsoWitness(Circulant(1500, (1,)), Circulant(1500, (7,)),
                                     w.bijection, False, "search"))


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
