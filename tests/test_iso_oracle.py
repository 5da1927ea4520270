import os
import pathlib
import subprocess
import sys
from itertools import permutations
from math import gcd

import pytest

import circiso
from circiso import iso_oracle, products
from circiso.circulant import Circulant, EdgeGraph, Product, realize
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
    # are read as the map they were expanded from
    crt = products.product_witness("coprime", Circulant(16, (1, 2, 7)),
                                   Circulant(27, (1, 3, 8, 10)))[1].bijection
    for f in (theta_periodic(432, 2, 54), adams_periodic(432, 5), crt):
        assert iso_oracle._periodic_form(f.expand(), f.n) == f


def _least_map_period(f, n):
    """The least divisor p of n such that some PeriodicMap of period p
    expands to f, by trying each one."""
    for p in (d for d in range(1, n + 1) if n % d == 0):
        try:
            if PeriodicMap(n, p, f[p % n] - f[0], f[:p]).expand() == f:
                return p
        except NotAPermutation:
            pass


def test_map_lists_are_read_at_their_least_period():
    # the ends n/r - 1 refute every divisor below the least period of an
    # Adam, theta or CRT list, and the probes stay inside their n-difference
    # budget from order 13 on (at n = 6, 10 and 12 it can run out first).
    # The c4 and prism products of order 36-60 have many divisors below the
    # period of their embedding, |base|, and are read at it: c4 of
    # C_15(1,2,7) at 15
    products_ = [products.product_witness(kind, Circulant(n, conn))[1].bijection
                 for kind, orders in (("c4", range(9, 16, 2)), ("prism", range(19, 31, 2)))
                 for n in orders for conn in ((1,), (1, 2), (2, 3), (1, 3, 4))]
    assert all(f.n in range(36, 61) and f.p == f.n // (4 if f.n % 4 == 0 else 2)
               for f in products_)
    maps = products_ + [PeriodicMap(a * b, b, b, tuple(range(0, a * b, a)))
                        for a in range(2, 12) for b in range(2, 12)
                        if gcd(a, b) == 1 and a * b > 12]
    for n in range(13, 121):
        maps += [adams_periodic(n, x) for x in range(1, n) if gcd(x, n) == 1]
        maps += [theta_periodic(n, m, t) for m in range(2, n) if n % m == 0
                 for t in range(0, n // m, 3)]
    for f in maps:
        images = f.expand()
        pm = iso_oracle._periodic_form(images, f.n)
        assert pm.p == _least_map_period(images, f.n), f
        assert pm.expand() == images
    assert all(iso_oracle._periodic_form(f.expand(), f.n) == f for f in products_)


def test_verify_witness_reads_a_recurrence_that_does_not_close():
    # the list keeps f(x + 4) = f(x) + 2 on [0, 8), but 2 * (8/4) is not 0
    # mod 8, so no PeriodicMap of period 4 is this list, and it is read at
    # period 8: it is an automorphism of K_{4,4} = C_8(1,3)
    g = Circulant(8, (1, 3))
    f = (0, 1, 4, 5, 2, 3, 6, 7)
    assert iso_oracle._probe_period(f, 8) == 4
    with pytest.raises(NotAPermutation):
        PeriodicMap(8, 4, 2, f[:4])
    assert iso_oracle._periodic_form(f, 8) == PeriodicMap(8, 8, 0, f)
    assert maps_edges_onto(realize(g), realize(g), f)
    assert verify_witness(IsoWitness(g, g, f, False, "x"))


class _Reads(tuple):
    """An image list that records the index of each entry read alone: the
    probes read two per difference."""

    def __new__(cls, images):
        f = super().__new__(cls, images)
        f.indexed = []
        return f

    def __getitem__(self, i):
        if isinstance(i, int):
            self.indexed.append(i)
        return super().__getitem__(i)


def test_period_probe_reads_only_zero_and_the_ends():
    # for each divisor p it tries, the probe reads f[x + p] and then f[x],
    # for x = 0 and the ends n/r - 1 (r = 2, 3 at 432 = 2^4 * 3^3) alone;
    # the CRT list of C_16(1,2,7) x C_27(1,3,8,10) and a theta list are read
    # at their periods, 27 and 2
    crt = products.product_witness("coprime", Circulant(16, (1, 2, 7)),
                                   Circulant(27, (1, 3, 8, 10)))[1].bijection
    divisors = {p for p in range(1, 432) if 432 % p == 0}
    for pm in (crt, theta_periodic(432, 2, 54)):
        f = _Reads(pm.expand())
        assert iso_oracle._probe_period(f, 432) == pm.p
        pairs = list(zip(f.indexed[::2], f.indexed[1::2]))
        assert pairs and len(f.indexed) == 2 * len(pairs)
        assert all(x in (0, 215, 143) and y - x in divisors for y, x in pairs)
        assert {x for y, x in pairs if y - x == pm.p} == {0, 215, 143}


@pytest.mark.parametrize("n", [55_440, 83_160])
def test_period_search_compares_at_most_2n_entries(monkeypatch, n):
    # n has 119 or 127 divisors below n. The identity with two adjacent
    # images swapped where no probe reads passes every probe of p = 1, so
    # one candidate map is expanded and compared with the whole list; it
    # fails there, and the list is read at p = n
    expanded, expand = [], PeriodicMap.expand
    monkeypatch.setattr(PeriodicMap, "expand", lambda f: expanded.append(f.n) or expand(f))
    clean = _Reads(range(n))
    assert iso_oracle._periodic_form(clean, n) == PeriodicMap(n, 1, 1, (0,))
    probed = set(clean.indexed)
    j = next(j for j in range(1, n - 2) if probed.isdisjoint(range(j - 1, j + 3)))
    f = list(range(n))
    f[j], f[j + 1] = f[j + 1], f[j]
    f, expanded[:] = _Reads(f), []
    g = Circulant(n, (1,))
    assert not verify_witness(IsoWitness(g, g, f, False, "x"))
    compared = len(f.indexed) // 2 + sum(expanded)
    assert expanded == [n] and n < compared <= 2 * n


def _hostile_lists(f):
    """The CRT list f with one entry made n or -1, two entries swapped or
    put out of step with the rest, at each index; the lists verify
    refuses or walks at p = n."""
    n = len(f)
    for i in range(n):
        for value in (n, -1, f[i] + 1, f[(i + 1) % n]):
            yield i, [*f[:i], value, *f[i + 1:]]
        g = list(f)
        g[i], g[-1 - i] = g[-1 - i], g[i]
        yield i, g


def test_hostile_lists_compare_at_most_2n_entries(monkeypatch):
    # every edit is caught by the probes or by the one comparison of the
    # candidate map with the whole list; an entry out of range, whichever
    # index it sits at, raises NotAPermutation, and so does a repeated one
    expanded, expand = [], PeriodicMap.expand
    monkeypatch.setattr(PeriodicMap, "expand", lambda f: expanded.append(f.n) or expand(f))
    crt = products.product_witness("coprime", Circulant(16, (1, 2, 7)),
                                   Circulant(27, (1, 3, 8, 10)))[1].bijection
    n = crt.n
    for i, images in _hostile_lists(crt.expand()):
        f, expanded[:] = _Reads(images), []
        try:
            pm = iso_oracle._periodic_form(f, n)
        except NotAPermutation:
            assert len(set(images)) < n or min(images) < 0 or max(images) >= n
        else:
            assert pm.p == n and pm.head == tuple(images) or images == list(crt.expand())
        assert len(expanded) <= 1 and len(f.indexed) // 2 + sum(expanded) <= 2 * n


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
