import tracemalloc
from math import gcd

import pytest

from circiso import type1
from circiso.catalog import S4_LETTERS
from circiso.circulant import Circulant, is_connected
from circiso.errors import InvariantViolation, NotAUnit, OrderMismatch
from circiso.products import product_coprime
from circiso.residue import units
from circiso.type1 import (
    adams_apply,
    adams_periodic,
    induced_composition,
    is_adams_isomorphic,
    type1_group_table,
    type1_set,
)
from circiso.type2 import ThetaMap, type2_set

from conftest import brute_least_unit, mask_unit_scan
from oracles import theta_image_by_difference_sets

A1 = Circulant(432, (16, 27, 48, 54, 128, 160, 189))
A2 = Circulant(432, (64, 80, 81, 135, 162, 192, 208))
A3 = Circulant(432, (27, 32, 54, 96, 112, 176, 189))
A5 = Circulant(432, (16, 48, 81, 128, 135, 160, 162))


def test_adams_apply_published_multipliers():
    assert adams_apply(A1, 5) == A2
    assert adams_apply(A1, 7) == A3
    assert adams_apply(A1, 1) == A1


def test_adams_apply_rejects_nonunit():
    with pytest.raises(NotAUnit):
        adams_apply(A1, 6)


def test_adams_preserves_size_degree_connectivity():
    for x in (5, 7, 11, 19, 23):
        img = adams_apply(A1, x)
        assert len(img.conn) == len(A1.conn)
        assert img.degree == A1.degree
        assert is_connected(img) == is_connected(A1)


def test_broken_invariants_raise(monkeypatch):
    # explicit raises, not asserts, so the checks also hold under python -O
    real_reduce, real_units = type1.reflexive_reduce, type1.units
    monkeypatch.setattr(type1, "reflexive_reduce", lambda vals, n: real_reduce(vals, n)[1:])
    with pytest.raises(InvariantViolation):
        adams_apply(A1, 5)
    monkeypatch.setattr(type1, "reflexive_reduce", real_reduce)
    # a repeated unit counts twice in the stabilizer but adds no member
    monkeypatch.setattr(type1, "units", lambda n: tuple(real_units(n)) + (1,))
    type1_set.cache_clear()
    with pytest.raises(InvariantViolation):
        type1_set(Circulant(20, (1, 3)))


def test_type1_set_16():
    orbit = type1_set(Circulant(16, (1, 2, 7)))
    assert set(orbit.members) == {Circulant(16, (1, 2, 7)), Circulant(16, (3, 5, 6))}


def test_type1_set_27():
    orbit = type1_set(Circulant(27, (1, 3, 8, 10)))
    assert set(orbit.members) == {
        Circulant(27, (1, 3, 8, 10)),
        Circulant(27, (2, 6, 7, 11)),
        Circulant(27, (4, 5, 12, 13)),
    }


def test_type1_set_432_has_six_members():
    orbit = type1_set(A1)
    assert len(orbit.members) == 6
    assert A1 in orbit.members
    assert len(orbit.members) * len(orbit.stabilizer) == 144


def test_stabilizer_is_subgroup():
    orbit = type1_set(Circulant(16, (1, 2, 7)))
    stab = set(orbit.stabilizer)
    assert 1 in stab
    for x in stab:
        for y in stab:
            assert (x * y) % 16 in stab


def test_membership_symmetry():
    base = Circulant(16, (1, 2, 7))
    orbit = type1_set(base)
    for member in orbit.members:
        assert set(type1_set(member).members) == set(orbit.members)


def _composition(orbit, wrong=None, ordered=False):
    """induced_composition on a Type-1 orbit, with member_of read from
    adams_apply except that the product `wrong` is sent to the next member;
    also the products it looked up, in order, each with the member index it
    got. With ordered, a product is the pair (x, y) itself rather than the
    unit x*y, so that (x, y) and (y, x) are looked up apart."""
    g, n = orbit.base, orbit.base.n
    index = {m: i for i, m in enumerate(orbit.members)}
    looked_up = []

    def member_of(p):
        i = index.get(adams_apply(g, p[0] * p[1] % n if ordered else p))
        looked_up.append((p, (i + 1) % len(index) if p == wrong else i))
        return looked_up[-1][1]

    op = (lambda x, y: (x, y)) if ordered else (lambda x, y: x * y % n)
    return induced_composition(orbit.reps, op, member_of, index.get(g)), looked_up


def test_group_table_published_entry():
    # reps for the 432 family: A2 <- 5, A3 <- 7, and A2 o A3 is 35*A1 = A5
    orbit = type1_set(A1)
    i2, i3 = orbit.members.index(A2), orbit.members.index(A3)
    assert orbit.reps[i2] == 5 and orbit.reps[i3] == 7
    table, looked_up = _composition(orbit)
    assert orbit.members[dict(looked_up)[35]] == A5
    assert table == type1_group_table(orbit)
    assert table.ok and table.associativity == "exhaustive"


def test_group_table_identity_row_and_abelian_2x2():
    orbit = type1_set(Circulant(16, (1, 2, 7)))
    table, looked_up = _composition(orbit)
    # each product unit is looked up once, whichever pairs share it
    units_read = [x for x, _ in looked_up]
    assert len(units_read) == len(set(units_read))
    member_of = dict(looked_up)
    b = orbit.members.index(orbit.base)
    for j, x in enumerate(orbit.reps):
        assert member_of[orbit.reps[b] * x % 16] == j
    assert table == type1_group_table(orbit)
    assert table.commutative and table.ok


@pytest.mark.parametrize("wrong, ordered", [(5, False), ((5, 1), True)],
                         ids=["both-sides", "right-side"])
def test_one_wrong_product_breaks_the_identity(wrong, ordered):
    # 5 = 1*5 is the base composed with A2, so A2 is sent off itself; as
    # the ordered pair (5, 1), only A2 o base is
    table, _ = _composition(type1_set(A1), wrong=wrong, ordered=ordered)
    assert table.closed and table.commutative == (not ordered)
    assert not table.identity_ok and not table.ok


def test_one_wrong_product_breaks_associativity():
    # 133 = 19*7 is no representative, so no product with the base changes
    assert 133 not in type1_set(A1).reps
    table, _ = _composition(type1_set(A1), wrong=19 * 7 % 432)
    assert table.closed and table.commutative and table.identity_ok
    assert table.associativity == "failed" and not table.ok


def test_one_wrong_product_breaks_commutativity():
    table, _ = _composition(type1_set(A1), wrong=(19, 7), ordered=True)
    assert table.closed and table.identity_ok
    assert not table.commutative and not table.ok


def test_group_table_peak_memory_is_not_quadratic():
    # C_1031(1) has 515 members; a table of every pair held 265,225 entries
    # and peaked at 29.7 MB. The products are the 1,030 units of Z_1031
    orbit = type1_set(Circulant(1031, (1,)))
    tracemalloc.start()
    try:
        table = type1_group_table(orbit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orbit.members) == 515 and table.ok
    assert peak < 1 << 20


def test_group_table_structural_associativity_past_limit():
    # 48 singleton members at n=97: past the exhaustive triple limit the
    # action law stands in for enumeration
    orbit = type1_set(Circulant(97, (1,)))
    assert len(orbit.members) == 48
    table = type1_group_table(orbit)
    assert table.ok
    assert table.associativity == "structural"


def test_is_adams_isomorphic_witness():
    a, b = Circulant(16, (1, 2, 7)), Circulant(16, (3, 5, 6))
    assert is_adams_isomorphic(a, b) == 3  # least unit, frozen from a unit scan
    assert adams_apply(a, 3) == b


def test_is_adams_isomorphic_absent_for_type2_pair():
    assert is_adams_isomorphic(Circulant(16, (1, 2, 7)), Circulant(16, (2, 3, 5))) is None


def test_is_adams_isomorphic_lifts_candidates():
    # every offset of C_55(5,11,15) shares a factor with 55: 5 and 15 fix a
    # unit mod 11, 11 fixes it mod 5, and the CRT joins the residue classes
    # into classes mod 55; three least units lie past 11
    a = Circulant(55, (5, 11, 15))
    orbit = type1_set(a)
    assert [x for x in orbit.reps if x > 11] == [12, 14, 17]
    for member, x in zip(orbit.members, orbit.reps):
        assert is_adams_isomorphic(a, member) == x


def test_is_adams_isomorphic_lifts_past_the_final_modulus():
    # C_30(6) is disconnected: 6*x depends on x mod 5 only, so the classes
    # end mod 5, and 6x ≡ ±12 (mod 30) gives x ≡ 2 or 3 (mod 5). Both share
    # a factor with 30, so the least unit is the lift 2 + 5 = 7
    a, b = Circulant(30, (6,)), Circulant(30, (12,))
    assert is_adams_isomorphic(a, b) == brute_least_unit(a, b) == 7


def test_is_adams_isomorphic_matches_unit_scan_at_order_6750(catalog):
    # every catalog graph at order 6750 has least gcd 27, so no offset fixes
    # a unit mod 6750 alone; the classes mod 9, 27, 50 and 250 that the
    # offsets fix are intersected instead. Each theta row's image (the
    # Type-2 ones have no unit) and a few Adam images are checked against
    # all 1,800 units
    for idx in (1, 2):
        for letter in S4_LETTERS:
            g = catalog.s4_member(letter, idx)
            assert min(gcd(s, 6750) for s in g.conn) == 27
            rows = {theta_image_by_difference_sets(ThetaMap(6750, row["m"], row["t"]), g):
                    row["map"] == "identity"
                    for row in catalog.s4_theta_rows()}
            for image, identity in rows.items():
                least = brute_least_unit(g, image)
                assert least == (1 if identity else None)
                assert is_adams_isomorphic(g, image) == least
            for x in (7, 143, 2021):
                image = adams_apply(g, x)
                assert is_adams_isomorphic(g, image) == brute_least_unit(g, image)


def test_is_adams_isomorphic_matches_unit_scan_at_order_54000():
    # C_16(1,2,7) x C_27(1,3,8,10) x C_125(1,5,24,26,49,51) has Type-2 orbits
    # of 2, 3 and 5 members for m = 2, 3 and 5. A byte-mask scan of all
    # 14,400 units finds none onto a member other than the base, and the
    # solve agrees; for three Adam images the solve's least unit is the
    # scan's, the least of the 240 units in the multiplier's stabilizer coset
    g = Circulant(16, (1, 2, 7))
    for h in (Circulant(27, (1, 3, 8, 10)), Circulant(125, (1, 5, 24, 26, 49, 51))):
        g = product_coprime(g, h)
    assert g.n == 54000 and len(units(g.n)) == 14400
    fixing = mask_unit_scan(g, g)
    assert len(fixing) == 240 and fixing[0] == 1
    for m in (2, 3, 5):
        orbit = type2_set(g, m)
        assert len(orbit.members) == m
        for member in orbit.members:
            if member != g:
                assert mask_unit_scan(g, member) == []
                assert is_adams_isomorphic(g, member) is None
    for x in (7, 143, 2021):
        image = adams_apply(g, x)
        scan = mask_unit_scan(g, image)
        assert len(scan) == 240 and x in scan
        assert is_adams_isomorphic(g, image) == scan[0]


def test_is_adams_isomorphic_identity_and_errors():
    assert is_adams_isomorphic(A1, A1) == 1
    with pytest.raises(OrderMismatch):
        is_adams_isomorphic(A1, Circulant(16, (1, 2, 7)))
    # size mismatch is simply "absent"
    assert is_adams_isomorphic(Circulant(16, (1, 2, 7)), Circulant(16, (1, 2))) is None


def test_adams_vertex_map_is_morphism():
    from oracles import make_witness

    a, b = Circulant(16, (1, 2, 7)), Circulant(16, (3, 5, 6))
    w = make_witness(a, b, adams_periodic(16, 3).expand(), "adam(x=3)")
    assert w.verified
