import pytest

from circiso import type1
from circiso.circulant import Circulant, is_connected
from circiso.errors import InvariantViolation, NotAUnit, OrderMismatch
from circiso.type1 import (
    adams_apply,
    adams_vertex_map,
    is_adams_isomorphic,
    type1_group_table,
    type1_set,
)

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


def test_group_table_published_entry():
    # reps for the 432 family: A2 <- 5, A3 <- 7, and 35*A1 lands on A5
    orbit = type1_set(A1)
    table = type1_group_table(orbit)
    i2, i3 = orbit.members.index(A2), orbit.members.index(A3)
    assert orbit.reps[i2] == 5 and orbit.reps[i3] == 7
    assert orbit.members[table.entries[(i2, i3)]] == A5
    assert table.ok and table.associativity == "exhaustive"


def test_group_table_identity_row_and_abelian_2x2():
    orbit = type1_set(Circulant(16, (1, 2, 7)))
    table = type1_group_table(orbit)
    b = orbit.members.index(orbit.base)
    for j in range(len(orbit.members)):
        assert table.entries[(b, j)] == j
    assert table.commutative and table.ok


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


def test_is_adams_isomorphic_identity_and_errors():
    assert is_adams_isomorphic(A1, A1) == 1
    with pytest.raises(OrderMismatch):
        is_adams_isomorphic(A1, Circulant(16, (1, 2, 7)))
    # size mismatch is simply "absent"
    assert is_adams_isomorphic(Circulant(16, (1, 2, 7)), Circulant(16, (1, 2))) is None


def test_adams_vertex_map_is_morphism():
    from circiso.iso_oracle import make_witness

    a, b = Circulant(16, (1, 2, 7)), Circulant(16, (3, 5, 6))
    w = make_witness(a, b, adams_vertex_map(16, 3), "adam(x=3)")
    assert w.verified
