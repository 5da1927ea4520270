import pytest

from circiso.circulant import (
    Circulant,
    NotCirculant,
    realize,
    symmetric_set,
)
from circiso.errors import (
    InvalidParams,
    InvariantViolation,
    ParamMismatch,
    PreconditionViolation,
)
from circiso import type2
from circiso.type2 import (
    ThetaMap,
    classify_theta,
    theta_compose,
    theta_offsets,
    theta_vertex_map,
    type2_group_check,
    type2_set,
)

from oracles import detect_circulant, permute_edges

A1 = Circulant(432, (16, 27, 48, 54, 128, 160, 189))
B1 = Circulant(432, (27, 32, 48, 54, 112, 176, 189))
C1 = Circulant(432, (27, 48, 54, 64, 80, 189, 208))
D1 = Circulant(432, (16, 48, 54, 81, 128, 135, 160))
C16A = Circulant(16, (1, 2, 7))
C16B = Circulant(16, (2, 3, 5))


def test_theta_map_validation():
    with pytest.raises(InvalidParams):
        ThetaMap(16, 1, 0)
    with pytest.raises(InvalidParams):
        ThetaMap(16, 3, 0)  # 27 does not divide 16
    with pytest.raises(InvalidParams):
        ThetaMap(16, 2, 8)  # t out of range
    ThetaMap(16, 2, 7)  # boundary is fine


def test_theta_vertex_map_values():
    assert theta_vertex_map(ThetaMap(16, 2, 0)) == tuple(range(16))
    assert theta_vertex_map(ThetaMap(16, 2, 2))[3] == 7
    assert theta_vertex_map(ThetaMap(432, 3, 32))[1] == 97


def test_theta_vertex_map_bijective():
    for n, m in ((16, 2), (432, 2), (432, 3), (432, 6), (27, 3)):
        for t in (0, 1, n // m - 1):
            assert sorted(theta_vertex_map(ThetaMap(n, m, t))) == list(range(n))


def test_theta_offsets_published_row():
    got = theta_offsets(ThetaMap(432, 2, 54), symmetric_set(A1))
    assert tuple(sorted(got)) == (
        16, 48, 54, 81, 128, 135, 160, 272, 297, 304, 351, 378, 384, 416,
    )


def test_theta_offsets_fixes_multiples_of_m():
    full = symmetric_set(A1)
    for t in (1, 27, 54, 100):
        image = dict(zip(full, (s + (s % 2) * 2 * t for s in full)))
        for s in full:
            if s % 2 == 0:
                assert image[s] == s


def test_classify_published_rows_432():
    cls = classify_theta(ThetaMap(432, 2, 54), A1)
    assert cls.kind == "type2" and cls.image == D1
    assert cls.witness is not None and cls.witness.verified

    cls = classify_theta(ThetaMap(432, 2, 27), A1)
    assert cls.kind == "not_circulant"
    assert cls.failing_vertex is not None

    cls = classify_theta(ThetaMap(432, 3, 48), A1)
    assert cls.kind == "identity" and cls.image == A1

    cls = classify_theta(ThetaMap(432, 3, 32), A1)
    assert cls.kind == "type2" and cls.image == B1

    cls = classify_theta(ThetaMap(432, 3, 16), A1)
    assert cls.kind == "type2" and cls.image == C1


def test_classify_small_orders():
    cls = classify_theta(ThetaMap(16, 2, 2), C16A)
    assert cls.kind == "type2" and cls.image == C16B
    cls = classify_theta(ThetaMap(27, 3, 1), Circulant(27, (1, 3, 8, 10)))
    assert cls.kind == "type2" and cls.image == Circulant(27, (3, 4, 5, 13))


def test_classify_preconditions():
    with pytest.raises(PreconditionViolation):
        classify_theta(ThetaMap(16, 2, 1), Circulant(16, (1, 3, 7)))  # no even offset
    with pytest.raises(PreconditionViolation):
        classify_theta(ThetaMap(16, 2, 1), Circulant(16, (2, 4)))  # too few offsets
    with pytest.raises(ParamMismatch):
        classify_theta(ThetaMap(16, 2, 1), Circulant(32, (2, 3, 5)))


def test_type2_set_16():
    orbit = type2_set(C16A, 2)
    assert set(orbit.members) == {C16A, C16B}
    assert orbit.t_stabilizer == (0, 2, 4, 6)
    assert type2_group_check(orbit).ok


def test_type2_set_432():
    orbit = type2_set(A1, 2)
    assert set(orbit.members) == {A1, D1}
    orbit3 = type2_set(A1, 3)
    assert set(orbit3.members) == {A1, B1, C1}
    assert orbit3.t_stabilizer == tuple(range(0, 144, 16))
    assert type2_group_check(orbit3).ok


def test_type2_membership_symmetry():
    orbit = type2_set(A1, 2)
    for member in orbit.members:
        assert set(type2_set(member, 2).members) == set(orbit.members)


def test_type2_set_parameter_errors():
    with pytest.raises(InvalidParams):
        type2_set(C16A, 3)  # 27 does not divide 16
    with pytest.raises(PreconditionViolation):
        type2_set(Circulant(16, (1, 3, 7)), 2)
    with pytest.raises(InvalidParams):
        type2_set(C16A, 1)
    with pytest.raises(InvalidParams):
        type2_set(C16A, 20)  # m > n: the t range would be empty


def test_singleton_orbit_is_trivial_group():
    # no odd offset of this graph is movable: theta fixes multiples of 2,
    # so every t is the identity and the orbit is a singleton
    g = Circulant(16, (2, 4, 6))
    orbit = type2_set(g, 2)
    assert orbit.members == (g,)
    assert type2_group_check(orbit).ok


def test_classify_type1_equivalent_image_not_folded():
    # theta(8,2,2) carries C_8(1,2,4) onto C_8(2,3,4) = 3*(1,2,4): a
    # unit-equivalent image, reported as such and kept out of the Type-2 set
    g = Circulant(8, (1, 2, 4))
    cls = classify_theta(ThetaMap(8, 2, 2), g)
    assert cls.kind == "type1"
    assert cls.image == Circulant(8, (2, 3, 4))
    assert cls.unit == 3
    assert cls.witness is not None and cls.witness.verified

    orbit = type2_set(g, 2)
    assert orbit.members == (g,)
    assert orbit.t_stabilizer == (0,)
    assert orbit.outcomes[2][1] == "type1"
    assert type2_group_check(orbit).ok


def test_theta_compose():
    a, b = ThetaMap(432, 3, 16), ThetaMap(432, 3, 32)
    assert theta_compose(a, b).t == 48
    assert theta_compose(a, ThetaMap(432, 3, 0)) == a
    assert theta_compose(ThetaMap(432, 3, 100), ThetaMap(432, 3, 80)).t == 36
    with pytest.raises(ParamMismatch):
        theta_compose(ThetaMap(432, 2, 1), ThetaMap(432, 3, 1))


def test_failed_witness_check_raises(monkeypatch):
    # a circulant image whose witness does not check must stop the
    # classification, never come back as an unverified witness
    monkeypatch.setattr(type2, "verify_circulant_witness", lambda g, h, f: False)
    with pytest.raises(InvariantViolation):
        classify_theta(ThetaMap(432, 2, 54), A1)
    with pytest.raises(InvariantViolation):
        type2_set(C16A, 2)
    # no witness is needed to reject a non-circulant image
    assert classify_theta(ThetaMap(432, 2, 27), A1).kind == "not_circulant"


def test_failing_vertex_beyond_one_matches_edge_route():
    # at m = 5 the difference set at vertex 1 can agree with vertex 0's
    # while vertex 2's does not; the edge route reports the same vertex
    g, tm = Circulant(125, (7, 28, 48, 55)), ThetaMap(125, 5, 12)
    cls = classify_theta(tm, g)
    assert cls.kind == "not_circulant" and cls.failing_vertex == 2
    assert detect_circulant(permute_edges(realize(g), theta_vertex_map(tm))) == NotCirculant(2)
