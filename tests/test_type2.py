import os
import pathlib
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest

import circiso
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
from circiso import iso_oracle, type1, type2
from circiso.catalog import S3_LETTERS, S4_LETTERS, load
from circiso.products import product_coprime
from circiso.type2 import (
    ThetaMap,
    classify_theta,
    theta_periodic,
    type2_group_check,
    type2_set,
)

from oracles import detect_circulant, permute_edges, theta_compose, theta_offsets

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
    assert theta_periodic(16, 2, 0).expand() == tuple(range(16))
    assert theta_periodic(16, 2, 2).expand()[3] == 7
    assert theta_periodic(432, 3, 32).expand()[1] == 97


def test_theta_vertex_map_bijective():
    for n, m in ((16, 2), (432, 2), (432, 3), (432, 6), (27, 3)):
        for t in (0, 1, n // m - 1):
            assert sorted(theta_periodic(n, m, t).expand()) == list(range(n))


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


def test_type2_orbit_outcome_refuses_t_outside_range():
    # outcome answers for t in [0, n/m) only, as ThetaMap does: a negative t
    # must not index another t's tuple, and neither t = n/m on the lattice
    # nor an odd t past it may read as an outcome
    orbit = type2_set(C16A, 2)
    assert orbit.step == 2 and [t for t, _, _ in orbit.outcomes] == [0, 2, 4, 6]
    assert orbit.outcome(6)[:2] == (6, "type2") and orbit.outcome(7) == (7, "not_circulant", None)
    for t in (-2, -1, 8, 9, 16):
        with pytest.raises(InvalidParams):
            orbit.outcome(t)


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
    assert orbit.outcome(2)[1] == "type1"
    assert type2_group_check(orbit).ok


def test_group_check_refuses_a_member_list_that_disagrees_with_the_stabilizer():
    # each section-3 seed has one other member at m = 2 and two at m = 3;
    # dropping one from the member list while its t stays in the stabilizer,
    # or adding to C_8(1,2,4)'s stabilizer the t = 2 of its Type-1 image,
    # leaves the stabilizer's images and the members apart
    cat = load()
    tampered = []
    for letter in S3_LETTERS:
        for m in (2, 3):
            orbit = type2_set(cat.s3_seed(letter), m)
            assert type2_group_check(orbit).ok
            tampered += [replace(orbit, members=tuple(x for x in orbit.members if x != drop))
                         for drop in orbit.members if drop != orbit.base]
    assert len(tampered) == 18
    tampered.append(replace(type2_set(Circulant(8, (1, 2, 4)), 2), t_stabilizer=(0, 2)))
    for orbit in tampered:
        report = type2_group_check(orbit)
        assert not report.composition_closed and not report.ok


def test_type2_set_solves_for_a_unit_only_where_1_plus_mt_fails(monkeypatch):
    # the walk runs in iso_oracle.walk_or_raise, so its check is counted there
    counts = Counter()
    for module, name in ((type2, "is_adams_isomorphic"),
                         (iso_oracle, "verify_circulant_witness")):
        def counting(*args, real=getattr(module, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    # C_16(1,2) x C_27(1,8) = C_432(16,27,54,128): at m = 3 and 6 every
    # circulant image other than the base is (1 + m*t)*R, and the base
    # recurs at no t > 0, so every lattice t is walked
    g = product_coprime(Circulant(16, (1, 2)), Circulant(27, (1, 8)))
    for m in (3, 6):
        counts.clear()
        orbit = type2_set(g, m)
        assert orbit.members == (g,)
        assert {kind for _, kind, _ in orbit.outcomes} == {"identity", "type1"}
        assert counts == {"verify_circulant_witness": len(orbit.outcomes)}
    # C_54 at m = 3 has six lattice t and two Type-1 images, first met at
    # t = 3, where 1 + 3t = 10 is no unit, and at t = 6, where 19 maps R
    # onto the image: one solve. The base recurs at t = 9, so 4 of the 6 t
    # are walked and t = 12, 15 take the outcomes of t = 3, 6
    counts.clear()
    orbit = type2_set(Circulant(54, (2, 6, 9, 11, 16, 25, 27)), 3)
    assert len(orbit.outcomes) == 6 and orbit.members == (orbit.base,)
    assert counts == {"is_adams_isomorphic": 1, "verify_circulant_witness": 4}
    assert [o[1:] for o in orbit.outcomes[4:]] == [o[1:] for o in orbit.outcomes[1:3]]
    # C_131072(2,4,6) at m = 2 has 65,536 lattice t and its image at t = 1 is
    # the base: two walks, and every other outcome is derived
    counts.clear()
    g = Circulant(131072, (2, 4, 6))
    orbit = type2_set(g, 2)
    assert counts == {"verify_circulant_witness": 2}
    assert orbit.step == 1 and orbit.outcomes[-1] == (65535, "identity", g)
    assert len(orbit.t_stabilizer) == 65536 and orbit.members == (g,)


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
    monkeypatch.setattr(iso_oracle, "verify_circulant_witness", lambda g, h, f: False)
    with pytest.raises(InvariantViolation):
        classify_theta(ThetaMap(432, 2, 54), A1)
    with pytest.raises(InvariantViolation):
        type2_set(C16A, 2)
    # no witness is needed to reject a non-circulant image
    assert classify_theta(ThetaMap(432, 2, 27), A1).kind == "not_circulant"


def test_off_lattice_image_raises(monkeypatch):
    # the true lattice step of C_16(1,2,7) for m = 2 is 2, so a step of 1
    # puts t = 1, whose image is not circulant, on the lattice; type2_set
    # must refuse that contradiction, never record it as an outcome
    assert type2._lattice_step(type2._offset_classes(symmetric_set(C16A), 2), 16) == 2
    monkeypatch.setattr(type2, "_lattice_step", lambda classes, n: 1)
    with pytest.raises(InvariantViolation, match="t=1"):
        type2_set(C16A, 2)


def test_off_lattice_image_raises_under_optimize():
    # python -O strips assert statements; the edge walk against C_n(D_0),
    # not an assert, must still catch the off-lattice t = 1
    code = ("import sys\n"
            "from circiso import type2\n"
            "from circiso.circulant import Circulant\n"
            "from circiso.errors import InvariantViolation\n"
            "type2._lattice_step = lambda classes, n: 1\n"
            "try:\n"
            "    type2.type2_set(Circulant(16, (1, 2, 7)), 2)\n"
            "except InvariantViolation as e:\n"
            "    sys.exit(0 if 't=1' in str(e) else f'wrong t: {e}')\n"
            "sys.exit('t=1 was accepted')\n")
    src = pathlib.Path(circiso.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert res.returncode == 0, res.stderr


def test_classify_walk_failure_raises_under_optimize():
    # python -O strips assert statements; a failed walk of the circulant
    # image of theta(432, 2, 54) must still raise, naming t
    code = ("import sys\n"
            "from circiso import iso_oracle, type2\n"
            "from circiso.circulant import Circulant\n"
            "from circiso.errors import InvariantViolation\n"
            "iso_oracle.verify_circulant_witness = lambda g, h, f: False\n"
            "g = Circulant(432, (16, 27, 48, 54, 128, 160, 189))\n"
            "try:\n"
            "    type2.classify_theta(type2.ThetaMap(432, 2, 54), g)\n"
            "except InvariantViolation as e:\n"
            "    sys.exit(0 if 'theta(m=2,t=54)' in str(e) else f'wrong t: {e}')\n"
            "sys.exit('the failed walk was accepted')\n")
    src = pathlib.Path(circiso.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert res.returncode == 0, res.stderr


def test_walk_failure_text_is_shared(monkeypatch):
    # one walk-or-raise: the walk of theta(432, 2, 54) from A_1 fails, and
    # classify_theta at that t and type2_set, which walks t = 0 and then 54,
    # refuse it in the same words
    real, bad = iso_oracle.verify_circulant_witness, theta_periodic(432, 2, 54)
    monkeypatch.setattr(iso_oracle, "verify_circulant_witness",
                        lambda g, h, f: f != bad and real(g, h, f))
    with pytest.raises(InvariantViolation, match=r"^theta\(m=2,t=54\) ") as by_classify:
        classify_theta(ThetaMap(432, 2, 54), A1)
    with pytest.raises(InvariantViolation) as by_set:
        type2_set(A1, 2)
    assert str(by_set.value) == str(by_classify.value)


C54 = Circulant(54, (2, 6, 9, 11, 16, 25, 27))


def test_false_period_raises(monkeypatch):
    # a supposed period: the image routine reports C_54's own connection set
    # at t = 3, where theta(54, 3, 3) carries C_54 onto a Type-1 image.
    # Trusted, the orbit would repeat from t = 3 and derive t = 6 to 15 from
    # it; the walk at t = 3 must fail, and nothing is derived
    real = type2._lattice_conn
    monkeypatch.setattr(type2, "_lattice_conn",
                        lambda n, m, t, full: C54.conn if t == 3 else real(n, m, t, full))
    with pytest.raises(InvariantViolation, match=r"t=3\)"):
        type2_set(C54, 3)
    monkeypatch.undo()
    assert [t for t, kind, _ in type2_set(C54, 3).outcomes if kind == "identity"] == [0, 9]


def test_false_period_raises_under_optimize():
    # python -O strips assert statements; the walk, not an assert, must
    # refuse the supposed period of test_false_period_raises
    code = ("import sys\n"
            "from circiso import type2\n"
            "from circiso.circulant import Circulant\n"
            "from circiso.errors import InvariantViolation\n"
            "G = Circulant(54, (2, 6, 9, 11, 16, 25, 27))\n"
            "real = type2._lattice_conn\n"
            "type2._lattice_conn = lambda n, m, t, full: (\n"
            "    G.conn if t == 3 else real(n, m, t, full))\n"
            "try:\n"
            "    type2.type2_set(G, 3)\n"
            "except InvariantViolation as e:\n"
            "    sys.exit(0 if 't=3)' in str(e) else f'wrong t: {e}')\n"
            "sys.exit('the period t=3 was accepted')\n")
    src = pathlib.Path(circiso.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert res.returncode == 0, res.stderr


def test_type2_set_builds_witnesses_for_members_only(monkeypatch):
    # one IsoWitness per member other than the base, none for the other
    # lattice t; each passes the edge check on its expanded image list, a
    # route independent of the periodic walk
    built = []

    def counting(*args):
        built.append(iso_oracle.IsoWitness(*args))
        return built[-1]

    monkeypatch.setattr(type2, "IsoWitness", counting)
    # (g, m, members, lattice t): the last two have Type-1 images only
    cases = [(A1, 2, 2, 4), (A1, 3, 3, 9), (C16A, 2, 2, 4),
             (Circulant(54, (2, 6, 9, 11, 16, 25, 27)), 3, 1, 6),
             (product_coprime(Circulant(16, (1, 2)), Circulant(27, (1, 8))), 3, 1, 3)]
    for g, m, members, ts in cases:
        built.clear()
        orbit = type2_set(g, m)
        assert (len(orbit.members), len(orbit.outcomes)) == (members, ts)
        assert len(built) == members - 1 and list(orbit.witnesses) == built
        for w in orbit.witnesses:
            assert iso_oracle.verify_witness(replace(w, bijection=w.images()))


def test_classification_builds_no_vertex_map(monkeypatch):
    # theta witnesses are checked in periodic form, O(m*|R|) per t, and kept
    # that way: neither classify_theta nor type2_set expands one into an
    # n-entry list, and neither the periodic form nor its expansion keeps a
    # cache
    def refuse(*args):
        raise RuntimeError("an n-entry vertex map was built")

    expand = iso_oracle.PeriodicMap.expand
    monkeypatch.setattr(iso_oracle.PeriodicMap, "expand", refuse)
    cls = classify_theta(ThetaMap(432, 2, 54), A1)
    assert cls.kind == "type2" and cls.witness.verified
    for m in (2, 3):
        orbit = type2_set(A1, m)
        assert orbit.witnesses and all(w.verified for w in orbit.witnesses)
    assert not any(hasattr(fn, "cache_info") for fn in (theta_periodic, expand))


def test_failing_vertex_beyond_one_matches_edge_route():
    # at m = 5 the difference set at vertex 1 can agree with vertex 0's
    # while vertex 2's does not; the edge route reports the same vertex
    g, tm = Circulant(125, (7, 28, 48, 55)), ThetaMap(125, 5, 12)
    cls = classify_theta(tm, g)
    assert cls.kind == "not_circulant" and cls.failing_vertex == 2
    f = theta_periodic(tm.n, tm.m, tm.t).expand()
    assert detect_circulant(permute_edges(realize(g), f)) == NotCirculant(2)


def test_classification_builds_no_unit_orbit(monkeypatch):
    # the least unit is solved for, so classifying the order-6750 catalog
    # rows never builds the 1,800-unit orbit
    def refuse(g):
        raise RuntimeError(f"type1_set({g.label()}) called")

    monkeypatch.setattr(type1, "type1_set", refuse)
    cat = load()
    graphs = {letter: cat.s4_member(letter, 1) for letter in S4_LETTERS}
    for row in cat.s4_theta_rows():
        cls = classify_theta(ThetaMap(6750, row["m"], row["t"]), graphs["A"])
        want = row["map"] if isinstance(row["map"], str) else "type2"
        assert cls.kind == want
        if want == "type2":
            assert cls.image == graphs[row["map"]["A"]]


def test_type2_orbit_past_max_order_keeps_only_the_lattice():
    # the four-m family C_16 x C_27 x C_125 x C_343 has order 18,522,000 and
    # 9,261,000 values of t for m = 2, of which the lattice holds 4: the
    # orbit keeps their outcomes only, so it fits a 512 MiB address space
    # that one tuple per t would overrun. Its orbits for m = 3, 5 and 7 have
    # 3, 5 and 7 members; each Type-2 image's unit solve intersects residue
    # classes modulo n/gcd(r, n) and lists no candidate in Z_n, where the
    # least gcd, 54,000, would give 756,000 of them
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
            "from circiso.circulant import Circulant\n"
            "from circiso.products import product_coprime\n"
            "from circiso.type2 import type2_set\n"
            "g = Circulant(16, (1, 2, 7))\n"
            "for h in (Circulant(27, (1, 3, 8, 10)), Circulant(125, (1, 5, 24, 26, 49, 51)),\n"
            "          Circulant(343, (1, 7, 48, 50, 97, 99, 146, 148))):\n"
            "    g = product_coprime(g, h)\n"
            "for m in (2, 3, 5, 7):\n"
            "    orbit = type2_set(g, m)\n"
            "    print(g.n, len(orbit.members), len(orbit.outcomes), g.n // m // orbit.step,\n"
            "          all(w.verified for w in orbit.witnesses))\n")
    src = pathlib.Path(circiso.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    lines = [line.split() for line in res.stdout.splitlines()]
    assert lines[0] == ["18522000", "2", "4", "4", "True"]
    assert len(lines) == 4
    for m, row in zip((3, 5, 7), lines[1:]):
        # m members, every witness verified, and outcomes for the lattice only
        assert row[:2] == ["18522000", str(m)] and row[4] == "True"
        assert row[2] == row[3]
