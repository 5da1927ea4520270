"""Acceptance suite: one test per criterion, all checks exact integer
equalities. Each criterion prints a pass/fail line (collected again in the
terminal summary)."""

import re
import time
from contextlib import contextmanager

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circiso.catalog import S3_LETTERS, load
from circiso.circulant import Circulant, realize, symmetric_set
from circiso.iso_oracle import verify_witness
from circiso.residue import reflexive_reduce
from circiso.type1 import adams_apply, adams_periodic, is_adams_isomorphic, type1_set
from circiso.type2 import ThetaMap, classify_theta, theta_periodic

from conftest import ACCEPTANCE_LINES, SECTION_TIMES
from oracles import (detect_circulant, make_witness, permute_edges, search_isomorphism,
                     theta_compose, theta_offsets)

PROPERTY_CASES = 1000


@contextmanager
def criterion(num, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"criterion {num}: FAIL - {desc}"
        ACCEPTANCE_LINES.append(line)
        print(f"[acceptance] {line}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {num}: PASS - {desc} ({elapsed * 1000:.3g} ms)"
    ACCEPTANCE_LINES.append(line)
    print(f"[acceptance] {line}", flush=True)


def _failing(checks):
    return [c["name"] + ": " + c["detail"] for c in checks if not c["passed"]]


# the reproduction checks of each criterion, chosen by name
def _is_t1(c):
    return (c["name"].startswith("T1 ") or " = listed member" in c["name"]
            or re.fullmatch(r"\d+\*A1 = A\d+", c["name"]) is not None)


def _is_product(c):
    return " = seed " in c["name"] or "embedding" in c["name"]


def _is_theta(c):
    return c["name"].startswith("theta(")


def _is_witness(c):
    return c["name"].endswith(" witness")


def _is_type2(c):
    return c["name"].startswith("T2 ")


def test_criterion_1_type1_tables_432():
    type1_set.cache_clear()  # time genuine computation, not a cache hit
    with criterion(1, "Type-1 tables at n=432 match the six listed families"):
        cat = load()
        for letter in S3_LETTERS:
            family = cat.s3_family(letter)
            orbit = type1_set(family[0])
            assert len(orbit.members) == 6
            assert set(orbit.members) == set(family)


def test_criterion_2_type1_table_6750():
    type1_set.cache_clear()
    with criterion(2, "Type-1 table at n=6750 has the 30 listed members"):
        cat = load()
        family = cat.s4_family_a()
        orbit = type1_set(family[0])
        assert len(orbit.members) == 30
        assert set(orbit.members) == set(family)
        rows = cat.s4_multiplier_rows()
        assert len(rows) >= 10
        for x, j in rows:
            assert adams_apply(family[0], x) == family[j - 1]


def test_criterion_3_double_type2_432(section3_results):
    note = f"shared 432 sweep took {SECTION_TIMES[3] * 1000:.3g} ms"
    with criterion(3, f"all n=432 theta catalog rows classify exactly ({note})"):
        checks = [c for c in section3_results if _is_theta(c)]
        row_checks = [c for c in checks if not _is_witness(c)]
        assert len(row_checks) >= 36
        assert not _failing(checks), _failing(checks)


def test_criterion_4_double_type2_6750(section4_results):
    note = f"whole 6750 sweep incl. criteria 5/7 material took {SECTION_TIMES[4] * 1000:.3g} ms"
    with criterion(4, f"n=6750 theta catalog rows for member indices 1 and 2 ({note})"):
        checks = [c for c in section4_results if _is_theta(c)]
        row_checks = [c for c in checks if not _is_witness(c)]
        # 15 families x 9 rows x 2 indices, plus the five odd-t rejections per index
        assert len(row_checks) == 15 * 9 * 2 + 10
        assert not _failing(checks), _failing(checks)


def test_criterion_5_type2_sets_and_groups(section3_results, section4_results):
    with criterion(5, "Type-2 sets and group axioms at n=432 and n=6750"):
        checks = [c for c in section3_results + section4_results if _is_type2(c)]
        assert len([c for c in checks if c["name"].startswith("T2 set")]) >= 32
        assert not _failing(checks), _failing(checks)


def test_criterion_6_small_order_ground_truth():
    with criterion(6, "oracle certifies the small Type-2 pairs as non-Adam"):
        pairs16 = (Circulant(16, (1, 2, 7)), Circulant(16, (2, 3, 5)))
        triple27 = (
            Circulant(27, (1, 3, 8, 10)),
            Circulant(27, (3, 4, 5, 13)),
            Circulant(27, (2, 3, 7, 11)),
        )
        w = search_isomorphism(realize(pairs16[0]), realize(pairs16[1]))
        assert w is not None and w.verified
        assert is_adams_isomorphic(*pairs16) is None
        assert pairs16[1] not in type1_set(pairs16[0]).members

        for a in triple27:
            for b in triple27:
                if a == b:
                    continue
                w = search_isomorphism(realize(a), realize(b))
                assert w is not None and w.verified
                assert is_adams_isomorphic(a, b) is None
                assert b not in type1_set(a).members


def test_criterion_7_products(section3_results, section4_results):
    with criterion(7, "6 + 15 product constructions reproduce the listings"):
        checks = [c for c in section3_results + section4_results if _is_product(c)]
        product_checks = [c for c in checks if " = seed " in c["name"]]
        embedding_checks = [c for c in checks if "embedding" in c["name"]]
        assert len(product_checks) == 21
        assert len(embedding_checks) == 6  # explicit edge check for every 432 product
        assert not _failing(checks), _failing(checks)


def test_every_reproduction_check_falls_in_one_criterion(section3_results, section4_results):
    # the criteria above choose their checks by name, so a check whose name
    # no rule matches, or two rules match, would go unexamined or be counted
    # twice; the counts are those of the catalog's sections 3 and 4
    groups = {"t1": _is_t1, "products": _is_product, "theta": _is_theta, "type2": _is_type2}
    for results, want, witnesses in (
            (section3_results, {"t1": 48, "products": 12, "theta": 360, "type2": 60}, 144),
            (section4_results, {"t1": 21, "products": 15, "theta": 490, "type2": 8}, 210)):
        matched = [[g for g, rule in groups.items() if rule(c)] for c in results]
        assert [c["name"] for c, m in zip(results, matched) if len(m) != 1] == []
        assert {g: sum(m == [g] for m in matched) for g in groups} == want
        assert sum(map(_is_witness, results)) == witnesses


# ---- criterion 8: property suites, >= 1000 random cases each, n <= 96 ----

@st.composite
def _modulus_values(draw):
    n = draw(st.integers(3, 96))
    vals = draw(
        st.lists(st.integers(-3 * n, 3 * n).filter(lambda v: v % n != 0), min_size=1, max_size=12)
    )
    return n, vals


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(_modulus_values())
def test_criterion_8a_reflexive_idempotent(case):
    n, vals = case
    once = reflexive_reduce(vals, n)
    assert reflexive_reduce(once, n) == once
    assert all(1 <= s <= n // 2 for s in once)


@st.composite
def _graph_and_units(draw):
    n = draw(st.integers(3, 96))
    half = n // 2
    conn = draw(st.sets(st.integers(1, half), min_size=1, max_size=half))
    from circiso.residue import units

    u = units(n)
    x = draw(st.sampled_from(u))
    y = draw(st.sampled_from(u))
    return Circulant(n, tuple(sorted(conn))), x, y


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(_graph_and_units())
def test_criterion_8b_adam_action_law(case):
    g, x, y = case
    assert adams_apply(adams_apply(g, x), y) == adams_apply(g, (x * y) % g.n)


@st.composite
def _theta_params(draw):
    m = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 96 // m**3))
    n = m**3 * k
    t1 = draw(st.integers(0, n // m - 1))
    t2 = draw(st.integers(0, n // m - 1))
    return n, m, t1, t2


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(_theta_params())
def test_criterion_8c_theta_bijective_and_composes(case):
    n, m, t1, t2 = case
    a, b = ThetaMap(n, m, t1), ThetaMap(n, m, t2)
    pa, pb = theta_periodic(n, m, t1).expand(), theta_periodic(n, m, t2).expand()
    assert sorted(pa) == list(range(n))
    c = theta_compose(a, b)
    assert c.t == (t1 + t2) % (n // m)
    pc = theta_periodic(n, m, c.t).expand()
    assert all(pc[v] == pa[pb[v]] for v in range(n))


@st.composite
def _theta_graph(draw):
    m = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 96 // m**3))
    n = m**3 * k
    half = n // 2
    divisible = m * draw(st.integers(1, half // m))
    rest = draw(st.sets(st.integers(1, half), min_size=2, max_size=min(half, 9)))
    conn = tuple(sorted({divisible} | rest))
    assume(len(conn) >= 3)
    t = draw(st.integers(0, n // m - 1))
    return Circulant(n, conn), ThetaMap(n, m, t)


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(_theta_graph())
def test_criterion_8d_offset_and_edge_routes_agree(case):
    g, tm = case
    n = g.n
    cls = classify_theta(tm, g)
    shifted = theta_offsets(tm, symmetric_set(g))
    symmetric = all((n - s) % n in set(shifted) for s in shifted)
    if cls.kind == "not_circulant":
        assert not symmetric
    else:
        assert symmetric
        assert reflexive_reduce(shifted, n) == cls.image.conn
        # and the fused edge route equals the two-step public route
        f = theta_periodic(n, tm.m, tm.t).expand()
        two_step = detect_circulant(permute_edges(realize(g), f))
        assert two_step == cls.image


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(_theta_graph(), st.integers(0, 10**6))
def test_criterion_8e_every_witness_verifies(case, seed):
    g, tm = case
    cls = classify_theta(tm, g)
    if cls.witness is not None:
        assert cls.witness.verified
        assert verify_witness(cls.witness)
    from circiso.residue import units

    u = units(g.n)
    x = u[seed % len(u)]
    w = make_witness(g, adams_apply(g, x), adams_periodic(g.n, x).expand(), f"adam(x={x})")
    assert w.verified
