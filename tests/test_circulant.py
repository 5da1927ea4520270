import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circiso.circulant import (
    Circulant,
    EdgeGraph,
    crt_circulant,
    is_connected,
    parse_graph,
    realize,
    symmetric_set,
)
from circiso.errors import CircisoError, ParseError
from circiso.residue import MAX_MODULUS

from conftest import brute_edges
from oracles import NotCirculant, detect_circulant, permute_edges

R1_432 = Circulant(432, (16, 27, 48, 54, 128, 160, 189))


def test_circulant_validation():
    with pytest.raises(ValueError):
        Circulant(16, ())
    with pytest.raises(ValueError):
        Circulant(16, (0, 1))
    with pytest.raises(ValueError):
        Circulant(16, (9,))  # above n/2
    with pytest.raises(ValueError):
        Circulant(16, (3, 2))  # not ascending


def test_crt_circulant_refuses_an_order_past_the_bound():
    # reflexive_reduce leaves the modulus to its callers; the Circulant
    # that crt_circulant returns checks m*n and raises the same error
    m, n = 2**16 + 1, 2**15 + 1
    assert m * n > MAX_MODULUS
    with pytest.raises(CircisoError) as err:
        crt_circulant(m, (1,), n, (1,))
    assert type(err.value) is CircisoError
    assert str(err.value) == f"modulus {m * n} exceeds supported bound {MAX_MODULUS}"


def test_degree_counts_half_offset_once():
    assert Circulant(10, (2, 5)).degree == 3
    assert Circulant(16, (1, 2, 7)).degree == 6


def test_parse_round_trip():
    g = parse_graph("n=16;R=1,2,7")
    assert g == Circulant(16, (1, 2, 7))
    assert parse_graph(g.text()) == g
    assert parse_graph("  n = 16 ; R = 7 , 2 , 1 ") == g


# valid graph texts, including the bounds of the order and of an offset
_GRAPH_TEXTS = ("n=16;R=1,2,7", "n=432;R=16,27,48,54,128,160,189", " N = 10 ; r = 5 , 2 ",
                "n=3;R=1", "n=2147483647;R=1", "n=2147483648;R=1,1073741824")


@st.composite
def _mutated_graph_text(draw):
    """A valid graph text with up to four characters inserted, deleted or
    replaced, drawn mostly from the grammar's own alphabet."""
    text = draw(st.sampled_from(_GRAPH_TEXTS))
    chars = st.one_of(st.sampled_from("0123456789nNrR=;, \t-+²٣"), st.characters())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        keep = text[i:] if how == "insert" else text[i + 1:]
        text = text[:i] + ("" if how == "delete" else draw(chars)) + keep
    return text


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.text(max_size=30), st.text(alphabet="0123456789nNrR=;, ", max_size=30),
                 _mutated_graph_text()))
def test_parse_graph_returns_a_graph_or_a_parse_error(text):
    # any other exception would reach the command line as a traceback
    try:
        g = parse_graph(text)
    except ParseError:
        return
    assert isinstance(g, Circulant) and parse_graph(g.text()) == g


def test_parse_errors_carry_byte_offset():
    with pytest.raises(ParseError, match="byte 0"):
        parse_graph("x=16;R=1")
    with pytest.raises(ParseError, match="byte 2"):
        parse_graph("n=;R=1")
    with pytest.raises(ParseError, match="byte 8"):
        parse_graph("n=16;R=1x")
    with pytest.raises(ParseError):
        parse_graph("n=16;R=9")  # offset out of range surfaces as ParseError


def test_parse_rejects_non_ascii_digits():
    # str.isdigit accepts these, int() does not; both must be a ParseError
    with pytest.raises(ParseError, match="byte 3"):
        parse_graph("n=1²;R=1")
    with pytest.raises(ParseError, match="byte 2"):
        parse_graph("n=٣;R=1")
    with pytest.raises(ParseError, match="byte 2"):
        parse_graph("n=" + "9" * 5000 + ";R=1")  # beyond int()'s digit limit


def test_parse_errors_count_utf8_bytes():
    # U+3000 is whitespace of three UTF-8 bytes: 'x' is character 7, byte 9
    with pytest.raises(ParseError, match="at byte 9 "):
        parse_graph("\u3000n=8;R=x")


def test_realize_complete_graph():
    assert len(realize(Circulant(4, (1, 2))).edges) == 6


def test_realize_c16_127():
    eg = realize(Circulant(16, (1, 2, 7)))
    assert len(eg.edges) == 48
    degs = [0] * 16
    for a, b in eg.edges:
        degs[a] += 1
        degs[b] += 1
    assert set(degs) == {6}
    assert set(eg.edges) == brute_edges(16, {1, 2, 7})


def test_realize_cycle():
    eg = realize(Circulant(5, (1,)))
    assert set(eg.edges) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def test_symmetric_set_r1():
    assert symmetric_set(R1_432) == (
        16, 27, 48, 54, 128, 160, 189, 243, 272, 304, 378, 384, 405, 416,
    )


def test_symmetric_set_half_offset_listed_once():
    assert symmetric_set(Circulant(10, (5,))) == (5,)
    assert symmetric_set(Circulant(16, (2, 3, 5))) == (2, 3, 5, 11, 13, 14)


def test_symmetric_set_closed_under_complement():
    for g in (R1_432, Circulant(16, (1, 2, 7)), Circulant(10, (2, 5))):
        full = symmetric_set(g)
        assert all((g.n - s) % g.n in full for s in full)


def test_edge_count_matches_symmetric_set():
    for g in (Circulant(16, (1, 2, 7)), Circulant(10, (2, 5)), Circulant(27, (1, 3, 8, 10))):
        assert 2 * len(realize(g).edges) == g.n * len(symmetric_set(g))


def test_detect_round_trip():
    for g in (
        Circulant(16, (1, 2, 7)),
        Circulant(10, (2, 5)),
        Circulant(27, (2, 3, 7, 11)),
        R1_432,
    ):
        assert detect_circulant(realize(g)) == g


def test_detect_rejects_path():
    path = EdgeGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    res = detect_circulant(path)
    assert res == NotCirculant(1)


def test_detect_rejects_empty():
    with pytest.raises(ValueError):
        detect_circulant(EdgeGraph(4, frozenset()))


def test_permute_edges_relabels():
    eg = realize(Circulant(5, (1,)))
    rotated = permute_edges(eg, [(v + 1) % 5 for v in range(5)])
    assert detect_circulant(rotated) == Circulant(5, (1,))
    with pytest.raises(ValueError):
        permute_edges(eg, [0, 0, 1, 2, 3])


def test_is_connected():
    assert not is_connected(Circulant(16, (2, 4)))
    assert is_connected(Circulant(16, (1, 2, 7)))
    assert is_connected(R1_432)

