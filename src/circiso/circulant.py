"""Circulant-graph values, graph text parsing, and the layout, size and edge
enumeration of circulants and their Cartesian products, with the circulant
a coprime product is carried onto."""

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd
from typing import NamedTuple, Union

from .errors import InvariantViolation, ParseError
from .residue import check_modulus, reflexive_reduce

# most edges either endpoint of a stored witness may have: no command stores
# a witness past it, and `verify` refuses a report that names one before
# building anything
WITNESS_EDGE_CAP = 100_000


@dataclass(frozen=True, order=True)
class Circulant:
    """C_n(R): order n plus the canonical connection set R, sorted ascending
    inside [1, n//2]. Two values are equal exactly when they name the same
    graph, so connection sets double as graph identifiers throughout.
    degree, the neighbour count of every vertex, is set on construction.
    """

    n: int
    conn: tuple[int, ...]

    def __post_init__(self):
        check_modulus(self.n)
        object.__setattr__(self, "conn", tuple(self.conn))
        if not self.conn:
            raise ValueError("connection set must be non-empty")
        half = self.n // 2
        prev = 0
        for s in self.conn:
            if isinstance(s, bool) or not isinstance(s, int) or s <= prev or s > half:
                raise ValueError(
                    f"offsets must be strictly increasing in [1, {half}], got {self.conn}"
                )
            prev = s
        # every offset gives two neighbours except n/2, which can only be the
        # last and gives one; degree is kept on the instance, outside the
        # fields that equality, hashing and ordering read
        object.__setattr__(self, "degree", 2 * len(self.conn) - (2 * prev == self.n))

    @classmethod
    def reduced(cls, n: int, values) -> "Circulant":
        """Build C_n(R) from arbitrary nonzero residues via reflexive reduction."""
        return cls(n, reflexive_reduce(values, n))

    @property
    def edge_count(self) -> int:
        return self.n * self.degree // 2

    @property
    def factors(self) -> tuple["Circulant"]:
        """The one factor of a circulant, so it enumerates like a Product."""
        return (self,)

    @property
    def edges(self) -> frozenset:
        """The edge set, built on demand by edge_set, as Product.edges is."""
        return edge_set((self,))

    def label(self) -> str:
        return f"C_{self.n}({','.join(map(str, self.conn))})"

    def text(self) -> str:
        return f"n={self.n};R={','.join(map(str, self.conn))}"


def parse_graph(text: str) -> Circulant:
    """Parse `n=<int>;R=<int>,<int>,...` (whitespace-insensitive).

    Raises ParseError naming the byte offset of the first offending
    character. Offsets may be given in any order but must already lie in
    [1, n//2]; out-of-range values are an error, not silently reduced.
    """
    i = 0

    def skip_ws():
        nonlocal i
        while i < len(text) and text[i].isspace():
            i += 1

    def expect(tok: str):
        nonlocal i
        skip_ws()
        if not text[i : i + len(tok)].lower() == tok:
            raise ParseError(f"expected {tok!r} at byte {i} in graph text {text!r}")
        i += len(tok)

    def number() -> int:
        nonlocal i
        skip_ws()
        j = i
        # ASCII digits only: str.isdigit also accepts forms such as '²'
        # that int() rejects
        while j < len(text) and "0" <= text[j] <= "9":
            j += 1
        if j == i:
            raise ParseError(f"expected an integer at byte {i} in graph text {text!r}")
        try:
            v = int(text[i:j])
        except ValueError as e:  # more digits than int() converts
            raise ParseError(f"{e} at byte {i} in graph text {text!r}") from e
        i = j
        return v

    expect("n")
    expect("=")
    n = number()
    expect(";")
    expect("r")
    expect("=")
    vals = [number()]
    skip_ws()
    while i < len(text) and text[i] == ",":
        i += 1
        vals.append(number())
        skip_ws()
    if i != len(text):
        raise ParseError(f"trailing garbage at byte {i} in graph text {text!r}")
    try:
        return Circulant(n, tuple(sorted(set(vals))))
    except ValueError as e:
        raise ParseError(f"{e} (graph text {text!r})") from e


@dataclass(frozen=True)
class EdgeGraph:
    """Explicit loop-free graph on vertex set Z_n; edges are (a, b) with
    0 <= a < b < n. The value is not checked on construction: realize
    emits that form by construction.
    """

    n: int
    edges: frozenset


def steps(factors):
    """The (block, shift) of every step of the Cartesian product of factors,
    as a list in the order of the factors and of their offsets.

    factors are a sequence in encoding order: vertex (x, y) of G x F is x*|F| + y.
    Each is a Circulant (its offsets) or a ring length k (offset 1; k = 2
    is a single edge). Every offset s of every factor is one step: a cyclic
    shift by shift = s*stride inside each block of block = k*stride
    vertices, where stride is the order of the factors after it. The step
    joins v to the vertex shifted(range(n), block, shift)[v]; together the
    steps list every edge of the product, and a step with 2s = k (an n/2
    offset or the 2-ring) lists each of its edges twice, once from each
    end. The edge count comes from the factors (sizes), not from the steps.
    """
    out, stride = [], 1
    for f in reversed(factors):  # the last factor has stride 1
        k, offsets = (f, (1,)) if isinstance(f, int) else (f.n, f.conn)
        out[:0] = [(k * stride, s * stride) for s in offsets]
        stride *= k
    return out


def shifted(seq, block, shift) -> list:
    """seq with each block of `block` consecutive entries rotated left by
    shift, two slices per block: entry v is seq[u], for u the vertex one
    step (block, shift) from v."""
    out = []
    for start in range(0, len(seq), block):
        mid = start + shift
        out += seq[mid:start + block]
        out += seq[start:mid]
    return out


def edge_set(factors) -> frozenset:
    """The edges (a, b), a < b, of the Cartesian product of factors."""
    vertices = range(Product(factors).n)
    return frozenset((v, w) if v < w else (w, v)
                     for block, shift in steps(factors)
                     for v, w in enumerate(shifted(vertices, block, shift)))


def sizes(factors):
    """(order, edge count) of the Cartesian product of the first i factors,
    for i = 1, 2, ...: G x F has |G|·|F| vertices and E(G)·|F| + E(F)·|G|
    edges. A ring of length k has k edges, or 1 edge for k = 2. factors
    may be an iterator, read one factor per pair yielded."""
    order, edges = 1, 0
    for f in factors:
        n, e = (f, 1 if f == 2 else f) if isinstance(f, int) else (f.n, f.edge_count)
        order, edges = order * n, edges * n + e * order
        yield order, edges


# layered product kind -> length of its ring of copies
LAYERS = {"prism": 2, "c4": 4}


@dataclass(frozen=True)
class Product:
    """Cartesian product of its factors, each a Circulant or a ring length
    (2 or 4), in encoding order: vertex (x, y) of G x F is x*|F| + y.

    Like a Circulant, it can be a witness endpoint: it exposes n,
    edge_count, factors and label. n and edge_count are the last pair of
    sizes(factors), the empty product being one vertex, and are set on
    construction, outside the fields that equality and hashing read.
    """

    factors: tuple[Union[Circulant, int], ...]

    def __post_init__(self):
        n, edges = 1, 0
        for n, edges in sizes(self.factors):
            pass
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_count", edges)

    @property
    def edges(self) -> frozenset:
        return edge_set(self.factors)

    def label(self) -> str:
        """The factors' labels joined by " x ", a ring of length k as C_k(1)."""
        return " x ".join(f"C_{f}(1)" if isinstance(f, int) else f.label() for f in self.factors)


def crt_circulant(m: int, r, n: int, s) -> Circulant:
    """C_mn(nR ∪ mS), the circulant onto which the CRT embedding
    (x, y) -> n*x + m*y carries C_m(R) x C_n(S), for coprime m and n: it
    takes an offset r of the first factor to exactly n*r and an offset s
    of the second to exactly m*s. A layered product is the ring C_k(1)
    times C_N(R), which gives C_kN({N} ∪ kR)."""
    return Circulant.reduced(m * n, [n * x for x in r] + [m * y for y in s])


# only the tests call realize; it stays cached because bench/tracer.py reads its cache_info()
@lru_cache(maxsize=16)
def realize(g: Circulant) -> EdgeGraph:
    """Materialize the edge set {{x, x+s mod n} : x in Z_n, s in R}."""
    edges = edge_set((g,))
    # offsets are distinct reflexive classes, so no two can realize one edge
    if len(edges) != g.edge_count:
        raise InvariantViolation(f"offset collision in realization of {g.label()}")
    return EdgeGraph(g.n, edges)


@lru_cache(maxsize=64)
def symmetric_set(g: Circulant) -> tuple[int, ...]:
    """The full offset set R plus complements n - R, with n/2 listed once."""
    full = set(g.conn)
    full.update(g.n - s for s in g.conn)
    return tuple(sorted(full))


class NotCirculant(NamedTuple):
    """Witness that a graph is not circulant: first vertex whose difference
    set disagrees with vertex 0's."""

    vertex: int


def is_connected(g: Circulant) -> bool:
    """True iff gcd of the offsets together with n is 1."""
    return reduce(gcd, g.conn, g.n) == 1
