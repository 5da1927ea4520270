"""Circulant-graph values, graph text parsing, and the edge enumeration of
circulants and their Cartesian products."""

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, prod
from typing import NamedTuple

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

    @classmethod
    def reduced(cls, n: int, values) -> "Circulant":
        """Build C_n(R) from arbitrary nonzero residues via reflexive reduction."""
        return cls(n, reflexive_reduce(values, n))

    @property
    def degree(self) -> int:
        # n/2 is self-paired and contributes one neighbour, everything else two
        return sum(1 if 2 * s == self.n else 2 for s in self.conn)

    @property
    def edge_count(self) -> int:
        return self.n * self.degree // 2

    @property
    def factors(self) -> tuple["Circulant"]:
        """The one factor of a circulant, so it enumerates like a Product."""
        return (self,)

    @property
    def edges(self) -> frozenset:
        """The realized edge set, built on demand."""
        return realize(self).edges

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


def neighbour_maps(factors):
    """Each step of the Cartesian product of factors, as a neighbour list.

    factors are in encoding order: vertex (x, y) of G x F is x*|F| + y.
    Each is a Circulant (its offsets) or a ring length k (offset 1; k = 2
    is a single edge). For every offset s of every factor this yields the
    list u with u[v] the vertex one step of s from v: a cyclic shift by
    s*stride inside each block of k*stride vertices, where stride is the
    order of the factors after it. Every edge {v, u[v]} of the product is
    listed, some twice (both directions of an n/2 offset or the 2-ring).
    """
    n = prod(f if isinstance(f, int) else f.n for f in factors)
    stride = n
    for f in factors:
        k, offsets = (f, (1,)) if isinstance(f, int) else (f.n, f.conn)
        stride //= k
        block = k * stride
        for s in offsets:
            shift = s * stride
            u = []
            for start in range(0, n, block):
                u += range(start + shift, start + block)
                u += range(start, start + shift)
            yield u


def edge_set(factors) -> frozenset:
    """The edges (a, b), a < b, of the Cartesian product of factors."""
    return frozenset((v, w) if v < w else (w, v)
                     for u in neighbour_maps(factors) for v, w in enumerate(u))


# no command reads an EdgeGraph: realize serves the tests, and stays cached
# because the benchmark's tracer reads its cache_info()
@lru_cache(maxsize=16)
def realize(g: Circulant) -> EdgeGraph:
    """Materialize the edge set {{x, x+s mod n} : x in Z_n, s in R}."""
    eg = EdgeGraph(g.n, edge_set((g,)))
    # offsets are distinct reflexive classes, so no two can realize one edge
    if len(eg.edges) != g.edge_count:
        raise InvariantViolation(f"offset collision in realization of {g.label()}")
    return eg


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
