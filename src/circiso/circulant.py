"""Circulant-graph values, explicit edge realization, and the detection test
that decides whether an arbitrary graph on Z_n is circulant."""

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
    def edges(self) -> frozenset:
        """The realized edge set, so a Circulant can stand wherever an
        EdgeGraph is read (a witness endpoint); built on demand."""
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
    0 <= a < b < n.

    The value is not checked on construction. Edge sets come only from the
    builders realize, cartesian_edges, ring_edges and permute_edges, which
    emit that form by construction, and outside data (a `verify` report)
    reaches them only through Circulant, which validates n and the
    connection set. The form matters for soundness: verify_witness compares
    edge counts and then looks up each image, so a source holding a
    reversed (b, a) duplicate could pass with a target that misses an edge.
    """

    n: int
    edges: frozenset


def edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


# classification never realizes; the edge-level consumers do: the
# re-check of each theta witness in the n=6750 reproduction (15 member graphs
# per family index, the working set this cache must hold), `verify`, and
# product_witness
@lru_cache(maxsize=16)
def realize(g: Circulant) -> EdgeGraph:
    """Materialize the edge set {{x, x+s mod n} : x in Z_n, s in R}."""
    n = g.n
    es = set()
    add = es.add
    for s in g.conn:
        for x in range(n):
            y = x + s if x + s < n else x + s - n
            add((x, y) if x < y else (y, x))
    eg = EdgeGraph(n, frozenset(es))
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


def permute_edges(eg: EdgeGraph, perm) -> EdgeGraph:
    """Relabel vertices through a permutation given as an image list."""
    if sorted(perm) != list(range(eg.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    es = set()
    add = es.add
    for a, b in eg.edges:
        pa, pb = perm[a], perm[b]
        add((pa, pb) if pa < pb else (pb, pa))
    return EdgeGraph(eg.n, frozenset(es))


class NotCirculant(NamedTuple):
    """Witness that a graph is not circulant: first vertex whose difference
    set disagrees with vertex 0's."""

    vertex: int


def detect_circulant(eg: EdgeGraph) -> Union[Circulant, NotCirculant]:
    """Return the connection set if every vertex sees the same difference set.

    The per-vertex sets are compared unreduced: comparing reflexively
    reduced sets would accept graphs such as a path on Z_4, where every
    vertex reduces to {1} although the edge sets differ.
    """
    n = eg.n
    if not eg.edges:
        raise ValueError("empty graph has no connection set")
    adj = [[] for _ in range(n)]
    for a, b in eg.edges:
        adj[a].append(b)
        adj[b].append(a)
    base = frozenset(adj[0])  # differences (y - 0) mod n
    k = len(base)
    for x in range(1, n):
        row = adj[x]
        # neighbours are distinct, so distinct differences: count plus
        # membership is full set equality
        if len(row) != k:
            return NotCirculant(x)
        for y in row:
            if (y - x) % n not in base:
                return NotCirculant(x)
    return Circulant(n, reflexive_reduce(base, n))


def is_connected(g: Circulant) -> bool:
    """True iff gcd of the offsets together with n is 1."""
    return reduce(gcd, g.conn, g.n) == 1
