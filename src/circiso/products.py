"""Constructive Cartesian products of circulant graphs, each verified against
the product of its factors through one CRT embedding, and an experimental
scanner for the product conjectures."""

import itertools
from math import gcd
from typing import NamedTuple, Optional

from .circulant import (LAYERS, WITNESS_EDGE_CAP, Circulant, Product, crt_circulant,
                        is_connected)
from .errors import (EvenOrder, InvalidParams, NotConnected, NotCoprime, OrderMismatch,
                     OrderTooSmall)
from .iso_oracle import IsoWitness, PeriodicMap, walk_or_raise
from .residue import check_modulus
from .type2 import ThetaMap, classify_theta, type2_set, unit_lattice, valid_type2_ms

SCAN_HEADER = "experimental: checks sampled cases only and cannot falsify beyond its budget"


def product_witness(
    kind: str, g: Circulant, h: Optional[Circulant] = None
) -> tuple[Circulant, Optional[IsoWitness]]:
    """(result, witness) for a product: kind "coprime" takes connected
    factors g, h of coprime orders m, n > 2 and gives C_mn(nR union mS);
    "prism" and "c4" take g = C_N(R) with N odd and give C_kN(kR union {N})
    for k = 2, 4, the Cartesian product of the k-cycle with g.

    Up to WITNESS_EDGE_CAP edges the result carries its CRT embedding
    witness from Product((g, h)), or Product((k, g)), onto the result. The
    embedding (x, y) -> n*x + m*y mod mn, for the vertex x*n + y of the
    product and n the order of its second factor, has f(v + n) = f(v) + n,
    so it is kept as the PeriodicMap (p = c = n, head = (m*y for y < n)),
    and no mn-entry list is built. The witness comes from
    iso_oracle.walk_or_raise, which checks it edge for edge on the result's
    connection set over that one period; a failed check raises
    InvariantViolation naming crt-embedding(mxn).
    Above the cap no check runs and the witness is None.
    """
    if kind == "coprime":
        m, n = g.n, h.n
        if gcd(m, n) != 1:
            raise NotCoprime(f"gcd({m}, {n}) != 1")
        if m <= 2 or n <= 2:
            raise OrderTooSmall("both factors must have order > 2")
        if not is_connected(g):
            raise NotConnected(f"{g.label()} is not connected")
        if not is_connected(h):
            raise NotConnected(f"{h.label()} is not connected")
        result = crt_circulant(m, g.conn, n, h.conn)
    else:
        if g.n % 2 == 0:
            raise EvenOrder(f"{g.label()} must have odd order")
        m, n = LAYERS[kind], g.n
        result = crt_circulant(m, (1,), n, g.conn)
    if result.edge_count > WITNESS_EDGE_CAP:
        return result, None
    source = Product((g, h) if kind == "coprime" else (m, g))
    f = PeriodicMap(m * n, n, n, tuple(range(0, m * n, m)))
    return result, walk_or_raise(source, result, f, f"crt-embedding({m}x{n})")


def product_coprime(g: Circulant, h: Circulant) -> Circulant:
    """Product of connected circulants with coprime orders m, n > 2:
    C_mn(nR union mS), its CRT embedding checked on the connection set up
    to the cap (product_witness); the witness is not kept."""
    return product_witness("coprime", g, h)[0]


def _type2_orbits(g: Circulant):
    """Type-2 orbit of g for each m it admits (valid_type2_ms), in turn,
    skipping each m where type2.unit_lattice holds: there every circulant
    theta image is a unit map's, Type-1 or g itself, so the orbit has no
    partner and no Type-2 t to lift, and is not built."""
    for m in valid_type2_ms(g):
        if not unit_lattice(g, m):
            yield type2_set(g, m)


class LiftCheck(NamedTuple):
    """One transfer check: a factor witness (m, t) lifted to the product."""

    m: int
    t: int
    lifted_t: int
    kind: str  # classification of the lifted transform on the product; "type2" agrees


class ConjectureCase(NamedTuple):
    left: Circulant
    right: Circulant
    product: Circulant
    left_type2: bool
    right_type2: bool
    product_type2: bool
    lifts: tuple[LiftCheck, ...]

    @property
    def consistent(self) -> bool:
        return self.product_type2 == (self.left_type2 or self.right_type2)


class ConjectureReport(NamedTuple):
    """Experimental scan; consistency within the budget is not a proof."""

    cases: tuple[ConjectureCase, ...]
    exhausted: bool  # True when the budget cut enumeration short


def _offset_sets(lo: int, hi: int, size: int):
    """itertools.combinations(range(lo, hi + 1), size), in the same order,
    without first copying the range into a tuple."""
    if size == 0:
        yield ()
        return
    for s in range(lo, hi - size + 2):
        for rest in _offset_sets(s + 1, hi, size - 1):
            yield (s, *rest)


def _connected_sets(n: int):
    half = n // 2
    for size in range(1, half + 1):
        for conn in _offset_sets(1, half, size):
            g = Circulant(n, conn)
            if is_connected(g):
                yield g


def _diagonal_pairs(n1: int, n2: int):
    """Pair the two enumerations diagonally so both sides vary early on:
    diagonal s holds (left[i], right[s - i]), i descending. Each side is
    drawn one set per diagonal, only as far as the diagonals reach: i and
    s - i never exceed s, so diagonal s reads only sets drawn by then, and
    the first k + 1 pairs, all a scan of budget k reads, draw at most
    k + 1 sets per side. The walk ends at the first s > L + R - 2 for the
    L and R sets drawn: with both sides nonempty, neither grew at s, and
    every s - i with i < L is at least R.
    """
    sides = (_connected_sets(n1), _connected_sets(n2))
    left, right = [], []
    for s in itertools.count():
        left.extend(itertools.islice(sides[0], 1))
        right.extend(itertools.islice(sides[1], 1))
        if s > len(left) + len(right) - 2:
            return
        for i in range(min(s, len(left) - 1), -1, -1):
            j = s - i
            if j < len(right):
                yield left[i], right[j]


def _lift_checks(orbits, other_order: int, product: Circulant) -> list:
    """Conjecture-5 style transfers: the least Type-2 t of each factor orbit,
    (m, t) -> product (m, t*n2); one witness per m keeps the scan desk-scale."""
    out = []
    for orbit in orbits:
        t = next((t for t, kind, _ in orbit.outcomes if kind == "type2"), None)
        if t is None:
            continue
        lifted_t = (t * other_order) % (product.n // orbit.m)
        kind = classify_theta(ThetaMap(product.n, orbit.m, lifted_t), product).kind
        out.append(LiftCheck(m=orbit.m, t=t, lifted_t=lifted_t, kind=kind))
    return out


def scan_conjecture(n1: int, n2: int, budget: int, pairs=None) -> ConjectureReport:
    """Scan products C_{n1}(R1) x C_{n2}(R2) for conjecture-consistent behaviour.

    For each sampled connected pair the scanner asks whether the product
    has a nonempty Type-2 set for any valid m and whether either factor
    does, and records any disagreement verbatim. Factor Type-2 witnesses
    are additionally lifted to the product and reclassified there. Each
    factor's orbits are computed once per case and feed both its verdict
    and its lifts. An m where type2.unit_lattice holds builds no orbit
    (_type2_orbits): its lattice holds only unit maps, so it can give
    neither a partner nor a lift, and every verdict and lift is the one the
    full orbits give. Each order and the product's pass check_modulus before
    anything is enumerated, and a budget below 1 is refused: a scan of no
    cases would read as a completed enumeration. Given pairs must all have
    the orders (n1, n2), since each lift scales t by the other factor's
    order; any other pair is refused before the first case is computed.
    """
    for order in (n1, n2, n1 * n2):
        check_modulus(order)
    if gcd(n1, n2) != 1:
        raise NotCoprime(f"gcd({n1}, {n2}) != 1")
    if budget < 1:
        raise InvalidParams(f"budget must be at least 1, got {budget}")
    if pairs is None:
        pair_iter = _diagonal_pairs(n1, n2)
    else:
        pair_iter = tuple(pairs)
        for left, right in pair_iter:
            if (left.n, right.n) != (n1, n2):
                raise OrderMismatch(f"pair orders ({left.n}, {right.n}) != ({n1}, {n2})")
    cases = []
    exhausted = False
    for left, right in pair_iter:
        if len(cases) >= budget:
            exhausted = True
            break
        product = product_coprime(left, right)
        left_orbits, right_orbits = list(_type2_orbits(left)), list(_type2_orbits(right))
        cases.append(
            ConjectureCase(
                left=left,
                right=right,
                product=product,
                left_type2=any(len(o.members) > 1 for o in left_orbits),
                right_type2=any(len(o.members) > 1 for o in right_orbits),
                # stops at the first m with a partner, so no further product orbit runs
                product_type2=any(len(o.members) > 1 for o in _type2_orbits(product)),
                lifts=tuple(_lift_checks(left_orbits, n2, product)
                            + _lift_checks(right_orbits, n1, product)),
            )
        )
    return ConjectureReport(cases=tuple(cases), exhausted=exhausted)
