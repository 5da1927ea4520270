import time
from math import gcd

import pytest

from circiso import reproduce
from circiso.catalog import load as load_catalog

# one pass/fail line per acceptance criterion, printed after the test run
ACCEPTANCE_LINES = []

# wall time of the shared reproduction sweeps, keyed by section
SECTION_TIMES = {}


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def section3_results():
    start = time.perf_counter()
    results = reproduce.section3()
    SECTION_TIMES[3] = time.perf_counter() - start
    return results


@pytest.fixture(scope="session")
def section4_results():
    start = time.perf_counter()
    results = reproduce.section4()
    SECTION_TIMES[4] = time.perf_counter() - start
    return results


# ---- independent brute-force oracles used to freeze expected values ----

def brute_reflexive(values, n):
    out = set()
    for v in values:
        r = v % n
        assert r != 0
        out.add(min(r, n - r))
    return tuple(sorted(out))


def brute_least_unit(a, b):
    """Least unit x of Z_n with x*R = S, scanning every x in ascending
    order, or None."""
    n = a.n
    for x in range(1, n):
        if gcd(x, n) == 1 and brute_reflexive((x * s for s in a.conn), n) == b.conn:
            return x
    return None


def mask_unit_scan(a, b):
    """Every unit x of Z_n with x*R = S, ascending: a byte mask of S ∪ -S
    tests each x*r, and each hit is confirmed by reducing x*R in full."""
    n = a.n
    mask = bytearray(n)
    for s in b.conn:
        mask[s] = mask[n - s] = 1
    return [x for x in range(1, n) if gcd(x, n) == 1
            and all(mask[x * r % n] for r in a.conn)
            and brute_reflexive((x * r for r in a.conn), n) == b.conn]


def brute_edges(n, conn):
    """Edge set computed from the adjacency definition, not from realize()."""
    es = set()
    for x in range(n):
        for y in range(x + 1, n):
            d = (x - y) % n
            if min(d, n - d) in conn:
                es.add((x, y))
    return es


def brute_product_edges(g, h):
    """Cartesian product edge set from the definition: (x, y) ~ (x', y) for
    x ~ x' in g, and (x, y) ~ (x, y') for y ~ y' in h, with (x, y) encoded
    x*h.n + y. Factor edges have a < b, so product edges do too."""
    es = set()
    for x, x2 in brute_edges(g.n, set(g.conn)):
        es.update((x * h.n + y, x2 * h.n + y) for y in range(h.n))
    for y, y2 in brute_edges(h.n, set(h.conn)):
        es.update((x * h.n + y, x * h.n + y2) for x in range(g.n))
    return es


def brute_is_circulant(n, edges):
    """Per-vertex unreduced difference profile comparison."""
    diffs = [set() for _ in range(n)]
    for a, b in edges:
        diffs[a].add((b - a) % n)
        diffs[b].add((a - b) % n)
    return all(d == diffs[0] for d in diffs)
