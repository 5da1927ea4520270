"""Exact arithmetic in Z_n: the modulus bounds, reflexive reduction and the
unit group. Which m a graph admits for Type-2 transforms is decided in
type2 (valid_type2_ms)."""

from math import gcd
from typing import Iterable

from .errors import CircisoError, OrderTooSmall, ZeroOffset

# All arithmetic is exact; the bound only guards against absurd inputs.
MAX_MODULUS = 2**31


def check_modulus(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"modulus must be an int, got {type(n).__name__}")
    if n < 3:
        raise OrderTooSmall(f"modulus must be >= 3, got {n}")
    if n > MAX_MODULUS:
        raise CircisoError(f"modulus {n} exceeds supported bound {MAX_MODULUS}")
    return n


def reflexive_reduce(values: Iterable[int], n: int) -> tuple[int, ...]:
    """Reduce each value mod n, replace anything above n/2 by its complement,
    then dedupe and sort ascending.

    A value congruent to 0 mod n is rejected outright: a zero offset never
    means anything for a connection set, so malformed input surfaces here.
    n is not checked again: every caller passes the order of a Circulant
    or ThetaMap, which check_modulus passed when it was built
    (type1._scaled, type2._lattice_conn), or the order of the Circulant it
    builds from the result, which checks it there (circulant.crt_circulant).
    """
    out = set()
    for v in values:
        r = v % n
        if r == 0:
            raise ZeroOffset(f"offset {v} is 0 mod {n}")
        out.add(r if 2 * r <= n else n - r)
    return tuple(sorted(out))


def units(n: int) -> tuple[int, ...]:
    """All x in [1, n-1] with gcd(n, x) = 1, ascending. Length is phi(n)."""
    check_modulus(n)
    return tuple(x for x in range(1, n) if gcd(n, x) == 1)
