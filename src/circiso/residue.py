"""Exact arithmetic in Z_n: reflexive reduction, the unit group, and the
divisibility checks that gate Type-2 transforms."""

from dataclasses import dataclass
from functools import lru_cache
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
    """
    check_modulus(n)
    out = set()
    for v in values:
        r = v % n
        if r == 0:
            raise ZeroOffset(f"offset {v} is 0 mod {n}")
        out.add(r if 2 * r <= n else n - r)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def units(n: int) -> tuple[int, ...]:
    """All x in [1, n-1] with gcd(n, x) = 1, ascending. Length is phi(n)."""
    check_modulus(n)
    return tuple(x for x in range(1, n) if gcd(n, x) == 1)


@dataclass(frozen=True)
class Type2Validity:
    """Report on whether (n, m, R) can support a Type-2 transform."""

    n: int
    m: int
    cube_divides: bool
    divisible_offsets: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.cube_divides and bool(self.divisible_offsets)


def valid_type2_params(n: int, m: int, offsets: Iterable[int]) -> Type2Validity:
    """Check m^3 | n and that some offset r has m | gcd(n, r); list all such r.

    Both conditions must hold before any Type-2 claim; the existential
    reading (some r, not every r) is deliberate.
    """
    check_modulus(n)
    if m <= 1:
        raise ValueError(f"m must be > 1, got {m}")
    divisible = tuple(r for r in offsets if gcd(n, r) % m == 0)
    return Type2Validity(n=n, m=m, cube_divides=n % m**3 == 0, divisible_offsets=divisible)
