import pytest

from circiso.circulant import Circulant
from circiso.errors import InvalidParams, ZeroOffset
from circiso.residue import check_modulus, reflexive_reduce, units
from circiso.type2 import ThetaMap, type2_set, valid_type2_ms

from conftest import brute_reflexive


def test_reflexive_pair_collapses():
    assert reflexive_reduce([27, 405], 432) == (27,)


def test_reflexive_published_expansion():
    # the 5*(R1 union complement) expansion collapses back to one family set
    vals = [80, 135, 240, 270, 208, 368, 81, 351, 64, 224, 162, 192, 297, 352]
    assert reflexive_reduce(vals, 432) == (64, 80, 81, 135, 162, 192, 208)


def test_reflexive_half_offset_fixed():
    assert reflexive_reduce([5], 10) == (5,)


def test_reflexive_rejects_zero():
    with pytest.raises(ZeroOffset):
        reflexive_reduce([432], 432)
    with pytest.raises(ZeroOffset):
        reflexive_reduce([0], 10)


def test_reflexive_matches_oracle_and_idempotent():
    for n in (3, 10, 16, 27, 96):
        vals = [v for v in list(range(1, n)) + [n + 3, 2 * n - 1] if v % n != 0]
        once = reflexive_reduce(vals, n)
        assert once == brute_reflexive(vals, n)
        assert reflexive_reduce(once, n) == once


def test_reflexive_singleton_for_complement_pairs():
    n = 30
    for s in range(1, n):
        assert len(reflexive_reduce([s, n - s], n)) == 1


def test_units_16():
    assert units(16) == (1, 3, 5, 7, 9, 11, 13, 15)


def test_units_432():
    u = units(432)
    assert len(u) == 144
    assert u[:12] == (1, 5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35)


def test_units_6750():
    # Euler product: 6750 * (1/2) * (2/3) * (4/5) = 1800
    u = units(6750)
    assert len(u) == 1800
    # independent gcd scan
    from math import gcd

    assert len(u) == sum(1 for x in range(1, 6750) if gcd(6750, x) == 1)


def test_units_have_unique_inverses():
    for n in (7, 16, 27, 30):
        u = units(n)
        for x in u:
            inverses = [y for y in u if (x * y) % n == 1]
            assert len(inverses) == 1


# Type-2 admissibility is decided by type2.valid_type2_ms and refused by
# ThetaMap and type2_set; these four pin it on the paper's two orders

def test_valid_type2_params_432_m2():
    r1 = (16, 27, 48, 54, 128, 160, 189)
    assert 2 in valid_type2_ms(Circulant(432, r1))


def test_valid_type2_params_432_m5_invalid():
    g = Circulant(432, (16, 27, 48, 54, 128, 160, 189))
    assert 5 not in valid_type2_ms(g)
    with pytest.raises(InvalidParams, match="m\\^3 = 125 does not divide n = 432"):
        type2_set(g, 5)


def test_valid_type2_params_6750_m5():
    r1 = (135, 243, 250, 750, 1107, 1593, 2000, 2457, 2500, 2943)
    assert 5 in valid_type2_ms(Circulant(6750, r1))


def test_valid_type2_params_rejects_m1():
    with pytest.raises(InvalidParams, match="m must be > 1"):
        ThetaMap(432, 1, 0)


def test_modulus_bounds():
    # reflexive_reduce leaves n to its callers, whose Circulant or ThetaMap
    # has passed check_modulus
    with pytest.raises(ValueError):
        check_modulus(2)
    with pytest.raises(TypeError):
        units("16")
