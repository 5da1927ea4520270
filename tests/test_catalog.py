import json

import pytest

import circiso.catalog as cat_mod
from circiso.catalog import Catalog, CatalogError, load
from circiso.circulant import Circulant


def test_load_and_checksum():
    load()  # checks the checksum
    assert json.loads(cat_mod._read_raw())["schema"] == 1


def test_checksum_tamper_detected(monkeypatch):
    original = cat_mod._read_raw()
    tampered = original.replace("189", "190", 1)
    assert tampered != original
    monkeypatch.setattr(cat_mod, "_read_raw", lambda: tampered)
    load.cache_clear()
    try:
        with pytest.raises(CatalogError, match="checksum"):
            load()
    finally:
        load.cache_clear()


def test_corrupted_table_fails_seed_crosscheck():
    raw = json.loads(cat_mod._read_raw())
    raw["s4"]["seeds"]["A"][0] = 134  # no longer the derived product
    with pytest.raises(CatalogError, match="disagrees"):
        Catalog(raw)


def test_s3_families_spot_values(catalog):
    assert catalog.s3_seed("A") == Circulant(432, (16, 27, 48, 54, 128, 160, 189))
    assert catalog.s3_family("A")[2] == Circulant(432, (27, 32, 54, 96, 112, 176, 189))
    assert catalog.s3_family("D")[4] == Circulant(432, (16, 27, 48, 128, 160, 162, 189))
    assert all(len(catalog.s3_family(L)) == 6 for L in "ABCDEF")


def test_s4_member_derivation_matches_verbatim_a_family(catalog):
    family = catalog.s4_family_a()
    assert len(family) == 30
    for j, member in enumerate(family, start=1):
        assert catalog.s4_member("A", j) == member


def test_s4_members_frozen_from_source_listings(catalog):
    # F_2, K_2, J_2 as printed in the source's own consistent derivations
    assert catalog.s4_member("F", 2) == Circulant(
        6750, (405, 621, 729, 750, 1000, 1250, 1971, 2079, 3250, 3321)
    )
    assert catalog.s4_member("K", 2) == Circulant(
        6750, (405, 500, 621, 729, 750, 1750, 1971, 2079, 2750, 3321)
    )
    assert catalog.s4_member("J", 2) == Circulant(
        6750, (189, 405, 750, 1000, 1161, 1250, 1539, 2511, 2889, 3250)
    )


def test_s4_multiplier_rows_sufficient(catalog):
    rows = catalog.s4_multiplier_rows()
    assert len(rows) >= 10
    assert (7, 13) in rows and (17, 7) in rows


def test_s4_seeds_match_products(catalog):
    from circiso.products import product_coprime

    for letter in "AFK":
        xk, zk = catalog.s4["products"][letter]
        assert product_coprime(catalog.s4_factor(xk), catalog.s4_factor(zk)) == catalog.s4_seed(
            letter
        )
