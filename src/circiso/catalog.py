"""Bundled connection-set tables for the order-432 and order-6750 Type-2
families, transcribed once from the upstream source tables and locked by
checksum. Divergences between those tables and what the arithmetic forces
are listed in data/TRANSCRIPTION_NOTES.md, never silently corrected.
"""

import json
from functools import lru_cache
from importlib import resources

from .circulant import Circulant, crt_circulant

CATALOG_SHA256 = "2623a0b3290651e77d0dadef49b6f45b0bdab66aa40a39bdbdefc5ff5820683a"

S3_LETTERS = "ABCDEF"
S4_LETTERS = "ABCDEFGHIJKLMNO"


class CatalogError(RuntimeError):
    pass


class Catalog:
    """Typed access to the embedded section-3 (n=432) and section-4 (n=6750)
    tables. Section-4 family members beyond the A family are derived from
    the factor orbits by the product construction; member 1 of every family
    is cross-checked against the verbatim seed transcription at load."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.s3 = raw["s3"]
        self.s4 = raw["s4"]
        self._check_seeds()

    # ---- section 3 -------------------------------------------------
    def s3_family(self, letter: str) -> tuple[Circulant, ...]:
        return tuple(Circulant(432, tuple(s)) for s in self.s3["families"][letter])

    def s3_seed(self, letter: str) -> Circulant:
        return self.s3_family(letter)[0]

    def s3_factor(self, key: str) -> Circulant:
        if key.startswith("X"):
            return Circulant(16, tuple(self.s3["factors16"][key]))
        return Circulant(27, tuple(self.s3["factors27"][key]))

    def s3_theta_rows(self):
        return self.s3["theta_rows"]

    def s3_t2_groups(self, m: int):
        return self.s3["t2_sets"][str(m)]

    # ---- section 4 -------------------------------------------------
    def s4_factor(self, key: str) -> Circulant:
        if key.startswith("X"):
            return Circulant(27, tuple(self.s4["factors27"][key]))
        return Circulant(250, tuple(self.s4["factors250"][key]))

    def s4_member(self, letter: str, j: int) -> Circulant:
        """Family member j in the source's numbering: block a of the 27-side
        orbit times entry b of the 250-side orbit, j = 10a + b + 1."""
        xk, zk = self.s4["products"][letter]
        a, b = divmod(j - 1, 10)
        return crt_circulant(27, self.s4["orbit27"][xk][a], 250, self.s4["orbit250"][zk][b])

    def s4_seed(self, letter: str) -> Circulant:
        return Circulant(6750, tuple(self.s4["seeds"][letter]))

    def s4_family_a(self) -> tuple[Circulant, ...]:
        return tuple(Circulant(6750, tuple(s)) for s in self.s4["family_a"])

    def s4_multiplier_rows(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, j) for x, j in self.s4["multiplier_rows"])

    def s4_theta_rows(self):
        return self.s4["theta_rows"]

    def s4_not_circulant(self):
        return self.s4["not_circulant"]

    def s4_t2_groups(self, m: int):
        return self.s4["t2_sets"][str(m)]

    # ---- integrity -------------------------------------------------
    def _check_seeds(self):
        for letter in S4_LETTERS:
            if self.s4_member(letter, 1) != self.s4_seed(letter):
                raise CatalogError(f"derived member ({letter}, 1) disagrees with seed table")
        for letter in S3_LETTERS:
            xk, yk = self.s3["products"][letter]
            g16, g27 = self.s3_factor(xk), self.s3_factor(yk)
            if crt_circulant(16, g16.conn, 27, g27.conn) != self.s3_seed(letter):
                raise CatalogError(f"product for family {letter} disagrees with seed table")


def _read_raw() -> str:
    return resources.files("circiso").joinpath("data/catalog.json").read_text()


@lru_cache(maxsize=1)
def load() -> Catalog:
    """Load the embedded catalog, verifying its checksum first."""
    import hashlib  # here, so that commands which never load the catalog skip OpenSSL

    text = _read_raw()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != CATALOG_SHA256:
        raise CatalogError(
            f"catalog checksum mismatch: expected {CATALOG_SHA256}, got {digest}"
        )
    return Catalog(json.loads(text))
