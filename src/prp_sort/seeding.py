"""Deterministic seed derivation.

Seeds are derived by hashing string-rendered parts with BLAKE2b rather than
the built-in hash(), which is salted per process for strings and would break
run-to-run reproducibility.
"""

import hashlib


def stable_seed(*parts: object) -> int:
    """Derive a 64-bit seed from the given parts, stable across processes:
    the BLAKE2b digest of their UTF-8 text, joined by the unit separator."""
    material = "\x1f".join(map(str, parts)).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "big")
