"""HMAC (RFC 2104) built on the hash substrate.

The Azure-style SharedKey authentication in
:mod:`repro.storage.azurelike` and the secure-channel record layer in
:mod:`repro.net.securechannel` both authenticate with HMAC-SHA256, the
scheme the paper's Table 1 shows.  ``hmac_digest`` is the stdlib
``hmac.digest`` by default; its ``pure`` mode builds HMAC from scratch
over :func:`repro.crypto.hashes.digest` and is the reference the tests
check against RFC 4231 and the stdlib.
"""

from __future__ import annotations

import hmac

from ..errors import CryptoError
from .hashes import DIGEST_SIZES, digest

__all__ = ["hmac_digest", "hmac_hexdigest", "verify_hmac", "constant_time_equals"]

_BLOCK_SIZE = 64  # both MD5 and SHA-256 use 64-byte blocks


def hmac_digest(key: bytes, message: bytes, name: str = "sha256", *, pure: bool = False) -> bytes:
    """HMAC of *message* under *key* with the named hash."""
    if name not in DIGEST_SIZES:
        raise CryptoError(f"unknown hash algorithm: {name!r}")
    if not pure:
        return hmac.digest(key, message, name)
    if len(key) > _BLOCK_SIZE:
        key = digest(name, key, pure=pure)
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    o_pad = bytes(b ^ 0x5C for b in key)
    i_pad = bytes(b ^ 0x36 for b in key)
    inner = digest(name, i_pad + message, pure=pure)
    return digest(name, o_pad + inner, pure=pure)


def hmac_hexdigest(key: bytes, message: bytes, name: str = "sha256", *, pure: bool = False) -> str:
    """Hex form of :func:`hmac_digest`."""
    return hmac_digest(key, message, name, pure=pure).hex()


def constant_time_equals(a: bytes, b: bytes) -> bool:
    """Timing-safe byte-string comparison.

    The simulator has no real side channels, but verification sites use
    this anyway so the code models the correct practice.
    """
    return hmac.compare_digest(a, b)


def verify_hmac(key: bytes, message: bytes, tag: bytes, name: str = "sha256") -> bool:
    """Recompute and compare an HMAC tag in constant time."""
    return constant_time_equals(hmac_digest(key, message, name), tag)
