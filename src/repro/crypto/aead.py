"""Authenticated encryption: ChaCha20 + HMAC-SHA256, encrypt-then-MAC.

A deliberately simple AEAD composition over the from-scratch primitives
(rather than Poly1305) so every piece is independently testable.  The
wire format is ``nonce (12) || ciphertext || tag (32)``, with the tag
computed over ``aad_len(8) || aad || nonce || ciphertext``.
"""

from __future__ import annotations

import struct
from time import perf_counter

from ..errors import CryptoError, DecryptionError
from . import instrument as _instrument
from .chacha20 import KEY_SIZE, NONCE_SIZE, chacha20_xor
from .hmac_ import constant_time_equals, hmac_digest

__all__ = ["seal", "open_", "derive_keys", "TAG_SIZE", "OVERHEAD"]

TAG_SIZE = 32
OVERHEAD = NONCE_SIZE + TAG_SIZE


def derive_keys(master: bytes) -> tuple[bytes, bytes]:
    """Split a master secret into (encryption key, MAC key).

    Simple HKDF-like expansion with domain-separating labels.
    """
    enc = hmac_digest(master, b"repro/aead/enc")
    mac = hmac_digest(master, b"repro/aead/mac")
    return enc[:KEY_SIZE], mac


def _tag_input(aad: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    return struct.pack(">Q", len(aad)) + aad + nonce + ciphertext


def seal(master: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt and authenticate *plaintext*.

    Returns ``nonce || ciphertext || tag``.  The caller must never reuse
    a nonce under the same key; protocol code draws nonces from a DRBG.
    """
    observer = _instrument.observer
    started = perf_counter() if observer is not None else 0.0
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    enc_key, mac_key = derive_keys(master)
    ciphertext = chacha20_xor(enc_key, nonce, plaintext)
    tag = hmac_digest(mac_key, _tag_input(aad, nonce, ciphertext))
    if observer is not None:
        observer.crypto_call("aead.seal", perf_counter() - started)
    return nonce + ciphertext + tag


def open_(master: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Verify and decrypt a box produced by :func:`seal`.

    Raises :class:`DecryptionError` on any tampering — of the
    ciphertext, the nonce, or the associated data.
    """
    observer = _instrument.observer
    if observer is None:
        return _open(master, sealed, aad)
    started = perf_counter()
    try:
        return _open(master, sealed, aad)
    finally:
        observer.crypto_call("aead.open", perf_counter() - started)


def _open(master: bytes, sealed: bytes, aad: bytes) -> bytes:
    if len(sealed) < OVERHEAD:
        raise DecryptionError("sealed box too short")
    nonce = sealed[:NONCE_SIZE]
    ciphertext = sealed[NONCE_SIZE:-TAG_SIZE]
    tag = sealed[-TAG_SIZE:]
    enc_key, mac_key = derive_keys(master)
    expected = hmac_digest(mac_key, _tag_input(aad, nonce, ciphertext))
    if not constant_time_equals(expected, tag):
        raise DecryptionError("AEAD tag mismatch")
    return chacha20_xor(enc_key, nonce, ciphertext)
