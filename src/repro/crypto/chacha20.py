"""ChaCha20 stream cipher (RFC 8439).

Used as the bulk cipher inside :mod:`repro.crypto.aead` and hence for
both evidence confidentiality (the paper encrypts evidence with the
recipient's public key — we do hybrid RSA-KEM + ChaCha20) and the
secure-channel record layer.  Validated against the RFC 8439 test
vectors in the test suite.

:func:`chacha20_block` is the scalar RFC 8439 block function, kept as
the reference the tests compare against.  :func:`chacha20_keystream`
computes every block of a message at once: each of the 16 state words
is one Python int holding a 64-bit lane per block — the 32-bit word
plus guard bits that catch carries and rotated-out bits, cleared by a
mask after each add and rotate.  A double round therefore costs the
same ~160 int operations for one block as for sixty-four.
"""

from __future__ import annotations

import struct
from array import array

from ..errors import CryptoError

__all__ = ["chacha20_block", "chacha20_keystream", "chacha20_xor"]

KEY_SIZE = 32
NONCE_SIZE = 12
_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def _check_key_nonce(key: bytes, nonce: bytes) -> None:
    if len(key) != KEY_SIZE:
        raise CryptoError(f"ChaCha20 key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] ^= state[a]
    state[d] = ((state[d] << 16) | (state[d] >> 16)) & _MASK32
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] ^= state[c]
    state[b] = ((state[b] << 12) | (state[b] >> 20)) & _MASK32
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] ^= state[a]
    state[d] = ((state[d] << 8) | (state[d] >> 24)) & _MASK32
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] ^= state[c]
    state[b] = ((state[b] << 7) | (state[b] >> 25)) & _MASK32


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 block for the given key/counter/nonce."""
    _check_key_nonce(key, nonce)
    if not 0 <= counter <= _MASK32:
        raise CryptoError("ChaCha20 block counter out of range")
    state = list(_CONSTANTS)
    state.extend(struct.unpack("<8I", key))
    state.append(counter)
    state.extend(struct.unpack("<3I", nonce))
    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(w + s) & _MASK32 for w, s in zip(working, state)]
    return struct.pack("<16I", *out)


def _lane_quarter(a: int, b: int, c: int, d: int, mask: int) -> tuple[int, int, int, int]:
    """The quarter round on lane-packed words (every block at once)."""
    a = (a + b) & mask
    d ^= a
    d = (d << 16 | d >> 16) & mask
    c = (c + d) & mask
    b ^= c
    b = (b << 12 | b >> 20) & mask
    a = (a + b) & mask
    d ^= a
    d = (d << 8 | d >> 24) & mask
    c = (c + d) & mask
    b ^= c
    b = (b << 7 | b >> 25) & mask
    return a, b, c, d


def chacha20_keystream(key: bytes, nonce: bytes, length: int, initial_counter: int = 1) -> bytes:
    """*length* bytes of keystream starting at *initial_counter*."""
    _check_key_nonce(key, nonce)
    if length <= 0:
        return b""
    n_blocks = (length + 63) // 64
    if initial_counter < 0 or initial_counter + n_blocks - 1 > _MASK32:
        raise CryptoError("ChaCha20 block counter out of range")
    ones = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * n_blocks, "little")
    mask = _MASK32 * ones
    counters = struct.pack(f"<{n_blocks}Q", *range(initial_counter, initial_counter + n_blocks))
    state = [w * ones for w in _CONSTANTS + struct.unpack("<8I", key)]
    state.append(int.from_bytes(counters, "little"))
    state.extend(w * ones for w in struct.unpack("<3I", nonce))
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = state
    for _ in range(10):
        x0, x4, x8, x12 = _lane_quarter(x0, x4, x8, x12, mask)
        x1, x5, x9, x13 = _lane_quarter(x1, x5, x9, x13, mask)
        x2, x6, x10, x14 = _lane_quarter(x2, x6, x10, x14, mask)
        x3, x7, x11, x15 = _lane_quarter(x3, x7, x11, x15, mask)
        x0, x5, x10, x15 = _lane_quarter(x0, x5, x10, x15, mask)
        x1, x6, x11, x12 = _lane_quarter(x1, x6, x11, x12, mask)
        x2, x7, x8, x13 = _lane_quarter(x2, x7, x8, x13, mask)
        x3, x4, x9, x14 = _lane_quarter(x3, x4, x9, x14, mask)
    words = (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15)
    # Words 2j and 2j+1 of a block share one 64-bit lane, i.e. bytes
    # 8j..8j+7 of that block; interleave the eight lane sets block-major.
    out = array("Q", bytes(64 * n_blocks))
    for j in range(8):
        low = (words[2 * j] + state[2 * j]) & mask
        high = (words[2 * j + 1] + state[2 * j + 1]) & mask
        out[j::8] = array("Q", (low | high << 32).to_bytes(8 * n_blocks, "little"))
    return out.tobytes()[:length]


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, initial_counter: int = 1) -> bytes:
    """Encrypt or decrypt *data* (XOR with keystream; involution)."""
    stream = chacha20_keystream(key, nonce, len(data), initial_counter)
    mixed = int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    return mixed.to_bytes(len(data), "little")
