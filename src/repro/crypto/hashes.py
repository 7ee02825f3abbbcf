"""Hash functions: from-scratch MD5 and SHA-256 plus a fast dispatcher.

The paper's platforms rely on MD5 (Content-MD5, AWS import/export logs)
and SHA-256 (Azure SharedKey HMAC).  Both are implemented here in pure
Python as the reference substrate and validated against :mod:`hashlib`
in the test suite.  Production call sites go through :func:`digest`,
which dispatches to ``hashlib`` for speed; the pure-Python classes stay
available for auditability and for the crypto micro-benchmarks.
"""

from __future__ import annotations

import hashlib
import struct

from ..errors import CryptoError

__all__ = [
    "MD5",
    "SHA256",
    "digest",
    "hexdigest",
    "DIGEST_SIZES",
    "HASH_NAMES",
]

HASH_NAMES = ("md5", "sha256")
DIGEST_SIZES = {"md5": 16, "sha256": 32}

_MASK32 = 0xFFFFFFFF


def _rotl32(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK32


def _rotr32(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK32


# --------------------------------------------------------------------------
# MD5 (RFC 1321)
# --------------------------------------------------------------------------

_MD5_S = (
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
)

# K[i] = floor(2**32 * abs(sin(i + 1))), precomputed per RFC 1321.
_MD5_K = (
    0xD76AA478, 0xE8C7B756, 0x242070DB, 0xC1BDCEEE,
    0xF57C0FAF, 0x4787C62A, 0xA8304613, 0xFD469501,
    0x698098D8, 0x8B44F7AF, 0xFFFF5BB1, 0x895CD7BE,
    0x6B901122, 0xFD987193, 0xA679438E, 0x49B40821,
    0xF61E2562, 0xC040B340, 0x265E5A51, 0xE9B6C7AA,
    0xD62F105D, 0x02441453, 0xD8A1E681, 0xE7D3FBC8,
    0x21E1CDE6, 0xC33707D6, 0xF4D50D87, 0x455A14ED,
    0xA9E3E905, 0xFCEFA3F8, 0x676F02D9, 0x8D2A4C8A,
    0xFFFA3942, 0x8771F681, 0x6D9D6122, 0xFDE5380C,
    0xA4BEEA44, 0x4BDECFA9, 0xF6BB4B60, 0xBEBFBC70,
    0x289B7EC6, 0xEAA127FA, 0xD4EF3085, 0x04881D05,
    0xD9D4D039, 0xE6DB99E5, 0x1FA27CF8, 0xC4AC5665,
    0xF4292244, 0x432AFF97, 0xAB9423A7, 0xFC93A039,
    0x655B59C3, 0x8F0CCC92, 0xFFEFF47D, 0x85845DD1,
    0x6FA87E4F, 0xFE2CE6E0, 0xA3014314, 0x4E0811A1,
    0xF7537E82, 0xBD3AF235, 0x2AD7D2BB, 0xEB86D391,
)


class MD5:
    """Incremental pure-Python MD5 with the hashlib interface subset."""

    digest_size = 16
    block_size = 64
    name = "md5"

    def __init__(self, data: bytes = b"") -> None:
        self._h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Feed more bytes into the hash state."""
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]

    def _compress(self, block: bytes) -> None:
        m = struct.unpack("<16I", block)
        a, b, c, d = self._h
        for i in range(64):
            if i < 16:
                f = (b & c) | (~b & d)
                g = i
            elif i < 32:
                f = (d & b) | (~d & c)
                g = (5 * i + 1) % 16
            elif i < 48:
                f = b ^ c ^ d
                g = (3 * i + 5) % 16
            else:
                f = c ^ (b | (~d & _MASK32))
                g = (7 * i) % 16
            f = (f + a + _MD5_K[i] + m[g]) & _MASK32
            a, d, c = d, c, b
            b = (b + _rotl32(f, _MD5_S[i])) & _MASK32
        self._h = [
            (self._h[0] + a) & _MASK32,
            (self._h[1] + b) & _MASK32,
            (self._h[2] + c) & _MASK32,
            (self._h[3] + d) & _MASK32,
        ]

    def digest(self) -> bytes:
        """Return the 16-byte digest of everything fed so far."""
        clone = MD5()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        bit_len = clone._length * 8
        pad_len = (56 - (clone._length + 1)) % 64
        clone._buffer += b"\x80" + b"\x00" * pad_len + struct.pack("<Q", bit_len & 0xFFFFFFFFFFFFFFFF)
        while clone._buffer:
            clone._compress(clone._buffer[:64])
            clone._buffer = clone._buffer[64:]
        return struct.pack("<4I", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "MD5":
        clone = MD5()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


# --------------------------------------------------------------------------
# SHA-256 (FIPS 180-4)
# --------------------------------------------------------------------------

_SHA256_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_SHA256_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)


class SHA256:
    """Incremental pure-Python SHA-256 with the hashlib interface subset."""

    digest_size = 32
    block_size = 64
    name = "sha256"

    def __init__(self, data: bytes = b"") -> None:
        self._h = list(_SHA256_H0)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Feed more bytes into the hash state."""
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for i in range(16, 64):
            s0 = _rotr32(w[i - 15], 7) ^ _rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr32(w[i - 2], 17) ^ _rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, h = self._h
        for i in range(64):
            s1 = _rotr32(e, 6) ^ _rotr32(e, 11) ^ _rotr32(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + s1 + ch + _SHA256_K[i] + w[i]) & _MASK32
            s0 = _rotr32(a, 2) ^ _rotr32(a, 13) ^ _rotr32(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & _MASK32
            h, g, f, e = g, f, e, (d + temp1) & _MASK32
            d, c, b, a = c, b, a, (temp1 + temp2) & _MASK32
        self._h = [(x + y) & _MASK32 for x, y in zip(self._h, (a, b, c, d, e, f, g, h))]

    def digest(self) -> bytes:
        """Return the 32-byte digest of everything fed so far."""
        clone = self.copy()
        bit_len = clone._length * 8
        pad_len = (56 - (clone._length + 1)) % 64
        clone._buffer += b"\x80" + b"\x00" * pad_len + struct.pack(">Q", bit_len)
        while clone._buffer:
            clone._compress(clone._buffer[:64])
            clone._buffer = clone._buffer[64:]
        return struct.pack(">8I", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "SHA256":
        clone = SHA256()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


# --------------------------------------------------------------------------
# Dispatcher
# --------------------------------------------------------------------------

_PURE = {"md5": MD5, "sha256": SHA256}
# Named constructors, not ``hashlib.new(name, data)``: the by-name
# lookup costs more than the hash itself on short inputs.
_STDLIB = {"md5": hashlib.md5, "sha256": hashlib.sha256}


def digest(name: str, data: bytes, *, pure: bool = False) -> bytes:
    """One-shot digest of *data* with the named algorithm.

    Dispatches to :mod:`hashlib` unless ``pure=True``, which forces the
    from-scratch implementation (used by tests and micro-benchmarks).
    """
    constructor = (_PURE if pure else _STDLIB).get(name)
    if constructor is None:
        raise CryptoError(f"unknown hash algorithm: {name!r}")
    return constructor(data).digest()


def hexdigest(name: str, data: bytes, *, pure: bool = False) -> str:
    """Hex form of :func:`digest`."""
    return digest(name, data, pure=pure).hex()
