"""Deterministic random bit generator (HMAC-DRBG, NIST SP 800-90A style).

All randomness in the library — key generation, nonces, simulated
network jitter, workload generation — flows through instances of
:class:`HmacDrbg` so that every experiment is reproducible bit-for-bit
from its seed.  This is the "deterministic simulation" design decision
recorded in DESIGN.md §5.
"""

from __future__ import annotations

import hashlib

from ..errors import CryptoError
from .hmac_ import hmac_digest

__all__ = ["HmacDrbg"]

# RFC 2104 pads as byte-translation tables: ``key.translate(_IPAD)``
# XORs every byte of the zero-padded block-size key with 0x36.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_KEY_PADDING = bytes(32)  # a 32-byte HMAC-SHA256 key fills half a block


class HmacDrbg:
    """HMAC-SHA256 based DRBG with convenience integer/float draws.

    The update/generate loop follows SP 800-90A's HMAC_DRBG; reseeding
    and prediction resistance are out of scope for a simulator.

    Instantiation runs on :func:`~repro.crypto.hmac_.hmac_digest`.
    After that the generator keeps SHA-256 states that have already
    absorbed its current key's inner and outer pad blocks, so each MAC
    in :meth:`generate` hashes only V (or V‖0x00) — the same bytes
    ``hmac_digest`` would return, without re-hashing the key per call.
    """

    def __init__(self, seed: bytes | str | int, personalization: bytes = b"") -> None:
        if isinstance(seed, str):
            seed = seed.encode()
        elif isinstance(seed, int):
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        key, value = b"\x00" * 32, b"\x01" * 32
        provided = seed + personalization
        key = hmac_digest(key, value + b"\x00" + provided)
        value = hmac_digest(key, value)
        if provided:
            key = hmac_digest(key, value + b"\x01" + provided)
            value = hmac_digest(key, value)
        self._value = value
        self._rekey(key)

    def _rekey(self, key: bytes) -> None:
        block = key + _KEY_PADDING
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def _mac(self, message: bytes) -> bytes:
        """HMAC-SHA256 of *message* under the current key."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def generate(self, n_bytes: int) -> bytes:
        """Return *n_bytes* pseudo-random bytes."""
        if n_bytes < 0:
            raise CryptoError("cannot generate a negative number of bytes")
        mac = self._mac
        value = self._value
        if n_bytes <= 32:
            if n_bytes:
                value = mac(value)
            out = value[:n_bytes]
        else:
            chunks = []
            for _ in range((n_bytes + 31) // 32):
                value = mac(value)
                chunks.append(value)
            out = b"".join(chunks)[:n_bytes]
        # SP 800-90A update with no provided data: K = HMAC(K, V‖0x00),
        # then V = HMAC(K, V) under the new key.
        self._rekey(mac(value + b"\x00"))
        self._value = mac(value)
        return out

    # -- convenience draws -------------------------------------------------

    def randbits(self, bits: int) -> int:
        """Uniform integer in ``[0, 2**bits)``."""
        if bits <= 0:
            raise CryptoError("bits must be positive")
        n_bytes = (bits + 7) // 8
        value = int.from_bytes(self.generate(n_bytes), "big")
        return value >> (n_bytes * 8 - bits)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``.

        Uses rejection sampling so the distribution is exactly uniform.
        """
        if low > high:
            raise CryptoError(f"empty range [{low}, {high}]")
        span = high - low + 1
        bits = span.bit_length()
        while True:
            value = self.randbits(bits)
            if value < span:
                return low + value

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return self.randbits(53) / (1 << 53)

    def choice(self, seq):
        """Uniformly choose one element of a non-empty sequence."""
        if not seq:
            raise CryptoError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def expovariate(self, rate: float) -> float:
        """Exponentially distributed draw with the given rate (>0)."""
        import math

        if rate <= 0:
            raise CryptoError("rate must be positive")
        u = self.random()
        # u is in [0, 1); guard the log argument away from zero.
        return -math.log(1.0 - u) / rate

    def fork(self, label: str | bytes) -> "HmacDrbg":
        """Derive an independent child generator.

        Children with distinct labels produce independent streams;
        forking does not perturb the parent's own stream beyond one
        generate call.
        """
        if isinstance(label, str):
            label = label.encode()
        return HmacDrbg(self.generate(32), personalization=label)
