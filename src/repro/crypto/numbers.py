"""Modular arithmetic helpers used by the public-key primitives.

Everything here operates on plain Python integers.  These are the
building blocks for RSA (:mod:`repro.crypto.rsa`), Diffie-Hellman
(:mod:`repro.crypto.dh`) and Shamir secret sharing
(:mod:`repro.crypto.shamir`).
"""

from __future__ import annotations

import math

from ..errors import CryptoError

__all__ = [
    "egcd",
    "modinv",
    "crt_pair",
    "int_to_bytes",
    "bytes_to_int",
    "bit_length_bytes",
    "iroot",
    "is_perfect_square",
]


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` such that ``a*x + b*y == g == gcd(a, b)``.
    Iterative to avoid recursion limits on large inputs.
    """
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m``.

    Raises :class:`CryptoError` if the inverse does not exist.
    """
    if m <= 0:
        raise CryptoError(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise CryptoError(f"{a} has no inverse modulo {m} (gcd={math.gcd(a, m)})") from None


def crt_pair(r_p: int, p: int, r_q: int, q: int) -> int:
    """Chinese Remainder Theorem for two coprime moduli.

    Returns the unique ``x`` in ``[0, p*q)`` with ``x % p == r_p`` and
    ``x % q == r_q``.  Used for the RSA-CRT private operation.
    """
    q_inv = modinv(q, p)
    h = (q_inv * (r_p - r_q)) % p
    return (r_q + h * q) % (p * q)


def int_to_bytes(n: int, length: int | None = None) -> bytes:
    """Big-endian fixed-width encoding of a non-negative integer.

    When *length* is omitted the minimal width is used (``0`` encodes to
    one zero byte).  Raises if *n* does not fit in *length* bytes.
    """
    if n < 0:
        raise CryptoError("cannot encode negative integer")
    if length is None:
        length = max(1, (n.bit_length() + 7) // 8)
    try:
        return n.to_bytes(length, "big")
    except OverflowError as exc:
        raise CryptoError(f"integer too large for {length} bytes") from exc


def bytes_to_int(data: bytes) -> int:
    """Big-endian decoding, inverse of :func:`int_to_bytes`."""
    return int.from_bytes(data, "big")


def bit_length_bytes(n: int) -> int:
    """Number of bytes needed to hold ``n`` (at least 1)."""
    return max(1, (n.bit_length() + 7) // 8)


def iroot(n: int, k: int) -> int:
    """Integer k-th root: the largest ``r`` with ``r**k <= n``."""
    if n < 0:
        raise CryptoError("iroot of negative number")
    if n < 2:
        return n
    hi = 1 << ((n.bit_length() + k - 1) // k + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def is_perfect_square(n: int) -> bool:
    """True if *n* is a perfect square (used by primality sanity checks)."""
    if n < 0:
        return False
    r = iroot(n, 2)
    return r * r == n
