"""In-storage tampering behaviours (the Fig. 5 threat).

The provider "has the capability to play with the data in hand" (§2.4).
This module enumerates concrete ways stored data can change between the
upload and download sessions, and applies them through the blob store's
raw (check-free) mutation path:

* ``BIT_FLIP`` — silent corruption (bad disk, or careless provider);
  the stored MD5 metadata is left alone.
* ``REPLACE`` — content substituted wholesale, metadata left alone.
* ``TRUNCATE`` — tail of the object lost, metadata left alone.
* ``FIXUP_MD5`` — content substituted **and the stored MD5 recomputed
  to match**: a deliberate cover-up only the provider can perform.
  Against the Azure model this defeats the returned-MD5 check; against
  the AWS model even plain REPLACE is invisible (MD5 is recomputed on
  the way out anyway).
* ``NONE`` — control case.

The Fig. 5 experiment sweeps (platform x tamper mode) and scores
detection and attribution.
"""

from __future__ import annotations

import enum

from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..errors import StorageError
from .blobstore import BlobStore, StoredObject

__all__ = ["TamperMode", "apply_tamper"]


class TamperMode(enum.Enum):
    NONE = "none"
    BIT_FLIP = "bit-flip"
    REPLACE = "replace"
    TRUNCATE = "truncate"
    FIXUP_MD5 = "fixup-md5"

    @property
    def alters_data(self) -> bool:
        return self is not TamperMode.NONE

    @property
    def covers_tracks(self) -> bool:
        """True when the stored digest is fixed up to match."""
        return self is TamperMode.FIXUP_MD5


def _replacement(data: bytes, rng: HmacDrbg) -> bytes:
    """Random bytes of ``len(data)`` that differ from *data*.

    A substitution that happens to redraw the stored bytes (likely for
    a 1-byte object) would be no tamper at all, so it is redrawn.
    """
    replacement = rng.generate(len(data))
    while replacement == data:
        replacement = rng.generate(len(data))
    return replacement


def apply_tamper(
    store: BlobStore,
    container: str,
    key: str,
    mode: TamperMode,
    rng: HmacDrbg,
) -> StoredObject:
    """Apply *mode* to a stored object; returns the post-tamper object."""
    obj = store.get(container, key)
    if mode is TamperMode.NONE:
        return obj
    if not obj.data:
        raise StorageError("cannot tamper with an empty object")
    if mode is TamperMode.BIT_FLIP:
        index = rng.randint(0, len(obj.data) - 1)
        bit = 1 << rng.randint(0, 7)
        mutated = bytearray(obj.data)
        mutated[index] ^= bit
        return store.overwrite_raw(container, key, data=bytes(mutated))
    if mode is TamperMode.REPLACE:
        replacement = _replacement(obj.data, rng)
        return store.overwrite_raw(container, key, data=replacement)
    if mode is TamperMode.TRUNCATE:
        keep = max(1, len(obj.data) // 2)
        return store.overwrite_raw(container, key, data=obj.data[:keep])
    if mode is TamperMode.FIXUP_MD5:
        replacement = _replacement(obj.data, rng)
        return store.overwrite_raw(
            container, key, data=replacement, content_md5=digest("md5", replacement)
        )
    raise StorageError(f"unhandled tamper mode {mode}")  # pragma: no cover
