"""The lane-parallel ChaCha20 kernel against the scalar block reference.

``chacha20_keystream``/``chacha20_xor`` compute all blocks of a message
at once; ``chacha20_block`` is the one-block RFC 8439 function.  Every
case here rebuilds the expected bytes block by block from the latter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chacha20 import chacha20_block, chacha20_keystream, chacha20_xor
from repro.errors import CryptoError

KEY = bytes(range(32))
NONCE = bytes.fromhex("000000000000004a00000000")
EVIDENCE_BYTES = 152  # mean AEAD plaintext of per-message evidence


def reference_keystream(key: bytes, nonce: bytes, length: int, counter: int = 1) -> bytes:
    blocks = (chacha20_block(key, counter + i, nonce) for i in range((length + 63) // 64))
    return b"".join(blocks)[:length]


def reference_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 1) -> bytes:
    return bytes(a ^ b for a, b in zip(data, reference_keystream(key, nonce, len(data), counter)))


class TestRfcVectors:
    def test_sunscreen(self):
        pt = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        assert chacha20_xor(KEY, NONCE, pt) == reference_xor(KEY, NONCE, pt)

    def test_block_boundary_keystream(self):
        for n in (0, 1, 63, 64, 65, 127, 128, 129, EVIDENCE_BYTES, 1000, 4096, 65536):
            assert chacha20_keystream(KEY, NONCE, n) == reference_keystream(KEY, NONCE, n), n


class TestEquivalence:
    @given(
        st.binary(min_size=32, max_size=32),
        st.binary(max_size=4096),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_xor_matches_reference(self, key, data, counter):
        assert chacha20_xor(key, NONCE, data, counter) == reference_xor(key, NONCE, data, counter)

    def test_involution(self):
        data = b"involutive" * 100
        once = chacha20_xor(KEY, NONCE, data)
        assert chacha20_xor(KEY, NONCE, once) == data

    def test_counter_offsets_align(self):
        full = chacha20_keystream(KEY, NONCE, 256, initial_counter=1)
        tail = chacha20_keystream(KEY, NONCE, 192, initial_counter=2)
        assert full[64:] == tail

    def test_last_counter_value(self):
        last = 0xFFFFFFFF
        assert chacha20_keystream(KEY, NONCE, 64, last) == chacha20_block(KEY, last, NONCE)


class TestValidation:
    def test_bad_key(self):
        with pytest.raises(CryptoError):
            chacha20_keystream(b"short", NONCE, 64)

    def test_bad_nonce(self):
        with pytest.raises(CryptoError):
            chacha20_keystream(KEY, b"short", 64)

    def test_counter_overflow(self):
        with pytest.raises(CryptoError):
            chacha20_keystream(KEY, NONCE, 128, initial_counter=0xFFFFFFFF)
        with pytest.raises(CryptoError):
            chacha20_keystream(KEY, NONCE, 64, initial_counter=-1)

    def test_empty(self):
        assert chacha20_xor(KEY, NONCE, b"") == b""
        assert chacha20_keystream(KEY, NONCE, 0) == b""


class TestAeadUsesFastPath:
    def test_aead_unchanged_semantics(self):
        """The AEAD's ciphertext is the block-by-block reference's."""
        from repro.crypto import aead

        master, nonce, pt, aad = b"m" * 32, b"n" * 12, b"check me" * 10, b"aad"
        box = aead.seal(master, nonce, pt, aad)
        enc_key, _ = aead.derive_keys(master)
        assert box[12:-32] == reference_xor(enc_key, nonce, pt)
        assert aead.open_(master, box, aad) == pt
