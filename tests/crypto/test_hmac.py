"""HMAC against the stdlib and RFC 4231 vectors."""

import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac_ import constant_time_equals, hmac_digest, hmac_hexdigest, verify_hmac
from repro.errors import CryptoError

# RFC 4231 test cases 1-4 (HMAC-SHA256).
RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)),
        b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
]


class TestRfc4231:
    @pytest.mark.parametrize("key,msg,expected", RFC4231)
    def test_vectors(self, key, msg, expected):
        assert hmac_hexdigest(key, msg, "sha256") == expected

    @pytest.mark.parametrize("key,msg,expected", RFC4231)
    def test_vectors_pure(self, key, msg, expected):
        assert hmac_digest(key, msg, "sha256", pure=True).hex() == expected


# Both paths against the stdlib ``hmac.new``: the default path is the
# stdlib's one-shot ``hmac.digest``, the ``pure`` path is built from
# scratch.  Default-path ids stay "<key_len>-<name>".
KEY_LENGTH_CASES = [
    pytest.param(key_len, name, pure, id=f"{key_len}-{name}" + ("-pure" if pure else ""))
    for pure in (False, True)
    for key_len in (0, 1, 63, 64, 65, 200)
    for name in ("md5", "sha256")
]


class TestAgainstStdlib:
    @pytest.mark.parametrize("key_len,name,pure", KEY_LENGTH_CASES)
    def test_key_length_boundaries(self, key_len, name, pure):
        key, msg = b"k" * key_len, b"boundary message"
        expected = stdlib_hmac.new(key, msg, name).digest()
        assert hmac_digest(key, msg, name, pure=pure) == expected

    @given(st.binary(max_size=128), st.binary(max_size=512), st.booleans())
    @settings(max_examples=50)
    def test_random(self, key, msg, pure):
        expected = stdlib_hmac.new(key, msg, "sha256").digest()
        assert hmac_digest(key, msg, "sha256", pure=pure) == expected


class TestVerify:
    def test_roundtrip(self):
        tag = hmac_digest(b"key", b"msg")
        assert verify_hmac(b"key", b"msg", tag)

    def test_wrong_key(self):
        tag = hmac_digest(b"key", b"msg")
        assert not verify_hmac(b"other", b"msg", tag)

    def test_wrong_message(self):
        tag = hmac_digest(b"key", b"msg")
        assert not verify_hmac(b"key", b"other", tag)

    def test_truncated_tag(self):
        tag = hmac_digest(b"key", b"msg")
        assert not verify_hmac(b"key", b"msg", tag[:-1])

    def test_unknown_hash(self):
        with pytest.raises(CryptoError):
            hmac_digest(b"k", b"m", "sha3")


class TestConstantTimeEquals:
    def test_equal(self):
        assert constant_time_equals(b"abc", b"abc")

    def test_unequal_same_length(self):
        assert not constant_time_equals(b"abc", b"abd")

    def test_unequal_length(self):
        assert not constant_time_equals(b"abc", b"abcd")

    def test_empty(self):
        assert constant_time_equals(b"", b"")

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_matches_python_equality(self, a, b):
        assert constant_time_equals(a, b) == (a == b)
