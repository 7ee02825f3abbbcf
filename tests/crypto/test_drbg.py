"""Determinism and distribution sanity for the HMAC-DRBG, plus pinned
streams: known-answer digests and an equivalence property against a
straight SP 800-90A HMAC_DRBG built on ``hmac.digest``."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.errors import CryptoError


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = HmacDrbg(b"seed"), HmacDrbg(b"seed")
        assert a.generate(100) == b.generate(100)

    def test_different_seeds_differ(self):
        assert HmacDrbg(b"seed-1").generate(32) != HmacDrbg(b"seed-2").generate(32)

    def test_personalization_differs(self):
        assert (
            HmacDrbg(b"s", personalization=b"a").generate(32)
            != HmacDrbg(b"s", personalization=b"b").generate(32)
        )

    def test_seed_types(self):
        """str / int / bytes seeds all work and are distinct."""
        streams = {
            HmacDrbg(b"42").generate(16),
            HmacDrbg("42").generate(16),
            HmacDrbg(42).generate(16),
        }
        # bytes b"42" and str "42" encode identically; int 42 differs.
        assert len(streams) == 2

    def test_chunking_invariance_of_length(self):
        g = HmacDrbg(b"chunks")
        assert len(g.generate(1)) == 1
        assert len(g.generate(31)) == 31
        assert len(g.generate(33)) == 33
        assert g.generate(0) == b""

    def test_negative_rejected(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"x").generate(-1)


class TestFork:
    def test_forks_are_independent(self):
        parent = HmacDrbg(b"parent")
        a = parent.fork("a")
        b = parent.fork("b")
        assert a.generate(32) != b.generate(32)

    def test_fork_same_label_after_same_history(self):
        p1, p2 = HmacDrbg(b"p"), HmacDrbg(b"p")
        assert p1.fork("x").generate(16) == p2.fork("x").generate(16)

    def test_fork_advances_parent(self):
        p1, p2 = HmacDrbg(b"p"), HmacDrbg(b"p")
        p1.fork("x")
        assert p1.generate(16) != p2.generate(16)


class TestDraws:
    @given(st.integers(min_value=1, max_value=256))
    @settings(max_examples=30)
    def test_randbits_range(self, bits):
        value = HmacDrbg(b"bits").randbits(bits)
        assert 0 <= value < (1 << bits)

    def test_randbits_zero_rejected(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"x").randbits(0)

    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_randint_inclusive_bounds(self, low, span):
        high = low + span
        value = HmacDrbg(b"int").randint(low, high)
        assert low <= value <= high

    def test_randint_degenerate(self):
        assert HmacDrbg(b"x").randint(7, 7) == 7

    def test_randint_empty_range(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"x").randint(5, 4)

    def test_randint_covers_range(self):
        g = HmacDrbg(b"coverage")
        seen = {g.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_random_unit_interval(self):
        g = HmacDrbg(b"float")
        values = [g.random() for _ in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7  # roughly centred

    def test_choice(self):
        g = HmacDrbg(b"choice")
        items = ["a", "b", "c"]
        assert all(g.choice(items) in items for _ in range(20))

    def test_choice_empty(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"x").choice([])

    def test_shuffle_is_permutation(self):
        g = HmacDrbg(b"shuffle")
        items = list(range(50))
        shuffled = list(items)
        g.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to match

    def test_expovariate_positive(self):
        g = HmacDrbg(b"expo")
        values = [g.expovariate(2.0) for _ in range(100)]
        assert all(v >= 0 for v in values)
        # mean should be near 1/rate = 0.5
        assert 0.3 < sum(values) / len(values) < 0.8

    def test_expovariate_bad_rate(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"x").expovariate(0.0)


class ReferenceDrbg:
    """SP 800-90A HMAC_DRBG (no reseed) written directly on
    ``hmac.digest``, one full HMAC per step — the generator's stream
    as it is specified, independent of how :class:`HmacDrbg` computes
    it."""

    def __init__(self, seed, personalization=b""):
        if isinstance(seed, str):
            seed = seed.encode()
        elif isinstance(seed, int):
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        self.key, self.value = b"\x00" * 32, b"\x01" * 32
        self._update(seed + personalization)

    def _mac(self, message):
        return hmac.digest(self.key, message, "sha256")

    def _update(self, provided=b""):
        self.key = self._mac(self.value + b"\x00" + provided)
        self.value = self._mac(self.value)
        if provided:
            self.key = self._mac(self.value + b"\x01" + provided)
            self.value = self._mac(self.value)

    def generate(self, n_bytes):
        out = b""
        while len(out) < n_bytes:
            self.value = self._mac(self.value)
            out += self.value
        self._update()
        return out[:n_bytes]

    def randbits(self, bits):
        n_bytes = (bits + 7) // 8
        return int.from_bytes(self.generate(n_bytes), "big") >> (n_bytes * 8 - bits)

    def randint(self, low, high):
        span = high - low + 1
        while True:
            value = self.randbits(span.bit_length())
            if value < span:
                return low + value

    def random(self):
        return self.randbits(53) / (1 << 53)

    def fork(self, label):
        return ReferenceDrbg(self.generate(32), personalization=label.encode())


SEEDS = st.one_of(st.binary(max_size=80), st.text(max_size=20),
                  st.integers(min_value=0, max_value=2**200))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("generate"), st.integers(min_value=0, max_value=130)),
        st.tuples(st.just("randbits"), st.integers(min_value=1, max_value=600)),
        st.tuples(st.just("randint"), st.integers(-50, 50), st.integers(0, 10**6)),
        st.tuples(st.just("random")),
        st.tuples(st.just("fork"), st.text(max_size=8), st.booleans()),
    ),
    max_size=25,
)


class TestPinnedStream:
    """The byte stream is an interface: every seeded artifact depends
    on it, so it must not move when the generator is optimised."""

    SIZES = (0, 1, 31, 32, 33, 64, 65, 1000)

    # sha256 over generate(n) for every n in SIZES, in order, then
    # fork("child").generate(32), then generate(7).
    SEQUENCE_KAT = [
        (b"", b"", "d1b4d614592524e021b19ae0126ce672aab2cb9253acbc42e1c79e0acf089b4d"),
        (b"seed", b"", "87171f3fdb0e31231737b813bf9f82cbc90ace286ff82150dbc6e9bd84fd46e9"),
        (b"seed", b"label", "d9be650da7d14a0ed9497682c4613350db473073a3f022a1c9c3e2fa3fc342e4"),
        ("tenant-7", b"net", "95ec90060feb342b003a5689bce77f71a3fd534ffe23861b8d6ea33247a9924a"),
        (2**70 + 5, b"x" * 80, "862b63cf0e3964ce93c9e3606b88bf9e852e47729dfa09214b71fac9fce7a6d7"),
        (b"\xff" * 100, b"", "ec5fc760a4b54b165767b6c1b8187b49021cf566e2a3b4f0fde091236f53fb15"),
    ]

    # Fresh HmacDrbg(b"kat", b"size"): sha256(generate(n) + generate(32)),
    # first 16 bytes.  The second draw pins the state generate(n) left.
    SIZE_KAT = {
        0: "c3323bfafaeb6bd68b26636c26fd6cde",
        1: "132e0c6081524a7dfcb55f89b6240009",
        31: "c9176be8d6e1629033738ecf13461664",
        32: "17e6967e4a14f3ebeff27badf164e92b",
        33: "ad84d3c3a5e82d4bf39681482460e2c7",
        64: "72319885a6d4b35d9787239c7f8b9fd8",
        65: "67feea3482f1ae3a162ecf9150fc9fdd",
        1000: "cf7f69b06f1133410de6b429a088913c",
    }

    @pytest.mark.parametrize("seed, personalization, expected", SEQUENCE_KAT)
    def test_sequence_known_answers(self, seed, personalization, expected):
        g = HmacDrbg(seed, personalization=personalization)
        h = hashlib.sha256()
        for n in self.SIZES:
            out = g.generate(n)
            assert len(out) == n
            h.update(out)
        h.update(g.fork("child").generate(32))
        h.update(g.generate(7))
        assert h.hexdigest() == expected

    @pytest.mark.parametrize("n_bytes", sorted(SIZE_KAT))
    def test_size_known_answers(self, n_bytes):
        g = HmacDrbg(b"kat", personalization=b"size")
        out = g.generate(n_bytes)
        digest = hashlib.sha256(out + g.generate(32)).hexdigest()
        assert digest[:32] == self.SIZE_KAT[n_bytes]

    @given(seed=SEEDS, personalization=st.binary(max_size=40), ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference(self, seed, personalization, ops):
        g = HmacDrbg(seed, personalization=personalization)
        ref = ReferenceDrbg(seed, personalization=personalization)
        for op in ops:
            name, *args = op
            if name == "fork":
                label, follow = args
                child, ref_child = g.fork(label), ref.fork(label)
                assert child.generate(32) == ref_child.generate(32)
                if follow:
                    g, ref = child, ref_child
                continue
            if name == "randint":
                low, span = args
                args = (low, low + span)
            assert getattr(g, name)(*args) == getattr(ref, name)(*args)
        assert g.generate(40) == ref.generate(40)
