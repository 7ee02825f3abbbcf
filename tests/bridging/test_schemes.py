"""The four §3 bridging schemes plus the status-quo control."""

import pytest

from repro.bridging import (
    ALL_SCHEMES,
    BothScheme,
    NeitherScheme,
    PlainScheme,
    SksScheme,
    TacScheme,
    make_world,
)
from repro.storage.tamper import TamperMode

DATA = b"bridged corporate ledger " * 12


def scheme_of(cls, tag=b""):
    return cls(make_world(seed=b"scheme-tests-" + cls.__name__.encode() + tag))


class TestPlainScheme:
    def test_no_detection_under_any_tamper(self):
        for mode in (TamperMode.BIT_FLIP, TamperMode.REPLACE, TamperMode.FIXUP_MD5):
            result = scheme_of(PlainScheme, mode.value.encode()).run_scenario(DATA, mode)
            assert not result.detected
            assert result.tamper_verdict == "undetected"

    def test_blackmail_deadlock(self):
        result = scheme_of(PlainScheme).run_scenario(DATA, TamperMode.NONE)
        assert result.blackmail_verdict == "unresolved"

    def test_nothing_provable(self):
        result = scheme_of(PlainScheme).run_scenario(DATA, TamperMode.NONE)
        assert not result.agreed_digest_provable
        assert result.unilateral_forgery_possible


@pytest.mark.parametrize("cls", [NeitherScheme, SksScheme, TacScheme, BothScheme])
class TestBridgedSchemes:
    @pytest.mark.parametrize("mode", [TamperMode.BIT_FLIP, TamperMode.REPLACE,
                                      TamperMode.TRUNCATE, TamperMode.FIXUP_MD5])
    def test_all_tampering_detected(self, cls, mode):
        result = scheme_of(cls, mode.value.encode()).run_scenario(DATA, mode)
        assert result.detected
        assert result.tamper_verdict == "provider-at-fault"

    def test_blackmail_rejected(self, cls):
        result = scheme_of(cls).run_scenario(DATA, TamperMode.NONE)
        assert result.blackmail_verdict == "claim-rejected"

    def test_agreed_digest_provable(self, cls):
        result = scheme_of(cls).run_scenario(DATA, TamperMode.NONE)
        assert result.agreed_digest_provable
        assert not result.unilateral_forgery_possible

    def test_clean_run_no_dispute_needed(self, cls):
        result = scheme_of(cls).run_scenario(DATA, TamperMode.NONE)
        assert not result.detected
        assert result.tamper_verdict == "no-dispute"


class TestSchemeShapes:
    def test_tac_requirement_matches_paper_matrix(self):
        """§3: TAC in 3.3/3.4 only; SKS in 3.2/3.4 only."""
        needs_tac = {cls.name: cls.needs_tac for cls in ALL_SCHEMES}
        assert needs_tac == {
            "plain": False, "nn": False, "sks": False, "tac": True, "both": True,
        }

    def test_message_counts_ordered(self):
        """More infrastructure, more upload messages."""
        counts = {}
        for cls in ALL_SCHEMES:
            result = scheme_of(cls).run_scenario(DATA, TamperMode.NONE)
            counts[cls.name] = result.upload_messages
        assert counts["plain"] == counts["nn"] == 2
        assert counts["sks"] == counts["tac"] == 3
        assert counts["both"] == 5

    def test_dispute_messages_tac_cheapest(self):
        """The TAC scheme settles with a single escrow query."""
        result = scheme_of(TacScheme).run_scenario(DATA, TamperMode.REPLACE)
        assert result.dispute_messages == 1

    def test_transaction_ids_scheme_scoped(self):
        scheme = scheme_of(NeitherScheme)
        a1 = scheme.upload(DATA)
        a2 = scheme.upload(DATA)
        assert a1.transaction_id != a2.transaction_id
        assert a1.transaction_id.startswith("nn-")


class TestSksSpecifics:
    def test_shares_differ_between_parties(self):
        scheme = scheme_of(SksScheme)
        artifacts = scheme.upload(DATA)
        assert artifacts.user_holds["share"] != artifacts.provider_holds["share"]

    def test_both_scheme_user_never_holds_raw_digest(self):
        scheme = scheme_of(BothScheme)
        artifacts = scheme.upload(DATA)
        assert "md5" not in artifacts.user_holds
        assert "share" in artifacts.user_holds


class TestSchemeInvariants:
    """Hypothesis-driven invariants across all schemes and inputs."""

    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    @given(
        data=st.binary(min_size=1, max_size=2048),
        mode=st.sampled_from([TamperMode.NONE, TamperMode.BIT_FLIP,
                              TamperMode.REPLACE, TamperMode.FIXUP_MD5]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # A one-byte REPLACE whose first redraw equals the stored byte.
    @example(data=b"\x08", mode=TamperMode.REPLACE, seed=61518)
    @settings(max_examples=15, deadline=None)
    def test_bridged_schemes_never_false_accuse(self, data, mode, seed):
        """No scheme convicts a provider whose storage is untouched,
        and every bridged scheme convicts one whose storage changed."""
        for cls in (NeitherScheme, SksScheme, TacScheme, BothScheme):
            world = make_world(seed=f"inv-{cls.__name__}-{seed}".encode())
            result = cls(world).run_scenario(data, mode)
            if mode is TamperMode.NONE:
                assert result.tamper_verdict == "no-dispute"
            else:
                assert result.tamper_verdict == "provider-at-fault"
            assert result.blackmail_verdict == "claim-rejected"

    @given(
        data=st.binary(min_size=1, max_size=1024),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_plain_scheme_never_resolves_anything(self, data, seed):
        world = make_world(seed=f"inv-plain-{seed}".encode())
        result = PlainScheme(world).run_scenario(data, TamperMode.REPLACE)
        assert result.tamper_verdict == "undetected"
        assert result.blackmail_verdict == "unresolved"
