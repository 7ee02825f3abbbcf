"""SessionPool: correctness, determinism, and cache transparency.

These are the TP1 acceptance tests in miniature: every session in a
clean multi-tenant run completes and verifies with the TTP untouched
(the off-line-TTP property at scale), two same-seed runs are
byte-identical, and toggling the crypto caches does not move the
result signature.
"""

import pytest

from repro.errors import EvidenceError, ProtocolError
from repro.engine import EngineConfig, SessionPool, TenantDirectory, run_pool

SEED = b"test/engine"


@pytest.fixture(scope="module")
def directory():
    """One warmed identity directory shared by the module (keygen is
    the dominant cost; sharing it is also what production sweeps do)."""
    d = TenantDirectory(SEED)
    d.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(4)]])
    return d


@pytest.fixture(scope="module")
def result(directory):
    return run_pool(SEED, 3, directory=directory)


class TestCleanRun:
    def test_every_session_completes_and_verifies(self, result):
        assert len(result.sessions) == 3
        assert result.completed == 3 == result.verified
        assert result.failed == 0
        assert all(s.finished for s in result.sessions)

    def test_ttp_never_involved(self, result):
        # Normal mode keeps the TTP off-line — the paper's efficiency
        # claim must survive concurrency.
        assert all(v == 0 for v in result.ttp_stats.values()), result.ttp_stats

    def test_provider_served_all_tenants(self, result):
        assert result.provider_stats["transactions"] == 3
        assert result.provider_stats["stored_blobs"] == 3
        assert result.provider_stats["rejected_messages"] == 0

    def test_wire_accounting_present(self, result):
        assert result.messages_sent > 0
        assert result.bytes_on_wire > result.messages_sent  # >1 byte/msg

    def test_latency_percentiles_ordered(self, result):
        # Quantiles must be real: ordered, and inside the observed
        # range (the PERFECT channel makes every latency 0.0, so an
        # interpolated estimate would fall outside it).
        latencies = [s.latency for s in result.sessions]
        assert result.p50_latency <= result.p99_latency
        for quantile in (result.p50_latency, result.p99_latency):
            assert min(latencies) <= quantile <= max(latencies)

    def test_transaction_ids_are_explicit_and_stable(self, result):
        ids = [s.transaction_id for s in result.sessions]
        assert ids == ["TXN-E0000-000", "TXN-E0001-000", "TXN-E0002-000"]


class TestDeterminism:
    def test_same_seed_same_signature(self, directory, result):
        again = run_pool(SEED, 3, directory=directory)
        assert again.signature() == result.signature()
        assert [s.row() for s in again.sessions] == [s.row() for s in result.sessions]

    def test_fresh_directory_same_signature(self, result):
        # Identities derive from named streams keyed only by the pool
        # seed, so a cold directory reproduces the warmed one's world.
        assert run_pool(SEED, 3).signature() == result.signature()

    def test_cache_toggle_does_not_move_the_signature(self, directory, result):
        uncached = run_pool(SEED, 3, directory=directory, use_caches=False)
        assert uncached.cache_stats is None
        assert uncached.signature() == result.signature()

    def test_observe_toggle_does_not_move_the_signature(self, directory, result):
        dark = run_pool(SEED, 3, directory=directory, observe=False)
        assert dark.p50_latency == 0.0  # no latency sketch without obs
        assert dark.signature() == result.signature()


class TestCaches:
    def test_verify_cache_hits_on_the_tpnr_workload(self, result):
        stats = result.cache_stats
        assert stats is not None
        assert stats["verify"]["hits"] > 0
        assert 0 < stats["verify"]["hit_rate"] < 1
        assert stats["kem_wrap"]["hits"] > 0


class TestShapes:
    def test_multiple_transactions_per_tenant(self, directory):
        result = run_pool(SEED, 2, directory=directory, transactions_per_tenant=2)
        assert len(result.sessions) == 4
        assert result.completed == 4 == result.verified
        ids = {s.transaction_id for s in result.sessions}
        assert ids == {"TXN-E0000-000", "TXN-E0000-001",
                       "TXN-E0001-000", "TXN-E0001-001"}

    def test_upload_rejects_duplicate_transaction_id(self, directory):
        pool = SessionPool(EngineConfig(n_tenants=1), seed=SEED, directory=directory)
        pool.run()
        client = pool.clients["tenant-0000"]
        with pytest.raises(ProtocolError, match="already exists"):
            client.upload("bob", b"again", transaction_id="TXN-E0000-000")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(n_tenants=0)
        with pytest.raises(ValueError):
            EngineConfig(transactions_per_tenant=0)


class TestSessionAccounting:
    """Every scheduled session must finish before a run may report."""

    def test_unfinished_session_fails_the_run(self, directory):
        class LosesOneDownload(SessionPool):
            def _download_complete(self, result):
                if result.transaction_id != "TXN-E0001-000":
                    super()._download_complete(result)

        pool = LosesOneDownload(EngineConfig(n_tenants=3), seed=SEED,
                                directory=directory)
        with pytest.raises(ProtocolError, match="1 session.*TXN-E0001-000"):
            pool.run()


class TestTenantDirectory:
    def test_identities_memoized_and_order_independent(self):
        a = TenantDirectory(b"dir-seed")
        b = TenantDirectory(b"dir-seed")
        first = a.identity("alice")
        assert a.identity("alice") is first  # memoized
        b.identity("bob")  # different creation order...
        assert b.identity("alice").private_key.n == first.private_key.n
        assert len(a) == 1 and len(b) == 2

    def test_cold_directory_is_honored_not_replaced(self):
        # Regression: an empty directory has __len__ == 0 (and is now
        # always truthy); the pool must adopt it either way so it
        # fills as the world builds.
        cold = TenantDirectory(SEED)
        pool = SessionPool(EngineConfig(n_tenants=1), seed=SEED, directory=cold)
        assert pool.directory is cold
        pool.build()
        assert len(cold) == 3  # provider + ttp + one tenant


class TestDirectoryShardSafety:
    """ISSUE 9 satellite regressions: memoization under concurrent /
    shard use, double-warm, and label collisions across shards."""

    def test_double_warm_generates_nothing_new(self):
        d = TenantDirectory(b"dir-warm")
        names = ["bob", "ttp", "tenant-0000", "tenant-0001"]
        d.warm(names)
        first = d.keygen_count
        assert first == len(names)
        d.warm(names)  # the regression: a second warm must be a no-op
        assert d.keygen_count == first

    def test_cross_shard_label_collision_yields_equal_keys(self):
        # Two shards sharing one directory ask for the same label: they
        # must observe the *same* identity object, generated once.
        d = TenantDirectory(b"dir-collide")
        a = d.identity("tenant-0007")
        b = d.identity("tenant-0007")
        assert a is b
        assert d.keygen_count == 1

    def test_concurrent_identity_requests_generate_once(self):
        import threading

        d = TenantDirectory(b"dir-race")
        got = []
        barrier = threading.Barrier(4)

        def grab():
            barrier.wait()
            got.append(d.identity("shared"))

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert d.keygen_count == 1
        assert all(i is got[0] for i in got)

    def test_empty_directory_is_truthy_but_zero_len(self):
        # Falsiness used to alias "no directory supplied"; an empty
        # directory must stay distinguishable from None.
        d = TenantDirectory(b"dir-bool")
        assert len(d) == 0
        assert bool(d) is True

    def test_ca_never_counts_as_identity(self):
        d = TenantDirectory(b"dir-ca")
        d.certificate_authority()
        assert len(d) == 0
        assert d.keygen_count == 0


class TestSignatureFloatCanon:
    """ISSUE 9 satellite regression: every float reaching signature()
    is normalized, so accumulated float noise cannot move the hash."""

    def test_sim_duration_noise_invisible(self, result):
        from dataclasses import replace as dc_replace

        noisy = dc_replace(result, sim_duration=result.sim_duration + 1e-13)
        assert noisy.signature() == result.signature()

    def test_wall_clock_fields_excluded(self, result):
        from dataclasses import replace as dc_replace

        moved = dc_replace(result, build_seconds=result.build_seconds + 123.4,
                           drive_seconds=result.drive_seconds + 5.6)
        assert moved.signature() == result.signature()

    def test_session_rows_carry_canonical_floats(self, result):
        from repro.determinism import canon_float

        for session in result.sessions:
            row = session.row()
            for cell in row:
                if isinstance(cell, float):
                    assert cell == canon_float(cell)


class TestBatchedPool:
    """Merkle-batched evidence inside the pool: settlement is part of
    the run, fail-closed, and invisible to the result signature's
    session rows."""

    def test_batched_run_settles_everything(self, directory):
        batched = run_pool(SEED, 3, directory=directory, batch_size=2)
        assert batched.completed == 3 == batched.verified
        stats = batched.batch_stats
        assert stats is not None
        assert stats["failed"] == 0
        assert stats["batches"] > 0
        assert stats["leaves"] > 0
        # Every published leaf is accounted for, inline-verified ones too.
        assert stats["leaves"] == stats["resolved"] + stats["failed"]

    def test_proof_invalid_at_receipt_fails_the_run(self, directory, monkeypatch):
        """An inclusion proof that is already wrong when its recipient
        looks it up is rejected at receipt; settlement must count that
        failure and raise, as it does for one that fails at the end."""
        from dataclasses import replace

        from repro.crypto.batch import BatchLedger

        publish = BatchLedger.publish

        def corrupting(ledger, tree, batch):
            publish(ledger, tree, batch)
            if len(ledger.batches) == 1:
                # The leaf that fills a batch is sent after the seal,
                # so its recipient resolves the proof at receipt.
                key = (batch.signer, tree.leaf(len(tree) - 1))
                proof = ledger._proofs[key]
                (side, sibling), *rest = proof.path
                flipped = bytes([sibling[0] ^ 1]) + sibling[1:]
                ledger._proofs[key] = replace(proof, path=((side, flipped), *rest))

        monkeypatch.setattr(BatchLedger, "publish", corrupting)
        with pytest.raises(EvidenceError, match="failed settlement"):
            run_pool(SEED, 3, directory=directory, batch_size=2)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(n_tenants=1, batch_size=0)

    def test_classic_run_has_no_batch_stats(self, result):
        assert result.batch_stats is None
