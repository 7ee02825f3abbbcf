"""Sharded engine: placement, merge exactness, signature invariance.

The ISSUE 9 tentpole bar in miniature: the merged ``PoolResult``'s
``signature()`` is **bit-identical** at 1, 2, 4, and 8 shards — with
and without Merkle-batched evidence — and the batch size is likewise
invisible to the deterministic result.
"""

import pytest

from repro.engine import (
    EngineConfig,
    ShardedSessionPool,
    TenantDirectory,
    run_pool,
    shard_of,
    shard_plan,
)

SEED = b"test/sharding"
N = 10


@pytest.fixture(scope="module")
def directory():
    d = TenantDirectory(SEED)
    d.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(N)]])
    return d


@pytest.fixture(scope="module")
def global_result(directory):
    return run_pool(SEED, N, directory=directory)


@pytest.fixture(scope="module")
def global_batched(directory):
    """The unsharded batched baseline.  Batching changes the evidence
    wire format (smaller blobs), so its signature differs from the
    classic run's — the invariance claims are *within* each evidence
    scheme: any shard count, any batch size."""
    return run_pool(SEED, N, directory=directory, batch_size=4)


class TestPlacement:
    def test_shard_of_range_and_determinism(self):
        for tenant in ("tenant-0000", "tenant-0042", "anything"):
            s = shard_of(SEED, tenant, 4)
            assert 0 <= s < 4
            assert s == shard_of(SEED, tenant, 4)

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_of(SEED, "t", 0)

    def test_single_shard_is_identity_placement(self):
        assert shard_of(SEED, "tenant-0007", 1) == 0

    def test_plan_partitions_the_roster(self):
        plan = shard_plan(SEED, N, 4)
        assert len(plan) == 4
        entries = [e for roster in plan for e in roster]
        assert sorted(entries) == [(i, f"tenant-{i:04d}") for i in range(N)]

    def test_plan_keyed_by_seed(self):
        assert shard_plan(SEED, 32, 4) != shard_plan(b"other-seed", 32, 4)

    def test_plan_roughly_uniform(self):
        plan = shard_plan(SEED, 400, 4)
        sizes = [len(r) for r in plan]
        assert sum(sizes) == 400
        assert min(sizes) > 50  # HMAC placement, not hot-spotted


class TestSignatureInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_sharded_matches_global_unbatched(self, shards, directory, global_result):
        sharded = run_pool(SEED, N, directory=directory, shards=shards)
        assert sharded.signature() == global_result.signature()
        assert sharded.completed == N == sharded.verified

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_sharded_matches_global_batched(self, shards, directory, global_batched):
        batched = run_pool(SEED, N, directory=directory, shards=shards,
                           batch_size=4)
        assert batched.signature() == global_batched.signature()
        assert batched.batch_stats is not None
        assert batched.batch_stats["failed"] == 0
        assert batched.batch_stats["leaves"] > 0

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_batch_size_invisible_to_signature(self, batch_size, directory,
                                               global_batched):
        batched = run_pool(SEED, N, directory=directory, batch_size=batch_size)
        assert batched.signature() == global_batched.signature()

    def test_session_rows_not_just_digest(self, directory, global_result):
        # Stronger than signature equality: row-for-row reconstruction.
        sharded = run_pool(SEED, N, directory=directory, shards=4)
        assert [s.row() for s in sharded.sessions] == [
            s.row() for s in global_result.sessions]


class TestMergedAccounting:
    @pytest.fixture(scope="class")
    def merged(self, directory):
        return run_pool(SEED, N, directory=directory, shards=4, batch_size=4)

    def test_shard_summaries_cover_the_population(self, merged):
        assert merged.shard_summaries
        assert sum(s["tenants"] for s in merged.shard_summaries) == N
        assert sum(s["sessions"] for s in merged.shard_summaries) == N

    def test_wire_totals_sum(self, merged, global_result):
        # Batched evidence blobs are smaller than two RSA signatures,
        # so the batched run moves fewer bytes for the same messages.
        assert merged.messages_sent == global_result.messages_sent
        assert merged.bytes_on_wire < global_result.bytes_on_wire

    def test_sim_duration_is_the_max_over_shards(self, merged):
        assert merged.sim_duration == max(
            s["sim_duration"] for s in merged.shard_summaries)

    def test_latency_percentiles_survive_the_sketch_merge(self, merged,
                                                          global_batched):
        # The merged result reads quantiles from the exact sketch
        # merge, the unsharded one from its own sketch of the same
        # series: the two must agree exactly.
        assert merged.p50_latency == global_batched.p50_latency
        assert merged.p99_latency == global_batched.p99_latency

    def test_cache_totals_recombined(self, merged):
        verify = (merged.cache_stats or {}).get("verify", {})
        asked = verify.get("hits", 0) + verify.get("misses", 0)
        assert asked > 0
        assert verify["hit_rate"] == pytest.approx(verify["hits"] / asked)


class TestConstruction:
    def test_shards_below_one_rejected(self):
        with pytest.raises(ValueError):
            ShardedSessionPool(EngineConfig(n_tenants=2), seed=SEED, shards=0)

    def test_more_shards_than_tenants(self, directory, global_result):
        # Empty shards are skipped; the merge still reconstructs the
        # global world.
        wide = run_pool(SEED, N, directory=directory, shards=32)
        assert wide.signature() == global_result.signature()

    def test_shared_directory_pays_keygen_once(self):
        d = TenantDirectory(SEED)
        run_pool(SEED, 4, directory=d, shards=2)
        after_first = d.keygen_count
        run_pool(SEED, 4, directory=d, shards=4)
        assert d.keygen_count == after_first
