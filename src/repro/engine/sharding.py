"""Sharded session engine: partition tenants, run shards, merge.

The unsharded :class:`~repro.engine.pool.SessionPool` steps every
session on one sequential simulator loop; this module splits the
tenant population into N worker shards — each a complete pool world
(own :class:`~repro.net.events.Simulator`, network, provider, TTP)
over its slice of the roster — and reconstructs the global
:class:`~repro.engine.pool.PoolResult` from the per-shard results.

**Shard assignment is deterministic and seed-keyed**: tenant ``t``
lands on ``HMAC-SHA256(seed, domain || t) mod N`` — the PT-002 seed
scheme's construction (keyed HMAC over a domain-prefixed label)
applied to placement, so the same ``(seed, tenant)`` maps to the same
shard on every machine and the assignment redistributes statistically
uniformly when N changes.

**Why the merge is exact** (``signature()`` bit-identical across shard
counts — proven in ``tests/engine/test_sharding.py``): tenants never
interact with each other, only with the provider/TTP, and

* every tenant stream is a *named* DRBG keyed by the global tenant
  name and index, never a fork — so tenant 7's payloads, arrival
  offsets, and transaction IDs are the same in any layout;
* per-peer sequence numbers live on the (client, provider) pair, and
  the provider's per-tenant state is independent across tenants, so
  each session transcript is layout-invariant;
* wire sizes are layout-invariant (RSA/KEM blobs are modulus-sized,
  batched-evidence blobs are the fixed 32-byte leaf), so per-shard
  ``bytes_on_wire`` sums to the global number;
* the drive loop advances the clock on the ``SAMPLE_INTERVAL`` grid,
  so a shard's ``sim_duration`` is a pure function of its last event
  time — the max over shards equals the global run's duration;
* provider/TTP tallies are sums of per-event counters, so key-wise
  addition reconstructs them.

Latency quantiles come from the exact integer merge of the per-shard
``engine.session_latency`` sketches — the same series an unsharded run
reads, and shard-merge == global-build is an identity on the sketch
(see :mod:`repro.obs.sketch`), so p50/p99 agree at every shard count.
They are telemetry, excluded from ``signature()``.

Shards run as sequential loop-based workers in one process: the
workload is pure-Python compute (GIL-bound), so process fan-out would
pay serialization for no wall-clock win — the throughput gain comes
from batched evidence amortizing RSA, not from parallelism.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

from ..crypto.hmac_ import hmac_digest
from ..obs import NULL_OBS
from ..obs.profiler import RegionProfiler
from ..obs.sketch import QuantileSketch
from .pool import EngineConfig, PoolResult, SessionPool, TenantDirectory, _seed_bytes

__all__ = [
    "SHARD_DOMAIN",
    "ShardedSessionPool",
    "merge_pool_results",
    "shard_of",
    "shard_plan",
]

#: Domain prefix for shard placement, mirroring the PT-002 seed-scheme
#: convention (`repro.scenarios.seed/v1|` there, shard placement here).
SHARD_DOMAIN = b"repro.engine.shard/v1|"


def shard_of(seed: bytes | str, tenant: str, shards: int) -> int:
    """The shard index for *tenant* under *seed*: HMAC mod N."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    mac = hmac_digest(_seed_bytes(seed), SHARD_DOMAIN + tenant.encode("utf-8"))
    return int.from_bytes(mac, "big") % shards


def shard_plan(
    seed: bytes | str, n_tenants: int, shards: int
) -> list[tuple[tuple[int, str], ...]]:
    """Partition the global roster into per-shard rosters.

    Every entry keeps its **global** index — transaction IDs and named
    streams key off it, which is what makes shard worlds reproduce the
    unsharded world's rows exactly.  Shards may be empty (they are
    simply skipped at run time).
    """
    rosters: list[list[tuple[int, str]]] = [[] for _ in range(shards)]
    for index in range(n_tenants):
        name = f"tenant-{index:04d}"
        rosters[shard_of(seed, name, shards)].append((index, name))
    return [tuple(r) for r in rosters]


def merge_pool_results(
    config: EngineConfig, shard_results: list[tuple[int, PoolResult]]
) -> PoolResult:
    """Reconstruct the global :class:`PoolResult` from shard results."""
    sessions = []
    messages_sent = bytes_on_wire = 0
    sim_duration = 0.0
    build_seconds = drive_seconds = 0.0
    provider_stats: dict[str, int] = {}
    ttp_stats: dict[str, int] = {}
    sketches: list[QuantileSketch] = []
    cache_totals: dict[str, dict[str, float]] | None = None
    batch_totals: dict[str, int] | None = None
    profiles: list[RegionProfiler] = []
    summaries = []
    for shard_index, result in shard_results:
        sessions.extend(result.sessions)
        messages_sent += result.messages_sent
        bytes_on_wire += result.bytes_on_wire
        sim_duration = max(sim_duration, result.sim_duration)
        build_seconds += result.build_seconds
        drive_seconds += result.drive_seconds
        for key, value in result.provider_stats.items():
            provider_stats[key] = provider_stats.get(key, 0) + value
        for key, value in result.ttp_stats.items():
            ttp_stats[key] = ttp_stats.get(key, 0) + value
        if result.obs.enabled:
            sketches.append(result.obs.metrics.sketch("engine.session_latency"))
        if result.cache_stats is not None:
            if cache_totals is None:
                cache_totals = {}
            for cache_name, stats in result.cache_stats.items():
                bucket = cache_totals.setdefault(
                    cache_name, {"size": 0, "capacity": 0, "hits": 0,
                                 "misses": 0, "evictions": 0})
                for key in ("size", "capacity", "hits", "misses", "evictions"):
                    bucket[key] += stats.get(key, 0)
        if result.batch_stats is not None:
            if batch_totals is None:
                batch_totals = {"batches": 0, "leaves": 0, "resolved": 0, "failed": 0}
            for key in batch_totals:
                batch_totals[key] += result.batch_stats.get(key, 0)
        if result.profile is not None:
            profiles.append(result.profile)
        summaries.append({
            "shard": shard_index,
            "tenants": result.config.n_tenants,
            "sessions": len(result.sessions),
            "completed": result.completed,
            "messages_sent": result.messages_sent,
            "sim_duration": result.sim_duration,
            # Per-shard wall-clock accounting: drive AND build, so
            # utilization/imbalance (skew ratio, idle fraction) is
            # computable from the merged result without re-running.
            "drive_seconds": result.drive_seconds,
            "build_seconds": result.build_seconds,
        })
    if cache_totals is not None:
        for bucket in cache_totals.values():
            asked = bucket["hits"] + bucket["misses"]
            bucket["hit_rate"] = round(bucket["hits"] / asked, 6) if asked else 0.0
    if sketches:
        merged = QuantileSketch.merged("engine.session_latency", sketches)
        p50, p99 = merged.quantile(0.50), merged.quantile(0.99)
    else:
        p50 = p99 = 0.0
    return PoolResult(
        config=config,
        sessions=sorted(sessions, key=lambda s: s.transaction_id),
        sim_duration=sim_duration,
        build_seconds=build_seconds,
        drive_seconds=drive_seconds,
        messages_sent=messages_sent,
        bytes_on_wire=bytes_on_wire,
        provider_stats=provider_stats,
        ttp_stats=ttp_stats,
        p50_latency=p50,
        p99_latency=p99,
        cache_stats=cache_totals,
        obs=NULL_OBS,
        batch_stats=batch_totals,
        shard_summaries=summaries,
        # The exact fold of the per-shard profilers: counts/totals sum,
        # sketches merge bucket-wise, invariance ANDs — so the merged
        # profile's invariant regions are byte-identical to the
        # unsharded run's (tests/obs/test_profiler.py proves it).
        profile=RegionProfiler.merged(profiles) if profiles else None,
    )


class ShardedSessionPool:
    """Drive one pool workload as N loop-based shard workers.

    Same constructor surface as :class:`SessionPool` plus *shards*;
    ``run()`` returns a merged :class:`PoolResult` whose
    ``signature()`` is bit-identical to the unsharded pool's for the
    same ``(config, seed)`` — at any shard count.
    """

    def __init__(
        self,
        config: EngineConfig,
        seed: bytes | str = b"tpnr-engine",
        shards: int = 1,
        directory: TenantDirectory | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.config = config
        self.seed = seed
        self.shards = shards
        # One shared directory: keygen is paid once across all shards
        # (its lock makes the sharing safe), and every shard sees the
        # same keys for the provider/TTP names it re-instantiates.
        if directory is None:
            directory = TenantDirectory(seed)
        self.directory = directory
        self.plan = shard_plan(seed, config.n_tenants, shards)
        self.shard_results: list[tuple[int, PoolResult]] = []

    def run(self) -> PoolResult:
        """Run every (non-empty) shard and merge."""
        merge_started = perf_counter()
        self.shard_results = []
        for shard_index, roster in enumerate(self.plan):
            if not roster:
                continue
            pool = SessionPool(
                replace(self.config, n_tenants=len(roster)),
                seed=self.seed,
                directory=self.directory,
                roster=roster,
            )
            self.shard_results.append((shard_index, pool.run()))
        merged = merge_pool_results(self.config, self.shard_results)
        # The per-shard build/drive stopwatches already sum into the
        # merged result; the merge step itself is accounted to build
        # (it is setup/teardown, not protocol driving).
        merge_overhead = (
            perf_counter() - merge_started
            - sum(r.build_seconds + r.drive_seconds for _, r in self.shard_results)
        )
        merged.build_seconds += merge_overhead
        if merged.profile is not None:
            # The merge step exists only in sharded runs, so it can
            # never be part of the shard-invariant artifact surface.
            merged.profile.record_leaf(
                "engine/merge", max(0.0, merge_overhead), invariant=False)
        return merged
