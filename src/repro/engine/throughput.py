"""Throughput measurement: engine sweeps versus the sequential baseline.

Two ways of pushing N transactions through the protocol are compared
in the same process:

* **baseline** — the repo's status quo before this engine existed: a
  fresh :func:`~repro.core.protocol.make_deployment` and one
  :func:`~repro.core.protocol.run_session` per transaction, no crypto
  caches.  Every transaction pays key generation for four parties plus
  every signature and KEM operation from scratch.
* **engine** — one :class:`~repro.engine.pool.SessionPool` world per
  sweep point, tenants' keys amortized through a shared
  :class:`~repro.engine.pool.TenantDirectory` (warmed outside the
  timed region), and the :mod:`repro.crypto.cache` bundle active on
  the hot path.

Transactions/sec is **wall-clock** (real CPU cost of the simulation
process — the quantity the caches improve); latency percentiles are
**simulated** seconds from the engine's latency sketch (deterministic
per seed).  The two are reported side by side and never mixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from ..core.protocol import make_deployment, run_session
from .pool import EngineConfig, PoolResult, SessionPool, TenantDirectory
from .sharding import ShardedSessionPool

__all__ = [
    "ThroughputSample",
    "BaselineSample",
    "ThroughputReport",
    "ShardedSample",
    "ShardedReport",
    "run_pool",
    "run_baseline",
    "run_throughput",
    "run_sharded_throughput",
]


@dataclass(frozen=True)
class ThroughputSample:
    """One engine sweep point, flattened for tables and JSON."""

    tenants: int
    transactions: int
    completed: int
    verified: int
    wall_seconds: float
    tx_per_sec: float
    p50_latency: float
    p99_latency: float
    verify_cache_hit_rate: float
    verify_cache_hits: int
    kem_wrap_hit_rate: float
    signature: str

    def row(self) -> list:
        return [
            self.tenants,
            self.transactions,
            self.completed,
            self.verified,
            f"{self.wall_seconds:.3f}",
            f"{self.tx_per_sec:.1f}",
            f"{self.p50_latency:.4f}",
            f"{self.p99_latency:.4f}",
            f"{self.verify_cache_hit_rate:.3f}",
            f"{self.kem_wrap_hit_rate:.3f}",
        ]


@dataclass(frozen=True)
class BaselineSample:
    """The uncached sequential status quo over the same channel."""

    transactions: int
    completed: int
    wall_seconds: float
    tx_per_sec: float


@dataclass
class ThroughputReport:
    """A full sweep plus the baseline measured in the same run."""

    samples: list[ThroughputSample]
    baseline: BaselineSample
    seed: str

    def sample_at(self, tenants: int) -> ThroughputSample:
        for sample in self.samples:
            if sample.tenants == tenants:
                return sample
        raise KeyError(f"no sweep point at {tenants} tenants")

    def speedup_at(self, tenants: int) -> float:
        """Engine tx/sec over baseline tx/sec at one sweep point."""
        if self.baseline.tx_per_sec <= 0:
            return 0.0
        return self.sample_at(tenants).tx_per_sec / self.baseline.tx_per_sec


def _flatten(result: PoolResult) -> ThroughputSample:
    stats = result.cache_stats or {}
    verify = stats.get("verify", {})
    wrap = stats.get("kem_wrap", {})
    return ThroughputSample(
        tenants=result.config.n_tenants,
        transactions=len(result.sessions),
        completed=result.completed,
        verified=result.verified,
        wall_seconds=result.wall_seconds,
        tx_per_sec=result.tx_per_sec,
        p50_latency=result.p50_latency,
        p99_latency=result.p99_latency,
        verify_cache_hit_rate=float(verify.get("hit_rate", 0.0)),
        verify_cache_hits=int(verify.get("hits", 0)),
        kem_wrap_hit_rate=float(wrap.get("hit_rate", 0.0)),
        signature=result.signature(),
    )


def run_pool(
    seed: bytes | str,
    n_tenants: int,
    directory: TenantDirectory | None = None,
    use_caches: bool = True,
    transactions_per_tenant: int = 1,
    observe: bool = True,
    shards: int = 1,
    batch_size: int | None = None,
    profile: bool = False,
) -> PoolResult:
    """One engine run at one tenant count; the low-level entry point.

    ``shards > 1`` routes through :class:`ShardedSessionPool` (merged
    result, signature-identical to ``shards=1``); *batch_size* switches
    on Merkle-batched evidence; *profile* attaches a
    :class:`~repro.obs.profiler.RegionProfiler` per shard and merges
    them exactly into ``result.profile``.
    """
    config = EngineConfig(
        n_tenants=n_tenants,
        transactions_per_tenant=transactions_per_tenant,
        use_caches=use_caches,
        observe=observe,
        batch_size=batch_size,
        profile=profile,
    )
    if shards > 1:
        return ShardedSessionPool(
            config, seed=seed, shards=shards, directory=directory
        ).run()
    return SessionPool(config, seed=seed, directory=directory).run()


@dataclass(frozen=True)
class ShardedSample:
    """One sharded sweep point (fixed tenants, varying shard count)."""

    shards: int
    batch_size: int
    tenants: int
    transactions: int
    completed: int
    verified: int
    wall_seconds: float
    tx_per_sec: float
    p50_latency: float
    p99_latency: float
    batches_sealed: int
    signature: str

    def row(self) -> list:
        return [
            self.shards,
            self.batch_size,
            self.tenants,
            self.completed,
            f"{self.wall_seconds:.3f}",
            f"{self.tx_per_sec:.1f}",
            f"{self.p50_latency:.4f}",
            f"{self.p99_latency:.4f}",
            self.batches_sealed,
            self.signature[:16],
        ]


@dataclass
class ShardedReport:
    """A shard-count sweep plus the classic (unbatched, unsharded)
    point measured at the same tenant count in the same run."""

    samples: list[ShardedSample]
    classic: ThroughputSample
    seed: str

    @property
    def signatures_identical(self) -> bool:
        """Bit-identical merged signature at every shard count."""
        return len({s.signature for s in self.samples}) == 1

    def sample_at(self, shards: int) -> ShardedSample:
        for sample in self.samples:
            if sample.shards == shards:
                return sample
        raise KeyError(f"no sweep point at {shards} shards")

    def speedup_at(self, shards: int) -> float:
        """Batched+sharded tx/sec over the classic engine's tx/sec."""
        if self.classic.tx_per_sec <= 0:
            return 0.0
        return self.sample_at(shards).tx_per_sec / self.classic.tx_per_sec


def _flatten_sharded(result: PoolResult, shards: int) -> ShardedSample:
    batch = result.batch_stats or {}
    return ShardedSample(
        shards=shards,
        batch_size=result.config.batch_size or 0,
        tenants=result.config.n_tenants,
        transactions=len(result.sessions),
        completed=result.completed,
        verified=result.verified,
        wall_seconds=result.wall_seconds,
        tx_per_sec=result.tx_per_sec,
        p50_latency=result.p50_latency,
        p99_latency=result.p99_latency,
        batches_sealed=int(batch.get("batches", 0)),
        signature=result.signature(),
    )


def run_sharded_throughput(
    seed: bytes | str = b"tpnr-throughput",
    n_tenants: int = 100,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    batch_size: int = 64,
    transactions_per_tenant: int = 1,
    warm_directory: bool = True,
) -> ShardedReport:
    """Sweep shard counts at one tenant count, batched evidence on.

    Every point reuses one warmed :class:`TenantDirectory` (keygen is
    provisioning, not throughput), and the classic engine — per-message
    signatures, one shard — is measured in the same run as the
    comparison point the speedup claims are made against.
    """
    directory = TenantDirectory(seed)
    if warm_directory:
        directory.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(n_tenants)]])
    classic = _flatten(run_pool(
        seed, n_tenants, directory=directory,
        transactions_per_tenant=transactions_per_tenant,
    ))
    samples = []
    for shards in shard_counts:
        result = run_pool(
            seed, n_tenants, directory=directory,
            transactions_per_tenant=transactions_per_tenant,
            shards=shards, batch_size=batch_size,
        )
        samples.append(_flatten_sharded(result, shards))
    seed_text = seed.decode("utf-8", "replace") if isinstance(seed, bytes) else str(seed)
    return ShardedReport(samples=samples, classic=classic, seed=seed_text)


def run_baseline(seed: bytes | str, n_transactions: int, payload_size: int = 256) -> BaselineSample:
    """The pre-engine status quo: one fresh world per transaction."""
    seed_bytes = seed.encode("utf-8") if isinstance(seed, str) else bytes(seed)
    completed = 0
    started = perf_counter()
    for index in range(n_transactions):
        dep = make_deployment(seed=seed_bytes + b"/baseline/%d" % index)
        outcome = run_session(dep, bytes(payload_size))
        if outcome.upload_status.value in ("completed", "resolved"):
            completed += 1
    wall = perf_counter() - started
    return BaselineSample(
        transactions=n_transactions,
        completed=completed,
        wall_seconds=wall,
        tx_per_sec=completed / wall if wall > 0 else 0.0,
    )


def run_throughput(
    seed: bytes | str = b"tpnr-throughput",
    tenant_counts: tuple[int, ...] = (1, 10, 100),
    baseline_transactions: int = 10,
    warm_directory: bool = True,
) -> ThroughputReport:
    """Sweep tenant counts and measure the baseline in the same run.

    One :class:`TenantDirectory` is shared across sweep points; with
    *warm_directory* the largest point's identities are generated up
    front, outside every timed region — key generation is a one-time
    provisioning cost, not a per-transaction one, and amortizing it is
    exactly the multi-tenant claim under test.  The baseline gets no
    such amortization because the status quo had none.
    """
    directory = TenantDirectory(seed)
    if warm_directory:
        biggest = max(tenant_counts)
        directory.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(biggest)]])
    samples = [
        _flatten(run_pool(seed, n, directory=directory))
        for n in tenant_counts
    ]
    baseline = run_baseline(seed, baseline_transactions)
    seed_text = seed.decode("utf-8", "replace") if isinstance(seed, bytes) else str(seed)
    return ThroughputReport(samples=samples, baseline=baseline, seed=seed_text)
