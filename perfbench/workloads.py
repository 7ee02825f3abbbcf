"""The benchmark's workloads, their correctness checks and their metrics.

Three closed-loop workloads, each driven by one client thread in one
process against the public API:

* ``engine-classic`` — :func:`repro.engine.run_pool` with per-message
  evidence (RSA signatures, KEM/AEAD-sealed evidence);
* ``engine-batched`` — the same world with Merkle-batched evidence over
  two shards (HMAC/DRBG, Merkle, verify cache, net, obs dominate);
* ``store-mixed`` — a :class:`repro.replication.ReplicatedStore`
  (3 replicas, quorum 2) under 30% puts and 70% verified gets.

Every input is built from the ``--seed`` argument before the clock
starts.  A run repeats whole passes (one ``run_pool`` call, or one
fresh store taking the whole operation list) until ``--seconds`` have
passed.  Throughput and trimmed-mean latencies are medians over passes;
the p95 latencies are taken over the samples of all passes.

Timings are rescaled to a reference core speed.  A shared 2-core
virtual machine changed speed by up to 1.5x for tens of seconds at a
time (identical key generation ran 27% apart in runs a minute apart),
longer than a run, so no statistic inside one run removes it.
A :class:`SpeedProbe` therefore times a fixed pure-Python loop between
units of work (identities, store operations, engine sessions) all
through the run, and timings are divided, rates multiplied, by its time
over :data:`PROBE_REFERENCE_S`, taken over the same stretch of the run:

* set-up time, provisioning rate, throughput and trimmed-mean
  latencies: set-up by set-up or pass by pass, by the probe's median
  over that set-up or pass, before the median over them is taken;
* a p95 latency: the probe's p95 over all passes.

The host switches between a fast and a slower state for seconds at a
time.  Throughput and mean latency add up time the way the probe's
ticks do, whatever share of a pass the slower state took.  A median
latency does not: it jumps between the two states' values as that
share crosses one half, by up to a quarter from run to run however it
is rescaled, so the typical latency is a mean.  It is taken over the
fastest :data:`TRIMMED_SHARE` of each pass's samples because a few
sessions in a pass of engine-batched take 100 ms or more against a
median of 0.4 ms, and two such sessions more or fewer move the plain
mean by 15%.  A p95 sits among the slower state's samples once that
state takes more than a twentieth of the run, and so does the probe's
own p95; divided by the probe's median, a p95 would move with the
state's share.  Probe time is taken out of the measured intervals.
The raw wall-clock values are printed beside the rescaled ones.
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil
from time import perf_counter

from repro.core.client import TpnrClient
from repro.engine import TenantDirectory, run_pool
from repro.engine.pool import SessionPool
from repro.errors import EvidenceError, ReproError
from repro.replication import ReplicatedStore

from layertrace import TARGETS, LayerTracer

#: What a user of the library imports; timed in-process and in fresh
#: interpreters for ``setup_s``.
IMPORT_STATEMENT = "import repro, repro.engine, repro.replication"
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "started = time.perf_counter(); " + IMPORT_STATEMENT + "; "
    "print(time.perf_counter() - started)"
)

CONTAINER = "perfbench"

#: Iterations of the speed-probe loop, and its time on the reference core.
PROBE_LOOPS = 20_000
PROBE_REFERENCE_S = 1.0e-3
#: Share of each pass's latency samples, fastest first, that the
#: trimmed means average over.
TRIMMED_SHARE = 0.99
#: Probe ticks per engine pass, and store operations between ticks:
#: enough ticks that the probe's p95 has ten or more beyond it.
ENGINE_TICKS_PER_PASS = 100
STORE_OPS_PER_TICK = 200


@dataclass(frozen=True)
class EngineShape:
    tenants: int
    transactions_per_tenant: int
    batch_size: int | None
    shards: int

    @property
    def sessions(self) -> int:
        return self.tenants * self.transactions_per_tenant

    def identity_names(self) -> list[str]:
        """Every identity ``run_pool`` asks the directory for."""
        return ["bob", "ttp", *(f"tenant-{i:04d}" for i in range(self.tenants))]


@dataclass(frozen=True)
class StoreShape:
    keys: int = 2000
    preload_bytes: int = 1024
    operations: int = 40_000
    put_share: float = 0.3
    put_min: int = 256
    put_max: int = 4096


SHAPES = {
    "engine-classic": EngineShape(100, 2, None, 1),
    "engine-batched": EngineShape(100, 40, 64, 2),
    "store-mixed": StoreShape(),
}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("put_ms_trimmed_mean", "ms"),
    ("put_ms_p95", "ms"),
    ("get_ms_trimmed_mean", "ms"),
    ("get_ms_p95", "ms"),
    ("setup_s", "s"),
    ("provision_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer self-time metrics and the span names each one sums.
SELF_TIMES = {
    "crypto.hmac.self_s": ("crypto.hmac",),
    "crypto.drbg.self_s": ("crypto.drbg", "crypto.drbg.init"),
    "crypto.keygen.self_s": ("crypto.keygen", "crypto.keygen.prime"),
    "crypto.rsa.sign.self_s": ("crypto.rsa.sign",),
    "crypto.rsa.verify.self_s": ("crypto.rsa.verify",),
    "crypto.rsa.encrypt.self_s": ("crypto.rsa.encrypt",),
    "crypto.rsa.decrypt.self_s": ("crypto.rsa.decrypt",),
    "crypto.aead.self_s": ("crypto.aead.seal", "crypto.aead.open", "crypto.kem"),
    "crypto.merkle.self_s": ("crypto.merkle.build", "crypto.merkle.prove",
                             "crypto.merkle.verify"),
    "crypto.batch.self_s": ("crypto.batch",),
    "core.evidence.build.self_s": ("core.evidence.build",),
    "core.evidence.open.self_s": ("core.evidence.open",),
    "core.party.self_s": ("core.party",),
    "net.self_s": ("net.sim", "net.step", "net.send", "net.deliver"),
    "obs.self_s": ("obs", "obs.metrics"),
    "engine.self_s": ("engine", "engine.build", "engine.drive", "engine.settle"),
    "storage.put.self_s": ("storage.put",),
    "storage.get.self_s": ("storage.get",),
    "storage.rest_sign.self_s": ("storage.rest_sign",),
    "replication.attest.self_s": ("replication.attest",),
    "replication.verify.self_s": ("replication.verify",),
    "replication.commit.self_s": ("replication.commit",),
    "replication.store.self_s": ("replication.store",),
}
_SPANS = {name for name, *_ in TARGETS}
_COVERED = [span for spans in SELF_TIMES.values() for span in spans]
if sorted(_COVERED) != sorted(_SPANS):
    raise ImportError("SELF_TIMES must cover every traced span exactly once")

#: Per-layer calls/amounts: metric -> (span names, "calls" | "amount").
COUNTS = {
    "crypto.hmac.calls": (("crypto.hmac",), "calls"),
    "crypto.drbg.calls": (("crypto.drbg",), "calls"),
    "crypto.drbg.bytes": (("crypto.drbg",), "amount"),
    "crypto.keygen.calls": (("crypto.keygen",), "calls"),
    "crypto.rsa.sign.calls": (("crypto.rsa.sign",), "calls"),
    "crypto.rsa.verify.calls": (("crypto.rsa.verify",), "calls"),
    "crypto.rsa.encrypt.calls": (("crypto.rsa.encrypt",), "calls"),
    "crypto.rsa.decrypt.calls": (("crypto.rsa.decrypt",), "calls"),
    "crypto.aead.calls": (("crypto.aead.seal", "crypto.aead.open"), "calls"),
    "crypto.aead.bytes": (("crypto.aead.seal", "crypto.aead.open"), "amount"),
    "crypto.merkle.build.calls": (("crypto.merkle.build",), "calls"),
    "crypto.merkle.prove.calls": (("crypto.merkle.prove",), "calls"),
    "crypto.merkle.verify.calls": (("crypto.merkle.verify",), "calls"),
    "core.evidence.build.calls": (("core.evidence.build",), "calls"),
    "core.evidence.open.calls": (("core.evidence.open",), "calls"),
    "net.events": (("net.step",), "amount"),
    "net.messages": (("net.send",), "calls"),
    "net.bytes": (("net.send",), "amount"),
    "obs.metrics.calls": (("obs.metrics",), "calls"),
    "storage.put.calls": (("storage.put",), "calls"),
    "storage.get.calls": (("storage.get",), "calls"),
}


def _count_unit(name: str) -> str:
    return "bytes" if name.endswith(".bytes") else "count"


#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    *((name, _count_unit(name)) for name in COUNTS),
    *((name, "s") for name in SELF_TIMES),
    ("crypto.batch.leaves_per_signature", "leaves/sig"),
    ("crypto.cache.sign.hit_rate", "ratio"),
    ("crypto.cache.verify.hit_rate", "ratio"),
    ("crypto.cache.kem_wrap.hit_rate", "ratio"),
    ("engine.build_s", "s"),
    ("engine.drive_s", "s"),
    ("engine.settle_s", "s"),
    ("engine.shard_skew", "ratio"),
    ("replication.hedged_reads", "count"),
    ("replication.read_repairs", "count"),
    ("replication.events", "count"),
    ("setup.import_s", "s"),
    ("setup.keygen_s", "s"),
    ("setup.preload_s", "s"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Report:
    """What one benchmark run measured and whether the outputs held."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def import_samples(src: str, in_process_s: float, repeats: int) -> list[float]:
    """The in-process import time plus ``repeats - 1`` fresh interpreters."""
    samples = [in_process_s]
    for _ in range(repeats - 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def closed_loop(seconds: float, one_pass) -> list:
    """Run whole passes back to back until *seconds* have passed."""
    outcomes = []
    started = perf_counter()
    while not outcomes or perf_counter() - started < seconds:
        outcomes.append(one_pass())
    return outcomes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


class SpeedProbe:
    """Samples the host's current speed with a fixed pure-Python loop."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total_s = 0.0  # wall time spent probing, to take out of passes

    def tick(self) -> None:
        started = perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        self.total_s += elapsed

    def slowdown(self, ticks: slice = slice(None), q: float = 0.5) -> float:
        """Probe time at percentile *q* of the *ticks*, over the
        reference: 1.5 = host 1.5x slower."""
        return percentile(self.samples[ticks], q) / PROBE_REFERENCE_S


@dataclass(frozen=True)
class Pass:
    """One timed pass: its wall time less probe time, the units of work
    it completed (sessions verified or store operations), and which
    probe ticks and latency samples it produced."""

    wall: float
    units: int
    ticks: slice
    puts: slice
    gets: slice


def trimmed_mean(values) -> float:
    """Mean of the fastest :data:`TRIMMED_SHARE` of *values*."""
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, round(len(ordered) * TRIMMED_SHARE))])


def passes_metrics(report: Report, passes: list[Pass], put_ms, get_ms,
                   probe: SpeedProbe) -> None:
    """``ops_per_s`` and the latency metrics of the timed passes."""
    slowdowns = [probe.slowdown(p.ticks) for p in passes]
    rates = [p.units / p.wall for p in passes]
    report.notes.append(f"raw ops_per_s {statistics.median(rates):.6g} 1/s")
    report.put("ops_per_s", statistics.median(
        [rate * slowdown for rate, slowdown in zip(rates, slowdowns)]), "1/s")
    tail_slowdown = probe.slowdown(q=0.95)
    report.notes.append(
        f"speed probe (passes): {' '.join(f'{x:.4f}' for x in slowdowns)}x the"
        f" reference core by pass; p95 {tail_slowdown:.4f}x over {len(probe.samples)} ticks")
    for kind, samples, span in (("put", put_ms, "puts"), ("get", get_ms, "gets")):
        means = [trimmed_mean(samples[getattr(p, span)]) for p in passes]
        report.notes.append(
            f"raw {kind}_ms_trimmed_mean {statistics.median(means):.6g} ms; raw"
            f" {kind}_ms_p50 {percentile(samples, 0.50):.6g} ms; raw {kind}_ms_p95"
            f" {percentile(samples, 0.95):.6g} ms")
        report.put(f"{kind}_ms_trimmed_mean", statistics.median(
            [mean / slowdown for mean, slowdown in zip(means, slowdowns)]), "ms")
        report.put(f"{kind}_ms_p95", percentile(samples, 0.95) / tail_slowdown, "ms")
        report.notes.append(f"{kind} latency samples: {len(samples)}")


def setup_metrics(report: Report, setups: list[float], provision_rates: list[float],
                  probe: SpeedProbe) -> None:
    """``setup_s`` and ``provision_per_s``: medians over the set-ups,
    each rescaled by the probe's median over its own ticks (every set-up
    ticks the probe the same number of times)."""
    per = len(probe.samples) // len(setups)
    slowdowns = [probe.slowdown(slice(i * per, (i + 1) * per)) for i in range(len(setups))]
    report.notes.append(
        f"speed probe (setup): {' '.join(f'{x:.4f}' for x in slowdowns)}x the"
        f" reference core by set-up, {per} ticks each")
    for name, values, unit, power in (("setup_s", setups, "s", -1),
                                      ("provision_per_s", provision_rates, "1/s", 1)):
        report.notes.append(f"raw {name} {statistics.median(values):.6g} {unit}")
        report.put(name, statistics.median(
            [value * slowdown ** power for value, slowdown in zip(values, slowdowns)]), unit)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(report: Report, tracer: LayerTracer, wall_ref: float,
                  wall_traced: float, extra: dict[str, float]) -> None:
    """Fill every :data:`PER_LAYER` metric from the tracer and *extra*."""
    units = dict(PER_LAYER)
    for name, (spans, field_name) in COUNTS.items():
        table = tracer.calls if field_name == "calls" else tracer.amount
        report.put(name, sum(table.get(span, 0) for span in spans), units[name])
    for name, spans in SELF_TIMES.items():
        report.put(name, sum(tracer.self_s.get(span, 0.0) for span in spans), "s")
    report.put("other.self_s", tracer.other_s, "s")
    report.put("trace.wall_s", tracer.wall_s, "s")
    report.put("trace.overhead_ratio", wall_traced / wall_ref, "ratio")
    for name, value in extra.items():
        report.put(name, value, units[name])
    for name, unit in PER_LAYER:
        if name not in report.metrics:
            report.put(name, 0.0, unit)
    summed = sum(report.metrics[name][0] for name in SELF_TIMES)
    summed += report.metrics["other.self_s"][0]
    gap = summed - tracer.wall_s
    report.check(abs(gap) <= 1e-6 * max(1.0, tracer.wall_s),
                 f"layer self times + other.self_s miss the traced wall by {gap:.3g} s")
    report.notes.append(
        f"trace: wall {tracer.wall_s:.3f} s = layers {summed - tracer.other_s:.3f} s"
        f" + other {tracer.other_s:.3f} s; hmac_digest patched in "
        f"{tracer.sites['repro.crypto.hmac_.hmac_digest']} modules")


# ---------------------------------------------------------------------------
# Engine workloads
# ---------------------------------------------------------------------------

def provision(seed: bytes, shape: EngineShape,
              probe: SpeedProbe | None = None) -> tuple[TenantDirectory, float]:
    """A directory holding every key the pool needs, and its keygen time
    (less the time of the *probe* ticks taken between identities)."""
    directory = TenantDirectory(seed)
    probing = probe.total_s if probe is not None else 0.0
    started = perf_counter()
    directory.certificate_authority()
    for name in shape.identity_names():
        directory.identity(name)
        if probe is not None:
            probe.tick()
    spent = perf_counter() - started
    return directory, spent - (probe.total_s - probing if probe is not None else 0.0)


class SessionTimer:
    """Wall latency of each engine session's upload and download phase.

    Upload: from ``TpnrClient.upload`` to the chained
    ``TpnrClient.download``; download: from there to the pool finishing
    the session.  Installed from outside the package, for the timed
    passes only.  Every *probe_every* finished sessions it ticks the
    speed probe; sessions run one after another on the zero-latency
    channel, so no session's phase spans a tick.
    """

    def __init__(self, probe: SpeedProbe, probe_every: int) -> None:
        self.put_ms = array("d")
        self.get_ms = array("d")
        self.probe = probe
        self.probe_every = probe_every

    @contextmanager
    def installed(self):
        upload, download = TpnrClient.upload, TpnrClient.download
        finish = SessionPool._finish_session
        started: dict[str, float] = {}
        put_ms, get_ms = self.put_ms, self.get_ms
        probe, probe_every = self.probe, self.probe_every
        finished = 0

        def timed_upload(client, *args, **kwargs):
            began = perf_counter()
            transaction_id = upload(client, *args, **kwargs)
            started[transaction_id] = began
            return transaction_id

        def timed_download(client, transaction_id):
            now = perf_counter()
            began = started.get(transaction_id)
            if began is not None:
                put_ms.append((now - began) * 1e3)
                started[transaction_id] = now
            return download(client, transaction_id)

        def timed_finish(pool, session):
            nonlocal finished
            now = perf_counter()
            began = started.pop(session.transaction_id, None)
            if began is not None and session.download_done_at is not None:
                get_ms.append((now - began) * 1e3)
            finish(pool, session)
            finished += 1
            if finished % probe_every == 0:
                probe.tick()

        TpnrClient.upload, TpnrClient.download = timed_upload, timed_download
        SessionPool._finish_session = timed_finish
        try:
            yield self
        finally:
            TpnrClient.upload, TpnrClient.download = upload, download
            SessionPool._finish_session = finish


def engine_pass(seed: bytes, shape: EngineShape, directory: TenantDirectory,
                report: Report):
    """One ``run_pool`` call, checked; returns (result, wall s, good sessions)."""
    started = perf_counter()
    try:
        result = run_pool(
            seed, shape.tenants, directory=directory,
            transactions_per_tenant=shape.transactions_per_tenant,
            batch_size=shape.batch_size, shards=shape.shards,
        )
    except EvidenceError as exc:
        report.attempted += shape.sessions
        report.failed += shape.sessions
        report.check(False, f"batched evidence settlement failed: {exc}")
        return None, perf_counter() - started, 0
    wall = perf_counter() - started
    good = sum(1 for s in result.sessions
               if s.upload_status in ("completed", "resolved") and s.download_verified)
    report.attempted += shape.sessions
    report.failed += shape.sessions - good
    if result.batch_stats is not None:
        report.check(result.batch_stats["failed"] == 0,
                     f"batched evidence failed: {result.batch_stats}")
    return result, wall, good


def batch_note(result) -> str:
    stats = result.batch_stats
    if stats is None:
        return "batched evidence: not used"
    unresolved = stats["leaves"] - stats["resolved"] - stats["failed"]
    return (f"batched evidence: {stats['leaves']} leaves published, "
            f"{stats['resolved']} resolved, {stats['failed']} failed, "
            f"{unresolved} unaccounted, {stats['batches']} batches")


def run_engine(workload: str, seed: int, seconds: float, trace: bool,
               imports: list[float]) -> Report:
    shape: EngineShape = SHAPES[workload]
    seed_bytes = f"perfbench/{workload}/{seed}".encode()
    # The key set is fixed per workload and the traffic varies with the
    # seed: key cost differs from key to key, and that variance would
    # otherwise swamp a change in the code under test.
    keys_seed = f"perfbench/{workload}/keys".encode()
    report = Report()
    probes = {"setup": SpeedProbe(), "passes": SpeedProbe()}
    keygen = []
    for _ in imports:
        directory, spent = provision(keys_seed, shape, probes["setup"])
        keygen.append(spent)
    keypairs = len(shape.identity_names()) + 1  # + the CA
    # Warm lazy imports and first-call paths on a two-tenant world that
    # reuses the directory's keys, so the first timed pass is not special.
    run_pool(seed_bytes, min(2, shape.tenants), directory=directory,
             batch_size=shape.batch_size, shards=shape.shards)
    warmed = directory.keygen_count
    if trace:
        _trace_engine(report, seed_bytes, keys_seed, shape, directory, imports, keygen)
    else:
        probe = probes["passes"]
        timer = SessionTimer(probe, max(1, shape.sessions // ENGINE_TICKS_PER_PASS))

        signatures: list[str] = []

        def one_pass() -> Pass:
            probing, ticks = probe.total_s, len(probe.samples)
            puts, gets = len(timer.put_ms), len(timer.get_ms)
            result, wall, good = engine_pass(seed_bytes, shape, directory, report)
            # Keep no result across passes: peak RSS must not grow with
            # the number of passes a run fits in.
            if result is not None:
                signature = result.signature()
                if not signatures:
                    report.notes.append(f"signature {signature}")
                    report.notes.append(batch_note(result))
                elif not report.check(signature == signatures[0],
                                      "signature() differs across repetitions"):
                    report.failed += len(result.sessions)
                signatures.append(signature)
            return Pass(wall - (probe.total_s - probing), good,
                        slice(ticks, len(probe.samples)),
                        slice(puts, len(timer.put_ms)), slice(gets, len(timer.get_ms)))

        with timer.installed():
            passes = closed_loop(seconds, one_pass)
        passes_metrics(report, passes, timer.put_ms, timer.get_ms, probe)
        setup_metrics(report, [i + k for i, k in zip(imports, keygen)],
                      [keypairs / k for k in keygen], probes["setup"])
        report.put("peak_rss_mb", peak_rss_mb(), "MB")
        report.notes.append(
            f"passes: {len(passes)} x {shape.sessions} sessions; "
            f"wall per pass: {' '.join(f'{p.wall:.3f}' for p in passes)} s")
    report.check(directory.keygen_count == warmed,
                 "keys were generated inside the timed region")
    return report


def _trace_engine(report: Report, seed_bytes: bytes, keys_seed: bytes,
                  shape: EngineShape, directory: TenantDirectory,
                  imports: list[float], keygen: list[float]) -> None:
    reference, wall_ref, _ = engine_pass(seed_bytes, shape, directory, report)
    tracer = LayerTracer()
    with tracer.active():
        provision(keys_seed, shape)  # traced only to attribute keygen
        before, sims_before = tracer.snapshot(), len(tracer.simulators)
        result, wall, _ = engine_pass(seed_bytes, shape, directory, report)
    if result is None or reference is None:
        return
    report.check(result.signature() == reference.signature(),
                 "tracing changed the engine's signature()")
    caches = result.cache_stats or {}
    sign = caches.get("sign", {})
    sign_calls, _ = tracer.since(before, "crypto.rsa.sign")
    report.check(sign_calls == sign.get("hits", 0) + sign.get("misses", 0),
                 f"rsa.sign calls {sign_calls} != sign-cache hits + misses")
    _, events = tracer.since(before, "net.step")
    processed = sum(s.events_processed for s in tracer.simulators[sims_before:])
    report.check(events == processed,
                 f"net.events {events} != Simulator.events_processed {processed}")
    stats = result.batch_stats
    drives = [s["drive_seconds"] for s in reference.shard_summaries]
    extra = {
        "crypto.batch.leaves_per_signature":
            stats["leaves"] / stats["batches"] if stats and stats["batches"] else 0.0,
        "crypto.cache.sign.hit_rate": caches.get("sign", {}).get("hit_rate", 0.0),
        "crypto.cache.verify.hit_rate": caches.get("verify", {}).get("hit_rate", 0.0),
        "crypto.cache.kem_wrap.hit_rate": caches.get("kem_wrap", {}).get("hit_rate", 0.0),
        "engine.build_s": tracer.total_s.get("engine.build", 0.0),
        "engine.drive_s": tracer.total_s.get("engine.drive", 0.0),
        "engine.settle_s": tracer.total_s.get("engine.settle", 0.0),
        "engine.shard_skew": max(drives) / statistics.mean(drives) if drives else 1.0,
        "setup.import_s": imports[0],
        "setup.keygen_s": statistics.median(keygen),
    }
    layer_metrics(report, tracer, wall_ref, wall, extra)
    report.notes.append(f"signature {reference.signature()}")
    report.notes.append(batch_note(reference))
    report.notes.append(
        f"cross-checks: rsa.sign calls {sign_calls} = sign-cache lookups; "
        f"net.events {events} = events_processed {processed}")
    calls = tracer.calls
    if shape.batch_size is None:
        merkle = sum(calls.get(s, 0) for s in SELF_TIMES["crypto.merkle.self_s"])
        report.notes.append(f"prediction merkle calls = 0 on per-message evidence: "
                            f"{'holds' if merkle == 0 else f'fails ({merkle})'}")
    else:
        aead = calls.get("crypto.aead.seal", 0) + calls.get("crypto.aead.open", 0)
        report.notes.append(f"prediction aead calls = 0 on batched evidence: "
                            f"{'holds' if aead == 0 else f'fails ({aead})'}")


# ---------------------------------------------------------------------------
# Store workload
# ---------------------------------------------------------------------------

def store_inputs(seed: int, shape: StoreShape):
    """Preload values and the operation list: (key index, payload or None)."""
    rng = random.Random(f"perfbench/store-mixed/{seed}")
    preload = [rng.randbytes(shape.preload_bytes) for _ in range(shape.keys)]
    operations = []
    for _ in range(shape.operations):
        index = rng.randrange(shape.keys)
        if rng.random() < shape.put_share:
            operations.append(
                (index, rng.randbytes(rng.randint(shape.put_min, shape.put_max))))
        else:
            operations.append((index, None))
    return preload, operations


def preloaded_store(seed: bytes, keys: list[str], preload: list[bytes],
                    probe: SpeedProbe | None = None):
    """A fresh store holding *preload*, and the seconds the puts took
    (less the time of the *probe* ticks taken between them)."""
    store = ReplicatedStore(seed=seed)
    probing = probe.total_s if probe is not None else 0.0
    started = perf_counter()
    for count, (key, value) in enumerate(zip(keys, preload)):
        if probe is not None and count % STORE_OPS_PER_TICK == 0:
            probe.tick()
        store.put(CONTAINER, key, value)
    spent = perf_counter() - started
    return store, spent - (probe.total_s - probing if probe is not None else 0.0)


def store_pass(store: ReplicatedStore, keys: list[str], preload: list[bytes],
               operations, report: Report, put_ms, get_ms,
               probe: SpeedProbe | None = None) -> float:
    """Run every operation once; checks each get against a model.

    Returns the pass's wall time less the time spent in *probe* ticks.
    """
    model = list(preload)
    failed = 0
    probing = probe.total_s if probe is not None else 0.0
    started = perf_counter()
    for count, (index, payload) in enumerate(operations):
        if probe is not None and count % STORE_OPS_PER_TICK == 0:
            probe.tick()
        key = keys[index]
        began = perf_counter()
        try:
            if payload is None:
                data = store.get(CONTAINER, key).data
                get_ms.append((perf_counter() - began) * 1e3)
                if data != model[index]:
                    failed += 1
            else:
                store.put(CONTAINER, key, payload)
                put_ms.append((perf_counter() - began) * 1e3)
                model[index] = payload
        except ReproError:
            failed += 1
    wall = perf_counter() - started
    if probe is not None:
        wall -= probe.total_s - probing
    findings = store.verifier.error_findings()
    report.check(not findings, f"verifier findings: {len(findings)}")
    report.attempted += len(operations)
    report.failed += failed + len(findings)
    return wall


def run_store(workload: str, seed: int, seconds: float, trace: bool,
              imports: list[float]) -> Report:
    shape: StoreShape = SHAPES[workload]
    seed_bytes = f"perfbench/{workload}/{seed}".encode()
    report = Report()
    preload, operations = store_inputs(seed, shape)
    keys = [f"obj-{i:05d}" for i in range(shape.keys)]
    probes = {"setup": SpeedProbe(), "passes": SpeedProbe()}
    preloads = [preloaded_store(seed_bytes, keys, preload, probes["setup"])[1]
                for _ in imports]
    put_ms, get_ms = array("d"), array("d")
    probe = probes["passes"]

    def one_pass() -> Pass:
        store, _ = preloaded_store(seed_bytes, keys, preload)
        ticks, puts, gets = len(probe.samples), len(put_ms), len(get_ms)
        wall = store_pass(store, keys, preload, operations, report, put_ms, get_ms, probe)
        return Pass(wall, len(operations), slice(ticks, len(probe.samples)),
                    slice(puts, len(put_ms)), slice(gets, len(get_ms)))

    if trace:
        wall_ref = one_pass().wall
        tracer = LayerTracer()
        with tracer.active():
            store, _ = preloaded_store(seed_bytes, keys, preload)
            wall = store_pass(store, keys, preload, operations, report, [], [])
        events: dict[str, int] = {}
        for event in store.events:
            events[event.action] = events.get(event.action, 0) + 1
        writes = events.get("write-ack", 0) + events.get("read-repair", 0)
        reads = sum(events.get(a, 0) for a in ("read", "read-miss", "read-reject"))
        report.check(tracer.calls.get("storage.put", 0) == writes,
                     f"storage.put calls != {writes} replica writes")
        report.check(tracer.calls.get("storage.get", 0) == reads,
                     f"storage.get calls != {reads} replica reads")
        stats = store.stats()
        layer_metrics(report, tracer, wall_ref, wall, {
            "replication.hedged_reads": stats["hedged_reads"],
            "replication.read_repairs": stats["read_repairs"],
            "replication.events": stats["events"],
            "setup.import_s": imports[0],
            "setup.preload_s": statistics.median(preloads),
        })
        report.notes.append(
            f"cross-checks: storage.put calls = {writes} replica writes; "
            f"storage.get calls = {reads} replica reads")
        return report
    passes = closed_loop(seconds, one_pass)
    passes_metrics(report, passes, put_ms, get_ms, probe)
    setup_metrics(report, [i + p for i, p in zip(imports, preloads)],
                  [shape.keys / p for p in preloads], probes["setup"])
    report.put("peak_rss_mb", peak_rss_mb(), "MB")
    report.notes.append(
        f"passes: {len(passes)} x {len(operations)} operations; "
        f"wall per pass: {' '.join(f'{p.wall:.3f}' for p in passes)} s")
    return report


RUNNERS = {
    "engine-classic": run_engine,
    "engine-batched": run_engine,
    "store-mixed": run_store,
}
