"""Per-layer tracing by wrapping the public functions of each layer.

Nothing inside ``src/`` is changed.  :meth:`LayerTracer.install`
replaces every target function with a wrapper that records one span
per call: the span's name, its count, an optional amount (bytes,
events) and its self time — the call's duration minus the time of the
traced calls nested inside it.  Module-level functions are patched in
*every* loaded module that binds them by name (``hmac_digest`` is
imported by name in many modules), so no call path is missed; methods
are patched once, on the class that defines them.

Self times add up by construction: each traced call's duration is
split between its own self time and its children, and the time no
span covers is reported as ``other``; the benchmark checks on every
traced run that the layers plus ``other`` sum to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _len_arg(index: int, name: str):
    """Amount = ``len()`` of one positional-or-keyword argument."""
    def amount(args, kwargs, result):
        value = args[index] if len(args) > index else kwargs[name]
        return len(value)
    return amount


def _int_arg(index: int, name: str):
    def amount(args, kwargs, result):
        return int(args[index] if len(args) > index else kwargs[name])
    return amount


def _step_ran(args, kwargs, result):
    return 1 if result else 0


def _envelope_bytes(args, kwargs, result):
    return result.size_bytes


#: (span name, module, qualified name, amount) — one row per wrapped
#: function.  Span names are the metric prefixes the benchmark prints.
TARGETS = (
    ("crypto.hmac", "repro.crypto.hmac_", "hmac_digest", None),
    ("crypto.drbg", "repro.crypto.drbg", "HmacDrbg.generate", _int_arg(1, "n_bytes")),
    ("crypto.drbg.init", "repro.crypto.drbg", "HmacDrbg.__init__", None),
    ("crypto.keygen", "repro.crypto.rsa", "generate_keypair", None),
    ("crypto.keygen.prime", "repro.crypto.primes", "generate_prime", None),
    ("crypto.rsa.sign", "repro.crypto.rsa", "sign", None),
    ("crypto.rsa.verify", "repro.crypto.rsa", "verify", None),
    ("crypto.rsa.encrypt", "repro.crypto.rsa", "encrypt", None),
    ("crypto.rsa.decrypt", "repro.crypto.rsa", "decrypt", None),
    ("crypto.aead.seal", "repro.crypto.aead", "seal", _len_arg(2, "plaintext")),
    ("crypto.aead.open", "repro.crypto.aead", "open_", _len_arg(1, "sealed")),
    ("crypto.kem", "repro.crypto.kem", "hybrid_encrypt", None),
    ("crypto.kem", "repro.crypto.kem", "hybrid_decrypt", None),
    ("crypto.merkle.build", "repro.crypto.merkle", "MerkleTree.__init__", None),
    ("crypto.merkle.prove", "repro.crypto.merkle", "MerkleTree.prove", None),
    ("crypto.merkle.verify", "repro.crypto.merkle", "verify_inclusion", None),
    ("crypto.batch", "repro.crypto.batch", "sign_batch_root", None),
    ("crypto.batch", "repro.crypto.batch", "verify_batch_root", None),
    ("crypto.batch", "repro.crypto.batch", "verify_batch_proof", None),
    ("crypto.batch", "repro.crypto.batch", "BatchLedger.publish", None),
    ("crypto.batch", "repro.crypto.batch", "BatchLedger.proof_for", None),
    ("crypto.batch", "repro.crypto.batch", "EvidenceBatcher.add", None),
    ("crypto.batch", "repro.crypto.batch", "EvidenceBatcher.seal", None),
    ("core.evidence.build", "repro.core.evidence", "build_evidence", None),
    ("core.evidence.build", "repro.core.evidence", "build_batched_evidence", None),
    ("core.evidence.open", "repro.core.evidence", "open_evidence", None),
    ("core.evidence.open", "repro.core.evidence", "verify_opened_evidence", None),
    ("core.party", "repro.core.client", "TpnrClient.on_message", None),
    ("core.party", "repro.core.client", "TpnrClient.upload", None),
    ("core.party", "repro.core.client", "TpnrClient.download", None),
    ("core.party", "repro.core.provider", "TpnrProvider.on_message", None),
    ("core.party", "repro.core.ttp", "TrustedThirdParty.on_message", None),
    ("net.sim", "repro.net.events", "Simulator.__init__", None),
    ("net.step", "repro.net.events", "Simulator.step", _step_ran),
    ("net.send", "repro.net.network", "Network.send", _envelope_bytes),
    ("net.deliver", "repro.net.network", "Network._deliver", None),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry.counter", None),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry.gauge", None),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry.histogram", None),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry.sketch", None),
    ("obs", "repro.obs.metrics", "Counter.inc", None),
    ("obs", "repro.obs.metrics", "Gauge.set", None),
    ("obs", "repro.obs.metrics", "Histogram.observe", None),
    ("obs", "repro.obs.sketch", "QuantileSketch.observe", None),
    ("obs", "repro.obs.span", "Tracer.start", None),
    ("obs", "repro.obs.span", "Tracer.finish", None),
    ("obs", "repro.obs.anomaly", "AnomalyMonitor.poll", None),
    ("obs", "repro.obs.slo", "SLOManager.poll", None),
    ("engine", "repro.engine.pool", "SessionPool.run", None),
    ("engine", "repro.engine.pool", "SessionPool._schedule_workload", None),
    ("engine", "repro.engine.sharding", "ShardedSessionPool.run", None),
    ("engine", "repro.engine.sharding", "merge_pool_results", None),
    ("engine.build", "repro.engine.pool", "SessionPool.build", None),
    ("engine.drive", "repro.engine.pool", "SessionPool._drive", None),
    ("engine.settle", "repro.engine.pool", "SessionPool._settle_batches", None),
    ("storage.put", "repro.replication.store", "S3ReplicaAdapter.put", None),
    ("storage.put", "repro.replication.store", "AzureReplicaAdapter.put", None),
    ("storage.put", "repro.replication.store", "GaeReplicaAdapter.put", None),
    ("storage.get", "repro.replication.store", "S3ReplicaAdapter.get", None),
    ("storage.get", "repro.replication.store", "AzureReplicaAdapter.get", None),
    ("storage.get", "repro.replication.store", "GaeReplicaAdapter.get", None),
    ("storage.rest_sign", "repro.storage.rest", "string_to_sign", None),
    ("storage.rest_sign", "repro.storage.rest", "shared_key_signature", None),
    ("storage.rest_sign", "repro.storage.rest", "authorization_header", None),
    ("replication.attest", "repro.replication.store", "ReplicaHandle.attest", None),
    ("replication.verify", "repro.replication.verify", "ForkConsistencyVerifier.check_read", None),
    ("replication.verify", "repro.replication.verify", "ForkConsistencyVerifier.check_missing", None),
    ("replication.commit", "repro.replication.verify", "ForkConsistencyVerifier.commit", None),
    ("replication.store", "repro.replication.store", "ReplicatedStore.put", None),
    ("replication.store", "repro.replication.store", "ReplicatedStore.get", None),
)


class LayerTracer:
    """Span counts, amounts and self times for the :data:`TARGETS`."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.calls: dict[str, int] = defaultdict(int)
        self.amount: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.simulators: list = []
        # Child-time accumulators; the bottom slot collects the time of
        # top-level spans, so wall minus it is the untraced remainder.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        #: qualified target name -> number of attributes patched for it
        self.sites: dict[str, int] = {}

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn, amount):
        calls, amounts = self.calls, self.amount
        self_s, total_s, stack = self.self_s, self.total_s, self._stack
        if name == "net.sim":
            # Keep every Simulator built while traced, so the event count
            # can be cross-checked against ``events_processed``.
            simulators = self.simulators
            amount = lambda args, kwargs, result: simulators.append(args[0]) or 0  # noqa: E731

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                child = stack.pop()
                stack[-1] += elapsed
                self_s[name] += elapsed - child
                total_s[name] += elapsed
                calls[name] += 1
            if amount is not None:
                amounts[name] += amount(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target; idempotent only through :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, qualname, amount in self.targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, amount))
                self.sites[f"{module_name}.{qualname}"] = 1
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, amount)
            bound = [loaded for loaded in list(sys.modules.values())
                     if getattr(loaded, "__dict__", {}).get(attr) is original]
            for loaded in bound:
                self._patch(loaded, attr, original, wrapper)
            self.sites[f"{module_name}.{qualname}"] = len(bound)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self):
        """Install for the body; its wall time counts toward :attr:`wall_s`."""
        self.install()
        started = perf_counter()
        try:
            yield self
        finally:
            self.wall_s += perf_counter() - started
            self.uninstall()
            if len(self._stack) != 1:
                raise RuntimeError(f"span stack not empty: depth {len(self._stack)}")

    # -- accounting ----------------------------------------------------------

    @property
    def other_s(self) -> float:
        """Traced wall time that no span covers (harness, unwrapped code)."""
        return self.wall_s - self._stack[0]

    def snapshot(self) -> tuple[dict[str, int], dict[str, int]]:
        """Counts and amounts so far, for :meth:`since`."""
        return dict(self.calls), dict(self.amount)

    def since(self, snapshot, name: str) -> tuple[int, int]:
        """(calls, amount) of span *name* after *snapshot* was taken."""
        calls, amount = snapshot
        return (self.calls.get(name, 0) - calls.get(name, 0),
                self.amount.get(name, 0) - amount.get(name, 0))
