"""High-level TPNR orchestration: deployments and scenario runners.

A :class:`Deployment` wires the four Fig. 6(a) roles — client, cloud
storage provider, TTP, arbitrator — onto one simulated network with a
shared PKI.  The ``run_*`` helpers drive complete scenarios and return
plain result records; they are the API the examples, tests, and
benchmarks call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.drbg import HmacDrbg
from ..crypto.pki import CertificateAuthority, Identity, KeyRegistry
from ..net.channel import PERFECT, ChannelSpec
from ..net.events import Simulator
from ..net.network import Network
from ..obs import NULL_OBS, Observability
from .arbitrator import Arbitrator, Ruling
from .client import DownloadResult, TpnrClient
from .messages import Flag
from .policy import DEFAULT_POLICY, TpnrPolicy
from .provider import HONEST, ProviderBehavior, TpnrProvider
from .transaction import TxStatus
from .ttp import TrustedThirdParty

__all__ = [
    "Deployment",
    "make_deployment",
    "run_upload",
    "run_download",
    "run_abort",
    "run_session",
    "SessionOutcome",
]

DEFAULT_KEY_BITS = 512


@dataclass
class Deployment:
    """One wired-up TPNR world."""

    sim: Simulator
    network: Network
    registry: KeyRegistry
    rng: HmacDrbg
    client: TpnrClient
    provider: TpnrProvider
    ttp: TrustedThirdParty
    arbitrator: Arbitrator
    extra_clients: dict[str, TpnrClient] = field(default_factory=dict)
    stable: object | None = None  # StableStore when built with durable=True
    obs: Observability = NULL_OBS  # live when built with observe=True
    replication: object | None = None  # ReplicatedStore when attached
    ledger: object | None = None  # BatchLedger when built with batch_size

    def run(self, until: float | None = None) -> None:
        self.network.sim.run(until)

    def any_client(self, name: str) -> TpnrClient:
        """Look up the primary or an extra client by name."""
        if name == self.client.name:
            return self.client
        return self.extra_clients[name]

    def parties(self):
        return (self.client, self.provider, self.ttp, *self.extra_clients.values())

    def settle_batches(self, strict: bool = True) -> dict:
        """End-of-run batched-evidence settlement.

        Seals every emitter's partial batch, then resolves each party's
        pending batched evidence against the ledger.  Returns
        ``{"resolved": n, "failed": n, "batches": n}`` over the whole
        run: items verified at receipt count as resolved, items whose
        proof was invalid at receipt as failed.  With *strict* (the
        default) any failure — an item whose proof was invalid at
        receipt, whose covering batch never sealed, or whose inclusion
        proof does not verify — raises
        :class:`~repro.errors.EvidenceError`: unsettled evidence must
        never pass silently.  ``strict=False`` is for dispute flows
        that want to convict from the failures instead.
        """
        if self.ledger is None:
            return {"resolved": 0, "failed": 0, "batches": 0}
        from ..errors import EvidenceError

        for party in self.parties():
            if party.batcher is not None:
                party.batcher.seal()
        resolved = failed = 0
        for party in self.parties():
            got, bad = party.settle_batched_evidence()
            resolved += got
            failed += bad
        if strict and failed:
            losers = [
                (p.name, e.header.transaction_id)
                for p in self.parties() for e in p.batched_failures
            ]
            raise EvidenceError(
                f"{failed} batched evidence item(s) failed settlement: {losers}"
            )
        return {
            "resolved": resolved,
            "failed": failed,
            "batches": len(self.ledger.batches),
        }

    # -- forensics -----------------------------------------------------------
    # Imported lazily: repro.obs.forensics reaches back into core for
    # evidence verification, so module-level imports would cycle.

    def timeline(self, transaction_id: str, exclusive_trace: bool = False):
        """Reconstruct the cross-surface timeline of one transaction."""
        from ..obs.forensics import TimelineReconstructor

        return TimelineReconstructor.for_deployment(
            self, exclusive_trace=exclusive_trace
        ).reconstruct(transaction_id)

    def forensic_audit(self, transaction_id: str, exclusive_trace: bool = False):
        """Cross-source consistency findings for one transaction."""
        from ..obs.forensics import ConsistencyAuditor

        return ConsistencyAuditor.for_deployment(
            self, exclusive_trace=exclusive_trace
        ).audit(transaction_id)

    def dossier(self, transaction_id: str, claimant_name: str | None = None,
                exclusive_trace: bool = False):
        """Build a :class:`~repro.obs.forensics.DisputeDossier`."""
        from ..obs.forensics import DisputeDossier

        return DisputeDossier.build(
            self, transaction_id,
            claimant_name=claimant_name,
            exclusive_trace=exclusive_trace,
        )


@dataclass
class SessionOutcome:
    """Summary of one upload(+download) session."""

    transaction_id: str
    upload_status: TxStatus
    upload_detail: str
    download: DownloadResult | None = None
    steps: int = 0
    bytes_on_wire: int = 0
    elapsed: float = 0.0
    ttp_involved: bool = False
    client_evidence: int = 0
    provider_evidence: int = 0


def make_deployment(
    seed: bytes | str = b"tpnr-deployment",
    channel: ChannelSpec = PERFECT,
    policy: TpnrPolicy = DEFAULT_POLICY,
    behavior: ProviderBehavior = HONEST,
    key_bits: int = DEFAULT_KEY_BITS,
    client_name: str = "alice",
    provider_name: str = "bob",
    ttp_name: str = "ttp",
    extra_client_names: tuple[str, ...] = (),
    topology=None,
    durable: bool = False,
    snapshot_interval: int = 48,
    observe: bool = False,
    identities: "dict[str, Identity] | None" = None,
    batch_size: int | None = None,
) -> Deployment:
    """Build a client + provider + TTP + arbitrator world.

    *extra_client_names* adds further user roles (for the cross-user
    sharing scenarios).  When a :class:`repro.net.topology.Topology` is
    given, its compiled per-pair channels override *channel* for every
    host pair it covers (all role names must be hosts of the topology).
    All keys derive from *seed*; identical seeds give bit-identical runs.

    *identities* supplies pre-generated :class:`Identity` objects by
    name; any role found there skips key generation (the dominant cost
    of building a world).  The throughput harness uses this to amortize
    keygen across sweep points — note that skipping generation advances
    the deployment RNG differently, so runs with and without a given
    identity are not bit-comparable.

    With ``durable=True`` every party gets a
    :class:`~repro.durability.journal.PartyJournal` over a shared
    :class:`~repro.durability.wal.StableStore` (``Deployment.stable``),
    making amnesia-crash windows recoverable.

    With ``observe=True`` a live :class:`repro.obs.Observability` —
    metrics registry + span tracer, both on the simulation clock — is
    seated on the network; every node reports through it, and it is
    exposed as ``Deployment.obs``.  Off by default: the seat then holds
    the shared no-op and instrumented code costs one branch.

    *batch_size* switches evidence to the Merkle-batched form: every
    party commits evidence leaves into per-signer batches of that size
    (one RSA signature per batch) published on a shared
    :class:`~repro.crypto.batch.BatchLedger` (``Deployment.ledger``);
    call :meth:`Deployment.settle_batches` after driving the run.
    ``None`` (the default) keeps the classic two-signatures-per-message
    evidence — byte-identical to previous releases.
    """
    rng = HmacDrbg(seed)
    sim = Simulator()
    network = Network(sim, rng, default_channel=channel)
    if observe:
        network.obs = Observability(clock=lambda: sim.now)
    ca = CertificateAuthority("repro-ca", rng.fork("ca"), bits=key_bits)
    registry = KeyRegistry(ca)
    def _identity(name: str) -> Identity:
        if identities is not None and name in identities:
            return identities[name]
        return Identity.generate(name, rng, bits=key_bits)

    client_id = _identity(client_name)
    provider_id = _identity(provider_name)
    ttp_id = _identity(ttp_name)
    extra_ids = [_identity(name) for name in extra_client_names]
    for identity in (client_id, provider_id, ttp_id, *extra_ids):
        registry.enroll(identity)
    client = TpnrClient(client_id, registry, rng, ttp_name=ttp_name, policy=policy)
    provider = TpnrProvider(
        provider_id, registry, rng, ttp_name=ttp_name, policy=policy, behavior=behavior
    )
    ttp = TrustedThirdParty(ttp_id, registry, rng, policy=policy)
    extra_clients = {
        identity.name: TpnrClient(identity, registry, rng, ttp_name=ttp_name, policy=policy)
        for identity in extra_ids
    }
    ledger = None
    if batch_size is not None:
        from ..crypto.batch import BatchLedger, EvidenceBatcher

        ledger = BatchLedger()
        for party in (client, provider, ttp, *extra_clients.values()):
            party.configure_batching(
                ledger, EvidenceBatcher(party.identity, batch_size, ledger)
            )
    for node in (client, provider, ttp, *extra_clients.values()):
        network.add_node(node)
    if topology is not None:
        topology.install(network)
    stable = None
    if durable:
        # Imported lazily: repro.durability imports core modules, so a
        # module-level import here would cycle.
        from ..durability.journal import PartyJournal
        from ..durability.wal import StableStore

        stable = StableStore("deployment")
        roles = [(client, "client"), (provider, "provider"), (ttp, "ttp")]
        roles += [(extra, "client") for extra in extra_clients.values()]
        for party, role in roles:
            party.attach_journal(
                PartyJournal(
                    stable,
                    f"{party.name}.wal",
                    role,
                    snapshot_interval=snapshot_interval,
                )
            )
    return Deployment(
        sim=sim,
        network=network,
        registry=registry,
        rng=rng,
        client=client,
        provider=provider,
        ttp=ttp,
        arbitrator=Arbitrator(registry, ledger=ledger),
        extra_clients=extra_clients,
        stable=stable,
        obs=network.obs,
        ledger=ledger,
    )


def _summarize(dep: Deployment, transaction_id: str, started_at: float) -> SessionOutcome:
    # The record is absent only when the client took an amnesia crash
    # with no durable journal to recover from: report the loss rather
    # than pretending the session never started.
    record = dep.client.transactions.get(transaction_id)
    trace = dep.network.trace
    tpnr_sends = trace.sends("tpnr.")
    ttp_kinds = {"tpnr.resolve.request", "tpnr.resolve.query",
                 "tpnr.resolve.reply", "tpnr.resolve.result", "tpnr.resolve.failed"}
    return SessionOutcome(
        transaction_id=transaction_id,
        upload_status=record.status if record else TxStatus.FAILED,
        upload_detail=record.detail if record
        else "transaction record lost (crash without durable journal)",
        download=dep.client.downloads.get(transaction_id),
        steps=len(tpnr_sends),
        bytes_on_wire=sum(e.size_bytes for e in tpnr_sends),
        elapsed=dep.sim.now - started_at,
        ttp_involved=any(e.kind in ttp_kinds for e in tpnr_sends),
        client_evidence=len(dep.client.evidence_store.for_transaction(transaction_id)),
        provider_evidence=len(dep.provider.evidence_store.for_transaction(transaction_id)),
    )


def run_upload(dep: Deployment, data: bytes, auto_resolve: bool = True) -> SessionOutcome:
    """Drive one upload to quiescence and summarize it."""
    with dep.obs.profiler.region("core/upload"):
        started = dep.sim.now
        dep.network.trace.clear()
        transaction_id = dep.client.upload(dep.provider.name, data,
                                           auto_resolve=auto_resolve)
        dep.run()
        return _summarize(dep, transaction_id, started)


def run_download(dep: Deployment, transaction_id: str) -> DownloadResult:
    """Drive one download of a previously uploaded transaction."""
    with dep.obs.profiler.region("core/download"):
        dep.client.download(transaction_id)
        dep.run()
        result = dep.client.downloads[transaction_id]
        return result


def run_abort(dep: Deployment, data: bytes, abort_delay: float | None = None) -> SessionOutcome:
    """Upload, then invoke the Abort sub-protocol (§4.2).

    The abort fires *abort_delay* seconds after the upload (default:
    half the response time-out — i.e. Alice gives up before escalating
    to the TTP).  Against an honest instant provider the transaction
    completes first and the abort is acknowledged post-completion;
    against a provider withholding the receipt the transaction ends
    ABORTED — no TTP involved either way, as Fig. 6(b) requires.
    """
    with dep.obs.profiler.region("core/abort"):
        started = dep.sim.now
        dep.network.trace.clear()
        if abort_delay is None:
            abort_delay = dep.client.policy.response_timeout / 2
        transaction_id = dep.client.upload(dep.provider.name, data, auto_resolve=False)
        dep.sim.schedule(abort_delay, lambda: dep.client.abort(transaction_id))
        dep.run()
        return _summarize(dep, transaction_id, started)


def run_session(dep: Deployment, data: bytes) -> SessionOutcome:
    """Full Normal-mode session: upload then download."""
    outcome = run_upload(dep, data)
    if outcome.upload_status in (TxStatus.COMPLETED, TxStatus.RESOLVED):
        outcome.download = run_download(dep, outcome.transaction_id)
        trace = dep.network.trace
        tpnr_sends = trace.sends("tpnr.")
        outcome.steps = len(tpnr_sends)
        outcome.bytes_on_wire = sum(e.size_bytes for e in tpnr_sends)
        outcome.elapsed = dep.sim.now
    return outcome


def run_shared_download(
    dep: Deployment, transaction_id: str, downloader_name: str
) -> DownloadResult:
    """The paper's cross-user scenario: the uploader grants access and
    shares ``(txn, hash, NRR)``; another user downloads and verifies.

    Returns the downloader's :class:`DownloadResult`; upload-to-download
    integrity holds across users because the served hash is checked
    against the *uploader's* hash.
    """
    uploader = dep.client
    downloader = dep.any_client(downloader_name)
    handle = uploader.uploads[transaction_id]
    # 1. The uploader authorizes the downloader with the provider.
    uploader.grant(transaction_id, downloader_name)
    dep.run()
    # 2. The uploader shares the transaction facts + her NRR out of band.
    receipt = uploader.evidence_store.latest(transaction_id, Flag.UPLOAD_RECEIPT)
    downloader.import_transaction(
        transaction_id,
        handle.provider,
        handle.data_hash,
        handle.data_size,
        shared_receipt=receipt,
    )
    # 3. The downloader runs the normal download session.
    downloader.download(transaction_id)
    dep.run()
    return downloader.downloads[transaction_id]


def dispute_tampering(dep: Deployment, transaction_id: str) -> Ruling:
    """Both parties submit their evidence; the arbitrator rules."""
    return dep.arbitrator.rule_on_tampering(
        transaction_id,
        dep.provider.name,
        dep.client.evidence_store.for_transaction(transaction_id),
        dep.provider.evidence_store.for_transaction(transaction_id),
    )


def dispute_missing_receipt(dep: Deployment, transaction_id: str) -> Ruling:
    return dep.arbitrator.rule_on_missing_receipt(
        transaction_id,
        dep.provider.name,
        dep.ttp.name,
        dep.client.evidence_store.for_transaction(transaction_id),
        dep.provider.evidence_store.for_transaction(transaction_id),
    )
