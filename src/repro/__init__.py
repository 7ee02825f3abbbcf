"""repro — reproduction of *"Analysis of Integrity Vulnerabilities and a
Non-repudiation Protocol for Cloud Data Storage Platforms"* (Feng,
Chen, Ku, Liu — ICPP/SCC 2010).

Subpackages
-----------

``repro.crypto``
    From-scratch crypto substrate: MD5/SHA-256, HMAC, ChaCha20+AEAD,
    RSA, DH, RSA-KEM hybrid encryption, DSA, Shamir secret sharing, a
    deterministic DRBG, and a miniature PKI.
``repro.net``
    Deterministic discrete-event network simulation with adversary
    interception hooks and a miniature TLS.
``repro.storage``
    The three commercial platform models of paper §2 (Azure-like,
    AWS-like, GAE/SDC-like), device shipping, and tampering behaviours.
``repro.bridging``
    The four §3 bridging schemes (TAC x SKS) plus the status-quo
    control.
``repro.core``
    The paper's contribution: the TPNR protocol (Normal / Abort /
    Resolve), evidence (NRO/NRR), TTP, and the dispute Arbitrator.
``repro.baselines``
    The traditional four-step NR protocol (Zhou-Gollmann style) and the
    SSL-only status quo.
``repro.attacks``
    The §5 attack classes and the gauntlet harness.
``repro.analysis``
    Experiment runners for every table/figure and report rendering.
``repro.scenarios``
    The scenario control plane: declarative specs, PT-002 seed
    derivation, content-addressed run keys, and the fail-closed
    benchmark promotion gate.

Quickstart
----------

>>> from repro import make_deployment, run_session, TxStatus
>>> dep = make_deployment(seed=b"quickstart")
>>> outcome = run_session(dep, b"the company financial data")
>>> outcome.upload_status is TxStatus.COMPLETED
True
>>> outcome.download.verified
True
"""

from . import analysis, attacks, baselines, bridging, core, crypto, errors, net, obs, scenarios, storage
from .core import (
    Arbitrator,
    Deployment,
    ProviderBehavior,
    Ruling,
    SessionOutcome,
    TpnrClient,
    TpnrPolicy,
    TpnrProvider,
    TrustedThirdParty,
    TxStatus,
    Verdict,
    dispute_missing_receipt,
    dispute_tampering,
    make_deployment,
    run_abort,
    run_download,
    run_session,
    run_shared_download,
    run_upload,
)
from .errors import ReproError

__version__ = "1.9.0"

__all__ = [
    "analysis",
    "attacks",
    "baselines",
    "bridging",
    "core",
    "crypto",
    "errors",
    "net",
    "obs",
    "scenarios",
    "storage",
    "Arbitrator",
    "Deployment",
    "ProviderBehavior",
    "Ruling",
    "SessionOutcome",
    "TpnrClient",
    "TpnrPolicy",
    "TpnrProvider",
    "TrustedThirdParty",
    "TxStatus",
    "Verdict",
    "dispute_missing_receipt",
    "dispute_tampering",
    "make_deployment",
    "run_abort",
    "run_download",
    "run_session",
    "run_shared_download",
    "run_upload",
    "ReproError",
    "__version__",
]
