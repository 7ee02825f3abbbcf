"""Package-level hygiene: exports, docstrings, error hierarchy."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors

SUBPACKAGES = [
    "repro.analysis",
    "repro.attacks",
    "repro.baselines",
    "repro.bridging",
    "repro.core",
    "repro.crypto",
    "repro.net",
    "repro.storage",
]

MODULES = [
    "repro.analysis.diagram",
    "repro.analysis.experiments",
    "repro.analysis.metrics",
    "repro.analysis.report",
    "repro.analysis.stats",
    "repro.analysis.workload",
    "repro.attacks.harness",
    "repro.attacks.naive",
    "repro.baselines.ssl_only",
    "repro.baselines.zhou_gollmann",
    "repro.bridging.tac",
    "repro.cli",
    "repro.core.archive",
    "repro.core.codec",
    "repro.core.confidential",
    "repro.core.evidence",
    "repro.core.messages",
    "repro.core.protocol",
    "repro.core.transport",
    "repro.crypto.chacha20",
    "repro.crypto.drbg",
    "repro.crypto.dsa",
    "repro.crypto.rsa",
    "repro.crypto.shamir",
    "repro.net.securechannel",
    "repro.net.topology",
    "repro.storage.auditlog",
    "repro.storage.azurelike",
    "repro.storage.gaelike",
    "repro.storage.s3like",
]


class TestExports:
    @pytest.mark.parametrize("name", SUBPACKAGES + MODULES)
    def test_module_importable(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", SUBPACKAGES + MODULES)
    def test_module_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, name

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", []):
            assert hasattr(module, entry), f"{name}.__all__ lists missing {entry!r}"

    def test_top_level_all_resolves(self):
        for entry in repro.__all__:
            assert hasattr(repro, entry)

    def test_version(self):
        assert repro.__version__ == "1.9.0"

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
    def test_version_matches_pyproject(self):
        import tomllib

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as handle:
            assert tomllib.load(handle)["project"]["version"] == repro.__version__

    def test_import_leaves_numpy_and_scipy_unloaded(self):
        code = (
            "import sys\n"
            "import repro, repro.engine, repro.replication\n"
            "print(sorted(m for m in ('networkx', 'numpy', 'scipy') if m in sys.modules))\n"
        )
        src = Path(repro.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.strip() == "[]"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name, obj in inspect.getmembers(errors, inspect.isclass):
            if issubclass(obj, Exception) and obj.__module__ == "repro.errors":
                assert issubclass(obj, errors.ReproError), name

    def test_subsystem_bases(self):
        assert issubclass(errors.SignatureError, errors.CryptoError)
        assert issubclass(errors.HandshakeError, errors.NetworkError)
        assert issubclass(errors.IntegrityError, errors.StorageError)
        assert issubclass(errors.EvidenceError, errors.ProtocolError)
        assert issubclass(errors.ReplayError, errors.ProtocolError)

    def test_one_base_catch_works(self):
        from repro.crypto import rsa
        from repro.crypto.drbg import HmacDrbg

        try:
            rsa.generate_keypair(10, HmacDrbg(b"x"))
        except errors.ReproError:
            pass  # a single except clause covers the library


class TestPublicDocstrings:
    @pytest.mark.parametrize(
        "obj_path",
        [
            "repro.core.protocol.make_deployment",
            "repro.core.protocol.run_session",
            "repro.core.evidence.build_evidence",
            "repro.core.arbitrator.Arbitrator",
            "repro.crypto.rsa.generate_keypair",
            "repro.crypto.shamir.split_secret",
            "repro.net.network.Network",
            "repro.storage.azurelike.AzureLikeService",
            "repro.analysis.workload.run_workload",
        ],
    )
    def test_key_api_documented(self, obj_path):
        module_name, attr = obj_path.rsplit(".", 1)
        obj = getattr(importlib.import_module(module_name), attr)
        assert obj.__doc__ and len(obj.__doc__.strip()) > 10
