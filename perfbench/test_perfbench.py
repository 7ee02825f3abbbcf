"""Tests for the benchmark itself, at tiny sizes.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
run.import_library()
import workloads  # noqa: E402  (needs the library on sys.path)


TINY = {
    "engine-classic": workloads.EngineShape(3, 1, None, 1),
    "engine-batched": workloads.EngineShape(4, 4, 4, 2),
    "store-mixed": workloads.StoreShape(keys=20, operations=300),
}


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "SHAPES", TINY)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def bench(capsys, workload: str, trace: int) -> tuple[dict, str]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(capsys, workload, trace):
    result, out = bench(capsys, workload, trace)
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for metric in named:
        assert f"\n{metric['name']} " in out
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "error_rate 0 " in out


def test_spec_matches_the_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.RUNNERS) == set(workloads.SHAPES)
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in workloads.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in workloads.PER_LAYER]


def test_trace_cross_checks_and_predictions(capsys):
    classic, out_classic = bench(capsys, "engine-classic", 1)
    batched, out_batched = bench(capsys, "engine-batched", 1)
    assert classic["correct"] and batched["correct"]
    assert classic["metrics"]["crypto.merkle.build.calls"]["value"] == 0
    assert batched["metrics"]["crypto.aead.calls"]["value"] == 0
    assert "prediction merkle calls = 0 on per-message evidence: holds" in out_classic
    assert "prediction aead calls = 0 on batched evidence: holds" in out_batched
    assert "hmac_digest patched in 13 modules" in out_batched


def test_tampered_replica_raises_error_rate(capsys, monkeypatch):
    preloaded = workloads.preloaded_store

    def tampered(seed, keys, preload, probe=None):
        store, spent = preloaded(seed, keys, preload, probe)
        for key in keys:
            store.tamper_replica(store.replica_names[0], workloads.CONTAINER, key,
                                 b"tampered", forge_attestation=True)
        return store, spent

    monkeypatch.setattr(workloads, "preloaded_store", tampered)
    result, out = bench(capsys, "store-mixed", 0)
    assert result["failed"] > 0 and result["correct"] is False
    assert "CHECK FAILED: verifier findings" in out


def test_failed_session_raises_error_rate(capsys, monkeypatch):
    run_pool = workloads.run_pool

    def failing(*args, **kwargs):
        result = run_pool(*args, **kwargs)
        result.sessions[0].download_verified = False
        return result

    monkeypatch.setattr(workloads, "run_pool", failing)
    result, out = bench(capsys, "engine-classic", 0)
    assert result["failed"] > 0 and result["correct"] is False
    assert "error_rate 0 " not in out


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "store-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
