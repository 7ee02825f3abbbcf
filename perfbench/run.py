"""Benchmark command for the TPNR reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-classic --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once under :mod:`layertrace` and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it repeat each metric with its unit and report the checks
(signature, batched-evidence reconciliation, error rate), the host
speed probe and the raw wall-clock values behind the rescaled timings
(see :mod:`workloads`).

Tests for the benchmark itself: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("engine-classic", "engine-batched", "store-mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library() -> float:
    """Import the library from this checkout's ``src``; returns seconds."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import repro, repro.engine, repro.replication  # noqa: E401,F401  (IMPORT_STATEMENT)
    elapsed = perf_counter() - started
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    in_process_import = import_library()
    import workloads

    repeats = 1 if args.trace else workloads.SETUP_REPEATS
    imports = workloads.import_samples(str(SRC), in_process_import, repeats)
    report = workloads.RUNNERS[args.workload](
        args.workload, args.seed, args.seconds, bool(args.trace), imports)
    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = [name for name, _ in names if name not in report.metrics]
    report.check(not missing, f"metrics not measured: {missing}")
    metrics = {name: {"value": report.metrics[name][0], "unit": report.metrics[name][1]}
               for name, _ in names if name in report.metrics}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in report.notes:
        print(note)
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate {report.error_rate:.6g} ({report.failed}/{report.attempted})")
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
