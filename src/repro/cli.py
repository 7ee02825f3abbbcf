"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show every reproducible experiment with its paper artifact.
``experiment <id> [--seed S]``
    Run one experiment (T1, F1..F6, S3..S6, W1, R1, A1) and print the
    regenerated table.
``gauntlet [--seed S]``
    Run the §5 attack gauntlet and print the success matrix.
``demo [--seed S]``
    One TPNR session with a tampering provider, through arbitration.
``workload [--clients N] [--transactions M] [--drop P] [--seed S]``
    Drive a multi-client workload and print the outcome summary.
``obs [--seed S] [--dump-dir DIR]``
    Run one observed TPNR session and print (or dump) its telemetry:
    the span tree, the metrics summary, and — with ``--dump-dir`` —
    ``spans.jsonl`` / ``metrics.jsonl`` / ``metrics.prom`` files.
``throughput [--tenants N...] [--baseline M] [--no-caches] [--seed S]``
    Sweep the multi-tenant session engine over tenant counts, print
    wall tx/sec and sim-time latency percentiles per point, and compare
    against the uncached one-deployment-per-transaction baseline.
``scenario list | describe <id> | run <id> [--rep N] [--json] | gate``
    The scenario control plane.  ``list`` shows every registered
    scenario with its content-addressed run key; ``describe`` prints a
    spec's canonical form, run key, and derived seeds; ``run``
    executes a registered scenario (identity-stamped, derived seed);
    ``gate`` re-derives every run key and replays the fail-closed
    eligibility gate over ``BENCH_PERF.json``, exiting non-zero on any
    mismatch.
``forensics [--tamper] [--selftest] [--plans N] [--seed S]``
    Reconstruct one observed session's cross-surface timeline and
    print its dispute dossier (reconstructed verdict cross-checked
    against the Arbitrator); with ``--selftest``, sweep a seeded fault
    sub-campaign and require every failure to be attributed to a
    classified violation with zero false positives.
``slo [--watch] [--profile P] [--plans N] [--seed S]``
    Run a fault campaign with the standard SLOs attached (session
    success, terminal-verdict latency, evidence verification) and
    print the error-budget table plus any multi-window burn-rate
    alerts.  ``--profile`` picks the plan mix (``clean`` or one of the
    ``blackout``/``delay``/``corrupt``/``mixed`` storms); ``--watch``
    renders the live dashboard (per-SLO budget bars, burn rates, top
    offending fault classes) after every plan.  Exit status checks the
    alerting contract: clean runs must stay silent, storms must page.
``replication [--campaign|--migrate] [--plans N] [--replica R] [--seed S]``
    One TPNR session over the replicated three-backend store: a
    replica is tampered mid-session, the read hedges past it, and the
    fork-consistency audit names the culprit.  ``--campaign`` sweeps
    the seeded RP1 replica-fault campaign (every fault masked or
    detected, never silent); ``--migrate`` runs the RP2 live
    s3like→azurelike migration with evidence continuity; ``--profile
    --profile-dir DIR`` profiles the demo session and writes
    ``flamegraph.txt`` / ``profile.jsonl``.
``profile [--flamegraph] [--critical-path] [--check-regression] [...]``
    The deterministic profiler.  Default mode runs the (sharded)
    engine with the region profiler attached and prints the hot
    regions plus shard utilization; ``--flamegraph`` prints the
    collapsed-stack flamegraph instead (``--dump-dir`` writes
    ``flamegraph.txt`` / ``profile.jsonl`` — byte-identical across
    same-seed runs and shard counts with per-message evidence);
    ``--critical-path`` extracts a live observed session's dominant
    stage chain and checks it reconciles with the measured elapsed;
    ``--check-regression`` replays the perf-regression sentinel over
    the committed ``BENCH_PERF.json`` trajectory, exiting non-zero on
    any tx/s drop beyond ``--tolerance``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .analysis.diagram import sequence_diagram
from .analysis.report import render_kv, render_table
from .analysis.workload import WorkloadSpec, run_workload
from .attacks import run_gauntlet, tpnr_defense_holds
from .core import (
    ProviderBehavior,
    Verdict,
    dispute_tampering,
    make_deployment,
    run_download,
    run_session,
    run_upload,
)
from .net.channel import ChannelSpec
from .scenarios import SCENARIOS
from .storage.tamper import TamperMode

__all__ = ["main", "EXPERIMENTS"]

# The scenario registry is the single source of truth; the flat
# id -> (runner, title) view survives for ad-hoc `repro experiment`
# runs with a caller-chosen seed (unregistered, hence unstamped).
EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    scenario.spec.scenario_id: (scenario.runner, scenario.spec.title)
    for scenario in SCENARIOS
}


def _cmd_list(_args: argparse.Namespace) -> int:
    print(render_table(
        ["id", "reproduces"],
        [[key, title] for key, (_, title) in EXPERIMENTS.items()],
        title="Experiments (run with: python -m repro experiment <id>)",
    ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    key = args.id.upper()
    if key not in EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; try 'python -m repro list'",
              file=sys.stderr)
        return 2
    runner, _ = EXPERIMENTS[key]
    result = runner(seed=args.seed.encode())
    print(render_table(result.headers, result.rows,
                       title=f"[{result.experiment_id}] {result.title}"))
    if result.notes:
        print(f"Note: {result.notes}")
    return 0


def _cmd_gauntlet(args: argparse.Namespace) -> int:
    results = run_gauntlet(seed=args.seed.encode())
    print(render_table(
        ["attack", "target", "outcome", "detail"],
        [[r.attack, r.target, "SUCCEEDED" if r.succeeded else "defeated", r.detail[:60]]
         for r in results],
        title="§5 attack gauntlet",
    ))
    holds = tpnr_defense_holds(results)
    print(f"\nTPNR defense holds: {holds}")
    return 0 if holds else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    dep = make_deployment(
        seed=args.seed.encode(),
        behavior=ProviderBehavior(tamper_mode=TamperMode.FIXUP_MD5),
    )
    outcome = run_upload(dep, b"the company financial data " * 16)
    download = run_download(dep, outcome.transaction_id)
    ruling = dispute_tampering(dep, outcome.transaction_id)
    print(render_kv(
        [
            ("transaction", outcome.transaction_id),
            ("upload status", outcome.upload_status.value),
            ("upload messages", outcome.steps),
            ("tampering detected at download", download.tampering_detected),
            ("arbitrator verdict", ruling.verdict.value),
        ],
        title="TPNR demo: upload -> covert tampering -> download -> arbitration",
    ))
    print("\nWire sequence:")
    print(sequence_diagram(dep.network.trace, "tpnr.",
                           participants=[dep.client.name, dep.provider.name, dep.ttp.name]))
    return 0 if ruling.verdict is Verdict.PROVIDER_FAULT else 1


def _cmd_workload(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(n_clients=args.clients, transactions_per_client=args.transactions)
    channel = ChannelSpec(base_latency=0.02, drop_prob=args.drop)
    _, report = run_workload(args.seed.encode(), spec, channel)
    print(render_kv(
        [
            ("clients", spec.n_clients),
            ("transactions", spec.total_transactions),
            ("drop probability", args.drop),
            ("success rate", f"{report.success_rate:.2f}"),
            ("outcomes", str(report.status_counts)),
            ("messages", report.total_messages),
            ("bytes on wire", report.total_bytes),
            ("all terminated", report.all_terminated),
        ],
        title="Workload summary",
    ))
    return 0 if report.all_terminated else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    """One observed TPNR session; exit non-zero unless the telemetry is
    complete (non-empty metrics, valid span JSONL, complete span tree)."""
    import json
    import pathlib

    from .obs.exporters import span_tree_text

    dep = make_deployment(seed=args.seed.encode(), observe=True)
    with dep.obs.observe_crypto():
        outcome = run_session(dep, b"observed session payload " * 16)
    txn = outcome.transaction_id
    spans_text = dep.obs.spans_jsonl()
    metrics_text = dep.obs.metrics_jsonl()
    prom_text = dep.obs.prometheus_text()
    snapshot = dep.obs.metrics.snapshot()
    span_lines = [json.loads(line) for line in spans_text.splitlines()]
    ok = (
        bool(snapshot)
        and bool(span_lines)
        and all("span_id" in d and "trace_id" in d for d in span_lines)
        and dep.obs.tracer.tree_complete(txn)
    )
    print(span_tree_text(dep.obs.tracer, txn))
    print(dep.obs.summary_table(title=f"Metrics (seed={args.seed!r})"))
    print(render_kv(
        [
            ("transaction", txn),
            ("status", outcome.upload_status.value),
            ("spans", len(span_lines)),
            ("tree complete", dep.obs.tracer.tree_complete(txn)),
            ("metric series", len(snapshot)),
            ("telemetry ok", ok),
        ],
        title="Observability check",
    ))
    if args.dump_dir:
        out = pathlib.Path(args.dump_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "spans.jsonl").write_text(spans_text)
        (out / "metrics.jsonl").write_text(metrics_text)
        (out / "metrics.prom").write_text(prom_text)
        print(f"\nwrote spans.jsonl, metrics.jsonl, metrics.prom to {out}/")
    return 0 if ok else 1


def _cmd_forensics(args: argparse.Namespace) -> int:
    """Reconstruct one observed session's cross-surface timeline and
    print the dossier; with ``--selftest``, sweep a seeded fault
    sub-campaign and require total attribution plus verdict agreement."""
    from .net.faults import CampaignRunner, FaultPlan, generate_plans
    from .obs.anomaly import alerts_table

    seed = args.seed.encode()
    if args.selftest:
        plans = [FaultPlan(name="selftest-noop")] + generate_plans(seed, args.plans - 1)
        runner = CampaignRunner(seed=seed, scenario="session", observe=True,
                                forensics=True, slo=True)
        report = runner.run(plans)
        unattributed = sum(
            1 for o in report.outcomes
            if not (o.status in ("completed", "resolved") and o.download_ok)
            and not o.findings
        )
        noop_findings = len(report.outcomes[0].findings)
        ok = unattributed == 0 and noop_findings == 0 and report.hung_sessions == 0
        print(render_kv(
            [
                ("plans", len(report.outcomes)),
                ("statuses", str(report.status_counts())),
                ("finding classes", str(report.finding_categories())),
                ("unattributed failures", unattributed),
                ("no-op plan findings", noop_findings),
                ("alerts", len(report.alerts)),
                ("signature", report.signature()[:16] + "..."),
                ("selftest ok", ok),
            ],
            title=f"Forensics selftest (seed={args.seed!r}, {args.plans} plans)",
        ))
        if report.alerts:
            print()
            print(alerts_table(report.alerts, title="SLO burn-rate alerts"))
        return 0 if ok else 1

    dep = make_deployment(seed=seed, observe=True, durable=True)
    behavior = ProviderBehavior(tamper_mode=TamperMode.FIXUP_MD5) if args.tamper else None
    if behavior is not None:
        dep = make_deployment(seed=seed, observe=True, durable=True, behavior=behavior)
    outcome = run_upload(dep, b"forensic session payload " * 8)
    run_download(dep, outcome.transaction_id)
    dossier = dep.dossier(outcome.transaction_id)
    print(dossier.render(arbitrator=dep.arbitrator, max_rows=args.max_rows))
    return 0 if dossier.agrees(dep.arbitrator, "tampering") else 1


def _cmd_replication(args: argparse.Namespace) -> int:
    """Replicated-store demo, RP1 campaign, or RP2 migration."""
    from .net.faults import generate_replica_plans
    from .replication import ReplicatedStore, ReplicationCampaignRunner, attach_replication

    if args.profile and not args.profile_dir:
        print("repro replication: --profile requires --profile-dir "
              "(nowhere to write flamegraph.txt / profile.jsonl)",
              file=sys.stderr)
        return 2
    if args.profile and (args.campaign or args.migrate):
        print("repro replication: --profile applies to the demo session only "
              "(drop --campaign/--migrate)", file=sys.stderr)
        return 2
    seed = args.seed.encode()
    if args.campaign:
        plans = generate_replica_plans(seed, args.plans)
        report = ReplicationCampaignRunner(seed=seed).run(plans)
        print(report.render())
        ok = (report.silent_faults == 0 and report.violation_count == 0
              and report.clean_plan_findings() == 0)
        print(f"\n{report.injected_faults} faults: {report.masked_faults} masked, "
              f"{report.detected_faults} detected, {report.silent_faults} silent; "
              f"campaign {'ok' if ok else 'FAILED'}")
        return 0 if ok else 1

    if args.migrate:
        from .analysis.experiments import experiment_migration

        result = experiment_migration(seed)
        print(render_table(result.headers, result.rows,
                           title=f"[{result.experiment_id}] {result.title}"))
        ok = bool(result.facts["evidence_chain_survives_migration"])
        print(f"\nevidence chain survives migration: {'yes' if ok else 'NO'}")
        return 0 if ok else 1

    dep = make_deployment(seed=seed, observe=True)
    if args.profile:
        # Before attach: the store picks up the deployment's profiler.
        dep.obs.enable_profiler()
    store = attach_replication(dep, ReplicatedStore(seed=seed + b"/store"))
    outcome = run_upload(dep, b"replicated session payload " * 8)
    txn = outcome.transaction_id
    store.tamper_replica(args.replica, "tpnr-data", txn,
                         b"divergent replica copy")
    result = run_download(dep, txn)
    store.audit()
    culprits = sorted({f.replica for f in store.verifier.error_findings()})
    dossier = dep.dossier(txn)
    print(render_kv(
        [
            ("transaction", txn),
            ("replicas", ", ".join(store.replica_names)),
            ("quorum", store.quorum),
            ("tampered replica", args.replica),
            ("download verified", result.verified),
            ("hedged reads", store.hedged_reads),
            ("read repairs", store.read_repairs),
            ("verifier findings",
             "; ".join(f.describe() for f in store.verifier.error_findings())
             or "none"),
            ("dossier findings",
             "; ".join(str(f) for f in dossier.findings) or "none"),
        ],
        title=f"Replicated TPNR session (seed={args.seed!r})",
    ))
    if args.profile:
        _write_profile_artifacts(dep.obs.profiler, args.profile_dir)
    ok = result.verified and args.replica in culprits
    return 0 if ok else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    """Run a campaign under the standard SLOs; ``--watch`` renders the
    live dashboard per plan.  Exit status enforces the alerting
    contract (clean runs silent, storms paging, nothing hung)."""
    from .net.faults import CampaignRunner, FaultPlan, generate_storm_plans
    from .obs.dashboard import DashboardFrame, render_frame, top_fault_classes

    seed = args.seed.encode()
    if args.profile == "clean":
        plans = [FaultPlan(name=f"s{i:03d}-clean") for i in range(args.plans)]
    else:
        plans = generate_storm_plans(seed, args.plans, profile=args.profile)
    title = f"SLO dashboard — {args.profile} campaign (seed={args.seed!r})"
    # A real terminal gets an in-place refresh; captured output gets
    # one frame per plan, which is also what the CLI tests assert on.
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    outcomes: list = []

    def on_plan(_index: int, outcome) -> None:
        outcomes.append(outcome)
        if not args.watch:
            return
        frame = DashboardFrame(
            title=title,
            now=runner.deployment.sim.now,
            done=len(outcomes),
            total=len(plans),
            statuses=runner.slos.statuses(),
            alerts=list(runner.slos.alerts),
            offenders=top_fault_classes(outcomes),
        )
        print(clear + render_frame(frame))

    runner = CampaignRunner(seed=seed, observe=True, slo=True, on_plan=on_plan)
    report = runner.run(plans)
    slo_report = report.slo
    burn = slo_report.burn_alerts()
    print(slo_report.table(title=title))
    if slo_report.alerts:
        print()
        print(slo_report.alerts_table())
    expect_silent = args.profile == "clean"
    ok = report.hung_sessions == 0 and (
        len(burn) == 0 if expect_silent else len(burn) >= 1)
    print(f"\n{len(plans)} plans, {report.hung_sessions} hung, "
          f"{len(burn)} burn alert(s); contract "
          f"({'silent' if expect_silent else 'pages'}) "
          f"{'holds' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    """The scenario control plane: list/describe/run/gate."""
    import json
    import pathlib

    from .scenarios import PromotionError, audit_file, canonical_result_json

    if args.action == "list":
        print(render_table(
            ["id", "root seed", "reps", "stages", "run_key"],
            [[s.spec.scenario_id, s.spec.root_seed, s.spec.repetitions,
              ",".join(s.spec.stages) or "-", s.run_key()[:16] + "..."]
             for s in SCENARIOS],
            title="Registered scenarios (run with: python -m repro scenario run <id>)",
        ))
        return 0

    if args.action == "describe":
        scenario = SCENARIOS.get(args.id)
        print(json.dumps(scenario.describe(), indent=2, sort_keys=True))
        return 0

    if args.action == "run":
        scenario = SCENARIOS.get(args.id)
        result = scenario.run(repetition=args.rep)
        if args.json:
            print(canonical_result_json(result, scenario.spec))
        else:
            print(render_table(result.headers, result.rows,
                               title=f"[{result.experiment_id}] {result.title}"))
            if result.notes:
                print(f"Note: {result.notes}")
            print(render_kv(
                [
                    ("run_key", result.meta["run_key"]),
                    ("seed", result.meta["seed"]),
                    ("repetition", result.meta["repetition"]),
                    ("seed scheme", result.meta["seed_scheme"]),
                ],
                title="Run identity",
            ))
        return 0

    # gate: re-derive every run key, then replay eligibility over the
    # recorded trajectory.  Fail-closed — any mismatch is exit 1.
    path = pathlib.Path(args.results) / "BENCH_PERF.json"
    derived = [[s.spec.scenario_id, s.run_key()[:16] + "...",
                s.seed("experiment", 0).decode("latin-1")]
               for s in SCENARIOS]
    print(render_table(["scenario", "run_key (re-derived)", "rep-0 seed"],
                       derived, title="Run-key derivation sweep"))
    try:
        reports = audit_file(path)
    except PromotionError as exc:
        print(f"\nGATE FAILED: {exc}", file=sys.stderr)
        return 1
    rows = [[r["experiment_id"], r["status"],
             ", ".join(r.get("checked", [])) or "-"] for r in reports]
    print()
    print(render_table(["point", "status", "checks replayed"], rows,
                       title=f"Eligibility replay over {path}"))
    accepted = sum(1 for r in reports if r["status"] == "accepted")
    legacy = sum(1 for r in reports if r["status"] == "legacy-pre-gate")
    print(f"\n{len(reports)} points: {accepted} accepted, {legacy} legacy-pre-gate; "
          "gate holds")
    return 0


def _write_profile_artifacts(profile, dump_dir: str, suffix: str = "") -> None:
    """Write ``flamegraph{suffix}.txt`` / ``profile{suffix}.jsonl``."""
    import pathlib

    from .obs.profiler import flamegraph_text, profile_jsonl

    out = pathlib.Path(dump_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"flamegraph{suffix}.txt").write_text(flamegraph_text(profile))
    (out / f"profile{suffix}.jsonl").write_text(profile_jsonl(profile))
    print(f"wrote flamegraph{suffix}.txt, profile{suffix}.jsonl to {out}/")


def _cmd_throughput(args: argparse.Namespace) -> int:
    """Sweep the session engine and compare against the baseline."""
    from .engine import TenantDirectory, run_baseline, run_pool

    shards = args.shards
    batch_size = args.batch_size
    if shards < 1:
        print(f"repro throughput: --shards must be >= 1 (got {shards})",
              file=sys.stderr)
        return 2
    if batch_size is not None and batch_size < 1:
        print(f"repro throughput: --batch-size must be >= 1 (got {batch_size})",
              file=sys.stderr)
        return 2
    if args.profile and not args.profile_dir:
        print("repro throughput: --profile requires --profile-dir "
              "(nowhere to write flamegraph.txt / profile.jsonl)",
              file=sys.stderr)
        return 2
    seed = args.seed.encode()
    tenant_counts = tuple(args.tenants)
    use_caches = not args.no_caches
    directory = TenantDirectory(seed)
    directory.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(max(tenant_counts))]])
    rows = []
    all_ok = True
    for n in tenant_counts:
        result = run_pool(seed, n, directory=directory, use_caches=use_caches,
                          shards=shards, batch_size=batch_size,
                          profile=args.profile)
        if args.profile and result.profile is not None:
            _write_profile_artifacts(result.profile, args.profile_dir,
                                     suffix=f"-{n:04d}")
        stats = result.cache_stats or {}
        verify = stats.get("verify", {})
        all_ok = all_ok and result.completed == result.verified == len(result.sessions)
        batches = (result.batch_stats or {}).get("batches", 0)
        rows.append([
            n, result.completed, result.verified,
            f"{result.tx_per_sec:.1f}",
            f"{result.p50_latency:.4f}", f"{result.p99_latency:.4f}",
            f"{float(verify.get('hit_rate', 0.0)):.3f}",
            batches,
        ])
    print(render_table(
        ["tenants", "completed", "verified", "tx/sec (wall)",
         "p50 (sim s)", "p99 (sim s)", "verify-cache hit rate", "batches"],
        rows,
        title=f"Throughput sweep (caches {'on' if use_caches else 'off'}, "
        f"shards={shards}, batch={batch_size if batch_size else 'off'}, "
        f"seed={args.seed!r})",
    ))
    if args.baseline > 0:
        baseline = run_baseline(seed, args.baseline)
        print(render_kv(
            [
                ("baseline transactions", baseline.transactions),
                ("baseline tx/sec (wall)", f"{baseline.tx_per_sec:.2f}"),
                ("note", "one fresh uncached deployment per transaction"),
            ],
            title="Sequential baseline",
        ))
    return 0 if all_ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Deterministic profiler: flamegraph / critical path / sentinel."""
    from .obs.profiler import (
        critical_path,
        flamegraph_text,
        shard_utilization,
        top_regions,
    )

    if args.shards < 1:
        print(f"repro profile: --shards must be >= 1 (got {args.shards})",
              file=sys.stderr)
        return 2
    if args.batch_size is not None and args.batch_size < 1:
        print(f"repro profile: --batch-size must be >= 1 (got {args.batch_size})",
              file=sys.stderr)
        return 2
    if not 0.0 <= args.tolerance < 1.0:
        print(f"repro profile: --tolerance must be in [0, 1) (got {args.tolerance})",
              file=sys.stderr)
        return 2
    seed = args.seed.encode()

    if args.check_regression:
        import pathlib

        from .scenarios import RegressionError, audit_trajectory

        path = pathlib.Path(args.results) / "BENCH_PERF.json"
        if not path.exists():
            print(f"repro profile: no trajectory file at {path}", file=sys.stderr)
            return 2
        try:
            reports = audit_trajectory(path, tolerance=args.tolerance)
        except RegressionError as exc:
            print(f"REGRESSION: {exc}", file=sys.stderr)
            return 1
        rows = []
        for r in reports:
            if "series" in r:
                exp, stage, kind, coords = r["series"]
                label = f"{exp}/{stage}/{kind} {dict(coords)}"
            else:
                label = str(r.get("experiment_id", "-"))
            rows.append([label, r["status"],
                         r.get("tx_per_sec", "-"), r.get("best_prior", "-")])
        print(render_table(
            ["series", "status", "tx/sec", "best prior"], rows,
            title=f"Sentinel replay over {path} (tolerance {args.tolerance:.0%})",
        ))
        print(f"\n{len(rows)} series checked; no regression beyond tolerance")
        return 0

    if args.critical_path:
        from .net.channel import WAN
        from .obs.exporters import span_tree_text

        dep = make_deployment(seed=seed + b"/critical", observe=True, channel=WAN)
        outcome = run_session(dep, b"profiled critical-path payload " * 8)
        txn = outcome.transaction_id
        path = critical_path(dep.obs.tracer, txn)
        if path is None or not path.stages:
            print("repro profile: the session produced no span tree",
                  file=sys.stderr)
            return 1
        print(span_tree_text(dep.obs.tracer, txn))
        print(render_table(
            ["stage", "start (sim s)", "end (sim s)", "self (sim s)"],
            path.rows(),
            title=f"Critical path of {txn}",
        ))
        print(render_kv(
            [
                ("dominant stage", path.dominant().name),
                ("path length (sim s)", f"{path.length:.6f}"),
                ("measured elapsed (sim s)", f"{path.total:.6f}"),
                ("reconciles", path.reconciles()),
            ],
            title="Critical-path accounting",
        ))
        return 0 if path.reconciles() else 1

    from .engine import TenantDirectory, run_pool

    directory = TenantDirectory(seed)
    directory.warm(["bob", "ttp",
                    *[f"tenant-{i:04d}" for i in range(args.tenants)]])
    result = run_pool(seed, args.tenants, directory=directory,
                      shards=args.shards, batch_size=args.batch_size,
                      profile=True)
    profile = result.profile
    if args.flamegraph:
        print(flamegraph_text(profile), end="")
    else:
        print(render_table(
            ["region", "calls", "self sim (s)"],
            [list(row) for row in top_regions(profile, k=args.top)],
            title=f"Hot regions ({args.tenants} tenants, {args.shards} "
            f"shard(s), batch={args.batch_size if args.batch_size else 'off'})",
        ))
        if result.shard_summaries:
            util = shard_utilization(result.shard_summaries)
            print(render_kv(
                sorted(util.items()),
                title="Shard utilization (wall-derived, nondeterministic)",
            ))
    if args.dump_dir:
        _write_profile_artifacts(profile, args.dump_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the ICPP/SCC 2010 cloud non-repudiation paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible experiments").set_defaults(
        func=_cmd_list
    )

    p_exp = sub.add_parser("experiment", help="run one experiment by id")
    p_exp.add_argument("id", help="experiment id, e.g. F5 or S4")
    p_exp.add_argument("--seed", default="cli", help="determinism seed")
    p_exp.set_defaults(func=_cmd_experiment)

    p_g = sub.add_parser("gauntlet", help="run the §5 attack gauntlet")
    p_g.add_argument("--seed", default="cli", help="determinism seed")
    p_g.set_defaults(func=_cmd_gauntlet)

    p_d = sub.add_parser("demo", help="tamper-detect-arbitrate demo")
    p_d.add_argument("--seed", default="cli", help="determinism seed")
    p_d.set_defaults(func=_cmd_demo)

    p_w = sub.add_parser("workload", help="run a multi-client workload")
    p_w.add_argument("--clients", type=int, default=4)
    p_w.add_argument("--transactions", type=int, default=5)
    p_w.add_argument("--drop", type=float, default=0.0)
    p_w.add_argument("--seed", default="cli", help="determinism seed")
    p_w.set_defaults(func=_cmd_workload)

    p_o = sub.add_parser("obs", help="run one observed session, dump telemetry")
    p_o.add_argument("--seed", default="cli", help="determinism seed")
    p_o.add_argument("--dump-dir", default="",
                     help="directory for spans.jsonl / metrics.jsonl / metrics.prom")
    p_o.set_defaults(func=_cmd_obs)

    p_f = sub.add_parser("forensics",
                         help="reconstruct a session timeline / audit a campaign")
    p_f.add_argument("--seed", default="cli", help="determinism seed")
    p_f.add_argument("--tamper", action="store_true",
                     help="use a covertly tampering provider")
    p_f.add_argument("--max-rows", type=int, default=40,
                     help="timeline rows to print in the dossier")
    p_f.add_argument("--selftest", action="store_true",
                     help="run a seeded fault sub-campaign and require "
                     "total attribution with zero false positives")
    p_f.add_argument("--plans", type=int, default=25,
                     help="sub-campaign size for --selftest")
    p_f.set_defaults(func=_cmd_forensics)

    p_r = sub.add_parser("replication",
                         help="replicated-store session / RP1 campaign / RP2 migration")
    p_r.add_argument("--seed", default="cli", help="determinism seed")
    p_r.add_argument("--campaign", action="store_true",
                     help="sweep the seeded replica-fault campaign (RP1)")
    p_r.add_argument("--plans", type=int, default=30,
                     help="campaign size for --campaign")
    p_r.add_argument("--migrate", action="store_true",
                     help="run the live-migration evidence-continuity demo (RP2)")
    p_r.add_argument("--replica", default="s3like",
                     choices=["s3like", "azurelike", "gaelike"],
                     help="replica to tamper in the demo")
    p_r.add_argument("--profile", action="store_true",
                     help="attach the region profiler to the demo session "
                     "(requires --profile-dir)")
    p_r.add_argument("--profile-dir", default="",
                     help="directory for flamegraph.txt / profile.jsonl")
    p_r.set_defaults(func=_cmd_replication)

    p_sl = sub.add_parser("slo",
                          help="campaign under SLOs with a live dashboard")
    p_sl.add_argument("--seed", default="cli", help="determinism seed")
    p_sl.add_argument("--profile", default="mixed",
                      choices=["clean", "blackout", "delay", "corrupt", "mixed"],
                      help="plan mix: clean control or a storm profile")
    p_sl.add_argument("--plans", type=int, default=12, help="campaign size")
    p_sl.add_argument("--watch", action="store_true",
                      help="render the live dashboard after every plan")
    p_sl.set_defaults(func=_cmd_slo)

    p_t = sub.add_parser("throughput", help="sweep the multi-tenant session engine")
    p_t.add_argument("--tenants", type=int, nargs="+", default=[1, 10, 50],
                     help="tenant counts to sweep")
    p_t.add_argument("--baseline", type=int, default=5,
                     help="sequential-baseline transaction count (0 to skip)")
    p_t.add_argument("--no-caches", action="store_true",
                     help="disable the crypto caches (signature/KEM)")
    p_t.add_argument("--shards", type=int, default=1,
                     help="engine worker shards (>= 1; merged result is "
                     "signature-identical at any count)")
    p_t.add_argument("--batch-size", type=int, default=None,
                     help="Merkle-batch evidence: leaves per RSA signature "
                     "(>= 1; omit for classic per-message signatures)")
    p_t.add_argument("--profile", action="store_true",
                     help="attach the region profiler to every sweep point "
                     "(requires --profile-dir)")
    p_t.add_argument("--profile-dir", default="",
                     help="directory for per-point flamegraph-<n>.txt / "
                     "profile-<n>.jsonl")
    p_t.add_argument("--seed", default="cli", help="determinism seed")
    p_t.set_defaults(func=_cmd_throughput)

    p_p = sub.add_parser("profile",
                         help="deterministic profiler: flamegraph / "
                         "critical path / regression sentinel")
    p_p.add_argument("--seed", default="cli", help="determinism seed")
    p_p.add_argument("--tenants", type=int, default=8,
                     help="engine tenants for the profiled run")
    p_p.add_argument("--shards", type=int, default=4,
                     help="engine worker shards (>= 1)")
    p_p.add_argument("--batch-size", type=int, default=None,
                     help="Merkle-batch evidence leaves per signature "
                     "(omit for per-message; artifacts are shard-invariant "
                     "only with per-message evidence)")
    p_p.add_argument("--top", type=int, default=10,
                     help="hot regions to print in the default mode")
    p_p.add_argument("--flamegraph", action="store_true",
                     help="print the collapsed-stack flamegraph "
                     "(folded format, call-weighted, deterministic)")
    p_p.add_argument("--critical-path", action="store_true",
                     help="extract one observed session's critical path "
                     "and check the self-time accounting reconciles")
    p_p.add_argument("--check-regression", action="store_true",
                     help="replay the perf-regression sentinel over the "
                     "committed BENCH_PERF.json trajectory")
    p_p.add_argument("--results", default="benchmarks/results",
                     help="directory holding BENCH_PERF.json "
                     "(--check-regression)")
    p_p.add_argument("--tolerance", type=float, default=0.15,
                     help="max fractional tx/s drop vs the best prior "
                     "point (--check-regression)")
    p_p.add_argument("--dump-dir", default="",
                     help="write flamegraph.txt / profile.jsonl here")
    p_p.set_defaults(func=_cmd_profile)

    p_s = sub.add_parser("scenario",
                         help="scenario control plane: list/describe/run/gate")
    s_sub = p_s.add_subparsers(dest="action", required=True)
    s_sub.add_parser("list", help="list registered scenarios with run keys")
    p_sd = s_sub.add_parser("describe", help="canonical spec + derived seeds")
    p_sd.add_argument("id", help="scenario id, e.g. FC1")
    p_sr = s_sub.add_parser("run", help="run a registered scenario")
    p_sr.add_argument("id", help="scenario id, e.g. FC1")
    p_sr.add_argument("--rep", type=int, default=0,
                      help="repetition index (PT-002 derived seed)")
    p_sr.add_argument("--json", action="store_true",
                      help="print the canonical result JSON instead of the table")
    p_sg = s_sub.add_parser("gate",
                            help="re-derive run keys + replay the promotion gate")
    p_sg.add_argument("--results", default="benchmarks/results",
                      help="directory holding BENCH_PERF.json")
    p_s.set_defaults(func=_cmd_scenario)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
