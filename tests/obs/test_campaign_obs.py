"""Per-fault-class campaign telemetry, and its neutrality.

The breakdown must aggregate correctly on synthetic reports, render in
:meth:`CampaignReport.render`, mirror into a registry — and, critically,
observing a campaign must not change its outcome signature.
"""

from repro.net.faults import (
    CampaignOutcome,
    CampaignReport,
    CampaignRunner,
    CrashWindow,
    FaultAction,
    FaultPlan,
    FaultRule,
    generate_plans,
    generate_storm_plans,
)
from repro.obs.campaign import (
    breakdown_table,
    class_breakdown,
    fault_class,
    record_campaign_metrics,
)
from repro.obs.metrics import MetricsRegistry


def rule(action: FaultAction) -> FaultRule:
    return FaultRule(action=action, kind="tpnr.")


def outcome(index: int, plan: FaultPlan, **overrides) -> CampaignOutcome:
    base = dict(
        index=index, plan=plan, status="STORED", detail="-", ttp_involved=False,
        steps=2, faults_fired=0, retransmits=0, duplicates_suppressed=0,
        download_ok=True,
    )
    base.update(overrides)
    return CampaignOutcome(**base)


class TestFaultClass:
    def test_plan_shapes_classify(self):
        assert fault_class(FaultPlan(name="noop")) == "none"
        assert fault_class(FaultPlan(name="d", rules=(rule(FaultAction.DROP),))) == "drop"
        assert fault_class(
            FaultPlan(name="c", rules=(rule(FaultAction.DROP), rule(FaultAction.DELAY)))
        ) == "compound"

    def test_crash_windows_dominate(self):
        plain = FaultPlan(name="c", crashes=(CrashWindow("alice", 0.0, 1.0),))
        amnesia = FaultPlan(
            name="a", crashes=(CrashWindow("alice", 0.0, 1.0, amnesia=True),)
        )
        mixed = FaultPlan(
            name="m",
            rules=(rule(FaultAction.DROP),),
            crashes=(CrashWindow("alice", 0.0, 1.0, amnesia=True),),
        )
        assert fault_class(plain) == "crash"
        assert fault_class(amnesia) == "amnesia"
        assert fault_class(mixed) == "amnesia+rules"

    def test_compound_crash_plus_rules_branches(self):
        # Both compound crash branches: a plain-crash window plus wire
        # rules, and the amnesia variant; the crash kind wins the prefix
        # and the rules add the "+rules" suffix regardless of how many.
        crash_rules = FaultPlan(
            name="cr",
            rules=(rule(FaultAction.DROP), rule(FaultAction.DELAY)),
            crashes=(CrashWindow("bob", 0.0, 1.0),),
        )
        amnesia_rules = FaultPlan(
            name="ar",
            rules=(rule(FaultAction.CORRUPT),),
            crashes=(CrashWindow("bob", 0.0, 1.0, amnesia=True),),
        )
        both_windows = FaultPlan(
            name="bw",
            rules=(rule(FaultAction.DROP),),
            crashes=(CrashWindow("bob", 0.0, 1.0),
                     CrashWindow("alice", 2.0, 1.0, amnesia=True)),
        )
        assert fault_class(crash_rules) == "crash+rules"
        assert fault_class(amnesia_rules) == "amnesia+rules"
        # Any amnesia window makes the whole plan an amnesia plan.
        assert fault_class(both_windows) == "amnesia+rules"


class TestClassBreakdown:
    def make_report(self) -> CampaignReport:
        drop = FaultPlan(name="drop-1", rules=(rule(FaultAction.DROP),))
        amnesia = FaultPlan(
            name="amn-1", crashes=(CrashWindow("alice", 0.0, 1.0, amnesia=True),)
        )
        crash_rules = FaultPlan(
            name="cr-1",
            rules=(rule(FaultAction.DELAY),),
            crashes=(CrashWindow("bob", 0.0, 1.0),),
        )
        report = CampaignReport(seed="s", scenario="upload")
        report.outcomes = [
            outcome(0, drop, retransmits=2, elapsed=4.0),
            outcome(1, drop, status="FAILED", ttp_involved=True,
                    retransmits=3, elapsed=8.0, violations=("v1",)),
            outcome(2, amnesia, recoveries=1, wal_replayed=5, elapsed=6.0),
            outcome(3, crash_rules, retransmits=1, recoveries=1, elapsed=9.0),
        ]
        return report

    def test_aggregates_per_class(self):
        rows = class_breakdown(self.make_report())
        assert [r["fault_class"] for r in rows] == ["amnesia", "crash+rules", "drop"]
        amnesia, crash_rules, drop = rows
        assert drop["plans"] == 2
        assert drop["statuses"] == {"FAILED": 1, "STORED": 1}
        assert drop["retries"] == 5
        assert drop["retries_mean"] == 2.5
        assert drop["escalated"] == 1
        assert drop["escalation_rate"] == 0.5
        assert drop["violations"] == 1
        assert drop["elapsed_mean"] == 6.0
        assert drop["latency"].count == 2
        assert amnesia["recoveries"] == 1
        assert amnesia["wal_replayed"] == 5
        assert crash_rules["plans"] == 1
        assert crash_rules["retries"] == 1
        assert crash_rules["recoveries"] == 1

    def test_breakdown_table_renders_classes(self):
        text = breakdown_table(self.make_report())
        assert "Per-fault-class breakdown" in text
        assert "drop" in text and "amnesia" in text
        assert "crash+rules" in text
        assert "FAILED:1 STORED:1" in text

    def test_record_campaign_metrics_mirrors_breakdown(self):
        reg = MetricsRegistry()
        record_campaign_metrics(self.make_report(), reg)
        assert reg.counter("campaign.plans", fault_class="drop").value == 2
        assert reg.counter("campaign.retries", fault_class="drop").value == 5
        assert reg.counter("campaign.escalations", fault_class="drop").value == 1
        assert reg.counter("campaign.wal_replayed", fault_class="amnesia").value == 5
        hist = reg.histogram("campaign.latency_seconds", fault_class="drop")
        assert hist.count == 2
        assert hist.sum == 12.0


class TestObservedCampaigns:
    def test_observation_does_not_change_the_signature(self):
        plans = generate_plans(b"obs-parity", 4)
        plain = CampaignRunner(seed=b"obs-parity").run(plans)
        observed = CampaignRunner(seed=b"obs-parity", observe=True).run(plans)
        assert plain.signature() == observed.signature()

    def test_observed_run_populates_telemetry_fields_and_render(self):
        plans = generate_plans(b"obs-fields", 3)
        runner = CampaignRunner(seed=b"obs-fields", observe=True)
        report = runner.run(plans)
        assert runner.deployment is not None
        assert all(o.elapsed > 0 for o in report.outcomes)
        assert "Per-fault-class breakdown" in report.render()
        assert len(runner.deployment.obs.metrics.snapshot()) > 0


class TestForensicCampaigns:
    def test_forensics_attributes_every_failed_outcome(self):
        plans = [FaultPlan(name="clean-noop")] + generate_plans(b"fr-attr", 8)
        runner = CampaignRunner(seed=b"fr-attr", scenario="session",
                                observe=True, forensics=True)
        report = runner.run(plans)
        for o in report.outcomes:
            delivered = (o.status in ("completed", "resolved")
                         and o.download_ok)
            if not delivered:
                assert o.findings, (
                    f"plan {o.plan.name} failed with no classified finding"
                )
        assert report.outcomes[0].findings == ()  # no-op plan: no false positives
        assert report.finding_count == sum(len(o.findings) for o in report.outcomes)
        assert set(report.finding_categories()) <= {
            "message-loss", "message-corruption", "message-delay",
            "duplicate-injection", "amnesia-rollback", "crash-outage",
            "in-storage-tampering", "trace-gap",
        }

    def test_forensics_and_alerts_do_not_change_the_signature(self):
        plans = generate_plans(b"fr-parity", 5)
        plain = CampaignRunner(seed=b"fr-parity", observe=True).run(plans)
        forensic = CampaignRunner(seed=b"fr-parity", observe=True,
                                  forensics=True, slo=True).run(plans)
        assert plain.signature() == forensic.signature()

    def test_slo_alerts_are_deterministic(self):
        plans = generate_storm_plans(b"fr-alerts", 10, profile="mixed")

        def run():
            report = CampaignRunner(seed=b"fr-alerts", scenario="session",
                                    observe=True, forensics=True,
                                    slo=True).run(plans)
            return [a.row() for a in report.alerts]

        first = run()
        assert first  # the storm pages, so the comparison is not vacuous
        assert run() == first
