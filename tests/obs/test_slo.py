"""SLOs: SLIs, error budgets, multi-window burn alerts, reports.

Acceptance bar (ISSUE 8 tentpole): declarative SLOSpecs bound to
counter/histogram/sketch SLIs, error-budget accounting, Google-SRE
multi-window multi-burn-rate alerting on the existing BurnRateDetector,
and RunStamp-stamped reports exported via JSONL / summary table /
mirrored ``slo.*`` gauges.
"""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    BurnWindow,
    CounterRatioSLI,
    HistogramThresholdSLI,
    SketchThresholdSLI,
    SLOManager,
    SLOSpec,
    slo_jsonl,
    standard_campaign_slos,
    standard_replication_slos,
)


def manager(**kwargs) -> SLOManager:
    clock = {"t": 0.0}
    reg = MetricsRegistry(clock=lambda: clock["t"])
    mgr = SLOManager(reg, clock=lambda: clock["t"])
    mgr._test_clock = clock  # test handle to advance sim time
    return mgr


def ratio_spec(mgr, name="availability", objective=0.9, **spec_kwargs) -> SLOSpec:
    return mgr.add(SLOSpec(
        name, objective=objective,
        sli=CounterRatioSLI(
            mgr.metrics, ("requests", {"outcome": "ok"}),
            ("requests", {"outcome": "bad"})),
        **spec_kwargs))


class TestSLIs:
    def test_counter_ratio_reads_both_series(self):
        reg = MetricsRegistry()
        sli = CounterRatioSLI(reg, ("r", {"outcome": "ok"}), ("r", {"outcome": "bad"}))
        reg.counter("r", outcome="ok").inc(7)
        reg.counter("r", outcome="bad").inc(3)
        assert (sli.good(), sli.bad()) == (7.0, 3.0)
        assert "counter-ratio" in sli.describe()

    def test_counter_ratio_accepts_bare_names(self):
        reg = MetricsRegistry()
        sli = CounterRatioSLI(reg, "hits", "misses")
        reg.counter("hits").inc(2)
        assert sli.good() == 2.0 and sli.bad() == 0.0

    def test_histogram_threshold_counts_cumulative_at_bound(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 5.0))
        for v in (0.5, 0.9, 3.0, 30.0):
            hist.observe(v)
        sli = HistogramThresholdSLI(reg, "lat", 1.0)
        assert sli.good() == 2.0
        assert sli.bad() == 2.0

    def test_histogram_threshold_must_be_a_bucket_bound(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1.0, 5.0)).observe(0.5)
        with pytest.raises(ValueError):
            HistogramThresholdSLI(reg, "lat", 2.5).good()

    def test_sketch_threshold_uses_count_le(self):
        reg = MetricsRegistry()
        sketch = reg.sketch("lat")
        for v in (0.5, 0.6, 9.0):
            sketch.observe(v)
        sli = SketchThresholdSLI(reg, "lat", 1.0)
        assert sli.good() == 2.0
        assert sli.bad() == 1.0


class TestSpecValidation:
    def test_objective_must_be_a_proper_fraction(self):
        reg = MetricsRegistry()
        sli = CounterRatioSLI(reg, "g", "b")
        for objective in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                SLOSpec("x", objective=objective, sli=sli)

    def test_duplicate_slo_name_rejected(self):
        mgr = manager()
        ratio_spec(mgr)
        with pytest.raises(ValueError):
            ratio_spec(mgr)

    def test_default_windows_are_fast_and_slow(self):
        assert [w.label for w in DEFAULT_BURN_WINDOWS] == ["fast", "slow"]
        fast, slow = DEFAULT_BURN_WINDOWS
        assert fast.window < slow.window
        assert fast.threshold > slow.threshold


class TestBurnAlerting:
    def drive(self, mgr, good_per_poll, bad_per_poll, polls=6):
        ok = mgr.metrics.counter("requests", outcome="ok")
        bad = mgr.metrics.counter("requests", outcome="bad")
        fresh = []
        for _ in range(polls):
            mgr._test_clock["t"] += 1.0
            ok.inc(good_per_poll)
            bad.inc(bad_per_poll)
            fresh.extend(mgr.poll())
        return fresh

    def test_clean_traffic_fires_nothing(self):
        mgr = manager()
        ratio_spec(mgr)
        assert self.drive(mgr, good_per_poll=5, bad_per_poll=0) == []
        assert mgr.statuses()[0].budget_remaining == 1.0

    def test_storm_fires_both_windows_edge_triggered(self):
        mgr = manager()
        ratio_spec(mgr)  # objective 0.9: all-bad burn = 10x
        fired = self.drive(mgr, good_per_poll=0, bad_per_poll=5, polls=20)
        detectors = {a.detector for a in fired}
        assert detectors == {
            "slo-burn:availability:fast", "slo-burn:availability:slow"}
        # Edge-triggered: one alert per window despite 20 violating polls.
        assert len(fired) == 2
        status = mgr.statuses()[0]
        assert status.alerts == 2
        assert status.budget_remaining == 0.0
        assert status.burn_rates["fast"] == pytest.approx(10.0)

    def test_slow_leak_pages_only_the_slow_window(self):
        mgr = manager()
        # 1 bad in 5 => 20% failures; objective 0.9 => burn 2x: at the
        # slow threshold (2.0) but under the fast one (8.0).
        ratio_spec(mgr)
        fired = self.drive(mgr, good_per_poll=4, bad_per_poll=1, polls=20)
        assert {a.detector for a in fired} == {"slo-burn:availability:slow"}

    def test_min_events_suppresses_thin_traffic(self):
        mgr = manager()
        ratio_spec(mgr, min_events=100.0)
        assert self.drive(mgr, good_per_poll=0, bad_per_poll=5, polls=4) == []

    def test_custom_windows(self):
        mgr = manager()
        ratio_spec(mgr, burn_windows=(BurnWindow("only", 2, 4.0),))
        fired = self.drive(mgr, good_per_poll=0, bad_per_poll=5, polls=4)
        assert {a.detector for a in fired} == {"slo-burn:availability:only"}


class TestStatusAccounting:
    def test_budget_math(self):
        mgr = manager()
        ratio_spec(mgr)  # objective 0.9 => budget 0.1
        mgr.metrics.counter("requests", outcome="ok").inc(95)
        mgr.metrics.counter("requests", outcome="bad").inc(5)
        status = mgr.statuses()[0]
        assert status.sli == pytest.approx(0.95)
        # 5 bad of 100 with a 10-event budget: half the budget burnt.
        assert status.budget_consumed == pytest.approx(0.5)
        assert status.budget_remaining == pytest.approx(0.5)
        assert status.total == 100.0

    def test_empty_traffic_is_a_full_budget(self):
        mgr = manager()
        ratio_spec(mgr)
        status = mgr.statuses()[0]
        assert status.sli == 1.0
        assert status.budget_remaining == 1.0

    def test_overdrawn_budget_clamps_to_zero(self):
        mgr = manager()
        ratio_spec(mgr)
        mgr.metrics.counter("requests", outcome="bad").inc(50)
        assert mgr.statuses()[0].budget_remaining == 0.0

    def test_poll_mirrors_slo_gauges_into_the_registry(self):
        mgr = manager()
        ratio_spec(mgr)
        mgr.metrics.counter("requests", outcome="ok").inc(9)
        mgr.metrics.counter("requests", outcome="bad").inc(1)
        mgr.poll()
        reg = mgr.metrics
        assert reg.gauge("slo.sli", slo="availability").value == pytest.approx(0.9)
        assert reg.gauge("slo.budget_remaining", slo="availability").value == 0.0
        assert reg.gauge("slo.alerts", slo="availability").value == 0.0
        names = {r["name"] for r in reg.snapshot()}
        assert "slo.burn_rate" in names


class TestReport:
    def storm_report(self):
        mgr = manager()
        ratio_spec(mgr)
        bad = mgr.metrics.counter("requests", outcome="bad")
        for _ in range(6):
            mgr._test_clock["t"] += 1.0
            bad.inc(5)
            mgr.poll()
        return mgr.report(note="unit")

    def test_report_contents_and_alert_filter(self):
        report = self.storm_report()
        assert report.at == 6.0
        assert report.meta["note"] == "unit"
        assert report.meta["polls"] == 6
        assert len(report.burn_alerts()) == 2
        assert report.alert_counts() == {
            "slo-burn:availability:fast": 1, "slo-burn:availability:slow": 1}
        assert report.status("availability").alerts == 2
        with pytest.raises(KeyError):
            report.status("nope")

    def test_jsonl_is_sorted_keys_one_line_per_slo(self):
        report = self.storm_report()
        lines = slo_jsonl(report).splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert list(parsed) == sorted(parsed)
        assert parsed["slo"] == "availability"
        assert parsed["budget_remaining"] == 0.0

    def test_tables_render(self):
        report = self.storm_report()
        table = report.table()
        assert "availability" in table and "budget left" in table
        assert "slo-burn:availability:fast" in report.alerts_table()

    def test_report_folds_in_the_active_run_stamp(self):
        from repro.scenarios.context import RunStamp, stamped

        mgr = manager()
        ratio_spec(mgr)
        stamp = RunStamp(run_key="k" * 64, scenario="OB3", stage="experiment",
                         repetition=0, seed="s", seed_scheme="x")
        with stamped(stamp):
            report = mgr.report()
        assert report.meta["run_key"] == "k" * 64
        assert report.meta["scenario"] == "OB3"


class TestStandardSets:
    def test_each_bundle_declares_its_slos(self):
        campaign = standard_campaign_slos(manager())
        assert [s.name for s in campaign.specs] == [
            "session-success", "terminal-latency", "evidence-verified"]
        replication = standard_replication_slos(manager())
        assert [s.name for s in replication.specs] == [
            "read-integrity", "fork-detection-latency"]

    def test_bundles_poll_cleanly_on_an_empty_registry(self):
        for build in (standard_campaign_slos, standard_replication_slos):
            mgr = build(manager())
            assert mgr.poll() == []
            assert all(s.budget_remaining == 1.0 for s in mgr.statuses())
