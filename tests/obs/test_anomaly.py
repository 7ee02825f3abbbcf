"""The burn-rate detector and the polled monitor the SLO layer uses."""

import pytest

from repro.obs.anomaly import AnomalyMonitor, BurnRateDetector, alerts_table
from repro.obs.metrics import MetricsRegistry


class TestBurnRateDetector:
    def make(self, good, bad, **kwargs):
        kwargs.setdefault("slo", 0.9)
        kwargs.setdefault("threshold", 2.0)
        kwargs.setdefault("window", 4)
        kwargs.setdefault("min_events", 4.0)
        return BurnRateDetector(
            "slo", lambda: good.value, lambda: bad.value, **kwargs)

    def test_slo_rejects_degenerate_values(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        with pytest.raises(ValueError):
            self.make(c, c, slo=1.0)
        with pytest.raises(ValueError):
            self.make(c, c, slo=0.0)

    def test_healthy_traffic_never_fires(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad)
        for t in range(20):
            good.inc(10)
            if t % 10 == 9:
                bad.inc(1)  # 1% failures, well inside the 10% budget
            assert det.sample(float(t)) == []

    def test_budget_burn_fires_with_rate(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad, threshold=2.0)
        for t in range(4):
            good.inc(10)
            det.sample(float(t))
        bad.inc(30)  # windowed failure fraction far above 2x budget
        alerts = det.sample(4.0)
        assert len(alerts) == 1
        assert alerts[0].value >= 2.0

    def test_edge_triggered_then_rearms(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad, window=3)
        for t in range(3):
            good.inc(5)
            det.sample(float(t))
        bad.inc(5)
        assert len(det.sample(3.0)) == 1
        assert det.sample(4.0) == []  # same burn still in window
        for t in range(5, 10):
            good.inc(5)
            det.sample(float(t))  # healthy polls re-arm
        bad.inc(5)
        assert len(det.sample(10.0)) == 1

    def test_too_few_events_withholds_judgement(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad, min_events=4.0)
        det.sample(0.0)
        bad.inc(2)  # 100% failures but only 2 events
        assert det.sample(1.0) == []


def burn_detector(good, bad, **kwargs):
    """A 90%-SLO burn detector over two counters, firing at 2x burn."""
    kwargs.setdefault("slo", 0.9)
    kwargs.setdefault("threshold", 2.0)
    kwargs.setdefault("window", 4)
    kwargs.setdefault("min_events", 4.0)
    return BurnRateDetector(
        "burn", lambda: good.value, lambda: bad.value, **kwargs)


class TestAnomalyMonitor:
    def test_poll_aggregates_and_logs(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        monitor = AnomalyMonitor(reg)
        monitor.add(burn_detector(good, bad))
        for t in range(5):
            good.inc(5)
            monitor.poll(float(t))
        bad.inc(12)
        fresh = monitor.poll(5.0)
        assert len(fresh) == 1
        assert monitor.alerts == fresh
        assert monitor.polls == 6
        assert monitor.alert_counts() == {"burn": 1}

    def test_clock_fallback_stamps_alerts(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        monitor = AnomalyMonitor(reg, clock=lambda: 42.5)
        monitor.add(burn_detector(good, bad))
        monitor.poll()
        bad.inc(10)
        alerts = monitor.poll()
        assert alerts and alerts[0].time == 42.5

    def test_empty_monitor_polls_are_noops(self):
        monitor = AnomalyMonitor(MetricsRegistry())
        assert monitor.poll(1.0) == []
        assert monitor.alert_counts() == {}

    def test_alerts_table_renders(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        monitor = AnomalyMonitor(reg)
        monitor.add(burn_detector(good, bad, subject="engine.sessions"))
        monitor.poll(0.0)
        bad.inc(9)
        monitor.poll(1.0)
        text = monitor.table(title="Test alerts")
        assert "Test alerts" in text
        assert "burn" in text
        assert "engine.sessions" in text
        assert alerts_table([]) .count("\n") >= 1  # renders empty too

    def test_same_inputs_identical_alert_stream(self):
        def run():
            reg = MetricsRegistry()
            good, bad = reg.counter("ok"), reg.counter("fail")
            monitor = AnomalyMonitor(reg)
            monitor.add(burn_detector(good, bad, window=3))
            for t in range(12):
                good.inc(5)
                bad.inc(5 if t in (4, 9) else 0)
                monitor.poll(float(t))
            return [a.row() for a in monitor.alerts]

        first = run()
        assert len(first) == 2  # fires, re-arms on healthy polls, fires again
        assert run() == first
