"""Declarative SLOs: error budgets and multi-window burn-rate alerts.

The metrics layer records what happened; this module states
*objectives* — "80% of TPNR sessions reach a terminal verdict within
10 sim seconds", "90% of replica forks are detected within 5 s" — and
accounts for them continuously.  It is the only alerting path of a
fault campaign (``CampaignRunner(slo=True)``):

* an :class:`SLOSpec` binds an objective to an **SLI**, a good/bad
  event classifier read from the live registry (counter ratios,
  histogram latency thresholds, or sketch thresholds — no raw
  samples retained);
* an **error budget** (``1 - objective``) is burned by bad events;
  :class:`SLOStatus` reports consumption and remaining budget;
* alerting is the Google-SRE multi-window multi-burn-rate shape,
  built on :class:`~repro.obs.anomaly.BurnRateDetector`: a *fast*
  window with a high burn threshold pages on cliffs, a *slow* window
  with a low threshold catches smoulder, both edge-triggered and
  polled on the caller's deterministic cadence.

SLIs count events against a threshold and never estimate a quantile:
a histogram SLI counts exactly at one of its bucket bounds.

Reports are stamped with the active :class:`~repro.scenarios.context.
RunStamp` and exported via JSONL / the summary table; the manager also
mirrors ``slo.*`` gauges into the registry, so the existing
Prometheus/JSONL exporters carry the SLO surface with no new hooks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .anomaly import Alert, AnomalyMonitor, BurnRateDetector, alerts_table
from .metrics import MetricsRegistry

__all__ = [
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "SLOSpec",
    "CounterRatioSLI",
    "HistogramThresholdSLI",
    "SketchThresholdSLI",
    "SLOStatus",
    "SLOReport",
    "SLOManager",
    "slo_jsonl",
    "standard_campaign_slos",
    "standard_replication_slos",
]


@dataclass(frozen=True)
class BurnWindow:
    """One burn-rate alerting window: *window* polls wide, firing at
    *threshold* times the sustainable burn."""

    label: str
    window: int
    threshold: float


# The classic two-window page/ticket pair, scaled to campaign-length
# runs (windows are poll counts, not hours): a 4-poll window burning
# 8x pages fast on cliffs; a 16-poll window burning 2x catches the
# slow leak that would quietly exhaust the budget.
DEFAULT_BURN_WINDOWS = (
    BurnWindow("fast", 4, 8.0),
    BurnWindow("slow", 16, 2.0),
)


class CounterRatioSLI:
    """Good/bad read from two counter series (cumulative)."""

    def __init__(self, metrics: MetricsRegistry, good: tuple[str, dict] | str,
                 bad: tuple[str, dict] | str) -> None:
        self.metrics = metrics
        self._good = good if isinstance(good, tuple) else (good, {})
        self._bad = bad if isinstance(bad, tuple) else (bad, {})

    def _read(self, which: tuple[str, dict]) -> float:
        name, labels = which
        return self.metrics.counter(name, **labels).value

    def good(self) -> float:
        return self._read(self._good)

    def bad(self) -> float:
        return self._read(self._bad)

    def describe(self) -> str:
        return f"counter-ratio {self._good[0]} vs {self._bad[0]}"


class HistogramThresholdSLI:
    """Good = observations at or under *threshold* of one histogram.

    *threshold* must equal one of the histogram's bucket bounds so the
    good count is exact (cumulative count at that bound), never
    interpolated.
    """

    def __init__(self, metrics: MetricsRegistry, name: str, threshold: float,
                 buckets: tuple[float, ...] | None = None, **labels: str) -> None:
        self.metrics = metrics
        self.name = name
        self.threshold = threshold
        self.labels = labels
        self._buckets = buckets

    def _hist(self):
        if self._buckets is not None:
            return self.metrics.histogram(self.name, self._buckets, **self.labels)
        return self.metrics.histogram(self.name, **self.labels)

    def _good_bad(self) -> tuple[float, float]:
        hist = self._hist()
        if self.threshold not in hist.buckets:
            raise ValueError(
                f"threshold {self.threshold} is not a bucket bound of "
                f"{self.name!r} ({hist.buckets})")
        edge = hist.buckets.index(self.threshold)
        good = float(sum(hist.bucket_counts[: edge + 1]))
        return good, float(hist.count) - good

    def good(self) -> float:
        return self._good_bad()[0]

    def bad(self) -> float:
        return self._good_bad()[1]

    def describe(self) -> str:
        return f"{self.name} <= {self.threshold:g}s"


class SketchThresholdSLI:
    """Good = sketch observations at or under *threshold* (within the
    sketch's relative-error bound)."""

    def __init__(self, metrics: MetricsRegistry, name: str, threshold: float,
                 **labels: str) -> None:
        self.metrics = metrics
        self.name = name
        self.threshold = threshold
        self.labels = labels

    def _sketch(self):
        return self.metrics.sketch(self.name, **self.labels)

    def good(self) -> float:
        return float(self._sketch().count_le(self.threshold))

    def bad(self) -> float:
        sketch = self._sketch()
        return float(sketch.count - sketch.count_le(self.threshold))

    def describe(self) -> str:
        return f"sketch {self.name} <= {self.threshold:g}"


@dataclass(frozen=True)
class SLOSpec:
    """One declared objective over one SLI."""

    name: str
    objective: float
    sli: object  # CounterRatioSLI | HistogramThresholdSLI | SketchThresholdSLI
    description: str = ""
    burn_windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS
    min_events: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")


@dataclass
class SLOStatus:
    """One SLO's error-budget position at a point in sim time."""

    name: str
    objective: float
    description: str
    good: float
    bad: float
    sli: float
    budget_consumed: float
    budget_remaining: float
    burn_rates: dict[str, float]
    alerts: int

    @property
    def total(self) -> float:
        return self.good + self.bad

    def as_dict(self) -> dict:
        return {
            "slo": self.name,
            "objective": self.objective,
            "description": self.description,
            "good": self.good,
            "bad": self.bad,
            "sli": self.sli,
            "budget_consumed": self.budget_consumed,
            "budget_remaining": self.budget_remaining,
            "burn_rates": dict(sorted(self.burn_rates.items())),
            "alerts": self.alerts,
        }

    def row(self) -> list:
        burns = " ".join(
            f"{label}={rate:.2f}" for label, rate in sorted(self.burn_rates.items()))
        return [
            self.name, f"{self.objective:.3g}",
            f"{int(self.good)}/{int(self.total)}" if self.total else "0/0",
            f"{self.sli:.4f}" if self.total else "-",
            f"{self.budget_remaining:.0%}", burns or "-", self.alerts,
        ]


@dataclass
class SLOReport:
    """The full SLO surface of one run, RunStamp-included."""

    at: float
    statuses: list[SLOStatus]
    alerts: list[Alert]
    meta: dict = field(default_factory=dict)

    def burn_alerts(self) -> list[Alert]:
        return [a for a in self.alerts if a.detector.startswith("slo-burn:")]

    def alert_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.detector] = counts.get(alert.detector, 0) + 1
        return dict(sorted(counts.items()))

    def status(self, name: str) -> SLOStatus:
        for status in self.statuses:
            if status.name == name:
                return status
        raise KeyError(f"no SLO named {name!r}")

    def jsonl(self) -> str:
        """One sorted-keys JSON object per SLO, stable per seed."""
        lines = []
        for status in self.statuses:
            row = status.as_dict()
            row.update({"at": self.at, "meta": self.meta})
            lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
        return "".join(line + "\n" for line in lines)

    def table(self, title: str = "SLO error budgets") -> str:
        from ..analysis.report import render_table  # lazy: obs stays leaf-importable

        return render_table(
            ["slo", "objective", "good/total", "sli", "budget left",
             "burn rates", "alerts"],
            [s.row() for s in self.statuses],
            title=title,
        )

    def alerts_table(self, title: str = "SLO alerts") -> str:
        return alerts_table(self.alerts, title=title)


def slo_jsonl(report: SLOReport) -> str:
    return report.jsonl()


class _Tracker:
    """One SLO's live state: its spec plus one burn detector per window."""

    def __init__(self, spec: SLOSpec, detectors: list[BurnRateDetector]) -> None:
        self.spec = spec
        self.detectors = detectors
        self.alerts = 0


class SLOManager:
    """Evaluates declared SLOs against a live registry.

    Owns a *private* :class:`AnomalyMonitor` holding one burn
    detector per (SLO, window).  Call :meth:`poll` on the driving
    loop's cadence; call :meth:`report` once at the end of the run.
    """

    def __init__(self, metrics: MetricsRegistry,
                 clock: Callable[[], float] | None = None) -> None:
        self.metrics = metrics
        self._clock = clock or (lambda: 0.0)
        self.monitor = AnomalyMonitor(metrics, clock=self._clock)
        self._trackers: list[_Tracker] = []

    def add(self, spec: SLOSpec) -> SLOSpec:
        if any(t.spec.name == spec.name for t in self._trackers):
            raise ValueError(f"SLO {spec.name!r} already declared")
        detectors = []
        for bw in spec.burn_windows:
            detectors.append(self.monitor.add(BurnRateDetector(
                f"slo-burn:{spec.name}:{bw.label}",
                good_reader=spec.sli.good,
                bad_reader=spec.sli.bad,
                subject=spec.name,
                slo=spec.objective,
                threshold=bw.threshold,
                window=bw.window,
                min_events=spec.min_events,
            )))
        self._trackers.append(_Tracker(spec, detectors))
        return spec

    @property
    def specs(self) -> list[SLOSpec]:
        return [t.spec for t in self._trackers]

    def poll(self, now: float | None = None) -> list[Alert]:
        """Sample every burn detector once; mirrors ``slo.*`` series
        into the registry so existing exporters carry them."""
        if now is None:
            now = self._clock()
        fresh = self.monitor.poll(now)
        for tracker in self._trackers:
            tracker.alerts = sum(d.fired for d in tracker.detectors)
        self._mirror()
        return fresh

    def _burn_rates(self, tracker: _Tracker) -> dict[str, float]:
        """Current burn per window, from each detector's own snapshots
        (the same numbers the alerts are computed from)."""
        rates: dict[str, float] = {}
        for bw, det in zip(tracker.spec.burn_windows, tracker.detectors):
            burn = 0.0
            if det._snaps:
                good0, bad0 = det._snaps[0]
                delta_bad = det._bad() - bad0
                total = (det._good() - good0) + delta_bad
                if total > 0:
                    burn = (delta_bad / total) / det.budget
            rates[bw.label] = burn
        return rates

    def _status(self, tracker: _Tracker) -> SLOStatus:
        spec = tracker.spec
        good, bad = float(spec.sli.good()), float(spec.sli.bad())
        total = good + bad
        sli = good / total if total else 1.0
        budget = 1.0 - spec.objective
        consumed = (bad / (total * budget)) if total else 0.0
        return SLOStatus(
            name=spec.name,
            objective=spec.objective,
            description=spec.description or spec.sli.describe(),
            good=good,
            bad=bad,
            sli=sli,
            budget_consumed=consumed,
            budget_remaining=max(0.0, 1.0 - consumed),
            burn_rates=self._burn_rates(tracker),
            alerts=tracker.alerts,
        )

    def statuses(self, now: float | None = None) -> list[SLOStatus]:
        return [self._status(t) for t in self._trackers]

    def _mirror(self) -> None:
        m = self.metrics
        for tracker in self._trackers:
            status = self._status(tracker)
            m.gauge("slo.sli", slo=status.name).set(status.sli)
            m.gauge("slo.budget_remaining", slo=status.name).set(
                status.budget_remaining)
            for label, rate in status.burn_rates.items():
                m.gauge("slo.burn_rate", slo=status.name, window=label).set(rate)
            m.gauge("slo.alerts", slo=status.name).set(tracker.alerts)

    @property
    def alerts(self) -> list[Alert]:
        return self.monitor.alerts

    def report(self, now: float | None = None, **meta) -> SLOReport:
        """The end-of-run report, stamped with the active RunStamp."""
        if now is None:
            now = self._clock()
        from ..scenarios.context import current_stamp  # lazy: avoid import cycle

        stamp = current_stamp()
        full_meta = dict(meta)
        full_meta["polls"] = self.monitor.polls
        if stamp is not None:
            full_meta.update(stamp.as_meta())
        return SLOReport(
            at=now,
            statuses=self.statuses(now),
            alerts=list(self.monitor.alerts),
            meta=full_meta,
        )


# -- standard SLO sets --------------------------------------------------------
#
# One declarative bundle per wired subsystem; each binds to the
# instrument names that subsystem feeds.  Objectives are calibrated so
# clean seeded runs hold them with budget to spare while the fault
# storms of OB3 burn through them.


def standard_campaign_slos(manager: SLOManager) -> SLOManager:
    """SLOs for :class:`~repro.net.faults.CampaignRunner` runs."""
    m = manager.metrics
    manager.add(SLOSpec(
        "session-success", objective=0.9,
        sli=CounterRatioSLI(
            m, ("campaign.live.verdicts", {"outcome": "ok"}),
            ("campaign.live.verdicts", {"outcome": "bad"})),
        description="TPNR sessions reach a good terminal verdict"))
    manager.add(SLOSpec(
        "terminal-latency", objective=0.8,
        sli=HistogramThresholdSLI(m, "campaign.live.latency_seconds", 10.0),
        description="terminal verdict within 10 sim-seconds"))
    manager.add(SLOSpec(
        "evidence-verified", objective=0.9,
        sli=CounterRatioSLI(
            m, ("campaign.live.evidence", {"outcome": "ok"}),
            ("campaign.live.evidence", {"outcome": "bad"})),
        description="end-to-end evidence verification succeeds"))
    return manager


def standard_replication_slos(manager: SLOManager) -> SLOManager:
    """SLOs for :class:`~repro.replication.store.ReplicatedStore`."""
    m = manager.metrics
    manager.add(SLOSpec(
        "read-integrity", objective=0.9,
        sli=CounterRatioSLI(
            m, ("replication.reads", {"outcome": "clean"}),
            ("replication.reads", {"outcome": "repaired"})),
        description="verified reads serve without needing repair"))
    manager.add(SLOSpec(
        "fork-detection-latency", objective=0.9,
        sli=SketchThresholdSLI(m, "replication.fork_detection_seconds", 5.0),
        description="replica forks detected within 5 sim-seconds"))
    return manager
