"""Online anomaly detection over the metrics surface.

Post-mortem forensics (:mod:`repro.obs.forensics`) answers "what
happened to transaction X?"; this module answers "is the deployment
misbehaving *right now*?".  Three bounded-memory sliding-window
detectors cover the shapes of trouble the fault campaigns inject:

* :class:`RateShiftDetector` — a counter's per-poll delta jumps well
  above its recent baseline (retransmission storms, escalation bursts);
* :class:`QuantileThresholdDetector` — a windowed quantile of a
  histogram (the delta between the oldest and newest snapshot in the
  window) crosses a threshold (latency regressions);
* :class:`BurnRateDetector` — the windowed failure fraction, expressed
  as a multiple of an SLO error budget, exceeds a burn-rate threshold
  (the Google-SRE alerting shape, over campaign windows).

All state is O(window): deques of numbers or bucket-count snapshots,
never raw samples.  The windowed detectors are edge-triggered by
default — one alert on the transition into violation, re-armed once a
poll comes back healthy — so a single bad sample does not page on
every poll it spends sliding through the window.  Detectors read their instruments through plain
callables, so they can subscribe to a :class:`~repro.obs.metrics.
MetricsRegistry` instrument, a party attribute, or any derived sum.
Alerts are stamped with the *simulated* clock, so two same-seed runs
emit byte-identical alert streams — an alert is evidence, not noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "Alert",
    "RateShiftDetector",
    "QuantileThresholdDetector",
    "BurnRateDetector",
    "AnomalyMonitor",
    "alerts_table",
]


@dataclass(frozen=True)
class Alert:
    """One deterministic, sim-clock-stamped detector firing."""

    time: float
    detector: str
    subject: str
    value: float
    threshold: float
    detail: str = ""

    def row(self) -> tuple:
        return (
            f"{self.time:.3f}s",
            self.detector,
            self.subject,
            f"{self.value:.4g}",
            f"{self.threshold:.4g}",
            self.detail,
        )


class Detector:
    """Base: a named check polled with the current sim time."""

    def __init__(self, name: str, subject: str) -> None:
        self.name = name
        self.subject = subject
        self.fired = 0
        self._firing = False

    def sample(self, now: float) -> list[Alert]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _alert(self, now: float, value: float, threshold: float, detail: str) -> Alert:
        self.fired += 1
        return Alert(now, self.name, self.subject, value, threshold, detail)

    def _gate(self, violated: bool, edge: bool) -> bool:
        """Edge-trigger a level condition: emit only on entry.

        Windowed detectors hold their condition true for up to
        ``window`` polls after one bad sample; paging on every poll of
        that plateau is noise.  With ``edge`` set, the detector fires
        once on the transition into violation and re-arms when a poll
        comes back healthy.
        """
        emit = violated and not (edge and self._firing)
        self._firing = violated
        return emit


class RateShiftDetector(Detector):
    """Fire when a counter's per-poll delta outruns its baseline.

    Each poll reads the cumulative counter, takes the delta since the
    previous poll, and compares it against ``factor`` times the mean of
    the last ``window`` deltas.  A burst from a silent baseline (mean
    0) fires as soon as the delta reaches ``min_events`` — a
    retransmission storm after minutes of quiet is exactly the case.
    """

    def __init__(
        self,
        name: str,
        reader: Callable[[], float],
        subject: str = "",
        window: int = 8,
        factor: float = 4.0,
        min_events: float = 3.0,
        min_history: int = 3,
    ) -> None:
        super().__init__(name, subject or name)
        self._reader = reader
        self.factor = factor
        self.min_events = min_events
        self.min_history = min_history
        self._deltas: deque[float] = deque(maxlen=window)
        self._last: float | None = None

    def sample(self, now: float) -> list[Alert]:
        value = float(self._reader())
        if self._last is None:
            self._last = value
            return []
        delta = value - self._last
        self._last = value
        baseline_deltas = list(self._deltas)
        self._deltas.append(delta)
        if len(baseline_deltas) < self.min_history:
            return []
        baseline = sum(baseline_deltas) / len(baseline_deltas)
        threshold = max(self.factor * baseline, self.min_events)
        if delta >= threshold:
            return [self._alert(
                now, delta, threshold,
                f"delta {delta:g} vs baseline {baseline:.3g}/poll",
            )]
        return []


class QuantileThresholdDetector(Detector):
    """Fire when a windowed histogram quantile crosses a threshold.

    The window is the delta between the oldest retained bucket-count
    snapshot and the live histogram, so the quantile reflects only the
    last ``window`` polls — a latency regression fires even after hours
    of healthy history have filled the cumulative buckets.
    """

    def __init__(
        self,
        name: str,
        reader: Callable[[], Histogram],
        subject: str = "",
        q: float = 0.99,
        threshold: float = 5.0,
        window: int = 8,
        min_count: int = 5,
        edge: bool = True,
    ) -> None:
        super().__init__(name, subject or name)
        self._reader = reader
        self.q = q
        self.threshold = threshold
        self.min_count = min_count
        self.edge = edge
        self._snaps: deque[tuple[int, list[int]]] = deque(maxlen=window)

    def sample(self, now: float) -> list[Alert]:
        hist = self._reader()
        out: list[Alert] = []
        violated = False
        value = 0.0
        window_count = 0
        if self._snaps:
            base_count, base_buckets = self._snaps[0]
            window_count = hist.count - base_count
            if window_count >= self.min_count:
                delta = Histogram(
                    f"{self.name}.window",
                    tuple(hist.buckets),
                    (),
                    [a - b for a, b in zip(hist.bucket_counts, base_buckets)],
                    window_count,
                    0.0,
                )
                value = delta.quantile(self.q)
                violated = value > self.threshold
        if self._gate(violated, self.edge):
            out.append(self._alert(
                now, value, self.threshold,
                f"p{self.q * 100:g} over {window_count} obs",
            ))
        self._snaps.append((hist.count, list(hist.bucket_counts)))
        return out


class BurnRateDetector(Detector):
    """Fire when the windowed error rate burns the SLO budget too fast.

    ``burn = windowed_failure_fraction / (1 - slo)``: burn 1.0 consumes
    the budget exactly at the sustainable pace; ``threshold`` of e.g.
    2.0 fires when errors arrive twice as fast as the SLO tolerates.
    """

    def __init__(
        self,
        name: str,
        good_reader: Callable[[], float],
        bad_reader: Callable[[], float],
        subject: str = "",
        slo: float = 0.95,
        threshold: float = 2.0,
        window: int = 8,
        min_events: float = 4.0,
        edge: bool = True,
    ) -> None:
        if not 0.0 < slo < 1.0:
            raise ValueError(f"slo must be in (0, 1), got {slo}")
        super().__init__(name, subject or name)
        self._good = good_reader
        self._bad = bad_reader
        self.slo = slo
        self.budget = 1.0 - slo
        self.threshold = threshold
        self.min_events = min_events
        self.edge = edge
        self._snaps: deque[tuple[float, float]] = deque(maxlen=window)

    def sample(self, now: float) -> list[Alert]:
        good, bad = float(self._good()), float(self._bad())
        out: list[Alert] = []
        violated = False
        burn = 0.0
        delta_bad = total = 0.0
        if self._snaps:
            good0, bad0 = self._snaps[0]
            delta_bad = bad - bad0
            total = (good - good0) + delta_bad
            if total >= self.min_events:
                burn = (delta_bad / total) / self.budget
                violated = burn >= self.threshold
        if self._gate(violated, self.edge):
            out.append(self._alert(
                now, burn, self.threshold,
                f"{delta_bad:g}/{total:g} failed vs slo {self.slo:g}",
            ))
        self._snaps.append((good, bad))
        return out


class AnomalyMonitor:
    """A polled bundle of detectors plus the alert log they feed.

    The monitor owns no thread and no timer: whatever drives the
    simulation (the :class:`~repro.net.faults.CampaignRunner` per-plan
    hook, or :meth:`~repro.obs.slo.SLOManager.poll`) calls :meth:`poll`
    at its own cadence, so alert streams inherit the caller's
    determinism.
    """

    def __init__(self, metrics: MetricsRegistry, clock: Callable[[], float] | None = None) -> None:
        self.metrics = metrics
        self._clock = clock or (lambda: 0.0)
        self.detectors: list[Detector] = []
        self.alerts: list[Alert] = []
        self.polls = 0

    def add(self, detector: Detector) -> Detector:
        self.detectors.append(detector)
        return detector

    def poll(self, now: float | None = None) -> list[Alert]:
        """Sample every detector once; returns (and logs) new alerts."""
        if now is None:
            now = self._clock()
        self.polls += 1
        fresh: list[Alert] = []
        for detector in self.detectors:
            fresh.extend(detector.sample(now))
        self.alerts.extend(fresh)
        return fresh

    def alert_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.detector] = counts.get(alert.detector, 0) + 1
        return dict(sorted(counts.items()))

    def table(self, title: str = "Alerts") -> str:
        return alerts_table(self.alerts, title=title)


def alerts_table(alerts: list[Alert], title: str = "Alerts") -> str:
    """Alerts as a human-readable table (sim-time order preserved)."""
    from ..analysis.report import render_table  # lazy: obs must stay importable from net/core

    return render_table(
        ["time", "detector", "subject", "value", "threshold", "detail"],
        [a.row() for a in alerts],
        title=title,
    )
