"""Burn-rate alerting over the metrics surface.

Post-mortem forensics (:mod:`repro.obs.forensics`) answers "what
happened to transaction X?"; this module answers "is the deployment
misbehaving *right now*?".  It holds the one alert shape the SLO layer
(:mod:`repro.obs.slo`) builds on:

* :class:`BurnRateDetector` — the windowed failure fraction, expressed
  as a multiple of an SLO error budget, exceeds a burn-rate threshold
  (the Google-SRE alerting shape, over campaign windows);
* :class:`AnomalyMonitor` — a polled bundle of detectors plus the
  alert log they feed.

All state is O(window): a deque of (good, bad) counter snapshots,
never raw samples.  Detectors are edge-triggered — one alert on the
transition into violation, re-armed once a poll comes back healthy —
so a single bad sample does not page on every poll it spends sliding
through the window.  Detectors read their instruments through plain
callables, so they can subscribe to a :class:`~repro.obs.metrics.
MetricsRegistry` instrument, a party attribute, or any derived sum.
Alerts are stamped with the *simulated* clock, so two same-seed runs
emit byte-identical alert streams — an alert is evidence, not noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .metrics import MetricsRegistry

__all__ = [
    "Alert",
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


class BurnRateDetector:
    """Fire when the windowed error rate burns the SLO budget too fast.

    ``burn = windowed_failure_fraction / (1 - slo)``: burn 1.0 consumes
    the budget exactly at the sustainable pace; ``threshold`` of e.g.
    2.0 fires when errors arrive twice as fast as the SLO tolerates.
    The window is the delta between the oldest of the last ``window``
    (good, bad) snapshots and the live counters.
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
    ) -> None:
        if not 0.0 < slo < 1.0:
            raise ValueError(f"slo must be in (0, 1), got {slo}")
        self.name = name
        self.subject = subject or name
        self.fired = 0
        self._firing = False
        self._good = good_reader
        self._bad = bad_reader
        self.slo = slo
        self.budget = 1.0 - slo
        self.threshold = threshold
        self.min_events = min_events
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
        # Edge-trigger the level condition: a burn holds for up to
        # ``window`` polls after one bad sample, and paging on every
        # poll of that plateau is noise.
        if violated and not self._firing:
            self.fired += 1
            out.append(Alert(
                now, self.name, self.subject, burn, self.threshold,
                f"{delta_bad:g}/{total:g} failed vs slo {self.slo:g}",
            ))
        self._firing = violated
        self._snaps.append((good, bad))
        return out


class AnomalyMonitor:
    """A polled bundle of detectors plus the alert log they feed.

    The monitor owns no thread and no timer: whatever drives the
    simulation (:meth:`~repro.obs.slo.SLOManager.poll`, called once
    per plan by the :class:`~repro.net.faults.CampaignRunner`) calls
    :meth:`poll` at its own cadence, so alert streams inherit the
    caller's determinism.
    """

    def __init__(self, metrics: MetricsRegistry, clock: Callable[[], float] | None = None) -> None:
        self.metrics = metrics
        self._clock = clock or (lambda: 0.0)
        self.detectors: list[BurnRateDetector] = []
        self.alerts: list[Alert] = []
        self.polls = 0

    def add(self, detector: BurnRateDetector) -> BurnRateDetector:
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
