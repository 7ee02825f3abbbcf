"""repro.obs — the cross-cutting observability layer.

One :class:`Observability` object per observed deployment bundles the
three telemetry surfaces:

* ``obs.metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry`
  (counters, gauges, fixed-bucket histograms; sim-clock-stamped);
* ``obs.tracer`` — a :class:`~repro.obs.span.Tracer` recording
  parent-linked span trees per TPNR transaction (trace id = txn id,
  span events carry envelope ``msg_id`` for correlation with the
  wire-level :class:`~repro.net.trace.TraceRecorder`);
* crypto hooks — :func:`~repro.obs.instrument.observe_crypto` scopes
  RSA/AEAD call-count + wall-time accounting to a block.

Everything hangs off the network: ``make_deployment(observe=True)``
seats a live Observability on ``Network.obs`` and every node reaches it
through ``self.obs``.  When observation is off, that seat holds
:data:`NULL_OBS`, whose ``enabled`` is ``False`` and whose registry and
tracer are shared no-ops — instrumented code guards with::

    obs = self.obs
    if obs.enabled:
        obs.metrics.counter("...").inc()

so the disabled cost is one attribute load and one branch
(``benchmarks/bench_observability.py`` proves the bound).

Exporters (:mod:`repro.obs.exporters`) turn either surface into JSONL,
Prometheus text, or human-readable tables;
:mod:`repro.obs.campaign` folds FC1/CR1 campaign reports into
per-fault-class retry/escalation/latency breakdowns;
:mod:`repro.obs.sketch` adds exactly-mergeable quantile sketches, the
one source of reported quantiles (histograms are counted at their
bucket bounds, never interpolated);
:mod:`repro.obs.slo` declares service objectives with error budgets
and multi-window burn-rate alerting — the only way a fault campaign
raises alerts — over the :class:`~repro.obs.anomaly.BurnRateDetector`
and alert log in :mod:`repro.obs.anomaly`;
:mod:`repro.obs.dashboard` renders the live ``repro slo --watch``
view of a running campaign; :mod:`repro.obs.profiler` attributes cost
to hierarchical regions on both clocks (sim + wall), extracts
critical paths from span trees, and exports flamegraphs/profile
JSONL (``obs.enable_profiler()`` seats it — the seat is
:data:`~repro.obs.profiler.NULL_PROFILER` until then).
"""

from __future__ import annotations

from . import (
    anomaly,
    campaign,
    dashboard,
    exporters,
    forensics,
    instrument,
    metrics,
    profiler,
    sketch,
    slo,
    span,
)
from .anomaly import Alert, AnomalyMonitor, BurnRateDetector, alerts_table
from .campaign import (
    breakdown_table,
    class_breakdown,
    fault_class,
    record_campaign_metrics,
)
from .exporters import (
    metrics_jsonl,
    prometheus_text,
    span_tree_text,
    spans_jsonl,
    summary_table,
    trace_jsonl,
)
from .forensics import (
    AuditFinding,
    ConsistencyAuditor,
    DisputeDossier,
    EvidenceFact,
    Timeline,
    TimelineEntry,
    TimelineReconstructor,
)
from .dashboard import DashboardFrame, budget_bar, render_frame, top_fault_classes
from .instrument import CryptoObserver, observe_crypto
from .metrics import (
    NULL_METRICS,
    CardinalityError,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from .profiler import (
    NULL_PROFILER,
    CriticalPath,
    CriticalStage,
    NullRegionProfiler,
    RegionProfiler,
    RegionStat,
    campaign_critical_paths,
    critical_path,
    flamegraph_text,
    profile_jsonl,
    shard_utilization,
    top_regions,
)
from .sketch import QuantileSketch
from .slo import (
    BurnWindow,
    CounterRatioSLI,
    HistogramThresholdSLI,
    SketchThresholdSLI,
    SLOManager,
    SLOReport,
    SLOSpec,
    SLOStatus,
    slo_jsonl,
    standard_campaign_slos,
    standard_replication_slos,
)
from .span import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Observability",
    "NULL_OBS",
    "anomaly",
    "campaign",
    "dashboard",
    "exporters",
    "forensics",
    "instrument",
    "metrics",
    "profiler",
    "sketch",
    "slo",
    "span",
    "Alert",
    "AnomalyMonitor",
    "BurnRateDetector",
    "alerts_table",
    "AuditFinding",
    "ConsistencyAuditor",
    "DisputeDossier",
    "EvidenceFact",
    "Timeline",
    "TimelineEntry",
    "TimelineReconstructor",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "CardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "QuantileSketch",
    "RegionProfiler",
    "RegionStat",
    "NullRegionProfiler",
    "NULL_PROFILER",
    "CriticalPath",
    "CriticalStage",
    "critical_path",
    "campaign_critical_paths",
    "shard_utilization",
    "flamegraph_text",
    "profile_jsonl",
    "top_regions",
    "BurnWindow",
    "SLOSpec",
    "SLOStatus",
    "SLOReport",
    "SLOManager",
    "CounterRatioSLI",
    "HistogramThresholdSLI",
    "SketchThresholdSLI",
    "slo_jsonl",
    "standard_campaign_slos",
    "standard_replication_slos",
    "DashboardFrame",
    "budget_bar",
    "render_frame",
    "top_fault_classes",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CryptoObserver",
    "observe_crypto",
    "spans_jsonl",
    "metrics_jsonl",
    "trace_jsonl",
    "prometheus_text",
    "summary_table",
    "span_tree_text",
    "fault_class",
    "class_breakdown",
    "breakdown_table",
    "record_campaign_metrics",
]


class Observability:
    """The per-deployment bundle of metrics registry + tracer."""

    enabled = True

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self.metrics = MetricsRegistry(clock)
        self.tracer = Tracer(clock)
        # The profiler seat: NULL until enable_profiler() swaps in a
        # live RegionProfiler, so the cost model matches NULL_METRICS.
        self.profiler = NULL_PROFILER

    def enable_profiler(self, alpha: float | None = None) -> RegionProfiler:
        """Seat a live :class:`RegionProfiler` sharing this bundle's
        sim clock (idempotent: an already-live profiler is kept)."""
        if not self.profiler.enabled:
            if alpha is None:
                self.profiler = RegionProfiler(self._clock)
            else:
                self.profiler = RegionProfiler(self._clock, alpha=alpha)
        return self.profiler

    def observe_crypto(self):
        """Scope crypto hot-path accounting to a ``with`` block; calls
        feed the profiler as leaves whenever one is enabled."""
        return observe_crypto(
            self.metrics,
            profiler=self.profiler if self.profiler.enabled else None,
        )

    def spans_jsonl(self) -> str:
        return spans_jsonl(self.tracer)

    def metrics_jsonl(self, deterministic_only: bool = False) -> str:
        return metrics_jsonl(self.metrics, deterministic_only)

    def prometheus_text(self) -> str:
        return prometheus_text(self.metrics)

    def summary_table(self, title: str = "Metrics summary") -> str:
        return summary_table(self.metrics, title)


class NullObservability(Observability):
    """The disabled bundle: shared no-op registry and tracer."""

    enabled = False

    def __init__(self) -> None:
        self._clock = None
        self.metrics = NULL_METRICS
        self.tracer = NULL_TRACER
        self.profiler = NULL_PROFILER

    def enable_profiler(self, alpha: float | None = None) -> RegionProfiler:
        """Disabled observability never profiles: the seat stays NULL."""
        return self.profiler


NULL_OBS = NullObservability()
