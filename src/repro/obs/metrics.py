"""The metrics registry: counters, gauges, fixed-bucket histograms.

Zero-dependency and deterministic: instruments are identified by
``(name, sorted labels)``, values are plain Python numbers, and every
snapshot is stamped with the **simulated** clock (the registry is given
a ``clock`` callable, normally ``lambda: sim.now``), so two runs with
the same seed produce byte-identical snapshots.  The only deliberately
non-deterministic metrics are the crypto wall-time series (real compute
is real); they are flagged ``deterministic=False`` and excluded from
:meth:`MetricsRegistry.deterministic_snapshot`.

Off-by-default-cheap: code that *might* be observed holds a registry
reference that is either a live :class:`MetricsRegistry` or the shared
:data:`NULL_METRICS`.  The null registry's ``enabled`` is ``False`` and
all its instruments are shared no-ops, so the disabled hot path costs
one attribute load and one branch (the overhead bound is proven by
``benchmarks/bench_observability.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .sketch import DEFAULT_ALPHA, QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "CardinalityError",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

# Upper bounds in simulated seconds — spans the sub-millisecond LAN
# deliveries up to the multi-timeout Resolve escalations.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
)
# Upper bounds in bytes — header-only messages up to bulk payloads.
DEFAULT_SIZE_BUCKETS = (128, 256, 512, 1024, 4096, 16384, 65536, 262144)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    if len(labels) <= 1:  # nothing to order; most lookups carry one label
        return tuple((k, str(v)) for k, v in labels.items())
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing number (float so it can carry bytes
    and wall-clock seconds alike)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


@dataclass
class Gauge:
    """A number that can go up and down (queue depths, open spans)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


@dataclass
class Histogram:
    """A fixed-bucket histogram (Prometheus-style bounds).

    ``bucket_counts[i]`` counts observations in
    ``(buckets[i-1], buckets[i]]``; the implicit final bucket is
    ``+Inf``.  Buckets are fixed at creation — no rebinning, so
    merged/compared snapshots always line up.  Readers count at a
    bucket bound (:class:`~repro.obs.slo.HistogramThresholdSLI`) and
    never estimate inside a bucket; quantiles come from
    :class:`~repro.obs.sketch.QuantileSketch`, which keeps every
    estimate inside the observed [min, max].

    The observed ``min``/``max`` are tracked alongside the buckets
    (``None`` until the first observation).
    """

    name: str
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    labels: tuple[tuple[str, str], ...] = ()
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"histogram buckets must be sorted: {self.buckets}")
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class CardinalityError(ValueError):
    """A metric name exceeded the registry's label-cardinality budget
    (raised only in ``budget_mode="raise"``)."""


# The per-(name, kind) series that absorbs observations once a name's
# label budget is spent (budget_mode="drop").
_OVERFLOW_LABELS = (("overflow", "true"),)


class MetricsRegistry:
    """Get-or-create home for every instrument of one observed world.

    ``label_budget`` caps the distinct label sets per metric name
    (default ``None`` — unlimited).  Exceeding the cap either raises
    :class:`CardinalityError` (``budget_mode="raise"``, the default —
    what tests want) or, in production mode (``budget_mode="drop"``),
    folds the overflowing series into one shared
    ``{overflow="true"}`` instrument per (name, kind) and increments
    the unlabeled ``metrics_dropped_labels`` counter, so cardinality
    explosions degrade resolution instead of memory.
    """

    enabled = True

    def __init__(self, clock=None, label_budget: int | None = None,
                 budget_mode: str = "raise") -> None:
        # clock: () -> float, normally the simulation clock.  Snapshots
        # are stamped with it so they are deterministic per seed.
        if budget_mode not in ("raise", "drop"):
            raise ValueError(f"budget_mode must be 'raise' or 'drop', got {budget_mode!r}")
        if label_budget is not None and label_budget < 1:
            raise ValueError(f"label_budget must be >= 1, got {label_budget}")
        self._clock = clock or (lambda: 0.0)
        self.label_budget = label_budget
        self.budget_mode = budget_mode
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._sketches: dict[tuple, QuantileSketch] = {}
        # One kind per metric name, ever — a name that is a counter in
        # one call site and a gauge in another would export two
        # conflicting series under one identifier.
        self._kind_of: dict[str, str] = {}
        # Metric names whose *values* depend on real wall time (crypto
        # timings); excluded from the deterministic snapshot.
        self._nondeterministic: set[str] = set()
        self._label_sets: dict[str, set[tuple]] = {}

    @property
    def now(self) -> float:
        return self._clock()

    # -- instruments ---------------------------------------------------------

    def _claim_kind(self, name: str, kind: str) -> None:
        claimed = self._kind_of.setdefault(name, kind)
        if claimed != kind:
            raise TypeError(f"metric {name!r} is a {claimed}, not a {kind}")

    def _admit(self, name: str, labels: tuple) -> tuple:
        """Apply the label-cardinality budget; returns the label set to
        use (the requested one, or the overflow set in drop mode)."""
        if self.label_budget is None:
            return labels
        seen = self._label_sets.setdefault(name, set())
        if labels in seen or len(seen) < self.label_budget:
            seen.add(labels)
            return labels
        if self.budget_mode == "raise":
            raise CardinalityError(
                f"metric {name!r} exceeded label budget "
                f"{self.label_budget} with labels {labels}")
        # Production mode: count the drop and fold into the shared
        # overflow series.  The counter bypasses _admit (no labels).
        key = ("metrics_dropped_labels", ())
        dropped = self._counters.get(key)
        if dropped is None:
            self._claim_kind("metrics_dropped_labels", "counter")
            dropped = self._counters[key] = Counter("metrics_dropped_labels")
        dropped.inc()
        return _OVERFLOW_LABELS

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        found = self._counters.get(key)
        if found is None:
            self._claim_kind(name, "counter")
            key = (name, self._admit(name, key[1]))
            found = self._counters.get(key)
            if found is None:
                found = self._counters[key] = Counter(name, key[1])
        return found

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        found = self._gauges.get(key)
        if found is None:
            self._claim_kind(name, "gauge")
            key = (name, self._admit(name, key[1]))
            found = self._gauges.get(key)
            if found is None:
                found = self._gauges[key] = Gauge(name, key[1])
        return found

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        found = self._histograms.get(key)
        if found is None:
            self._claim_kind(name, "histogram")
            key = (name, self._admit(name, key[1]))
            found = self._histograms.get(key)
            if found is None:
                found = self._histograms[key] = Histogram(name, buckets, key[1])
        return found

    def sketch(self, name: str, alpha: float = DEFAULT_ALPHA,
               **labels: str) -> QuantileSketch:
        """A mergeable quantile sketch (see :mod:`repro.obs.sketch`)."""
        key = (name, _label_key(labels))
        found = self._sketches.get(key)
        if found is None:
            self._claim_kind(name, "sketch")
            key = (name, self._admit(name, key[1]))
            found = self._sketches.get(key)
            if found is None:
                found = self._sketches[key] = QuantileSketch(
                    name, alpha=alpha, labels=key[1])
        return found

    def mark_nondeterministic(self, name: str) -> None:
        self._nondeterministic.add(name)

    # -- reading back --------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Every instrument as one sorted list of plain dicts.

        The list is sorted by (kind, name, labels) so equal registries
        serialize identically regardless of creation order.
        """
        at = self.now
        rows: list[dict] = []
        for (name, labels), c in self._counters.items():
            rows.append({"kind": "counter", "name": name, "labels": dict(labels),
                         "value": c.value, "at": at})
        for (name, labels), g in self._gauges.items():
            rows.append({"kind": "gauge", "name": name, "labels": dict(labels),
                         "value": g.value, "at": at})
        for (name, labels), h in self._histograms.items():
            rows.append({
                "kind": "histogram", "name": name, "labels": dict(labels),
                "buckets": list(h.buckets), "bucket_counts": list(h.bucket_counts),
                "count": h.count, "sum": h.sum, "min": h.min, "max": h.max,
                "at": at,
            })
        for (name, labels), s in self._sketches.items():
            row = s.snapshot()
            row.update({"kind": "sketch", "at": at})
            rows.append(row)
        rows.sort(key=lambda r: (r["kind"], r["name"], sorted(r["labels"].items())))
        return rows

    def deterministic_snapshot(self) -> list[dict]:
        """The snapshot minus wall-clock-valued series — the part that
        must be byte-identical across same-seed runs."""
        return [r for r in self.snapshot() if r["name"] not in self._nondeterministic]

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms) + len(self._sketches))


class _NullCounter(Counter):
    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


class _NullSketch(QuantileSketch):
    def observe(self, value: float) -> None:
        pass


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every lookup returns a shared no-op.

    Guarded call sites never reach these (``enabled`` is False), but an
    unguarded one still cannot corrupt anything or allocate per call.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null", buckets=(1.0,))
        self._null_sketch = _NullSketch("null")

    def counter(self, name: str, **labels: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS, **labels: str) -> Histogram:
        return self._null_histogram

    def sketch(self, name: str, alpha: float = DEFAULT_ALPHA, **labels: str) -> QuantileSketch:
        return self._null_sketch

    def snapshot(self) -> list[dict]:
        return []


NULL_METRICS = NullMetricsRegistry()
