"""Discrete-event simulation engine.

A classic event-heap simulator: callbacks are scheduled at absolute or
relative simulated times and executed in timestamp order (FIFO among
equal timestamps, guaranteed by a monotonic tiebreak counter).  The
engine is single-threaded and deterministic — given the same schedule
of callbacks and the same DRBG seeds, every run is identical.

Protocol roles (Alice, Bob, TTP) run *on top of* this engine: message
deliveries and timeouts are just scheduled callbacks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from ..errors import NetworkError
from .simclock import SimClock

__all__ = ["Simulator", "ScheduledEvent"]


@dataclass(eq=False)
class ScheduledEvent:
    """A scheduled callback; the heap orders it by ``(time, seq)``."""

    time: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it (O(1) lazy deletion)."""
        self.cancelled = True


class Simulator:
    """Event heap plus clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("at t=1.5"))
        sim.run()
    """

    def __init__(self, start: float = 0.0, max_events: int = 10_000_000) -> None:
        self.clock = SimClock(start)
        # Entries are (time, seq, event): seq is unique, so tuple
        # comparison never reaches the event itself.
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._max_events = max_events
        self._processed = 0

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise NetworkError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, t: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule *callback* at absolute simulated time *t*."""
        if t < self.now:
            raise NetworkError(f"cannot schedule in the past (t={t} < now={self.now})")
        seq = self._seq
        event = ScheduledEvent(t, seq, callback)
        self._seq = seq + 1
        heapq.heappush(self._heap, (t, seq, event))
        return event

    def step(self) -> bool:
        """Run the next pending event.  Returns False when idle."""
        while self._heap:
            t, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(t)
            self._processed += 1
            if self._processed > self._max_events:
                raise NetworkError(f"event budget exceeded ({self._max_events}); runaway protocol?")
            event.callback()
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run events until the heap is empty or time would pass *until*.

        With *until* set, the clock finishes advanced to exactly
        *until* (useful for slicing a simulation into phases).
        """
        while self._heap:
            t, _, head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and t > until:
                break
            self.step()
        if until is not None and self.now < until:
            self.clock.advance_to(until)

    def next_event_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` when idle.

        Lazily discards cancelled heap heads on the way, so repeated
        polling (the throughput engine's run loop slices time with
        this) stays amortized O(log n).
        """
        while self._heap:
            t, _, head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            return t
        return None

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)
