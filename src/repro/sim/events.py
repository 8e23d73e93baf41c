"""Discrete-event scheduler.

The SACHa protocol is a long strictly-ordered sequence of actions spread
over three clock domains and a network; the scheduler advances a single
nanosecond clock through scheduled callbacks.  It is deliberately small:
a heap of ``(time, sequence, event)`` tuples, deterministic tie-breaking
by insertion order, and cancellation support for timeouts.  A networked
full-device attestation schedules ~50k events, so the heap holds plain
tuples (compared in C, never reaching the event) and events are slotted.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback, at ``time_ns``; ``sequence`` breaks ties."""

    __slots__ = ("time_ns", "sequence", "callback", "label", "cancelled")

    def __init__(
        self,
        time_ns: float,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> None:
        self.time_ns = time_ns
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        self.cancelled = True


class Simulator:
    """A deterministic event-driven simulator.

    Time never flows backwards: scheduling in the past raises.  Events at
    the same timestamp run in scheduling order, which makes traces fully
    reproducible.
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Event]] = []
        self._now_ns: float = 0.0
        self._sequence = 0
        self._running = False

    @property
    def now_ns(self) -> float:
        return self._now_ns

    def schedule(
        self, delay_ns: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay_ns`` from the current time."""
        if delay_ns < 0:
            raise ValueError(f"cannot schedule {delay_ns} ns in the past")
        time_ns = self._now_ns + delay_ns
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time_ns, sequence, callback, label)
        heapq.heappush(self._queue, (time_ns, sequence, event))
        return event

    def schedule_at(
        self, time_ns: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time_ns``."""
        if time_ns < self._now_ns:
            raise ValueError(
                f"cannot schedule at {time_ns} ns; clock is at {self._now_ns} ns"
            )
        return self.schedule(time_ns - self._now_ns, callback, label)

    def run(self, until_ns: Optional[float] = None) -> float:
        """Run until the queue drains (or the clock passes ``until_ns``).

        Returns the final simulation time.  Callbacks may schedule further
        events; a callback that raises stops the run and propagates.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                if until_ns is not None and queue[0][0] > until_ns:
                    self._now_ns = until_ns
                    break
                time_ns, _, event = pop(queue)
                if event.cancelled:
                    continue
                self._now_ns = time_ns
                event.callback()
        finally:
            self._running = False
        return self._now_ns

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def peek_next_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        for time_ns, _, event in sorted(self._queue):
            if not event.cancelled:
                return time_ns
        return None
