"""Discrete-event simulation engine (the ns2 stand-in's core loop).

A single binary heap of ``(time, sequence, callback, args)`` entries.
The sequence number breaks ties deterministically (FIFO among
same-time events), which keeps every experiment bit-reproducible for a
given seed.

Cancellable timers are implemented with generation counters on the
caller's side (see :class:`Timer`): cancelling just bumps the
generation so the stale heap entry becomes a no-op — cheaper than
removing from the middle of a heap, and the standard trick in
high-event-rate simulators.
"""

from __future__ import annotations

import heapq

__all__ = ["Simulator", "Timer"]


class Simulator:
    """Event loop with absolute-time scheduling.

    *Daemon* events (periodic allocator/XCP ticks) do not keep the
    simulation alive: :meth:`run` stops once only daemon events remain,
    the same semantics as daemon threads.  :meth:`run_until` is purely
    time-bounded and processes daemons as long as real work may still
    appear.
    """

    def __init__(self):
        self._heap = []
        self._sequence = 0
        self._live = 0  # non-daemon events outstanding
        self.now = 0.0
        self.events_processed = 0

    def at(self, time, callback, *args, daemon=False):
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past "
                             f"({time} < {self.now})")
        self._sequence += 1
        heapq.heappush(self._heap,
                       (time, self._sequence, daemon, callback, args))
        if not daemon:
            self._live += 1

    def after(self, delay, callback, *args, daemon=False):
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        self.at(self.now + delay, callback, *args, daemon=daemon)

    def run_until(self, t_end, max_events=None):
        """Process events with time <= ``t_end``; returns events run."""
        processed = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            time, _, daemon, callback, args = heapq.heappop(heap)
            if not daemon:
                self._live -= 1
            self.now = time
            callback(*args)
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        if not heap or heap[0][0] > t_end:
            self.now = max(self.now, t_end)
        self.events_processed += processed
        return processed

    def run(self, max_events=None):
        """Run until only daemon events remain; returns events run.

        Reach: invariant — tests drive the transports and devices to completion
        with it.
        """
        processed = 0
        heap = self._heap
        while heap and self._live > 0:
            time, _, daemon, callback, args = heapq.heappop(heap)
            if not daemon:
                self._live -= 1
            self.now = time
            callback(*args)
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        self.events_processed += processed
        return processed

    @property
    def pending(self):
        """Non-daemon events outstanding (what keeps :meth:`run` going).

        Reach: invariant — tests check that a run left no live event with it.
        """
        return self._live


class Timer:
    """A restartable one-shot timer (retransmission timeouts etc.).

    ``restart`` supersedes any armed instance; ``cancel`` disarms.  The
    callback fires only if the generation at scheduling time is still
    current when the event pops.
    """

    __slots__ = ("sim", "callback", "_generation", "armed", "expires_at",
                 "daemon")

    def __init__(self, sim: Simulator, callback, daemon=False):
        self.sim = sim
        self.callback = callback
        self._generation = 0
        self.armed = False
        self.expires_at = None
        self.daemon = daemon

    def restart(self, delay):
        self._generation += 1
        self.armed = True
        self.expires_at = self.sim.now + delay
        self.sim.after(delay, self._fire, self._generation,
                       daemon=self.daemon)

    def cancel(self):
        self._generation += 1
        self.armed = False
        self.expires_at = None

    def _fire(self, generation):
        if generation != self._generation:
            return  # superseded or cancelled
        self.armed = False
        self.callback()
