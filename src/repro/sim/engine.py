"""The discrete-event simulator core.

The simulator maintains a priority queue of :class:`Event` objects
keyed by ``(time_ns, sequence)``. Ties in time are broken by insertion
order, which makes runs fully deterministic for a fixed seed.

Hot-path design
---------------
The heap stores ``(time, seq, event)`` tuples rather than the events
themselves, so every sift comparison is a C-level int compare instead
of a Python ``__lt__`` call. Cancellation is *lazy*: a cancelled event
stays in the heap (marked dead) until it is popped or until the
cancelled fraction crosses a threshold, at which point the heap is
compacted in place. Rearm-heavy models (periodic timers, governors,
NIC idle windows) therefore never grow the queue unboundedly, and
timers can recycle their event object via :meth:`Simulator.reschedule`
instead of allocating a fresh :class:`Event` per tick. A simulator
lives for one cell: every cell builds its runtime, kernel included,
fresh.

The clock is an integer nanosecond count. Scheduling at a non-integral
time is rejected with :class:`SimulationError` — silently truncating
(e.g. ``Delay(2.7)``) would break the "an int-ns clock plus a seed
fully determines a run" contract.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator(seed=1)
>>> fired = []
>>> _ = sim.schedule(100, fired.append, "a")
>>> _ = sim.schedule(50, fired.append, "b")
>>> sim.run()
>>> fired
['b', 'a']
>>> sim.now
100
"""

from __future__ import annotations

import heapq
import os
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable

import numpy as np

from repro.sim.sanitize import EventStreamSanitizer, SanitizerReport

#: Compact the heap once at least this many cancelled events are
#: queued *and* they make up at least half the heap. The floor keeps
#: tiny heaps from compacting on every cancel; the ratio bounds wasted
#: memory and pop-side skipping to a constant factor.
COMPACTION_MIN_CANCELLED = 256


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, etc.)."""


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    Events are one-shot. Cancelling an already fired or cancelled
    event is a harmless no-op, which simplifies timer management in
    the hardware models. A fired event may be recycled through
    :meth:`Simulator.reschedule`, which re-arms the same object (same
    ``fn``/``args``) without a fresh allocation.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "_sim", "_in_heap")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Simulator",
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim
        self._in_heap = True

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._in_heap:
            self._sim._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to fire."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = (
            "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        )
        fn_name = getattr(self.fn, "__name__", self.fn)
        return f"Event(t={self.time}, fn={fn_name!r}, {state})"


#: ``object.__new__`` bound once: the scheduling fast path constructs
#: events with inline slot stores instead of an ``__init__`` frame.
_new_event = object.__new__


def _as_int_ns(value: Any) -> int:
    """Coerce a scheduling time to int nanoseconds, rejecting fractions."""
    try:
        as_int = int(value)
    except (TypeError, ValueError):
        raise SimulationError(
            f"simulation times must be integers, got {value!r}"
        ) from None
    if as_int != value:
        raise SimulationError(
            f"simulation times must be whole nanoseconds, got {value!r} "
            "(round in the model, not in the kernel)"
        )
    return as_int


class Simulator:
    """A deterministic discrete-event simulator with an int-ns clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random generator (``sim.rng``).
        All stochastic models draw from this generator so a seed fully
        determines a run.
    sanitize:
        Route every dispatch through the determinism sanitizer
        (:mod:`repro.sim.sanitize`): event-stream hashing plus
        same-timestamp ambiguity detection, surfaced by
        :meth:`sanitize_report`. ``None`` (the default) consults the
        ``REPRO_SANITIZE`` environment variable (off unless set to a
        non-empty value other than ``0``). Sanitize mode costs a hash
        update per event — leave it off for benchmarks.
    """

    def __init__(self, seed: int = 0, *, sanitize: bool | None = None) -> None:
        self._queue: list[tuple[int, int, Event]] = []
        self._now: int = 0
        self._seq: int = 0
        self._events_processed: int = 0
        self._events_reused: int = 0
        self._events_cancelled: int = 0
        self._cancelled_in_heap: int = 0
        self._heap_compactions: int = 0
        self._peak_heap_size: int = 0
        self._running = False
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "0") not in ("", "0")
        self._sanitizer: EventStreamSanitizer | None = (
            EventStreamSanitizer() if sanitize else None
        )
        self.rng: np.random.Generator = np.random.default_rng(seed)
        self.seed = seed

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_processed

    # -- kernel observability ---------------------------------------------
    @property
    def heap_size(self) -> int:
        """Entries currently in the heap (live + lazily-cancelled)."""
        return len(self._queue)

    @property
    def peak_heap_size(self) -> int:
        """Largest heap observed so far (queue-growth watermark)."""
        return self._peak_heap_size

    @property
    def events_reused(self) -> int:
        """Events recycled through :meth:`reschedule` (allocations saved)."""
        return self._events_reused

    @property
    def events_scheduled(self) -> int:
        """Total events ever armed (fresh allocations plus reuses)."""
        return self._seq

    @property
    def events_cancelled(self) -> int:
        """Total cancellations observed."""
        return self._events_cancelled

    @property
    def heap_compactions(self) -> int:
        """Times the heap was rebuilt to purge cancelled entries."""
        return self._heap_compactions

    @property
    def cancelled_ratio(self) -> float:
        """Fraction of current heap entries that are dead (cancelled)."""
        size = len(self._queue)
        if size == 0:
            return 0.0
        return self._cancelled_in_heap / size

    def kernel_stats(self) -> dict[str, int | float]:
        """All kernel counters as one plain dict (for stats plumbing)."""
        return {
            "events_processed": self._events_processed,
            "events_scheduled": self._seq,
            "events_reused": self._events_reused,
            "events_cancelled": self._events_cancelled,
            "heap_size": len(self._queue),
            "peak_heap_size": self._peak_heap_size,
            "cancelled_in_heap": self._cancelled_in_heap,
            "cancelled_ratio": self.cancelled_ratio,
            "heap_compactions": self._heap_compactions,
            "sim_time_ns": self._now,
        }

    # -- scheduling ------------------------------------------------------
    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now."""
        if type(delay_ns) is not int:
            delay_ns = _as_int_ns(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_ns})")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event)
        event.time = time_ns
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.fired = False
        event._sim = self
        event._in_heap = True
        if self._sanitizer is not None:
            self._sanitizer.note_scheduled(seq, self._now, fn)
        queue = self._queue
        _heappush(queue, (time_ns, seq, event))
        if len(queue) > self._peak_heap_size:
            self._peak_heap_size = len(queue)
        return event

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if type(time_ns) is not int:
            time_ns = _as_int_ns(time_ns)
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event)
        event.time = time_ns
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.fired = False
        event._sim = self
        event._in_heap = True
        if self._sanitizer is not None:
            self._sanitizer.note_scheduled(seq, self._now, fn)
        queue = self._queue
        _heappush(queue, (time_ns, seq, event))
        if len(queue) > self._peak_heap_size:
            self._peak_heap_size = len(queue)
        return event

    def reschedule(self, event: Event, delay_ns: int) -> Event:
        """Re-arm a fired (or cancelled-and-retired) event object.

        The event keeps its ``fn``/``args`` and gets a fresh
        ``(time, seq)`` identity, so periodic timers and process
        resumptions recycle one :class:`Event` instead of allocating
        per tick. The object must not still sit in the heap — re-arming
        a queued event would corrupt the heap invariant.
        """
        if event._in_heap:
            raise SimulationError(
                f"cannot reschedule {event!r}: it is still queued "
                "(cancel() retires it only once popped; use schedule())"
            )
        if type(delay_ns) is not int:
            delay_ns = _as_int_ns(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_ns})")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        event.time = time_ns
        event.seq = seq
        event.cancelled = False
        event.fired = False
        event._in_heap = True
        if self._sanitizer is not None:
            self._sanitizer.note_scheduled(seq, self._now, event.fn)
        self._events_reused += 1
        queue = self._queue
        _heappush(queue, (time_ns, seq, event))
        if len(queue) > self._peak_heap_size:
            self._peak_heap_size = len(queue)
        return event

    # -- lazy-deletion bookkeeping ----------------------------------------
    def _note_cancelled(self) -> None:
        """An in-heap event was cancelled; compact when it pays off."""
        self._events_cancelled += 1
        cancelled = self._cancelled_in_heap + 1
        self._cancelled_in_heap = cancelled
        if cancelled >= COMPACTION_MIN_CANCELLED and cancelled * 2 >= len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries, in place.

        In place (slice assignment) so tight run loops holding a local
        reference to the queue list never observe a stale object.
        """
        queue = self._queue
        live = [entry for entry in queue if not entry[2].cancelled]
        for entry in queue:
            event = entry[2]
            if event.cancelled:
                event._in_heap = False
        queue[:] = live
        heapq.heapify(queue)
        self._cancelled_in_heap = 0
        self._heap_compactions += 1

    # -- execution -------------------------------------------------------
    def run(self, until_ns: int | None = None) -> None:
        """Run until the queue drains or the clock reaches ``until_ns``.

        When ``until_ns`` is given, the clock is advanced to exactly
        ``until_ns`` on return even if the queue drained earlier, so
        that power/residency integration windows are well defined.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if self._sanitizer is not None:
            # The sanitized loop pays an observe() per event; keeping
            # it out of line leaves the default hot loops untouched.
            self._run_sanitized(until_ns)
            return
        self._running = True
        # The dispatch loops below keep their state in hoisted locals:
        # they retire the vast majority of all events, so attribute
        # lookups and any extra method call per event are worth
        # eliminating.
        queue = self._queue
        pop = _heappop
        try:
            if until_ns is None:
                while queue:
                    time_ns, _seq, event = pop(queue)
                    event._in_heap = False
                    if event.cancelled:
                        self._cancelled_in_heap -= 1
                        continue
                    self._now = time_ns
                    event.fired = True
                    self._events_processed += 1
                    event.fn(*event.args)
                return
            if type(until_ns) is not int:
                until_ns = _as_int_ns(until_ns)
            if until_ns < self._now:
                raise SimulationError(
                    f"cannot run until t={until_ns} before now={self._now}"
                )
            while queue and queue[0][0] <= until_ns:
                time_ns, _seq, event = pop(queue)
                event._in_heap = False
                if event.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                self._now = time_ns
                event.fired = True
                self._events_processed += 1
                event.fn(*event.args)
            self._now = until_ns
        finally:
            self._running = False

    def _run_sanitized(self, until_ns: int | None) -> None:
        """The :meth:`run` loop with per-dispatch sanitizer observation."""
        self._running = True
        sanitizer = self._sanitizer
        try:
            if until_ns is not None:
                if type(until_ns) is not int:
                    until_ns = _as_int_ns(until_ns)
                if until_ns < self._now:
                    raise SimulationError(
                        f"cannot run until t={until_ns} before now={self._now}"
                    )
            queue = self._queue
            pop = _heappop
            while queue and (until_ns is None or queue[0][0] <= until_ns):
                time_ns, _seq, event = pop(queue)
                event._in_heap = False
                if event.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                self._now = time_ns
                event.fired = True
                self._events_processed += 1
                sanitizer.observe(time_ns, _seq, event.fn)
                event.fn(*event.args)
            if until_ns is not None:
                self._now = until_ns
        finally:
            self._running = False

    # -- sanitizer --------------------------------------------------------
    @property
    def sanitize(self) -> bool:
        """True while the determinism sanitizer is observing dispatches."""
        return self._sanitizer is not None

    def sanitize_report(self) -> SanitizerReport | None:
        """Snapshot of the sanitizer's observations (None if off).

        Non-destructive — may be taken mid-run; the digest covers
        every event dispatched since construction.
        """
        if self._sanitizer is None:
            return None
        return self._sanitizer.report()

    def peek(self) -> int | None:
        """Time of the next pending event, or None if the queue is empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            _, _, event = heapq.heappop(queue)
            event._in_heap = False
            self._cancelled_in_heap -= 1
        return queue[0][0] if queue else None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Simulator(now={self._now}, pending={len(self._queue)})"
