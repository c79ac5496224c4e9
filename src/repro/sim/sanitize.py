"""Runtime determinism sanitizer for the event kernel.

The static rules in :mod:`repro.lint` catch determinism hazards at
the source; this module catches them in flight. With sanitize mode on
(``Simulator(sanitize=True)`` or ``REPRO_SANITIZE=1``), the kernel
routes every dispatched event through an
:class:`EventStreamSanitizer`, which

* **hashes the dispatched event stream** — a SHA-256 over
  ``(time_ns, seq, callback)`` of every fired event. Two runs that
  claim to be identical (serial vs parallel worker, two fresh builds
  of one cell) must produce the same digest; any divergence pins the
  first nondeterministic dispatch to a hash, not a vague diff;
* **flags same-timestamp handler-order ambiguity** — groups of events
  firing at one timestamp whose relative order is an artifact of
  scheduling *history* (distinct callbacks armed at distinct earlier
  moments) rather than one call site's explicit ordering. That order
  is still deterministic for a fixed seed, but it is exactly where
  hash-ordered iteration (lint rule RPR003) and refactoring churn
  silently reorder handlers.

Sanitize mode trades speed for visibility (every dispatch takes a
hash update); leave it off for benchmarks and wide sweeps, turn it on
in CI determinism jobs and when chasing a divergence.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

#: Cap on recorded ambiguity details; the *count* is always exact.
DETAIL_CAP = 25


def callback_label(fn: Callable[..., Any]) -> str:
    """A stable, human-readable identity for an event callback."""
    label = getattr(fn, "__qualname__", None)
    if label is None:
        label = type(fn).__name__
    return label


@dataclass(frozen=True)
class AmbiguousTimestamp:
    """One same-timestamp group whose handler order is history-defined."""

    time_ns: int
    #: Distinct callback labels that fired at this timestamp.
    callbacks: tuple[str, ...]
    #: Number of events in the group.
    events: int

    def describe(self) -> str:
        names = ", ".join(self.callbacks)
        return (
            f"t={self.time_ns}: {self.events} events, order decided by "
            f"scheduling history across [{names}]"
        )


@dataclass(frozen=True)
class SanitizerReport:
    """Snapshot of everything the sanitizer observed so far."""

    events: int
    digest: str
    ambiguous_timestamps: int
    max_same_time_events: int
    ambiguities: tuple[AmbiguousTimestamp, ...] = field(default=())

    @property
    def truncated(self) -> bool:
        """True when more ambiguities occurred than details recorded."""
        return self.ambiguous_timestamps > len(self.ambiguities)


class EventStreamSanitizer:
    """Observes the dispatch stream of one :class:`Simulator`.

    The simulator calls :meth:`note_scheduled` as events are armed and
    :meth:`observe` as they fire; :meth:`report` is non-destructive
    and may be taken mid-run.
    """

    __slots__ = (
        "_digest",
        "_events",
        "_sched_now",
        "_group_time",
        "_group",
        "_ambiguous",
        "_details",
        "_max_group",
    )

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self._events = 0
        #: seq -> (sim.now at scheduling time); popped on dispatch, so
        #: residue is bounded by cancelled-but-never-popped events.
        self._sched_now: dict[int, int] = {}
        self._group_time = -1
        #: (callback label, scheduled_at) per event of the open group.
        self._group: list[tuple[str, int]] = []
        self._ambiguous = 0
        self._details: list[AmbiguousTimestamp] = []
        self._max_group = 0

    # -- kernel hooks ------------------------------------------------------
    def note_scheduled(self, seq: int, now_ns: int, fn: Callable[..., Any]) -> None:
        """An event got armed (``schedule``/``schedule_at``/``reschedule``)."""
        self._sched_now[seq] = now_ns

    def observe(self, time_ns: int, seq: int, fn: Callable[..., Any]) -> None:
        """An event is being dispatched (in firing order)."""
        label = callback_label(fn)
        self._digest.update(f"{time_ns}:{seq}:{label}\n".encode())
        self._events += 1
        scheduled_at = self._sched_now.pop(seq, time_ns)
        if time_ns != self._group_time:
            self._close_group()
            self._group_time = time_ns
        self._group.append((label, scheduled_at))

    # -- grouping ----------------------------------------------------------
    @staticmethod
    def _is_ambiguous(group: list[tuple[str, int]]) -> bool:
        """Order is history-defined: >=2 callbacks armed at >=2 moments.

        A burst scheduled by one call site in one callback (same
        ``scheduled_at``) has its order written in the code; a group
        assembled across different moments is tie-broken by global
        sequence numbers — i.e. by everything that ran before it.
        """
        if len(group) < 2:
            return False
        labels = {label for label, _ in group}
        armed_at = {at for _, at in group}
        return len(labels) >= 2 and len(armed_at) >= 2

    def _close_group(self) -> None:
        group = self._group
        if len(group) > self._max_group:
            self._max_group = len(group)
        if self._is_ambiguous(group):
            self._ambiguous += 1
            if len(self._details) < DETAIL_CAP:
                self._details.append(AmbiguousTimestamp(
                    time_ns=self._group_time,
                    callbacks=tuple(sorted({label for label, _ in group})),
                    events=len(group),
                ))
        group.clear()

    # -- reporting ---------------------------------------------------------
    def report(self) -> SanitizerReport:
        """Non-destructive snapshot (includes the open group)."""
        ambiguous = self._ambiguous
        details = list(self._details)
        max_group = max(self._max_group, len(self._group))
        if self._is_ambiguous(self._group):
            ambiguous += 1
            if len(details) < DETAIL_CAP:
                details.append(AmbiguousTimestamp(
                    time_ns=self._group_time,
                    callbacks=tuple(sorted({label for label, _ in self._group})),
                    events=len(self._group),
                ))
        return SanitizerReport(
            events=self._events,
            digest=self._digest.copy().hexdigest(),
            ambiguous_timestamps=ambiguous,
            max_same_time_events=max_group,
            ambiguities=tuple(details),
        )
