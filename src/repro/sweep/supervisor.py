"""Supervised, fault-tolerant dispatch of sweep cells to workers.

``multiprocessing.Pool`` is the wrong substrate for multi-hour
campaigns: one segfaulted or OOM-killed worker breaks the pool and
``imap_unordered`` either hangs or aborts the whole run, throwing
away every completed cell. :class:`SweepSupervisor` replaces that
drain with an explicit dispatch loop over plain ``Process`` workers:

* **one cell in flight per worker** — a worker gets one cell over a
  private pipe and reports it the moment it finishes, and only then
  gets the next, so a dead worker lost exactly one known cell;
* **death detection + respawn** — a dead worker (any exit: SIGKILL,
  ``os._exit``, segfault) is seen by its pipe's EOF, backed by a
  liveness sweep every tick; any report it left in the pipe is read
  first, then its in-flight cell is charged and requeued, and a
  replacement is spawned under exponential backoff
  (``_RESPAWN_BACKOFF_S`` doubling up to ``_RESPAWN_BACKOFF_CAP_S``:
  a crash-looping host degrades to slow progress, not a fork bomb);
* **per-cell deadlines** — a cell that exceeds
  :attr:`CellPolicy.deadline_s` wall-clock gets its worker killed and
  the cell requeued (stuck simulations cannot wedge the campaign);
* **bounded retries + quarantine** — every failure (worker death,
  deadline kill, or an exception from the cell) consumes one attempt;
  a cell that exhausts :attr:`CellPolicy.max_retries` is quarantined
  with its label, per-attempt failure history and traceback, and the
  sweep completes the rest of the grid instead of aborting.

Because cells are deterministic functions of their spec, a retried
cell produces byte-identical results — so a chaos-ridden run's final
CSV matches the fault-free run exactly (pinned by the chaos tests and
the CI chaos job; see :mod:`repro.sweep.chaos`).

Workers persist across :meth:`run` calls (the supervisor is owned by
a :class:`~repro.sweep.session.SweepSession`), so growing a session's
parallelism later just spawns more workers instead of restarting the
fleet. A worker whose supervisor dies (even by SIGKILL) exits the
next time it waits for work. With a disk store, workers write each
finished cell's record themselves, so nothing that finished is lost
with the supervisor: rerunning the grid against the same store
simulates only the cells that were still missing.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import pickle
import selectors
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

#: Supervision tick: the upper bound on how long death/deadline
#: detection lags behind the event (results themselves arrive
#: immediately via the worker pipes, untouched by this granularity).
_TICK_S = 0.05

#: How often an idle worker checks that its parent is still alive.
_ORPHAN_POLL_S = 0.5

#: Delay before replacing a dead worker, doubling per consecutive
#: death up to the cap.
_RESPAWN_BACKOFF_S = 0.1
_RESPAWN_BACKOFF_CAP_S = 2.0

#: Failure kinds recorded in attempt histories.
KIND_ERROR = "error"  # the cell raised
KIND_DEATH = "worker-death"  # the worker process died mid-cell
KIND_DEADLINE = "deadline"  # the supervisor killed a stuck cell


@dataclass(frozen=True)
class CellPolicy:
    """Retry/deadline/quarantine policy for supervised cells.

    ``max_retries`` counts *extra* attempts after the first: the
    default 3 means a cell may run up to 4 times before it is
    quarantined. ``retry_backoff_s`` doubles per failed attempt.
    ``deadline_s`` is the per-attempt wall-clock budget (``None``
    disables the watchdog; serial in-process runs never enforce it —
    there is no second process to do the killing).
    """

    max_retries: int = 3
    retry_backoff_s: float = 0.05
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")

    def backoff_for(self, attempt: int) -> float:
        """Delay before re-dispatching after failed attempt ``attempt``."""
        return self.retry_backoff_s * (2 ** max(0, attempt - 1))


@dataclass
class AttemptFailure:
    """One failed attempt of one cell."""

    attempt: int
    kind: str  # KIND_ERROR / KIND_DEATH / KIND_DEADLINE
    detail: str  # message + traceback (error) or exit description
    worker_pid: int | None
    elapsed_s: float

    def as_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "kind": self.kind,
            "detail": self.detail,
            "worker_pid": self.worker_pid,
            "elapsed_s": round(self.elapsed_s, 3),
        }


@dataclass
class QuarantinedCell:
    """A cell that exhausted its retry budget; the sweep went on."""

    key: str
    label: str
    failures: list[AttemptFailure] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "attempts": len(self.failures),
            "failures": [failure.as_dict() for failure in self.failures],
        }


def _next_job(conn, parent_pid: int):
    """The next job from ``conn``; None once the parent is gone.

    A forked worker inherits the parent's end of its own pipe (and its
    siblings'), so a SIGKILLed parent never shows up as EOF here: the
    worker would sleep in ``recv`` forever. Waiting in bounded polls
    and checking for reparenting in between lets it exit instead.
    """
    try:
        while not conn.poll(_ORPHAN_POLL_S):
            if os.getppid() != parent_pid:
                return None
        return conn.recv()
    except (EOFError, OSError):
        return None


def _describe(error: BaseException) -> str:
    """An attempt-history detail: the error and its traceback."""
    return f"{type(error).__name__}: {error}\n{traceback.format_exc()}"


def _worker_main(conn, task, parent_pid: int) -> None:
    """Worker loop: receive ``(key, payload, attempt)``, run it, report.

    Each job gets one report, sent the moment the cell finishes:
    ``("done", key, result)`` or ``("error", key, detail)``. Exceptions
    never escape — an uncaught error would turn a retryable cell
    failure into a (costlier) worker death. That includes a result
    that does not pickle: the report is pickled before anything is
    written, so the pickling error is reported as the cell's failure.

    Reports travel over the per-worker pipe, not a shared
    ``multiprocessing.Queue``: a worker SIGKILLed (or chaos
    ``os._exit``-ed) while the queue's feeder thread holds its write
    lock wedges that lock forever, silencing every *other* worker. A
    private pipe has no cross-worker state; a dying worker can lose
    only its own report.

    ``parent_pid`` is the supervisor's PID at spawn: an idle worker
    exits once it has been reparented (see :func:`_next_job`).
    """
    while (job := _next_job(conn, parent_pid)) is not None:
        key, payload, attempt = job
        try:
            report = ("done", key, task(payload, attempt))
        except KeyboardInterrupt:  # pragma: no cover - interactive
            break
        except BaseException as error:
            report = ("error", key, _describe(error))
        try:
            message = pickle.dumps(report)
        except Exception as error:  # the result does not pickle
            message = pickle.dumps(("error", key, _describe(error)))
        try:
            conn.send_bytes(message)
        except OSError:  # pragma: no cover - parent gone
            break
    conn.close()


@dataclass
class _Worker:
    proc: Any
    conn: Any
    #: The in-flight item ``(key, label, payload, attempt)``; None = idle.
    item: Any = None
    #: When the in-flight item was sent.
    started: float = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid


class SweepSupervisor:
    """Owns a fleet of worker processes and drives cells through them.

    Parameters
    ----------
    workers:
        Target fleet size (grown lazily; never exceeds outstanding
        work).
    task:
        ``task(payload, attempt) -> result`` executed in the worker.
        Must be a picklable module-level callable.
    policy:
        Retry/deadline/quarantine policy (default :class:`CellPolicy`).
    """

    def __init__(
        self,
        workers: int,
        task: Callable[[Any, int], Any],
        policy: CellPolicy | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.size = workers
        self._task = task
        self.policy = policy if policy is not None else CellPolicy()
        # fork is cheapest and safe on Linux; elsewhere (macOS lists
        # fork as available but it is unsafe with threaded BLAS) use
        # spawn, the platform default.
        self._ctx = multiprocessing.get_context(
            "fork" if sys.platform.startswith("linux") else "spawn"
        )
        self._workers: dict[int, _Worker] = {}
        # One persistent selector over the worker pipes: registration
        # changes only on spawn/discard, so the per-message hot path
        # is a single select() call. A dying worker's pipe hits EOF,
        # which wakes the selector immediately — death detection is
        # event-driven, not tick-bound.
        self._selector = selectors.DefaultSelector()
        self._respawn_streak = 0
        self._deaths_unreplaced = 0
        self._respawn_at = 0.0
        self._closed = False
        #: Lifetime fault counters (reset per run by the session).
        self.stats = self._zero_stats()

    @staticmethod
    def _zero_stats() -> dict[str, int]:
        return {
            "retries": 0,
            "requeues": 0,
            "deadline_kills": 0,
            "worker_deaths": 0,
            "respawns": 0,
            "quarantined": 0,
            "garbled_messages": 0,
        }

    # -- fleet management ------------------------------------------------
    def grow_to(self, workers: int) -> None:
        """Raise the target fleet size (existing workers stay warm)."""
        self.size = max(self.size, workers)

    def worker_pids(self) -> list[int]:
        """PIDs of live workers (tests and diagnostics)."""
        return [pid for pid, w in self._workers.items() if w.proc.is_alive()]

    def inflight_pids(self) -> list[int]:
        """PIDs currently executing a cell (tests kill these)."""
        return [
            pid
            for pid, w in self._workers.items()
            if w.item is not None and w.proc.is_alive()
        ]

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._task, os.getpid()),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc=proc, conn=parent_conn)
        self._workers[worker.pid] = worker
        self._selector.register(parent_conn, selectors.EVENT_READ, worker)
        if self._deaths_unreplaced:
            self._deaths_unreplaced -= 1
            self.stats["respawns"] += 1
        return worker

    def _unregister(self, worker: _Worker) -> None:
        try:
            self._selector.unregister(worker.conn)
        except (KeyError, ValueError):  # already unregistered (EOF)
            pass

    def _discard_worker(self, worker: _Worker) -> None:
        self._workers.pop(worker.pid, None)
        self._unregister(worker)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5)

    def _write_off(self, worker: _Worker) -> None:
        """Discard a dead worker and arm the exponential respawn backoff."""
        self._discard_worker(worker)
        self._respawn_streak += 1
        self._deaths_unreplaced += 1
        delay = min(
            _RESPAWN_BACKOFF_CAP_S,
            _RESPAWN_BACKOFF_S * (2 ** (self._respawn_streak - 1)),
        )
        self._respawn_at = time.monotonic() + delay

    def close(self) -> None:
        """Terminate the worker fleet (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in list(self._workers.values()):
            self._discard_worker(worker)
        self._selector.close()

    # -- dispatch loop ---------------------------------------------------
    def run(
        self, items: Iterable[tuple[str, str, Any]]
    ) -> Iterator[tuple[str, Any]]:
        """Drive every item to completion or quarantine.

        ``items`` are ``(key, label, payload)`` triples with unique
        keys. Yields ``("done", result)`` / ``("quarantined",
        QuarantinedCell)`` events in arrival order. The generator
        returns only when every item is accounted for — worker deaths,
        stuck cells and transient errors are absorbed along the way.
        """
        if self._closed:
            raise RuntimeError("supervisor is closed")
        policy = self.policy
        pending: deque[tuple[str, str, Any, int]] = deque(
            (key, label, payload, 1) for key, label, payload in items
        )
        total = len(pending)
        if len({item[0] for item in pending}) != total:
            raise ValueError("supervised items must have unique keys")
        # A consumer that bailed out of an earlier run left workers on
        # cells this run does not know: retire them rather than sort
        # out their late reports. A finished run leaves all idle.
        for worker in list(self._workers.values()):
            if worker.item is not None:
                self._discard_worker(worker)
        retry_heap: list[tuple[float, int, tuple[str, str, Any, int]]] = []
        retry_seq = itertools.count()
        failures: dict[str, list[AttemptFailure]] = {}
        done = 0
        last_sweep = 0.0

        def fail(worker: _Worker, kind: str, detail: str):
            """Charge the worker's cell one attempt; requeue or quarantine."""
            key, label, payload, attempt = worker.item
            worker.item = None
            elapsed = time.monotonic() - worker.started
            failures.setdefault(key, []).append(
                AttemptFailure(attempt, kind, detail, worker.pid, elapsed)
            )
            if attempt > policy.max_retries:
                self.stats["quarantined"] += 1
                return "quarantined", QuarantinedCell(key, label, failures.pop(key))
            self.stats["retries" if kind == KIND_ERROR else "requeues"] += 1
            ready = time.monotonic() + policy.backoff_for(attempt)
            heapq.heappush(
                retry_heap,
                (ready, next(retry_seq), (key, label, payload, attempt + 1)),
            )
            return None

        def settle(worker: _Worker, report: tuple):
            """Account the worker's report on its cell; an event or None."""
            tag, _key, body = report
            if tag == "done":
                worker.item = None
                self._respawn_streak = 0
                self._respawn_at = 0.0
                return "done", body
            return fail(worker, KIND_ERROR, body)

        while done < total:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                pending.append(heapq.heappop(retry_heap)[2])
            self._dispatch(pending, now)

            reports = self._poll(self._poll_timeout(retry_heap, now))
            for worker, report in reports:
                event = settle(worker, report)
                if event is not None:
                    done += 1
                    yield event

            # Liveness/deadline sweep: throttled to the supervision
            # tick while reports are flowing (each check is a waitpid
            # per worker), but immediate when the poll came back empty
            # — a dead worker's pipe EOF wakes the poll, so death
            # recovery is never delayed by the throttle.
            now = time.monotonic()
            if reports and now - last_sweep < _TICK_S:
                continue
            last_sweep = now
            for worker in list(self._workers.values()):
                loss = self._casualty(worker, now)
                if loss is None:
                    continue
                event = None
                if worker.item is not None:
                    # A cell that finished before its worker died is
                    # done, not failed: read any report it left first.
                    report = self._receive(worker) if worker.conn.poll(0) else None
                    event = settle(worker, report) if report else fail(worker, *loss)
                self._write_off(worker)
                if event is not None:
                    done += 1
                    yield event

    def _casualty(self, worker: _Worker, now: float) -> tuple[str, str] | None:
        """``(kind, detail)`` if ``worker`` is dead or overdue, else None.

        An overdue worker is killed here — the whole worker, since its
        stuck cell may be wedged in C code where nothing gentler lands.
        One whose report is already waiting in its pipe finished in
        time to be heard: it is left for the next poll to settle.
        """
        deadline = self.policy.deadline_s
        if worker.proc.is_alive():
            if not (worker.item and deadline and now - worker.started > deadline):
                return None
            if worker.conn.poll(0):
                return None
            worker.proc.kill()
            worker.proc.join(timeout=5)
            self.stats["deadline_kills"] += 1
            return KIND_DEADLINE, (
                f"exceeded the {deadline:g}s cell deadline "
                f"(worker {worker.pid} killed)"
            )
        self.stats["worker_deaths"] += 1
        return KIND_DEATH, (
            f"worker {worker.pid} died mid-cell (exit code {worker.proc.exitcode})"
        )

    def _dispatch(self, pending: deque, now: float) -> None:
        """Give each idle worker one pending item, spawning up to size.

        Deliberately no liveness probe here — ``is_alive`` is a
        waitpid syscall per worker per dispatch. A corpse's pipe
        refuses the send at once: the item goes back uncharged and the
        worker is written off as dead.
        """
        while pending:
            worker = next(
                (w for w in self._workers.values() if w.item is None), None
            )
            if worker is None:
                if len(self._workers) >= self.size or now < self._respawn_at:
                    return
                worker = self._spawn()
            key, _label, payload, attempt = pending[0]
            try:
                worker.conn.send((key, payload, attempt))
            except (OSError, ValueError):
                self.stats["worker_deaths"] += 1
                self._write_off(worker)
                continue
            worker.item = pending.popleft()
            worker.started = time.monotonic()

    def _poll_timeout(self, retry_heap: list, now: float) -> float:
        """How long the report wait may block this iteration."""
        timeout = _TICK_S
        if retry_heap:
            timeout = min(timeout, max(0.0, retry_heap[0][0] - now))
        if self._respawn_at > now:
            timeout = min(timeout, self._respawn_at - now)
        deadline = self.policy.deadline_s
        if deadline is not None:
            for worker in self._workers.values():
                if worker.item is not None:
                    timeout = min(
                        timeout, max(0.0, worker.started + deadline - now)
                    )
        return max(timeout, 0.001)

    def _poll(self, timeout: float) -> list[tuple[_Worker, tuple]]:
        """Wait up to ``timeout`` for worker reports; ``(worker, report)``s."""
        try:
            events = self._selector.select(timeout)
        except OSError:  # pragma: no cover - conn closed underneath
            return []
        received = [(key.data, self._receive(key.data)) for key, _mask in events]
        return [(worker, report) for worker, report in received if report]

    def _receive(self, worker: _Worker) -> tuple | None:
        """Read one report from ``worker``'s pipe; None if there is none.

        A dead worker's pipe reads as EOF: the conn is unregistered
        (so it cannot spin the selector) and the liveness sweep charges
        the in-flight cell. A worker killed mid-send leaves a torn
        pickle, which is counted and dropped.
        """
        try:
            return worker.conn.recv()
        except EOFError:
            self._unregister(worker)
        except (OSError, ValueError, TypeError, pickle.UnpicklingError):
            self.stats["garbled_messages"] += 1
        return None
