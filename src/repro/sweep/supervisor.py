"""Supervised, fault-tolerant dispatch of sweep cells to workers.

``multiprocessing.Pool`` is the wrong substrate for multi-hour
campaigns: one segfaulted or OOM-killed worker breaks the pool and
``imap_unordered`` either hangs or aborts the whole run, throwing
away every completed cell. :class:`SweepSupervisor` replaces that
drain with an explicit dispatch loop over plain ``Process`` workers:

* **per-PID in-flight tracking** — the supervisor assigns exactly one
  cell to one worker at a time over a private pipe, so when a worker
  dies it knows precisely which cell was lost;
* **death detection + respawn** — dead workers (any exit: SIGKILL,
  ``os._exit``, segfault) are detected on the supervision tick, their
  in-flight cell is requeued, and a replacement is spawned under
  exponential backoff (``_RESPAWN_BACKOFF_S`` doubling up to
  ``_RESPAWN_BACKOFF_CAP_S``, so a crash-looping environment degrades
  to slow progress, not a fork bomb);
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

#: Dispatch pipelining: cells queued per worker (the head runs, the
#: rest wait in the worker's pipe). Depth 2 hides the result/next-job
#: round trip on short cells; a worker death charges an attempt only
#: to the head — queued cells requeue for free.
_PREFETCH = 2

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


def _next_jobs(conn, parent_pid: int):
    """The next job batch from ``conn``; None once the parent is gone.

    A forked worker inherits the parent's end of its own pipe (and its
    siblings'), so a SIGKILLed parent never shows up as EOF here: the
    worker would sleep in ``recv`` forever. Waiting in bounded polls
    and checking for reparenting in between lets it exit instead.
    """
    while not conn.poll(_ORPHAN_POLL_S):
        if os.getppid() != parent_pid:
            return None
    return conn.recv()


def _worker_main(conn, task, flush: int, progress_fd: int, parent_pid: int) -> None:
    """Worker loop: receive ``[(key, payload, attempt), ...]``, run, report.

    Jobs arrive in batches (one pipe message may carry several
    prefetched cells) and outcomes — success or exception — go back
    the same way: a list of ``(tag, key, body)`` records, in cell
    order, flushed every ``flush`` results and always at the end of a
    job batch. The supervisor sets ``flush=1`` whenever a per-cell
    deadline is armed, so the watchdog sees each cell individually;
    without a deadline, batching saves a parent wake-up (a context
    switch, on an oversubscribed host) per cell. Exceptions never
    escape: an uncaught error would kill the worker and turn a
    retryable cell failure into a (costlier) worker death.

    Results deliberately travel over the per-worker pipe rather than
    a shared ``multiprocessing.Queue``: the shared queue's write lock
    is held by a background feeder thread, and a worker SIGKILLed (or
    chaos ``os._exit``-ed) in the instant between finishing the pipe
    write and releasing that lock leaves the lock wedged forever —
    silencing every *other* worker. A private pipe has no cross-worker
    state, so a dying worker can lose only its own messages, which the
    death sweep already recovers by requeueing the in-flight cells.

    ``progress_fd`` (fork platforms; ``-1`` elsewhere) is the write
    end of a raw side-pipe: one byte per completed cell, written
    *before* the result is (maybe later) flushed. The supervisor
    never selects on it — a tick costs the worker ~1µs and wakes
    nobody — but reads it when this worker dies, to tell cells that
    finished (results buffered, lost with the corpse) from the cell
    that was actually executing: only the latter is charged a retry
    attempt.

    ``parent_pid`` is the supervisor's PID at spawn: an idle worker
    exits once it has been reparented (see :func:`_next_jobs`).
    """
    stop = False
    last_send = time.monotonic()
    while not stop:
        try:
            jobs = _next_jobs(conn, parent_pid)
        except (EOFError, OSError):
            break
        if jobs is None:
            break
        buffered: list[tuple[str, str, Any]] = []
        for key, payload, attempt in jobs:
            try:
                out = task(payload, attempt)
                buffered.append(("done", key, out))
            except KeyboardInterrupt:  # pragma: no cover - interactive
                stop = True
                break
            except BaseException as error:
                detail = (
                    f"{type(error).__name__}: {error}\n"
                    f"{traceback.format_exc()}"
                )
                buffered.append(("error", key, detail))
            if progress_fd >= 0:
                try:
                    os.write(progress_fd, b"\x01")
                except OSError:  # pragma: no cover - parent gone
                    pass
            # The time bound keeps slow cells reporting individually —
            # batching only ever holds back results that are
            # milliseconds old.
            now = time.monotonic()
            if len(buffered) >= flush or now - last_send > _TICK_S:
                try:
                    conn.send(buffered)
                except (OSError, BrokenPipeError):  # pragma: no cover
                    stop = True
                    break
                buffered = []
                last_send = now
        if buffered and not stop:
            try:
                conn.send(buffered)
                last_send = time.monotonic()
            except (OSError, BrokenPipeError):  # pragma: no cover - parent gone
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already gone
        pass


@dataclass
class _Worker:
    proc: Any
    conn: Any
    #: In-flight items ``(key, label, payload, attempt)`` in dispatch
    #: order: the head is executing, the rest are prefetched into the
    #: worker's pipe. Empty = idle.
    queue: deque = field(default_factory=deque)
    #: When the head item (is believed to have) started executing.
    started: float = 0.0
    #: Read end of the progress side-pipe (-1 on spawn platforms).
    progress_fd: int = -1
    #: Progress bytes drained so far (cells the worker completed).
    ticks: int = 0
    #: Result records received from this worker.
    acked: int = 0

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
        self._depth = _PREFETCH
        # Results per worker message: batching amortizes parent
        # wake-ups, but an armed deadline needs per-cell reports for
        # exact per-cell timing. The progress side-pipe rides on fd
        # inheritance, so spawn platforms also fall back to per-cell
        # reports (which need no death-time disambiguation).
        self._use_progress = self._ctx.get_start_method() == "fork"
        if self.policy.deadline_s is not None or not self._use_progress:
            self._flush = 1
        else:
            self._flush = 8
        #: Per-run count of finished-but-lost results per cell key
        #: (bounds the free requeues a poison result can earn).
        self._lost: dict[str, int] = {}
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
            if w.queue and w.proc.is_alive()
        ]

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        progress_r = progress_w = -1
        if self._use_progress:
            progress_r, progress_w = os.pipe()
            os.set_blocking(progress_r, False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._task, self._flush, progress_w, os.getpid()),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if progress_w >= 0:
            os.close(progress_w)
        worker = _Worker(proc=proc, conn=parent_conn, progress_fd=progress_r)
        self._workers[worker.pid] = worker
        self._selector.register(parent_conn, selectors.EVENT_READ, worker)
        if self._deaths_unreplaced:
            self._deaths_unreplaced -= 1
            self.stats["respawns"] += 1
        return worker

    def _discard_worker(self, worker: _Worker) -> None:
        self._workers.pop(worker.pid, None)
        try:
            self._selector.unregister(worker.conn)
        except (KeyError, ValueError):  # already unregistered (EOF)
            pass
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        if worker.progress_fd >= 0:
            try:
                os.close(worker.progress_fd)
            except OSError:  # pragma: no cover - already gone
                pass
            worker.progress_fd = -1
        if worker.proc.is_alive():  # pragma: no cover - defensive
            worker.proc.kill()
        worker.proc.join(timeout=5)

    def _note_death(self) -> None:
        """Arm the exponential respawn backoff after a worker death."""
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
            worker.proc.terminate()
        for worker in list(self._workers.values()):
            worker.proc.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            if worker.progress_fd >= 0:
                try:
                    os.close(worker.progress_fd)
                except OSError:  # pragma: no cover
                    pass
                worker.progress_fd = -1
        self._workers.clear()
        self._selector.close()

    def _drain_progress(self, worker: _Worker) -> int:
        """Absorb the worker's progress ticks; return the total seen."""
        while worker.progress_fd >= 0:
            try:
                chunk = os.read(worker.progress_fd, 4096)
            except BlockingIOError:
                break
            except OSError:  # pragma: no cover - fd closed underneath
                break
            if not chunk:
                break
            worker.ticks += len(chunk)
        return worker.ticks

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
        if len({entry[0] for entry in pending}) != total:
            raise ValueError("supervised items must have unique keys")
        known = {entry[0] for entry in pending}
        # Prefetch depth: normally shallow (load balance beats IPC
        # savings when cores are real), but an oversubscribed fleet
        # (more workers than cores) is time-slice-equalized anyway —
        # queue one worker's whole share and save the round trips,
        # exactly the old pool's chunksize policy.
        self._depth = _PREFETCH
        if self.size > (os.cpu_count() or 1):
            self._depth = max(self._depth, -(-total // max(1, self.size)))
        retry_heap: list[tuple[float, int, tuple[str, str, Any, int]]] = []
        retry_seq = 0
        self._lost = {}
        failures: dict[str, list[AttemptFailure]] = {}
        settled: set[str] = set()  # completed or quarantined
        done = 0
        last_sweep = 0.0
        self._drain_stale()

        def fail(
            item: tuple[str, str, Any, int],
            kind: str,
            detail: str,
            pid: int | None,
            elapsed: float,
        ) -> QuarantinedCell | None:
            """Record a failed attempt; requeue or quarantine."""
            nonlocal retry_seq
            key, label, payload, attempt = item
            failures.setdefault(key, []).append(
                AttemptFailure(attempt, kind, detail, pid, elapsed)
            )
            if attempt > policy.max_retries:
                cell = QuarantinedCell(key, label, failures.pop(key))
                self.stats["quarantined"] += 1
                return cell
            self.stats["retries" if kind == KIND_ERROR else "requeues"] += 1
            ready = time.monotonic() + policy.backoff_for(attempt)
            retry_seq += 1
            heapq.heappush(
                retry_heap, (ready, retry_seq, (key, label, payload, attempt + 1))
            )
            return None

        # NB: a consumer bailing out mid-run (exception in on_result,
        # KeyboardInterrupt) leaves workers crunching stale cells;
        # their late reports are discarded by the ``known`` guard (or
        # by _drain_stale on the next run's entry), so an abandoned
        # run never poisons a later one.
        while done < total:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _ready, _seq, item = heapq.heappop(retry_heap)
                if item[0] not in settled:
                    pending.append(item)
            self._dispatch(pending, settled, now)

            messages = self._poll(self._poll_timeout(retry_heap, now))
            for tag, pid, key, body in messages or ():
                worker = self._workers.get(pid)
                item = None
                elapsed = 0.0
                if worker is not None:
                    worker.acked += 1
                if (
                    worker is not None
                    and worker.queue
                    and worker.queue[0][0] == key
                ):
                    item = worker.queue.popleft()
                    arrived = time.monotonic()
                    elapsed = arrived - worker.started
                    # The next prefetched cell starts the moment the
                    # worker reports this one.
                    worker.started = arrived
                if item is None or key not in known or key in settled:
                    # Stale: a prior (abandoned) run's leftover, a
                    # duplicate after a racing deadline-kill, or a
                    # message from a worker we already wrote off. The
                    # payload is dropped.
                    pass
                elif tag == "done":
                    self._respawn_streak = 0
                    self._respawn_at = 0.0
                    settled.add(key)
                    done += 1
                    yield "done", body
                else:  # "error"
                    quarantined = fail(item, KIND_ERROR, body, pid, elapsed)
                    if quarantined is not None:
                        settled.add(key)
                        done += 1
                        yield "quarantined", quarantined

            # Liveness/deadline sweep: throttled to the supervision
            # tick while messages are flowing (each check is a
            # waitpid per worker), but immediate when the poll came
            # back empty — a dead worker's pipe EOF wakes the poll,
            # so death recovery is never delayed by the throttle.
            now = time.monotonic()
            if messages is not None and now - last_sweep < _TICK_S:
                continue
            last_sweep = now
            for worker in list(self._workers.values()):
                # Keep the progress side-pipe shallow so it can never
                # fill up and block a worker's 1-byte tick.
                self._drain_progress(worker)
                if (
                    worker.queue
                    and policy.deadline_s is not None
                    and now - worker.started > policy.deadline_s
                    and worker.proc.is_alive()
                ):
                    # Kill the whole worker: the stuck cell may be
                    # wedged in C code where nothing gentler lands.
                    worker.proc.kill()
                    worker.proc.join(timeout=5)
                    self.stats["deadline_kills"] += 1
                    for event in self._recover(
                        worker, pending, settled, fail, KIND_DEADLINE,
                        f"exceeded the {policy.deadline_s:g}s cell deadline "
                        f"(worker {worker.pid} killed)",
                        now,
                    ):
                        done += 1
                        yield event
                elif not worker.proc.is_alive():
                    self.stats["worker_deaths"] += 1
                    for event in self._recover(
                        worker, pending, settled, fail, KIND_DEATH,
                        f"worker {worker.pid} died mid-cell "
                        f"(exit code {worker.proc.exitcode})",
                        now,
                    ):
                        done += 1
                        yield event

    def _recover(
        self, worker: _Worker, pending: deque, settled: set[str],
        fail, kind: str, detail: str, now: float,
    ):
        """Write off a dead worker, charging only the cell that ran.

        The progress pipe says how many queued cells the worker had
        *finished* whose buffered results died with it: those requeue
        without consuming an attempt — the cell did not fail, its
        report was lost. The cell actually executing at death is
        charged, and prefetched cells that never started also requeue
        for free. A finished cell whose result is lost more than
        ``max_retries`` times gets charged anyway, so a result that
        reliably kills its worker (a poison payload) converges to
        quarantine instead of looping forever. Yields quarantine
        events for charged cells that exhausted their budget.
        """
        queued = list(worker.queue)
        worker.queue.clear()
        finished = self._drain_progress(worker) - worker.acked
        finished = max(0, min(finished, len(queued)))
        self._discard_worker(worker)
        self._note_death()
        charged = []
        requeue = []
        for index, item in enumerate(queued):
            if item[0] in settled:
                continue
            if index == finished:
                charged.append(item)
            elif index < finished:
                lost = self._lost.get(item[0], 0) + 1
                self._lost[item[0]] = lost
                if lost > self.policy.max_retries:
                    charged.append(item)
                else:
                    requeue.append(item)
            else:
                requeue.append(item)
        for item in reversed(requeue):
            pending.appendleft(item)
        for item in charged:
            quarantined = fail(
                item, kind, detail, worker.pid, now - worker.started
            )
            if quarantined is not None:
                settled.add(item[0])
                yield "quarantined", quarantined

    def _dispatch(
        self, pending: deque, settled: set[str], now: float
    ) -> None:
        """Hand pending items to workers, spawning and prefetching.

        Items are assigned worker by worker, then shipped as one pipe
        message per worker: the initial fill of a deep prefetch queue
        (oversubscribed fleets queue a whole share) costs one
        pickle+write instead of one per cell.
        """
        batches: dict[int, tuple[_Worker, list]] = {}
        while pending:
            if pending[0][0] in settled:
                pending.popleft()
                continue
            worker = self._ready_worker(now)
            if worker is None:
                break
            item = pending.popleft()
            worker.queue.append(item)
            batch = batches.get(worker.pid)
            if batch is None:
                batch = batches[worker.pid] = (worker, [])
            batch[1].append((item[0], item[2], item[3]))
        for worker, jobs in batches.values():
            fresh = len(worker.queue) == len(jobs)  # was idle before this batch
            try:
                worker.conn.send(jobs)
            except (OSError, ValueError):
                # The worker died between checks; take its unsent
                # items back and let the death sweep account for the
                # corpse.
                for _ in jobs:
                    pending.appendleft(worker.queue.pop())
                continue
            if fresh:
                worker.started = time.monotonic()

    def _ready_worker(self, now: float) -> _Worker | None:
        """An idle worker, a fresh spawn, or the shallowest prefetch slot.

        Deliberately no liveness probe here — ``is_alive`` is a
        waitpid syscall per worker per dispatch. A corpse's pipe
        refuses the send immediately (the unwind above) and the
        EOF-woken sweep writes it off, so the hot path stays
        syscall-free.
        """
        best = None
        for worker in self._workers.values():
            depth = len(worker.queue)
            if depth == 0:
                return worker
            if depth < self._depth and (
                best is None or depth < len(best.queue)
            ):
                best = worker
        if len(self._workers) < self.size and now >= self._respawn_at:
            return self._spawn()
        return best

    def _poll_timeout(self, retry_heap: list, now: float) -> float:
        """How long the message wait may block this iteration."""
        timeout = _TICK_S
        if retry_heap:
            timeout = min(timeout, max(0.0, retry_heap[0][0] - now))
        if self._respawn_at > now:
            timeout = min(timeout, self._respawn_at - now)
        deadline = self.policy.deadline_s
        if deadline is not None:
            for worker in self._workers.values():
                if worker.queue:
                    timeout = min(
                        timeout, max(0.0, worker.started + deadline - now)
                    )
        return max(timeout, 0.001)

    def _poll(self, timeout: float):
        """Wait up to ``timeout`` for one worker report.

        Returns a list of ``(tag, pid, key, body)`` records — one
        pipe message carries up to ``_flush`` results — or None if
        nothing arrived. A dead worker's pipe reads as EOF — that is
        not a message but a symptom: the conn is unregistered here
        (so it cannot spin the selector) and the liveness sweep
        recovers the in-flight cells.
        """
        try:
            events = self._selector.select(timeout)
        except OSError:  # pragma: no cover - conn closed underneath
            return None
        for key, _mask in events:
            worker = key.data
            try:
                batch = key.fileobj.recv()
                return [(tag, worker.pid, k, body) for tag, k, body in batch]
            except EOFError:
                try:
                    self._selector.unregister(key.fileobj)
                except (KeyError, ValueError):  # pragma: no cover
                    pass
                continue
            except (OSError, ValueError, TypeError, pickle.UnpicklingError):
                # A worker killed mid-send leaves a torn pickle; the
                # liveness sweep recovers the cells, so the garbage
                # is counted and dropped.
                self.stats["garbled_messages"] += 1
                continue
        return None

    def _drain_stale(self) -> None:
        """Discard leftover messages from an abandoned previous run."""
        while True:
            messages = self._poll(0)
            if messages is None:
                return
            for _tag, pid, _key, _body in messages:
                worker = self._workers.get(pid)
                if worker is None:
                    continue
                worker.acked += 1
                # Messages arrive FIFO per worker: whatever we just
                # drained settles that worker's oldest queued item.
                if worker.queue:
                    worker.queue.popleft()
