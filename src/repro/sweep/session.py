"""Persistent sweep execution sessions.

A sweep of short cells is dominated by fixed per-run costs: a cold
worker pool per ``run()`` call and chunksize-1 ordered dispatch.
:class:`SweepSession` owns those costs once:

* a **persistent supervised worker fleet**
  (:class:`~repro.sweep.supervisor.SweepSupervisor`), created lazily
  and reused across ``run()`` calls (and across benchmark invocations
  through ``benchmarks/_common.py``); the supervisor tracks the
  in-flight cell per worker PID, so worker death, stuck cells, and
  transient cell failures are retried under the session's
  :class:`~repro.sweep.supervisor.CellPolicy` and — past the retry
  budget — quarantined, letting the sweep degrade gracefully to
  completion instead of aborting (see ``docs/robustness.md``);
* a **fresh build per cell** — every cell constructs its own runtime
  (``Cell.build``) and the session keeps no reference to it once the
  result is collected, so no state crosses cells; the cyclic garbage
  collector is kept off the runtime while it is built and run, and
  dead runtimes are reclaimed by a budgeted collection before a build
  (see ``_build_and_run``);
* **unordered single-flight dispatch** — each worker has one cell in
  flight and reports it the moment it finishes, so the next cell goes
  to whichever worker frees up; the deterministic cell order of the
  returned :class:`SweepResults` is reconstructed from cache keys, so
  results stay bit-identical to serial runs (retried cells
  re-simulate deterministically, so even a chaos-ridden run converges
  to the same bytes);
* **streaming** — store records are written as results arrive (by the
  worker itself for disk stores, so a finished cell survives the
  death of the parent and a rerun with the same store picks it up),
  and the optional ``on_result`` callback sees finished cells in
  deterministic cell order without waiting for the whole grid.
"""

from __future__ import annotations

import gc
import os
import traceback
from time import perf_counter, process_time, sleep
from typing import Callable, Sequence

from repro.server.experiment import ExperimentResult
from repro.sweep import chaos
from repro.sweep.aggregate import CellAggregate, aggregate_over_seeds
from repro.sweep.spec import ExperimentSpec, SweepSpec
from repro.sweep.store import ResultStore, StreamingCsvWriter
from repro.sweep.supervisor import (
    KIND_ERROR,
    AttemptFailure,
    CellPolicy,
    QuarantinedCell,
    SweepSupervisor,
)


class SweepCellError(RuntimeError):
    """A sweep cell failed; the message names the offending cell.

    Raised in place of the worker's bare exception so a failure deep
    inside a pool names its config/scenario/rate/seed instead of only
    a traceback from an anonymous process.
    """


def default_workers() -> int:
    """Worker count honouring the ``REPRO_SWEEP_WORKERS`` override.

    Like the CLI's ``--workers``, a value of 0 (or unset) means one
    worker per core.
    """
    override = os.environ.get("REPRO_SWEEP_WORKERS")
    if override:
        try:
            count = int(override)
        except ValueError:
            raise ValueError(
                f"REPRO_SWEEP_WORKERS must be an integer, got {override!r}"
            ) from None
        if count < 0:
            raise ValueError(f"REPRO_SWEEP_WORKERS must be >= 0, got {count}")
        if count > 0:
            return count
    return max(1, os.cpu_count() or 1)


def _cell_label(spec) -> str:
    """A human-readable cell name that never raises (quarantine reports)."""
    try:
        return spec.label()
    except Exception:
        try:
            return (
                f"{spec.config}/{spec.scenario or spec.workload}"
                f"@{spec.qps:g}/seed{spec.seed}"
            )
        except Exception:
            return type(spec).__name__


#: A pre-build collection runs only once the cells since the last one
#: have used this many times the cheapest one's CPU time (see
#: ``_build_and_run``).
_COLLECT_BUDGET = 10.0
#: CPU seconds the cheapest pre-build collection took (0 until one has
#: run), and the CPU seconds cells have used since the last one.
#: Process-wide, like the heap they walk.
_cheapest_collect_s = 0.0
_since_collect_s = 0.0


def _build_and_run(spec):
    """Build ``spec``'s runtime and run it, keeping the cyclic GC off it.

    Returns ``(result, build_s, simulate_s)``, in CPU seconds. A
    runtime is one large web of reference cycles (bound-method
    watchers, ``sim`` back-references), and none of it is garbage
    while it is built or run, so every full collection over it is
    wasted work: a 1,000-server fleet build took 4x the CPU with the
    collector on. So, in order, it

    1. reclaims earlier cells' dead runtimes with one collection —
       before the build, so dead runtimes never pile up (a frozen
       graph is otherwise reclaimed only by a later full pass) and the
       last cell's graph is never walked before the sweep returns;
    2. builds with the collector paused;
    3. freezes the built graph (``gc.freeze``), so collections during
       the run walk only what the run allocates;
    4. unfreezes once the result is in hand.

    The collection in step 1 is budgeted: it runs only once the cells
    since the last one have used ``_COLLECT_BUDGET`` times the CPU time
    of the cheapest collection this process has run. A full pass over
    a worker's heap costs milliseconds even when it frees nothing, more
    than a short cell, so back-to-back short cells share one; a cell
    that costs more than the budget is followed by a collection before
    the next build, as if there were no budget. The budget is priced
    from the cheapest collection, not the last: a collection's cost is
    a walk over the live heap plus freeing the garbage it finds, and
    only the walk is overhead (the freeing is owed whenever it runs).
    The cheapest collection is the one closest to freeing nothing. A
    budget priced from the last collection would feed on itself: each
    skipped collection leaves more garbage for the next, which makes
    it dearer and raises the next threshold, until dead runtimes pile
    up. Priced from the cheapest, the threshold never rises, so the
    garbage left between collections stays bounded.

    The caller's collector state (enabled or disabled) is restored
    even when the cell raises, and nothing is left frozen, including
    anything the caller froze itself. The model never observes the
    collector, so simulated results cannot depend on this.
    """
    global _cheapest_collect_s, _since_collect_s
    # Resolved at call time: profilers wrap repro.api.run_cell from
    # outside, and a module-level import would close the
    # api -> session import cycle.
    from repro.api import run_cell

    enabled = gc.isenabled()
    build_start = cell_start = process_time()
    if _since_collect_s >= _COLLECT_BUDGET * _cheapest_collect_s:
        gc.collect()
        cell_start = process_time()
        took = cell_start - build_start
        if not _cheapest_collect_s or took < _cheapest_collect_s:
            _cheapest_collect_s = took
        _since_collect_s = 0.0
    gc.disable()
    try:
        runtime = spec.build()
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    try:
        sim_start = process_time()
        result = run_cell(spec, runtime=runtime)
        sim_end = process_time()
        _since_collect_s += sim_end - cell_start
        return result, sim_start - build_start, sim_end - sim_start
    finally:
        gc.unfreeze()


def _cell_task(payload, attempt: int = 1):
    """Worker task: run one cell; returns (key, result, build_s, simulate_s).

    ``payload`` is ``(spec, store_root)``; ``attempt`` is the 1-based
    attempt number the supervisor is on (feeds the deterministic chaos
    rolls, so a cell that was killed on attempt 1 rolls fresh dice on
    attempt 2). The serial path and the forked workers both run this.
    The cell is built fresh and run by :func:`_build_and_run`, which
    keeps the cyclic garbage collector off the runtime's object graph
    and hands the caller's collector state back unchanged, even on a
    raise. ``build_s`` (which includes any collection reclaiming
    earlier cells' runtimes) and ``simulate_s`` are CPU seconds, not
    wall: with more workers than cores the wall clock charges
    descheduled time to whichever cell was in flight, which would
    garble the split.

    With a disk store the worker persists the result itself, so a
    finished cell is on disk even if the parent dies before it hears
    back. The cell was a miss in the session's cache pre-pass; if a
    concurrent sweep sharing the store wrote the record since, the
    atomic put replaces it with identical bytes.
    """
    spec, store_root = payload
    try:
        key = spec.key()
        chaos.on_cell_start(key, attempt)
        result, build_s, simulate_s = _build_and_run(spec)
        if store_root is not None:
            ResultStore(store_root).put(key, result, spec=spec)
        return key, result, build_s, simulate_s
    except SweepCellError:
        raise
    except Exception as error:
        raise SweepCellError(
            f"sweep cell {_cell_label(spec)} failed: "
            f"{type(error).__name__}: {error}"
        ) from error


class SweepResults:
    """Ordered results of one sweep run, with cell-wise lookup.

    ``cells`` and ``results`` are aligned and cover the cells that
    *completed*; cells that exhausted their retry budget under the
    session's :class:`~repro.sweep.supervisor.CellPolicy` appear on
    ``quarantined`` (as
    :class:`~repro.sweep.supervisor.QuarantinedCell` records, with
    their label and per-attempt failure history) instead.
    """

    def __init__(
        self,
        cells: Sequence[ExperimentSpec],
        results: Sequence[ExperimentResult],
        cache_hits: int = 0,
        quarantined: Sequence | None = None,
    ):
        self.cells = list(cells)
        self.results = list(results)
        self.cache_hits = cache_hits
        self.quarantined = list(quarantined) if quarantined is not None else []

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def select(self, **criteria) -> list[ExperimentResult]:
        """Results whose cell matches every criterion.

        Criteria name cell fields — :class:`ExperimentSpec` fields for
        ordinary sweeps (e.g. ``select(config="CPC1A", qps=4000)``),
        fleet-cell fields (``routing``, ``n_servers``) for fleet runs.
        """
        cell_type = type(self.cells[0]) if self.cells else ExperimentSpec
        fields = getattr(
            cell_type, "__dataclass_fields__", ExperimentSpec.__dataclass_fields__
        )
        unknown = [name for name in criteria if name not in fields]
        if unknown:
            raise TypeError(
                f"unknown selection criteria {unknown}; "
                f"cells have {sorted(fields)}"
            )
        matches = []
        for cell, result in zip(self.cells, self.results):
            if all(getattr(cell, name) == value for name, value in criteria.items()):
                matches.append(result)
        return matches

    def one(self, **criteria) -> ExperimentResult:
        """The unique result matching the criteria (raises otherwise)."""
        matches = self.select(**criteria)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one cell matching {criteria}, "
                f"found {len(matches)}"
            )
        return matches[0]

    def aggregate(self) -> list[CellAggregate]:
        """Per-seed aggregation (mean/CI) of every grid cell."""
        return aggregate_over_seeds(self.results, cells=self.cells)

    def write_csv(self, path) -> int:
        """Write every cell as a CSV row (spec labels included)."""
        with StreamingCsvWriter(path) as writer:
            for cell, result in zip(self.cells, self.results):
                writer.write(result, spec=cell)
        return writer.rows


class SweepSession:
    """A reusable sweep executor: one supervised fleet, many runs.

    Parameters
    ----------
    workers:
        Fleet size; ``None`` uses :func:`default_workers` (one per
        core, ``REPRO_SWEEP_WORKERS`` override). 1 runs serially
        in-process — with the same retry/quarantine policy (minus
        deadlines: there is no second process to do the killing).
    store:
        Default result store for runs that do not pass their own.
    policy:
        Retry/deadline/quarantine policy for cells
        (default :class:`CellPolicy`).
    """

    def __init__(self, workers: int | None = None, store=None,
                 policy: CellPolicy | None = None):
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.store = store
        self.policy = policy if policy is not None else CellPolicy()
        self._supervisor: SweepSupervisor | None = None
        self._last_parallelism = 1
        self._closed = False
        self._serial_faults = {"retries": 0, "quarantined": 0}
        #: Accounting for the most recent :meth:`run` (consumed by the
        #: sweep throughput bench and ``--stats-json``): build/simulate
        #: split, dispatch counts, wall time, fault counters.
        self.last_run_stats: dict[str, float | int] = {}

    # -- lifecycle -------------------------------------------------------
    def _ensure_supervisor(self, n_pending: int) -> SweepSupervisor:
        """A supervisor sized for ``n_pending`` cells, spawned lazily.

        The fleet never exceeds the pending cell count — a
        mostly-cached sweep with two misses must not fork a per-core
        fleet for them. A persistent session whose later runs need
        more workers than an earlier small run used just grows the
        fleet: existing workers stay.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        size = min(self.workers, max(1, n_pending))
        if self._supervisor is None:
            self._supervisor = SweepSupervisor(
                size, _cell_task, policy=self.policy
            )
        else:
            self._supervisor.grow_to(size)
        return self._supervisor

    def close(self) -> None:
        """Shut the worker fleet down (idempotent)."""
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None

    def __enter__(self) -> "SweepSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- execution -------------------------------------------------------
    def run(
        self,
        spec: SweepSpec | Sequence[ExperimentSpec],
        store=None,
        progress: Callable[[ExperimentSpec], None] | None = None,
        on_result: (
            Callable[[ExperimentSpec, ExperimentResult, bool], None] | None
        ) = None,
    ):
        """Run every cell; returns results in deterministic cell order.

        ``progress(spec)`` fires once per grid cell: cached and
        duplicate cells during the cache pre-pass, simulated (and
        quarantined) cells as they settle (arrival order) — so a
        progress display's count always reaches the grid size.
        ``on_result(spec, result, from_cache)`` fires in deterministic
        *cell* order, as early as each prefix completes — the
        streaming hook store/CSV writers use so a huge grid never
        buffers in the consumer. Quarantined cells produce no
        ``on_result`` call and no row; they are listed on
        ``SweepResults.quarantined`` (and counted in
        ``last_run_stats``) instead.
        With a disk store, the store is the record of finished work:
        rerunning an interrupted grid against the same store serves
        every cell that finished from it and simulates only the rest.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if store is None:
            store = self.store
        cells = spec.cells() if isinstance(spec, SweepSpec) else list(spec)
        wall_start = perf_counter()
        by_key: dict[str, ExperimentResult] = {}
        pending_by_key: dict[str, ExperimentSpec] = {}
        cache_hits = 0
        for cell in cells:
            key = cell.key()
            if key in by_key or key in pending_by_key:
                # Duplicate cell in the grid; counts toward progress
                # immediately so the display's total is reachable.
                if progress is not None:
                    progress(cell)
                continue
            cached = store.get(key) if store is not None else None
            if cached is not None:
                by_key[key] = cached
                cache_hits += 1
                if progress is not None:
                    progress(cell)
            else:
                pending_by_key[key] = cell
        pending = list(pending_by_key.values())
        quarantined: list[QuarantinedCell] = []
        quarantined_keys: set[str] = set()

        # Ordered streaming: flush the longest settled prefix of the
        # deterministic cell order to ``on_result`` after every arrival
        # (quarantined cells contribute no row and are skipped over).
        next_cell = 0

        def flush_ready() -> None:
            nonlocal next_cell
            if on_result is None:
                return
            while next_cell < len(cells):
                cell = cells[next_cell]
                key = cell.key()
                if key in quarantined_keys:
                    next_cell += 1
                    continue
                result = by_key.get(key)
                if result is None:
                    return
                on_result(cell, result, key not in pending_by_key)
                next_cell += 1

        flush_ready()
        build_s = 0.0
        simulate_s = 0.0
        simulated = 0
        self._last_parallelism = 1
        self._serial_faults = {"retries": 0, "quarantined": 0}
        if self._supervisor is not None:
            # Fault counters are per-run in last_run_stats.
            self._supervisor.stats = SweepSupervisor._zero_stats()
        store_root = (str(store.root) if isinstance(store, ResultStore) else None)
        # Workers persist disk-store records themselves; any other store
        # is filled here in the parent.
        parent_store = None if store_root is not None else store
        for tag, body in self._execute(
            pending, store_root, progress, pending_by_key
        ):
            if tag == "quarantined":
                quarantined.append(body)
                quarantined_keys.add(body.key)
            else:
                key, result, cell_build_s, cell_sim_s = body
                build_s += cell_build_s
                simulate_s += cell_sim_s
                simulated += 1
                by_key[key] = result
                if parent_store is not None:
                    parent_store.put(key, result, spec=pending_by_key[key])
            flush_ready()
        completed_cells = (
            [c for c in cells if c.key() not in quarantined_keys]
            if quarantined_keys
            else cells
        )
        ordered = [by_key[cell.key()] for cell in completed_cells]
        faults = SweepSupervisor._zero_stats()
        if self._supervisor is not None:
            faults.update(self._supervisor.stats)
        faults["retries"] += self._serial_faults["retries"]
        faults["quarantined"] += self._serial_faults["quarantined"]
        self.last_run_stats = {
            "cells": len(cells),
            "unique_cells": len(by_key) + len(quarantined_keys),
            "cache_hits": cache_hits,
            "dispatched": len(pending),
            "simulated": simulated,
            # The parallelism actually used by this run (a persistent
            # fleet may be larger than a later, smaller run needed).
            "workers": self._last_parallelism,
            "build_s": build_s,
            "simulate_s": simulate_s,
            "wall_s": perf_counter() - wall_start,
            **faults,
        }
        return SweepResults(
            completed_cells,
            ordered,
            cache_hits=cache_hits,
            quarantined=quarantined,
        )

    def _run_serial_cell(self, cell, payload):
        """Run one cell in-process under the retry/quarantine policy.

        Mirrors the supervised path for ``workers=1``, except that
        deadlines are not enforced — there is no second process to
        kill a stuck cell from.
        """
        policy = self.policy
        failures: list[AttemptFailure] = []
        attempt = 1
        while True:
            start = perf_counter()
            try:
                return "done", _cell_task(payload, attempt)
            except Exception as error:
                detail = (
                    f"{type(error).__name__}: {error}\n{traceback.format_exc()}"
                )
                failures.append(
                    AttemptFailure(
                        attempt, KIND_ERROR, detail, None,
                        perf_counter() - start,
                    )
                )
                if attempt > policy.max_retries:
                    self._serial_faults["quarantined"] += 1
                    return "quarantined", QuarantinedCell(
                        cell.key(), _cell_label(cell), failures
                    )
                self._serial_faults["retries"] += 1
                backoff = policy.backoff_for(attempt)
                if backoff > 0:
                    sleep(backoff)
                attempt += 1

    def _execute(self, pending, store_root, progress, pending_by_key):
        """Yield ("done", task-tuple) / ("quarantined", cell) events."""
        if not pending:
            return
        payloads = [(cell, store_root) for cell in pending]
        if self.workers == 1 or len(pending) == 1:
            for cell, payload in zip(pending, payloads):
                if progress is not None:
                    progress(cell)
                yield self._run_serial_cell(cell, payload)
            return
        supervisor = self._ensure_supervisor(len(pending))
        self._last_parallelism = min(supervisor.size, len(pending))
        items = [
            (cell.key(), _cell_label(cell), payload)
            for cell, payload in zip(pending, payloads)
        ]
        for tag, body in supervisor.run(items):
            key = body.key if tag == "quarantined" else body[0]
            if progress is not None:
                progress(pending_by_key[key])
            yield tag, body
