"""Sweep orchestration: declarative grids, parallel runs, caching.

The paper's figures are all workload x config x rate x seed sweeps;
this package turns "one figure" into data:

>>> from repro.sweep import SweepSession, SweepSpec, memcached_points
>>> spec = SweepSpec(
...     workloads=memcached_points([0, 4_000]),
...     configs=("Cshallow", "CPC1A"),
...     seeds=(1,),
... )
>>> with SweepSession(workers=1) as session:  # doctest: +SKIP
...     results = session.run(spec)

- :class:`SweepSpec` expands deterministically into
  :class:`ExperimentSpec` cells (plain, picklable data); a ``props``
  axis grids platform-property overrides (``repro props list``) on
  top of the named configs;
- :class:`SweepSession` fans cells out over a worker pool, one cell
  in flight per worker, and keeps the pool alive across runs; every
  cell builds a fresh runtime, so parallel == serial bit-for-bit;
- :class:`ResultStore` caches results under content-hash keys, making
  re-runs of unchanged cells instant (reads are checksum-verified;
  corrupt records are quarantined and re-simulated); it is also the
  record of finished work, so rerunning an interrupted campaign
  against the same store simulates only the cells it lacks;
- :class:`SweepSupervisor` + :class:`CellPolicy` make the execution
  plane fault-tolerant: dead workers respawn, stuck cells get killed
  and retried, and exhausted cells are quarantined
  (:class:`QuarantinedCell`);
- :func:`aggregate_over_seeds` folds per-seed repeats into mean/CI.
"""

from repro.sweep import chaos
from repro.sweep.aggregate import (
    AGGREGATED_METRICS,
    CellAggregate,
    MetricStats,
    aggregate_over_seeds,
)
from repro.sweep.session import (
    SweepCellError,
    SweepResults,
    SweepSession,
    default_workers,
)
from repro.sweep.spec import (
    ExperimentSpec,
    PropPairs,
    PropValue,
    SweepSpec,
    WorkloadPoint,
    config_axis_label,
    duration_for_rate,
    memcached_points,
    merge_props,
    normalize_props,
    preset_points,
    resolved_machine_props,
    warmup_for_duration,
)
from repro.sweep.store import (
    CSV_COLUMNS,
    MemoryStore,
    ResultStore,
    StoreCorruption,
    StreamingCsvWriter,
    flatten_result,
)
from repro.sweep.supervisor import (
    CellPolicy,
    QuarantinedCell,
    SweepSupervisor,
)

__all__ = [
    "AGGREGATED_METRICS",
    "CSV_COLUMNS",
    "CellAggregate",
    "CellPolicy",
    "ExperimentSpec",
    "MemoryStore",
    "MetricStats",
    "PropPairs",
    "PropValue",
    "QuarantinedCell",
    "ResultStore",
    "StoreCorruption",
    "StreamingCsvWriter",
    "SweepCellError",
    "SweepResults",
    "SweepSession",
    "SweepSpec",
    "SweepSupervisor",
    "WorkloadPoint",
    "chaos",
    "aggregate_over_seeds",
    "config_axis_label",
    "default_workers",
    "duration_for_rate",
    "flatten_result",
    "memcached_points",
    "merge_props",
    "normalize_props",
    "preset_points",
    "resolved_machine_props",
    "warmup_for_duration",
]
