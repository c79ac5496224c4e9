"""The stable high-level facade: one cell protocol, one run loop.

Every measurement in this repo — one server under one workload, or a
1,000-server fleet behind a load balancer — is a *cell*: frozen plain
data naming a fully-determined experiment. The :class:`Cell` protocol
is the contract the orchestration stack dispatches on, so the sweep
session, the result stores and the CSV writers never special-case the
cell kind. The lifecycle is always::

    build -> (warmup) -> begin_measurement -> run -> collect

Every cell builds its runtime fresh; nothing is carried from one cell
to the next.

:func:`run_cell` drives that lifecycle for any cell and is the one
way to run a cell; :class:`~repro.sweep.session.SweepSession` is the
one way to run a grid of them. :func:`measure_window` is the
warmup/measure flow ``run_cell`` shares with the quick-start driver
:func:`~repro.server.experiment.run_experiment`, which takes a
prebuilt workload and machine config instead of a spec.

Typical use::

    from repro.api import FleetCell, SweepSession, run_cell

    result = run_cell(FleetCell(
        workload="memcached-diurnal", qps=80_000.0, preset="low",
        machine="CPC1A", n_servers=16, routing="power-aware-pack",
        seed=0, duration_ns=200_000_000, warmup_ns=25_000_000,
    ))
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.fleet.result import FleetResult
from repro.fleet.spec import FleetCell, FleetSpec
from repro.server.experiment import ExperimentResult, run_experiment
from repro.sweep.spec import ExperimentSpec, SweepSpec

if TYPE_CHECKING:
    from repro.workloads.base import Workload

__all__ = [
    "Cell",
    "CellPolicy",
    "CellRuntime",
    "ExperimentResult",
    "ExperimentSpec",
    "FleetCell",
    "FleetResult",
    "FleetSpec",
    "RunJournal",
    "SweepSession",
    "SweepSpec",
    "measure_window",
    "run_cell",
    "run_experiment",
]


@runtime_checkable
class CellRuntime(Protocol):
    """What :meth:`Cell.build` returns: a measurable unit.

    :class:`~repro.server.machine.ServerMachine` and
    :class:`~repro.fleet.cluster.FleetMachine` both satisfy this —
    one event kernel (``sim``), the warmup/measure clockwork and the
    ``inject`` entry point workloads drive.
    """

    sim: Any

    def inject(self, request: Any) -> None: ...

    def run_for(self, duration_ns: int) -> None: ...

    def begin_measurement(self) -> None: ...


@runtime_checkable
class Cell(Protocol):
    """One fully-determined experiment, runnable by :func:`run_cell`.

    Implementations are frozen dataclasses
    (:class:`~repro.sweep.spec.ExperimentSpec`,
    :class:`~repro.fleet.spec.FleetCell`) carrying ``duration_ns``,
    ``warmup_ns`` and ``seed`` fields alongside these methods.
    """

    duration_ns: int
    warmup_ns: int
    seed: int

    def key(self) -> str:
        """Content hash identifying this cell in a result store."""
        ...

    def label(self) -> str:
        """Short human label for logs and error messages."""
        ...

    def build(self) -> CellRuntime:
        """Construct a fresh runtime for this cell."""
        ...

    def build_workload(self) -> "Workload":
        """Instantiate the cell's workload (arrival stream)."""
        ...

    def collect(self, runtime: CellRuntime, workload: "Workload") -> Any:
        """Assemble the result object from a measured runtime."""
        ...


def measure_window(
    runtime: CellRuntime,
    workload: "Workload",
    duration_ns: int,
    warmup_ns: int,
) -> None:
    """The canonical warmup → reset → measure flow.

    The warmup lets queues, governor history and package state reach
    steady behaviour before meters reset; the measurement window then
    integrates power and residency exactly (piecewise-constant, no
    sampling error). On return the runtime holds one measured window,
    ready for the cell's ``collect``.
    """
    if duration_ns <= 0:
        raise ValueError(f"duration must be positive, got {duration_ns}")
    if warmup_ns < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup_ns}")
    workload.start(runtime.sim, runtime)
    runtime.run_for(warmup_ns)
    runtime.begin_measurement()
    runtime.run_for(duration_ns)


def run_cell(cell: Cell, *, runtime: CellRuntime | None = None) -> Any:
    """Run one cell start to finish and return its result.

    Pass ``runtime`` to run on a runtime built by ``cell.build()``
    that has not run yet (the sweep session builds it separately to
    time the build).
    """
    if runtime is None:
        runtime = cell.build()
    workload = cell.build_workload()
    measure_window(runtime, workload, cell.duration_ns, cell.warmup_ns)
    return cell.collect(runtime, workload)


def __getattr__(name: str) -> Any:
    # Session-layer names are re-exported lazily: repro.sweep.session
    # imports this module inside its task loop, and a top-level import
    # here would close that cycle at import time.
    if name == "SweepSession":
        from repro.sweep.session import SweepSession

        return SweepSession
    if name == "CellPolicy":
        from repro.sweep.supervisor import CellPolicy

        return CellPolicy
    if name == "RunJournal":
        from repro.sweep.journal import RunJournal

        return RunJournal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
