"""The sweep cell task's garbage-collector policy.

``_cell_task`` reclaims earlier cells' runtimes, builds the new one
with the cyclic collector paused and freezes it while it runs. The
reclaiming collection is budgeted: it runs only once the cells since
the last one have used ten times the cheapest one's CPU time, so short
cells share one instead of each paying more for it than for
themselves, and garbage a skip left behind cannot stretch the budget.
Whatever happens inside the cell, the caller must get its collector
back as it was: enabled if it was enabled, disabled if it was
disabled, and nothing left frozen. And the policy must not reach the
results: a cell run through the task is byte-identical to the same
cell run through ``run_cell`` directly.
"""

from __future__ import annotations

import gc
from time import process_time

import pytest

import repro.api
from repro.api import ExperimentSpec, FleetCell, run_cell
from repro.sweep import SweepCellError, session
from repro.sweep.session import _cell_task
from repro.units import MS
from test_determinism_pins import result_sha256

SERVER = ExperimentSpec(
    workload="memcached", qps=20_000.0, preset="low", config="CPC1A",
    seed=3, duration_ns=2 * MS, warmup_ns=1 * MS,
)
FLEET = FleetCell(
    workload="memcached-diurnal", qps=40_000.0, preset="low", machine="CPC1A",
    n_servers=4, routing="power-aware-pack", seed=3,
    duration_ns=2 * MS, warmup_ns=1 * MS,
)


def assert_collector_restored(enabled: bool = True) -> None:
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == 0


@pytest.fixture(autouse=True)
def _collector_on():
    """Every test starts and ends with the collector on and nothing frozen."""
    gc.enable()
    gc.unfreeze()
    yield
    gc.enable()
    gc.unfreeze()


@pytest.mark.parametrize("cell", [SERVER, FLEET], ids=["server", "fleet"])
def test_task_result_matches_run_cell(cell):
    _key, result, build_s, simulate_s = _cell_task((cell, None))
    assert_collector_restored()
    assert build_s > 0 and simulate_s > 0
    assert result_sha256(result) == result_sha256(run_cell(cell))


def test_build_paused_and_run_frozen(monkeypatch):
    seen = {}
    real_build, real_run_cell = ExperimentSpec.build, repro.api.run_cell

    def build(cell):
        seen["build_gc"] = gc.isenabled()
        return real_build(cell)

    def spy_run_cell(cell, *, runtime):
        seen["run_gc"] = gc.isenabled()
        seen["frozen"] = gc.get_freeze_count()
        return real_run_cell(cell, runtime=runtime)

    monkeypatch.setattr(ExperimentSpec, "build", build)
    monkeypatch.setattr(repro.api, "run_cell", spy_run_cell)
    _cell_task((SERVER, None))
    assert seen["build_gc"] is False
    assert seen["run_gc"] is True
    assert seen["frozen"] > 0
    assert_collector_restored()


def test_build_failure_restores_collector(monkeypatch):
    def build(cell):
        raise RuntimeError("build blew up")

    monkeypatch.setattr(ExperimentSpec, "build", build)
    with pytest.raises(SweepCellError, match="build blew up"):
        _cell_task((SERVER, None))
    assert_collector_restored()


def test_run_failure_restores_collector(monkeypatch):
    def run_cell(cell, *, runtime):
        raise RuntimeError("run blew up")

    monkeypatch.setattr(repro.api, "run_cell", run_cell)
    with pytest.raises(SweepCellError, match="run blew up"):
        _cell_task((SERVER, None))
    assert_collector_restored()


def test_chaos_fault_restores_collector(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "seed=1,fault=1")
    with pytest.raises(SweepCellError, match="ChaosError"):
        _cell_task((SERVER, None))
    assert_collector_restored()


def test_disabled_collector_stays_disabled():
    gc.disable()
    _cell_task((SERVER, None))
    assert_collector_restored(enabled=False)


def test_disabled_collector_stays_disabled_on_failure(monkeypatch):
    def run_cell(cell, *, runtime):
        raise RuntimeError("run blew up")

    monkeypatch.setattr(repro.api, "run_cell", run_cell)
    gc.disable()
    with pytest.raises(SweepCellError):
        _cell_task((SERVER, None))
    assert_collector_restored(enabled=False)


def burn(cpu_s: float) -> None:
    end = process_time() + cpu_s
    while process_time() < end:
        pass


class BusyCell:
    """A stand-in cell whose build burns ``cpu_s`` of CPU.

    ``collections`` is the full-collection count it saw at build time.
    """

    def __init__(self, cpu_s: float, starts: list):
        self.cpu_s = cpu_s
        self.starts = starts
        self.collections = None

    def key(self) -> str:
        return f"busy-{id(self)}"

    def build(self):
        self.collections = len(self.starts)
        burn(self.cpu_s)
        return object()


@pytest.fixture
def full_collections(monkeypatch):
    """Start-of-collection records for generation 2, with a fresh budget."""
    starts: list[int] = []

    def callback(phase, info):
        if phase == "start" and info["generation"] == 2:
            starts.append(1)

    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.setattr(repro.api, "run_cell", lambda cell, *, runtime: cell.cpu_s)
    monkeypatch.setattr(session, "_cheapest_collect_s", 0.0)
    monkeypatch.setattr(session, "_since_collect_s", 0.0)
    gc.callbacks.append(callback)
    yield starts
    gc.callbacks.remove(callback)


def test_short_cells_share_a_collection(full_collections):
    cells = [BusyCell(0.001, full_collections) for _ in range(30)]
    for cell in cells:
        _cell_task((cell, None))
        assert_collector_restored()
    assert cells[0].collections == 1  # a fresh budget collects first
    assert len(full_collections) < len(cells)


def test_costly_cells_still_collect_before_each_build(full_collections):
    _cell_task((BusyCell(0.001, full_collections), None))
    # Twice the budget, so a slower next collection cannot tip it.
    cpu_s = 2 * session._COLLECT_BUDGET * max(session._cheapest_collect_s, 0.001)
    cells = [BusyCell(cpu_s, full_collections) for _ in range(3)]
    for cell in cells:
        _cell_task((cell, None))
    counts = [cell.collections for cell in cells]
    assert counts[1] > counts[0] and counts[2] > counts[1]
    assert_collector_restored()


class ScriptedClock:
    """Stands in for the session's CPU clock.

    Full collections take the scripted ``costs`` in turn (the last one
    repeats); cells charge their ``cpu_s`` through :class:`TickCell`.
    """

    def __init__(self, costs):
        self.now = 0.0
        self.costs = list(costs)

    def __call__(self) -> float:
        return self.now

    def on_gc(self, phase, info):
        if phase == "stop" and info["generation"] == 2:
            self.now += self.costs.pop(0) if len(self.costs) > 1 else self.costs[0]


class TickCell(BusyCell):
    """A stand-in cell that charges ``cpu_s`` to a scripted clock."""

    def __init__(self, cpu_s: float, starts: list, clock: ScriptedClock):
        super().__init__(cpu_s, starts)
        self.clock = clock

    def build(self):
        self.collections = len(self.starts)
        self.clock.now += self.cpu_s
        return object()


def test_a_dear_collection_does_not_stretch_the_budget(full_collections, monkeypatch):
    # The first collection walks a clean heap (1 ms); every later one
    # also frees a big dead runtime (100 ms). Cells of 50 ms are worth
    # more than ten clean walks, so each must still be preceded by a
    # collection: pricing the budget from the last, dear collection
    # would skip the next twenty cells while their garbage piled up.
    clock = ScriptedClock([0.001, 0.1])
    monkeypatch.setattr(session, "process_time", clock)
    gc.callbacks.append(clock.on_gc)
    try:
        cells = [TickCell(0.05, full_collections, clock) for _ in range(5)]
        for cell in cells:
            _cell_task((cell, None))
    finally:
        gc.callbacks.remove(clock.on_gc)
    counts = [cell.collections for cell in cells]
    assert all(later > earlier for earlier, later in zip(counts, counts[1:]))
    assert_collector_restored()
