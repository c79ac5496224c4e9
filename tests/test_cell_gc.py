"""The sweep cell task's garbage-collector policy.

``_cell_task`` reclaims the previous cell's runtime, builds the new
one with the cyclic collector paused and freezes it while it runs.
Whatever happens inside the cell, the caller must get its collector
back as it was: enabled if it was enabled, disabled if it was
disabled, and nothing left frozen. And the policy must not reach the
results: a cell run through the task is byte-identical to the same
cell run through ``run_cell`` directly.
"""

from __future__ import annotations

import gc

import pytest

import repro.api
from repro.api import ExperimentSpec, FleetCell, run_cell
from repro.sweep import SweepCellError
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
