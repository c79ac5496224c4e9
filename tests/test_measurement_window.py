"""Measurement-window invariants.

``begin_measurement`` draws the line between warmup and the measured
window; everything the paper's figures report integrates strictly
inside that window. These tests pin the boundary: no counter,
residency fraction, latency sample or active-after-idle sample may
depend on *how* the machine reached the window's start — and nothing
scheduled during warmup may fire into the window.
"""

from __future__ import annotations

import pytest

from repro.hw.signals import Signal
from repro.server.configs import cdeep, cpc1a, cshallow
from repro.server.experiment import collect_result, run_experiment
from repro.server.machine import ServerMachine
from repro.sim.engine import Simulator
from repro.tracing.idle import ActiveAfterIdleSampler
from repro.units import MS, US
from repro.workloads.base import NullWorkload
from repro.workloads.memcached import MemcachedWorkload


class FakeCore:
    """Just enough core for the sampler: an ``in_cc1`` wire."""

    def __init__(self, index: int, in_cc1: bool = True):
        self.in_cc1 = Signal(f"fake{index}.InCC1", value=in_cc1)


class TestSamplerWarmupLeak:
    """The bug: ``_sample`` events scheduled during warmup fired after
    ``reset()`` and polluted the window's distribution."""

    def test_pending_warmup_sample_is_cancelled_by_reset(self):
        sim = Simulator(seed=1)
        all_idle = Signal("AllIdle", value=True)
        cores = [FakeCore(i) for i in range(4)]
        sampler = ActiveAfterIdleSampler(sim, all_idle, cores, horizon_ns=5 * US)
        # Idle exit during warmup; its sample is due at t = 15 us.
        sim.schedule_at(10 * US, all_idle.set, False)
        sim.run(until_ns=12 * US)
        sampler.reset()  # measurement window starts inside the horizon
        sim.run(until_ns=40 * US)
        assert sampler.samples == []

    def test_window_exits_still_sampled_after_reset(self):
        sim = Simulator(seed=1)
        all_idle = Signal("AllIdle", value=True)
        cores = [FakeCore(i) for i in range(4)]
        sampler = ActiveAfterIdleSampler(sim, all_idle, cores, horizon_ns=5 * US)
        sim.schedule_at(10 * US, all_idle.set, False)
        sim.run(until_ns=12 * US)
        sampler.reset()
        # A genuine in-window idle exit: back to idle, then exit with
        # two cores active at the sampling horizon.
        sim.schedule_at(20 * US, all_idle.set, True)
        sim.schedule_at(30 * US, all_idle.set, False)
        sim.schedule_at(31 * US, cores[0].in_cc1.set, False)
        sim.schedule_at(32 * US, cores[1].in_cc1.set, False)
        sim.run(until_ns=60 * US)
        assert sampler.samples == [2]

    def test_repeated_resets_cancel_everything(self):
        sim = Simulator(seed=1)
        all_idle = Signal("AllIdle", value=True)
        sampler = ActiveAfterIdleSampler(
            sim, all_idle, [FakeCore(0)], horizon_ns=5 * US
        )
        for t in (10, 11, 12):
            sim.schedule_at(t * US, all_idle.set, not (t % 2))
        sim.run(until_ns=13 * US)
        sampler.reset()
        sampler.reset()
        sim.run(until_ns=40 * US)
        assert sampler.samples == []


def _measure_window(chunks_ns: list[int], window_ns: int, seed: int = 5):
    """Warm a CPC1A machine through ``chunks_ns``, then measure."""
    machine = ServerMachine(cpc1a(), seed=seed)
    workload = MemcachedWorkload(20_000)
    workload.start(machine.sim, machine)
    for chunk in chunks_ns:
        machine.run_for(chunk)
    machine.begin_measurement()
    machine.run_for(window_ns)
    return collect_result(machine, workload, window_ns, seed)


class TestWindowInvariants:
    def test_window_independent_of_warmup_chunking(self):
        """The same absolute window measures identically no matter how
        the warmup time was stepped through."""
        one_shot = _measure_window([10 * MS], 10 * MS)
        chunked = _measure_window([2 * MS, 3 * MS, 5 * MS], 10 * MS)
        assert one_shot == chunked

    @pytest.mark.parametrize("config_fn", [cshallow, cdeep, cpc1a])
    def test_idle_machine_window_independent_of_warmup_length(self, config_fn):
        """With no load the machine is in steady state, so every
        observable must be identical for any warmup length."""
        short = run_experiment(
            NullWorkload(), config_fn(), duration_ns=15 * MS, warmup_ns=5 * MS, seed=1
        )
        long = run_experiment(
            NullWorkload(), config_fn(), duration_ns=15 * MS, warmup_ns=40 * MS, seed=1
        )
        assert short == long

    def test_window_samples_match_window_exits_exactly(self):
        """Pin the leak end-to-end: pick a warmup that ends *inside*
        the sampling horizon of an idle exit, and check the window's
        sample count equals the number of in-window exits whose
        horizon elapsed — the leaked warmup sample would add one."""
        seed, qps = 3, 4_000
        probe = ServerMachine(cpc1a(), seed=seed)
        MemcachedWorkload(qps).start(probe.sim, probe)
        falls: list[int] = []
        probe.all_idle.watch(
            lambda s, old, new: None if new else falls.append(probe.sim.now)
        )
        probe.run_for(20 * MS)
        assert falls, "workload never broke the all-idle period"
        edge = falls[len(falls) // 2]

        machine = ServerMachine(cpc1a(), seed=seed)
        MemcachedWorkload(qps).start(machine.sim, machine)
        horizon = machine.active_sampler.horizon_ns
        warmup = edge + horizon // 2  # inside the pending sample's horizon
        machine.run_for(warmup)
        machine.begin_measurement()
        window_falls: list[int] = []
        machine.all_idle.watch(
            lambda s, old, new: None if new else window_falls.append(machine.sim.now)
        )
        window = 10 * MS
        machine.run_for(window)
        expected = sum(1 for t in window_falls if t + horizon <= warmup + window)
        assert len(machine.active_sampler.samples) == expected


class TestMeasureDurationGuard:
    """`measure(duration_ns=0)` must raise, not silently fall back to
    the rate heuristic (the old ``duration_ns or ...`` bug)."""

    def test_explicit_zero_duration_raises(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        try:
            from _common import measure
        finally:
            sys.path.pop(0)
        with pytest.raises(ValueError, match="duration"):
            measure(MemcachedWorkload(10_000), cpc1a(), duration_ns=0)
