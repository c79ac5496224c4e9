"""Tests for the APMU: the PC1A entry/exit flows of paper Fig. 4.

These tests drive a full CPC1A machine (cores, links, MCs, CLM) and
check the orchestration invariants: entry requires all-cores-CC1 plus
all-IOs-L0s; exit is triggered by IO wakes, GPMU wakes and core
interrupts; PLLs never power off; and the measured latencies match
the Sec. 5.5 analytical model exactly.
"""

import pytest

from repro.core.clmr import ClmrError
from repro.core.latency import Pc1aLatencyModel
from repro.soc.cpu import Job
from repro.soc.package import PackageCState
from repro.units import MS, US


def settle(machine, ns=50 * US):
    """Run long enough for cores to idle and the APMU to enter PC1A."""
    machine.sim.run(until_ns=machine.sim.now + ns)


class TestPc1aEntry:
    def test_idle_machine_reaches_pc1a(self, apc_machine):
        settle(apc_machine)
        assert apc_machine.apmu.phase == "pc1a"
        assert apc_machine.apmu.in_pc1a.value

    def test_entry_requires_all_cores_cc1(self, apc_machine):
        machine = apc_machine
        settle(machine)
        # Wake one core with a long job: the package must leave PC1A
        # and not re-enter while the core is busy.
        machine.cores[0].submit(Job("work", 500 * US))
        settle(machine, 100 * US)
        assert machine.apmu.phase == "pc0"
        assert not machine.apmu.in_pc1a.value

    def test_entry_requires_all_ios_in_l0s(self, apc_machine):
        machine = apc_machine
        settle(machine)
        # All links (PCIe x3, DMI, UPI x2) must be in a standby state.
        for link in machine.links:
            assert link.in_l0s.value, link.name

    def test_allow_l0s_set_only_when_all_cores_idle(self, apc_machine):
        machine = apc_machine
        settle(machine)
        assert machine.iosm.allow_l0s.value
        machine.cores[3].submit(Job("work", 300 * US))
        settle(machine, 50 * US)
        assert not machine.iosm.allow_l0s.value
        for link in machine.links:
            assert link.state in ("L0", "Recovery"), link.name

    def test_mcs_reach_cke_off_in_pc1a(self, apc_machine):
        settle(apc_machine)
        for mc in apc_machine.memory_controllers:
            assert mc.state == "cke_off"

    def test_clm_at_retention_in_pc1a(self, apc_machine):
        settle(apc_machine)
        assert apc_machine.clm.at_retention
        assert apc_machine.clm.clock_tree.gated

    def test_plls_stay_locked_in_pc1a(self, apc_machine):
        settle(apc_machine)
        for pll in apc_machine.uncore_plls:
            assert pll.powered and pll.locked, pll.name

    def test_entry_latency_matches_model(self, apc_machine):
        machine = apc_machine
        model = Pc1aLatencyModel()
        settle(machine)
        log = machine.apmu.residency
        # The transition into PC1A took exactly entry_done_at_ns from
        # the &InL0s edge: check via the transition-state residency.
        # (Entry happens once; its residency equals the entry latency.)
        assert machine.apmu.pc1a_entries == 1
        transition_ns = log.residency_ns(PackageCState.TRANSITION.value)
        assert transition_ns == model.entry_ns

    def test_power_in_pc1a_matches_budget(self, apc_machine):
        machine = apc_machine
        settle(machine, 200 * US)
        machine.begin_measurement()
        settle(machine, 1 * MS)
        budget = machine.budget
        assert machine.meter.power_w("package") == pytest.approx(
            budget.soc_power_w("PC1A"), abs=0.3
        )
        assert machine.meter.power_w("dram") == pytest.approx(
            budget.dram_power_w("PC1A"), abs=0.1
        )


    def test_unlocked_clm_pll_fails_next_entry(self, apc_machine):
        # PC1A keeps every PLL locked; an entry that finds the CLM PLL
        # unlocked must stop at the checked CLMR step, clock ungated.
        machine = apc_machine
        settle(machine)
        machine.cores[0].submit(Job("work", 100 * US))
        settle(machine, 50 * US)
        assert machine.apmu.phase == "pc0"
        machine.clm.pll.power_off()
        with pytest.raises(ClmrError):
            settle(machine, 200 * US)
        assert not machine.clmr.clk_gate.value
        assert machine.clmr.retention_entries == 1

    def test_retention_counted_once_per_entry(self, apc_machine):
        machine = apc_machine
        settle(machine)
        for _ in range(3):
            machine.apmu.gpmu_wakeup.set(True)
            settle(machine, 100 * US)
        assert machine.apmu.pc1a_entries == 4
        assert machine.clmr.retention_entries == 4


class TestPc1aExit:
    def test_gpmu_wakeup_exits_pc1a(self, apc_machine):
        machine = apc_machine
        settle(machine)
        machine.apmu.gpmu_wakeup.set(True)
        machine.sim.run(until_ns=machine.sim.now + 1 * US)
        # Spurious wake (no core interrupt): dips out and returns.
        assert machine.apmu.pc1a_exits == 1

    def test_spurious_wake_reenters_pc1a(self, apc_machine):
        machine = apc_machine
        settle(machine)
        machine.apmu.gpmu_wakeup.set(True)
        settle(machine, 100 * US)
        assert machine.apmu.phase == "pc1a"
        assert machine.apmu.pc1a_entries == 2

    def test_exit_latency_within_200ns_budget(self, apc_machine):
        machine = apc_machine
        settle(machine)
        machine.apmu.gpmu_wakeup.set(True)
        machine.sim.run(until_ns=machine.sim.now + 1 * US)
        assert 0 < machine.apmu.exit_latency_max_ns <= 200

    def test_exit_latency_matches_model(self, apc_machine):
        machine = apc_machine
        model = Pc1aLatencyModel()
        settle(machine)
        machine.apmu.gpmu_wakeup.set(True)
        machine.sim.run(until_ns=machine.sim.now + 1 * US)
        assert machine.apmu.mean_exit_latency_ns == model.exit_ns

    def test_core_interrupt_routes_to_pc0(self, apc_machine):
        machine = apc_machine
        settle(machine)
        machine.cores[0].submit(Job("req", 10 * US))
        settle(machine, 100 * US)
        # After the job the core re-idles and the machine goes back
        # to PC1A, but the exit path must have passed through PC0.
        assert machine.apmu.pc1a_exits >= 1
        assert machine.apmu.residency.residency_ns(PackageCState.PC0.value) > 0

    def test_wake_during_entry_is_honoured_after_entry(self, apc_machine):
        machine = apc_machine
        settle(machine)  # first PC1A visit
        machine.cores[0].submit(Job("req", 10 * US))
        settle(machine, 200 * US)  # back to PC1A eventually
        assert machine.apmu.phase == "pc1a"
        # Now wake exactly during a fresh entry window: force an exit
        # then re-entry, and inject the wake mid-entry.
        machine.apmu.gpmu_wakeup.set(True)  # exit
        sim = machine.sim
        sim.run(until_ns=sim.now + 300)  # in ACC1/entering again soon
        machine.cores[1].submit(Job("req2", 10 * US))
        settle(machine, 300 * US)
        assert machine.apmu.phase == "pc1a"  # recovered regardless

    def test_memory_path_closed_during_pc1a(self, apc_machine):
        machine = apc_machine
        settle(machine)
        assert not machine.apmu.memory_path_open
        # A real core wake (not a spurious one) opens the path and
        # keeps it open while the core executes.
        machine.cores[0].submit(Job("req", 50 * US))
        machine.sim.run(until_ns=machine.sim.now + 10 * US)
        assert machine.apmu.memory_path_open

    def test_mcs_active_after_exit(self, apc_machine):
        machine = apc_machine
        settle(machine)
        machine.cores[0].submit(Job("req", 10 * US))
        machine.sim.run(until_ns=machine.sim.now + 5 * US)
        for mc in machine.memory_controllers:
            assert mc.state == "active"

    def test_request_wake_callback_fires_when_open(self, apc_machine):
        machine = apc_machine
        settle(machine)
        woken_at = []
        start = machine.sim.now
        machine.apmu.request_wake(lambda: woken_at.append(machine.sim.now))
        machine.sim.run(until_ns=start + 1 * US)
        assert woken_at
        assert woken_at[0] - start <= 200


class TestPc1aResidency:
    def test_idle_machine_has_near_total_pc1a_residency(self, apc_machine):
        machine = apc_machine
        settle(machine, 100 * US)
        machine.begin_measurement()
        settle(machine, 5 * MS)
        fraction = machine.package.residency.fraction(PackageCState.PC1A.value)
        assert fraction > 0.999

    def test_transitions_counted(self, apc_machine):
        machine = apc_machine
        settle(machine)
        for _ in range(3):
            machine.apmu.gpmu_wakeup.set(True)
            settle(machine, 100 * US)
        assert machine.apmu.pc1a_exits == 3
        assert machine.apmu.pc1a_entries == 4

    def test_io_traffic_wakes_package(self, apc_machine):
        machine = apc_machine
        settle(machine)
        machine.links[0].transfer(256)
        machine.sim.run(until_ns=machine.sim.now + 2 * US)
        assert machine.apmu.pc1a_exits == 1
