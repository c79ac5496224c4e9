"""Tests for the IOSM and CLMR controllers and the PC1A/area models."""

import pytest

from repro.core.area import SkxAreaModel
from repro.core.clmr import ClmrController, ClmrError
from repro.core.iosm import IosmController
from repro.core.latency import Pc1aLatencyModel
from repro.core.pc1a import PC1A_SPEC, PC6_SPEC, table2_rows
from repro.power.budgets import DEFAULT_BUDGET
from repro.power.meter import PowerMeter
from repro.soc.clm import ClmDomain
from repro.units import US


def make_clm(sim):
    meter = PowerMeter(sim)
    return ClmDomain(sim, DEFAULT_BUDGET.clm, meter.channel("clm", "package")), meter


class TestIosmWiring:
    def test_allow_l0s_fans_out_to_all_links(self, apc_machine):
        iosm = apc_machine.iosm
        iosm.allow_l0s.set(True)
        assert all(link.allow_l0s.value for link in iosm.links)
        iosm.allow_l0s.set(False)
        assert not any(link.allow_l0s.value for link in iosm.links)

    def test_allow_cke_off_fans_out_to_mcs(self, apc_machine):
        iosm = apc_machine.iosm
        iosm.allow_cke_off.set(True)
        assert all(mc.allow_cke_off.value for mc in iosm.memory_controllers)

    def test_all_in_l0s_is_and_of_links(self, apc_machine):
        machine = apc_machine
        iosm = machine.iosm
        iosm.allow_l0s.set(True)
        machine.sim.run(until_ns=10 * US)
        assert iosm.all_in_l0s.value
        # One link waking drops the aggregate immediately.
        machine.links[0].transfer(64)
        assert not iosm.all_in_l0s.value

    def test_link_states_view(self, apc_machine):
        states = apc_machine.iosm.link_states()
        assert set(states) == {"pcie0", "pcie1", "pcie2", "dmi0", "upi0", "upi1"}

    def test_five_long_distance_signals(self, apc_machine):
        # Sec. 5.1's area accounting input.
        assert apc_machine.iosm.long_distance_signal_count == 5

    def test_requires_components(self, sim):
        with pytest.raises(ValueError):
            IosmController(sim, [], [object()])
        with pytest.raises(ValueError):
            IosmController(sim, [object()], [])


class TestClmr:
    def test_gate_and_drop_reaches_retention(self, sim):
        clm, _ = make_clm(sim)
        clmr = ClmrController(clm)
        clmr.gate_clock()
        clmr.enter_retention()
        sim.run()
        assert clmr.at_retention
        assert clm.clock_tree.gated
        assert clmr.pll_kept_on

    def test_ungate_before_pwr_ok_rejected(self, sim):
        clm, _ = make_clm(sim)
        clmr = ClmrController(clm)
        clmr.gate_clock()
        clmr.enter_retention()
        sim.run()
        clmr.raise_voltage()  # ramp starts; PwrOk low
        with pytest.raises(ClmrError):
            clmr.ungate()

    def test_full_retention_roundtrip(self, sim):
        clm, meter = make_clm(sim)
        clmr = ClmrController(clm)
        clmr.gate_clock()
        clmr.enter_retention()
        sim.run()
        assert meter["clm"].power_w == pytest.approx(DEFAULT_BUDGET.clm.retention_w)
        clmr.raise_voltage()
        sim.run()
        clmr.ungate()
        sim.run()
        assert clm.available
        assert meter["clm"].power_w == pytest.approx(DEFAULT_BUDGET.clm.nominal_w)

    def test_pll_off_violates_invariant(self, sim):
        clm, _ = make_clm(sim)
        clmr = ClmrController(clm)
        clm.pll.power_off()
        with pytest.raises(ClmrError):
            clmr.gate_clock()
        with pytest.raises(ClmrError):
            clmr.enter_retention()
        assert not clmr.clk_gate.value and not clmr.ret.value

    def test_retention_requires_gated_clock(self, sim):
        clm, _ = make_clm(sim)
        clmr = ClmrController(clm)
        with pytest.raises(ClmrError):
            clmr.enter_retention()
        assert not clmr.ret.value
        assert clmr.retention_entries == 0

    def test_attach_requires_locked_pll(self, sim):
        clm, _ = make_clm(sim)
        clm.pll.power_off()
        with pytest.raises(ClmrError):
            ClmrController(clm)

    def test_three_long_distance_signals(self, sim):
        clm, _ = make_clm(sim)
        assert ClmrController(clm).long_distance_signal_count == 3

    def test_clm_power_during_ramp_is_midpoint(self, sim):
        clm, meter = make_clm(sim)
        clm.ret.set(True)
        expected = (DEFAULT_BUDGET.clm.nominal_w + DEFAULT_BUDGET.clm.retention_w) / 2
        assert meter["clm"].power_w == pytest.approx(expected, rel=0.05)


class TestLatencyModel:
    def test_entry_is_18ns(self):
        assert Pc1aLatencyModel().entry_ns == 18

    def test_exit_is_about_150ns(self):
        model = Pc1aLatencyModel()
        assert 150 <= model.exit_ns <= 170

    def test_worst_case_within_200ns(self):
        assert Pc1aLatencyModel().worst_case_transition_ns <= 200

    def test_speedup_over_pc6_exceeds_250x(self):
        assert Pc1aLatencyModel().speedup_vs_pc6 > 250

    def test_fivr_ramp_is_150ns(self):
        assert Pc1aLatencyModel().fivr_ramp_ns == 150

    def test_exit_dominated_by_clm_branch(self):
        model = Pc1aLatencyModel()
        breakdown = model.exit_breakdown()
        assert model.exit_ns == breakdown["CLM: Ret release + FIVR ramp + ungate"]

    def test_entry_breakdown_is_monotone_schedule(self):
        steps = list(Pc1aLatencyModel().entry_breakdown().values())
        assert steps == sorted(steps)

    def test_mc_branch_faster_than_clm_branch(self):
        model = Pc1aLatencyModel()
        assert model.exit_mc_branch_ns < model.exit_clm_branch_ns

    def test_io_branch_is_l0s_exit(self):
        assert Pc1aLatencyModel().exit_io_branch_ns == 64


class TestAreaModel:
    def test_total_below_0_75_percent(self):
        assert SkxAreaModel().total_die_percent < 0.75

    def test_iosm_signals_below_0_24_percent(self):
        # Paper Sec. 5.1 at 128-bit interconnect width.
        assert SkxAreaModel().iosm_signals * 100 <= 0.24

    def test_wider_interconnect_cheaper(self):
        narrow = SkxAreaModel(interconnect_width_bits=128)
        wide = SkxAreaModel(interconnect_width_bits=512)
        assert wide.iosm_signals < narrow.iosm_signals
        assert wide.iosm_signals * 100 <= 0.06

    def test_apmu_below_0_1_percent(self):
        assert SkxAreaModel().apmu_fsm * 100 <= 0.1

    def test_clmr_fcm_negligible(self):
        # Paper says "< 0.005 %"; its own per-FCM factors (0.5 % of an
        # FCM x 10 % of a core x 10 % of the die) give 0.005 % each,
        # so two FCMs bound at 0.01 % - negligible either way.
        assert SkxAreaModel().clmr_fcm_mods * 100 <= 0.01 + 1e-9

    def test_controller_mods_below_0_08_percent(self):
        assert SkxAreaModel().iosm_controller_mods * 100 <= 0.08

    def test_breakdown_sums_to_total(self):
        model = SkxAreaModel()
        assert sum(model.breakdown().values()) == pytest.approx(
            model.total_die_fraction
        )

    def test_signal_overhead_scales_linearly(self):
        model = SkxAreaModel()
        assert model.signal_overhead(10) == pytest.approx(2 * model.signal_overhead(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            SkxAreaModel(interconnect_width_bits=0)
        with pytest.raises(ValueError):
            SkxAreaModel().signal_overhead(-1)


class TestPc1aSpec:
    def test_pc1a_keeps_plls_on(self):
        assert PC1A_SPEC.plls == "On"
        assert PC6_SPEC.plls == "Off"

    def test_pc1a_uses_shallow_io_states(self):
        assert PC1A_SPEC.pcie_dmi == "L0s"
        assert PC1A_SPEC.upi == "L0p"
        assert PC1A_SPEC.dram == "CKE off"

    def test_pc1a_requires_only_cc1(self):
        assert "CC1" in PC1A_SPEC.cores_requirement
        assert "CC6" in PC6_SPEC.cores_requirement

    def test_table2_has_three_rows_in_paper_order(self):
        rows = table2_rows()
        assert [r.name for r in rows] == ["PC0", "PC6", "PC1A"]

    def test_pc1a_latency_budget(self):
        assert PC1A_SPEC.transition_latency_ns == 200
