"""Tests for signal wires, AND trees and the timed FSM base."""

import pytest

from repro.hw import AndTree, FsmError, Signal, SignalError, TimedFsm


class TestSignal:
    def test_initial_value(self):
        assert Signal("s", value=True).value is True
        assert Signal("s").value is False

    def test_set_changes_value(self):
        s = Signal("s")
        s.set(True)
        assert s.value is True

    def test_watcher_fires_on_change(self):
        s = Signal("s")
        seen = []
        s.watch(lambda sig, old, new: seen.append((old, new)))
        s.set(True)
        s.set(False)
        assert seen == [(False, True), (True, False)]

    def test_watcher_not_fired_on_same_value(self):
        s = Signal("s")
        seen = []
        s.watch(lambda sig, old, new: seen.append(new))
        s.set(False)
        assert seen == []

    def test_assert_deassert_vocabulary(self):
        s = Signal("s")
        s.assert_()
        assert s.value
        s.deassert()
        assert not s.value

    def test_transition_counter(self):
        s = Signal("s")
        s.set(True)
        s.set(True)
        s.set(False)
        assert s.transitions == 2

    def test_unwatch_removes_watcher(self):
        s = Signal("s")
        seen = []

        def fn(sig, old, new):
            seen.append(new)

        s.watch(fn)
        s.unwatch(fn)
        s.set(True)
        assert seen == []

    def test_bool_conversion(self):
        assert bool(Signal("s", value=True))
        assert not bool(Signal("s"))


class TestAndTree:
    def test_output_is_and_of_inputs(self):
        a, b = Signal("a", value=True), Signal("b", value=True)
        tree = AndTree("t", [a, b])
        assert tree.value is True
        b.set(False)
        assert tree.value is False

    def test_initially_false_with_low_input(self):
        tree = AndTree("t", [Signal("a", value=True), Signal("b")])
        assert tree.value is False

    def test_output_edge_fires_watchers(self):
        inputs = [Signal(f"i{i}") for i in range(4)]
        tree = AndTree("t", inputs)
        edges = []
        tree.output.watch(lambda sig, old, new: edges.append(new))
        for s in inputs:
            s.set(True)
        assert edges == [True]  # exactly one rising edge
        inputs[2].set(False)
        assert edges == [True, False]

    def test_single_input_tree(self):
        a = Signal("a")
        tree = AndTree("t", [a])
        a.set(True)
        assert tree.value

    def test_empty_tree_rejected(self):
        with pytest.raises(SignalError):
            AndTree("t", [])

    def test_output_cannot_be_driven(self):
        tree = AndTree("t", [Signal("a")])
        with pytest.raises(SignalError):
            tree.output.set(True)

    def test_levels_counts_gate_stages(self):
        tree = AndTree("t", [Signal(f"i{i}") for i in range(10)])
        # 10 inputs with 4-input gates: 10 -> 3 -> 1 = 2 levels.
        assert tree.levels(fan_in=4) == 2
        # With 2-input gates: 10 -> 5 -> 3 -> 2 -> 1 = 4 levels.
        assert tree.levels(fan_in=2) == 4

    def test_levels_rejects_fan_in_below_two(self):
        tree = AndTree("t", [Signal("a")])
        with pytest.raises(SignalError):
            tree.levels(fan_in=1)


class _TrafficLight(TimedFsm):
    STATES = ("Red", "Green", "Yellow")

    def __init__(self, sim):
        super().__init__(sim, "light", "Red")
        self.entered = []

    def on_enter_green(self):
        self.entered.append(("green", self.sim.now))

    def on_exit_red(self):
        self.entered.append(("left-red", self.sim.now))


class TestTimedFsm:
    def test_immediate_transition(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green")
        assert fsm.state == "Green"

    def test_delayed_transition(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green", after_ns=100)
        assert fsm.state == "Red"
        sim.run()
        assert fsm.state == "Green"
        assert sim.now == 100

    def test_enter_exit_hooks_run(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green")
        assert ("left-red", 0) in fsm.entered
        assert ("green", 0) in fsm.entered

    def test_latest_goto_wins(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green", after_ns=100)
        fsm.goto("Yellow", after_ns=10)
        sim.run()
        assert fsm.state == "Yellow"

    def test_unknown_state_rejected(self, sim):
        fsm = _TrafficLight(sim)
        with pytest.raises(FsmError):
            fsm.goto("Blue")

    def test_unknown_initial_rejected(self, sim):
        class Bad(TimedFsm):
            STATES = ("A",)

        with pytest.raises(FsmError):
            Bad(sim, "bad", "B")

    def test_log_records_transitions(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green")
        fsm.goto("Yellow")
        assert fsm.log == [(0, "Red", "Green"), (0, "Green", "Yellow")]

    def test_pending_target_visible(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green", after_ns=50)
        assert fsm.pending_target == "Green"
        sim.run()
        assert fsm.pending_target is None

    def test_cancel_pending_aborts(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green", after_ns=50)
        fsm.cancel_pending()
        sim.run()
        assert fsm.state == "Red"

    def test_time_in_state(self, sim):
        fsm = _TrafficLight(sim)
        sim.schedule(30, fsm.goto, "Green")
        sim.run()
        sim.schedule(70, lambda: None)
        sim.run()
        assert fsm.time_in_state() == 70

    def test_self_transition_is_noop(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Red")
        assert fsm.log == []
