"""The counting AND tree and copy-on-write watchers against a reference.

:class:`~repro.hw.signals.AndTree` keeps a count of high inputs that
each input edge moves by one; the reference re-scans every input with
``all()`` after each toggle. Random toggle sequences over 1-12 inputs
must agree on the output level after every step and on the number of
output edges. :class:`~repro.hw.signals.Signal` dispatches to the
watcher tuple it held when the level changed, so watchers that
unwatch themselves or add others mid-dispatch take effect from the
next change.
"""

from __future__ import annotations

import random

import pytest

from repro.hw import AndTree, Signal


@pytest.mark.parametrize("seed", range(40))
def test_counting_tree_matches_all_rescan(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 12)
    inputs = [Signal(f"i{k}", value=rng.random() < 0.7) for k in range(width)]
    tree = AndTree("t", inputs)
    edges = []
    tree.output.watch(lambda sig, old, new: edges.append(new))
    reference = all(s.value for s in inputs)
    reference_edges = 0
    assert tree.value == reference
    for _ in range(200):
        # Mostly-high inputs, so the output actually toggles.
        inputs[rng.randrange(width)].set(rng.random() < 0.85)
        level = all(s.value for s in inputs)
        reference_edges += level != reference
        reference = level
        assert tree.value == reference
    assert len(edges) == reference_edges
    assert tree.output.transitions == reference_edges


def test_tree_over_repeated_input_counts_each_wire():
    a, b = Signal("a"), Signal("b")
    tree = AndTree("t", [a, a, b])
    a.set(True)
    assert not tree.value
    b.set(True)
    assert tree.value
    a.set(False)
    assert not tree.value


def test_watcher_unwatching_itself_still_sees_its_edge():
    s = Signal("s")
    seen = []

    def once(sig, old, new):
        seen.append(("once", new))
        sig.unwatch(once)

    s.watch(once)
    s.watch(lambda sig, old, new: seen.append(("after", new)))
    s.set(True)
    s.set(False)
    assert seen == [("once", True), ("after", True), ("after", False)]


def test_watcher_added_during_dispatch_fires_from_next_change():
    s = Signal("s")
    seen = []

    def late(sig, old, new):
        seen.append(("late", new))

    def adder(sig, old, new):
        seen.append(("adder", new))
        if new:
            sig.watch(late)

    s.watch(adder)
    s.set(True)
    assert seen == [("adder", True)]
    s.set(False)
    assert seen == [("adder", True), ("adder", False), ("late", False)]


def test_unwatch_of_unknown_watcher_raises():
    s = Signal("s")
    with pytest.raises(ValueError):
        s.unwatch(lambda sig, old, new: None)
