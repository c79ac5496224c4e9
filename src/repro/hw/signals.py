"""Boolean signal wires and AND-gate aggregation trees.

The APC architecture (paper Fig. 3) is held together by a handful of
single-bit signals: ``InCC1`` per core, ``InL0s`` per IO controller,
``AllowL0s``, ``Allow_CKE_OFF``, ``Ret``, ``PwrOk``, ``ClkGate``,
``WakeUp`` and ``InPC1A``. We model each as a :class:`Signal` whose
watchers are notified synchronously on a value change. Wire delay is
not modelled: the APMU flow already accounts for its FSM cycle
latencies, so routing delay is second-order.
"""

from __future__ import annotations

from typing import Callable, Iterable


class SignalError(RuntimeError):
    """Raised on signal misuse (e.g. driving an AND-tree output)."""


WatchFn = Callable[["Signal", bool, bool], None]


class Signal:
    """A single-bit wire with synchronous change notification.

    Parameters
    ----------
    name:
        Diagnostic name, e.g. ``"core3.InCC1"``.
    value:
        Initial level.

    Watchers are kept in a tuple that :meth:`watch`/:meth:`unwatch`
    replace rather than mutate, so a dispatch iterates the snapshot
    taken when the level changed: a watcher added or removed by
    another watcher takes effect from the next change.
    """

    def __init__(self, name: str, value: bool = False):
        self.name = name
        self._value = bool(value)
        self._watchers: tuple[WatchFn, ...] = ()
        self.transitions = 0

    @property
    def value(self) -> bool:
        """Current level of the wire."""
        return self._value

    def set(self, value: bool) -> None:
        """Drive the wire; watchers fire only on an actual change."""
        value = bool(value)
        if value != self._value:
            self._apply(value)

    def assert_(self) -> None:
        """Drive the wire high (hardware-spec vocabulary)."""
        self.set(True)

    def deassert(self) -> None:
        """Drive the wire low."""
        self.set(False)

    def watch(self, fn: WatchFn) -> None:
        """Register ``fn(signal, old, new)`` to run on level changes."""
        self._watchers += (fn,)

    def unwatch(self, fn: WatchFn) -> None:
        """Remove a previously registered watcher."""
        watchers = list(self._watchers)
        watchers.remove(fn)
        self._watchers = tuple(watchers)

    def _apply(self, value: bool) -> None:
        if value == self._value:
            return
        old, self._value = self._value, value
        self.transitions += 1
        for fn in self._watchers:
            fn(self, old, value)

    def __bool__(self) -> bool:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Signal({self.name!r}, {'1' if self._value else '0'})"


class AndTree:
    """AND-gate aggregation of many input signals into one output.

    The paper aggregates per-core ``InCC1`` and per-controller
    ``InL0s`` through AND gates of neighbouring units to save routing
    (Sec. 5.3). Functionally the tree is a wide AND, kept as a count
    of high inputs that each input edge moves by one, so an edge costs
    O(1) however wide the tree. We additionally expose
    ``levels(fan_in)`` so the area model can count gate stages.

    The output signal must not be driven externally.
    """

    def __init__(self, name: str, inputs: Iterable[Signal]):
        self.name = name
        self.inputs = list(inputs)
        if not self.inputs:
            raise SignalError(f"AND tree {name!r} needs at least one input")
        self._high = sum(1 for s in self.inputs if s.value)
        self.output = Signal(f"{name}.out", value=self._high == len(self.inputs))
        self.output.set = self._reject_drive  # type: ignore[method-assign]
        for signal in self.inputs:
            signal.watch(self._on_input_change)

    def _reject_drive(self, value: bool) -> None:
        raise SignalError(f"AND tree output {self.output.name!r} cannot be driven")

    def _on_input_change(self, signal: Signal, old: bool, new: bool) -> None:
        self._high += 1 if new else -1
        Signal._apply(self.output, self._high == len(self.inputs))

    @property
    def value(self) -> bool:
        """Level of the AND of all inputs."""
        return self.output.value

    def levels(self, fan_in: int = 4) -> int:
        """Number of gate levels for a given gate fan-in (area model)."""
        if fan_in < 2:
            raise SignalError(f"fan-in must be at least 2, got {fan_in}")
        n, depth = len(self.inputs), 0
        while n > 1:
            n = -(-n // fan_in)
            depth += 1
        return depth

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AndTree({self.name!r}, {len(self.inputs)} inputs, value={self.value})"
