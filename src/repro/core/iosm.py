"""IO Standby Mode (IOSM): the APC wiring over links and MCs.

IOSM adds three signal groups (paper Sec. 4.2 / 5.1):

* ``AllowL0s`` — one control wire from the APMU fanned out to every
  high-speed IO controller; it overrides the BIOS knob that keeps
  L0s disabled in performance-tuned servers, but *only* while all
  cores are idle.
* ``InL0s`` — per-controller status wires, AND-combined (neighbours
  first, to save routing) into a single all-IOs-standby level.
* ``Allow_CKE_OFF`` — one control wire to each memory controller
  allowing CKE-off power-down instead of self-refresh.
"""

from __future__ import annotations

from repro.hw.signals import AndTree, Signal
from repro.sim.engine import Simulator


class IosmController:
    """Fans control signals out and aggregates status signals in."""

    def __init__(self, sim: Simulator, links: list, memory_controllers: list):
        if not links:
            raise ValueError("IOSM needs at least one IO link")
        if not memory_controllers:
            raise ValueError("IOSM needs at least one memory controller")
        self.sim = sim
        self.links = list(links)
        self.memory_controllers = list(memory_controllers)
        #: APMU-driven master controls (broadcast to the components).
        self.allow_l0s = Signal("iosm.AllowL0s", value=False)
        self.allow_cke_off = Signal("iosm.Allow_CKE_OFF", value=False)
        self.allow_l0s.watch(self._fan_out_allow_l0s)
        self.allow_cke_off.watch(self._fan_out_allow_cke_off)
        #: Combined status: all IO controllers in L0s or deeper.
        self._in_l0s_tree = AndTree(
            "iosm.InL0s", [link.in_l0s for link in self.links]
        )

    # -- status -------------------------------------------------------------
    @property
    def all_in_l0s(self) -> Signal:
        """The AND-tree output the APMU watches (``&InL0s``)."""
        return self._in_l0s_tree.output

    @property
    def all_mcs_active(self) -> bool:
        """True when every memory controller is serving."""
        return all(mc.state == "active" for mc in self.memory_controllers)

    def link_states(self) -> dict[str, str]:
        """Current LTSSM state per link (diagnostics)."""
        return {link.name: link.state for link in self.links}

    # -- fan-out ----------------------------------------------------------
    def _fan_out_allow_l0s(self, signal: Signal, old: bool, new: bool) -> None:
        for link in self.links:
            link.allow_l0s.set(new)

    def _fan_out_allow_cke_off(self, signal: Signal, old: bool, new: bool) -> None:
        for mc in self.memory_controllers:
            mc.allow_cke_off.set(new)

    # -- area accounting (used by repro.core.area) ------------------------------
    @property
    def long_distance_signal_count(self) -> int:
        """The five long-distance wires of Sec. 5.1.

        AllowL0s (1, fanned out), the aggregated InL0s return paths
        (2 after neighbour AND-combining) and Allow_CKE_OFF to the two
        memory controllers (2).
        """
        return 5
