"""Flat per-server hot state: the fleet's struct-of-arrays.

A fleet's inner loops — the balancer's argmin/watermark scans, the
park/unpark bookkeeping, the per-server routing tallies — used to walk
N Python objects per decision. :class:`FleetState` packs that hot
state into flat numpy arrays owned by
:class:`~repro.fleet.cluster.FleetMachine`, so a policy decision is a
single C-level array pass regardless of fleet size and a routing
policy is a *pure function* of this view (see
:mod:`repro.fleet.routing`).

The arrays are the authoritative state, not a mirror: the balancer
increments ``outstanding``/``routed`` here, completion hooks decrement
here, and the park manager flips ``parked`` here. Everything is plain
``int64``/``bool`` data, allocated fresh with its fleet for every cell.
"""

from __future__ import annotations

import numpy as np


class FleetState:
    """Struct-of-arrays of one fleet's per-server hot state.

    Attributes
    ----------
    outstanding:
        In-flight requests per server (routed, not yet completed).
        Balancer-owned live state: it survives measurement-window
        resets so window boundaries never double-count requests still
        in flight.
    routed:
        Requests routed per server since the last counter reset
        (window-scoped measurement).
    parked:
        Servers currently detached from the event kernel and advanced
        analytically (see ``docs/fleet.md``); policies may read it,
        only the park manager writes it.
    cursor:
        The rotation point policies use for cycling/tie-breaking. The
        balancer advances it to ``chosen + 1`` after every route, so
        policies themselves stay pure.
    pack_watermark:
        Concurrent requests a server absorbs before
        ``power-aware-pack`` spills to the next one (already resolved:
        never 0).
    unroutable:
        Servers the balancer must skip (controller lifecycle: a server
        draining toward park, parked by the controller, or still
        booting). Only the control plane writes it, via
        :meth:`set_unroutable`; ``n_unroutable`` mirrors its popcount
        so policies can branch to the masked scan only when a
        controller is actually holding servers out.
    park_transitions / parked_ns / park_since:
        Window-scoped park telemetry over the ``parked`` mask: edge
        count, accumulated parked time, and the entry timestamp of the
        current parked span (-1 while unparked). Maintained by the
        fleet's park bookkeeping whether or not the fast path is
        enabled, so sweep columns are stable across ``REPRO_FLEET_PARK``
        settings.
    """

    __slots__ = (
        "n_servers",
        "outstanding",
        "routed",
        "parked",
        "cursor",
        "pack_watermark",
        "unroutable",
        "n_unroutable",
        "park_transitions",
        "parked_ns",
        "park_since",
    )

    def __init__(self, n_servers: int, pack_watermark: int = 1):
        if n_servers < 1:
            raise ValueError(f"a fleet needs at least one server, got {n_servers}")
        if pack_watermark < 1:
            raise ValueError(
                f"the resolved pack watermark must be >= 1, got {pack_watermark}"
            )
        self.n_servers = n_servers
        self.outstanding = np.zeros(n_servers, dtype=np.int64)
        self.routed = np.zeros(n_servers, dtype=np.int64)
        self.parked = np.zeros(n_servers, dtype=bool)
        self.cursor = 0
        self.pack_watermark = pack_watermark
        self.unroutable = np.zeros(n_servers, dtype=bool)
        self.n_unroutable = 0
        self.park_transitions = np.zeros(n_servers, dtype=np.int64)
        self.parked_ns = np.zeros(n_servers, dtype=np.int64)
        self.park_since = np.full(n_servers, -1, dtype=np.int64)

    def reset_counters(self) -> None:
        """Zero the window-scoped tallies (measurement boundary).

        ``outstanding``, ``parked`` and ``cursor`` are live state, not
        measurements, and are deliberately left alone. Park telemetry
        has its own boundary (:meth:`reset_park_window`) because it
        needs the clock.
        """
        self.routed[:] = 0

    def parked_count(self) -> int:
        """Servers currently advanced analytically."""
        return int(self.parked.sum())

    # -- routability (control-plane owned) ---------------------------------
    def set_unroutable(self, index: int, flag: bool) -> None:
        """Mark one server (un)routable, keeping the popcount in sync."""
        if bool(self.unroutable[index]) == flag:
            return
        self.unroutable[index] = flag
        self.n_unroutable += 1 if flag else -1

    # -- park telemetry ----------------------------------------------------
    def note_park(self, index: int, now: int) -> None:
        """Record a park edge: flip the mask and open a parked span."""
        self.parked[index] = True
        self.park_transitions[index] += 1
        self.park_since[index] = now

    def note_unpark(self, index: int, now: int) -> None:
        """Record an unpark edge: flip the mask and fold the span."""
        self.parked[index] = False
        self.park_transitions[index] += 1
        since = self.park_since[index]
        if since >= 0:
            self.parked_ns[index] += now - since
        self.park_since[index] = -1

    def fold_park_residency(self, now: int) -> None:
        """Fold still-open parked spans into ``parked_ns`` (idempotent)."""
        open_spans = self.parked & (self.park_since >= 0)
        self.parked_ns[open_spans] += now - self.park_since[open_spans]
        self.park_since[open_spans] = now

    def reset_park_window(self, now: int) -> None:
        """Restart park telemetry at a measurement boundary."""
        self.park_transitions[:] = 0
        self.parked_ns[:] = 0
        self.park_since[:] = -1
        self.park_since[self.parked] = now

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FleetState(n={self.n_servers}, "
            f"outstanding={self.outstanding.sum()}, "
            f"parked={self.parked_count()})"
        )
