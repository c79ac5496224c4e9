"""Pinned determinism bar: event-stream and result digests of four cells.

A change that only makes the simulator faster must leave what it
simulates untouched: the same events fire at the same times in the
same order, and every simulated statistic is bit-identical. This
module pins both for four short cells — one single-server memcached
cell per power-state config and one 8-server CPC1A fleet cell — in
``tests/data/determinism_pins.json``:

* ``events`` / ``event_digest``: the sanitize-mode count and SHA-256
  of the dispatched event stream (:mod:`repro.sim.sanitize`);
* ``result_sha256``: SHA-256 of the result's canonical JSON, kernel
  counters left out (they are diagnostics a faster kernel may move).

A mismatch means the change altered the simulation. Regenerate the
pins (``PYTHONPATH=src python tests/test_determinism_pins.py``) only
for a change that is meant to alter simulated behaviour, and say so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, FleetCell, run_cell

PINS = Path(__file__).parent / "data" / "determinism_pins.json"

MS = 1_000_000

CELLS = {
    **{
        f"server-{config}": ExperimentSpec(
            workload="memcached",
            qps=20_000.0,
            preset="low",
            config=config,
            seed=1,
            duration_ns=5 * MS,
            warmup_ns=1 * MS,
        )
        for config in ("Cshallow", "Cdeep", "CPC1A")
    },
    "fleet8-CPC1A": FleetCell(
        workload="memcached-diurnal",
        qps=80_000.0,
        preset="low",
        machine="CPC1A",
        n_servers=8,
        routing="power-aware-pack",
        seed=1,
        duration_ns=5 * MS,
        warmup_ns=1 * MS,
    ),
}


def result_sha256(result) -> str:
    """SHA-256 of the result's simulated statistics as canonical JSON."""
    data = dataclasses.asdict(result)
    data.pop("kernel", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def measure(cell) -> dict:
    """Run ``cell`` in sanitize mode; its event and result digests."""
    runtime = cell.build()
    assert runtime.sim.sanitize, "REPRO_SANITIZE must be set before building"
    result = run_cell(cell, runtime=runtime)
    report = runtime.sim.sanitize_report()
    return {
        "events": report.events,
        "event_digest": report.digest,
        "result_sha256": result_sha256(result),
    }


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_pinned_digests(name, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    pinned = json.loads(PINS.read_text())[name]
    assert measure(CELLS[name]) == pinned


def test_pins_cover_exactly_the_cells():
    assert sorted(json.loads(PINS.read_text())) == sorted(CELLS)


if __name__ == "__main__":
    os.environ["REPRO_SANITIZE"] = "1"
    pins = {name: measure(cell) for name, cell in sorted(CELLS.items())}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}")
