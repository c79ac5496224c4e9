"""The public surface has one way to run a cell and one way to run a grid.

``repro.api.run_cell`` runs a cell and ``SweepSession.run`` runs a
grid; the removed alternatives and compat aliases must stay removed,
and ``import repro`` must not pull in heavyweight dependencies the
package does not need.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REMOVED = [
    ("repro", "SweepRunner"),
    ("repro", "run_sweep"),
    ("repro.sweep", "SweepRunner"),
    ("repro.sweep", "run_sweep"),
    ("repro.sweep", "run_cell"),
    ("repro.api", "run_fleet_experiment"),
    ("repro.fleet", "run_fleet_experiment"),
    ("repro.fleet.experiment", "run_fleet_experiment"),
    ("repro.workloads", "MmppArrivals"),
    ("repro.workloads.arrivals", "MmppArrivals"),
    ("repro.workloads", "WORKLOAD_NAMES"),
    ("repro.workloads", "PRESET_WORKLOADS"),
    ("repro.workloads.factory", "WORKLOAD_NAMES"),
    ("repro.workloads.factory", "PRESET_WORKLOADS"),
]


@pytest.mark.parametrize(("module", "name"), REMOVED)
def test_removed_name_stays_removed(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_removed_modules_and_methods_stay_removed():
    from repro.fleet import FleetCell

    assert not hasattr(FleetCell, "simulate")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sweep.runner")


def test_the_one_way_to_run_is_exported():
    import repro
    import repro.api

    assert repro.SweepSession is repro.api.SweepSession
    assert callable(repro.api.run_cell)


def test_import_repro_does_not_load_networkx():
    import repro

    # A fresh interpreter: this one may have imported anything already.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    code = "import sys, repro; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True, timeout=120,
    ).stdout
    assert out.strip() == "False"
