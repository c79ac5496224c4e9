"""The public surface has one way to run a cell and one way to run a grid.

``repro.api.run_cell`` runs a cell and ``SweepSession.run`` runs a
grid, always on a freshly built runtime; the removed alternatives,
compat aliases and warm-runtime recycling must stay removed, and
``import repro`` must not pull in heavyweight dependencies the package
does not need.
"""

from __future__ import annotations

import ast
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
    ("repro.server.machine", "MachineCheckpoint"),
    ("repro.server.machine", "CheckpointError"),
    ("repro.fleet.cluster", "MachineCheckpoint"),
    ("repro.sweep", "recycling_enabled"),
    ("repro.sweep.session", "recycling_enabled"),
    ("repro.sweep.session", "clear_warm_machines"),
    ("repro.lint", "verify_recycle_roundtrip"),
    ("repro.lint", "RoundTripReport"),
]

REMOVED_ATTRIBUTES = [
    ("repro.sim.engine", "Simulator", "reset"),
    ("repro.fleet.routing", "LoadBalancer", "retarget"),
    ("repro.server.machine", "ServerMachine", "recycle"),
    ("repro.fleet.cluster", "FleetMachine", "recycle"),
    ("repro.sweep.spec", "ExperimentSpec", "warm_slot"),
    ("repro.fleet.spec", "FleetCell", "warm_slot"),
]

#: Names the benchmark's probe installer still binds; each one raises.
RECYCLE_STUBS = [
    ("repro.sweep.spec", "ExperimentSpec", "recycle"),
    ("repro.fleet.spec", "FleetCell", "recycle"),
    ("repro.server.machine", "ServerMachine", "checkpoint"),
    ("repro.fleet.cluster", "FleetMachine", "checkpoint"),
]

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(("module", "name"), REMOVED)
def test_removed_name_stays_removed(module, name):
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(("module", "owner", "name"), REMOVED_ATTRIBUTES)
def test_removed_method_stays_removed(module, owner, name):
    assert not hasattr(getattr(importlib.import_module(module), owner), name)


def test_removed_modules_and_methods_stay_removed():
    from repro.fleet import FleetCell

    assert not hasattr(FleetCell, "simulate")
    for module in (
        "repro.sweep.runner", "repro.server.recycle", "repro.lint.sanitizer"
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


@pytest.mark.parametrize(("module", "owner", "name"), RECYCLE_STUBS)
def test_recycle_stubs_raise(module, owner, name):
    method = getattr(getattr(importlib.import_module(module), owner), name)
    with pytest.raises(NotImplementedError, match="build a fresh runtime"):
        method(*[None] * (method.__code__.co_argcount))


def test_nothing_in_src_reaches_warm_recycling():
    calls, mentions = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("checkpoint", "recycle", "warm_slot")
            ):
                calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Constant) and "REPRO_SWEEP_RECYCLE" in str(
                node.value
            ):
                mentions.append(f"{path.name}:{node.lineno}")
    assert calls == [] and mentions == []


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
