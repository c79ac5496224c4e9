"""The grid commands (``sweep``, ``fleet``, ``export``) at the CLI.

A bare invocation of each command is parsed and every resulting value
is compared against a literal, together with each flag's spelling, its
type and its choices — so a refactor of the argument plumbing cannot
silently drop a flag or move a default. All three run through one grid
runner, so a failed cell is reported the same way by each.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.sweep import chaos

WORKLOADS = [
    "memcached", "mysql", "kafka", "idle", "nginx", "rpc-fanout",
    "memcached-diurnal", "replay",
]

#: Flags and defaults ``sweep`` and ``fleet`` share.
GRID_DEFAULTS = {
    "cell_deadline": None,
    "duration_ms": 0,
    "max_retries": 3,
    "preset": "low",
    "presets": None,
    "progress": None,
    "quarantine_report": None,
    "rates": None,
    "retry_backoff": 0.05,
    "scenario": None,
    "seeds": "1",
    "set_props": [],
    "stats_json": None,
    "store": None,
    "trace": None,
    "warmup_ms": None,
    "workers": 0,
    "workload": "memcached",
}
GRID_FLAGS = {
    "--cell-deadline", "--configs", "--duration-ms", "--help",
    "--max-retries", "--no-progress", "--out", "--preset", "--presets",
    "--progress", "--quarantine-report", "--rates", "--retry-backoff",
    "--scenario", "--seeds", "--set", "--stats-json", "--store", "--trace",
    "--warmup-ms", "--workers", "--workload", "-h",
}
GRID_TYPES = {
    "duration_ms": "int", "warmup_ms": "int", "workers": "int",
    "max_retries": "int", "retry_backoff": "float", "cell_deadline": "float",
}

EXPECTED = {
    "sweep": (
        {**GRID_DEFAULTS, "configs": "Cshallow,CPC1A",
         "out": "results/sweep_grid.csv"},
        GRID_FLAGS,
        GRID_TYPES,
        {"workload": WORKLOADS, "scenario": WORKLOADS},
    ),
    "fleet": (
        {**GRID_DEFAULTS, "configs": "CPC1A", "out": "results/fleet_grid.csv",
         "control": "static", "dispatch_latency_us": 2.0,
         "pack_watermark": 0, "routing": "round-robin,power-aware-pack",
         "servers": 2},
        GRID_FLAGS | {"--control", "--dispatch-latency-us",
                      "--pack-watermark", "--routing", "--servers"},
        {**GRID_TYPES, "servers": "int", "dispatch_latency_us": "float",
         "pack_watermark": "int"},
        {"workload": WORKLOADS, "scenario": WORKLOADS},
    ),
    "export": (
        {"cell_deadline": None, "configs": "Cshallow,CPC1A",
         "duration_ms": 100, "max_retries": 3, "out": "results/sweep.csv",
         "preset": "low", "progress": None, "quarantine_report": None,
         "rates": "0,4000,10000,25000,50000,100000", "retry_backoff": 0.05,
         "seed": 0, "set_props": [], "stats_json": None, "store": None,
         "warmup_ms": 20, "workers": 1, "workload": "memcached"},
        {"--configs", "--duration-ms", "--help", "--no-progress", "--out",
         "--preset", "--progress", "--rates", "--seed", "--set",
         "--store", "--warmup-ms", "--workers", "--workload", "-h"},
        {"duration_ms": "int", "warmup_ms": "int", "seed": "int",
         "workers": "int"},
        {"workload": WORKLOADS},
    ),
}


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = build_parser()
    (sub,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sub.choices[command]


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_bare_command_defaults_are_pinned(command):
    defaults, flags, types, choices = EXPECTED[command]
    args = vars(build_parser().parse_args([command]))
    assert args.pop("command") == command
    args.pop("fn")
    assert args == defaults
    actions = _subparser(command)._actions
    assert {flag for action in actions for flag in action.option_strings} == flags
    assert {a.dest: a.type.__name__ for a in actions if a.type} == types
    assert {a.dest: list(a.choices) for a in actions if a.choices} == choices


#: One CPC1A memcached cell per grid command, and that cell's label.
ONE_CELL = {
    "sweep": (["--rates", "8000", "--configs", "CPC1A"],
              "CPC1A/memcached@8000/seed1"),
    "fleet": (["--rates", "8000", "--configs", "CPC1A",
               "--routing", "round-robin"],
              "/memcached@8000/seed1"),
    "export": (["--rates", "8000", "--configs", "CPC1A"],
               "CPC1A/memcached@8000/seed0"),
}


@pytest.mark.parametrize("command", sorted(ONE_CELL))
def test_every_grid_command_reports_failed_cells(command, tmp_path, monkeypatch):
    grid, label = ONE_CELL[command]
    out = tmp_path / "grid.csv"
    monkeypatch.setenv(chaos.ENV_VAR, "seed=1,fault=1")
    code = main([
        command, *grid, "--duration-ms", "5", "--warmup-ms", "1",
        "--workers", "1", "--no-progress", "--out", str(out),
    ])
    assert code == 1
    report = json.loads((tmp_path / "grid.csv.quarantine.json").read_text())
    (cell,) = report["quarantined"]
    assert cell["label"].endswith(label)
    assert len(out.read_text().splitlines()) == 1  # the header only
