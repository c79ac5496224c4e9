"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       one experiment (workload x config) with a result summary;
``compare``   paired Cshallow-vs-CPC1A comparison at one load;
``idle``      Table 1-style idle power across the three configs;
``latency``   the PC1A transition-latency decomposition (Sec. 5.5);
``area``      the APC area-overhead breakdown (Sec. 5.1-5.3);
``export``    sweep a rate range and write the observables as CSV;
``sweep``     run a scenario x config x rate x seed grid in parallel;
``fleet``     sweep multi-server clusters (routing x config x rate);
``props``     inspect the platform-property registry (list/info);
``store``     result-store maintenance (``verify`` / ``gc``);
``scenarios`` list the registered traffic scenarios;
``validate``  fast end-to-end check of the headline paper anchors;
``lint``      static determinism analysis (RPR rules).

Sweeps
------
``sweep`` is the scale-out entry point: it expands a declarative grid
(:class:`repro.sweep.SweepSpec`), fans the cells out over a worker
pool, caches each cell's result under a content-hash key, and writes
both a per-cell CSV and a per-seed mean/CI summary::

    python -m repro sweep --workload memcached \\
        --configs Cshallow,CPC1A --rates 0,4000,25000,100000 \\
        --seeds 1,2,3 --workers 8 --store results/sweep_cache \\
        --out results/sweep.csv

Re-running with an unchanged grid is free: every cell is a cache hit.
``export`` is the figure-oriented single-seed CSV (fixed column set
and one row per rate, for re-plotting Figs. 6/7); it runs through the
same grid runner, so it shares the store, retries and quarantine.

Scenarios
---------
``--scenario`` sweeps a registered scenario on its default grid
(override with ``--rates``/``--presets``/``--trace``), and
``repro scenarios list`` shows everything the registry knows::

    python -m repro scenarios list
    python -m repro sweep --scenario nginx --configs Cshallow,CPC1A
    python -m repro sweep --scenario replay --trace traces/prod.csv

Platform properties
-------------------
Every policy knob of the modelled platform is a registered property
(``repro props list``); ``--set NAME=VALUE[,VALUE...]`` grids any of
them as a first-class sweep axis::

    python -m repro props list
    python -m repro sweep --configs Cshallow \\
        --set timer_tick_hz=0,100,250 --set cstates.cc1e.enable=on,off
    python -m repro fleet --set fleet.n_servers=2,8 --set governor=menu

``--stats-json`` writes a machine-readable run summary (cells, cache
hits/misses, rows, fault counters) for CI assertions.
``--progress``/``--no-progress`` controls the throttled per-cell
progress lines on stderr (default: only when stderr is a TTY; at most
~1 line per second however wide the grid is).

Robustness
----------
Sweeps run on a supervised execution plane (``docs/robustness.md``):
dead workers respawn, failing cells retry under
``--max-retries``/``--retry-backoff``, stuck cells are killed past
``--cell-deadline``, and cells that exhaust their budget are
quarantined (report written beside the CSV; exit code 1) while the
rest of the grid completes. With ``--store``, every finished cell is
on disk the moment it completes, so rerunning an interrupted campaign
with the same ``--store`` simulates only the cells still missing;
Ctrl-C flushes the partial CSV durably and exits 130. ``repro store
verify`` / ``repro store gc`` audit and clean a store whose records
may have been torn by crashes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

from repro import scenarios as scenario_registry
from repro.analysis.report import PaperComparison, comparison_table, format_table
from repro.analysis.savings import savings_between
from repro.core.area import SkxAreaModel
from repro.core.latency import Pc1aLatencyModel
from repro.props import (
    PropertyError,
    all_props,
    get_prop,
    preset_names,
    preset_props,
    render_value,
)
from repro.server.configs import CONFIG_BUILDERS, config_by_name
from repro.server.experiment import ExperimentResult, run_experiment
from repro.sweep import (
    CellPolicy,
    ExperimentSpec,
    ResultStore,
    StreamingCsvWriter,
    SweepResults,
    SweepSession,
    SweepSpec,
    WorkloadPoint,
    default_workers,
    flatten_result,
    preset_points,
)
from repro.units import MS
from repro.workloads.base import NullWorkload

#: Historical grid defaults (memcached's rate axis; mysql/kafka's
#: shared presets) used when neither ``--scenario`` nor an explicit
#: grid narrows them.
DEFAULT_RATES = "0,4000,10000,25000,50000,100000"
DEFAULT_PRESETS = "low,high"


class ThrottledProgress:
    """Per-cell progress lines, throttled for wide grids.

    Unthrottled per-cell printing measurably drags sweeps whose cells
    finish every few milliseconds, so a line is emitted at most about
    once per second (or every ``stride``-th cell, whichever comes
    first) plus a final line for the last cell. The cell label is only
    rendered when a line is actually printed.
    """

    def __init__(
        self, total: int, stream=None, min_interval_s: float = 1.0, stride: int = 100
    ):
        self.total = total
        self.count = 0
        self.emitted = 0
        self._stream = sys.stderr if stream is None else stream
        self._min_interval_s = min_interval_s
        self._stride = max(1, stride)
        # -inf, not 0: time.monotonic() is time since boot, so a zero
        # sentinel would swallow the first line on a freshly booted
        # machine whose uptime is below the throttle interval.
        self._last_emit = float("-inf")

    def __call__(self, cell: ExperimentSpec) -> None:
        self.count += 1
        now = time.monotonic()
        if (
            now - self._last_emit < self._min_interval_s
            and self.count % self._stride != 0
            and self.count != self.total
        ):
            return
        self._last_emit = now
        self.emitted += 1
        print(f"[{self.count}/{self.total}] {cell.label()}",
              file=self._stream, flush=True)


def _progress_for(args: argparse.Namespace, total: int) -> ThrottledProgress | None:
    """The sweep progress callback implied by --progress/--no-progress.

    The default (no flag) shows progress only on interactive runs:
    piping a sweep into a file or CI log should not interleave
    thousands of progress lines with the results.
    """
    enabled = args.progress
    if enabled is None:
        enabled = sys.stderr.isatty()
    return ThrottledProgress(total) if enabled else None


def _add_progress_flag(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--progress", action="store_true", default=None, dest="progress",
        help="print throttled per-cell progress to stderr "
             "(default: only when stderr is a TTY)",
    )
    group.add_argument(
        "--no-progress", action="store_false", dest="progress",
        help="suppress per-cell progress output",
    )


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="extra attempts per cell before quarantine (default 3)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base delay before a retry, doubling per attempt (default 0.05)",
    )
    parser.add_argument(
        "--cell-deadline", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget; a stuck cell's worker is "
             "killed and the cell retried (default: no deadline)",
    )
    parser.add_argument(
        "--quarantine-report", default=None, metavar="PATH",
        help="where to write the quarantine report when cells exhaust "
             "their retries (default: <out>.quarantine.json)",
    )


def _add_grid_args(
    parser: argparse.ArgumentParser, configs: str, out: str, fleet: bool = False
) -> None:
    """The grid, execution and output flags ``sweep`` and ``fleet`` share.

    ``configs`` and ``out`` are the command's ``--configs``/``--out``
    defaults; ``fleet`` admits fleet-scoped ``--set`` properties.
    """
    parser.add_argument(
        "--workload", default="memcached",
        choices=list(scenario_registry.scenario_names()),
    )
    parser.add_argument(
        "--scenario", default=None,
        choices=list(scenario_registry.scenario_names()),
        help="sweep a registered scenario on its default grid "
             "(overrides --workload; see 'repro scenarios list')",
    )
    parser.add_argument(
        "--configs", default=configs,
        help="comma-separated config names (per server for fleets)",
    )
    parser.add_argument(
        "--rates", default=None,
        help="comma-separated offered rates (rate scenarios; 0 = idle; "
             f"a fleet's rate is its total load; default {DEFAULT_RATES})",
    )
    parser.add_argument(
        "--presets", default=None,
        help="comma-separated presets (preset scenarios; "
             f"default {DEFAULT_PRESETS})",
    )
    parser.add_argument(
        "--trace", default=None,
        help="trace file for --scenario replay (default: bundled example)",
    )
    parser.add_argument("--preset", default="low", help=argparse.SUPPRESS)
    parser.add_argument(
        "--seeds", default="1", help="comma-separated seeds; >1 adds CI"
    )
    parser.add_argument(
        "--duration-ms", type=int, default=0,
        help="window per cell (0 = size each window to its rate)",
    )
    parser.add_argument(
        "--warmup-ms", type=int, default=None,
        help="warmup per cell (default: derived from the window)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = one per core, REPRO_SWEEP_WORKERS)",
    )
    parser.add_argument(
        "--store", default=None, help="result-cache directory (optional)"
    )
    parser.add_argument("--out", default=out)
    parser.add_argument(
        "--stats-json", default=None,
        help="write machine-readable run stats (cells, cache hits) here",
    )
    _add_set_flag(parser, fleet=fleet)
    _add_progress_flag(parser)
    _add_robustness_flags(parser)


def _cell_policy(args: argparse.Namespace) -> CellPolicy:
    try:
        return CellPolicy(
            max_retries=args.max_retries,
            retry_backoff_s=args.retry_backoff,
            deadline_s=args.cell_deadline,
        )
    except ValueError as error:
        raise SystemExit(f"invalid retry policy: {error}") from None


def _quarantine_report_path(args: argparse.Namespace) -> Path:
    if args.quarantine_report:
        return Path(args.quarantine_report)
    return Path(f"{args.out}.quarantine.json")


def _handle_quarantined(args: argparse.Namespace, results) -> int:
    """Write the quarantine report; nonzero exit when cells were lost."""
    if not results.quarantined:
        return 0
    report_path = _quarantine_report_path(args)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps({
        "quarantined": [cell.as_dict() for cell in results.quarantined],
    }, indent=1, sort_keys=True) + "\n")
    print(
        f"WARNING: {len(results.quarantined)} cell(s) quarantined after "
        f"exhausting retries; report written to {report_path}",
        file=sys.stderr,
    )
    return 1


def _interrupt_summary(
    args: argparse.Namespace, writer, total: int, store
) -> int:
    """Ctrl-C: make partial output durable and report what remains."""
    completed = writer.rows
    writer.close()
    hint = "" if store is None else " (rerun with the same --store to finish)"
    print(
        f"interrupted: {completed}/{total} row(s) durable in {args.out}; "
        f"{max(0, total - completed)} cell(s) remaining{hint}",
        file=sys.stderr,
    )
    return 130


def _resolve_workers(workers: int) -> int:
    """--workers -> pool size (0 = one per core; negatives rejected)."""
    if workers < 0:
        raise SystemExit("--workers must be >= 0 (0 = one per core)")
    if workers:
        return workers
    try:
        return default_workers()
    except ValueError as error:  # bad REPRO_SWEEP_WORKERS override
        raise SystemExit(str(error)) from None


def summarize(result: ExperimentResult) -> str:
    """Human-readable one-result summary."""
    rows = [
        ["config", result.config_name],
        ["workload", result.workload_name],
        ["offered QPS", f"{result.offered_qps:,.0f}"],
        ["achieved QPS", f"{result.achieved_qps:,.0f}"],
        ["utilization", f"{result.utilization:.1%}"],
        ["all-cores-idle", f"{result.all_idle_fraction:.1%}"],
        ["SoC power", f"{result.package_power_w:.2f} W"],
        ["DRAM power", f"{result.dram_power_w:.2f} W"],
        ["total power", f"{result.total_power_w:.2f} W"],
        ["avg latency", f"{result.latency.mean_us:.1f} us"],
        ["p99 latency", f"{result.latency.p99_us:.1f} us"],
    ]
    if result.package_residency:
        dominant = max(result.package_residency, key=result.package_residency.get)
        rows.append([
            "dominant package state",
            f"{dominant} ({result.package_residency[dominant]:.1%})",
        ])
    if result.pc1a_entries:
        rows.append(["PC1A residency", f"{result.pc1a_residency():.1%}"])
        rows.append(["PC1A transitions", f"{result.pc1a_exits}"])
        rows.append(["mean PC1A exit", f"{result.pc1a_mean_exit_ns:.0f} ns"])
    if result.pc6_entries:
        rows.append(["PC6 residency", f"{result.pc6_residency():.1%}"])
        rows.append(["PC6 entries", f"{result.pc6_entries}"])
    return format_table(["metric", "value"], rows)


def _add_run_args(parser: argparse.ArgumentParser, qps: bool = True) -> None:
    parser.add_argument(
        "--workload", default="memcached",
        choices=list(scenario_registry.scenario_names()),
    )
    if qps:
        parser.add_argument(
            "--qps", type=float, default=20_000,
            help="offered rate (rate-driven scenarios)",
        )
    parser.add_argument(
        "--preset", default="low", help="preset (mysql/kafka) or trace path (replay)"
    )
    parser.add_argument("--duration-ms", type=int, default=100)
    parser.add_argument("--warmup-ms", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)


def _build_cli_workload(args: argparse.Namespace):
    """Build the run/compare workload with CLI-friendly errors."""
    try:
        return scenario_registry.build(args.workload, args.qps, args.preset)
    except (KeyError, ValueError, OSError) as error:
        # OSError: a trace workload naming a missing/unreadable file.
        raise SystemExit(f"invalid workload: {error}") from None


def cmd_run(args: argparse.Namespace) -> int:
    workload = _build_cli_workload(args)
    result = run_experiment(
        workload, config_by_name(args.config),
        duration_ns=args.duration_ms * MS, warmup_ns=args.warmup_ms * MS,
        seed=args.seed,
    )
    print(summarize(result))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _build_cli_workload(args)  # validate before the first full run
    results = {}
    for name in ("Cshallow", "CPC1A"):
        results[name] = run_experiment(
            _build_cli_workload(args),
            config_by_name(name),
            duration_ns=args.duration_ms * MS,
            warmup_ns=args.warmup_ms * MS,
            seed=args.seed,
        )
    point = savings_between(results["Cshallow"], results["CPC1A"])
    print(summarize(results["CPC1A"]))
    print(f"\npower savings vs Cshallow: {point.savings_percent:.1f}% "
          f"({point.saved_watts:.2f} W)")
    return 0


def cmd_idle(args: argparse.Namespace) -> int:
    rows = []
    for name in CONFIG_BUILDERS:
        result = run_experiment(
            NullWorkload(), config_by_name(name),
            duration_ns=20 * MS, warmup_ns=5 * MS, seed=args.seed,
        )
        rows.append([
            name,
            result.package_residency and max(
                result.package_residency, key=result.package_residency.get
            ),
            f"{result.package_power_w:.2f} W",
            f"{result.dram_power_w:.2f} W",
            f"{result.total_power_w:.2f} W",
        ])
    print(format_table(["config", "package state", "SoC", "DRAM", "total"], rows))
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    model = Pc1aLatencyModel()
    rows = [
        [step, f"t+{offset} ns"] for step, offset in model.entry_breakdown().items()
    ]
    rows.extend([branch, f"{ns} ns"] for branch, ns in model.exit_breakdown().items())
    rows.append(["ENTRY total", f"{model.entry_ns} ns"])
    rows.append(["EXIT total (max of branches)", f"{model.exit_ns} ns"])
    rows.append(["worst-case transition", f"{model.worst_case_transition_ns} ns"])
    rows.append(["speedup vs PC6", f"{model.speedup_vs_pc6:.0f}x"])
    print(format_table(["step / branch", "time"], rows))
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    model = SkxAreaModel(interconnect_width_bits=args.width_bits)
    rows = [[name, f"{100 * value:.4f} %"] for name, value in model.breakdown().items()]
    rows.append(["TOTAL", f"{model.total_die_percent:.4f} %"])
    print(format_table(["component", "die area"], rows))
    return 0


EXPORT_COLUMNS = (
    "offered_qps",
    "config",
    "utilization",
    "all_idle_fraction",
    "pc1a_residency",
    "pc6_residency",
    "package_power_w",
    "dram_power_w",
    "total_power_w",
    "mean_latency_us",
    "p99_latency_us",
    "pc1a_exits",
    "requests_completed",
)


def _split_configs(value: str) -> tuple[str, ...]:
    """--configs -> config names (blank entries dropped)."""
    configs = tuple(name.strip() for name in value.split(",") if name.strip())
    if not configs:
        raise SystemExit("--configs must list at least one config")
    return configs


def _rate_points(args: argparse.Namespace) -> tuple[WorkloadPoint, ...]:
    """--rates -> workload points (rate 0 = the fully idle server)."""
    rates_csv = args.rates if args.rates is not None else DEFAULT_RATES
    rates = [float(r) for r in rates_csv.split(",") if r.strip()]
    if not rates:
        raise SystemExit("--rates must list at least one rate")
    return tuple(
        WorkloadPoint(
            "idle" if qps == 0 else args.workload, qps=qps, preset=args.preset
        )
        for qps in rates
    )


def cmd_export(args: argparse.Namespace) -> int:
    """Sweep offered rates and dump the observables as CSV.

    The CSV carries everything needed to re-plot the paper's
    Memcached figures (6 and 7) with external tooling. The grid runs
    through the same runner as ``sweep``, so ``--workers``
    parallelises it, ``--store`` makes re-runs of unchanged cells
    cache hits, and failed cells are quarantined and reported.

    Cells are an explicit list rather than a :class:`SweepSpec`: for
    preset-driven workloads every listed rate is the same physical
    experiment, which a spec rejects as a duplicate — here the session
    simulates it once and the CSV keeps the historical
    one-row-per-rate layout (``offered_qps`` is the listed rate).
    """
    try:
        points = _rate_points(args)
        combos = _parse_set_args(args.set_props)
        cells = [
            ExperimentSpec(
                workload=point.workload,
                qps=point.qps,
                preset=point.preset,
                config=config,
                seed=args.seed,
                duration_ns=args.duration_ms * MS,
                warmup_ns=args.warmup_ms * MS,
                props=combo,
            )
            for config in _split_configs(args.configs)
            for combo in combos
            for point in points
        ]
    except (KeyError, ValueError) as error:
        raise SystemExit(f"invalid export grid: {error}") from None
    return _run_grid(
        args, cells, "cells", columns=EXPORT_COLUMNS,
        flatten=lambda result, spec: {
            **flatten_result(result, spec=spec), "offered_qps": spec.qps,
        },
    )


def _scenario_points(args: argparse.Namespace) -> tuple[WorkloadPoint, ...]:
    """--scenario (+ optional --rates/--presets/--trace) -> points."""
    rates = None
    if args.rates is not None:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
        if not rates:
            raise SystemExit("--rates must list at least one rate")
    presets = None
    if args.presets is not None:
        presets = tuple(p.strip() for p in args.presets.split(",") if p.strip())
        if not presets:
            raise SystemExit("--presets must list at least one preset")
    points = scenario_registry.sweep_points(
        args.scenario, rates=rates, presets=presets, trace=args.trace
    )
    if args.duration_ms:
        # An explicit window beats the scenario's default: drop the
        # point-level override so the spec-level one applies.
        points = tuple(
            replace(point, duration_ns=None, warmup_ns=None)
            for point in points
        )
    return points


def _workload_points(args: argparse.Namespace) -> tuple[WorkloadPoint, ...]:
    """The workload-point axis of a sweep/fleet grid.

    ``--scenario`` uses the registry defaults (narrowed by
    ``--rates``/``--presets``/``--trace``); otherwise the workload
    name's kind decides which knob applies.
    """
    kind = scenario_registry.get(args.scenario or args.workload).kind
    if args.scenario:
        return _scenario_points(args)
    if kind == "preset":
        preset_csv = args.presets or DEFAULT_PRESETS
        presets = tuple(p.strip() for p in preset_csv.split(",") if p.strip())
        if not presets:
            raise SystemExit("--presets must list at least one preset")
        return preset_points(args.workload, presets)
    if kind == "trace":
        # Trace scenarios have exactly one operating point: the
        # file (--trace; default = the scenario's bundled trace).
        return scenario_registry.sweep_points(args.workload, trace=args.trace)
    if kind == "fixed":
        return (WorkloadPoint(args.workload),)
    return _rate_points(args)


def _parse_seeds(value: str) -> tuple[int, ...]:
    seeds = tuple(int(s) for s in value.split(",") if s.strip())
    if not seeds:
        raise SystemExit("--seeds must list at least one seed")
    return seeds


def _add_set_flag(parser: argparse.ArgumentParser, fleet: bool = False) -> None:
    scope_note = (
        "fleet-scoped names (fleet.*) configure the cluster"
        if fleet
        else "machine-scoped names only (see 'repro props list')"
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE[,VALUE...]",
        dest="set_props",
        help="platform-property override; a comma list of values grids "
             f"the axis (repeat --set for more properties; {scope_note})",
    )


def _parse_set_args(
    set_args: list[str], fleet: bool = False
) -> tuple[dict[str, object], ...]:
    """``--set`` occurrences -> the cross product of override dicts.

    Each occurrence is ``name=value`` or ``name=v1,v2,...`` (a grid
    axis); occurrences cross-multiply, so ``--set timer_tick_hz=0,250
    --set governor=shallow,menu`` yields four override sets. Values are
    parsed and validated against the registry here, so a typo'd name
    or out-of-range value dies with a pepc-style message before any
    cell is built.
    """
    axes: list[tuple[str, list[object]]] = []
    seen: set[str] = set()
    for raw in set_args:
        name, sep, blob = raw.partition("=")
        name = name.strip()
        if not sep or not name or not blob.strip():
            raise SystemExit(
                f"--set expects NAME=VALUE[,VALUE...], got {raw!r}"
            )
        if name in seen:
            raise SystemExit(
                f"--set {name} given twice; grid one property with a "
                f"comma list instead (--set {name}=v1,v2)"
            )
        try:
            prop = get_prop(name)
            if prop.scope == "fleet" and not fleet:
                raise SystemExit(
                    f"--set {name} is fleet-scoped; it configures a "
                    "cluster — use it with 'repro fleet'"
                )
            values = [prop.parse(v.strip()) for v in blob.split(",") if v.strip()]
        except PropertyError as error:
            raise SystemExit(f"invalid --set: {error}") from None
        if not values:
            raise SystemExit(f"--set {name} lists no values")
        if len(set(map(repr, values))) != len(values):
            raise SystemExit(f"--set {name} lists duplicate values: {blob}")
        seen.add(name)
        axes.append((name, values))
    combos: list[dict[str, object]] = [{}]
    for name, values in axes:
        combos = [{**combo, name: value} for combo in combos for value in values]
    return tuple(combos)


def _split_scopes(
    combo: dict[str, object],
) -> tuple[dict[str, object], dict[str, object]]:
    """One override set -> (machine-scoped, fleet-scoped) halves."""
    machine = {k: v for k, v in combo.items() if get_prop(k).scope != "fleet"}
    fleet = {k: v for k, v in combo.items() if get_prop(k).scope == "fleet"}
    return machine, fleet


def cmd_props(args: argparse.Namespace) -> int:
    """Inspect the platform-property registry (list / info)."""
    if args.action == "list":
        rows = []
        for prop in all_props():
            rows.append([
                prop.name,
                prop.scope,
                prop.ptype.__name__,
                prop.allowed(),
                render_value(prop.default),
                prop.doc,
            ])
        print(format_table(
            ["property", "scope", "type", "allowed", "default", "description"],
            rows,
        ))
        print(f"\n{len(rows)} properties; sweep one with: "
              "repro sweep --set <property>=<v1,v2,...>")
        return 0
    # info <name>
    try:
        prop = get_prop(args.name)
    except PropertyError as error:
        raise SystemExit(str(error)) from None
    unit = f" {prop.unit}" if prop.unit else ""
    rows = [
        ["name", prop.name],
        ["scope", prop.scope],
        ["type", prop.ptype.__name__],
        ["allowed", prop.allowed() + unit],
        ["default", render_value(prop.default) + unit],
        ["description", prop.doc],
    ]
    if prop.scope != "fleet":
        for preset in preset_names():
            rows.append([
                f"value in {preset}",
                render_value(preset_props(preset)[prop.name]) + unit,
            ])
    print(format_table(["field", "value"], rows))
    return 0


def _write_stats_json(
    args: argparse.Namespace, run_stats: dict, workers: int, rows: int
) -> None:
    """Persist a run's ``last_run_stats`` accounting for CI assertions."""
    stats_path = Path(args.stats_json)
    stats_path.parent.mkdir(parents=True, exist_ok=True)
    stats_path.write_text(json.dumps({
        "cells": run_stats["cells"],
        "unique_cells": run_stats["unique_cells"],
        "cache_hits": run_stats["cache_hits"],
        "cache_misses": run_stats["unique_cells"] - run_stats["cache_hits"],
        "workers": workers,
        "rows": rows,
        "csv": str(args.out),
        # Fault-tolerance counters (see docs/robustness.md).
        "simulated": run_stats["simulated"],
        "retries": run_stats["retries"],
        "requeues": run_stats["requeues"],
        "deadline_kills": run_stats["deadline_kills"],
        "worker_deaths": run_stats["worker_deaths"],
        "respawns": run_stats["respawns"],
        "quarantined": run_stats["quarantined"],
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote run stats to {stats_path}")


def _run_grid(
    args: argparse.Namespace,
    cells: list,
    noun: str,
    table: Callable[[SweepResults], str] | None = None,
    columns: tuple[str, ...] | None = None,
    flatten=None,
) -> int:
    """Run a grid command's cells and report them; returns the exit code.

    Rows stream to ``--out`` as cells complete (in deterministic cell
    order, so the CSV is byte-identical to a buffered write) instead
    of holding the whole grid's results before the first row lands.
    ``columns``/``flatten`` pick the CSV layout (default: the
    single-machine one); ``table``, if given, renders the printed
    summary.
    """
    workers = _resolve_workers(args.workers)
    store = ResultStore(args.store) if args.store else None
    with SweepSession(workers=workers, policy=_cell_policy(args)) as session, \
            StreamingCsvWriter(args.out, columns, flatten) as writer:
        try:
            results = session.run(
                cells,
                store=store,
                progress=_progress_for(args, len(cells)),
                on_result=lambda cell, result, cached: writer.write(
                    result, spec=cell),
            )
        except KeyboardInterrupt:
            return _interrupt_summary(args, writer, len(cells), store)
        count = writer.rows
    print(
        f"swept {len(cells)} {noun} on {workers} worker(s); "
        f"{results.cache_hits} cache hit(s)"
    )
    print(f"wrote {count} rows to {args.out}")
    if args.stats_json:
        _write_stats_json(args, session.last_run_stats, workers, count)
    exit_code = _handle_quarantined(args, results)
    if table is not None:
        print(table(results))
    return exit_code


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a full scenario x config x rate x seed grid in parallel.

    Writes every cell as a CSV row (seed column included) and prints a
    per-seed mean/CI summary per grid cell. With ``--store``, cells
    are cached under content-hash keys: re-running an unchanged grid
    simulates nothing. ``--stats-json`` persists the run accounting
    (cells, cache hits/misses, rows) for machine consumption.
    """
    try:
        points = _workload_points(args)
        seeds = _parse_seeds(args.seeds)
        combos = _parse_set_args(args.set_props)
        spec = SweepSpec(
            workloads=points,
            configs=_split_configs(args.configs),
            seeds=seeds,
            duration_ns=args.duration_ms * MS if args.duration_ms else None,
            warmup_ns=args.warmup_ms * MS if args.warmup_ms is not None else None,
            props=combos,
        )
    except (KeyError, ValueError, OSError) as error:
        # OSError: a trace scenario naming a missing/unreadable file.
        raise SystemExit(f"invalid sweep grid: {error}") from None
    return _run_grid(args, spec.cells(), "cells", _sweep_table)


def _sweep_table(results: SweepResults) -> str:
    """Per-seed mean/CI summary, one row per grid cell."""
    rows = [
        [
            agg.config,
            agg.workload_label,
            f"{agg.offered_qps:g}",
            f"{agg.n_seeds}",
            str(agg["total_power_w"]),
            str(agg["mean_latency_us"]),
            str(agg["pc1a_residency"]),
        ]
        for agg in results.aggregate()
    ]
    return format_table(
        ["config", "workload", "qps", "seeds",
         "power (W)", "mean lat (us)", "PC1A res"],
        rows,
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    """Sweep a multi-server cluster grid: routing x config x rate x seed.

    Each cell simulates a whole fleet — N servers under one kernel
    behind a load balancer — fed by a single scenario-driven arrival
    stream. The grid runs through the same sweep session as ``sweep``
    (parallel workers, content-hash store caching, deterministic CSV),
    so comparing routing policies at matched offered load is one
    command::

        python -m repro fleet --scenario memcached --rates 32000 \\
            --servers 4 --routing round-robin,power-aware-pack \\
            --configs CPC1A --workers 4 --out results/fleet.csv
    """
    from repro.fleet import (
        FLEET_CSV_COLUMNS,
        ClusterConfig,
        FleetSpec,
        flatten_fleet_result,
    )
    from repro.props.builtin import CONTROL_PROP_NAMES
    from repro.units import US

    try:
        points = _workload_points(args)
        seeds = _parse_seeds(args.seeds)
        routings = tuple(r.strip() for r in args.routing.split(",") if r.strip())
        if not routings:
            raise SystemExit("--routing must list at least one policy")
        controls = tuple(
            c.strip() for c in args.control.split(",") if c.strip()
        )
        if not controls:
            raise SystemExit("--control must list at least one policy")
        combos = _parse_set_args(args.set_props, fleet=True)
        clusters = []
        for config in _split_configs(args.configs):
            for routing in routings:
                for control in controls:
                    for combo in combos:
                        machine_over, fleet_over = _split_scopes(combo)
                        control_over = {
                            k: v for k, v in fleet_over.items()
                            if k in CONTROL_PROP_NAMES
                        }
                        clusters.append(ClusterConfig(
                            machine=config,
                            n_servers=int(fleet_over.get(
                                "fleet.n_servers", args.servers)),
                            routing=str(fleet_over.get(
                                "fleet.routing", routing)),
                            dispatch_latency_ns=int(fleet_over.get(
                                "fleet.dispatch_latency_ns",
                                int(args.dispatch_latency_us * US))),
                            pack_watermark=int(fleet_over.get(
                                "fleet.pack_watermark", args.pack_watermark)),
                            props=machine_over,
                            control=str(fleet_over.get(
                                "fleet.control", control)),
                            control_props=tuple(
                                sorted(control_over.items())),
                        ))
        # --set fleet.routing / fleet.control override their axis
        # flags, which would otherwise repeat identical clusters once
        # per axis value.
        clusters = tuple(dict.fromkeys(clusters))
        spec = FleetSpec(
            workloads=points,
            clusters=clusters,
            seeds=seeds,
            duration_ns=args.duration_ms * MS if args.duration_ms else None,
            warmup_ns=args.warmup_ms * MS if args.warmup_ms is not None else None,
        )
    except (KeyError, ValueError, OSError) as error:
        raise SystemExit(f"invalid fleet grid: {error}") from None
    return _run_grid(
        args, spec.cells(), "fleet cells", _fleet_table,
        columns=FLEET_CSV_COLUMNS, flatten=flatten_fleet_result,
    )


def _fleet_table(results: SweepResults) -> str:
    """One row per fleet cell: power, tail latency, PC1A, active servers."""
    rows = [
        [
            result.config_name,
            f"x{result.n_servers}",
            result.routing,
            result.workload_name,
            f"{result.offered_qps:g}",
            f"{result.seed}",
            f"{result.total_power_w:.1f} W",
            f"{result.latency.p99_us:.0f} us",
            f"{result.pc1a_residency():.1%}",
            f"{result.active_servers()}/{result.n_servers}",
        ]
        for result in results
    ]
    return format_table(
        ["config", "servers", "routing", "workload", "qps", "seed",
         "fleet power", "p99", "PC1A res", "active"],
        rows,
    )


def cmd_control(args: argparse.Namespace) -> int:
    """Inspect the fleet-autoscaling controller registry."""
    from repro.control import CONTROLLER_DEFS
    from repro.props.builtin import CONTROL_PROP_NAMES

    print(format_table(
        ["policy", "description"],
        [[d.name, d.doc] for d in CONTROLLER_DEFS],
    ))
    rows = []
    for name in CONTROL_PROP_NAMES:
        prop = get_prop(name)
        unit = f" {prop.unit}" if prop.unit else ""
        rows.append([
            prop.name,
            prop.allowed() + unit,
            render_value(prop.default),
            prop.doc,
        ])
    print()
    print(format_table(
        ["controller knob", "allowed", "default", "description"], rows
    ))
    print(
        f"\n{len(CONTROLLER_DEFS)} policies; sweep with: repro fleet "
        "--control <p1,p2,...> [--set fleet.slo_p99_ns=...]. "
        "See docs/control.md."
    )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Maintain a result store: checksum-verify records, collect garbage.

    ``verify`` re-reads every record, checks its checksum and decodes
    it; corrupt records are moved into ``<store>/quarantine/`` (unless
    ``--no-quarantine``) so the next sweep re-simulates those cells.
    ``gc`` deletes quarantined records and orphaned temp files.
    """
    root = Path(args.root)
    if not root.is_dir():
        raise SystemExit(f"not a store directory: {root}")
    store = ResultStore(root)
    if args.store_cmd == "verify":
        report = store.verify(quarantine=not args.no_quarantine)
        print(
            f"checked {report['checked']} record(s): {report['ok']} ok, "
            f"{len(report['corrupt'])} corrupt"
        )
        for entry in report["corrupt"]:
            action = "reported" if args.no_quarantine else "quarantined"
            print(f"  {action}: {entry['file']}: {entry['error']}")
        return 1 if report["corrupt"] else 0
    removed = store.gc()
    print(
        f"removed {removed['quarantine_removed']} quarantined record(s) "
        f"and {removed['tmp_removed']} orphaned temp file(s)"
    )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List the registered scenarios (name, kind, defaults)."""
    rows = []
    for scenario in scenario_registry.all_scenarios():
        if scenario.uses_rate:
            grid = ",".join(f"{rate:g}" for rate in scenario.default_rates)
        elif scenario.kind == "preset":
            grid = ",".join(scenario.default_presets)
        elif scenario.kind == "trace":
            grid = "<trace file>"
        else:
            grid = "-"
        rows.append([scenario.name, scenario.kind, grid, scenario.description])
    print(format_table(["scenario", "kind", "default grid", "description"], rows))
    print(f"\n{len(rows)} scenario(s); sweep one with: "
          "repro sweep --scenario <name>")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    comparisons = []
    for name, paper in (("Cshallow", 49.5), ("Cdeep", 12.5), ("CPC1A", 29.1)):
        result = run_experiment(
            NullWorkload(), config_by_name(name),
            duration_ns=20 * MS, warmup_ns=5 * MS, seed=1,
        )
        comparisons.append(PaperComparison(
            f"idle power {name}", paper, result.total_power_w,
            unit=" W", rel_tolerance=0.05,
        ))
    latency = Pc1aLatencyModel()
    comparisons.append(PaperComparison(
        "PC1A worst-case transition", 200, latency.worst_case_transition_ns,
        unit=" ns", rel_tolerance=0.15,
    ))
    comparisons.append(PaperComparison(
        "APC area overhead", 0.75, SkxAreaModel().total_die_percent,
        unit=" %", rel_tolerance=0.15,
    ))
    print(comparison_table(comparisons))
    failed = [c for c in comparisons if c.verdict == "OFF"]
    return 1 if failed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism analysis (rules RPR001..)."""
    from repro.lint import get_rule, lint_paths, rule_catalog

    if args.list_rules:
        rows = [
            [rule.code, rule.name, ",".join(sorted(rule.domains)), rule.summary]
            for rule in rule_catalog()
        ]
        print(format_table(["code", "name", "domains", "summary"], rows))
        return 0
    if args.explain:
        try:
            rule = get_rule(args.explain)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        print(f"{rule.code} {rule.name} — {rule.summary}\n")
        print(rule.doc or "(no extended documentation)")
        return 0
    if not args.paths:
        print("repro lint: no paths given (try: repro lint src/ tests/)",
              file=sys.stderr)
        return 2
    try:
        report = lint_paths(args.paths, select=args.select)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    rendered = (
        report.to_json()
        if args.format == "json"
        else report.format_human(verbose_suppressed=args.verbose)
    )
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.format} report to {args.out}")
    if args.format != "json" or not args.out:
        print(rendered)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro", description="AgilePkgC (APC) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment")
    _add_run_args(run_parser)
    run_parser.add_argument(
        "--config", default="CPC1A", choices=sorted(CONFIG_BUILDERS)
    )
    run_parser.set_defaults(fn=cmd_run)

    compare_parser = sub.add_parser("compare", help="Cshallow vs CPC1A")
    _add_run_args(compare_parser)
    compare_parser.set_defaults(fn=cmd_compare)

    idle_parser = sub.add_parser("idle", help="idle power per config")
    idle_parser.add_argument("--seed", type=int, default=1)
    idle_parser.set_defaults(fn=cmd_idle)

    latency_parser = sub.add_parser("latency", help="PC1A latency model")
    latency_parser.set_defaults(fn=cmd_latency)

    area_parser = sub.add_parser("area", help="APC area overhead")
    area_parser.add_argument("--width-bits", type=int, default=128)
    area_parser.set_defaults(fn=cmd_area)

    export_parser = sub.add_parser("export", help="sweep rates to CSV")
    _add_run_args(export_parser, qps=False)
    export_parser.add_argument(
        "--configs", default="Cshallow,CPC1A",
        help="comma-separated config names",
    )
    export_parser.add_argument(
        "--rates", default=DEFAULT_RATES,
        help="comma-separated offered rates (0 = idle)",
    )
    export_parser.add_argument("--out", default="results/sweep.csv")
    export_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (0 = one per core)"
    )
    export_parser.add_argument(
        "--store", default=None, help="result-cache directory (optional)"
    )
    _add_set_flag(export_parser)
    _add_progress_flag(export_parser)
    # The grid runner's retry/report knobs, at sweep's defaults (export
    # keeps its historical flag set).
    export_parser.set_defaults(
        fn=cmd_export, max_retries=3, retry_backoff=0.05, cell_deadline=None,
        quarantine_report=None, stats_json=None,
    )

    sweep_parser = sub.add_parser(
        "sweep", help="parallel scenario x config x rate x seed grid"
    )
    _add_grid_args(
        sweep_parser, configs="Cshallow,CPC1A", out="results/sweep_grid.csv"
    )
    sweep_parser.set_defaults(fn=cmd_sweep)

    fleet_parser = sub.add_parser(
        "fleet", help="multi-server cluster sweep (routing x config x rate)"
    )
    _add_grid_args(
        fleet_parser, configs="CPC1A", out="results/fleet_grid.csv", fleet=True
    )
    fleet_parser.add_argument(
        "--servers", type=int, default=2,
        help="servers per cluster (default 2)",
    )
    fleet_parser.add_argument(
        "--routing", default="round-robin,power-aware-pack",
        help="comma-separated routing policies "
             "(round-robin, least-outstanding, power-aware-pack, "
             "power-aware-spread)",
    )
    fleet_parser.add_argument(
        "--control", default="static",
        help="comma-separated autoscaling controllers "
             "(static, slo-pack, sleepscale); knobs via --set "
             "fleet.slo_p99_ns=... etc. — see 'repro control list'",
    )
    fleet_parser.add_argument(
        "--dispatch-latency-us", type=float, default=2.0,
        help="load-balancer hop added to every routed request (us)",
    )
    fleet_parser.add_argument(
        "--pack-watermark", type=int, default=0,
        help="concurrent requests a server absorbs before "
             "power-aware-pack spills (0 = one per core)",
    )
    fleet_parser.set_defaults(fn=cmd_fleet)

    props_parser = sub.add_parser(
        "props",
        help="inspect the platform-property registry",
        description="Typed, scoped platform properties (pepc-style): "
                    "every policy knob of the modelled machine/fleet, "
                    "sweepable with --set NAME=VALUE[,VALUE...] on "
                    "sweep/export/fleet. See docs/properties.md.",
    )
    props_sub = props_parser.add_subparsers(dest="action", required=True)
    props_list = props_sub.add_parser(
        "list", help="table of every registered property"
    )
    props_list.set_defaults(fn=cmd_props)
    props_info = props_sub.add_parser(
        "info", help="one property in detail (incl. per-preset values)"
    )
    props_info.add_argument("name", help="property name (e.g. timer_tick_hz)")
    props_info.set_defaults(fn=cmd_props)

    control_parser = sub.add_parser(
        "control",
        help="inspect the fleet-autoscaling controller registry",
        description="SLO-constrained autoscaling controllers for "
                    "'repro fleet --control': park/unpark servers and "
                    "scale P-states against a latency SLO. "
                    "See docs/control.md.",
    )
    control_parser.add_argument(
        "action", nargs="?", default="list", choices=["list"],
        help="what to do (only 'list' for now)",
    )
    control_parser.set_defaults(fn=cmd_control)

    store_parser = sub.add_parser(
        "store",
        help="result-store maintenance (verify / gc)",
        description="Audit and clean a sweep result store: 'verify' "
                    "checksum-checks every record (quarantining corrupt "
                    "ones), 'gc' deletes quarantined records and orphaned "
                    "temp files. See docs/robustness.md.",
    )
    store_sub = store_parser.add_subparsers(dest="store_cmd", required=True)
    store_verify = store_sub.add_parser(
        "verify", help="checksum-verify every record in a store"
    )
    store_verify.add_argument("root", help="store directory")
    store_verify.add_argument(
        "--no-quarantine", action="store_true",
        help="report corrupt records without moving them aside",
    )
    store_verify.set_defaults(fn=cmd_store)
    store_gc = store_sub.add_parser(
        "gc", help="delete quarantined records and orphaned temp files"
    )
    store_gc.add_argument("root", help="store directory")
    store_gc.set_defaults(fn=cmd_store)

    scenarios_parser = sub.add_parser(
        "scenarios", help="list the registered traffic scenarios"
    )
    scenarios_parser.add_argument(
        "action", nargs="?", default="list", choices=["list"],
        help="what to do (only 'list' for now)",
    )
    scenarios_parser.set_defaults(fn=cmd_scenarios)

    validate_parser = sub.add_parser(
        "validate", help="check the headline paper anchors"
    )
    validate_parser.set_defaults(fn=cmd_validate)

    lint_parser = sub.add_parser(
        "lint",
        help="static determinism analysis",
        description="AST-based lint pass over simulation sources: "
                    "wall-clock/unseeded randomness, float event times, "
                    "unordered iteration into scheduling, __slots__ drift, "
                    "shared-meter prefixes. Suppress a finding with "
                    "'# repro-lint: ignore[RPR001]'.",
    )
    lint_parser.add_argument("paths", nargs="*", help="files or directories to lint")
    lint_parser.add_argument("--format", choices=("human", "json"), default="human")
    lint_parser.add_argument(
        "--out", default=None, help="also write the report to this file"
    )
    lint_parser.add_argument(
        "--select",
        default=None,
        type=lambda blob: blob.split(","),
        help="comma-separated rule codes (default: all)",
    )
    lint_parser.add_argument(
        "--verbose", action="store_true", help="also show suppressed findings"
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    lint_parser.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print one rule's full documentation",
    )
    lint_parser.set_defaults(fn=cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Grid commands (sweep, fleet, export) salvage their partial
        # output and catch the interrupt themselves; everything else
        # still exits 130 cleanly instead of dying mid-print with a
        # traceback.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
