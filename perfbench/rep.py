"""One repetition of a workload, in a fresh interpreter.

Started by ``perfbench/run.py``::

    PYTHONPATH=src python3 perfbench/rep.py --workload W --seed S \\
        --set K --out DIR --spawned-ns T [--trace]

Builds cell set ``K`` of the workload, installs the probes, runs every
cell through ``SweepSession.run`` with no result store, checks the
conservation laws on every result and writes ``rep.json`` to ``DIR``.
``--spawned-ns`` is the parent's ``time.monotonic_ns()`` just before
it started this interpreter, so set-up time includes interpreter
start and imports.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cells import build_cells, workers_for  # noqa: E402
from probes import install, now_ns, read_records  # noqa: E402

#: Relative tolerance of the floating-point conservation laws.
REL_TOL = 1e-9

#: ``last_run_stats`` counters of cells that failed at least once.
FAULTS = ("retries", "quarantined", "worker_deaths", "deadline_kills")


def canonical(result) -> str:
    """The result's simulated statistics as canonical JSON.

    Kernel counters are diagnostics, not simulated statistics: a change
    that only makes the simulator faster may move them.
    """
    data = dataclasses.asdict(result)
    data.pop("kernel", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_laws(cell, result, record: dict) -> list[str]:
    """Conservation laws read off one result (and its cell record)."""
    problems = []
    servers = getattr(result, "servers", None)
    for index, server in enumerate(servers or [result]):
        residency = sum(server.package_residency.values())
        if not close(residency, 1.0):
            problems.append(f"server {index}: package residency sums to {residency}")
        if server.requests_completed != server.latency.count:
            problems.append(
                f"server {index}: {server.requests_completed} completed but "
                f"{server.latency.count} latency samples"
            )
    if result.requests_completed != result.latency.count:
        problems.append(
            f"{result.requests_completed} completed but "
            f"{result.latency.count} latency samples"
        )
    window_s = cell.duration_ns / 1e9
    reported_j = result.total_power_w * window_s
    if servers is not None:
        for field in ("package_power_w", "dram_power_w"):
            total = sum(getattr(server, field) for server in servers)
            if not close(total, getattr(result, field)):
                problems.append(
                    f"per-server {field} sums to {total}, "
                    f"the fleet reports {getattr(result, field)}"
                )
        start = record.get("in_flight_start")
        end = record.get("in_flight_end")
        if start is None or end is None:
            problems.append("in-flight requests were not observed")
        else:
            for index, server in enumerate(servers):
                inflow = server.routed + start[index]
                outflow = server.requests_completed + end[index]
                if inflow != outflow:
                    problems.append(
                        f"server {index}: routed {server.routed} + in flight at "
                        f"start {start[index]} != completed "
                        f"{server.requests_completed} + in flight at end {end[index]}"
                    )
        if not close(result.energy_j, reported_j):
            problems.append(f"energy_j {result.energy_j} != power x window")
    metered_j = record.get("metered_j")
    if metered_j is None or not close(metered_j, reported_j):
        problems.append(
            f"metered energy {metered_j} J != power x window {reported_j} J"
        )
    return problems


def model_summary(cells, results) -> dict:
    """Model metrics: simulated time only, exact for a given seed."""
    n_servers = sum(getattr(r, "n_servers", 1) for r in results)
    summary = {
        "power_w_per_server": sum(r.total_power_w for r in results) / n_servers,
        "p99_us": sum(r.latency.p99_us for r in results) / len(results),
        "pc1a_residency": 0.0,
        "routed": 0,
        "active_servers": 0.0,
        "parked_residency": 0.0,
        "control_park_transitions": 0,
        "slo_windows": 0,
        "slo_violations": 0,
        "server_sim_s": sum(
            getattr(r, "n_servers", 1) * (c.warmup_ns + c.duration_ns) / 1e9
            for c, r in zip(cells, results)
        ),
    }
    pairs = {}
    for cell, result in zip(cells, results):
        servers = getattr(result, "servers", None)
        if servers is None:
            summary["pc1a_residency"] += result.pc1a_residency() / n_servers
            # APC against its Cshallow twin at the same rate and seed.
            pairs.setdefault((cell.qps, cell.seed), {})[cell.config] = result
            continue
        summary["pc1a_residency"] += result.pc1a_residency() * len(servers) / n_servers
        summary["routed"] += sum(s.routed for s in servers)
        summary["active_servers"] += result.active_servers() / len(results)
        summary["parked_residency"] += result.parked_residency() / len(results)
        summary["slo_windows"] += result.slo_windows
        summary["slo_violations"] += result.slo_violations
        if result.control != "static":
            summary["control_park_transitions"] += result.park_transitions()
    matched = [p for p in pairs.values() if {"CPC1A", "Cshallow"} <= set(p)]
    if matched:
        apc_w = sum(p["CPC1A"].total_power_w for p in matched)
        shallow_w = sum(p["Cshallow"].total_power_w for p in matched)
        summary["apc_saving_pct"] = 100.0 * (1.0 - apc_w / shallow_w)
        penalties = [
            p["CPC1A"].latency.mean_us / p["Cshallow"].latency.mean_us - 1.0
            for p in matched
        ]
        summary["apc_latency_penalty_pct"] = 100.0 * statistics.fmean(penalties)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--set", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.api import SweepSession

    cells = build_cells(args.workload, args.seed, args.set)
    workers = workers_for(args.workload)
    install(args.out, cells, args.trace)
    session = SweepSession(workers=workers, store=None)
    try:
        swept = session.run(cells)
        stats = dict(session.last_run_stats)
        records = read_records(args.out)
        attempts: dict[int, list[dict]] = {}
        for record in records:
            attempts.setdefault(record["cell"], []).append(record)
        done = dict(zip((cell.key() for cell in swept.cells), swept.results))
        failed_cells: dict[str, list[str]] = {}
        digests = []
        for index, cell in enumerate(cells):
            result = done.get(cell.key())
            if result is None:
                failed_cells[str(index)] = ["quarantined"]
                digests.append(None)
                continue
            tries = attempts.get(index, [])
            problems = check_laws(cell, result, tries[-1] if tries else {})
            if len(tries) != 1 or not tries[-1]["ok"]:
                problems.append(f"{len(tries)} attempts")
            if problems:
                failed_cells[str(index)] = problems
            digests.append(hashlib.sha256(canonical(result).encode()).hexdigest())
        ran = [cell for cell in cells if cell.key() in done]
        results = [done[cell.key()] for cell in ran]
        model = model_summary(ran, results)
        t_done = now_ns()
    finally:
        session.close()
    peak_rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    t_ready = min(r["t_ready"] for r in records if "t_ready" in r)
    rep = {
        "workload": args.workload,
        "seed": args.seed,
        "set": args.set,
        "traced": args.trace,
        "workers": workers,
        "cells": len(cells),
        "failed_cells": failed_cells,
        "faults": sum(stats[name] for name in FAULTS),
        "setup_s": (t_ready - args.spawned_ns) / 1e9,
        "wall_s": (t_done - t_ready) / 1e9,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "digests": digests,
        "model": model,
        "sweep": stats,
        "kernel": [result.kernel.as_dict() for result in results],
        "records": records,
    }
    with open(os.path.join(args.out, "rep.json"), "w") as sink:
        json.dump(rep, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())
