"""Fleet simulation: routing-policy energy gap + sweep throughput.

Two questions, one trajectory (``results/BENCH_fleet.json``):

* **Does packing pay?** The subsystem's acceptance claim: at matched
  offered load, ``power-aware-pack`` must report *lower fleet energy*
  than ``round-robin`` on a CPC1A cluster (consolidation lengthens
  package idle on the drained servers). The run records both
  energies, the savings and the pooled p99s; the gate fails if the
  gap ever closes.
* **How fast do fleet cells sweep?** ``fleet_grid`` measures cells/sec
  for a routing x rate fleet grid through a parallel
  :class:`~repro.sweep.SweepSession` — the fleet analogue of the
  sweep-throughput bench, gated at the same -30 % budget.
* **Do big fleets stay routine?** ``fleet_big`` sweeps a 64-server
  memcached-diurnal grid through the warm session (cluster recycle +
  parked servers are what make its cells/sec), gated at the same
  budget; ``--big`` additionally times one 1,000-server cell fresh
  and recycled (the nightly acceptance point — single-digit seconds).

Run modes (same contract as the kernel/sweep benches):

* under pytest like every other bench (asserts the packing claim);
* as a standalone script emitting the trajectory and optionally
  enforcing the gates::

      PYTHONPATH=src python benchmarks/bench_fleet.py \\
          --out results/BENCH_fleet.json \\
          --baseline results/BENCH_fleet.json --max-regression 0.30
"""

from __future__ import annotations

import time

from _common import (
    RESULTS_DIR,
    append_trajectory,
    check_rate_regression,
    last_comparable_run,
    load_trajectory,
)
from repro.api import run_cell
from repro.fleet import ClusterConfig, FleetCell, FleetSpec
from repro.sweep import SweepSession, WorkloadPoint
from repro.units import MS

#: Bump when grid/cluster definitions change incompatibly.
BENCH_SCHEMA = 1

DEFAULT_REPEATS = 3
DEFAULT_WORKERS = 4

#: The acceptance cluster: 4 CPC1A servers, default dispatch latency.
N_SERVERS = 4
#: Matched offered load for the pack-vs-round-robin claim (whole-fleet
#: QPS; ~10 % per-server utilization — the band datacenters live in).
MATCHED_QPS = 60_000.0
PACK_WINDOW_NS = 30 * MS
PACK_WARMUP_NS = 6 * MS

#: The throughput grid: 2 routings x 3 rates, short windows so the
#: sweep layer (not one long simulation) is the measured quantity.
GRID_RATES = (20_000.0, 60_000.0, 120_000.0)
GRID_ROUTINGS = ("round-robin", "power-aware-pack")

#: The big-fleet grid: the acceptance scenario at 64 servers. Short
#: explicit windows — the measured quantity is how the session handles
#: large cells (cluster recycle, parked servers), not one long run.
BIG_N_SERVERS = 64
BIG_QPS = 256_000.0
#: The nightly acceptance point: one 1,000-server diurnal cell.
HUGE_N_SERVERS = 1_000
HUGE_QPS = 400_000.0


def grid_cells():
    """The throughput grid as an explicit fleet-cell list."""
    spec = FleetSpec(
        workloads=tuple(
            WorkloadPoint("memcached", qps=qps) for qps in GRID_RATES
        ),
        clusters=tuple(
            ClusterConfig(machine="CPC1A", n_servers=N_SERVERS, routing=routing)
            for routing in GRID_ROUTINGS
        ),
        seeds=(1,),
        duration_ns=10 * MS,
        warmup_ns=2 * MS,
    )
    return spec.cells()


def big_grid_cells():
    """The 64-server diurnal grid (one cell per routing)."""
    spec = FleetSpec(
        workloads=(WorkloadPoint("memcached-diurnal", qps=BIG_QPS, preset="low"),),
        clusters=tuple(
            ClusterConfig(machine="CPC1A", n_servers=BIG_N_SERVERS, routing=routing)
            for routing in GRID_ROUTINGS
        ),
        seeds=(1,),
        duration_ns=8 * MS,
        warmup_ns=2 * MS,
    )
    return spec.cells()


def measure_huge_cell(n_servers: int = HUGE_N_SERVERS, qps: float = HUGE_QPS) -> dict:
    """Time one 1,000-server diurnal cell, fresh and recycled.

    The acceptance point for cluster-scale work: the whole cell —
    build, checkpoint, simulate, collect — must stay in single-digit
    seconds, and a recycled rerun must skip the construction cost.
    """
    import time as _time

    cell = FleetCell(
        workload="memcached-diurnal", qps=qps, preset="low",
        machine="CPC1A", n_servers=n_servers, routing="power-aware-pack",
        seed=1, duration_ns=50 * MS, warmup_ns=10 * MS,
    )
    start = _time.perf_counter()
    fleet = cell.build()
    built = _time.perf_counter()
    fleet.checkpoint()
    result = run_cell(cell, runtime=fleet)
    fresh_done = _time.perf_counter()
    recycled_cell = FleetCell(**{**cell.as_dict(), "seed": 2})
    recycled_cell.recycle(fleet)
    run_cell(recycled_cell, runtime=fleet)
    recycled_done = _time.perf_counter()
    return {
        "n_servers": n_servers,
        "offered_qps": qps,
        "duration_ms": cell.duration_ns // MS,
        "build_seconds": round(built - start, 3),
        "fresh_seconds": round(fresh_done - start, 3),
        "recycled_seconds": round(recycled_done - fresh_done, 3),
        "requests_completed": result.requests_completed,
        "active_servers": result.active_servers(),
    }


def measure_pack_vs_round_robin(
    qps: float = MATCHED_QPS,
    duration_ns: int = PACK_WINDOW_NS,
    warmup_ns: int = PACK_WARMUP_NS,
    seed: int = 1,
) -> dict:
    """Fleet energy of round-robin vs power-aware-pack at one load."""
    out = {}
    for routing in ("round-robin", "power-aware-pack"):
        result = run_cell(FleetCell(
            workload="memcached", qps=qps, preset="low", machine="CPC1A",
            n_servers=N_SERVERS, routing=routing, seed=seed,
            duration_ns=duration_ns, warmup_ns=warmup_ns,
        ))
        out[routing] = {
            "fleet_power_w": round(result.total_power_w, 4),
            "energy_j": round(result.energy_j, 6),
            "p99_us": round(result.latency.p99_us, 3),
            "pc1a_residency": round(result.pc1a_residency(), 6),
            "active_servers": result.active_servers(),
        }
    rr = out["round-robin"]["energy_j"]
    pack = out["power-aware-pack"]["energy_j"]
    return {
        "n_servers": N_SERVERS,
        "offered_qps": qps,
        "duration_ms": duration_ns // MS,
        "seed": seed,
        "routings": out,
        "savings_percent": round(100.0 * (1.0 - pack / rr), 3),
    }


def _time_grid(session: SweepSession, cells, repeats: int) -> dict:
    """Best-of-``repeats`` cells/sec for one grid through the session."""
    n = len(cells)
    best = 0.0
    seconds = 0.0
    session.run(cells)  # untimed warm-up: fork the pool, warm fleets
    for _ in range(repeats):
        start = time.perf_counter()
        session.run(cells)
        elapsed = time.perf_counter() - start
        rate = n / elapsed
        if rate > best:
            best, seconds = rate, elapsed
    return {
        "cells": n,
        "seconds": round(seconds, 6),
        "cells_per_sec": round(best, 3),
    }


def run_suite(
    repeats: int = DEFAULT_REPEATS,
    workers: int = DEFAULT_WORKERS,
    big: bool = False,
) -> dict:
    """Best-of-``repeats`` fleet cells/sec plus the packing comparison."""
    with SweepSession(workers=workers) as session:
        fleet_grid = _time_grid(session, grid_cells(), repeats)
        fleet_big = _time_grid(session, big_grid_cells(), repeats)
    run = {
        "schema": BENCH_SCHEMA,
        "repeats": repeats,
        "workers": workers,
        "grid": {
            "routings": list(GRID_ROUTINGS),
            "rates": list(GRID_RATES),
            "n_servers": N_SERVERS,
            "duration_ms": 10,
            "cells": fleet_grid["cells"],
        },
        "big_grid": {
            "routings": list(GRID_ROUTINGS),
            "qps": BIG_QPS,
            "n_servers": BIG_N_SERVERS,
            "duration_ms": 8,
            "cells": fleet_big["cells"],
        },
        "scenarios": {
            "fleet_grid": fleet_grid,
            "fleet_big": fleet_big,
        },
        "pack_vs_round_robin": measure_pack_vs_round_robin(),
    }
    if big:
        run["huge_cell"] = measure_huge_cell()
    return run


def check_regression(
    run: dict,
    baseline_run: dict,
    max_regression: float,
    scenarios=("fleet_grid", "fleet_big"),
) -> list[str]:
    """Gate failures: throughput drops and a closed packing gap."""
    failures = check_rate_regression(
        run, baseline_run, max_regression, scenarios,
        rate_key="cells_per_sec", unit="cells/s",
    )
    comparison = run["pack_vs_round_robin"]
    if comparison["savings_percent"] <= 0:
        failures.append(
            "power-aware-pack no longer saves fleet energy vs round-robin "
            f"(savings {comparison['savings_percent']:.2f}% at "
            f"{comparison['offered_qps']:g} QPS)"
        )
    return failures


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_fleet.json"),
        help="trajectory file to write (default: results/BENCH_fleet.json)",
    )
    parser.add_argument(
        "--label", default="local",
        help="label stored with this run (e.g. a PR number or git sha)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="rounds for the throughput grid (cells/sec is best-of)",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help="pool size for the throughput grid",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="existing BENCH_fleet.json to compare against "
             "(its newest schema-compatible run)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="fail if fleet_grid cells/sec drops more than this fraction",
    )
    parser.add_argument(
        "--replace", action="store_true",
        help="overwrite --out instead of appending to its run history",
    )
    parser.add_argument(
        "--big", action="store_true",
        help="also time one 1,000-server diurnal cell (the nightly "
             "acceptance point; adds a few seconds)",
    )
    args = parser.parse_args(argv)

    baseline_run = None
    if args.baseline is not None:
        try:
            baseline = load_trajectory(args.baseline)
        except (OSError, ValueError) as error:
            print(f"ERROR baseline {args.baseline} is unusable: {error}")
            return 1
        baseline_run = last_comparable_run(baseline, BENCH_SCHEMA)
        if baseline_run is None:
            print(
                f"[no run with scenario schema {BENCH_SCHEMA} in "
                f"{args.baseline}; skipping the throughput gate]"
            )

    run = run_suite(repeats=args.repeats, workers=args.workers, big=args.big)
    run["label"] = args.label
    grid = run["scenarios"]["fleet_grid"]
    print(f"fleet_grid: {grid['cells_per_sec']:>8,.1f} cells/s "
          f"({grid['cells']} cells, {N_SERVERS} servers each)")
    big = run["scenarios"]["fleet_big"]
    print(f"fleet_big:  {big['cells_per_sec']:>8,.1f} cells/s "
          f"({big['cells']} cells, {BIG_N_SERVERS} servers each)")
    huge = run.get("huge_cell")
    if huge is not None:
        print(
            f"huge_cell:  {huge['n_servers']} servers, "
            f"{huge['fresh_seconds']:.2f}s fresh "
            f"(build {huge['build_seconds']:.2f}s), "
            f"{huge['recycled_seconds']:.2f}s recycled, "
            f"{huge['requests_completed']} requests"
        )
    comparison = run["pack_vs_round_robin"]
    rr = comparison["routings"]["round-robin"]
    pack = comparison["routings"]["power-aware-pack"]
    print(
        f"pack vs round-robin @ {comparison['offered_qps']:g} QPS: "
        f"{pack['energy_j']:.3f} J vs {rr['energy_j']:.3f} J "
        f"({comparison['savings_percent']:.1f}% saved; "
        f"p99 {rr['p99_us']:.0f} -> {pack['p99_us']:.0f} us)"
    )

    out = append_trajectory(args.out, run, BENCH_SCHEMA, replace=args.replace)
    print(f"[trajectory written to {out}]")

    # The packing claim gates even without a baseline (it is a model
    # property, not a machine-speed property).
    failures = check_regression(
        run, baseline_run if baseline_run is not None else run,
        args.max_regression,
        scenarios=("fleet_grid", "fleet_big") if baseline_run is not None else (),
    )
    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}")
        return 1
    print("fleet gates ok (packing saves energy"
          + (f"; grids within -{args.max_regression:.0%} of baseline)"
             if baseline_run is not None else ")"))
    return 0


# -- pytest entry points -----------------------------------------------------
def bench_fleet_pack_beats_round_robin():
    """The acceptance claim, sized for the CI bench matrix."""
    comparison = measure_pack_vs_round_robin(duration_ns=12 * MS, warmup_ns=3 * MS)
    rr = comparison["routings"]["round-robin"]
    pack = comparison["routings"]["power-aware-pack"]
    assert pack["energy_j"] < rr["energy_j"], comparison
    assert pack["active_servers"] < N_SERVERS, comparison
    print(
        f"\n=== fleet pack-vs-rr @ {comparison['offered_qps']:g} QPS ===\n"
        f"round-robin {rr['energy_j']:.3f} J, pack {pack['energy_j']:.3f} J "
        f"({comparison['savings_percent']:.1f}% saved)"
    )


if __name__ == "__main__":
    raise SystemExit(main())
