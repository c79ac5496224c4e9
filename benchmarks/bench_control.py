"""Control plane: joint speed-and-sleep energy claim + sweep throughput.

Two questions, one trajectory (``results/BENCH_control.json``):

* **Does the controller pay?** The subsystem's acceptance claim: on
  an 8-server CPC1A fleet under ``memcached-diurnal``, ``sleepscale``
  (with the deep gates enabled) must save at least 5 % fleet energy
  over the *best* static routing at matched offered load, while the
  pooled p99 stays under the SLO with zero violation windows. The run
  records every static routing, the controller runs, the savings and
  the tail latencies; the gate fails if the margin ever erodes.
* **How fast do controlled cells sweep?** ``control_grid`` measures
  cells/sec for a control x rate fleet grid through a parallel
  :class:`~repro.sweep.SweepSession` — controlled cells carry a live
  plane through warm recycle, and this is the number that regresses
  if the tick or the estimators get expensive. Gated at the same
  -30 % budget as the other benches.

Run modes (same contract as the kernel/sweep/fleet benches):

* under pytest like every other bench (asserts the energy claim);
* as a standalone script emitting the trajectory and optionally
  enforcing the gates::

      PYTHONPATH=src python benchmarks/bench_control.py \\
          --out results/BENCH_control.json \\
          --baseline results/BENCH_control.json --max-regression 0.30
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

#: The acceptance fleet: 8 CPC1A servers under the diurnal scenario.
N_SERVERS = 8
#: Matched offered load (whole-fleet QPS at the diurnal baseline;
#: ~10 % per-server utilization — the band datacenters live in).
MATCHED_QPS = 80_000.0
CLAIM_WINDOW_NS = 30 * MS
CLAIM_WARMUP_NS = 6 * MS
#: The static routings the controller must beat (best-of).
STATIC_ROUTINGS = ("least-outstanding", "power-aware-pack", "round-robin")
#: The claim threshold: sleepscale saves at least this much fleet
#: energy over the best static routing.
MIN_SAVINGS_PERCENT = 5.0
#: Deep gates for the controlled runs: a parked server drops DRAM to
#: self-refresh and links to L1 after a 2 ms dwell.
GATE_PROPS = (
    ("fleet.gate_dram_ns", 2_000_000),
    ("fleet.gate_nic_ns", 2_000_000),
    ("fleet.gate_iolink_ns", 2_000_000),
)

#: The throughput grid: 3 control policies x 2 rates, short windows so
#: the sweep layer (plane construction, warm recycle of controlled
#: fleets) is the measured quantity, not one long simulation.
GRID_RATES = (20_000.0, 60_000.0)
GRID_CONTROLS = ("static", "slo-pack", "sleepscale")
GRID_N_SERVERS = 4


def grid_cells():
    """The throughput grid as an explicit fleet-cell list."""
    spec = FleetSpec(
        workloads=tuple(
            WorkloadPoint("memcached", qps=qps) for qps in GRID_RATES
        ),
        clusters=tuple(
            ClusterConfig(
                machine="CPC1A", n_servers=GRID_N_SERVERS,
                routing="least-outstanding", control=control,
                control_props=GATE_PROPS if control != "static" else (),
            )
            for control in GRID_CONTROLS
        ),
        seeds=(1,),
        duration_ns=8 * MS,
        warmup_ns=2 * MS,
    )
    return spec.cells()


def _run_point(qps, duration_ns, warmup_ns, seed, **cluster) -> dict:
    """One acceptance-fleet cell; ``cluster`` sets routing/control."""
    result = run_cell(FleetCell(
        workload="memcached-diurnal", qps=qps, preset="low",
        machine="CPC1A", n_servers=N_SERVERS, seed=seed,
        duration_ns=duration_ns, warmup_ns=warmup_ns, **cluster,
    ))
    return {
        "fleet_power_w": round(result.total_power_w, 4),
        "energy_j": round(result.energy_j, 6),
        "p99_us": round(result.latency.p99_us, 3),
        "parked_residency": round(result.parked_residency(), 6),
        "park_transitions": result.park_transitions(),
        "slo_violations": result.slo_violations,
        "slo_windows": result.slo_windows,
        "active_servers": result.active_servers(),
    }


def measure_controller_vs_static(
    qps: float = MATCHED_QPS,
    duration_ns: int = CLAIM_WINDOW_NS,
    warmup_ns: int = CLAIM_WARMUP_NS,
    seed: int = 1,
) -> dict:
    """Fleet energy of every static routing vs the controllers.

    The claim compares ``sleepscale`` against the *best* (lowest
    energy) static routing, not a strawman: whatever consolidation a
    routing policy can buy for free is the baseline the controller
    must beat by :data:`MIN_SAVINGS_PERCENT`.
    """
    statics = {}
    for routing in STATIC_ROUTINGS:
        statics[routing] = _run_point(
            qps, duration_ns, warmup_ns, seed, routing=routing
        )
    best_routing = min(statics, key=lambda name: statics[name]["energy_j"])
    controlled = {}
    for control in ("slo-pack", "sleepscale"):
        controlled[control] = _run_point(
            qps, duration_ns, warmup_ns, seed, routing="least-outstanding",
            control=control, control_props=GATE_PROPS,
        )
    best = statics[best_routing]["energy_j"]
    sleepscale = controlled["sleepscale"]["energy_j"]
    return {
        "n_servers": N_SERVERS,
        "offered_qps": qps,
        "duration_ms": duration_ns // MS,
        "seed": seed,
        "static": statics,
        "best_static_routing": best_routing,
        "controlled": controlled,
        "savings_percent": round(100.0 * (1.0 - sleepscale / best), 3),
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


def run_suite(repeats: int = DEFAULT_REPEATS, workers: int = DEFAULT_WORKERS) -> dict:
    """Best-of-``repeats`` controlled cells/sec plus the energy claim."""
    with SweepSession(workers=workers) as session:
        control_grid = _time_grid(session, grid_cells(), repeats)
    return {
        "schema": BENCH_SCHEMA,
        "repeats": repeats,
        "workers": workers,
        "grid": {
            "controls": list(GRID_CONTROLS),
            "rates": list(GRID_RATES),
            "n_servers": GRID_N_SERVERS,
            "duration_ms": 8,
            "cells": control_grid["cells"],
        },
        "scenarios": {
            "control_grid": control_grid,
        },
        "sleepscale_vs_static": measure_controller_vs_static(),
    }


def check_regression(
    run: dict,
    baseline_run: dict,
    max_regression: float,
    scenarios=("control_grid",),
) -> list[str]:
    """Gate failures: throughput drops and an eroded energy claim."""
    failures = check_rate_regression(
        run, baseline_run, max_regression, scenarios,
        rate_key="cells_per_sec", unit="cells/s",
    )
    claim = run["sleepscale_vs_static"]
    sleepscale = claim["controlled"]["sleepscale"]
    if claim["savings_percent"] < MIN_SAVINGS_PERCENT:
        failures.append(
            "sleepscale no longer saves >= "
            f"{MIN_SAVINGS_PERCENT:g}% fleet energy vs the best static "
            f"routing ({claim['best_static_routing']}): "
            f"{claim['savings_percent']:.2f}% at "
            f"{claim['offered_qps']:g} QPS"
        )
    if sleepscale["slo_violations"] != 0:
        failures.append(
            f"sleepscale violated the SLO in "
            f"{sleepscale['slo_violations']}/{sleepscale['slo_windows']} "
            "control windows (claim requires zero)"
        )
    return failures


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_control.json"),
        help="trajectory file to write (default: results/BENCH_control.json)",
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
        help="existing BENCH_control.json to compare against "
             "(its newest schema-compatible run)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="fail if control_grid cells/sec drops more than this fraction",
    )
    parser.add_argument(
        "--replace", action="store_true",
        help="overwrite --out instead of appending to its run history",
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

    run = run_suite(repeats=args.repeats, workers=args.workers)
    run["label"] = args.label
    grid = run["scenarios"]["control_grid"]
    print(f"control_grid: {grid['cells_per_sec']:>8,.1f} cells/s "
          f"({grid['cells']} cells, {GRID_N_SERVERS} servers each)")
    claim = run["sleepscale_vs_static"]
    best = claim["static"][claim["best_static_routing"]]
    sleepscale = claim["controlled"]["sleepscale"]
    print(
        f"sleepscale vs best static ({claim['best_static_routing']}) "
        f"@ {claim['offered_qps']:g} QPS: "
        f"{sleepscale['energy_j']:.3f} J vs {best['energy_j']:.3f} J "
        f"({claim['savings_percent']:.1f}% saved; p99 "
        f"{sleepscale['p99_us']:.0f} us, "
        f"{sleepscale['slo_violations']}/{sleepscale['slo_windows']} "
        "SLO violations)"
    )

    out = append_trajectory(args.out, run, BENCH_SCHEMA, replace=args.replace)
    print(f"[trajectory written to {out}]")

    # The energy claim gates even without a baseline (it is a model
    # property, not a machine-speed property).
    failures = check_regression(
        run, baseline_run if baseline_run is not None else run,
        args.max_regression,
        scenarios=("control_grid",) if baseline_run is not None else (),
    )
    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}")
        return 1
    print("control gates ok (sleepscale saves >= "
          f"{MIN_SAVINGS_PERCENT:g}% with zero SLO violations"
          + (f"; grid within -{args.max_regression:.0%} of baseline)"
             if baseline_run is not None else ")"))
    return 0


# -- pytest entry points -----------------------------------------------------
def bench_control_sleepscale_beats_static():
    """The acceptance claim, sized for the CI bench matrix."""
    claim = measure_controller_vs_static(
        duration_ns=18 * MS, warmup_ns=4 * MS,
    )
    best = claim["static"][claim["best_static_routing"]]
    sleepscale = claim["controlled"]["sleepscale"]
    assert sleepscale["energy_j"] < best["energy_j"], claim
    assert sleepscale["slo_violations"] == 0, claim
    assert sleepscale["p99_us"] * 1_000 < 1_000_000, claim  # the 1 ms SLO
    print(
        f"\n=== sleepscale vs {claim['best_static_routing']} "
        f"@ {claim['offered_qps']:g} QPS ===\n"
        f"static {best['energy_j']:.3f} J, "
        f"sleepscale {sleepscale['energy_j']:.3f} J "
        f"({claim['savings_percent']:.1f}% saved)"
    )


if __name__ == "__main__":
    raise SystemExit(main())
