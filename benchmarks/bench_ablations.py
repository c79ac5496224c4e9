"""Ablations of APC's design choices.

Each ablation quantifies one of the paper's trades:

* **PLLs on vs off** — PC1A keeps all PLLs locked, paying 56 mW to
  avoid a microsecond re-lock on the exit path.
* **CKE-off vs self-refresh** — self-refresh would save ~1.1 W more
  DRAM power but turn the 24 ns exit branch into ~9 µs.
* **L0s vs L1** — L1 would save ~2.4 W more link power but put ~10 µs
  of retraining on the wake path.
* **concurrent vs serialized exit branches** — Fig. 4 runs the CLM
  and MC branches concurrently; serializing them would break the
  200 ns budget.
* **dispatch policy** — empirical: request packing (CARB-like related
  work) versus hashing, measured on the live simulator.
"""

from _common import measure, save_report
from repro.analysis.report import format_table
from repro.analysis.savings import savings_between
from repro.core.latency import Pc1aLatencyModel
from repro.dram.timings import DDR4_2666
from repro.power.budgets import DEFAULT_BUDGET
from repro.props import apply_props
from repro.units import US
from repro.workloads.memcached import MemcachedWorkload


def bench_ablation_analytical_trades(benchmark):
    model = Pc1aLatencyModel()
    budget = DEFAULT_BUDGET

    def evaluate():
        pll_relock_ns = 5 * US
        rows = [
            [
                "PLLs on (APC)",
                f"{model.exit_ns} ns",
                f"+{budget.plls_diff_w() * 1000:.0f} mW",
            ],
            [
                "PLLs off (PC6-style)",
                f"{model.exit_ns + pll_relock_ns} ns",
                "0 mW",
            ],
            [
                "DRAM CKE-off (APC)",
                f"{model.timings.exit_cke_release_at_ns + DDR4_2666.cke_off_exit_ns}"
                " ns",
                f"+{budget.dram_diff_w():.2f} W DRAM",
            ],
            [
                "DRAM self-refresh (PC6-style)",
                f"{DDR4_2666.self_refresh_exit_ns} ns",
                "0 W",
            ],
            [
                "links L0s/L0p (APC)",
                f"{model.exit_io_branch_ns} ns",
                f"+{budget.links_power_w('shallow') - budget.links_power_w('L1'):.2f}"
                " W",
            ],
            [
                "links L1 (PC6-style)",
                "10000 ns",
                "0 W",
            ],
        ]
        serialized_exit = (
            model.exit_clm_branch_ns
            + model.exit_mc_branch_ns
            + model.exit_io_branch_ns
        )
        rows.append(["exit: concurrent branches (APC)", f"{model.exit_ns} ns", "-"])
        rows.append(["exit: serialized branches", f"{serialized_exit} ns", "-"])
        return rows, serialized_exit

    rows, serialized_exit = benchmark(evaluate)
    report = (
        format_table(["design choice", "exit-path cost", "extra standby power"], rows)
        + "\nAPC picks the left column of each pair: nanosecond wake for"
        + " tens-of-mW / ~1 W standby cost."
    )
    save_report("ablation_design_trades", report)
    assert model.entry_ns + serialized_exit > 200  # concurrency is load-bearing
    assert model.worst_case_transition_ns <= 200


def bench_ablation_dispatch_policies(benchmark):
    results = {}

    def sweep():
        for policy in ("random", "round_robin", "least_loaded", "packed"):
            config = apply_props("CPC1A", {"dispatch_policy": policy})
            base = apply_props("Cshallow", {"dispatch_policy": policy})
            workload = MemcachedWorkload(25_000)
            base_result = measure(workload, base, seed=4)
            apc_result = measure(workload, config, seed=4)
            results[
                policy
            ] = (base_result, apc_result, savings_between(base_result, apc_result))

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [
            policy,
            f"{apc.pc1a_residency():.3f}",
            f"{savings.savings_percent:.1f}%",
            f"{apc.latency.mean_us:.1f} us",
            f"{apc.latency.p99_us:.0f} us",
        ]
        for policy, (base, apc, savings) in results.items()
    ]
    report = (
        format_table(
            ["dispatch", "PC1A residency", "savings", "avg latency", "p99"],
            rows,
        )
        + "\nFinding: packing lengthens per-core idle (good for core"
        + " C-states, the CARB goal) but *shortens* full-system idle,"
        + " so it reduces the PC1A opportunity - synchronized idling,"
        + " not packing, is what composes with APC (paper Sec. 8)."
    )
    save_report("ablation_dispatch_policies", report)
    for policy, (base, apc, savings) in results.items():
        assert savings.savings_fraction >= 0, policy
    spread = results["random"][2].savings_fraction
    packed = results["packed"][2].savings_fraction
    assert packed <= spread  # packing does not help the package C-state


def bench_ablation_interconnect_width(benchmark):
    from repro.core.area import SkxAreaModel

    def evaluate():
        return {
            width: SkxAreaModel(interconnect_width_bits=width).total_die_percent
            for width in (64, 128, 256, 512)
        }

    totals = benchmark(evaluate)
    rows = [[f"{w}-bit", f"{pct:.4f} %"] for w, pct in totals.items()]
    save_report(
        "ablation_interconnect_width",
        format_table(["IO interconnect width", "APC area overhead"], rows),
    )
    assert totals[512] < totals[64]
