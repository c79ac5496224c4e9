"""Fleet result assembly: one measured cluster -> one FleetResult.

:func:`collect_fleet_result` is what :meth:`FleetCell.collect
<repro.fleet.spec.FleetCell.collect>` returns once
:func:`repro.api.run_cell` has warmed the cluster through the
balancer and measured one window: fleet totals, per-server breakdowns
and the pooled latency distribution.
"""

from __future__ import annotations

from repro.fleet.cluster import FleetMachine
from repro.fleet.result import FleetResult, ServerResult
from repro.server.stats import summarize_latency_ns
from repro.units import ns_to_s
from repro.workloads.base import Workload


def collect_fleet_result(
    fleet: FleetMachine,
    workload: Workload,
    duration_ns: int,
    seed: int,
) -> FleetResult:
    """Assemble a :class:`FleetResult` from a measured fleet."""
    duration_s = ns_to_s(duration_ns)
    cluster = fleet.cluster
    # Parked servers first settle their closed-form bookkeeping so the
    # counters below read as if the kernel had driven them throughout.
    fleet.sync_parked()
    # One pass over the shared meter; the per-machine channel prefixes
    # split the readout into per-server package/DRAM domains.
    readout = fleet.meter.readout()
    routed = fleet.balancer.routed
    parked_residency, park_transitions = fleet.park_telemetry(duration_ns)
    servers = []
    for index, machine in enumerate(fleet.machines):
        package = readout.get(machine.package_domain)
        dram = readout.get(machine.dram_domain)
        servers.append(ServerResult(
            index=index,
            routed=int(routed[index]),
            requests_completed=machine.requests_completed,
            package_power_w=(package.energy_j if package else 0.0) / duration_s,
            dram_power_w=(dram.energy_j if dram else 0.0) / duration_s,
            utilization=machine.utilization(),
            package_residency=machine.package.residency.fractions(),
            latency=machine.latency.summary(machine.config.network_latency_ns),
            park_transitions=park_transitions[index],
            parked_residency=parked_residency[index],
            pstate_residency=machine.pstate_residency(duration_ns),
        ))
    # The pooled distribution is computed from the concatenated raw
    # samples — exact percentiles, not a merge of per-server
    # summaries (LatencySummary.merge is for when samples are gone).
    pooled_samples = [
        sample
        for machine in fleet.machines
        for sample in machine.latency.samples_ns()
    ]
    network_latency_ns = fleet.machines[0].config.network_latency_ns
    completed = sum(server.requests_completed for server in servers)
    # The canonical built name, not the spelled base: a Cshallow
    # cluster overridden to pc1a reports (and aggregates) as CPC1A.
    config_name = fleet.machines[0].config.name
    if cluster.is_heterogeneous():
        config_name += "/mixed"
    return FleetResult(
        config_name=config_name,
        n_servers=cluster.n_servers,
        routing=cluster.routing,
        dispatch_latency_ns=cluster.dispatch_latency_ns,
        workload_name=workload.name,
        seed=seed,
        duration_ns=duration_ns,
        offered_qps=workload.offered_qps,
        requests_completed=completed,
        achieved_qps=completed / duration_s,
        package_power_w=sum(s.package_power_w for s in servers),
        dram_power_w=sum(s.dram_power_w for s in servers),
        utilization=sum(s.utilization for s in servers) / len(servers),
        latency=summarize_latency_ns(pooled_samples, network_latency_ns),
        servers=tuple(servers),
        control=cluster.control,
        slo_violations=(
            fleet.control.slo_violations if fleet.control is not None else 0
        ),
        slo_windows=(
            fleet.control.slo_windows if fleet.control is not None else 0
        ),
        kernel=fleet.stats(),
    )
