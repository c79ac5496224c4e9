"""The experiment driver: one workload on one configuration.

``run_experiment`` is the measurement harness every bench and example
uses: build a machine, warm it up, measure a window, and return an
:class:`ExperimentResult` carrying power, residency, latency,
transition counts and the idle-period trace views — the full set of
observables the paper reports across Figs. 5–9.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.server.configs import MachineConfig
from repro.server.machine import ServerMachine
from repro.server.stats import LatencySummary, MachineStats
from repro.tracing.socwatch import OpportunityEstimate
from repro.units import MS, ns_to_s
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ExperimentResult:
    """Everything measured over one experiment window."""

    #: Store-record tag (see ``repro.sweep.store``).
    result_kind = "experiment"

    config_name: str
    workload_name: str
    seed: int
    duration_ns: int
    offered_qps: float
    requests_completed: int
    achieved_qps: float
    # Power (averages over the window).
    package_power_w: float
    dram_power_w: float
    # Residency.
    core_residency: dict[str, float]
    package_residency: dict[str, float]
    utilization: float
    all_idle_fraction: float
    socwatch: OpportunityEstimate
    idle_histogram: dict[str, float]
    # Latency (end-to-end, network folded in).
    latency: LatencySummary
    # Transition accounting.
    pc1a_entries: int = 0
    pc1a_exits: int = 0
    pc1a_mean_exit_ns: float = 0.0
    pc1a_max_exit_ns: int = 0
    pc6_entries: int = 0
    pc6_exits: int = 0
    core_wakes: int = 0
    active_after_idle_mean: float = 1.0
    active_after_idle_dist: dict[int, float] = field(default_factory=dict)
    # Simulator health (kernel counters at collection time; None for
    # results persisted before the counters existed). Diagnostics, not
    # an observable: excluded from result equality so windows measured
    # after different warmups still compare equal.
    kernel: MachineStats | None = field(default=None, compare=False)

    @property
    def total_power_w(self) -> float:
        """SoC + DRAM average power (the paper's headline metric)."""
        return self.package_power_w + self.dram_power_w

    def pc1a_residency(self) -> float:
        """Fraction of the window actually spent in PC1A."""
        return self.package_residency.get("PC1A", 0.0)

    def pc6_residency(self) -> float:
        """Fraction of the window actually spent in PC6."""
        return self.package_residency.get("PC6", 0.0)

    # -- persistence -------------------------------------------------------
    def as_dict(self) -> dict:
        """Plain-data form (exact float round-trip via JSON)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Inverse of :meth:`as_dict`.

        JSON stringifies the integer keys of the active-after-idle
        histogram; restore them so round-tripped results compare equal
        to freshly measured ones.
        """
        data = dict(data)
        data["latency"] = LatencySummary(**data["latency"])
        data["socwatch"] = OpportunityEstimate(**data["socwatch"])
        data["active_after_idle_dist"] = {
            int(n): frac for n, frac in data["active_after_idle_dist"].items()
        }
        # Records persisted before the kernel counters existed lack the
        # field (or carry an explicit null); both deserialize to None.
        if data.get("kernel") is not None:
            data["kernel"] = MachineStats(**data["kernel"])
        return cls(**data)


def run_experiment(
    workload: Workload,
    config: MachineConfig,
    duration_ns: int = 400 * MS,
    warmup_ns: int = 50 * MS,
    seed: int = 0,
) -> ExperimentResult:
    """Run ``workload`` on ``config`` and measure one window.

    The quick-start driver for a prebuilt workload and machine config
    (a custom :class:`~repro.soc.config.SocConfig` included, which no
    spec can name), built on :func:`repro.api.measure_window`;
    anything starting from a spec should use :func:`repro.api.run_cell`.
    """
    from repro.api import measure_window

    machine = ServerMachine(config, seed=seed)
    measure_window(machine, workload, duration_ns, warmup_ns)
    return collect_result(machine, workload, duration_ns, seed)


def collect_result(
    machine: ServerMachine,
    workload: Workload,
    duration_ns: int,
    seed: int,
) -> ExperimentResult:
    """Assemble an :class:`ExperimentResult` from a measured machine."""
    duration_s = ns_to_s(duration_ns)
    apmu, gpmu = machine.apmu, machine.gpmu
    # One pass over all power channels instead of a filter-and-sum per
    # domain; accumulation order matches per-domain energy_j() exactly.
    power = machine.meter.readout()
    package = power.get(machine.package_domain)
    dram = power.get(machine.dram_domain)
    package_energy_j = package.energy_j if package is not None else 0.0
    dram_energy_j = dram.energy_j if dram is not None else 0.0
    return ExperimentResult(
        config_name=machine.config.name,
        workload_name=workload.name,
        seed=seed,
        duration_ns=duration_ns,
        offered_qps=workload.offered_qps,
        requests_completed=machine.requests_completed,
        achieved_qps=machine.requests_completed / duration_s,
        package_power_w=package_energy_j / duration_s,
        dram_power_w=dram_energy_j / duration_s,
        core_residency=machine.core_residency(),
        package_residency=machine.package.residency.fractions(),
        utilization=machine.utilization(),
        all_idle_fraction=machine.idle_tracker.idle_fraction(),
        socwatch=machine.socwatch.opportunity(),
        idle_histogram=machine.socwatch.duration_histogram(),
        latency=machine.latency.summary(machine.config.network_latency_ns),
        pc1a_entries=apmu.pc1a_entries if apmu else 0,
        pc1a_exits=apmu.pc1a_exits if apmu else 0,
        pc1a_mean_exit_ns=apmu.mean_exit_latency_ns if apmu else 0.0,
        pc1a_max_exit_ns=apmu.exit_latency_max_ns if apmu else 0,
        pc6_entries=gpmu.pc6_entries if gpmu else 0,
        pc6_exits=gpmu.pc6_exits if gpmu else 0,
        core_wakes=sum(core.wake_count for core in machine.cores),
        active_after_idle_mean=machine.active_sampler.mean_active(),
        active_after_idle_dist=machine.active_sampler.distribution(),
        kernel=machine.stats(),
    )
