"""Assembly of one simulated server machine.

Builds the full component graph for a :class:`MachineConfig`: power
meter and channels, CLM domain, IO links and their PLLs, memory
controllers and DRAM devices, CPU cores with their governor, and the
package controller the config calls for (none / GPMU / APMU+IOSM+CLMR).
Also owns the observability plumbing: the all-idle AND tree, idle
period tracker, SoCWatch view, post-idle activity sampler, RAPL
interface and the latency recorder.
"""

from __future__ import annotations

from repro.core.apmu import Apmu
from repro.core.clmr import ClmrController
from repro.core.iosm import IosmController
from repro.dram.controller import MemoryController
from repro.dram.device import DramDevice
from repro.dram.timings import DDR4_2666
from repro.hw.signals import AndTree
from repro.iolink.link import IoLink, make_link
from repro.power.meter import PowerMeter
from repro.power.rapl import RaplInterface
from repro.server.configs import MachineConfig
from repro.server.dispatch import Dispatcher
from repro.server.nic import Nic
from repro.server.stats import LatencyRecorder, MachineStats
from repro.server.ticks import OsTimerTicks
from repro.sim.engine import Simulator
from repro.soc.clm import ClmDomain
from repro.soc.cpu import Core, Job
from repro.soc.cstates import cstate_by_name
from repro.soc.governors import governor_for
from repro.soc.gpmu import Gpmu
from repro.soc.package import StaticPc0Controller
from repro.soc.pll import Pll
from repro.soc.pstates import pstate_table_by_name
from repro.tracing.idle import ActiveAfterIdleSampler, IdlePeriodTracker
from repro.tracing.socwatch import SocWatchView
from repro.workloads.base import Request


class ServerMachine:
    """One server: the paper's Xeon Silver 4114 under a given config.

    By default a machine owns its whole measurement substrate: it
    builds a private :class:`Simulator` seeded with ``seed`` and a
    private :class:`PowerMeter`. A fleet composes N machines under one
    kernel instead: pass an externally-owned ``sim`` (and usually a
    shared ``meter`` plus a per-machine ``channel_prefix`` so the N
    machines' identically-named channels cannot collide on it). The
    prefix is applied to channel *and* domain names, so a shared
    meter's readout splits per machine (``s03.package``) while a
    machine built with the defaults keeps the historical bare
    ``package``/``dram`` domains.
    """

    def __init__(
        self,
        config: MachineConfig,
        seed: int = 0,
        *,
        sim: Simulator | None = None,
        meter: PowerMeter | None = None,
        channel_prefix: str = "",
        sanitize: bool | None = None,
    ):
        self.config = config
        if sim is None and meter is not None:
            sim = meter.sim
        if sim is not None and sanitize is not None:
            raise ValueError(
                "sanitize= configures the machine's private simulator; an "
                "externally-owned sim decides its own sanitize mode"
            )
        self.sim = Simulator(seed, sanitize=sanitize) if sim is None else sim
        self._owns_meter = meter is None
        if meter is not None and meter.sim is not self.sim:
            raise ValueError(
                "meter and machine must share one simulator; the meter "
                "integrates channels against its own kernel's clock"
            )
        self.meter = PowerMeter(self.sim) if meter is None else meter
        self.channel_prefix = channel_prefix
        #: Domain tags this machine's channels carry on the meter.
        self.package_domain = channel_prefix + "package"
        self.dram_domain = channel_prefix + "dram"
        self._channels = []

        def channel(name: str, domain: str, power_w: float = 0.0):
            ch = self.meter.channel(
                channel_prefix + name, channel_prefix + domain, power_w
            )
            self._channels.append(ch)
            return ch

        soc = config.soc
        budget = soc.budget
        self.budget = budget
        self.rapl = RaplInterface(self.meter, domain_prefix=channel_prefix)
        # Always-on north-cap power (GPMU + misc + leakage).
        channel("uncore_static", "package", budget.uncore_base_w())
        # CLM domain (CHA/LLC/mesh) with its FIVRs, PLL and clock tree.
        self.clm = ClmDomain(
            self.sim,
            budget.clm,
            channel("clm", "package"),
            pll_channel=channel("pll.clm", "package"),
            apmu_cycle_ns=soc.pmu_cycle_ns,
        )
        # High-speed IO links and their PLLs.
        self.links: list[IoLink] = []
        for kind, count in (
            ("pcie", soc.n_pcie),
            ("dmi", soc.n_dmi),
            ("upi", soc.n_upi),
        ):
            for index in range(count):
                link = make_link(
                    self.sim, kind, index,
                    channel(f"link.{kind}{index}", "package"),
                )
                self.links.append(link)
        self.link_plls = [
            Pll(self.sim, f"pll.{link.name}",
                channel=channel(f"pll.{link.name}", "package"))
            for link in self.links
        ]
        self.gpmu_pll = Pll(
            self.sim, "pll.gpmu", channel=channel("pll.gpmu", "package")
        )
        #: The 8 uncore PLLs of Sec. 5.4 (off in PC6, on in PC1A).
        self.uncore_plls = [self.clm.pll] + self.link_plls + [self.gpmu_pll]
        # Memory controllers and their DRAM channels.
        self.dram_devices: list[DramDevice] = []
        self.memory_controllers: list[MemoryController] = []
        for index in range(soc.n_mc):
            device = DramDevice(
                self.sim, f"dram{index}", budget.dram,
                channel(f"dram{index}", "dram"),
            )
            controller = MemoryController(
                self.sim, f"mc{index}", budget.mc, DDR4_2666,
                channel(f"mc{index}", "package"), device,
            )
            self.dram_devices.append(device)
            self.memory_controllers.append(controller)
        # CPU cores (package reference is attached just below).
        enabled = tuple(cstate_by_name(name) for name in config.enabled_cstates)
        self.governor = governor_for(config.governor, enabled)
        self.cores = [
            Core(
                self.sim, index, budget.core, self.governor,
                channel(f"core{index}", "package"), package=None,
            )
            for index in range(soc.n_cores)
        ]
        # DVFS: the machine boots in config.pstate_nominal and tracks
        # per-P-state residency; controllers move it via set_pstate().
        self.pstates = pstate_table_by_name(config.pstate_table)
        self._pstate = self.pstates.by_name(config.pstate_nominal)
        self._pstate_since = self.sim.now
        self.pstate_ns: dict[str, int] = {}
        if self._pstate is not self.pstates.nominal:
            scaled = self.pstates.scaled_core_spec(budget.core, self._pstate)
            for core in self.cores:
                core.set_spec(scaled)
        # Package controller.
        self.apmu: Apmu | None = None
        self.gpmu: Gpmu | None = None
        self.iosm: IosmController | None = None
        self.clmr: ClmrController | None = None
        if config.package_policy == "none":
            self.package = StaticPc0Controller(self.sim)
        elif config.package_policy == "pc6":
            self.gpmu = Gpmu(
                self.sim, self.cores, self.links, self.memory_controllers,
                self.clm, self.uncore_plls,
            )
            self.package = self.gpmu
        else:  # "pc1a"
            self.iosm = IosmController(self.sim, self.links, self.memory_controllers)
            self.clmr = ClmrController(self.clm)
            self.apmu = Apmu(self.sim, self.cores, self.iosm, self.clmr)
            self.package = self.apmu
        for core in self.cores:
            core.package = self.package
        # OS scheduler ticks (0 = tickless, the paper's configuration).
        self.ticks: OsTimerTicks | None = None
        if config.timer_tick_hz > 0:
            self.ticks = OsTimerTicks(
                self.sim, self.cores, config.timer_tick_hz, config.tick_mode
            )
            self.ticks.start()
        # Request path.
        self.dispatcher = Dispatcher(self.sim, self.cores, config.dispatch_policy)
        self.nic = Nic(self.sim, self.links[0], self._dispatch)
        self.latency = LatencyRecorder()
        self._next_mc = 0
        self.requests_completed = 0
        #: Optional completion hook (a fleet's load balancer uses it to
        #: track per-server outstanding requests).
        self.on_request_complete = None
        # Observability: the fully-idle signal and its consumers. The
        # APMU already ANDs every core's InCC1, so its tree doubles as
        # the view (the APMU watched it first, so it still hears each
        # edge first); other machines build their own.
        if self.apmu is not None:
            self.all_idle = self.apmu.all_cc1.output
        else:
            self.all_idle = AndTree(
                "machine.AllIdle", [core.in_cc1 for core in self.cores]
            ).output
        self.idle_tracker = IdlePeriodTracker(self.sim, self.all_idle)
        self.socwatch = SocWatchView(self.idle_tracker)
        self.active_sampler = ActiveAfterIdleSampler(
            self.sim, self.all_idle, self.cores
        )

    def checkpoint(self) -> None:
        # perfbench/probes.py still wraps this name at install time; nothing calls it.
        raise NotImplementedError("warm recycling was removed; build a fresh runtime")

    # -- request path ------------------------------------------------------
    def inject(self, request: Request) -> None:
        """A request arrives from the network (workload entry point)."""
        if request.arrival_ns is None:
            request.arrival_ns = self.sim.now
        self.nic.receive(request)

    def _dispatch(self, request: Request) -> None:
        core = self.dispatcher.pick()
        service_ns = self.pstates.scaled_service_ns(request.service_ns, self._pstate)
        job = Job(request, service_ns, on_complete=self._job_complete)
        core.submit(job)

    def _job_complete(self, job: Job, now: int) -> None:
        request: Request = job.payload
        request.started_ns = job.started_ns
        request.completed_ns = now
        # Charge the transaction's memory traffic (round-robin over
        # channels, as an address-interleaved system would).
        if request.dram_bytes > 0:
            mc = self.memory_controllers[self._next_mc % len(self.memory_controllers)]
            self._next_mc += 1
            mc.access(request.dram_bytes)
        self.requests_completed += 1
        self.latency.record(request.server_latency_ns)
        self.nic.send_response(request)
        if self.on_request_complete is not None:
            self.on_request_complete(request)

    # -- DVFS actuation ------------------------------------------------------
    @property
    def pstate(self) -> str:
        """The label of the machine's current P-state."""
        return self._pstate.name

    def set_pstate(self, name: str) -> None:
        """Move every core to P-state ``name`` (a controller actuation).

        Reprices active core power immediately and rescales the service
        time of requests dispatched from now on; requests already
        executing finish at the old speed (the granularity a per-job
        DVFS model would need is beyond the paper's scope).
        """
        state = self.pstates.by_name(name)
        if state is self._pstate:
            return
        self._fold_pstate_residency()
        self._pstate = state
        spec = (
            self.budget.core
            if state is self.pstates.nominal
            else self.pstates.scaled_core_spec(self.budget.core, state)
        )
        for core in self.cores:
            core.set_spec(spec)

    def _fold_pstate_residency(self) -> None:
        now = self.sim.now
        elapsed = now - self._pstate_since
        if elapsed:
            name = self._pstate.name
            self.pstate_ns[name] = self.pstate_ns.get(name, 0) + elapsed
        self._pstate_since = now

    def pstate_residency(self, duration_ns: int) -> dict[str, float]:
        """Fraction of the last ``duration_ns`` spent at each P-state."""
        self._fold_pstate_residency()
        if duration_ns <= 0:
            return {}
        return {
            name: ns / duration_ns
            for name, ns in sorted(self.pstate_ns.items())
            if ns
        }

    # -- measurement windows -----------------------------------------------
    def begin_measurement(self, *, reset_channels: bool = True) -> None:
        """Zero all meters, counters and traces (end of warmup).

        A fleet resets its shared meter in one fused pass and then
        passes ``reset_channels=False`` so N machines don't each walk
        their own channel list again.
        """
        if reset_channels:
            if self._owns_meter:
                self.meter.reset()
            else:
                # A shared meter carries other machines' channels too;
                # only this machine's accumulation restarts.
                for channel in self._channels:
                    channel.reset()
        self.latency.reset()
        self.idle_tracker.reset()
        self.active_sampler.reset()
        self.requests_completed = 0
        self.nic.received = 0
        self.nic.responses_sent = 0
        self.package.residency.reset()
        self.pstate_ns.clear()
        self._pstate_since = self.sim.now
        for core in self.cores:
            core.residency.reset()
            core.jobs_completed = 0
            core.wake_count = 0
        for link in self.links:
            link.residency.reset()
            link.transfers = 0
            link.shallow_entries = 0
        for mc in self.memory_controllers:
            mc.residency.reset()
            mc.cke_off_entries = 0
            mc.accesses = 0
        for device in self.dram_devices:
            device.residency.reset()
            device.bytes_accessed = 0
        if self.apmu is not None:
            self.apmu.pc1a_entries = 0
            self.apmu.pc1a_exits = 0
            self.apmu.exit_latency_sum_ns = 0
            self.apmu.exit_latency_max_ns = 0
        if self.gpmu is not None:
            self.gpmu.pc6_entries = 0
            self.gpmu.pc6_exits = 0

    # -- aggregate views -----------------------------------------------------
    def stats(self) -> MachineStats:
        """Snapshot of the event-kernel counters (simulator health)."""
        return MachineStats.from_simulator(self.sim)

    def core_residency(self) -> dict[str, float]:
        """Average core C-state residency fractions across all cores."""
        totals: dict[str, float] = {}
        for core in self.cores:
            for state, fraction in core.residency.fractions().items():
                totals[state] = totals.get(state, 0.0) + fraction
        return {state: value / len(self.cores) for state, value in totals.items()}

    def utilization(self) -> float:
        """Average CC0 residency across cores (processor load)."""
        return self.core_residency().get("CC0", 0.0)

    def run_for(self, duration_ns: int) -> None:
        """Advance the simulation by a fixed amount of time."""
        self.sim.run(until_ns=self.sim.now + duration_ns)
