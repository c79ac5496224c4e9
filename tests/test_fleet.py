"""Tests for the fleet subsystem: cluster composition, routing,
results, latency pooling, and sweep-session integration."""

from __future__ import annotations

import io
import csv
import json

import pytest

from repro.api import run_cell
from repro.fleet import (
    FLEET_CSV_COLUMNS,
    ClusterConfig,
    FleetCell,
    FleetMachine,
    FleetResult,
    FleetSpec,
    fleet_power_curve,
    flatten_fleet_result,
    server_prefix,
)
from repro.server.stats import EMPTY_SUMMARY, LatencySummary
from repro.sweep import ResultStore, SweepSession, WorkloadPoint
from repro.units import MS, US
from repro.workloads.base import Request
from repro.workloads.memcached import MemcachedWorkload


def small_cluster(routing="round-robin", n=2, **kwargs):
    return ClusterConfig(machine="CPC1A", n_servers=n, routing=routing, **kwargs)


def small_cell(qps, routing="round-robin", n=2, *, seed, duration_ns,
               warmup_ns, machine="CPC1A", **kwargs):
    """A fleet cell under memcached at ``qps`` (0 = the idle scenario)."""
    return FleetCell(
        workload="memcached" if qps else "idle", qps=qps, preset="low",
        machine=machine, n_servers=n, routing=routing, seed=seed,
        duration_ns=duration_ns, warmup_ns=warmup_ns, **kwargs,
    )


class TestClusterConfig:
    def test_validates_config_name(self):
        with pytest.raises(KeyError, match="unknown config"):
            ClusterConfig(machine="nope")

    def test_validates_server_count(self):
        with pytest.raises(ValueError, match="at least one server"):
            ClusterConfig(n_servers=0)

    def test_validates_routing_policy(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            ClusterConfig(routing="hash-ring")

    def test_validates_dispatch_latency(self):
        with pytest.raises(ValueError, match="cannot be negative"):
            ClusterConfig(dispatch_latency_ns=-1)

    def test_validates_pack_watermark(self):
        with pytest.raises(ValueError, match="watermark cannot be negative"):
            ClusterConfig(pack_watermark=-1)

    def test_watermark_zero_resolves_to_one_slot_per_core(self):
        cluster = ClusterConfig(machine="CPC1A")
        n_cores = cluster.build_machine_config().soc.n_cores
        assert cluster.resolved_pack_watermark() == n_cores
        assert ClusterConfig(pack_watermark=3).resolved_pack_watermark() == 3

    def test_props_build_the_canonical_hybrid(self):
        cluster = ClusterConfig(
            machine="Cshallow", props={"package_policy": "pc1a"}
        )
        assert cluster.build_machine_config().name == "CPC1A"
        assert not cluster.is_heterogeneous()

    def test_server_props_build_a_heterogeneous_mix(self):
        cluster = ClusterConfig(
            machine="Cshallow", n_servers=2,
            server_props=((), {"timer_tick_hz": 250}),
        )
        assert cluster.is_heterogeneous()
        assert cluster.build_machine_config(0).name == "Cshallow"
        assert (
            cluster.build_machine_config(1).name
            == "Cshallow+timer_tick_hz=250"
        )
        assert cluster.label().endswith("/mixed")

    def test_server_props_length_validated(self):
        with pytest.raises(ValueError, match="one entry per server"):
            ClusterConfig(n_servers=3, server_props=((),))

    def test_bad_props_rejected_at_construction(self):
        with pytest.raises(ValueError, match="timer_tick_hz"):
            ClusterConfig(props={"timer_tick_hz": -5})
        with pytest.raises(ValueError, match="fleet-scoped"):
            ClusterConfig(props={"fleet.n_servers": 4})

    def test_label(self):
        cluster = ClusterConfig(
            machine="CPC1A", n_servers=16, routing="power-aware-pack"
        )
        assert cluster.label() == "CPC1Ax16/power-aware-pack"


class TestFleetMachine:
    def test_composes_n_machines_on_one_kernel(self):
        fleet = FleetMachine(small_cluster(n=3), seed=5)
        assert len(fleet.machines) == 3
        assert all(m.sim is fleet.sim for m in fleet.machines)
        assert all(m.meter is fleet.meter for m in fleet.machines)
        assert fleet.sim.seed == 5

    def test_channel_prefixes_split_the_shared_meter(self):
        fleet = FleetMachine(small_cluster(n=2), seed=1)
        assert f"{server_prefix(0)}core0" in fleet.meter
        assert f"{server_prefix(1)}core0" in fleet.meter
        domains = set(fleet.meter.readout())
        assert {"s00.package", "s00.dram", "s01.package", "s01.dram"} <= domains

    def test_per_server_rapl_reads_own_domain(self):
        fleet = FleetMachine(small_cluster(n=2), seed=1)
        fleet.run_for(1 * MS)
        for machine in fleet.machines:
            from repro.power.rapl import RaplDomain

            own = machine.rapl.read_counter(RaplDomain.PACKAGE)
            assert own > 0
            # The counter reads this machine's domain, not the fleet's.
            fleet_energy = fleet.meter.energy_j()
            assert own * machine.rapl.ENERGY_UNIT_J < fleet_energy

    def test_workload_drives_fleet_through_inject(self):
        fleet = FleetMachine(small_cluster(n=2), seed=3)
        workload = MemcachedWorkload(qps=50_000)
        workload.start(fleet.sim, fleet)
        fleet.run_for(5 * MS)
        assert fleet.received > 0
        assert fleet.requests_completed > 0
        assert sum(fleet.balancer.routed) == fleet.received


class TestRouting:
    def route_n(self, fleet, count):
        for _ in range(count):
            fleet.inject(Request("get", service_ns=10_000))
        fleet.run_for(2 * MS)

    def test_round_robin_spreads_evenly(self):
        fleet = FleetMachine(small_cluster("round-robin", n=4), seed=1)
        self.route_n(fleet, 8)
        assert list(fleet.balancer.routed) == [2, 2, 2, 2]

    def test_pack_fills_lowest_servers_first(self):
        fleet = FleetMachine(small_cluster("power-aware-pack", n=4), seed=1)
        self.route_n(fleet, 6)
        # All requests complete fast relative to injection: everything
        # lands on server 0, the rest of the fleet never wakes.
        assert fleet.balancer.routed[0] == 6
        assert list(fleet.balancer.routed[1:]) == [0, 0, 0]

    def test_pack_spills_at_the_watermark(self):
        fleet = FleetMachine(
            small_cluster("power-aware-pack", n=2, pack_watermark=2), seed=1
        )
        balancer = fleet.balancer
        balancer.outstanding[0] = 2  # server 0 is at its watermark
        assert balancer.pick() == 1

    def test_least_outstanding_prefers_the_emptier_server(self):
        fleet = FleetMachine(small_cluster("least-outstanding", n=3), seed=1)
        balancer = fleet.balancer
        balancer.outstanding[:] = [2, 0, 1]
        assert balancer.pick() == 1

    def test_spread_rotates_across_equally_idle_servers(self):
        fleet = FleetMachine(small_cluster("power-aware-spread", n=3), seed=1)
        picks = [fleet.balancer.pick() for _ in range(3)]
        assert sorted(picks) == [0, 1, 2]

    def test_outstanding_returns_to_zero_after_completion(self):
        fleet = FleetMachine(small_cluster(n=2), seed=1)
        self.route_n(fleet, 4)
        assert list(fleet.balancer.outstanding) == [0, 0]

    def test_dispatch_latency_is_in_end_to_end_latency(self):
        results = {
            label: run_cell(small_cell(
                20_000, n=1, dispatch_latency_ns=dispatch_ns,
                duration_ns=5 * MS, warmup_ns=1 * MS, seed=2,
            ))
            for label, dispatch_ns in (("slow", 100 * US), ("fast", 0))
        }
        gap_us = results["slow"].latency.mean_us - results["fast"].latency.mean_us
        assert gap_us == pytest.approx(100.0, rel=0.25)


class TestFleetExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_cell(small_cell(
            40_000, "round-robin", n=2,
            duration_ns=8 * MS, warmup_ns=2 * MS, seed=1,
        ))

    def test_config_name_is_the_canonical_built_name(self):
        # A Cshallow cluster overridden to pc1a reports as CPC1A, so
        # aggregation never folds a hybrid into its spelled base.
        result = run_cell(small_cell(
            0, machine="Cshallow", props={"package_policy": "pc1a"},
            duration_ns=4 * MS, warmup_ns=1 * MS, seed=1,
        ))
        assert result.config_name == "CPC1A"
        mixed = run_cell(small_cell(
            0, machine="Cshallow", server_props=((), {"timer_tick_hz": 250}),
            duration_ns=4 * MS, warmup_ns=1 * MS, seed=1,
        ))
        assert mixed.config_name == "Cshallow/mixed"

    def test_totals_are_consistent(self, result):
        assert result.requests_completed == sum(
            s.requests_completed for s in result.servers
        )
        assert result.package_power_w == pytest.approx(
            sum(s.package_power_w for s in result.servers)
        )
        assert result.total_power_w == pytest.approx(
            result.package_power_w + result.dram_power_w
        )
        assert result.achieved_qps == pytest.approx(
            result.requests_completed / (result.duration_ns / 1e9)
        )

    def test_per_server_breakdown_is_labelled(self, result):
        assert [s.index for s in result.servers] == [0, 1]
        assert all(s.total_power_w > 0 for s in result.servers)
        assert 0.0 < result.utilization < 1.0

    def test_pooled_latency_counts_every_request(self, result):
        assert result.latency.count == result.requests_completed

    def test_pooled_percentiles_are_exact_not_merged(self):
        import numpy as np

        cell = small_cell(
            60_000, "least-outstanding", n=2,
            duration_ns=6 * MS, warmup_ns=1 * MS, seed=4,
        )
        fleet = cell.build()
        result = run_cell(cell, runtime=fleet)
        samples = [s for m in fleet.machines for s in m.latency.samples_ns()]
        network = fleet.machines[0].config.network_latency_ns
        expected = np.percentile(np.asarray(samples, float) + network, 99) / 1000
        assert result.latency.p99_us == pytest.approx(expected, rel=1e-12)

    def test_kernel_stats_attribute_to_the_shared_simulator(self, result):
        assert result.kernel is not None
        assert result.kernel.sim_time_ns == 10 * MS  # warmup + window

    def test_result_round_trips_through_json(self, result):
        restored = FleetResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert restored == result

    def test_pack_saves_energy_vs_round_robin_at_matched_load(self):
        energies = {}
        for routing in ("round-robin", "power-aware-pack"):
            result = run_cell(small_cell(
                40_000, routing, n=4,
                duration_ns=10 * MS, warmup_ns=2 * MS, seed=1,
            ))
            energies[routing] = result.energy_j
        assert energies["power-aware-pack"] < energies["round-robin"]

    def test_fleet_power_curve_feeds_the_ep_analysis(self):
        results = [
            run_cell(small_cell(
                qps, n=2, duration_ns=5 * MS, warmup_ns=1 * MS, seed=1,
            ))
            for qps in (0, 30_000, 80_000)
        ]
        curve = fleet_power_curve(results, label="test")
        assert curve.utilizations[0] < curve.utilizations[-1]
        assert 0.0 <= curve.proportionality_score() <= 1.0


class TestLatencySummaryMerge:
    def summary(self, count, base):
        return LatencySummary(
            count=count, mean_us=base, p50_us=base, p95_us=2 * base,
            p99_us=3 * base, p999_us=4 * base, max_us=5 * base,
        )

    def test_merge_of_nothing_is_empty(self):
        assert LatencySummary.merge([]) == EMPTY_SUMMARY

    def test_empty_summaries_contribute_nothing(self):
        real = self.summary(10, 100.0)
        assert LatencySummary.merge([EMPTY_SUMMARY, real, EMPTY_SUMMARY]) == real
        assert LatencySummary.merge([EMPTY_SUMMARY, EMPTY_SUMMARY]) == EMPTY_SUMMARY

    def test_identical_sources_merge_to_themselves(self):
        s = self.summary(7, 50.0)
        merged = LatencySummary.merge([s, s, s])
        assert merged.count == 21
        assert merged.mean_us == pytest.approx(50.0)
        assert merged.p99_us == pytest.approx(150.0)

    def test_skewed_counts_weight_the_heavy_source(self):
        light = self.summary(1, 10.0)
        heavy = self.summary(99, 1000.0)
        merged = LatencySummary.merge([light, heavy])
        assert merged.count == 100
        assert merged.mean_us == pytest.approx(0.01 * 10 + 0.99 * 1000)
        # The pooled tail tracks the server carrying the requests.
        assert merged.p99_us > 0.9 * heavy.p99_us
        assert merged.max_us == heavy.max_us

    def test_merge_pools_real_recorders(self):
        from repro.server.stats import LatencyRecorder

        a, b = LatencyRecorder(), LatencyRecorder()
        for v in (1_000, 2_000, 3_000):
            a.record(v)
        b.record(10_000)
        merged = LatencySummary.merge([a.summary(), b.summary()])
        assert merged.count == 4
        assert merged.mean_us == pytest.approx((6_000 / 3 * 3 + 10_000) / 4 / 1000)


class TestFleetCells:
    def cell(self, **overrides):
        base = dict(
            workload="memcached", qps=30_000.0, preset="low",
            machine="CPC1A", n_servers=2, routing="round-robin",
            seed=1, duration_ns=5 * MS, warmup_ns=1 * MS,
        )
        base.update(overrides)
        return FleetCell(**base)

    def test_key_distinguishes_cluster_shape(self):
        base = self.cell()
        assert base.key() != self.cell(routing="power-aware-pack").key()
        assert base.key() != self.cell(n_servers=4).key()
        assert base.key() != self.cell(dispatch_latency_ns=0).key()
        assert base.key() == self.cell().key()

    def test_key_canonicalizes_the_machine_spelling(self):
        # A fleet of CPC1A servers and a fleet of
        # Cshallow+package_policy=pc1a servers are one experiment.
        explicit = self.cell(
            machine="Cshallow", props={"package_policy": "pc1a"}
        )
        assert explicit.key() == self.cell().key()
        assert explicit.key() != self.cell(machine="Cshallow").key()

    def test_key_distinguishes_per_server_props(self):
        mixed = self.cell(server_props=((), {"timer_tick_hz": 250}))
        assert mixed.key() != self.cell().key()
        # Identical per-server sets collapse to the homogeneous key.
        spelled_out = self.cell(server_props=((), ()))
        assert spelled_out.key() == self.cell().key()

    def test_props_round_trip_through_json(self):
        cell = self.cell(
            machine="Cshallow",
            props={"governor": "menu"},
            server_props=((), {"timer_tick_hz": 250}),
        )
        from repro.fleet import FleetCell

        clone = FleetCell.from_dict(json.loads(json.dumps(cell.as_dict())))
        assert clone == cell
        assert clone.key() == cell.key()

    def test_key_ignores_the_watermark_unless_packing(self):
        # Only power-aware-pack reads the watermark: spelling it on a
        # round-robin cell must not fork the cache key, and the 0
        # default aliases the explicit per-core value when packing.
        assert self.cell().key() == self.cell(pack_watermark=5).key()
        n_cores = ClusterConfig(machine="CPC1A").build_machine_config().soc.n_cores
        pack = self.cell(routing="power-aware-pack")
        assert pack.key() == self.cell(
            routing="power-aware-pack", pack_watermark=n_cores
        ).key()
        assert pack.key() != self.cell(
            routing="power-aware-pack", pack_watermark=n_cores + 1
        ).key()

    def test_default_windows_are_sized_per_server(self):
        from repro.sweep.spec import duration_for_rate

        point = (WorkloadPoint("memcached", qps=120_000.0),)
        small = FleetSpec(workloads=point, clusters=(small_cluster(n=1),))
        large = FleetSpec(workloads=point, clusters=(small_cluster(n=8),))
        assert small.cells()[0].duration_ns == duration_for_rate(120_000)
        assert large.cells()[0].duration_ns == duration_for_rate(120_000 / 8)
        assert large.cells()[0].duration_ns > small.cells()[0].duration_ns

    def test_key_canonicalizes_the_idle_point(self):
        # Rate 0 of any rate scenario is the same idle fleet.
        memcached_idle = self.cell(qps=0.0)
        nginx_idle = self.cell(workload="nginx", qps=0.0)
        assert memcached_idle.key() == nginx_idle.key()

    def test_cell_round_trips(self):
        cell = self.cell(routing="power-aware-spread")
        assert FleetCell.from_dict(cell.as_dict()) == cell

    def test_label_names_the_cluster_and_point(self):
        label = self.cell(routing="power-aware-pack").label()
        assert label == "CPC1Ax2/power-aware-pack/memcached@30000/seed1"

    def test_spec_expansion_order_and_duplicates(self):
        spec = FleetSpec(
            workloads=(WorkloadPoint("memcached", qps=10_000.0),),
            clusters=(small_cluster("round-robin"), small_cluster("power-aware-pack")),
            seeds=(1, 2),
            duration_ns=5 * MS,
        )
        cells = spec.cells()
        assert len(cells) == len(spec) == 4
        assert [c.routing for c in cells] == [
            "round-robin", "round-robin",
            "power-aware-pack", "power-aware-pack",
        ]
        assert [c.seed for c in cells] == [1, 2, 1, 2]
        with pytest.raises(ValueError, match="duplicate"):
            FleetSpec(
                workloads=(WorkloadPoint("memcached", qps=10_000.0),),
                clusters=(small_cluster(), small_cluster()),
                duration_ns=5 * MS,
            )


@pytest.mark.slow
class TestFleetSweepIntegration:
    def spec(self):
        # The acceptance cluster: 16 servers under the diurnal MMPP
        # scenario, round-robin vs power-aware-pack.
        return FleetSpec(
            workloads=(WorkloadPoint("memcached-diurnal", qps=40_000.0),),
            clusters=(
                ClusterConfig("CPC1A", 16, "round-robin"),
                ClusterConfig("CPC1A", 16, "power-aware-pack"),
            ),
            seeds=(1,),
            duration_ns=4 * MS,
            warmup_ns=1 * MS,
        )

    def render_csv(self, results) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=FLEET_CSV_COLUMNS)
        writer.writeheader()
        for cell, result in zip(results.cells, results.results):
            writer.writerow(flatten_fleet_result(result, spec=cell))
        return buffer.getvalue()

    def test_16_server_diurnal_fleet_is_deterministic_across_workers(self):
        spec = self.spec()
        outputs = []
        for workers in (1, 2):
            with SweepSession(workers=workers) as session:
                outputs.append(self.render_csv(session.run(spec.cells())))
        assert outputs[0] == outputs[1]

    def test_fleet_results_cache_in_a_result_store(self, tmp_path):
        spec = self.spec()
        store = ResultStore(tmp_path / "fleet_store")
        with SweepSession(workers=1) as session:
            first = session.run(spec.cells(), store=store)
            second = session.run(
                spec.cells(), store=ResultStore(tmp_path / "fleet_store")
            )
        assert first.cache_hits == 0
        assert second.cache_hits == len(spec)
        assert self.render_csv(first) == self.render_csv(second)
        # Records are tagged so the store decodes them as FleetResult.
        record = json.loads(next((tmp_path / "fleet_store").glob("*.json")).read_text())
        assert record["kind"] == "fleet"
        assert record["spec"]["n_servers"] == 16

    def test_select_filters_on_fleet_cell_fields(self):
        spec = self.spec()
        with SweepSession(workers=1) as session:
            results = session.run(spec.cells())
        packed = results.one(routing="power-aware-pack")
        assert packed.routing == "power-aware-pack"
        assert packed.n_servers == 16
