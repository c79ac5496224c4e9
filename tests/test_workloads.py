"""Tests for arrival processes, service models and the three workloads."""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.units import MS, S, US
from repro.workloads.arrivals import (
    ConvoyArrivals,
    GammaArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workloads.base import NullWorkload, Request, workload_rng
from repro.workloads.kafka import KAFKA_PRESETS, KafkaWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.mysql import MYSQL_PRESETS, MySqlWorkload
from repro.workloads.service import (
    ExponentialService,
    FixedService,
    LoadCalibratedService,
    LognormalService,
)

RNG = np.random.default_rng(123)


def mean_rate(process, samples=20_000):
    gaps = [process.next_gap_ns(RNG) for _ in range(samples)]
    return S / (sum(gaps) / len(gaps))


class TestArrivalProcesses:
    def test_poisson_mean_rate(self):
        assert mean_rate(PoissonArrivals(10_000)) == pytest.approx(10_000, rel=0.05)

    def test_gamma_mean_rate_any_shape(self):
        for shape in (0.5, 1.0, 3.0):
            assert mean_rate(GammaArrivals(5_000, shape)) == pytest.approx(
                5_000, rel=0.05
            )

    def test_gamma_shape_controls_burstiness(self):
        bursty = [GammaArrivals(1_000, 0.5).next_gap_ns(RNG) for _ in range(20_000)]
        regular = [GammaArrivals(1_000, 5.0).next_gap_ns(RNG) for _ in range(20_000)]

        def cv(xs):
            return np.std(xs) / np.mean(xs)

        assert cv(bursty) > 1.2
        assert cv(regular) < 0.6

    def test_mmpp_mean_rate(self):
        process = MMPPArrivals((20_000, 0.0), (5 * MS, 5 * MS))
        assert process.mean_rate_per_s() == pytest.approx(10_000)
        assert mean_rate(process) == pytest.approx(10_000, rel=0.1)

    def test_mmpp_zero_low_rate_produces_gaps(self):
        process = MMPPArrivals((50_000, 0.0), (1 * MS, 1 * MS))
        gaps = [process.next_gap_ns(RNG) for _ in range(5_000)]
        # Quiet phases show up as gaps on the order of the dwell time.
        assert max(gaps) > 500 * US

    def test_convoy_mean_rate(self):
        process = ConvoyArrivals(10 * MS, 20.0, 6 * MS)
        assert process.mean_rate_per_s() == pytest.approx(2_000)
        assert mean_rate(process, samples=5_000) == pytest.approx(2_000, rel=0.1)

    def test_convoy_arrivals_cluster_in_spread_window(self):
        process = ConvoyArrivals(10 * MS, 10.0, 2 * MS)
        t, times = 0, []
        for _ in range(2_000):
            t += process.next_gap_ns(RNG)
            times.append(t)
        offsets = [time % (10 * MS) for time in times]
        in_spread = sum(1 for off in offsets if off < 2 * MS)
        assert in_spread / len(offsets) > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0)
        with pytest.raises(ValueError):
            GammaArrivals(100, 0)
        with pytest.raises(ValueError):
            MMPPArrivals((0, 0), (1, 1))
        with pytest.raises(ValueError):
            ConvoyArrivals(10, 5.0, 20)  # spread > period


class TestServiceModels:
    def test_fixed_service(self):
        model = FixedService(1_000)
        assert model.sample_ns(RNG, 0) == 1_000
        assert model.mean_ns(123456) == 1_000

    def test_exponential_mean(self):
        model = ExponentialService(10_000)
        samples = [model.sample_ns(RNG, 0) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(10_000, rel=0.05)

    def test_lognormal_median_and_mean(self):
        model = LognormalService(100_000, sigma=0.5)
        samples = [model.sample_ns(RNG, 0) for _ in range(20_000)]
        assert np.median(samples) == pytest.approx(100_000, rel=0.05)
        assert model.mean_ns(0) > 100_000  # mean above median

    def test_load_calibrated_decays_with_qps(self):
        model = LoadCalibratedService(15.0, 56.1, 37_800.0)
        assert model.mean_ns(4_000) > model.mean_ns(50_000) > model.mean_ns(100_000)
        assert model.mean_ns(1e9) == pytest.approx(15_000, rel=0.01)

    def test_load_calibrated_matches_paper_fit(self):
        # The Fig. 6 calibration anchors.
        model = MemcachedWorkload.OCCUPANCY
        assert model.mean_ns(4_000) == pytest.approx(65_500, rel=0.02)
        assert model.mean_ns(50_000) == pytest.approx(29_900, rel=0.03)
        assert model.mean_ns(100_000) == pytest.approx(19_000, rel=0.03)

    def test_utilization_prediction(self):
        model = MemcachedWorkload.OCCUPANCY
        assert model.utilization(4_000, 10) == pytest.approx(0.026, abs=0.004)
        assert model.utilization(100_000, 10) == pytest.approx(0.19, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedService(0)
        with pytest.raises(ValueError):
            ExponentialService(0)
        with pytest.raises(ValueError):
            LognormalService(100, sigma=0)
        with pytest.raises(ValueError):
            LoadCalibratedService(0, 1, 1)
        with pytest.raises(ValueError):
            model = LoadCalibratedService(1, 1, 1)
            model.utilization(100, 0)


class TestRequest:
    def test_ids_are_unique(self):
        a, b = Request("get", 100), Request("get", 100)
        assert a.request_id != b.request_id

    def test_server_latency_requires_completion(self):
        request = Request("get", 100)
        with pytest.raises(ValueError):
            request.server_latency_ns
        request.arrival_ns, request.completed_ns = 10, 150
        assert request.server_latency_ns == 140

    def test_service_time_validated(self):
        with pytest.raises(ValueError):
            Request("get", 0)


class TestWorkloadRng:
    def test_same_seed_same_stream(self):
        a = workload_rng(Simulator(seed=5), "memcached")
        b = workload_rng(Simulator(seed=5), "memcached")
        assert a.random() == b.random()

    def test_name_decouples_streams(self):
        sim = Simulator(seed=5)
        a = workload_rng(sim, "memcached")
        b = workload_rng(sim, "kafka")
        assert a.random() != b.random()


class _Collector:
    def __init__(self):
        self.requests = []

    def inject(self, request):
        self.requests.append(request)


class TestMemcachedWorkload:
    def test_offered_rate_is_respected(self):
        sim = Simulator(seed=3)
        sink = _Collector()
        MemcachedWorkload(50_000).start(sim, sink)
        sim.run(until_ns=200 * MS)
        rate = len(sink.requests) / 0.2
        assert rate == pytest.approx(50_000, rel=0.05)

    def test_mix_is_get_dominated(self):
        sim = Simulator(seed=3)
        sink = _Collector()
        MemcachedWorkload(100_000).start(sim, sink)
        sim.run(until_ns=100 * MS)
        gets = sum(1 for r in sink.requests if r.kind == "get")
        assert gets / len(sink.requests) == pytest.approx(0.97, abs=0.02)

    def test_describe_reports_utilization(self):
        info = MemcachedWorkload(4_000).describe()
        assert info["expected_utilization"] == pytest.approx(0.026, abs=0.005)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            MemcachedWorkload(0)

    def test_deterministic_across_runs(self):
        def gather():
            sim = Simulator(seed=9)
            sink = _Collector()
            MemcachedWorkload(10_000).start(sim, sink)
            sim.run(until_ns=50 * MS)
            return [(r.arrival_ns, r.service_ns) for r in sink.requests]

        assert gather() == gather()


class TestKafkaWorkload:
    def test_preset_lookup(self):
        assert KafkaWorkload("low").params is KAFKA_PRESETS["low"]
        with pytest.raises(KeyError):
            KafkaWorkload("medium")

    def test_expected_utilizations(self):
        assert KafkaWorkload("low").expected_utilization() == pytest.approx(
            0.08, abs=0.01
        )
        assert KafkaWorkload("high").expected_utilization() == pytest.approx(
            0.153, abs=0.02
        )

    def test_poll_cycle_generates_batches(self):
        sim = Simulator(seed=3)
        sink = _Collector()
        workload = KafkaWorkload("low")
        workload.start(sim, sink)
        sim.run(until_ns=100 * MS)
        expected = workload.offered_qps * 0.1
        assert len(sink.requests) == pytest.approx(expected, rel=0.1)

    def test_message_rate_reported(self):
        assert KAFKA_PRESETS["low"].message_rate_per_s == pytest.approx(300_000)


class TestMySqlWorkload:
    def test_preset_lookup(self):
        assert MySqlWorkload("high").params is MYSQL_PRESETS["high"]
        with pytest.raises(KeyError):
            MySqlWorkload("extreme")

    def test_expected_utilizations(self):
        assert MySqlWorkload("low").expected_utilization() == pytest.approx(
            0.08, abs=0.01
        )
        assert MySqlWorkload("high").expected_utilization() == pytest.approx(
            0.42, abs=0.05
        )

    def test_high_preset_uses_convoys(self):
        from repro.workloads.arrivals import ConvoyArrivals as Convoy

        assert isinstance(MySqlWorkload("high").arrivals, Convoy)
        assert not isinstance(MySqlWorkload("low").arrivals, Convoy)

    def test_transaction_rate(self):
        sim = Simulator(seed=3)
        sink = _Collector()
        MySqlWorkload("mid").start(sim, sink)
        sim.run(until_ns=200 * MS)
        rate = len(sink.requests) / 0.2
        assert rate == pytest.approx(MYSQL_PRESETS["mid"].rate_per_s, rel=0.1)


class TestNullWorkload:
    def test_generates_nothing(self):
        sim = Simulator(seed=3)
        sink = _Collector()
        NullWorkload().start(sim, sink)
        sim.run(until_ns=10 * MS)
        assert sink.requests == []
        assert NullWorkload().offered_qps == 0.0
