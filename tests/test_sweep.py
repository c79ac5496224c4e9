"""The sweep-orchestration subsystem: specs, store, runner, aggregation."""

from __future__ import annotations

import pytest

from repro.api import run_cell
from repro.cli import main as cli_main
from repro.server.stats import EMPTY_SUMMARY
from repro.server.experiment import ExperimentResult
from repro.sweep import (
    ExperimentSpec,
    MemoryStore,
    MetricStats,
    ResultStore,
    SweepSession,
    SweepSpec,
    WorkloadPoint,
    aggregate_over_seeds,
    duration_for_rate,
    flatten_result,
    memcached_points,
    preset_points,
    warmup_for_duration,
)
from repro.tracing.socwatch import OpportunityEstimate
from repro.units import MS


def tiny_cell(qps: float = 0.0, config: str = "CPC1A", seed: int = 1) -> ExperimentSpec:
    """A cell cheap enough for unit tests (a few ms of simulated time)."""
    return ExperimentSpec(
        workload="memcached", qps=qps, preset="low", config=config,
        seed=seed, duration_ns=4 * MS, warmup_ns=1 * MS,
    )


class TestSpecExpansion:
    def test_grid_order_is_config_major(self):
        spec = SweepSpec(
            workloads=memcached_points([0, 4_000]),
            configs=("Cshallow", "CPC1A"),
            seeds=(1, 2),
        )
        cells = spec.cells()
        assert len(cells) == len(spec) == 8
        assert [c.config for c in cells] == ["Cshallow"] * 4 + ["CPC1A"] * 4
        assert [c.qps for c in cells[:4]] == [0.0, 0.0, 4_000.0, 4_000.0]
        assert [c.seed for c in cells[:4]] == [1, 2, 1, 2]

    def test_rate_sized_windows(self):
        spec = SweepSpec(
            workloads=memcached_points([0, 4_000, 200_000]),
            configs=("CPC1A",),
        )
        durations = [c.duration_ns for c in spec.cells()]
        assert durations == [duration_for_rate(q) for q in (0, 4_000, 200_000)]
        warmups = [c.warmup_ns for c in spec.cells()]
        assert warmups == [warmup_for_duration(d) for d in durations]

    def test_point_window_overrides_spec(self):
        points = (
            WorkloadPoint("idle", duration_ns=10 * MS, warmup_ns=2 * MS),
            WorkloadPoint("memcached", qps=8_000.0),
        )
        spec = SweepSpec(points, configs=("CPC1A",), duration_ns=50 * MS)
        idle_cell, loaded_cell = spec.cells()
        assert idle_cell.duration_ns == 10 * MS
        assert idle_cell.warmup_ns == 2 * MS
        assert loaded_cell.duration_ns == 50 * MS

    def test_preset_points(self):
        spec = SweepSpec(
            preset_points("mysql", ("low", "high")),
            configs=("Cshallow",),
            duration_ns=20 * MS,
        )
        assert [c.preset for c in spec.cells()] == ["low", "high"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(workloads=(), configs=("CPC1A",))
        with pytest.raises(ValueError):
            SweepSpec(memcached_points([0]), configs=())
        with pytest.raises(ValueError):
            SweepSpec(memcached_points([0]), configs=("CPC1A",), seeds=())
        with pytest.raises(KeyError):
            SweepSpec(memcached_points([0]), configs=("Cwrong",))
        with pytest.raises(KeyError):
            WorkloadPoint("postgres")
        with pytest.raises(KeyError, match="preset"):
            WorkloadPoint("mysql", preset="lwo")
        with pytest.raises(ValueError):
            tiny_cell().__class__(**{**tiny_cell().as_dict(), "duration_ns": 0})

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            SweepSpec(memcached_points([0]), configs=("CPC1A",), seeds=(1, 2, 2))
        with pytest.raises(ValueError, match="duplicate configs"):
            SweepSpec(memcached_points([0]), configs=("CPC1A", "CPC1A"))
        with pytest.raises(ValueError, match="duplicate workload points"):
            SweepSpec(memcached_points([0, 0]), configs=("CPC1A",))
        # Canonically-equivalent spellings of one cell are also repeats.
        with pytest.raises(ValueError, match="equivalent spellings"):
            SweepSpec(
                (WorkloadPoint("idle"), WorkloadPoint("memcached", qps=0.0)),
                configs=("CPC1A",),
                duration_ns=5 * MS,
            )


class TestCellIdentity:
    def test_key_is_stable_and_content_sensitive(self):
        cell = tiny_cell()
        assert cell.key() == tiny_cell().key()
        assert cell.key() != tiny_cell(seed=2).key()
        assert cell.key() != tiny_cell(qps=4_000).key()
        assert cell.key() != tiny_cell(config="Cshallow").key()

    def test_dict_round_trip(self):
        cell = tiny_cell(qps=4_000)
        assert ExperimentSpec.from_dict(cell.as_dict()) == cell

    def test_key_canonicalizes_equivalent_spellings(self):
        # Rate 0 is the idle server whatever the workload is called,
        # and fields build_workload ignores must not split the cache.
        def cell(**kw):
            base = dict(
                workload="memcached",
                qps=0.0,
                preset="low",
                config="CPC1A",
                seed=1,
                duration_ns=4 * MS,
                warmup_ns=1 * MS,
            )
            return ExperimentSpec(**{**base, **kw})

        assert cell().key() == cell(workload="idle").key()
        assert cell(qps=4_000.0).key() == cell(qps=4_000.0, preset="mid").key()
        assert (
            cell(workload="mysql").key()
            == cell(workload="mysql", qps=9_999.0).key()
        )
        assert cell(workload="mysql").key() != cell(
            workload="mysql", preset="mid"
        ).key()
        assert cell().key() != cell(warmup_ns=2 * MS).key()
        # int and float spellings of one rate share a key.
        assert cell(qps=40_000).key() == cell(qps=40_000.0).key()


class TestResultStore:
    def test_disk_round_trip_is_exact(self, tmp_path):
        cell = tiny_cell()
        result = run_cell(cell)
        store = ResultStore(tmp_path / "cache")
        assert store.get(cell.key()) is None
        store.put(cell.key(), result, spec=cell)
        assert cell.key() in store
        assert len(store) == 1
        loaded = store.get(cell.key())
        # Frozen dataclass equality covers every field, including the
        # nested latency/socwatch records and int-keyed histograms.
        assert loaded == result

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path / "cache")
        (store.root / f"{cell.key()}.json").write_text("{ truncated")
        assert store.get(cell.key()) is None
        # The next put overwrites the corrupt record cleanly.
        result = run_cell(cell)
        store.put(cell.key(), result, spec=cell)
        assert store.get(cell.key()) == result

    def test_serialization_restores_int_histogram_keys(self):
        result = _synthetic_result(seed=1, power=30.0)
        round_tripped = ExperimentResult.from_dict(result.as_dict())
        assert round_tripped == result
        assert all(isinstance(k, int) for k in round_tripped.active_after_idle_dist)


class TestRunner:
    def test_parallel_matches_serial(self):
        spec = SweepSpec(
            workloads=(
                WorkloadPoint("idle", duration_ns=3 * MS, warmup_ns=1 * MS),
                WorkloadPoint(
                    "memcached", qps=30_000.0, duration_ns=3 * MS, warmup_ns=1 * MS
                ),
            ),
            configs=("CPC1A",),
            seeds=(1, 2),
        )
        serial = SweepSession(workers=1).run(spec)
        with SweepSession(workers=2) as session:
            parallel = session.run(spec)
        assert serial.results == parallel.results

    def test_store_turns_reruns_into_cache_hits(self):
        spec = SweepSpec(
            workloads=(WorkloadPoint("idle", duration_ns=3 * MS, warmup_ns=1 * MS),),
            configs=("Cshallow", "CPC1A"),
        )
        store = MemoryStore()
        session = SweepSession(workers=1)
        first = session.run(spec, store=store)
        assert first.cache_hits == 0
        second = session.run(spec, store=store)
        assert second.cache_hits == len(spec)
        assert second.results == first.results

    def test_duplicate_cells_simulated_once(self):
        cell = tiny_cell()
        store = MemoryStore()
        results = SweepSession(workers=1).run([cell, cell], store=store)
        assert len(results) == 2
        assert results.results[0] == results.results[1]
        assert len(store) == 1
        # Aggregation must not count the shared result twice.
        (agg,) = results.aggregate()
        assert agg.n_seeds == 1
        assert agg.seeds == (cell.seed,)

    def test_select_and_one(self):
        spec = SweepSpec(
            workloads=(
                WorkloadPoint("idle", duration_ns=3 * MS, warmup_ns=1 * MS),
            ),
            configs=("Cshallow", "CPC1A"),
        )
        results = SweepSession(workers=1).run(spec)
        assert len(results.select(config="CPC1A")) == 1
        assert results.one(config="CPC1A").config_name == "CPC1A"
        with pytest.raises(LookupError):
            results.one(workload="memcached", qps=99.0)
        with pytest.raises(LookupError):
            results.one()  # two matches

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            SweepSession(workers=0)


def _synthetic_result(
    seed: int,
    power: float,
    qps: float = 1_000.0,
    config: str = "CPC1A",
) -> ExperimentResult:
    """A hand-built result for aggregation tests (no simulation)."""
    return ExperimentResult(
        config_name=config,
        workload_name="memcached",
        seed=seed,
        duration_ns=10 * MS,
        offered_qps=qps,
        requests_completed=10,
        achieved_qps=qps,
        package_power_w=power,
        dram_power_w=5.0,
        core_residency={"CC0": 0.1, "CC1": 0.9},
        package_residency={"PC1A": 0.5},
        utilization=0.1,
        all_idle_fraction=0.5,
        socwatch=OpportunityEstimate(0.5, 0.4, 10, 2, 1000.0),
        idle_histogram={"<20us": 1.0},
        latency=EMPTY_SUMMARY,
        active_after_idle_dist={1: 0.75, 2: 0.25},
    )


class TestAggregation:
    def test_mean_and_ci_over_seeds(self):
        results = [
            _synthetic_result(seed=s, power=p)
            for s, p in ((1, 29.0), (2, 31.0), (3, 30.0))
        ]
        (agg,) = aggregate_over_seeds(results)
        assert agg.n_seeds == 3
        assert agg.seeds == (1, 2, 3)
        stats = agg["total_power_w"]
        assert stats.mean == pytest.approx(35.0)  # +5 W DRAM
        assert stats.std == pytest.approx(1.0)
        assert stats.ci95 == pytest.approx(1.96 / 3**0.5)

    def test_single_seed_has_zero_spread(self):
        (agg,) = aggregate_over_seeds([_synthetic_result(seed=1, power=30.0)])
        assert agg["total_power_w"].ci95 == 0.0
        assert "±" not in str(agg["total_power_w"])

    def test_groups_split_by_cell_not_seed(self):
        results = [
            _synthetic_result(seed=1, power=30.0, config="CPC1A"),
            _synthetic_result(seed=2, power=31.0, config="CPC1A"),
            _synthetic_result(seed=1, power=50.0, config="Cshallow"),
        ]
        aggregates = aggregate_over_seeds(results)
        assert [a.config for a in aggregates] == ["CPC1A", "Cshallow"]
        assert aggregates[0].n_seeds == 2
        assert aggregates[1].n_seeds == 1

    def test_cells_keep_colliding_presets_apart(self):
        # Two presets of one workload at the same offered rate and
        # duration must never fold into one mean.
        results = [
            _synthetic_result(seed=1, power=30.0),
            _synthetic_result(seed=1, power=40.0),
        ]
        cells = [
            ExperimentSpec(
                workload="mysql",
                qps=1_000.0,
                preset=preset,
                config="CPC1A",
                seed=1,
                duration_ns=10 * MS,
                warmup_ns=1 * MS,
            )
            for preset in ("low", "mid")
        ]
        aggregates = aggregate_over_seeds(results, cells=cells)
        assert [a.preset for a in aggregates] == ["low", "mid"]
        assert [a.n_seeds for a in aggregates] == [1, 1]

    def test_flatten_result_columns(self):
        row = flatten_result(_synthetic_result(seed=3, power=30.0))
        assert row["seed"] == 3
        assert row["total_power_w"] == 35.0
        assert row["pc1a_residency"] == 0.5

    def test_seed_only_differences_collapse_to_one_cell(self):
        results = [
            _synthetic_result(seed=s, power=p)
            for s, p in ((1, 30.0), (2, 32.0), (3, 31.0))
        ]
        cells = [
            ExperimentSpec(
                workload="memcached",
                qps=1_000.0,
                preset="low",
                config="CPC1A",
                seed=s,
                duration_ns=10 * MS,
                warmup_ns=1 * MS,
            )
            for s in (1, 2, 3)
        ]
        (agg,) = aggregate_over_seeds(results, cells=cells)
        assert agg.seeds == (1, 2, 3)
        assert agg.n_seeds == 3

    def test_scenario_differences_do_not_collapse(self):
        # nginx and memcached at the same rate/seed/window are distinct
        # physical experiments; their results carry distinct workload
        # names and must never fold into one mean.
        results = [
            _synthetic_result(seed=1, power=30.0),
            _synthetic_result(seed=1, power=40.0),
        ]
        object.__setattr__(results[1], "workload_name", "nginx")
        cells = [
            ExperimentSpec(
                workload=name,
                qps=1_000.0,
                preset="low",
                config="CPC1A",
                seed=1,
                duration_ns=10 * MS,
                warmup_ns=1 * MS,
            )
            for name in ("memcached", "nginx")
        ]
        aggregates = aggregate_over_seeds(results, cells=cells)
        assert [a.workload for a in aggregates] == ["memcached", "nginx"]
        assert [a.n_seeds for a in aggregates] == [1, 1]

    def test_trace_differences_do_not_collapse(self):
        # Two replay cells over different trace files share the
        # workload label and rate; the trace (spec-side preset) must
        # keep their aggregates apart.
        results = [
            _synthetic_result(seed=1, power=30.0),
            _synthetic_result(seed=1, power=45.0),
        ]
        for result in results:
            object.__setattr__(result, "workload_name", "replay")
        cells = [
            ExperimentSpec(
                workload="replay",
                qps=0.0,
                preset=trace,
                config="CPC1A",
                seed=1,
                duration_ns=10 * MS,
                warmup_ns=1 * MS,
            )
            for trace in ("tests/data/example_trace.csv", "")
        ]
        aggregates = aggregate_over_seeds(results, cells=cells)
        assert len(aggregates) == 2
        assert [a.n_seeds for a in aggregates] == [1, 1]
        assert (
            aggregates[0]["total_power_w"].mean != aggregates[1]["total_power_w"].mean
        )


class TestMetricStats:
    def test_single_value_is_pinned_to_zero_spread(self):
        stats = MetricStats.from_values([42.5])
        assert stats == MetricStats(mean=42.5, std=0.0, ci95=0.0, n=1)
        assert str(stats) == "42.5"

    def test_two_values_ci_math_is_pinned(self):
        stats = MetricStats.from_values([10.0, 14.0])
        assert stats.n == 2
        assert stats.mean == pytest.approx(12.0)
        # ddof=1: var = ((10-12)^2 + (14-12)^2) / 1 = 8.
        assert stats.std == pytest.approx(8.0 ** 0.5)
        assert stats.ci95 == pytest.approx(1.96 * 8.0 ** 0.5 / 2 ** 0.5)
        assert "±" in str(stats)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            MetricStats.from_values([])


class TestProgressThrottle:
    def test_emits_first_stride_and_final_lines_only(self):
        import io

        from repro.cli import ThrottledProgress

        stream = io.StringIO()
        progress = ThrottledProgress(
            total=250, stream=stream, min_interval_s=3600.0, stride=100
        )
        cell = tiny_cell()
        for _ in range(250):
            progress(cell)
        lines = stream.getvalue().splitlines()
        # Time never elapses, so only the first cell, every 100th and
        # the final cell get a line — not one line per cell.
        assert progress.count == 250
        assert len(lines) == 4
        assert lines[0].startswith("[1/250] ")
        assert lines[-1].startswith("[250/250] ")

    def test_unthrottled_interval_emits_every_cell(self):
        import io

        from repro.cli import ThrottledProgress

        stream = io.StringIO()
        progress = ThrottledProgress(
            total=5, stream=stream, min_interval_s=0.0, stride=1
        )
        for _ in range(5):
            progress(tiny_cell())
        assert len(stream.getvalue().splitlines()) == 5

    def test_cli_no_progress_stays_silent(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert cli_main([
            "sweep", "--rates", "0", "--configs", "CPC1A", "--seeds", "1",
            "--duration-ms", "4", "--warmup-ms", "1", "--workers", "1",
            "--no-progress", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err == ""

    def test_cli_progress_reports_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert cli_main([
            "sweep", "--rates", "0,15000", "--configs", "CPC1A",
            "--seeds", "1", "--duration-ms", "4", "--warmup-ms", "1",
            "--workers", "1", "--progress", "--out", str(out),
        ]) == 0
        err = capsys.readouterr().err
        assert "[2/2]" in err


class TestCliSweep:
    def test_sweep_command_parallel_then_cached(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        argv = [
            "sweep", "--rates", "0,20000", "--configs", "CPC1A",
            "--seeds", "1,2", "--duration-ms", "5", "--warmup-ms", "1",
            "--workers", "2", "--store", str(tmp_path / "cache"),
            "--out", str(out),
        ]
        assert cli_main(argv) == 0
        output = capsys.readouterr().out
        assert "swept 4 cells" in output
        assert "0 cache hit(s)" in output
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        assert lines[0].startswith("offered_qps,config,workload,preset,seed,")

        assert cli_main(argv) == 0
        assert "4 cache hit(s)" in capsys.readouterr().out

    def test_sweep_preset_workload_keeps_presets_apart(self, tmp_path, capsys):
        out = tmp_path / "mysql.csv"
        assert cli_main([
            "sweep", "--workload", "mysql", "--presets", "low,mid",
            "--configs", "CPC1A", "--seeds", "1", "--duration-ms", "5",
            "--warmup-ms", "1", "--workers", "1", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        presets = [line.split(",")[3] for line in lines[1:]]
        assert presets == ["low", "mid"]
        # The summary table labels each preset's row distinctly.
        output = capsys.readouterr().out
        assert "mysql:low" in output and "mysql:mid" in output

    def test_export_preset_workload_keeps_one_row_per_rate(self, tmp_path, capsys):
        # mysql ignores the rate, so the rates are one physical cell;
        # export must still emit the historical one-row-per-rate CSV
        # (simulated once) instead of rejecting the grid.
        out = tmp_path / "mysql_export.csv"
        assert cli_main([
            "export", "--workload", "mysql", "--rates", "4000,10000",
            "--configs", "CPC1A", "--duration-ms", "5", "--warmup-ms", "1",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2
        assert lines[1].startswith("4000.0,CPC1A,")
        assert lines[2].startswith("10000.0,CPC1A,")
        # Identical observables: same experiment behind both labels.
        assert lines[1].split(",")[2:] == lines[2].split(",")[2:]

    def test_export_through_runner_keeps_columns(self, tmp_path, capsys):
        out = tmp_path / "export.csv"
        assert cli_main([
            "export", "--rates", "0,20000", "--configs", "CPC1A",
            "--duration-ms", "5", "--warmup-ms", "1", "--workers", "2",
            "--out", str(out),
        ]) == 0
        header = out.read_text().splitlines()[0]
        assert header == (
            "offered_qps,config,utilization,all_idle_fraction,"
            "pc1a_residency,pc6_residency,package_power_w,dram_power_w,"
            "total_power_w,mean_latency_us,p99_latency_us,pc1a_exits,"
            "requests_completed"
        )
