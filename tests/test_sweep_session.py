"""Sweep sessions, streaming and the worker task.

Covers ``SweepSession`` (persistent pool, a fresh runtime per cell,
batched dispatch, ordered streaming, worker-side store short-circuit),
worker exception labelling, and the hardened atomic store writes.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.api import run_cell
from repro.sweep import (
    ExperimentSpec,
    MemoryStore,
    ResultStore,
    StreamingCsvWriter,
    SweepCellError,
    SweepSession,
    SweepSpec,
    WorkloadPoint,
)
from repro.sweep.session import _cell_task
from repro.sweep.supervisor import CellPolicy
from repro.units import MS


def short_grid(rates=(0, 20_000), configs=("Cshallow", "CPC1A"), seeds=(1, 2)):
    points = tuple(
        WorkloadPoint("idle") if qps == 0
        else WorkloadPoint("memcached", qps=float(qps))
        for qps in rates
    )
    return SweepSpec(
        points, configs=configs, seeds=seeds,
        duration_ns=3 * MS, warmup_ns=1 * MS,
    )


class TestSweepSession:
    def test_parallel_serial_and_runner_agree(self):
        spec = short_grid()
        with SweepSession(workers=1) as serial, SweepSession(workers=2) as parallel:
            serial_results = serial.run(spec)
            parallel_results = parallel.run(spec)
        fresh_results = [run_cell(cell) for cell in spec.cells()]
        assert serial_results.results == parallel_results.results
        assert serial_results.results == fresh_results

    def test_session_reuse_across_runs(self):
        spec = short_grid()
        with SweepSession(workers=2) as session:
            first = session.run(spec)
            second = session.run(spec)
        assert first.results == second.results
        assert session.last_run_stats["cells"] == len(spec)

    def test_disk_store_second_run_is_all_hits(self, tmp_path):
        spec = short_grid()
        store = ResultStore(tmp_path / "cache")
        with SweepSession(workers=2) as session:
            first = session.run(spec, store=store)
            assert first.cache_hits == 0
            second = session.run(spec, store=store)
        assert second.cache_hits == len(spec)
        assert second.results == first.results

    def test_on_result_streams_in_cell_order(self, tmp_path):
        spec = short_grid()
        seen = []
        out = tmp_path / "stream.csv"
        with SweepSession(workers=2) as session, StreamingCsvWriter(out) as writer:
            results = session.run(
                spec,
                on_result=lambda cell, result, cached: (
                    seen.append((cell.key(), cached)),
                    writer.write(result, spec=cell),
                ),
            )
        assert [key for key, _cached in seen] == [c.key() for c in results.cells]
        assert not any(cached for _key, cached in seen)
        buffered = tmp_path / "buffered.csv"
        results.write_csv(buffered)
        assert out.read_bytes() == buffered.read_bytes()

    def test_on_result_marks_cache_hits(self):
        spec = short_grid()
        store = MemoryStore()
        with SweepSession(workers=1) as session:
            session.run(spec, store=store)
            flags = []
            session.run(
                spec, store=store,
                on_result=lambda cell, result, cached: flags.append(cached),
            )
        assert flags == [True] * len(spec)

    def test_closed_session_rejects_runs(self):
        for workers in (1, 2):  # serial and parallel paths alike
            session = SweepSession(workers=workers)
            session.close()
            with pytest.raises(RuntimeError, match="closed"):
                session.run(short_grid())

    def test_fully_cached_run_forks_no_pool(self, tmp_path):
        spec = short_grid()
        store = ResultStore(tmp_path / "cache")
        with SweepSession(workers=2) as warm:
            warm.run(spec, store=store)
        with SweepSession(workers=2) as session:
            results = session.run(spec, store=store)
            assert results.cache_hits == len(spec)
            # Nothing was pending, so the session never paid a fork.
            assert session._supervisor is None

    def test_pool_sized_to_pending_cells(self, tmp_path):
        spec = short_grid(rates=(0,), configs=("CPC1A",), seeds=(1,))
        with SweepSession(workers=4) as session:
            session.run(spec)
            assert session._supervisor is None  # one cell runs in-process

    def test_failed_streaming_write_preserves_previous_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        out.write_text("precious,complete,rows\n")
        with pytest.raises(RuntimeError, match="mid-sweep"):
            with StreamingCsvWriter(out) as writer:
                raise RuntimeError("mid-sweep failure")
        assert out.read_text() == "precious,complete,rows\n"
        assert list(tmp_path.glob("*.tmp")) == []
        assert writer.rows == 0

    def test_progress_counts_cache_hits_toward_total(self):
        spec = short_grid()
        store = MemoryStore()
        with SweepSession(workers=1) as session:
            session.run(spec, store=store)
            fired = []
            session.run(spec, store=store, progress=fired.append)
        # Every grid cell reports progress even though nothing was
        # simulated, so a "[n/total]" display reaches its total.
        assert len(fired) == len(spec)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            SweepSession(workers=0)

    def test_no_runtime_outlives_its_cell(self, monkeypatch):
        """Every cell builds its own runtime, and the session keeps
        none of them once the cell's result is collected."""
        built = []
        real_build = ExperimentSpec.build

        def build(cell):
            runtime = real_build(cell)
            built.append(weakref.ref(runtime))
            return runtime

        monkeypatch.setattr(ExperimentSpec, "build", build)
        spec = short_grid(rates=(0,), configs=("CPC1A",), seeds=(1, 2))
        with SweepSession(workers=1) as session:
            results = session.run(spec)
            gc.collect()
            assert len(results) == len(built) == len(spec)
            assert [ref() for ref in built] == [None] * len(built)


class TestKeyCaching:
    def test_rate_cell_key_is_cached_and_stable(self):
        cell = ExperimentSpec(
            workload="memcached", qps=100.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        assert cell.key() == cell.key()
        assert getattr(cell, "_key", None) == cell.key()

    def test_distinct_trace_contents_get_distinct_keys(self, tmp_path):
        """Trace keys hash file *contents*; two different recordings
        never share a cache entry (the key cache is per cell object,
        consistent with the registry's per-process digest cache)."""
        def cell_for(text: str, name: str) -> ExperimentSpec:
            trace = tmp_path / name
            trace.write_text(text)
            return ExperimentSpec(
                workload="replay", qps=0.0, preset=str(trace),
                config="CPC1A", seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
            )

        short = cell_for("arrival_us,service_us\n10,5\n20,5\n", "a.csv")
        longer = cell_for("arrival_us,service_us\n10,5\n20,5\n30,7\n", "b.csv")
        assert short.key() != longer.key()


class TestWorkerStore:
    def test_existing_record_is_rewritten_identically(self, tmp_path):
        cell = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        store = ResultStore(tmp_path / "cache")
        key, result, _build_s, _sim_s = _cell_task((cell, str(store.root)))
        record = (store.root / f"{key}.json").read_bytes()
        # The worker does not look the cell up: a second run (say, a
        # concurrent sweep sharing the store) re-simulates and replaces
        # the record with the same bytes.
        key2, result2, *_ = _cell_task((cell, str(store.root)))
        assert (key2, result2) == (key, result)
        assert (store.root / f"{key}.json").read_bytes() == record
        assert len(store) == 1

    def test_worker_persists_spec_with_record(self, tmp_path):
        cell = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        store = ResultStore(tmp_path / "cache")
        _cell_task((cell, str(store.root)))
        record = json.loads((store.root / f"{cell.key()}.json").read_text())
        assert record["spec"]["config"] == "CPC1A"


class TestWorkerExceptions:
    def test_failure_names_the_cell(self, monkeypatch):
        import repro.api as api_module

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(api_module, "run_cell", boom)
        spec = short_grid(rates=(0,), configs=("CPC1A",), seeds=(5,))
        policy = CellPolicy(max_retries=0)
        with SweepSession(workers=1, policy=policy) as session:
            results = session.run(spec)
        (failed,) = results.quarantined
        assert "CPC1A/idle/seed5" in failed.label
        assert "CPC1A/idle/seed5" in failed.failures[0].detail

    def test_wrapped_error_keeps_original_message(self, monkeypatch):
        import repro.api as api_module

        def boom(*args, **kwargs):
            raise ValueError("the original reason")

        monkeypatch.setattr(api_module, "run_cell", boom)
        policy = CellPolicy(max_retries=0)
        with SweepSession(workers=1, policy=policy) as session:
            results = session.run(
                short_grid(rates=(0,), configs=("CPC1A",), seeds=(1,))
            )
        (failed,) = results.quarantined
        assert SweepCellError.__name__ in failed.failures[0].detail
        assert "the original reason" in failed.failures[0].detail

    def test_default_policy_quarantines_and_completes(self, monkeypatch):
        """A deterministically failing cell is quarantined (with its
        label and attempt history) while the rest of the grid
        completes — the sweep degrades instead of aborting."""
        import repro.api as api_module

        real_run_cell = api_module.run_cell

        def boom_on_seed5(spec, **kwargs):
            if spec.seed == 5:
                raise RuntimeError("injected failure")
            return real_run_cell(spec, **kwargs)

        monkeypatch.setattr(api_module, "run_cell", boom_on_seed5)
        spec = short_grid(rates=(0,), configs=("CPC1A",), seeds=(1, 5))
        policy = CellPolicy(max_retries=1, retry_backoff_s=0.0)
        with SweepSession(workers=1, policy=policy) as session:
            results = session.run(spec)
        assert len(results) == 1
        assert len(results.quarantined) == 1
        bad = results.quarantined[0]
        assert "seed5" in bad.label
        assert len(bad.failures) == 2  # first attempt + one retry
        assert all("injected failure" in f.detail for f in bad.failures)
        stats = session.last_run_stats
        assert stats["quarantined"] == 1
        assert stats["retries"] == 1


class TestAtomicStore:
    def test_no_temp_residue_after_put(self, tmp_path):
        cell = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        store = ResultStore(tmp_path / "cache")
        _key, result, *_ = _cell_task((cell, str(store.root)))
        store.put(cell.key(), result, spec=cell)
        assert list(store.root.glob("*.tmp")) == []
        assert len(store) == 1

    def test_failed_write_leaves_no_partial_record(self, tmp_path, monkeypatch):
        import repro.sweep.store as store_module

        cell = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        store = ResultStore(tmp_path / "cache")
        _key, result, *_ = _cell_task((cell, None))

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.json, "dumps", explode)
        with pytest.raises(OSError):
            store.put(cell.key(), result, spec=cell)
        # Neither a truncated record nor a stray temp file remains,
        # and the key stays a clean miss.
        assert list(store.root.iterdir()) == []
        assert cell.key() not in store
