"""The fault-tolerant execution plane: supervisor, chaos, store.

Covers :class:`SweepSupervisor` (worker death detection + respawn,
per-cell deadlines, bounded retries with quarantine), the
deterministic chaos harness (``REPRO_CHAOS``), checksum-verified
:class:`ResultStore` reads, and the CLI-level SIGKILL/SIGINT recovery
paths: a rerun with the same ``--store`` finishes an interrupted
sweep.

The headline invariant pinned here: a chaos-ridden sweep finishes
with byte-identical results to a fault-free one.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import run_cell
from repro.sweep import (
    ExperimentSpec,
    ResultStore,
    SweepSession,
    SweepSpec,
    WorkloadPoint,
)
from repro.sweep import chaos, supervisor
from repro.sweep.store import _checksum
from repro.sweep.supervisor import (
    KIND_DEADLINE,
    KIND_DEATH,
    KIND_ERROR,
    CellPolicy,
    SweepSupervisor,
)
from repro.units import MS

FAST = CellPolicy(retry_backoff_s=0.0)


@pytest.fixture(autouse=True)
def fast_respawn(monkeypatch):
    """Replace dead workers after 10 ms instead of 100 ms."""
    monkeypatch.setattr(supervisor, "_RESPAWN_BACKOFF_S", 0.01)


def _echo(payload, attempt):
    return ("ok", payload, attempt)


def _fail_below_attempt(payload, attempt):
    # payload = (value, first_good_attempt)
    value, first_good = payload
    if attempt < first_good:
        raise RuntimeError(f"transient failure on attempt {attempt}")
    return value


def _exit_below_attempt(payload, attempt):
    # Simulates SIGKILL/OOM: no cleanup, no message, instant death.
    value, first_good = payload
    if attempt < first_good:
        os._exit(137)
    return value


def _stall_below_attempt(payload, attempt):
    value, first_good = payload
    if attempt < first_good:
        time.sleep(30)
    return value


def _report_then_die(payload, attempt):
    # payload = (value, run log, lethal). A lethal cell returns its
    # value and kills its worker ~50 ms later; the others outlast that.
    value, log, lethal = payload
    with open(log, "a") as sink:
        sink.write(f"{value}\n")
    if lethal:
        threading.Timer(0.05, os._exit, (137,)).start()
    else:
        time.sleep(0.3)
    return value


def _unpicklable(payload, attempt):
    return threading.Lock()


def _sleep_echo(payload, attempt):
    value, delay_s = payload
    time.sleep(delay_s)
    return value


def drain(supervisor, items):
    done, quarantined = {}, []
    for tag, body in supervisor.run(items):
        if tag == "done":
            done[body[1] if isinstance(body, tuple) else body] = body
        else:
            quarantined.append(body)
    return done, quarantined


class TestSupervisor:
    def test_completes_every_item(self):
        sup = SweepSupervisor(2, _echo, FAST)
        try:
            items = [(f"k{i}", f"cell{i}", i) for i in range(8)]
            events = list(sup.run(items))
        finally:
            sup.close()
        assert all(tag == "done" for tag, _ in events)
        assert sorted(body[1] for _, body in events) == list(range(8))
        assert sup.stats["worker_deaths"] == 0
        assert sup.stats["quarantined"] == 0

    def test_transient_errors_retry_to_success(self):
        sup = SweepSupervisor(2, _fail_below_attempt, FAST)
        try:
            items = [
                ("a", "cell-a", ("A", 3)),  # fails attempts 1-2
                ("b", "cell-b", ("B", 1)),
                ("c", "cell-c", ("C", 2)),  # fails attempt 1
            ]
            events = list(sup.run(items))
        finally:
            sup.close()
        assert sorted(body for tag, body in events if tag == "done") == [
            "A", "B", "C",
        ]
        assert sup.stats["retries"] == 3
        assert sup.stats["quarantined"] == 0

    def test_exhausted_cell_is_quarantined_with_history(self):
        policy = CellPolicy(max_retries=1, retry_backoff_s=0.0)
        sup = SweepSupervisor(2, _fail_below_attempt, policy)
        try:
            items = [
                ("bad", "always-bad", ("X", 99)),
                ("good", "fine", ("Y", 1)),
            ]
            events = list(sup.run(items))
        finally:
            sup.close()
        by_tag = {}
        for tag, body in events:
            by_tag.setdefault(tag, []).append(body)
        assert by_tag["done"] == ["Y"]
        (cell,) = by_tag["quarantined"]
        assert cell.key == "bad" and cell.label == "always-bad"
        assert [f.attempt for f in cell.failures] == [1, 2]
        assert all(f.kind == KIND_ERROR for f in cell.failures)
        assert "transient failure" in cell.failures[0].detail
        assert sup.stats["quarantined"] == 1
        report = cell.as_dict()
        assert report["attempts"] == 2
        assert report["failures"][1]["kind"] == KIND_ERROR

    def test_worker_death_requeues_and_respawns(self):
        sup = SweepSupervisor(2, _exit_below_attempt, FAST)
        try:
            items = [
                (f"k{i}", f"cell{i}", (i, 2 if i % 3 == 0 else 1))
                for i in range(9)
            ]
            events = list(sup.run(items))
        finally:
            sup.close()
        assert sorted(body for _, body in events) == list(range(9))
        assert sup.stats["worker_deaths"] == 3
        assert sup.stats["requeues"] == 3
        assert sup.stats["respawns"] >= 1
        assert sup.stats["quarantined"] == 0

    def test_external_sigkill_mid_cell_recovers(self):
        sup = SweepSupervisor(2, _stall_below_attempt, FAST)
        killed = []

        def killer():
            deadline = time.monotonic() + 30
            while not killed and time.monotonic() < deadline:
                for pid in sup.inflight_pids():
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                    return
                time.sleep(0.01)

        thread = threading.Thread(target=killer)
        thread.start()
        try:
            # The stalling cell wedges its worker until the killer
            # lands; attempt 2 returns instantly on the replacement.
            items = [("k0", "stuck-once", ("V", 2))]
            events = list(sup.run(items))
        finally:
            thread.join()
            sup.close()
        assert killed, "killer thread never found an in-flight worker"
        assert events == [("done", "V")]
        assert sup.stats["worker_deaths"] == 1
        assert sup.stats["requeues"] == 1

    def test_deadline_kills_stuck_cell_and_retries(self):
        policy = CellPolicy(retry_backoff_s=0.0, deadline_s=0.25)
        sup = SweepSupervisor(2, _stall_below_attempt, policy)
        try:
            items = [("k0", "stuck-once", ("V", 2)), ("k1", "fine", ("W", 1))]
            events = list(sup.run(items))
        finally:
            sup.close()
        assert sorted(body for _, body in events) == ["V", "W"]
        assert sup.stats["deadline_kills"] == 1
        assert sup.stats["requeues"] == 1

    def test_deadline_exhaustion_quarantines_with_kind(self):
        policy = CellPolicy(max_retries=0, retry_backoff_s=0.0, deadline_s=0.2)
        sup = SweepSupervisor(1, _stall_below_attempt, policy)
        try:
            events = list(sup.run([("k0", "forever-stuck", ("V", 99))]))
        finally:
            sup.close()
        ((tag, cell),) = events
        assert tag == "quarantined"
        assert cell.failures[-1].kind in (KIND_DEADLINE, KIND_DEATH)
        assert sup.stats["deadline_kills"] == 1

    def test_duplicate_keys_rejected(self):
        sup = SweepSupervisor(1, _echo, FAST)
        try:
            with pytest.raises(ValueError, match="unique"):
                list(sup.run([("k", "a", 1), ("k", "b", 2)]))
        finally:
            sup.close()

    def test_death_after_report_charges_only_the_cell_in_flight(self, tmp_path):
        log = tmp_path / "runs.log"
        sup = SweepSupervisor(1, _report_then_die, FAST)
        try:
            items = [
                ("a", "reports-then-dies", ("A", str(log), True)),
                ("b", "outlives-the-timer", ("B", str(log), False)),
            ]
            events = list(sup.run(items))
        finally:
            sup.close()
        assert events == [("done", "A"), ("done", "B")]
        runs = log.read_text().split()
        # A was reported before its worker died: it ran once and was
        # never charged. Only B can have been in flight at the death.
        assert runs.count("A") == 1
        assert runs.count("B") in (1, 2)
        assert sup.stats["worker_deaths"] == 1
        assert sup.stats["requeues"] == runs.count("B") - 1
        assert sup.stats["quarantined"] == 0

    def test_unpicklable_result_is_a_cell_error(self):
        policy = CellPolicy(max_retries=2, retry_backoff_s=0.0)
        sup = SweepSupervisor(1, _unpicklable, policy)
        try:
            events = list(sup.run([("k0", "unpicklable", None)]))
        finally:
            sup.close()
        ((tag, cell),) = events
        assert tag == "quarantined"
        assert [f.attempt for f in cell.failures] == [1, 2, 3]
        assert all(f.kind == KIND_ERROR for f in cell.failures)
        assert "pickle" in cell.failures[0].detail
        # The worker reported the failure instead of dying of it.
        assert len({f.worker_pid for f in cell.failures}) == 1
        assert sup.stats["worker_deaths"] == 0
        assert sup.stats["retries"] == 2

    def test_run_after_an_abandoned_run_sees_only_its_own_cells(self):
        sup = SweepSupervisor(2, _sleep_echo, FAST)
        try:
            # The consumer takes one event and walks away (an on_result
            # exception, a caught Ctrl-C): a worker is still on a cell.
            abandoned = sup.run(
                [(f"k{i}", f"k{i}", (f"old-{i}", 0.2)) for i in range(4)]
            )
            assert next(abandoned)[0] == "done"
            busy = set(sup.inflight_pids())
            abandoned.close()
            assert busy
            # Same keys, new values: a late report from the abandoned
            # run would be taken for one of these cells.
            items = [(f"k{i}", f"k{i}", (f"new-{i}", 0.05)) for i in range(4)]
            events = list(sup.run(items))
            assert sorted(events) == [("done", f"new-{i}") for i in range(4)]
            assert len(sup.worker_pids()) == 2
            assert busy.isdisjoint(sup.worker_pids())
            assert sup.stats["worker_deaths"] == 0
        finally:
            sup.close()

    def test_workers_persist_across_runs(self):
        sup = SweepSupervisor(2, _echo, FAST)
        try:
            list(sup.run([(f"k{i}", "c", i) for i in range(4)]))
            before = sorted(sup.worker_pids())
            list(sup.run([(f"j{i}", "c", i) for i in range(4)]))
            after = sorted(sup.worker_pids())
        finally:
            sup.close()
        assert before == after


class TestChaosConfig:
    def test_parse_full_spec(self):
        cfg = chaos.parse_chaos(
            "seed=7,kill=0.05,fault=0.1,stall=0.02,stall_s=1.5,torn=0.2"
        )
        assert cfg == chaos.ChaosConfig(
            seed=7, kill=0.05, fault=0.1, stall=0.02, torn=0.2, stall_s=1.5
        )
        assert cfg.active

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="knobs are"):
            chaos.parse_chaos("kill=0.1,frobnicate=1")
        with pytest.raises(ValueError, match="value for kill"):
            chaos.parse_chaos("kill=lots")
        with pytest.raises(ValueError, match="probability"):
            chaos.parse_chaos("fault=1.5")

    def test_empty_spec_is_inactive(self):
        assert not chaos.parse_chaos("").active
        assert not chaos.ChaosConfig(seed=3).active

    def test_config_tracks_env(self, monkeypatch):
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        assert not chaos.config().active
        monkeypatch.setenv(chaos.ENV_VAR, "seed=1,fault=0.5")
        assert chaos.config().fault == 0.5
        monkeypatch.setenv(chaos.ENV_VAR, "seed=1,fault=0.25")
        assert chaos.config().fault == 0.25

    def test_rolls_are_deterministic_and_distinct(self):
        cfg = chaos.ChaosConfig(seed=7)
        roll = chaos._roll(cfg, "kill", "cellkey", 1)
        assert roll == chaos._roll(cfg, "kill", "cellkey", 1)
        assert 0.0 <= roll < 1.0
        others = {
            chaos._roll(cfg, "kill", "cellkey", 2),
            chaos._roll(cfg, "fault", "cellkey", 1),
            chaos._roll(chaos.ChaosConfig(seed=8), "kill", "cellkey", 1),
        }
        assert roll not in others

    def test_kill_never_fires_in_parent(self, monkeypatch):
        # kill=1 would os._exit a worker; in the parent the fault
        # knob is the worst that can happen.
        monkeypatch.setenv(chaos.ENV_VAR, "seed=1,kill=1,fault=1")
        with pytest.raises(chaos.ChaosError):
            chaos.on_cell_start("somekey", 1)

    def test_torn_write_inactive_without_env(self, monkeypatch):
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        assert not chaos.torn_write("anykey")


def small_spec(seed=1):
    return ExperimentSpec(
        workload="memcached", qps=4_000.0, preset="low", config="CPC1A",
        seed=seed, duration_ns=3 * MS, warmup_ns=1 * MS,
    )


class TestStoreRobustness:
    def put_one(self, tmp_path, seed=1):
        store = ResultStore(tmp_path / "cache")
        spec = small_spec(seed)
        result = run_cell(spec)
        store.put(spec.key(), result, spec=spec)
        return store, spec, result

    def record_path(self, store, spec):
        (path,) = [
            p for p in Path(store.root).iterdir()
            if p.is_file() and spec.key() in p.name
        ]
        return path

    def test_truncated_record_quarantined_as_miss(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        assert store.get(spec.key()) is None
        assert store.quarantined == 1
        assert not path.exists()
        quarantined = list((Path(store.root) / "quarantine").iterdir())
        assert len(quarantined) == 1

    def test_garbage_and_wrong_schema_quarantined(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        path.write_text("not json at all")
        assert store.get(spec.key()) is None
        path.write_text(json.dumps({"something": "else"}))
        assert store.get(spec.key()) is None
        assert store.quarantined == 2

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        record = json.loads(path.read_text())
        assert "sha256" in record
        record["result"]["energy_j"] = 1e9  # silent bit-rot
        path.write_text(json.dumps(record))
        assert store.get(spec.key()) is None
        assert store.quarantined == 1

    @pytest.mark.parametrize("field", ["sha256", "kind"])
    def test_record_without_checksum_or_kind_quarantined(self, tmp_path, field):
        store, spec, _result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        record = json.loads(path.read_text())
        del record[field]
        path.write_text(json.dumps(record))
        assert store.get(spec.key()) is None
        assert store.quarantined == 1
        assert not path.exists()

    def test_verify_reports_and_quarantines(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path, seed=1)
        store2, spec2, _result2 = store, small_spec(2), None
        store.put(spec2.key(), run_cell(spec2), spec=spec2)
        path = self.record_path(store, spec)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        report = store.verify(quarantine=False)
        assert report["checked"] == 2 and report["ok"] == 1
        assert len(report["corrupt"]) == 1
        assert path.exists()  # quarantine=False leaves it in place
        report = store.verify()
        assert len(report["corrupt"]) == 1
        assert not path.exists()

    def test_gc_sweeps_quarantine_and_tmp(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        path.write_text("garbage")
        assert store.get(spec.key()) is None
        (Path(store.root) / "leftover.1234.tmp").write_text("")
        report = store.gc()
        assert report["quarantine_removed"] == 1
        assert report["tmp_removed"] == 1
        assert store.get(spec.key()) is None  # still a miss, no crash

    def test_chaos_torn_write_is_self_healing(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        spec = small_spec()
        result = run_cell(spec)
        monkeypatch.setenv(chaos.ENV_VAR, "seed=1,torn=1")
        store.put(spec.key(), result, spec=spec)
        assert store.get(spec.key()) is None  # torn record quarantined
        monkeypatch.delenv(chaos.ENV_VAR)
        store.put(spec.key(), result, spec=spec)
        loaded = store.get(spec.key())
        assert loaded.as_dict() == result.as_dict()

    def test_checksum_is_canonical(self):
        assert _checksum({"a": 1, "b": 2}) == _checksum({"b": 2, "a": 1})
        assert _checksum({"a": 1}) != _checksum({"a": 2})


def chaos_grid():
    points = (
        WorkloadPoint("idle"),
        WorkloadPoint("memcached", qps=8_000.0),
    )
    return SweepSpec(
        points, configs=("Cshallow", "CPC1A"), seeds=(1,),
        duration_ns=3 * MS, warmup_ns=1 * MS,
    )


class TestChaosSweepIdentity:
    """The headline invariant: chaos bytes == fault-free bytes."""

    def test_chaotic_parallel_run_matches_clean_serial(self, monkeypatch):
        spec = chaos_grid()
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        with SweepSession(workers=1) as session:
            clean = session.run(spec)
        # High fault rates + a deep retry budget: every cell fails a
        # few times somewhere yet nothing exhausts.
        monkeypatch.setenv(chaos.ENV_VAR, "seed=3,kill=0.4,fault=0.4")
        policy = CellPolicy(max_retries=12, retry_backoff_s=0.0)
        with SweepSession(workers=2, policy=policy) as session:
            chaotic = session.run(spec)
            stats = session.last_run_stats
        assert chaotic.quarantined == []
        assert [r.as_dict() for r in chaotic.results] == [
            r.as_dict() for r in clean.results
        ]
        faults = stats["worker_deaths"] + stats["retries"] + stats["requeues"]
        assert faults > 0, f"chaos injected nothing: {stats}"


REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, env=None, **kwargs):
    full_env = dict(os.environ, PYTHONPATH=REPO_SRC)
    full_env.pop("REPRO_CHAOS", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=full_env, timeout=300, **kwargs,
    )


def spawn_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop("REPRO_CHAOS", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


GRID = [
    "sweep", "--rates", "0,8000", "--configs", "Cshallow,CPC1A",
    "--seeds", "1,2", "--duration-ms", "3", "--workers", "2",
    "--no-progress", "--retry-backoff", "0.01",
]

# Cells slow enough (~0.3 s wall each) that a signal sent after the
# first stored cell reliably lands while most of the grid is still
# in flight — the fast GRID above can finish inside the signal's
# delivery latency.
SLOW_GRID = [
    "sweep", "--rates", "50000", "--configs", "Cshallow,CPC1A",
    "--seeds", "1,2,3", "--duration-ms", "50", "--workers", "2",
    "--no-progress", "--retry-backoff", "0.01",
]


def stored_records(store: Path) -> int:
    """Finished cells in a result store (temp files end in ``.tmp``)."""
    return len(list(store.glob("*.json")))


def wait_for_records(store: Path, records: int, timeout_s: float = 120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if stored_records(store) >= records:
            return
        time.sleep(0.05)
    raise AssertionError(f"store never reached {records} records")


def _proc_stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def child_pids(pid: int) -> list[int]:
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None and int(fields[1]) == pid:
                children.append(int(entry))
    return children


def running(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"  # a zombie has exited


@pytest.mark.slow
class TestCliRecovery:
    def test_parent_sigkill_then_resume_is_byte_identical(self, tmp_path):
        clean = run_cli(GRID + ["--out", "clean.csv"], cwd=tmp_path)
        assert clean.returncode == 0, clean.stderr
        store = tmp_path / "store"
        proc = spawn_cli(
            GRID + ["--out", "out.csv", "--store", "store"], cwd=tmp_path
        )
        try:
            # 2 stored cells ~= a quarter of the 8-cell grid.
            wait_for_records(store, 2)
            workers = child_pids(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stderr.close()
        # The orphaned sweep workers notice the dead parent and exit.
        assert workers
        deadline = time.monotonic() + 10.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in workers if running(pid)]
        records_at_kill = stored_records(store)
        # The same command again, with no extra flag, finishes the grid.
        rerun = run_cli(
            GRID + [
                "--out", "out.csv", "--store", "store",
                "--stats-json", "stats.json",
            ],
            cwd=tmp_path,
        )
        assert rerun.returncode == 0, rerun.stderr
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["cache_hits"] >= records_at_kill >= 2
        assert stats["simulated"] <= stats["cells"] - records_at_kill
        assert stats["quarantined"] == 0
        assert (tmp_path / "out.csv").read_bytes() == (
            tmp_path / "clean.csv"
        ).read_bytes()

    def test_sigint_flushes_and_reports(self, tmp_path):
        proc = spawn_cli(
            SLOW_GRID + ["--out", "out.csv", "--store", "store"], cwd=tmp_path
        )
        try:
            wait_for_records(tmp_path / "store", 1)
            proc.send_signal(signal.SIGINT)
            _stdout, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        assert proc.returncode == 130, stderr
        assert "interrupted:" in stderr
        assert "rerun with the same --store" in stderr
        # The partial CSV is durable and well-formed (header + rows).
        out = (tmp_path / "out.csv").read_text().splitlines()
        assert len(out) >= 1
        rerun = run_cli(
            SLOW_GRID + ["--out", "out.csv", "--store", "store"],
            cwd=tmp_path,
        )
        assert rerun.returncode == 0, rerun.stderr
        clean = run_cli(SLOW_GRID + ["--out", "clean.csv"], cwd=tmp_path)
        assert clean.returncode == 0
        assert (tmp_path / "out.csv").read_bytes() == (
            tmp_path / "clean.csv"
        ).read_bytes()
