"""The runtime determinism sanitizer.

Counterpart to ``tests/test_lint.py``: the static rules catch hazards
at the source, the sanitizer catches them in flight. The seeded-fault
test here is the PR's runtime acceptance check — a set-iteration
scheduling pattern that runs green under ordinary assertions is
flagged as same-timestamp handler-order ambiguity by the sanitizer.
"""

from __future__ import annotations

import pytest

from repro.server.configs import cpc1a
from repro.server.machine import ServerMachine
from repro.sim.engine import Simulator
from repro.sim.sanitize import (
    AmbiguousTimestamp,
    EventStreamSanitizer,
    SanitizerReport,
    callback_label,
)
from repro.units import MS
from repro.workloads.factory import build_workload


def handler_a():
    pass


def handler_b():
    pass


def handler_c(_tag):
    pass


class TestModeSelection:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim = Simulator(0)
        assert sim.sanitize is False
        assert sim.sanitize_report() is None

    def test_kwarg_enables(self):
        sim = Simulator(0, sanitize=True)
        assert sim.sanitize is True
        assert isinstance(sim.sanitize_report(), SanitizerReport)

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator(0).sanitize is True

    def test_env_var_zero_and_empty_disable(self, monkeypatch):
        for value in ("0", ""):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert Simulator(0).sanitize is False

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator(0, sanitize=False).sanitize is False

    def test_machine_sanitize_kwarg(self):
        machine = ServerMachine(cpc1a(), 1, sanitize=True)
        assert machine.sim.sanitize is True

    def test_machine_rejects_sanitize_with_external_sim(self):
        sim = Simulator(1)
        with pytest.raises(ValueError, match="externally-owned"):
            ServerMachine(cpc1a(), sim=sim, sanitize=True)


def _chain(sim, depth):
    if depth:
        sim.schedule(7, _chain, sim, depth - 1)


def _stream_report(seed, *, extra=False):
    sim = Simulator(seed, sanitize=True)
    sim.schedule(1, _chain, sim, 20)
    if extra:
        sim.schedule(3, handler_a)
    sim.run()
    return sim.sanitize_report()


class TestDigest:
    def test_identical_runs_identical_digest(self):
        first = _stream_report(3)
        second = _stream_report(3)
        assert first.events == second.events == 21
        assert first.digest == second.digest
        assert len(first.digest) == 64

    def test_extra_event_changes_digest(self):
        assert _stream_report(3).digest != _stream_report(3, extra=True).digest

    def test_fresh_machines_replay_one_event_stream(self):
        # Every sweep cell builds its machine fresh, so two builds of
        # one cell must dispatch the same events in the same order.
        digests = []
        for _ in range(2):
            machine = ServerMachine(cpc1a(), 7, sanitize=True)
            build_workload("memcached", qps=2000.0).start(machine.sim, machine)
            machine.run_for(5 * MS)
            digests.append(machine.sim.sanitize_report())
        assert digests[0].events > 0
        assert digests[0] == digests[1]

    def test_report_is_non_destructive(self):
        sim = Simulator(0, sanitize=True)
        sim.schedule(5, handler_a)
        sim.run()
        assert sim.sanitize_report() == sim.sanitize_report()


class TestAmbiguity:
    def test_single_site_burst_not_flagged(self):
        # One call site arming a burst at one moment: the order is
        # written in the code, not in scheduling history.
        sim = Simulator(0, sanitize=True)

        def arm():
            for tag in range(5):
                sim.schedule_at(100, handler_c, tag)

        sim.schedule(10, arm)
        sim.run()
        report = sim.sanitize_report()
        assert report.ambiguous_timestamps == 0
        assert report.max_same_time_events == 5

    def test_history_ordered_handlers_flagged(self):
        # Two distinct callbacks armed at two distinct sim moments,
        # rendezvousing at one timestamp: their relative order is an
        # artifact of everything that ran before.
        sim = Simulator(0, sanitize=True)
        sim.schedule(10, sim.schedule_at, 100, handler_a)
        sim.schedule(20, sim.schedule_at, 100, handler_b)
        sim.run()
        report = sim.sanitize_report()
        assert report.ambiguous_timestamps == 1
        detail = report.ambiguities[0]
        assert detail.time_ns == 100
        assert detail.events == 2
        assert callback_label(handler_a) in detail.callbacks
        assert callback_label(handler_b) in detail.callbacks
        assert "scheduling history" in detail.describe()

    def test_detail_cap_truncates_details_not_count(self):
        sanitizer = EventStreamSanitizer()
        for group in range(30):
            base = group * 100
            sanitizer.note_scheduled(2 * group, base - 60, handler_a)
            sanitizer.note_scheduled(2 * group + 1, base - 50, handler_b)
            sanitizer.observe(base, 2 * group, handler_a)
            sanitizer.observe(base, 2 * group + 1, handler_b)
        report = sanitizer.report()
        assert report.ambiguous_timestamps == 30
        assert len(report.ambiguities) == 25
        assert report.truncated is True


class TestSeededFaultSetOrderedScheduling:
    """Acceptance: a set-iteration scheduling fault runs green, sanitizer flags it."""

    def _run(self):
        sim = Simulator(0, sanitize=True)
        fired = []

        def flush():
            fired.append("flush")

        def refresh():
            fired.append("refresh")

        registry = {"flush": flush, "refresh": refresh}

        # The fault: maintenance handlers pulled through a set, each
        # armed from its own setup event, all rendezvousing at t=1000.
        # Which fires first at t=1000 is decided by arming order — i.e.
        # by set iteration order. In sim code RPR003 flags this
        # statically; here the runtime sanitizer is the net.
        delay = 10
        for name in set(registry):
            sim.schedule(delay, sim.schedule_at, 1_000, registry[name])
            delay += 10
        sim.run()
        return sim, fired

    def test_runs_green_under_ordinary_assertions(self):
        # The tier-1-style checks a test author would write all pass:
        # both handlers fired, exactly once, at the right time.
        sim, fired = self._run()
        assert sorted(fired) == ["flush", "refresh"]
        assert sim.now == 1_000

    def test_sanitizer_flags_the_ambiguous_rendezvous(self):
        sim, _ = self._run()
        report = sim.sanitize_report()
        assert report.ambiguous_timestamps == 1
        detail = report.ambiguities[0]
        assert detail.time_ns == 1_000
        assert detail.events == 2


def test_ambiguous_timestamp_is_frozen_value_type():
    detail = AmbiguousTimestamp(time_ns=5, callbacks=("a", "b"), events=2)
    with pytest.raises(AttributeError):
        detail.events = 3
