"""The scenario registry: name -> workload builder + sweep defaults.

A *scenario* is everything a sweep needs to drive the server with one
kind of traffic: a builder that turns plain cell data ``(qps,
preset)`` into a live :class:`~repro.workloads.base.Workload`, the
knob that selects its operating point (an offered rate, a preset
label, or a trace file), and default sweep parameters. Registering a
scenario is one decorator::

    from repro.scenarios import register_scenario

    @register_scenario(
        name="my-service",
        kind="rate",
        description="my service under open-loop load",
        default_rates=(0, 5_000, 20_000),
    )
    def _build(qps: float, preset: str) -> Workload:
        return MyServiceWorkload(qps)

after which ``repro scenarios list`` shows it, ``repro sweep
--scenario my-service`` runs it, and :class:`~repro.sweep.spec
.WorkloadPoint` accepts it — no other edits required. Third-party
modules can self-register at import via the ``REPRO_SCENARIO_MODULES``
environment variable (comma-separated module paths, imported on first
registry access — entry-point-style discovery without packaging
metadata).

The registry itself is import-light: it never imports workload
modules. The built-in scenarios live in
:mod:`repro.scenarios.builtin`, loaded lazily on first query, so
``repro.sweep`` -> ``registry`` -> ``builtin`` -> workload modules is
a clean one-way chain.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.workloads.base import Workload

#: How a scenario's operating point is selected. ``rate`` uses the
#: cell's offered QPS (0 = the fully idle server); ``preset`` uses the
#: preset label; ``trace`` reuses the preset field to carry a trace
#: file path; ``fixed`` ignores both.
SCENARIO_KINDS = ("rate", "preset", "trace", "fixed")


class ScenarioError(KeyError):
    """Unknown scenario name or invalid registration."""


@dataclass(frozen=True)
class Scenario:
    """One registered scenario."""

    name: str
    build: Callable[[float, str], "Workload"]
    kind: str
    description: str = ""
    #: Default sweep grid for ``kind == "rate"`` scenarios.
    default_rates: tuple[float, ...] = ()
    #: Default sweep grid for ``kind == "preset"`` scenarios.
    default_presets: tuple[str, ...] = ()
    #: Default measurement window (None = rate-sized).
    default_duration_ns: int | None = None
    #: For ``kind == "trace"``: maps the preset field to the trace
    #: file it selects (lets a scenario alias its bundled default).
    #: None treats the preset as the path directly.
    trace_resolver: Callable[[str], Path] | None = None
    tags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("a scenario needs a non-empty name")
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(
                f"unknown scenario kind {self.kind!r}; have {SCENARIO_KINDS}"
            )
        if not callable(self.build):
            raise ScenarioError(f"scenario {self.name!r} builder is not callable")

    @property
    def uses_preset(self) -> bool:
        """Whether the preset field selects this scenario's point."""
        return self.kind in ("preset", "trace")

    @property
    def uses_rate(self) -> bool:
        """Whether the offered rate selects this scenario's point."""
        return self.kind == "rate"

    def instantiate(self, qps: float = 0.0, preset: str = "low") -> "Workload":
        """Build the workload for one operating point.

        Rate zero is the fully idle server for every rate-driven
        scenario — handled here so individual builders never see it.
        """
        if self.kind == "rate" and qps == 0:
            from repro.workloads.base import NullWorkload

            return NullWorkload()
        return self.build(qps, preset)

    def trace_token(self, preset: str) -> str:
        """Cache-key token for a trace scenario's operating point.

        Hashing the trace *contents* (not the path string) means a
        re-recorded trace re-simulates instead of silently hitting
        stale cached results, and every alias spelling of one file —
        relative vs absolute, or the scenario's default-trace aliases
        — shares a single cache entry.
        """
        if self.kind != "trace":
            raise ScenarioError(f"scenario {self.name!r} is not trace-driven")
        path = self.trace_resolver(preset) if self.trace_resolver else Path(preset)
        return _trace_digest(path)


_REGISTRY: dict[str, Scenario] = {}
_BUILTIN_STATE = "pending"  # -> "loading" -> "done"

#: Comma-separated module paths imported on first registry access so
#: external packages can register scenarios without touching repro.
DISCOVERY_ENV = "REPRO_SCENARIO_MODULES"

#: Per-process cache of trace-content digests (path -> token); trace
#: files are assumed stable for the lifetime of one process, and every
#: new process (each sweep run) re-hashes them.
_TRACE_DIGESTS: dict[str, str] = {}


def _trace_digest(path: Path) -> str:
    key = str(path.resolve())
    token = _TRACE_DIGESTS.get(key)
    if token is None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        token = _TRACE_DIGESTS[key] = f"trace:{digest}"
    return token


def _ensure_loaded() -> None:
    """Load built-in and environment-discovered scenario modules once.

    A failed import (e.g. a broken ``REPRO_SCENARIO_MODULES`` entry)
    resets the state so the next registry access retries and raises
    again — the error stays visible instead of silently degrading to
    a partial registry.
    """
    global _BUILTIN_STATE
    if _BUILTIN_STATE != "pending":
        return
    _BUILTIN_STATE = "loading"
    try:
        importlib.import_module("repro.scenarios.builtin")
        for module in os.environ.get(DISCOVERY_ENV, "").split(","):
            module = module.strip()
            if module:
                importlib.import_module(module)
    except BaseException:
        _BUILTIN_STATE = "pending"
        raise
    _BUILTIN_STATE = "done"


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry; duplicate names are an error."""
    existing = _REGISTRY.get(scenario.name)
    if existing is not None:
        raise ScenarioError(
            f"scenario {scenario.name!r} is already registered "
            f"({existing.description or 'no description'!r}); "
            "unregister it first or pick a different name"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def register_scenario(
    name: str,
    kind: str,
    description: str = "",
    default_rates: tuple[float, ...] = (),
    default_presets: tuple[str, ...] = (),
    default_duration_ns: int | None = None,
    trace_resolver: Callable[[str], Path] | None = None,
    tags: tuple[str, ...] = (),
) -> Callable[[Callable[[float, str], "Workload"]], Callable]:
    """Decorator form of :func:`register` (the one-liner API)."""

    def wrap(builder: Callable[[float, str], "Workload"]) -> Callable:
        register(
            Scenario(
                name=name,
                build=builder,
                kind=kind,
                description=description,
                default_rates=tuple(float(r) for r in default_rates),
                default_presets=tuple(default_presets),
                default_duration_ns=default_duration_ns,
                trace_resolver=trace_resolver,
                tags=tuple(tags),
            )
        )
        return builder

    return wrap


def unregister(name: str) -> None:
    """Remove a scenario (primarily for tests and plugin reloads)."""
    _ensure_loaded()
    if name not in _REGISTRY:
        raise ScenarioError(f"scenario {name!r} is not registered")
    del _REGISTRY[name]


def get(name: str) -> Scenario:
    """Look up a scenario; raises :class:`ScenarioError` when unknown."""
    _ensure_loaded()
    scenario = _REGISTRY.get(name)
    if scenario is None:
        raise ScenarioError(f"unknown scenario {name!r}; have {scenario_names()}")
    return scenario


def is_registered(name: str) -> bool:
    """Whether ``name`` is a registered scenario."""
    _ensure_loaded()
    return name in _REGISTRY


def scenario_names() -> tuple[str, ...]:
    """All registered names, in registration order."""
    _ensure_loaded()
    return tuple(_REGISTRY)


def all_scenarios() -> tuple[Scenario, ...]:
    """All registered scenarios, in registration order."""
    _ensure_loaded()
    return tuple(_REGISTRY.values())


def build(name: str, qps: float = 0.0, preset: str = "low") -> "Workload":
    """Instantiate a scenario's workload from plain cell data."""
    return get(name).instantiate(qps, preset)
