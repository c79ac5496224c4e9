"""Build workloads from plain serializable descriptors.

The sweep subsystem fans experiments out over worker processes, so a
sweep cell must describe its workload with plain data (name + rate +
preset) rather than a live object. The mapping lives in the scenario
registry (:mod:`repro.scenarios`): this module answers from it, so
scenarios added with one decorator are immediately buildable
everywhere. The registry import happens inside each function — never
at module import — to keep ``repro.workloads`` -> ``repro.scenarios``
-> workload modules acyclic.
"""

from __future__ import annotations

from repro.workloads.base import Workload


def build_workload(name: str, qps: float = 0.0, preset: str = "low") -> Workload:
    """Instantiate a workload from its serializable description.

    ``name`` is a registered scenario; ``qps`` selects the offered
    rate for rate-driven scenarios (0 = the fully idle server) and
    ``preset`` the operating point for preset/trace-driven ones.
    """
    from repro.scenarios import registry

    return registry.build(name, qps, preset)


def workload_names() -> tuple[str, ...]:
    """Every buildable name (all registered scenarios)."""
    from repro.scenarios import registry

    return registry.scenario_names()


def preset_workload_names() -> tuple[str, ...]:
    """Names whose operating point is chosen by ``preset``.

    These drive CLI branching and sweep labelling: for everything
    else the preset field is dead weight and stays out of cache keys.
    """
    from repro.scenarios import registry

    return tuple(
        scenario.name
        for scenario in registry.all_scenarios()
        if scenario.uses_preset
    )
