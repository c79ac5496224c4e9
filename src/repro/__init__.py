"""AgilePkgC (APC) reproduction library.

A component-level simulator and analysis suite reproducing *AgilePkgC:
An Agile System Idle State Architecture for Energy Proportional
Datacenter Servers* (MICRO 2022). The headline entry points:

>>> from repro import MemcachedWorkload, cpc1a, cshallow, run_experiment
>>> from repro.units import MS
>>> apc = run_experiment(MemcachedWorkload(4_000), cpc1a(),
...                      duration_ns=50 * MS, warmup_ns=10 * MS, seed=7)
>>> base = run_experiment(MemcachedWorkload(4_000), cshallow(),
...                       duration_ns=50 * MS, warmup_ns=10 * MS, seed=7)
>>> apc.total_power_w < base.total_power_w
True

See PAPER.md for the paper's abstract and ``docs/`` for the sweep,
fleet and control-plane guides.
"""

from repro.core import (
    Apmu,
    ApmuTimings,
    ClmrController,
    IosmController,
    PC1A_SPEC,
    Pc1aLatencyModel,
    SkxAreaModel,
)
from repro.power import (
    DEFAULT_BUDGET,
    Pc1aPowerDerivation,
    RaplDomain,
    RaplInterface,
    ResidencyWeightedModel,
    SkxPowerBudget,
)
from repro.server import (
    ExperimentResult,
    MachineConfig,
    ServerMachine,
    cdeep,
    config_by_name,
    cpc1a,
    cshallow,
    run_experiment,
)
from repro.sim import Simulator
from repro.soc import SKX_CONFIG, SocConfig
from repro.sweep import (
    ExperimentSpec,
    ResultStore,
    SweepSession,
    SweepSpec,
    WorkloadPoint,
)
from repro.workloads import (
    KafkaWorkload,
    MemcachedWorkload,
    MySqlWorkload,
    NullWorkload,
)

__version__ = "0.3.0"

__all__ = [
    "__version__",
    # contribution
    "Apmu",
    "ApmuTimings",
    "IosmController",
    "ClmrController",
    "PC1A_SPEC",
    "Pc1aLatencyModel",
    "SkxAreaModel",
    # power models
    "DEFAULT_BUDGET",
    "SkxPowerBudget",
    "ResidencyWeightedModel",
    "Pc1aPowerDerivation",
    "RaplInterface",
    "RaplDomain",
    # machine & experiments
    "Simulator",
    "SocConfig",
    "SKX_CONFIG",
    "MachineConfig",
    "ServerMachine",
    "cshallow",
    "cdeep",
    "cpc1a",
    "config_by_name",
    "run_experiment",
    "ExperimentResult",
    # workloads
    "MemcachedWorkload",
    "KafkaWorkload",
    "MySqlWorkload",
    "NullWorkload",
    # sweeps
    "ExperimentSpec",
    "ResultStore",
    "SweepSession",
    "SweepSpec",
    "WorkloadPoint",
]
