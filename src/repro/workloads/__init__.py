"""Workload generators for the evaluated services.

The paper drives its server with Memcached (Mutilate replaying the
Facebook ETC mix), Kafka (consumer/producer perf) and MySQL (sysbench
OLTP). We reproduce each as an open workload model whose *observable
baseline behaviour* — per-core and all-idle residency versus load —
is calibrated against the paper's Fig. 6/8/9, so that everything the
simulator then predicts (power savings, latency impact) is a genuine
model output rather than a fit.

Beyond the paper, :class:`NginxWorkload` (short-request web tier),
:class:`RpcFanoutWorkload` (scatter-gather with cross-core wakeup
coupling) and :class:`TraceReplayWorkload` (deterministic recorded
arrivals) widen the idleness spectrum; the scenario registry
(:mod:`repro.scenarios`) is how they all plug into sweeps, and
:func:`repro.scenarios.build` builds any of them from plain cell data
(name, rate, preset).
"""

from repro.workloads.base import Request, Workload, NullWorkload
from repro.workloads.arrivals import (
    ArrivalProcess,
    ConvoyArrivals,
    GammaArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TraceReplayArrivals,
)
from repro.workloads.service import (
    ExponentialService,
    FixedService,
    LoadCalibratedService,
    LognormalService,
    ServiceModel,
)
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.kafka import KafkaWorkload
from repro.workloads.mysql import MySqlWorkload, MYSQL_PRESETS
from repro.workloads.kafka import KAFKA_PRESETS
from repro.workloads.nginx import NginxWorkload
from repro.workloads.replay import TraceReplayWorkload, load_trace
from repro.workloads.rpcfanout import RpcFanoutWorkload
from repro.workloads.upi_traffic import CompositeWorkload, UpiSnoopTraffic


__all__ = [
    "Request",
    "Workload",
    "NullWorkload",
    "ArrivalProcess",
    "PoissonArrivals",
    "GammaArrivals",
    "MMPPArrivals",
    "ConvoyArrivals",
    "TraceReplayArrivals",
    "ServiceModel",
    "ExponentialService",
    "FixedService",
    "LognormalService",
    "LoadCalibratedService",
    "MemcachedWorkload",
    "KafkaWorkload",
    "KAFKA_PRESETS",
    "MySqlWorkload",
    "MYSQL_PRESETS",
    "NginxWorkload",
    "RpcFanoutWorkload",
    "TraceReplayWorkload",
    "load_trace",
    "UpiSnoopTraffic",
    "CompositeWorkload",
]
