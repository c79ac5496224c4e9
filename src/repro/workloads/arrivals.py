"""Arrival processes: the temporal structure of offered load.

The choice of arrival process is what differentiates the three
services' idleness structure (paper Sec. 7):

* Memcached sees near-open-loop, slightly bursty traffic
  (:class:`GammaArrivals` with shape < 1).
* Kafka polls in cycles (modelled in the workload itself) with
  Poisson message arrivals underneath.
* sysbench OLTP paces transactions steadily at low rate
  (:class:`GammaArrivals` with shape > 1 — sub-Poisson regularity)
  and degenerates into convoys under contention at high rate
  (:class:`ConvoyArrivals`), which is why MySQL keeps a ~20 %
  all-idle residency even at 42 % utilization (Fig. 8).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.units import S


class ArrivalProcess:
    """Yields successive inter-arrival gaps in nanoseconds."""

    def mean_rate_per_s(self) -> float:
        """Long-run arrival rate."""
        raise NotImplementedError

    def next_gap_ns(self, rng: np.random.Generator) -> int:
        """Sample the gap to the next arrival."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a fixed rate."""

    def __init__(self, rate_per_s: float):
        if rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_s}")
        self.rate_per_s = rate_per_s

    def mean_rate_per_s(self) -> float:
        return self.rate_per_s

    def next_gap_ns(self, rng: np.random.Generator) -> int:
        return max(1, int(rng.exponential(S / self.rate_per_s)))


class GammaArrivals(ArrivalProcess):
    """Gamma-renewal arrivals: one knob for burstiness.

    ``shape == 1`` is Poisson; ``shape < 1`` is bursty (higher
    coefficient of variation); ``shape > 1`` approaches a regular
    pacing like a closed-loop client.
    """

    def __init__(self, rate_per_s: float, shape: float):
        if rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_s}")
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape}")
        self.rate_per_s = rate_per_s
        self.shape = shape

    def mean_rate_per_s(self) -> float:
        return self.rate_per_s

    def next_gap_ns(self, rng: np.random.Generator) -> int:
        scale = S / (self.rate_per_s * self.shape)
        return max(1, int(rng.gamma(self.shape, scale)))


class MMPPArrivals(ArrivalProcess):
    """An N-phase Markov-modulated Poisson process.

    Cycles through ``rates_per_s`` in order; phase ``i`` holds for an
    exponentially distributed dwell with mean ``dwell_ns[i]`` and emits
    Poisson arrivals at ``rates_per_s[i]`` (zero = a quiet phase). Two
    phases give the classic bursty on/off model for user-facing load;
    more phases approximate a diurnal cycle (ramp-up, peak, ramp-down,
    trough) compressed to simulation time scales.
    """

    def __init__(self, rates_per_s: Sequence[float], dwell_ns: Sequence[int]):
        rates = tuple(float(r) for r in rates_per_s)
        dwells = tuple(int(d) for d in dwell_ns)
        if len(rates) < 2:
            raise ValueError(f"need at least two phases, got {len(rates)}")
        if len(rates) != len(dwells):
            raise ValueError(f"{len(rates)} rates but {len(dwells)} dwell times")
        if any(rate < 0 for rate in rates):
            raise ValueError(f"rates cannot be negative: {rates}")
        if max(rates) <= 0:
            raise ValueError("at least one phase rate must be positive")
        if any(dwell <= 0 for dwell in dwells):
            raise ValueError(f"dwell times must be positive: {dwells}")
        self.rates_per_s = rates
        self.dwell_ns = dwells
        self._phase = 0
        # The first dwell is the exact mean (a deterministic anchor);
        # subsequent dwells are exponential around their phase mean.
        self._phase_left_ns = float(dwells[0])

    @property
    def n_phases(self) -> int:
        return len(self.rates_per_s)

    def mean_rate_per_s(self) -> float:
        """Stationary mean: dwell-weighted average of the phase rates."""
        total = sum(self.dwell_ns)
        weighted = sum(
            rate * dwell for rate, dwell in zip(self.rates_per_s, self.dwell_ns)
        )
        return weighted / total

    def next_gap_ns(self, rng: np.random.Generator) -> int:
        gap = 0.0
        while True:
            rate = self.rates_per_s[self._phase]
            candidate = rng.exponential(S / rate) if rate > 0 else float("inf")
            if candidate <= self._phase_left_ns:
                self._phase_left_ns -= candidate
                gap += candidate
                return max(1, int(gap))
            # Cross into the next phase and keep sampling.
            gap += self._phase_left_ns
            self._phase = (self._phase + 1) % len(self.rates_per_s)
            self._phase_left_ns = float(rng.exponential(self.dwell_ns[self._phase]))


class TraceReplayArrivals(ArrivalProcess):
    """Replays recorded inter-arrival gaps — deterministic by design.

    SleepScale's core argument is that sleep-state policy must be
    evaluated against the *actual* arrival process of a service, not a
    fitted stationary model; a trace replay is the ground truth those
    models approximate. ``next_gap_ns`` ignores the RNG entirely: the
    same trace yields the same arrival sequence on every run, every
    seed, and every worker count.

    The trace cycles when exhausted (measurement windows may be longer
    than the recording), with ``cycle=False`` available for callers
    that want exhaustion to be an error.
    """

    def __init__(self, gaps_ns: Sequence[int], cycle: bool = True):
        gaps = [int(g) for g in gaps_ns]
        if not gaps:
            raise ValueError("a trace needs at least one inter-arrival gap")
        if any(gap <= 0 for gap in gaps):
            bad = next(g for g in gaps if g <= 0)
            raise ValueError(f"trace gaps must be positive, got {bad}")
        self.gaps_ns = tuple(gaps)
        self.cycle = cycle
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str | Path, cycle: bool = True) -> "TraceReplayArrivals":
        """Load a trace file (CSV or JSONL; see :func:`load_trace_gaps`)."""
        return cls(load_trace_gaps(path), cycle=cycle)

    def mean_rate_per_s(self) -> float:
        return len(self.gaps_ns) * S / sum(self.gaps_ns)

    def next_gap_ns(self, rng: np.random.Generator) -> int:
        if self._cursor >= len(self.gaps_ns):
            if not self.cycle:
                raise IndexError(f"trace exhausted after {len(self.gaps_ns)} arrivals")
            self._cursor = 0
        gap = self.gaps_ns[self._cursor]
        self._cursor += 1
        return gap


def load_trace(path: str | Path) -> tuple[list[int], list[int] | None]:
    """Parse a trace file into (gaps_ns, service_ns-or-None).

    Two self-describing formats are accepted, keyed by file suffix;
    this is the single parser every trace consumer shares
    (:meth:`TraceReplayArrivals.from_file` and
    :class:`~repro.workloads.replay.TraceReplayWorkload`):

    * ``.csv`` (or anything else) — one inter-arrival gap (ns) per
      line, optionally with a pinned per-request service time as a
      second column; a ``gap_ns[,service_ns]`` header row, blank
      lines and ``#`` comments are skipped.
    * ``.jsonl`` — one JSON value per line: a bare number or an
      object with ``gap_ns`` (and optionally ``service_ns``) fields.

    Service times are all-or-nothing: either every row carries one or
    none does (a partially annotated trace is ambiguous and rejected).
    """
    path = Path(path)
    gaps: list[int] = []
    services: list[int] = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if path.suffix == ".jsonl":
            record = json.loads(line)
            if isinstance(record, dict):
                gap, service = record["gap_ns"], record.get("service_ns")
            else:
                gap, service = record, None
        else:
            fields = [field.strip() for field in line.split(",")]
            if fields[0] == "gap_ns":
                continue  # header row
            try:
                gap = int(float(fields[0]))
                service = (
                    int(float(fields[1]))
                    if len(fields) > 1 and fields[1]
                    else None
                )
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: expected numeric trace row, got {line!r}"
                ) from None
        gaps.append(int(gap))
        if service is not None:
            services.append(int(service))
    if not gaps:
        raise ValueError(f"{path}: trace contains no arrivals")
    if len(services) not in (0, len(gaps)):
        raise ValueError(
            f"{path}: {len(services)}/{len(gaps)} rows carry a "
            "service time; annotate every row or none"
        )
    return gaps, (services if services else None)


def load_trace_gaps(path: str | Path) -> list[int]:
    """The gaps column of :func:`load_trace` (arrival-process use)."""
    return load_trace(path)[0]


class ConvoyArrivals(ArrivalProcess):
    """Periodic convoys: B arrivals spread over the head of a period.

    Models group-commit / contention convoys in OLTP systems: every
    ``period_ns`` a batch of ``Poisson(batch_mean)`` transactions
    arrives, spread uniformly over the first ``spread_ns`` of the
    period; the tail of the period is quiet.
    """

    def __init__(self, period_ns: int, batch_mean: float, spread_ns: int):
        if period_ns <= 0 or spread_ns <= 0 or spread_ns > period_ns:
            raise ValueError("need 0 < spread <= period")
        if batch_mean <= 0:
            raise ValueError(f"batch mean must be positive, got {batch_mean}")
        self.period_ns = period_ns
        self.batch_mean = batch_mean
        self.spread_ns = spread_ns
        self._pending: list[int] = []
        self._cursor_ns = 0  # absolute time of the last emitted arrival
        self._period_start_ns = 0

    def mean_rate_per_s(self) -> float:
        return self.batch_mean * S / self.period_ns

    def next_gap_ns(self, rng: np.random.Generator) -> int:
        while not self._pending:
            count = int(rng.poisson(self.batch_mean))
            offsets = sorted(int(rng.uniform(0, self.spread_ns)) for _ in range(count))
            self._pending = [self._period_start_ns + off for off in offsets]
            self._period_start_ns += self.period_ns
        arrival = self._pending.pop(0)
        gap = max(1, arrival - self._cursor_ns)
        self._cursor_ns = arrival
        return gap
