"""Hooks the benchmark installs into the program from outside.

Nothing under ``src/`` knows about them: :func:`install` replaces
methods of the program's classes with wrappers defined here, before
any runtime is built, so worker processes forked later inherit them.
Two levels:

* **Cell probes** (every run). The cell lifecycle — ``Cell.build`` /
  ``Cell.recycle``, the runtime's ``begin_measurement``,
  ``Cell.collect`` and ``repro.api.run_cell`` — is wrapped to time
  each cell, note the requests in flight at the start and end of the
  measured window, and read the metered energy the result should
  match. That costs a few microseconds per cell.
* **Layer tracer** (traced runs only). Every method defined on the
  classes of each layer's package is wrapped. A call that crosses
  from one layer into another opens a frame; a layer's self time is
  its frames' time minus the frames nested in them. The cost of the
  wrapper itself, calibrated at install time, is moved out of the
  calling layer into its own ``trace`` row. Frames of at least
  :data:`SPAN_MIN_NS` are kept as spans (name, start, end, id, parent,
  cell); shorter ones only feed the per-layer totals, since the
  signal network alone crosses layers hundreds of thousands of times
  per second of host time.

Each process appends one JSON line per finished cell to
``probe-<pid>.jsonl`` in the output directory.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import time
import types
from enum import Enum

now_ns = time.monotonic_ns  # system-wide on Linux: comparable across processes

LAYERS = (
    "cell",
    "server",
    "sim",
    "hw",
    "iolink",
    "core",
    "soc",
    "power",
    "dram",
    "workloads",
    "fleet",
    "control",
    "tracing",
    "trace",
)
L = {name: index for index, name in enumerate(LAYERS)}

#: Layers made of every class in one package of the program.
LAYER_PACKAGES = {
    "server": "repro.server",
    "hw": "repro.hw",
    "iolink": "repro.iolink",
    "core": "repro.core",
    "soc": "repro.soc",
    "power": "repro.power",
    "dram": "repro.dram",
    "workloads": "repro.workloads",
    "fleet": "repro.fleet",
    "control": "repro.control",
    "tracing": "repro.tracing",
}

#: Modules of those packages that hold cell specs, configs, results or
#: the checkpoint walker: their time belongs to the lifecycle phase
#: that calls them (build, checkpoint, recycle, collect).
SKIP_MODULES = {
    "repro.server.recycle",
    "repro.server.experiment",
    "repro.server.configs",
    "repro.fleet.spec",
    "repro.fleet.result",
    "repro.fleet.experiment",
}

#: Method -> call counter.
COUNTERS = {
    ("Signal", "set"): "hw.signal_sets",  # assert_/deassert drive through set
    ("TimedFsm", "goto"): "hw.fsm_gotos",
    ("IoLink", "enter_l1"): "iolink.l1_transitions",
    ("IoLink", "exit_l1"): "iolink.l1_transitions",
    ("PowerChannel", "set_power"): "power.set_power_calls",
    ("Request", "__init__"): "workloads.requests_generated",
    ("SloPackController", "tick"): "control.ticks",
    ("SleepScaleController", "tick"): "control.ticks",
}

#: Method -> inclusive timer (seconds in the report).
TIMERS = {
    ("PowerMeter", "readout"): "power.readout_s",
    ("LoadBalancer", "route"): "fleet.route_s",
    ("SloPackController", "tick"): "control.tick_s",
    ("SleepScaleController", "tick"): "control.tick_s",
}

#: Lifecycle phases, each an inclusive timer of the ``server`` layer
#: (``run_for`` frames belong to ``sim``: the event loop runs there).
PHASES = ("build", "checkpoint", "recycle", "warmup", "measure", "collect")

SLOTS = sorted(set(COUNTERS.values()) | set(TIMERS.values())) + [
    f"server.{phase}_s" for phase in PHASES
]
SLOT = {name: index for index, name in enumerate(SLOTS)}

#: Frames at least this long are kept as spans.
SPAN_MIN_NS = 200_000


class Recorder:
    """Per-process probe state; one per interpreter, made by install."""

    def __init__(self, out_dir: str, cell_ids: dict, traced: bool):
        self.out_dir = out_dir
        self.cell_ids = cell_ids
        self.traced = traced
        self.active = False
        self.record: dict | None = None
        self.cell_t0 = 0
        self.measuring = False
        self.lifecycle_depth = 0
        # Open frames, innermost last.
        self.layers: list[int] = []
        self.child: list[int] = [0]
        self.ids: list[int] = []
        self.next_id = 1
        self.boundary_cost_ns = 0.0
        # Per-cell totals, zeroed in place: the wrappers hold them.
        self.self_ns = [0] * len(LAYERS)
        self.crossings = [0] * len(LAYERS)
        self.slots = [0] * len(SLOTS)
        self.spans: list[tuple] = []

    def _reset_totals(self) -> None:
        for totals in (self.self_ns, self.crossings, self.slots):
            totals[:] = [0] * len(totals)
        self.spans = []

    # -- cells -------------------------------------------------------------
    def begin_cell(self, cell) -> None:
        key = cell.key()
        if self.record is not None:
            if self.record["key"] == key:
                return
            self.end_cell(ok=False)  # an attempt that died before run_cell
        self.record = {
            "pid": os.getpid(),
            "cell": self.cell_ids[key],
            "key": key,
            "t_start": now_ns(),
        }
        self.measuring = False
        if self.traced:
            self._reset_totals()
            self.layers[:] = [L["cell"]]
            self.child[:] = [0]
            self.ids[:] = [self.next_id]
            self.next_id += 1
            self.cell_t0 = now_ns()
            self.active = True

    def end_cell(self, ok: bool) -> None:
        record, self.record = self.record, None
        if record is None:
            return
        record["t_end"] = now_ns()
        record["ok"] = ok
        if self.traced:
            self.active = False
            duration = record["t_end"] - self.cell_t0
            self.self_ns[L["cell"]] += duration - self.child[-1]
            self.spans.append(("cell", self.cell_t0, record["t_end"], self.ids[0], 0))
            cost = self.boundary_cost_ns
            moved = [int(n * cost) for n in self.crossings]
            self_ns = [s - m for s, m in zip(self.self_ns, moved)]
            self_ns[L["trace"]] += sum(moved)
            record["self_ns"] = dict(zip(LAYERS, self_ns))
            record["crossings"] = sum(self.crossings)
            record["slots"] = dict(zip(SLOTS, self.slots))
            record["spans"] = self.spans
        path = os.path.join(self.out_dir, f"probe-{os.getpid()}.jsonl")
        with open(path, "a") as sink:
            sink.write(json.dumps(record) + "\n")

    # -- frames ------------------------------------------------------------
    def frame(self, fn, args, kwargs, layer: int, slot: int, name: str):
        """Run ``fn`` as a frame of ``layer``, charging its time."""
        layers, child, ids = self.layers, self.child, self.ids
        self.crossings[layers[-1]] += 1
        span_id = self.next_id
        self.next_id = span_id + 1
        layers.append(layer)
        child.append(0)
        ids.append(span_id)
        t0 = now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = now_ns()
            duration = t1 - t0
            layers.pop()
            ids.pop()
            self.self_ns[layer] += duration - child.pop()
            child[-1] += duration
            if slot >= 0:
                self.slots[slot] += duration
            if duration >= SPAN_MIN_NS:
                self.spans.append((name, t0, t1, span_id, ids[-1]))


def _layer_wrapper(rec: Recorder, fn, layer: int, counter: int, timer: int):
    name = f"{LAYERS[layer]}:{fn.__qualname__}"
    layers, slots, frame = rec.layers, rec.slots, rec.frame

    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if counter >= 0:
            slots[counter] += 1
        if timer < 0 and layers[-1] == layer:
            return fn(*args, **kwargs)
        return frame(fn, args, kwargs, layer, timer, name)

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__module__ = fn.__module__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _noop() -> None:
    return None


def _calibrate(rec: Recorder) -> float:
    """Host ns a layer boundary adds to the calling frame."""
    wrapped = _layer_wrapper(rec, _noop, L["trace"], -1, -1)
    n = 20_000
    saved = (rec.active, rec.layers[:], rec.child[:], rec.ids[:])
    rec.active = True
    rec.layers[:], rec.child[:], rec.ids[:] = [L["cell"]], [0], [0]
    best = float("inf")
    for _ in range(5):
        rec.child[-1] = 0
        t0 = now_ns()
        for _ in range(n):
            wrapped()
        outer = now_ns() - t0
        t0 = now_ns()
        for _ in range(n):
            _noop()
        plain = now_ns() - t0
        best = min(best, (outer - rec.child[-1] - plain) / n)
    rec.active, rec.layers[:], rec.child[:], rec.ids[:] = saved
    rec._reset_totals()
    return max(0.0, best)


def _runtime_classes():
    from repro.fleet.cluster import FleetMachine
    from repro.server.machine import ServerMachine

    return ServerMachine, FleetMachine


def _machines(runtime) -> list:
    return list(getattr(runtime, "machines", None) or [runtime])


def _install_lifecycle(rec: Recorder) -> None:
    import repro.api
    from repro.api import ExperimentSpec, FleetCell

    ServerMachine, FleetMachine = _runtime_classes()
    server, sim = L["server"], L["sim"]

    def phase_call(fn, args, kwargs, phase: str, layer: int):
        if not (rec.traced and rec.active):
            return fn(*args, **kwargs)
        rec.lifecycle_depth += 1
        try:
            return rec.frame(
                fn, args, kwargs, layer, SLOT[f"server.{phase}_s"], f"server.{phase}"
            )
        finally:
            rec.lifecycle_depth -= 1

    def starts_cell(fn, phase):
        def wrapper(cell, *args, **kwargs):
            rec.begin_cell(cell)
            rec.record.setdefault(phase, 0)
            rec.record[phase] += 1
            return phase_call(fn, (cell,) + args, kwargs, phase, server)

        return wrapper

    def checkpoint(fn):
        def wrapper(runtime):
            if rec.lifecycle_depth:
                return fn(runtime)
            return phase_call(fn, (runtime,), {}, "checkpoint", server)

        return wrapper

    def run_for(fn):
        def wrapper(runtime, duration_ns):
            phase = "measure" if rec.measuring else "warmup"
            return phase_call(fn, (runtime, duration_ns), {}, phase, sim)

        return wrapper

    def begin_measurement(fn):
        def wrapper(runtime, *args, **kwargs):
            if rec.lifecycle_depth or rec.measuring:
                return fn(runtime, *args, **kwargs)
            rec.measuring = True
            if isinstance(runtime, FleetMachine) and rec.record is not None:
                rec.record["in_flight_start"] = runtime.state.outstanding.tolist()
            rec.lifecycle_depth += 1
            try:
                if rec.traced and rec.active:
                    name = "server.begin_measurement"
                    return rec.frame(fn, (runtime,) + args, kwargs, server, -1, name)
                return fn(runtime, *args, **kwargs)
            finally:
                rec.lifecycle_depth -= 1

        return wrapper

    def collect(fn):
        def wrapper(cell, runtime, workload):
            result = phase_call(fn, (cell, runtime, workload), {}, "collect", server)
            record = rec.record
            if record is not None:
                active, rec.active = rec.active, False  # not the program's work
                readout = runtime.meter.readout()
                machines = _machines(runtime)
                record["metered_j"] = sum(
                    readout[domain].energy_j
                    for machine in machines
                    for domain in (machine.package_domain, machine.dram_domain)
                    if domain in readout
                )
                if isinstance(runtime, FleetMachine):
                    record["in_flight_end"] = runtime.state.outstanding.tolist()
                if rec.traced:
                    record["model"] = _model_counters(machines)
                rec.active = active
            return result

        return wrapper

    real_run_cell = repro.api.run_cell

    def run_cell(cell, *args, **kwargs):
        rec.begin_cell(cell)
        rec.record["t_ready"] = now_ns()
        ok = False
        try:
            result = real_run_cell(cell, *args, **kwargs)
            ok = True
            return result
        finally:
            rec.end_cell(ok)

    for cls in (ExperimentSpec, FleetCell):
        cls.build = starts_cell(cls.build, "build")
        cls.recycle = starts_cell(cls.recycle, "recycle")
        cls.collect = collect(cls.collect)
    for cls in (ServerMachine, FleetMachine):
        cls.checkpoint = checkpoint(cls.checkpoint)
        cls.run_for = run_for(cls.run_for)
        cls.begin_measurement = begin_measurement(cls.begin_measurement)
    repro.api.run_cell = run_cell


def _model_counters(machines) -> dict:
    counters = dict.fromkeys(
        ("pc1a_entries", "pc1a_exits", "pc1a_exit_ns_sum", "pc6_entries", "core_wakes"),
        0,
    )
    for machine in machines:
        if machine.apmu is not None:
            counters["pc1a_entries"] += machine.apmu.pc1a_entries
            counters["pc1a_exits"] += machine.apmu.pc1a_exits
            counters["pc1a_exit_ns_sum"] += machine.apmu.exit_latency_sum_ns
        if machine.gpmu is not None:
            counters["pc6_entries"] += machine.gpmu.pc6_entries
        counters["core_wakes"] += sum(core.wake_count for core in machine.cores)
    return counters


#: Lifecycle methods, wrapped by _install_lifecycle instead.
_LIFECYCLE_METHODS = frozenset({"checkpoint", "run_for", "begin_measurement"})


def _layer_classes(package_name: str):
    package = importlib.import_module(package_name)
    names = [package_name] + [
        f"{package_name}.{info.name}"
        for info in pkgutil.iter_modules(package.__path__)
    ]
    for module_name in names:
        if module_name in SKIP_MODULES:
            continue
        module = importlib.import_module(module_name)
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module_name
                and not issubclass(cls, (Enum, BaseException))
            ):
                yield cls


def _install_layers(rec: Recorder) -> None:
    ServerMachine, FleetMachine = _runtime_classes()
    for layer_name, package_name in LAYER_PACKAGES.items():
        layer = L[layer_name]
        for cls in _layer_classes(package_name):
            for attr, fn in list(vars(cls).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                key = (cls.__name__, attr)
                if attr.startswith("__") and key not in COUNTERS:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue  # its body runs under the kernel's resume
                if cls in (ServerMachine, FleetMachine) and attr in _LIFECYCLE_METHODS:
                    continue
                counter = SLOT[COUNTERS[key]] if key in COUNTERS else -1
                timer = SLOT[TIMERS[key]] if key in TIMERS else -1
                setattr(cls, attr, _layer_wrapper(rec, fn, layer, counter, timer))


def install(out_dir: str, cells: list, traced: bool) -> Recorder:
    """Install the probes (and the tracer when ``traced``)."""
    cell_ids = {cell.key(): index for index, cell in enumerate(cells)}
    rec = Recorder(out_dir, cell_ids, traced)
    if traced:
        _install_layers(rec)
        rec.boundary_cost_ns = _calibrate(rec)
    _install_lifecycle(rec)
    return rec


def read_records(out_dir: str) -> list[dict]:
    """Every cell record the run's processes wrote."""
    records = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("probe-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name)) as source:
                records.extend(json.loads(line) for line in source if line.strip())
    return records
