"""The repository benchmark: simulator speed and model results, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-server --seed 1 --seconds 30 --trace 0

Each repetition runs one cell set of the workload (see ``cells.py``)
in a fresh interpreter through ``repro.api.SweepSession`` with no
result store, so no cell is served from cache.

* ``--trace 0`` cycles through the cell sets until ``--seconds`` have
  passed, and always runs set 0 twice. It reports the end-to-end
  metrics: medians over repetitions for per-repetition times, pooled
  cells for per-cell times, and means over cell sets for model metrics.
* ``--trace 1`` runs cell set 0 untraced and then traced. It reports
  the per-layer metrics and the tracing overhead, and writes the traced
  spans as Chrome trace-event JSON (opens offline in Perfetto) with a
  per-layer self-time table.

Host times are scaled to a reference host speed (see ``hostspeed.py``).
Every cell's result is checked against the conservation laws, and
repetitions of one cell set must reproduce the same per-cell result
digests. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 1 when any check failed and 2 when the program's sources are
missing. Records land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from cells import CELL_SETS, HELD_OUT_SEED, WORKLOADS, workers_for  # noqa: E402
from hostspeed import REFERENCE_S, reference_s  # noqa: E402
from probes import LAYERS  # noqa: E402

OUT = ROOT / ".perfbench_out"
#: Every run ends within this many seconds.
BUDGET_S = 170.0

#: End-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "cell_ms_p50": "ms",
    "cell_ms_tail": "ms",
    "server_sim_s_per_host_s": "s/s",
    "peak_rss_mb": "MB",
    "cells_ok_frac": "frac",
    "power_w_per_server": "W",
    "p99_us": "us",
    "apc_saving_pct": "%",
    "apc_latency_penalty_pct": "%",
    "slo_met_frac": "frac",
}
#: What a workload-specific model metric reads where it has no meaning.
NOT_APPLICABLE = 1.0


def _git(*args: str) -> str:
    command = ["git", *args]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=10
    )
    return done.stdout.strip()


def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head, dirty = "not a git checkout", None
    if (ROOT / ".git").exists():
        try:
            head = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            head = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_head": head,
        "git_dirty": dirty,
    }


def run_rep(
    workload: str, seed: int, cell_set: int, out: Path, traced: bool, deadline: float
) -> dict:
    """One repetition in a fresh interpreter; returns its rep.json."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("REPRO_SWEEP_RECYCLE", None)  # the sweep's default path
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload]
    command += ["--seed", str(seed), "--set", str(cell_set), "--out", str(out)]
    command += ["--spawned-ns", str(time.monotonic_ns())]
    command += ["--trace"] if traced else []
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"repetition exceeded the {BUDGET_S:g} s budget") from None
    finally:
        # The repetition's process group also holds its sweep workers.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0:
        raise RuntimeError(f"repetition exited with code {code}")
    return json.loads((out / "rep.json").read_text())


def cell_times_ms(reps: list[dict]) -> list[float]:
    return [
        rep["scale"] * (r["t_end"] - r["t_start"]) / 1e6
        for rep in reps
        for r in rep["records"]
    ]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest rank with ten cells beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def distinct_sets(reps: list[dict]) -> list[dict]:
    """One repetition per cell set, in set order."""
    by_set = {}
    for rep in reps:
        by_set.setdefault(rep["set"], rep)
    return [by_set[k] for k in sorted(by_set)]


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values and notes from untraced repetitions.

    Times are medians over repetitions (or pooled cells); model metrics
    are means over the distinct cell sets.
    """
    models = [rep["model"] for rep in distinct_sets(reps)]

    def mean(name: str) -> float:
        if name not in models[0]:
            return NOT_APPLICABLE
        return statistics.fmean(m[name] for m in models)

    times = cell_times_ms(reps)
    tail_pct, tail_ms = tail(times)
    windows = sum(m["slo_windows"] for m in models)
    violations = sum(m["slo_violations"] for m in models)
    walls = [rep["scale"] * rep["wall_s"] for rep in reps]
    values = {
        "setup_s": statistics.median(r["scale"] * r["setup_s"] for r in reps),
        "wall_s": statistics.median(walls),
        "cells_per_s": statistics.median(r["cells"] / w for r, w in zip(reps, walls)),
        "cell_ms_p50": statistics.median(times),
        "cell_ms_tail": tail_ms,
        "server_sim_s_per_host_s": statistics.median(
            r["model"]["server_sim_s"] / w for r, w in zip(reps, walls)
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "power_w_per_server": mean("power_w_per_server"),
        "p99_us": mean("p99_us"),
        "apc_saving_pct": mean("apc_saving_pct"),
        "apc_latency_penalty_pct": mean("apc_latency_penalty_pct"),
        "slo_met_frac": 1.0 - violations / windows if windows else NOT_APPLICABLE,
    }
    not_applicable = [
        name
        for name in ("apc_saving_pct", "apc_latency_penalty_pct")
        if name not in models[0]
    ] + ([] if windows else ["slo_met_frac"])
    notes = {
        "cell_ms_tail_percentile": tail_pct,
        "cells_timed": len(times),
        "repetitions": len(reps),
        "cell_sets": len(models),
        "raw_setup_s": [rep["setup_s"] for rep in reps],
        "raw_wall_s": [rep["wall_s"] for rep in reps],
        "scale": [rep["scale"] for rep in reps],
        "n/a": not_applicable,
    }
    return values, notes


def per_layer(baseline: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics (value, unit) and per-layer self time in ns.

    ``baseline`` is the untraced repetition of the traced one's cell
    set. Host times are scaled like the end-to-end ones.
    """
    records = traced["records"]
    slots: dict[str, int] = {}
    model: dict[str, int] = {}
    self_ns = {layer: 0.0 for layer in LAYERS}
    for record in records:
        for name, value in record["slots"].items():
            slots[name] = slots.get(name, 0) + value
        for name, value in record["model"].items():
            model[name] = model.get(name, 0) + value
        for name, value in record["self_ns"].items():
            self_ns[name] += traced["scale"] * value
    kernel = traced["kernel"]
    events = sum(k["events_processed"] for k in kernel)
    stats, scale = baseline["sweep"], baseline["scale"]
    cpu_s = stats["build_s"] + stats["simulate_s"]
    result = traced["model"]

    def kernel_sum(name: str) -> int:
        return sum(k[name] for k in kernel)

    def total_s(rep: dict) -> float:
        return rep["scale"] * (rep["setup_s"] + rep["wall_s"])

    exits = model["pc1a_exits"]
    metrics = {
        "sweep.dispatched": (traced["sweep"]["dispatched"], "count"),
        "sweep.retries": (traced["sweep"]["retries"], "count"),
        "sweep.quarantined": (traced["sweep"]["quarantined"], "count"),
        "sweep.worker_deaths": (traced["sweep"]["worker_deaths"], "count"),
        "sweep.build_cpu_s": (scale * stats["build_s"], "s"),
        "sweep.simulate_cpu_s": (scale * stats["simulate_s"], "s"),
        "sweep.dispatch_overhead_s": (
            scale * (stats["wall_s"] - cpu_s / stats["workers"]),
            "s",
        ),
        "server.fresh_builds": (sum(r.get("build", 0) for r in records), "count"),
        "server.recycles": (sum(r.get("recycle", 0) for r in records), "count"),
        "sim.events_processed": (events, "count"),
        "sim.events_scheduled": (kernel_sum("events_scheduled"), "count"),
        "sim.events_reused": (kernel_sum("events_reused"), "count"),
        "sim.events_cancelled": (kernel_sum("events_cancelled"), "count"),
        "sim.heap_compactions": (kernel_sum("heap_compactions"), "count"),
        "sim.peak_heap_size": (max(k["peak_heap_size"] for k in kernel), "count"),
        "sim.host_ns_per_event": (1e9 * scale * stats["simulate_s"] / events, "ns"),
        "core.pc1a_entries": (model["pc1a_entries"], "count"),
        "core.pc1a_exits": (exits, "count"),
        "core.pc1a_mean_exit_ns": (
            model["pc1a_exit_ns_sum"] / exits if exits else 0.0,
            "ns",
        ),
        "core.pc1a_residency": (result["pc1a_residency"], "frac"),
        "soc.pc6_entries": (model["pc6_entries"], "count"),
        "soc.core_wakes": (model["core_wakes"], "count"),
        "fleet.routed": (result["routed"], "count"),
        "fleet.in_flight_end": (
            sum(sum(r.get("in_flight_end", [])) for r in records),
            "count",
        ),
        "fleet.active_servers": (result["active_servers"], "count"),
        "fleet.parked_residency": (result["parked_residency"], "frac"),
        "control.park_transitions": (result["control_park_transitions"], "count"),
        "control.slo_windows": (result["slo_windows"], "count"),
        "trace.overhead_pct": (
            100.0 * (total_s(traced) / total_s(baseline) - 1.0),
            "%",
        ),
    }
    for name, value in slots.items():
        if name.endswith("_s"):
            metrics[name] = (traced["scale"] * value / 1e9, "s")
        else:
            metrics[name] = (value, "count")
    for layer in LAYERS:
        if layer not in ("cell", "server", "tracing", "trace"):
            metrics[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
    return metrics, self_ns


def chrome_trace(traced: dict) -> dict:
    """The traced repetition's spans as Chrome trace-event JSON."""
    records = traced["records"]
    base = min(r["t_start"] for r in records)
    events = []
    for record in records:
        for name, t0, t1, span_id, parent in record["spans"]:
            events.append(
                {
                    "name": name,
                    "cat": name.replace(":", ".").split(".", 1)[0],
                    "ph": "X",
                    "ts": (t0 - base) / 1e3,
                    "dur": (t1 - t0) / 1e3,
                    "pid": record["pid"],
                    "tid": record["pid"],
                    "args": {"id": span_id, "parent": parent, "cell": record["cell"]},
                }
            )
    events.sort(key=lambda e: (e["pid"], e["ts"], -e["dur"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_table(self_ns: dict, crossings: int) -> str:
    total = sum(self_ns.values()) or 1
    lines = [f"{'layer':<10} {'self_s':>10} {'share':>7}"]
    for layer, ns in sorted(self_ns.items(), key=lambda item: -item[1]):
        lines.append(f"{layer:<10} {ns / 1e9:>10.4f} {100 * ns / total:>6.1f}%")
    lines.append(
        f"layer crossings: {crossings}; 'trace' is the tracer's own calibrated "
        "cost; 'sim' includes callbacks outside any layer"
    )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(
            f"perfbench: no program sources under {ROOT / 'src'}; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2

    workload = WORKLOADS[args.workload]
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / run_name
    shutil.rmtree(run_dir, ignore_errors=True)
    fingerprint = host_fingerprint()
    print(f"host: {json.dumps(fingerprint)}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed} (held-out seed for gain claims: {HELD_OUT_SEED})")

    # (cell set, traced) per repetition. An untraced run cycles through
    # the cell sets until --seconds have passed, and at least once past
    # set 0, so every run checks its own determinism.
    if args.trace:
        plan = iter([(0, False), (0, True)])
    else:
        plan = ((k % CELL_SETS, False) for k in itertools.count())
    workers = workers_for(args.workload)
    reps = []
    before = reference_s(workers)
    try:
        for index, (cell_set, traced) in enumerate(plan):
            elapsed = time.monotonic() - started
            if not args.trace and index > CELL_SETS and elapsed >= args.seconds:
                break
            out = run_dir / f"rep{index}"
            rep = run_rep(
                args.workload, args.seed, cell_set, out, traced, started + BUDGET_S
            )
            after = reference_s(workers)
            rep["scale"] = 2 * REFERENCE_S / (before + after)
            reps.append(rep)
            before = after
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    # Determinism: repetitions of one cell set (traced or not) must
    # reproduce the same per-cell digests.
    reference = {rep["set"]: rep["digests"] for rep in distinct_sets(reps)}
    failures = {}
    for k, rep in enumerate(reps):
        for cell, problems in rep["failed_cells"].items():
            failures[f"rep{k}/cell{cell}"] = problems
        for cell, digest in enumerate(rep["digests"]):
            if digest != reference[rep["set"]][cell]:
                failures[f"rep{k}/cell{cell}"] = ["result digest differs from set"]
        if rep["faults"] and not rep["failed_cells"]:
            failures[f"rep{k}"] = [f"{rep['faults']} sweep faults"]
    cell_digests = [d for k in sorted(reference) for d in reference[k]]
    joined = "".join(d or "-" for d in cell_digests)
    digest = hashlib.sha256(joined.encode()).hexdigest()
    attempted = sum(rep["cells"] for rep in reps)
    failed = min(attempted, len(failures))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": fingerprint,
        "digest": digest,
        "cell_digests": cell_digests,
        "failures": failures,
    }
    if args.trace:
        values, self_ns = per_layer(reps[0], reps[-1])
        crossings = sum(r["crossings"] for r in reps[-1]["records"])
        table = self_time_table(self_ns, crossings)
        (run_dir / "trace.json").write_text(json.dumps(chrome_trace(reps[-1])))
        (run_dir / "layers.txt").write_text(table + "\n")
        print(table)
        print(f"spans: {run_dir / 'trace.json'} (Chrome trace-event JSON)")
    else:
        values, notes = end_to_end(reps)
        values["cells_ok_frac"] = 1.0 - failed / attempted
        values = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        record["notes"] = notes
        print(
            f"cell_ms_tail is p{notes['cell_ms_tail_percentile']:.1f} of "
            f"{notes['cells_timed']} cells over {notes['repetitions']} "
            f"repetitions of {notes['cell_sets']} cell sets"
        )
        if notes["n/a"]:
            print(
                f"n/a on this workload (reported as {NOT_APPLICABLE}): "
                + ", ".join(notes["n/a"])
            )
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    record["metrics"] = metrics
    (OUT / f"{run_name}.json").write_text(json.dumps(record, indent=1))
    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>16.6g} {metric['unit']}")
    sets = sorted(reference)
    print(f"result digest (cell sets {sets[0]}-{sets[-1]}): {digest}")
    for where, problems in sorted(failures.items()):
        print(f"FAILED {where}: {'; '.join(problems)}", file=sys.stderr)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
