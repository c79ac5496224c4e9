"""Content-addressed persistence for experiment results.

A :class:`ResultStore` keys :class:`ExperimentResult` records by their
cell's content hash (:meth:`ExperimentSpec.key`), so re-running an
unchanged sweep cell is a cache hit instead of a simulation. Records
are single JSON files — human-inspectable, diff-able, and safe to
commit next to the figures they produced. A :class:`MemoryStore`
offers the same interface without touching disk (used to share
measurements between benches inside one pytest session).

Each result type owns its record codec: the record's ``kind`` tag is
the class's ``result_kind`` and its payload is ``result.as_dict()``,
decoded by the tagged class's ``from_dict``
(:class:`ExperimentResult` and
:class:`~repro.fleet.result.FleetResult` both implement the trio).
Records carry a sha256 checksum over their payload; reads verify the
checksum and the tag, and a record that is truncated,
garbled, untagged, or lacks or fails its checksum is
*sidecar-quarantined* (moved to ``<store>/quarantine/``) and treated
as a miss — the cell re-simulates and rewrites a good record, and the
corrupt bytes stay inspectable instead of poisoning later runs.
``repro store verify`` / ``repro store gc`` expose :meth:`verify` and
:meth:`gc` for offline auditing and cleanup.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

from repro.sweep import chaos

from repro.server.experiment import ExperimentResult
from repro.sweep.spec import ExperimentSpec


class StoreCorruption(ValueError):
    """A store record exists on disk but cannot be trusted."""


def _checksum(payload: dict) -> str:
    """sha256 over the canonical JSON form of a result payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _result_types() -> dict:
    """``result_kind`` tag -> result class, for decoding records."""
    from repro.fleet.result import FleetResult

    return {cls.result_kind: cls for cls in (ExperimentResult, FleetResult)}


#: Column order of :func:`flatten_result`.
CSV_COLUMNS = (
    "offered_qps",
    "config",
    "workload",
    "preset",
    "seed",
    "utilization",
    "all_idle_fraction",
    "pc1a_residency",
    "pc6_residency",
    "package_power_w",
    "dram_power_w",
    "total_power_w",
    "mean_latency_us",
    "p99_latency_us",
    "pc1a_exits",
    "requests_completed",
)


def flatten_result(
    result: ExperimentResult, spec: ExperimentSpec | None = None
) -> dict:
    """One flat CSV row of the observables the paper's figures need.

    The preset is a spec-side label (results only know the workload
    name), so pass the cell ``spec`` to fill that column.
    """
    return {
        "offered_qps": result.offered_qps,
        "config": result.config_name,
        "workload": result.workload_name,
        "preset": spec.preset_label if spec is not None else "",
        "seed": result.seed,
        "utilization": round(result.utilization, 6),
        "all_idle_fraction": round(result.all_idle_fraction, 6),
        "pc1a_residency": round(result.pc1a_residency(), 6),
        "pc6_residency": round(result.pc6_residency(), 6),
        "package_power_w": round(result.package_power_w, 4),
        "dram_power_w": round(result.dram_power_w, 4),
        "total_power_w": round(result.total_power_w, 4),
        "mean_latency_us": round(result.latency.mean_us, 3),
        "p99_latency_us": round(result.latency.p99_us, 3),
        "pc1a_exits": result.pc1a_exits,
        "requests_completed": result.requests_completed,
    }


class StreamingCsvWriter:
    """Writes sweep CSV rows as cells complete, in cell order.

    The one CSV writer: the session's ordered ``on_result`` hook feeds
    it one (cell, result) at a time, so a huge sweep's rows hit disk
    while later cells are still simulating, and
    :meth:`SweepResults.write_csv` feeds it a finished grid.

    Rows stream into a same-directory temp file that only replaces
    ``path`` on a clean :meth:`close` — a failed sweep never clobbers
    the complete CSV of a previous run. Leaving a ``with`` block via
    an exception discards the temp file instead.
    """

    def __init__(
        self, path: str | Path, columns: tuple[str, ...] | None = None, flatten=None
    ):
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self._path.with_name(f"{self._path.name}.{os.getpid()}.tmp")
        self._handle = open(self._tmp, "w", newline="")
        self._writer = csv.DictWriter(
            self._handle,
            fieldnames=columns if columns is not None else CSV_COLUMNS,
            extrasaction="ignore",
        )
        #: ``flatten(result, spec=...) -> row dict``; the default is the
        #: experiment-result flattener (fleet CSVs pass their own).
        self._flatten = flatten if flatten is not None else flatten_result
        self._writer.writeheader()
        self.rows = 0

    def write(
        self, result: ExperimentResult, spec: ExperimentSpec | None = None
    ) -> None:
        """Append one cell's row."""
        self._writer.writerow(self._flatten(result, spec=spec))
        self.rows += 1

    def close(self) -> None:
        """Finalize: move the streamed rows into place (idempotent)."""
        if not self._handle.closed:
            self._handle.close()
            os.replace(self._tmp, self._path)

    def discard(self) -> None:
        """Drop the streamed rows, leaving ``path`` untouched (idempotent)."""
        if not self._handle.closed:
            self._handle.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "StreamingCsvWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.close()
        else:
            self.discard()


class MemoryStore:
    """In-process result cache with the :class:`ResultStore` interface."""

    def __init__(self) -> None:
        self._results: dict[str, ExperimentResult] = {}

    def get(self, key: str) -> ExperimentResult | None:
        """Cached result for ``key``, or None."""
        return self._results.get(key)

    def put(self, key: str, result: ExperimentResult,
            spec: ExperimentSpec | None = None) -> None:
        """Cache ``result`` under ``key``."""
        self._results[key] = result

    def __contains__(self, key: str) -> bool:
        return key in self._results

    def __len__(self) -> int:
        return len(self._results)


class ResultStore:
    """Directory of ``<cell-key>.json`` experiment records.

    Each record carries the cell spec alongside the result, so a store
    is self-describing: a record can be audited (which exact grid cell
    produced this number?) or re-keyed by future schema migrations.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Corrupt records moved aside by reads/verify this session.
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _load(self, path: Path):
        """Parse, integrity-check and decode one record file.

        Raises ``OSError`` (typically ``FileNotFoundError``) when the
        file cannot be read at all, and :class:`StoreCorruption` when
        it reads but is truncated, garbled, lacks or fails its
        checksum, or does not decode into a known result type.
        """
        try:
            record = json.loads(path.read_text())
        except ValueError as error:
            raise StoreCorruption(
                f"unparseable record {path.name}: {error}"
            ) from None
        if not isinstance(record, dict) or "result" not in record:
            raise StoreCorruption(f"record {path.name} lacks a result payload")
        if record.get("sha256") != _checksum(record["result"]):
            raise StoreCorruption(f"record {path.name} fails its checksum")
        try:
            result_type = _result_types()[record.get("kind")]
            return result_type.from_dict(record["result"])
        except (ValueError, KeyError, TypeError) as error:
            raise StoreCorruption(
                f"record {path.name} does not decode: "
                f"{type(error).__name__}: {error}"
            ) from None

    def _quarantine(self, path: Path) -> Path | None:
        """Move a corrupt record into ``quarantine/`` (never raises)."""
        qdir = self.root / "quarantine"
        target = qdir / f"{path.name}.corrupt"
        suffix = 0
        while target.exists():
            suffix += 1
            target = qdir / f"{path.name}.corrupt.{suffix}"
        try:
            qdir.mkdir(exist_ok=True)
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing reader already moved it
            return None
        self.quarantined += 1
        return target

    def get(self, key: str) -> ExperimentResult | None:
        """Load the cached result for ``key``, or None on a miss.

        A missing record is a plain miss. A record that exists but is
        corrupt — truncated/garbage JSON, a missing or failed checksum,
        a payload that does not decode — is sidecar-quarantined and
        *then* treated as a miss: the cell re-simulates and the rewritten
        record replaces the bad one, while the corrupt bytes stay
        inspectable under ``quarantine/``.
        """
        path = self._path(key)
        try:
            return self._load(path)
        except OSError:
            return None
        except StoreCorruption:
            self._quarantine(path)
            return None

    def put(self, key: str, result: ExperimentResult,
            spec: ExperimentSpec | None = None) -> None:
        """Persist ``result`` under ``key``, atomically.

        The record is serialized to a temp file in the same directory
        and moved into place with ``os.replace``, so readers (and
        concurrent sweeps sharing the store) only ever observe a
        complete record — an interrupted writer can never leave a
        truncated JSON file that poisons later cache hits. The temp
        name carries the writer's PID so concurrent puts of one key
        never interleave, and a failed write cleans its temp file up.
        """
        payload = result.as_dict()
        record = {
            "key": key,
            "kind": result.result_kind,
            "sha256": _checksum(payload),
            "spec": spec.as_dict() if spec is not None else None,
            "result": payload,
        }
        path = self._path(key)
        if chaos.torn_write(key):
            # Injected fault: the on-disk state a crash mid-write would
            # leave — a truncated record at the *final* path, which the
            # checksum-verified read must quarantine, not trust.
            blob = json.dumps(record, indent=1, sort_keys=True)
            path.write_text(blob[: max(1, len(blob) // 2)])
            return
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def verify(self, quarantine: bool = True) -> dict:
        """Integrity-check every record; optionally quarantine bad ones.

        Returns a report dict: ``checked``/``ok`` counts and a
        ``corrupt`` list of ``{"file", "error"}`` entries. With
        ``quarantine=True`` (the default, what ``repro store verify``
        uses) corrupt records are moved into ``quarantine/`` so the
        next sweep re-simulates those cells.
        """
        report: dict = {"checked": 0, "ok": 0, "corrupt": []}
        for path in sorted(self.root.glob("*.json")):
            report["checked"] += 1
            try:
                self._load(path)
            except OSError as error:  # pragma: no cover - racing delete
                report["corrupt"].append(
                    {"file": path.name, "error": f"unreadable: {error}"}
                )
                continue
            except StoreCorruption as error:
                report["corrupt"].append({"file": path.name, "error": str(error)})
                if quarantine:
                    self._quarantine(path)
                continue
            report["ok"] += 1
        return report

    def gc(self) -> dict:
        """Delete quarantined records and orphaned temp files.

        Returns ``{"quarantine_removed": n, "tmp_removed": n}``. Temp
        files are leftovers of writers that died between creating the
        temp and the atomic replace; quarantined records have already
        been re-simulated (or will be, as misses), so both are safe to
        drop.
        """
        removed = {"quarantine_removed": 0, "tmp_removed": 0}
        qdir = self.root / "quarantine"
        if qdir.is_dir():
            for path in qdir.iterdir():
                path.unlink(missing_ok=True)
                removed["quarantine_removed"] += 1
            try:
                qdir.rmdir()
            except OSError:  # pragma: no cover - new arrivals mid-gc
                pass
        for tmp in self.root.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
            removed["tmp_removed"] += 1
        return removed

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
