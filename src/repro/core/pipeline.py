"""Staged selection pipeline: plan → draw_sample → estimate_tau → materialize.

Every SUPG selector runs the same outer loop (Algorithm 1): draw a
labeled sample, estimate a threshold from it, and materialize the union
of labeled positives and above-threshold records.  The pre-pipeline
code fused those stages inside each ``Selector.select()`` call, which
forced every gamma point of a sweep, every query against an engine
session, and every sweep cell to re-draw and re-label an oracle sample
that is *target-independent* for most selectors.

This module provides the coordination layer that unfuses them:

- :class:`SampleStore` — a keyed LRU cache of
  :class:`~repro.sampling.designs.LabeledSample` objects.  The key is
  ``(dataset fingerprint, sampling design, seed)``; any two selector
  runs sharing that key would have drawn bit-identical samples, so
  serving one cached draw to both is exactly equivalent to the
  pre-pipeline behavior while paying the sampling + labeling cost once.
- :class:`ExecutionContext` — the per-session handle that selectors,
  the experiment runner, and the query engine thread through their
  calls.  It owns a store and the ground-truth labeler used to fill it.
- :class:`StageRuntime` — the per-``select()`` execution state.  Every
  selection (store-backed or not, built-in oracle or custom) runs the
  same staged code; the runtime decides per draw whether a design is
  served from the context's store or drawn fresh, and keeps the random
  stream bit-exact across the two cases.
- :func:`materialize_selection` — the final stage, reconstructing the
  :class:`~repro.core.types.SelectionResult` accounting (labeled
  positives, budget charge, sampled-set diagnostics) from the samples
  that were actually used.

The store only ever holds samples labeled from a dataset's built-in
ground truth.  Draws under a custom oracle (user UDFs, the joint
algorithm's unbudgeted shared oracle, explicitly passed
``BudgetedOracle`` instances) or a generator seed run through the same
staged code but never enter the store — the runtime simply draws them
fresh.

Persistent tier
---------------

The paper's operational cost model charges per *distinct labeled
record* (Table 5: $0.08 per human label), so a labeled sample is worth
real money beyond the process that drew it.  Constructing a
:class:`SampleStore` with ``store_dir`` adds a disk tier: every fresh
draw is spilled to ``store_dir`` as an atomic, format-versioned
``.npz`` file keyed by (dataset fingerprint, design, seed), and a
memory miss consults the directory before touching the oracle.
Separate processes — parallel sweep-cell workers, repeated CLI
invocations, CI runs — thereby share one pool of oracle labels.  Spill
files that are truncated, corrupt, version-mismatched, or keyed to a
different dataset are never served: the store falls back to a fresh
draw and moves the defective file into ``<store_dir>/quarantine/``
alongside a ``*.reason.json`` report, so operators can see *that* and
*why* labels were re-paid (``repro store ls`` surfaces both).

Fault tolerance
---------------

Constructing a store (or :class:`StageRuntime`) with a
:class:`~repro.oracle.retry.RetryPolicy` wraps every oracle label
lookup in a :class:`~repro.oracle.retry.RetryingOracle`.  The wrapper
sits *below* budget and cache accounting and the sampling stream is
consumed before the oracle is called, so a retried draw is bit-identical
to an unfaulted one and labels are charged exactly once.  All label
functions also pass through the :func:`repro.faults.wrap_label_fn`
seam, which is inert unless a fault-injection plan is active.

Constructing the store with ``max_disk_bytes`` caps the spill
directory: after each spill, the oldest spill files (by modification
time) are evicted until the directory fits the cap, which keeps
long-lived label caches operable.  ``repro store ls`` / ``repro store
clear`` inspect and empty a directory from the CLI, backed by the
:meth:`SampleStore.disk_entries`, :meth:`SampleStore.disk_usage`, and
:meth:`SampleStore.clear_disk` helpers; cumulative cross-process
counters (spills, disk hits, evictions) are kept best-effort in a
``store-stats.json`` sidecar.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import os
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from ..faults import wrap_label_fn
from ..oracle.base import BudgetedOracle
from ..oracle.retry import RetryPolicy, RetryingOracle
from ..sampling.designs import LabeledSample, LabelFn, SampleDesign, draw_labeled_sample
from .forksafe import ForkSafeLock
from .types import SelectionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets import Dataset

__all__ = [
    "SampleStore",
    "ExecutionContext",
    "StageRuntime",
    "materialize_selection",
    "ground_truth_labeler",
    "label_tally",
    "quarantine_file",
]

#: Default LRU capacity: at the paper-scale budget of 10k draws a cached
#: sample is ~250 KB, so the default bounds the store near 64 MB.
DEFAULT_MAX_ENTRIES = 256

#: Version stamp of the on-disk spill format.  Readers reject any other
#: version (falling back to a fresh draw), so the format can evolve
#: without ever serving stale-layout labels.
SPILL_FORMAT_VERSION = 1

#: Filename pattern of spill files inside a ``store_dir``.
SPILL_GLOB = "sample-*.npz"

#: Subdirectory of a ``store_dir`` holding quarantined (defective)
#: spill and statistic files and their ``*.reason.json`` reports.
#: Outside the root-level globs, so quarantined files are invisible to
#: loading, eviction, and usage accounting.
QUARANTINE_DIRNAME = "quarantine"

#: Sidecar file holding best-effort cumulative counters for a
#: ``store_dir`` (spills, disk hits, evictions) across processes.
STATS_FILENAME = "store-stats.json"

#: The :func:`label_tally` open in the current thread, or ``None``.
_TALLY: "contextvars.ContextVar[dict[str, int] | None]" = contextvars.ContextVar(
    "label_tally", default=None
)


@contextlib.contextmanager
def label_tally() -> Iterator[dict[str, int]]:
    """Count the labels that this thread's store fetches draw and are served.

    Yields ``{"labels_drawn": 0, "labels_saved": 0}``.  Until the block
    exits, every :meth:`SampleStore.fetch` made on this thread adds to
    it exactly what it adds to its store's own counters.  A service
    window opens one around its prewarm and its executions, so its
    record counts its own work even while concurrent windows share the
    store.  Fetches inside forked workers count into the worker's copy,
    which dies with the worker, as the store's own counts do.
    """
    counts = {"labels_drawn": 0, "labels_saved": 0}
    token = _TALLY.set(counts)
    try:
        yield counts
    finally:
        _TALLY.reset(token)


def quarantine_file(path: Path, reason: str, **report: object) -> bool:
    """Move a defective store file into ``quarantine/`` beside it.

    The file keeps its name and gains a ``<name>.reason.json`` report
    holding its name, ``reason``, the time, and any extra ``report``
    fields; ``repro store ls`` lists both.  Best-effort: returns
    ``False`` when the move or the report fails, and the caller applies
    its own fallback.
    """
    quarantine_dir = path.parent / QUARANTINE_DIRNAME
    try:
        quarantine_dir.mkdir(exist_ok=True)
        target = quarantine_dir / path.name
        os.replace(path, target)
        payload = {"file": path.name, "reason": reason, "quarantined_at": time.time(), **report}
        target.with_name(target.name + ".reason.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
    except OSError:
        return False
    return True


def ground_truth_labeler(dataset: "Dataset") -> LabelFn:
    """Label function reading a dataset's built-in ground truth.

    Returns the same values ``BudgetedOracle.query`` would for the
    default ``oracle_from_labels`` oracle, without budget bookkeeping —
    the store path reconstructs budget accounting from the sample.
    """

    def label(indices: np.ndarray) -> np.ndarray:
        return dataset.labels[np.asarray(indices, dtype=np.intp)]

    return label


def _json_safe(value):
    """JSON fallback for numpy scalars/arrays inside generator state."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")  # pragma: no cover


class SampleStore:
    """Keyed LRU cache of labeled oracle samples, optionally disk-backed.

    Key: ``(dataset.fingerprint, SampleDesign, seed)``.  A hit returns
    the stored :class:`LabeledSample` without touching the oracle or
    the random generator; a miss draws with a fresh
    ``np.random.default_rng(seed)`` — the exact generator construction
    the legacy path uses — labels from ground truth, and caches.

    With ``store_dir`` set, a memory miss first consults the persistent
    tier: a valid spill file for the key is loaded (no oracle labels
    drawn) and promoted into the LRU, and every fresh draw is spilled
    back so later processes can reuse it.  Spill writes are atomic
    (temp file + ``os.replace``), so concurrent workers sharing one
    directory are safe; spill reads validate the format version and the
    full key before trusting a file.

    Counters expose the oracle-usage accounting the reuse tests pin:

    - ``hits`` / ``misses`` — memory-tier lookups; a gamma sweep over a
      sample-reusable selector must record exactly one miss per
      (dataset, seed, budget).
    - ``disk_hits`` / ``disk_errors`` — persistent-tier loads and
      rejected (corrupt/mismatched) spill files.
    - ``labels_drawn`` — distinct oracle labels actually paid for.
    - ``labels_saved`` — labels a store-oblivious run would have drawn
      again (the cost-model savings vs the naive per-call draw).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        store_dir: str | os.PathLike | None = None,
        max_disk_bytes: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_disk_bytes is not None and max_disk_bytes <= 0:
            raise ValueError(f"max_disk_bytes must be positive or None, got {max_disk_bytes}")
        if max_disk_bytes is not None and store_dir is None:
            raise ValueError("max_disk_bytes requires a store_dir")
        self.max_entries = max_entries
        self.max_disk_bytes = max_disk_bytes
        self.retry_policy = retry_policy
        self.store_dir = Path(store_dir).expanduser() if store_dir is not None else None
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[tuple, LabeledSample] = OrderedDict()
        # Concurrent plan windows share one store; the LRU dict, its
        # counters, and the draw-or-load decision mutate together, so
        # the public entry points serialize on one reentrant lock.
        # Fork-safe: window threads may hold it while another window
        # forks a worker pool (see repro.core.forksafe).
        self._lock = ForkSafeLock()
        self._cap_warning_emitted = False
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_errors = 0
        self.disk_evictions = 0
        self.quarantined = 0
        self.oracle_retries = 0
        self.labels_drawn = 0
        self.labels_saved = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate memory held by cached samples."""
        return sum(sample.nbytes for sample in self._entries.values())

    def fetch(self, dataset: "Dataset", design: SampleDesign, seed: int) -> LabeledSample:
        """Return the labeled sample for (dataset, design, seed), drawing on miss.

        Thread-safe, and deliberately coarse about it: the lock is held
        across a miss's oracle draw, so two windows racing on the same
        key draw once and hit once — the cost-model invariant (one
        payment per distinct key) holds under concurrency, at the price
        of serializing concurrent *distinct* fresh draws.  Windows over
        warm keys are unaffected (hits hold the lock for microseconds).
        """
        key = (dataset.fingerprint, design, int(seed))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._charge(saved=entry.oracle_calls)
                return entry
            if self.store_dir is not None:
                spilled = self._load_spill(dataset.fingerprint, design, int(seed))
                if spilled is not None:
                    self.disk_hits += 1
                    self._charge(saved=spilled.oracle_calls)
                    self._insert(key, spilled)
                    self._bump_persistent_stats(disk_hits=1)
                    return spilled
            rng = np.random.default_rng(int(seed))
            sample = self._draw_fresh(design, dataset, rng)
            self.misses += 1
            self._charge(drawn=sample.oracle_calls)
            self._insert(key, sample)
            if self.store_dir is not None:
                self._write_spill(dataset.fingerprint, design, int(seed), sample)
            return sample

    def _charge(self, drawn: int = 0, saved: int = 0) -> None:
        """Count labels drawn and served, here and in the
        :func:`label_tally` open in this thread, if any."""
        self.labels_drawn += drawn
        self.labels_saved += saved
        tally = _TALLY.get()
        if tally is not None:
            tally["labels_drawn"] += drawn
            tally["labels_saved"] += saved

    def locate(self, fingerprint: str, design: SampleDesign, seed: int) -> str | None:
        """Which tier could serve a key right now, without drawing.

        Returns ``"memory"``, ``"disk"`` (a spill file exists for the
        key — contents are validated only when actually loaded), or
        ``None``.  This is what lets a batch plan be diffed against a
        live store (:meth:`repro.core.planning.QueryPlan.warm_keys`)
        before any oracle label is paid for.
        """
        key = (fingerprint, design, int(seed))
        with self._lock:
            if key in self._entries:
                return "memory"
        if self.store_dir is not None and self._spill_path(fingerprint, design, int(seed)).exists():
            return "disk"
        return None

    def _draw_fresh(
        self, design: SampleDesign, dataset: "Dataset", rng: np.random.Generator
    ) -> LabeledSample:
        """One oracle draw through the fault seam and the retry policy.

        The retry wrapper sees only the label lookup: the design's draw
        consumed ``rng`` before any oracle call, so retries never touch
        the sampling stream and a recovered draw is bit-identical to an
        unfaulted one.  A draw that exhausts the policy raises
        :class:`~repro.oracle.retry.OracleUnavailableError` with no
        counters charged and nothing cached.
        """
        label_fn = wrap_label_fn(ground_truth_labeler(dataset))
        retrier = None
        if self.retry_policy is not None:
            retrier = RetryingOracle(label_fn, self.retry_policy)
            label_fn = retrier.query
        try:
            return draw_labeled_sample(design, dataset, rng, label_fn)
        finally:
            if retrier is not None:
                self.oracle_retries += retrier.retries_used

    def _insert(self, key: tuple, sample: LabeledSample) -> None:
        self._entries[key] = sample
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def forget(self, fingerprint: str) -> int:
        """Drop the in-memory samples of one dataset content; returns how many.

        For a table that was replaced: its samples could only ever be
        served to the same content again, so they would sit in the LRU
        until evicted.  Counters and spill files persist, as in
        :meth:`clear`.
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] == fingerprint]
            for key in stale:
                del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        """Drop every in-memory sample (counters and spill files persist).

        The disk tier is intentionally untouched: its invalidation rule
        is content-based (keys embed the dataset fingerprint), so stale
        entries can never be served and explicit deletion of
        ``store_dir`` is the only cleanup ever needed.
        """
        with self._lock:
            self._entries.clear()

    def stats(self) -> Mapping[str, int]:
        """Consistent snapshot of the reuse counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "disk_errors": self.disk_errors,
                "disk_evictions": self.disk_evictions,
                "quarantined": self.quarantined,
                "oracle_retries": self.oracle_retries,
                "labels_drawn": self.labels_drawn,
                "labels_saved": self.labels_saved,
                "nbytes": self.nbytes,
            }

    # -- persistent tier -------------------------------------------------------

    @staticmethod
    def _key_meta(fingerprint: str, design: SampleDesign, seed: int) -> dict:
        # Coerce every field to a plain JSON scalar: design fields may
        # arrive as numpy types (budgets off np.arange, exponents off
        # np.linspace), which json.dumps rejects and which would
        # otherwise defeat the loaded-key equality check.
        return {
            "fingerprint": str(fingerprint),
            "design": {
                "kind": str(design.kind),
                "budget": int(design.budget),
                "exponent": None if design.exponent is None else float(design.exponent),
                "mixing": None if design.mixing is None else float(design.mixing),
                "replace": bool(design.replace),
            },
            "seed": int(seed),
        }

    def _spill_path(self, fingerprint: str, design: SampleDesign, seed: int) -> Path:
        key_json = json.dumps(self._key_meta(fingerprint, design, seed), sort_keys=True)
        digest = hashlib.sha256(key_json.encode()).hexdigest()[:40]
        return self.store_dir / f"sample-{digest}.npz"

    def _write_spill(
        self, fingerprint: str, design: SampleDesign, seed: int, sample: LabeledSample
    ) -> None:
        """Atomically persist one labeled sample; failures are non-fatal
        (the disk tier is an optimization, never a correctness
        dependency)."""
        path = self._spill_path(fingerprint, design, seed)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    format_version=np.int64(SPILL_FORMAT_VERSION),
                    key=np.array(
                        json.dumps(self._key_meta(fingerprint, design, seed), sort_keys=True)
                    ),
                    rng_state=np.array(json.dumps(dict(sample.rng_state), default=_json_safe)),
                    indices=np.asarray(sample.indices),
                    scores=np.asarray(sample.scores),
                    labels=np.asarray(sample.labels),
                    mass=np.asarray(sample.mass),
                )
            os.replace(tmp, path)
        except OSError:
            self.disk_errors += 1
            tmp.unlink(missing_ok=True)
            return
        self._bump_persistent_stats(spills=1, labels_spilled=sample.oracle_calls)
        self._evict_spills(keep=path)

    def _load_spill(
        self, fingerprint: str, design: SampleDesign, seed: int
    ) -> LabeledSample | None:
        """Load a spilled sample, or ``None`` when absent or unusable.

        Any defect — unreadable archive, missing fields, format-version
        or key mismatch, misaligned arrays — downgrades to a fresh draw
        and quarantines the file (it can never be served, so leaving it
        in place would re-reject it on every lookup and hide the defect
        from operators).
        """
        path = self._spill_path(fingerprint, design, seed)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
                if int(payload["format_version"]) != SPILL_FORMAT_VERSION:
                    raise ValueError("spill format version mismatch")
                key_meta = json.loads(str(payload["key"][()]))
                if key_meta != self._key_meta(fingerprint, design, seed):
                    # A file whose embedded key disagrees with its path
                    # (copied/renamed spill, hash collision) must never
                    # serve its labels to this key.
                    raise ValueError("spill key mismatch")
                indices = np.asarray(payload["indices"])
                scores = np.asarray(payload["scores"])
                labels = np.asarray(payload["labels"])
                mass = np.asarray(payload["mass"])
                if not (indices.shape == scores.shape == labels.shape == mass.shape):
                    raise ValueError("misaligned spill arrays")
                if indices.size != design.budget:
                    raise ValueError("spill size disagrees with design budget")
                rng_state = json.loads(str(payload["rng_state"][()]))
        except Exception as exc:
            self.disk_errors += 1
            self._quarantine(path, fingerprint, design, seed, exc)
            return None
        return LabeledSample(
            design=design,
            indices=indices,
            scores=scores,
            labels=labels,
            mass=mass,
            rng_state=rng_state,
        )

    def _quarantine(
        self,
        path: Path,
        fingerprint: str,
        design: SampleDesign,
        seed: int,
        defect: Exception,
    ) -> None:
        """Move a defective spill to ``quarantine/`` with a reason report.

        Best-effort: if the move itself fails (permissions, the file
        vanished under a concurrent worker) the fresh-draw fallback has
        already happened and nothing else is at stake.
        """
        reason = str(defect) or type(defect).__name__
        expected_key = self._key_meta(fingerprint, design, seed)
        if quarantine_file(path, reason, expected_key=expected_key):
            self.quarantined += 1
            self._bump_persistent_stats(quarantined=1)

    @staticmethod
    def quarantine_entries(store_dir: str | os.PathLike) -> list[dict]:
        """Quarantined spill files in a directory, oldest first.

        Each entry maps ``path`` / ``bytes`` / ``mtime`` / ``reason``
        (``None`` when the reason report is missing or unreadable).
        """
        from .stats_backend import STAT_FILE_GLOB

        directory = Path(store_dir).expanduser() / QUARANTINE_DIRNAME
        entries: list[dict] = []
        # Spill quarantine and statistic-file quarantine share the
        # directory and the reason-report convention.
        for path in (*directory.glob(SPILL_GLOB), *directory.glob(STAT_FILE_GLOB)):
            try:
                stat = path.stat()
            except OSError:
                continue
            reason = None
            report = path.with_name(path.name + ".reason.json")
            try:
                payload = json.loads(report.read_text())
                if isinstance(payload, dict):
                    reason = payload.get("reason")
            except (OSError, ValueError):
                pass
            entries.append(
                {"path": path, "bytes": stat.st_size, "mtime": stat.st_mtime, "reason": reason}
            )
        entries.sort(key=lambda entry: (entry["mtime"], entry["path"].name))
        return entries

    # -- disk-tier management --------------------------------------------------

    def _evict_spills(self, keep: Path | None = None) -> None:
        """Oldest-spill eviction: shrink the directory under the cap.

        The spill just written (``keep``) is never evicted: when
        ``max_disk_bytes`` is smaller than a single spill, the naive
        policy would delete every spill the moment it lands — each
        draw pays the write, the next process re-draws, and the tier
        never serves a hit.  Keeping the newest spill means the cap can
        be transiently exceeded by at most one file, which is warned
        about once (the cap is clearly misconfigured for the workload).

        Best-effort under concurrency — a file deleted by another
        worker mid-scan is simply skipped, and the cap is re-checked
        on every spill, so transient overshoot self-corrects.
        """
        if self.max_disk_bytes is None or self.store_dir is None:
            return
        entries = self.disk_entries(self.store_dir, include_keys=False)
        total = sum(entry["bytes"] for entry in entries)
        evicted = 0
        for entry in entries:  # disk_entries sorts oldest-first
            if total <= self.max_disk_bytes:
                break
            if keep is not None and entry["path"] == keep:
                continue
            try:
                entry["path"].unlink()
            except OSError:
                continue
            total -= entry["bytes"]
            evicted += 1
        if evicted:
            self.disk_evictions += evicted
            self._bump_persistent_stats(evictions=evicted)
        if total > self.max_disk_bytes and not self._cap_warning_emitted:
            self._cap_warning_emitted = True
            warnings.warn(
                f"max_disk_bytes={self.max_disk_bytes} is smaller than a single "
                f"spill ({total} bytes on disk after eviction); the newest spill "
                "is kept so the disk tier stays useful — raise the cap to honor it",
                RuntimeWarning,
                stacklevel=4,
            )

    def _bump_persistent_stats(self, **deltas: int) -> None:
        """Best-effort cumulative counters in ``store-stats.json``.

        Atomic replace keeps the file parseable under concurrent
        writers; simultaneous increments may be lost (last writer
        wins), which is acceptable for an advisory inspection aid.
        """
        if self.store_dir is None:
            return
        path = self.store_dir / STATS_FILENAME
        try:
            stats = json.loads(path.read_text()) if path.exists() else {}
            if not isinstance(stats, dict):
                stats = {}
            for key, delta in deltas.items():
                stats[key] = int(stats.get(key, 0)) + int(delta)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(stats, sort_keys=True))
            os.replace(tmp, path)
        except (OSError, ValueError):
            pass

    @staticmethod
    def persistent_stats(store_dir: str | os.PathLike) -> Mapping[str, int]:
        """Cumulative cross-process counters recorded for a directory."""
        path = Path(store_dir).expanduser() / STATS_FILENAME
        try:
            stats = json.loads(path.read_text())
        except (OSError, ValueError):
            return {}
        return stats if isinstance(stats, dict) else {}

    @staticmethod
    def disk_entries(
        store_dir: str | os.PathLike, include_keys: bool = True
    ) -> list[dict]:
        """Spill files in a directory, oldest first.

        Each entry maps ``path`` / ``bytes`` / ``mtime`` plus, when
        ``include_keys`` is set and the file is readable, its embedded
        ``key`` metadata (dataset fingerprint, design fields, seed).
        Unreadable files still appear (with ``key=None``) so
        ``repro store ls`` accounts for every byte on disk.

        ``include_keys=False`` stats files without opening them — what
        eviction, usage totals, and ``clear_disk`` use, so those stay
        O(files) stat calls instead of O(files) archive reads.
        """
        directory = Path(store_dir).expanduser()
        entries: list[dict] = []
        for path in directory.glob(SPILL_GLOB):
            try:
                stat = path.stat()
            except OSError:
                continue
            key = None
            if include_keys:
                try:
                    with np.load(path, allow_pickle=False) as payload:
                        key = json.loads(str(payload["key"][()]))
                except Exception:
                    pass
            entries.append(
                {"path": path, "bytes": stat.st_size, "mtime": stat.st_mtime, "key": key}
            )
        entries.sort(key=lambda entry: (entry["mtime"], entry["path"].name))
        return entries

    @classmethod
    def disk_usage(cls, store_dir: str | os.PathLike) -> Mapping[str, int]:
        """Total spill-file count and bytes for a directory."""
        entries = cls.disk_entries(store_dir, include_keys=False)
        return {
            "files": len(entries),
            "total_bytes": sum(entry["bytes"] for entry in entries),
        }

    @classmethod
    def clear_disk(cls, store_dir: str | os.PathLike) -> Mapping[str, int]:
        """Delete every spill file (and the stats sidecar) in a directory.

        Backend statistic files (``stat-*.npy`` plus their
        ``.meta.json`` sidecars, written by the disk statistics backend)
        are cleared too: they are derivable statistics, not labeled
        data, so "clear the store" should leave nothing behind.  Only
        files this repo wrote are touched — foreign files in the
        directory are left alone.  Returns the removed count and bytes.
        """
        from .stats_backend import statistic_files

        removed = 0
        freed = 0
        for entry in cls.disk_entries(store_dir, include_keys=False):
            try:
                entry["path"].unlink()
            except OSError:
                continue
            removed += 1
            freed += entry["bytes"]
        for path in statistic_files(store_dir):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        for entry in cls.quarantine_entries(store_dir):
            report = entry["path"].with_name(entry["path"].name + ".reason.json")
            try:
                entry["path"].unlink()
            except OSError:
                continue
            report.unlink(missing_ok=True)
            removed += 1
            freed += entry["bytes"]
        try:
            (Path(store_dir).expanduser() / QUARANTINE_DIRNAME).rmdir()
        except OSError:
            pass
        stats_path = Path(store_dir).expanduser() / STATS_FILENAME
        try:
            stats_path.unlink()
        except OSError:
            pass
        return {"files_removed": removed, "bytes_freed": freed}


@dataclass
class ExecutionContext:
    """Session state threaded through staged selections.

    One context per logical session — a gamma sweep, a sweep-cell
    worker, a long-lived :class:`~repro.query.engine.SupgEngine` — so
    every selection inside the session shares the same
    :class:`SampleStore`.

    Attributes:
        store: the shared labeled-sample cache.
    """

    store: SampleStore = field(default_factory=SampleStore)

    @property
    def retry_policy(self) -> RetryPolicy | None:
        """The session's oracle retry policy (owned by the store, which
        is the single component every oracle-touching path shares)."""
        return self.store.retry_policy

    def fetch(self, dataset: "Dataset", design: SampleDesign, seed: int) -> LabeledSample:
        """Stage ``draw_sample`` with store-backed reuse."""
        return self.store.fetch(dataset, design, seed)

    def labeler(self, dataset: "Dataset") -> LabelFn:
        """Ground-truth label access for non-cacheable stages (e.g. the
        gamma-dependent stage 2 of Algorithm 5), fault-seamed and
        retried like every other oracle path."""
        label_fn = wrap_label_fn(ground_truth_labeler(dataset))
        if self.retry_policy is not None:
            label_fn = RetryingOracle(label_fn, self.retry_policy).query
        return label_fn

    def select(self, selector, dataset: "Dataset", seed: int = 0) -> SelectionResult:
        """Run one staged selection inside this session."""
        return selector.select(dataset, seed=seed, context=self)

    def stats(self) -> Mapping[str, int]:
        """Reuse counters of the underlying store."""
        return self.store.stats()


class StageRuntime:
    """Execution state for one ``Selector.select()`` call.

    The runtime is what makes a *single* staged execution path serve
    every calling convention.  ``Selector._execute_stages`` asks it for
    draws (:meth:`draw`), oracle labels outside a design
    (:meth:`label`), and the random stream (:attr:`rng`); the runtime
    decides, per call, whether a design is served from a context's
    sample store or drawn fresh:

    - **Store-backed** — a context was given, no custom oracle, and the
      seed is an integer (generator objects cannot key a cache).
      Draws come from ``context.fetch`` and the runtime resumes its
      random stream from the sample's recorded post-draw state, so a
      later gamma-dependent stage (Algorithm 5's stage 2) consumes
      randomness bit-identically to a fresh draw.
    - **Fresh** — otherwise.  Draws consume :attr:`rng` directly and
      labels come from the custom oracle when one was passed (user
      UDFs, the joint algorithm's shared unbudgeted oracle) or from a
      budget-enforcing oracle over the dataset's ground truth, so a
      selection can never reveal more labels than ``budget`` — any
      over-draw raises
      :class:`~repro.oracle.BudgetExhaustedError` before new labels
      leak.  (Store-served draws skip the check, as always: a cached
      sample's budget was enforced when it was first drawn.)

    Both modes produce bit-identical selections; only the caching
    differs.
    """

    def __init__(
        self,
        dataset: "Dataset",
        seed: int | np.random.Generator = 0,
        oracle=None,
        context: ExecutionContext | None = None,
        budget: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.dataset = dataset
        self.seed = seed
        cacheable = (
            context is not None
            and oracle is None
            and isinstance(seed, (int, np.integer))
        )
        self._context = context if cacheable else None
        if retry_policy is None and context is not None:
            retry_policy = context.retry_policy
        if oracle is None:
            # Build the default budget-enforcing oracle over ground
            # truth, with the fault seam and the retry policy *below*
            # the budget layer: a retried lookup reveals its labels (and
            # charges the budget) exactly once, on the attempt that
            # succeeds.
            lookup = wrap_label_fn(ground_truth_labeler(dataset))
            if retry_policy is not None:
                lookup = RetryingOracle(lookup, retry_policy).query
            oracle = BudgetedOracle(lookup, budget=budget)
        self._label_fn: LabelFn = oracle.query
        self._rng: np.random.Generator | None = None
        self._resume_state: Mapping[str, object] | None = None

    @property
    def store_backed(self) -> bool:
        """Whether designed draws are served from a shared sample store."""
        return self._context is not None

    @property
    def rng(self) -> np.random.Generator:
        """The selection's random stream.

        Constructed lazily from the seed exactly as every prior code
        path did (``np.random.default_rng(seed)``; a passed generator
        is used as-is).  After a store-served draw the stream resumes
        from the sample's recorded post-draw state, keeping later
        stages bit-identical to the fresh-draw execution.
        """
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        if self._resume_state is not None:
            self._rng.bit_generator.state = self._resume_state
            self._resume_state = None
        return self._rng

    def draw(self, design: SampleDesign) -> LabeledSample:
        """Stage ``draw_sample``: fetch or draw one designed sample."""
        if self._context is not None:
            sample = self._context.fetch(self.dataset, design, int(self.seed))
            self._resume_state = sample.rng_state
            return sample
        return draw_labeled_sample(design, self.dataset, self.rng, self._label_fn)

    def label(self, indices: np.ndarray) -> np.ndarray:
        """Oracle labels for draws no :class:`SampleDesign` describes
        (e.g. Algorithm 5's gamma-dependent region sample) — such
        labels never enter a store."""
        return np.asarray(self._label_fn(indices))


def _union_sorted_unique(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set union for inputs that are already sorted and distinct.

    numpy's general set-union re-sorts the concatenation —
    O((|a|+|b|) log(|a|+|b|)) — on every call; here ``a`` (labeled
    positives, bounded by the oracle budget) is typically tiny next to
    ``b`` (the thresholded selection), so a searchsorted merge is ~10x
    cheaper per materialization and returns the identical array.
    """
    if a.size == 0:
        return b
    if b.size == 0:
        return a.copy()
    positions = np.searchsorted(b, a)
    hit = np.minimum(positions, b.size - 1)
    novel = b[hit] != a
    return np.insert(b, positions[novel], a[novel])


def materialize_selection(
    dataset: "Dataset",
    tau: float,
    samples: Iterable[LabeledSample],
    details: Mapping[str, object],
) -> SelectionResult:
    """Final stage: assemble Algorithm 1's ``R = R1 ∪ R2`` and accounting.

    Reconstructs exactly what a budget-enforcing
    :class:`~repro.oracle.BudgetedOracle` would report for the same
    draws: labeled positives (``R1``), the sorted distinct sampled set,
    and the per-record budget charge — all derivable from the samples
    that were actually used, which is what makes store-served
    selections bit-identical to fresh-draw ones.  The per-sample
    distinct sets come from the samples' caches, so replaying a
    store-served sample across a gamma axis or a method panel pays
    their unique passes once.

    The ``R2`` half (``dataset.select_above(tau)``) skips through the
    dataset's zone map when one exists (:mod:`repro.core.zonemap`):
    instead of an O(n) boolean mask, it binary-searches the stratum
    bounds and materializes only the boundary stratum plus the
    cumulative tail of the sorted order — byte-identical output,
    O(selected) work.
    """
    sample_list = tuple(samples)
    sampled = sample_list[0].distinct_indices
    positives = sample_list[0].distinct_positives
    for sample in sample_list[1:]:
        sampled = _union_sorted_unique(sample.distinct_indices, sampled)
        positives = _union_sorted_unique(sample.distinct_positives, positives)
    combined = _union_sorted_unique(positives, dataset.select_above(tau))
    return SelectionResult(
        indices=combined,
        tau=tau,
        oracle_calls=int(sampled.size),
        sampled_indices=sampled,
        details=dict(details),
    )
