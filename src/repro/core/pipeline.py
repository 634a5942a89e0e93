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
  It also builds every ground-truth label lookup of its session
  (:meth:`SampleStore.labeler`).
- :class:`ExecutionContext` — the per-session handle that selectors,
  the experiment runner, and the query engine thread through their
  calls.  It owns a store.
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

Persistent tier: one label column per dataset
---------------------------------------------

The paper's operational cost model charges per *distinct labeled
record* (Table 5: $0.08 per human label), so a label is worth real
money beyond the process that paid for it.  A :class:`SampleStore`
constructed with ``store_dir`` keeps one oracle label column per
dataset there: ``stat-<fp16>-labels.npy``, one ``int8`` per record,
``-1`` until some lookup pays for the record's label.  Every
ground-truth lookup of the session — store draws, Algorithm 5's
stage-2 samples, service windows, fork workers — reads the labels the
column knows and sends only the unknown records to the oracle, then
writes their labels back.  Samples themselves are not persisted: a
redraw from the cached inverse CDF is cheap, so a second process on a
warm directory redraws the same records and pays no labels.

The column is a statistic file in the disk backend's format
(:mod:`repro.core.stats_backend`): created atomically with a
``.meta.json`` sidecar, validated on open (fingerprint, record count,
dtype, and every value in {-1, 0, 1}), quarantined into
``<store_dir>/quarantine/`` with a reason report when it fails, and
mapped shared and writable.  It takes no lock: each byte is either
-1 or the true label, so racing writers — concurrent windows, fork
workers writing through the inherited mapping, other processes — can
only write the truth.  A torn write can lose labels, never serve a
wrong one.

Fault tolerance
---------------

Constructing a store with a :class:`~repro.oracle.retry.RetryPolicy`
wraps every oracle label lookup in a
:class:`~repro.oracle.retry.RetryingOracle`.  The wrapper sits *below*
budget, cache and column accounting, and the sampling stream is
consumed before the oracle is called, so a retried draw is
bit-identical to an unfaulted one and labels are charged exactly once.
All label functions also pass through the
:func:`repro.faults.wrap_label_fn` seam, which is inert unless a
fault-injection plan is active.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np
from numpy.lib.format import open_memmap

from ..faults import wrap_label_fn
from ..metrics import sorted_distinct
from ..oracle.base import BudgetedOracle
from ..oracle.retry import RetryPolicy, RetryingOracle
from ..sampling.designs import LabeledSample, LabelFn, SampleDesign, draw_labeled_sample
from .forksafe import ForkSafeLock
from .stats_backend import (
    LABELS_STAT,
    QUARANTINE_DIRNAME,
    STAT_FILE_GLOB,
    StaleStatistic,
    finalize_statistic,
    open_statistic,
    quarantine_statistic,
    scratch_path,
    stat_filename,
    statistic_files,
)
from .types import SelectionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets import Dataset

__all__ = [
    "SampleStore",
    "LabelLookup",
    "ExecutionContext",
    "StageRuntime",
    "materialize_selection",
    "ground_truth_labeler",
    "label_tally",
]

#: Default LRU capacity: at the paper-scale budget of 10k draws a cached
#: sample is ~250 KB, so the default bounds the store near 64 MB.
DEFAULT_MAX_ENTRIES = 256

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


def ground_truth_labeler(dataset: "Dataset") -> LabelFn:
    """Label function reading a dataset's built-in ground truth.

    Returns the same values ``BudgetedOracle.query`` would for the
    default ``oracle_from_labels`` oracle, without budget bookkeeping —
    the store path reconstructs budget accounting from the sample.
    """

    def label(indices: np.ndarray) -> np.ndarray:
        return dataset.labels[np.asarray(indices, dtype=np.intp)]

    return label


def _read_column(path: Path, dataset: "Dataset", mode: str) -> np.ndarray | None:
    """A dataset's validated label column, or ``None`` when there is none.

    Raises :class:`~repro.core.stats_backend.StaleStatistic` for a file
    of another dataset, record count or dtype, a truncated file, or one
    holding any value outside {-1, 0, 1}.
    """
    opened = open_statistic(path, dataset.fingerprint, dataset.size, np.int8, mode=mode)
    if opened is None:
        return None
    column = opened[0].view(np.ndarray)
    if column.min() < -1 or column.max() > 1:
        raise StaleStatistic("label column holds a value outside {-1, 0, 1}")
    return column


class LabelLookup:
    """Ground-truth labels for one draw or one selection.

    Callable like any label function.  ``oracle`` is the chain below it
    (retry policy, fault seam, :func:`ground_truth_labeler`).  Without a
    ``column`` the lookup is that chain.  With one, it answers the
    records the column knows, sends each distinct unknown record down
    the chain once, and writes the answers back; ``paid`` counts those
    records.
    """

    def __init__(
        self,
        oracle: LabelFn,
        column: np.ndarray | None,
        retrier: RetryingOracle | None = None,
    ) -> None:
        self.oracle = oracle
        self.column = column
        self.retrier = retrier
        self.paid = 0

    def __call__(self, indices: np.ndarray) -> np.ndarray:
        column = self.column
        if column is None:
            return self.oracle(indices)
        indices = np.asarray(indices, dtype=np.intp)
        labels = column[indices]
        unknown = labels < 0
        if unknown.any():
            asked = indices[unknown]
            missing = sorted_distinct(asked)
            answers = np.asarray(self.oracle(missing), dtype=np.int8)
            column[missing] = answers
            labels[unknown] = answers[np.searchsorted(missing, asked)]
            self.paid += int(missing.size)
        return labels


class SampleStore:
    """Keyed LRU cache of labeled oracle samples, over an optional label column.

    Key: ``(dataset.fingerprint, SampleDesign, seed)``.  A hit returns
    the stored :class:`LabeledSample` without touching the oracle or
    the random generator; a miss draws with a fresh
    ``np.random.default_rng(seed)`` — the exact generator construction
    the legacy path uses — labels it through :meth:`labeler`, and
    caches it.

    With ``store_dir`` set, :meth:`labeler` reads and fills each
    dataset's persistent label column (see the module docstring), so a
    miss pays only for the records no earlier lookup — in this process
    or another — has labeled.

    Counters expose the oracle-usage accounting the reuse tests pin:

    - ``hits`` / ``misses`` — memory-tier lookups; a gamma sweep over a
      sample-reusable selector must record exactly one miss per
      (dataset, seed, budget).
    - ``quarantined`` — label columns set aside as defective.
    - ``labels_drawn`` — distinct oracle labels the store's designed
      draws actually paid for.
    - ``labels_saved`` — labels a store-oblivious run would have paid
      for again: every label of a memory hit, and on a miss the records
      whose label the column already held.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        store_dir: str | os.PathLike | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.retry_policy = retry_policy
        self.store_dir = Path(store_dir).expanduser() if store_dir is not None else None
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[tuple, LabeledSample] = OrderedDict()
        #: fingerprint -> the dataset's open label column, or ``None``
        #: when the directory could not hold one.
        self._columns: dict[str, np.ndarray | None] = {}
        # Concurrent plan windows share one store; the LRU dict, its
        # counters, and the draw decision mutate together, so the public
        # entry points serialize on one reentrant lock.  Fork-safe:
        # window threads may hold it while another window forks a
        # worker pool (see repro.core.forksafe).
        self._lock = ForkSafeLock()
        self.hits = 0
        self.misses = 0
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
            rng = np.random.default_rng(int(seed))
            sample, paid = self._draw_fresh(design, dataset, rng)
            self.misses += 1
            self._charge(drawn=paid, saved=sample.oracle_calls - paid)
            self._insert(key, sample)
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
        """``"memory"`` when the store holds the key's sample, else ``None``.

        This is what lets a batch plan be diffed against a live store
        (:meth:`repro.core.planning.QueryPlan.warm_keys`) before any
        oracle label is paid for.  What a draw of a cold key would pay
        is :meth:`unknown_records` of its records.
        """
        with self._lock:
            return "memory" if (fingerprint, design, int(seed)) in self._entries else None

    def labeler(self, dataset: "Dataset") -> LabelLookup:
        """The session's ground-truth label lookup, built per call.

        From the inside out: :func:`ground_truth_labeler` (looked up on
        this module at call time, so a replaced attribute takes effect),
        the fault seam (:func:`repro.faults.wrap_label_fn`), the retry
        policy, and — with a ``store_dir`` — the dataset's label column,
        which sends only the records it does not know down that chain.
        Callers put it below any
        :class:`~repro.oracle.base.BudgetedOracle`, so budget charges
        do not change.  Custom oracles never come here.
        """
        label_fn = wrap_label_fn(ground_truth_labeler(dataset))
        retrier = None
        if self.retry_policy is not None:
            retrier = RetryingOracle(label_fn, self.retry_policy)
            label_fn = retrier.query
        return LabelLookup(label_fn, self.label_column(dataset), retrier)

    def label_column(self, dataset: "Dataset") -> np.ndarray | None:
        """The dataset's label column, or ``None`` without a ``store_dir``.

        Opened once per store, so fork workers inherit one shared,
        writable mapping: open it in the parent before a fan-out
        (:meth:`repro.core.planning.QueryPlan.prewarm` does).  A file
        that fails validation is quarantined once (``quarantined`` += 1)
        and the column starts again empty.  Also ``None`` when the column
        cannot be created or mapped writable; lookups then go to the
        oracle.
        """
        if self.store_dir is None:
            return None
        with self._lock:
            if dataset.fingerprint not in self._columns:
                self._columns[dataset.fingerprint] = self._open_column(dataset)
            return self._columns[dataset.fingerprint]

    def _open_column(self, dataset: "Dataset") -> np.ndarray | None:
        path = self.store_dir / stat_filename(dataset.fingerprint, LABELS_STAT)
        try:
            column = _read_column(path, dataset, "r+")
        except StaleStatistic as exc:
            column = None
            self.quarantined += 1
            quarantine_statistic(path, str(exc))
        except OSError:  # valid, but not writable here
            return None
        if column is not None:
            return column
        tmp = scratch_path(self.store_dir, LABELS_STAT)
        try:
            empty = open_memmap(tmp, mode="w+", dtype=np.int8, shape=(dataset.size,))
            empty.fill(-1)
            empty.flush()
            del empty
            finalize_statistic(
                tmp, path, dataset.fingerprint, LABELS_STAT, dataset.size, np.int8
            )
            return _read_column(path, dataset, "r+")
        except (OSError, StaleStatistic):
            return None
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()

    def unknown_records(self, dataset: "Dataset", indices: np.ndarray) -> np.ndarray:
        """The distinct ``indices`` whose label the column lacks, sorted.

        What a draw of those records would pay.  Reads the column
        without creating or repairing it; with no usable column every
        record is unknown.
        """
        records = sorted_distinct(np.asarray(indices, dtype=np.intp))
        column = self._columns.get(dataset.fingerprint)
        if column is None and self.store_dir is not None:
            path = self.store_dir / stat_filename(dataset.fingerprint, LABELS_STAT)
            with contextlib.suppress(StaleStatistic):
                column = _read_column(path, dataset, "r")
        if column is None:
            return records
        return records[column[records] < 0]

    def _draw_fresh(
        self, design: SampleDesign, dataset: "Dataset", rng: np.random.Generator
    ) -> tuple[LabeledSample, int]:
        """One designed draw through :meth:`labeler`, and the labels it paid.

        The retry wrapper sees only the label lookup: the design's draw
        consumed ``rng`` before any oracle call, so retries never touch
        the sampling stream and a recovered draw is bit-identical to an
        unfaulted one.  A draw that exhausts the policy raises
        :class:`~repro.oracle.retry.OracleUnavailableError` with no
        counters charged and nothing cached.
        """
        lookup = self.labeler(dataset)
        try:
            sample = draw_labeled_sample(design, dataset, rng, lookup)
        finally:
            if lookup.retrier is not None:
                self.oracle_retries += lookup.retrier.retries_used
        return sample, sample.oracle_calls if lookup.column is None else lookup.paid

    def _insert(self, key: tuple, sample: LabeledSample) -> None:
        self._entries[key] = sample
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def forget(self, fingerprint: str) -> int:
        """Drop the in-memory samples of one dataset content; returns how many.

        For a table that was replaced: its samples could only ever be
        served to the same content again, so they would sit in the LRU
        until evicted.  Its label column is closed here and stays on
        disk; counters persist, as in :meth:`clear`.
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] == fingerprint]
            for key in stale:
                del self._entries[key]
            self._columns.pop(fingerprint, None)
        return len(stale)

    def clear(self) -> None:
        """Drop every in-memory sample (counters and label columns persist).

        The label columns are intentionally untouched: they are keyed by
        dataset fingerprint, so no column can serve another content's
        labels, and ``repro store clear`` is the only cleanup needed.
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
                "quarantined": self.quarantined,
                "oracle_retries": self.oracle_retries,
                "labels_drawn": self.labels_drawn,
                "labels_saved": self.labels_saved,
                "nbytes": self.nbytes,
            }

    # -- store-directory management -------------------------------------------

    @staticmethod
    def quarantine_entries(store_dir: str | os.PathLike) -> list[dict]:
        """Quarantined statistic files in a directory, oldest first.

        Each entry maps ``path`` / ``bytes`` / ``mtime`` / ``reason``
        (``None`` when the reason report is missing or unreadable).
        """
        directory = Path(store_dir).expanduser() / QUARANTINE_DIRNAME
        entries: list[dict] = []
        for path in directory.glob(STAT_FILE_GLOB):
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

    @classmethod
    def clear_disk(cls, store_dir: str | os.PathLike) -> Mapping[str, int]:
        """Delete every statistic file, label column and quarantined file.

        Only files this repo wrote are touched — foreign files in the
        directory are left alone.  Returns the removed count and bytes.
        """
        removed = 0
        freed = 0
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

    With a context and no custom oracle, that ground truth comes
    through the store's :meth:`SampleStore.labeler` (label column,
    retry policy, fault seam); without a context, through the fault
    seam alone.  Both modes produce bit-identical selections; only the
    caching differs.
    """

    def __init__(
        self,
        dataset: "Dataset",
        seed: int | np.random.Generator = 0,
        oracle=None,
        context: ExecutionContext | None = None,
        budget: int | None = None,
    ) -> None:
        self.dataset = dataset
        self.seed = seed
        cacheable = (
            context is not None
            and oracle is None
            and isinstance(seed, (int, np.integer))
        )
        self._context = context if cacheable else None
        if oracle is None:
            # The budget layer sits above the lookup's retry policy and
            # fault seam: a retried lookup reveals its labels (and
            # charges the budget) exactly once, on the attempt that
            # succeeds.
            if context is not None:
                lookup = context.store.labeler(dataset)
            else:
                lookup = wrap_label_fn(ground_truth_labeler(dataset))
            oracle = BudgetedOracle(lookup, budget=budget)
        self._label_fn: LabelFn = oracle.query
        self._rng: np.random.Generator | None = None
        self._resume_state: Mapping[str, object] | None = None

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
        samples never enter a store, though their labels enter its
        label column."""
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
    instead of an O(n) boolean mask, it reads the bucket order's run of
    every score bucket above tau's, plus tau's own bucket filtered by
    score — byte-identical output, O(selected) work.
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
