"""Deterministic fault injection for the SUPG execution stack.

Chaos testing a system whose core guarantee is *bit-exact
reproducibility* needs faults that are themselves reproducible: the
same :class:`FaultPlan` seed must fail the same oracle calls, kill the
same worker, and corrupt the same store file on every run.  This module is
that harness.  It owns three seams the production code calls
unconditionally (each is a no-op unless a plan is active):

- **Oracle faults** — :func:`wrap_label_fn` interposes on every label
  function the pipeline builds.  Under an active plan, each oracle
  call draws from the plan's seeded stream and either raises
  :class:`~repro.oracle.retry.TransientOracleError` or hangs for
  ``hang_seconds`` at the configured rates.  Faults fire *before* the
  underlying lookup, so a failed call reveals no labels and charges no
  budget — matching the real-world failure it simulates.
- **Worker kills** — :func:`maybe_kill_worker`, called by fork-pool
  workers at the top of each batch.  When the plan names one of the
  batch's execution indices, the worker hard-exits (``os._exit``, no
  cleanup — a genuine crash).  A cross-process latch file makes the
  kill fire exactly once, and the installing (parent) process is never
  killed.
- **Store-file corruption** — :func:`corrupt_statistic` truncates or
  garbles a chosen ``stat-*.npy`` file in a store directory (a backend
  statistic or a dataset's label column), exercising the quarantine
  path.

Activate a plan with the :func:`inject` context manager::

    with inject(FaultPlan(seed=3, oracle_failure_rate=0.2, kill_execution=1)):
        executions = engine.execute_many(statements, jobs=2)

Activation is process-wide via a module global, which fork workers
inherit — the seams check it at *call* time, so oracles constructed
before ``inject`` entered are still covered.  :class:`FaultyOracle`
wraps a label function against an explicit plan for direct use in
tests that don't want the global seam.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .oracle.retry import TransientOracleError

__all__ = [
    "FaultPlan",
    "FaultyOracle",
    "inject",
    "active_plan",
    "wrap_label_fn",
    "maybe_kill_worker",
    "corrupt_statistic",
]

#: The currently injected plan, or ``None``.  Module-global so that a
#: plan activated in the parent is inherited by forked workers.
_ACTIVE: "FaultPlan | None" = None


@dataclass
class FaultPlan:
    """Seeded description of which faults to inject.

    Attributes:
        seed: drives the per-call fault stream; the same seed faults
            the same sequence of oracle calls (per process — forked
            workers inherit the stream position at fork time and then
            advance independently, which is still deterministic for a
            fixed execution schedule).
        oracle_failure_rate: probability each oracle call raises
            :class:`~repro.oracle.retry.TransientOracleError`.
        oracle_hang_rate: probability each oracle call sleeps
            ``hang_seconds`` before answering (exercises timeouts).
        hang_seconds: how long a hung call sleeps.
        kill_execution: execution index whose fork worker hard-exits
            (once, enforced by a cross-process latch); ``None`` kills
            nobody.
        kill_exit_code: exit status of the killed worker.
        outage_calls: simulate a hard oracle outage — the *first* this
            many oracle calls fail unconditionally (before the seeded
            rate stream is consulted), then the outage lifts.  This is
            the deterministic way to trip a circuit breaker: a rate
            faults calls probabilistically, an outage guarantees N
            consecutive failures followed by recovery.
    """

    seed: int = 0
    oracle_failure_rate: float = 0.0
    oracle_hang_rate: float = 0.0
    hang_seconds: float = 30.0
    kill_execution: int | None = None
    kill_exit_code: int = 17
    outage_calls: int = 0

    faults_injected: int = field(default=0, init=False, compare=False)
    hangs_injected: int = field(default=0, init=False, compare=False)
    outages_injected: int = field(default=0, init=False, compare=False)
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)
    _lock: threading.Lock = field(init=False, repr=False, compare=False)
    _install_pid: int | None = field(default=None, init=False, repr=False, compare=False)
    _latch_dir: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("oracle_failure_rate", "oracle_hang_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.oracle_failure_rate + self.oracle_hang_rate > 1.0:
            raise ValueError("oracle failure and hang rates must sum to at most 1")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be non-negative, got {self.hang_seconds}")
        if self.outage_calls < 0:
            raise ValueError(f"outage_calls must be non-negative, got {self.outage_calls}")
        self._rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()

    # -- seam hooks ------------------------------------------------------------

    def maybe_fault(self) -> None:
        """One draw from the fault stream; hangs or raises per the rates.

        An ``outage_calls`` window is consumed first and
        unconditionally, *without* advancing the seeded rate stream, so
        adding an outage leaves the rate faults of the remaining calls
        exactly where they were.
        """
        if self.outage_calls > 0:
            outage = 0
            with self._lock:
                if self.outages_injected < self.outage_calls:
                    self.outages_injected += 1
                    outage = self.outages_injected
            if outage:
                raise TransientOracleError(
                    f"injected oracle outage call #{outage} of {self.outage_calls}"
                )
        if self.oracle_failure_rate <= 0.0 and self.oracle_hang_rate <= 0.0:
            return
        with self._lock:
            draw = float(self._rng.uniform())
            hang = draw < self.oracle_hang_rate
            fail = (not hang) and draw < self.oracle_hang_rate + self.oracle_failure_rate
            if hang:
                self.hangs_injected += 1
            if fail:
                self.faults_injected += 1
                count = self.faults_injected
        if hang:
            time.sleep(self.hang_seconds)
        elif fail:
            raise TransientOracleError(f"injected oracle fault #{count}")

    @property
    def worker_killed(self) -> bool:
        """Whether the one-shot worker kill has fired (in any process)."""
        if self._latch_dir is None:
            return False
        return os.path.exists(os.path.join(self._latch_dir, "worker-killed"))

    # -- activation ------------------------------------------------------------

    def _install(self) -> None:
        self._install_pid = os.getpid()
        # Reset the stream on every activation so one plan object can be
        # reused across runs with identical behavior.
        self._rng = np.random.default_rng(self.seed)
        self.faults_injected = 0
        self.hangs_injected = 0
        self.outages_injected = 0
        if self.kill_execution is not None and self._latch_dir is None:
            self._latch_dir = tempfile.mkdtemp(prefix="repro-faults-")

    def _uninstall(self) -> None:
        if self._latch_dir is not None:
            shutil.rmtree(self._latch_dir, ignore_errors=True)
            self._latch_dir = None
        self._install_pid = None


class FaultyOracle:
    """A label function faulted against an explicit plan.

    For direct use in tests; production code goes through the
    :func:`wrap_label_fn` seam and the :func:`inject` global instead.
    Callable and exposing ``query`` so it can stand in for either a
    label function or a ``BudgetedOracle``-style object.
    """

    def __init__(self, label_fn: Callable[[np.ndarray], np.ndarray], plan: FaultPlan) -> None:
        self._label_fn = label_fn
        self.plan = plan

    def query(self, indices: np.ndarray) -> np.ndarray:
        self.plan.maybe_fault()
        return self._label_fn(indices)

    __call__ = query


def active_plan() -> FaultPlan | None:
    """The currently injected plan, if any."""
    return _ACTIVE


@contextlib.contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` process-wide for the duration of the block.

    Nestable (the previous plan is restored on exit).  Forked workers
    started inside the block inherit the active plan.
    """
    global _ACTIVE
    previous = _ACTIVE
    plan._install()
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous
        plan._uninstall()


def wrap_label_fn(label_fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Interpose the oracle-fault seam on a label function.

    The active plan is consulted at call time, so wrapping is always
    safe (and free when no plan is injected) regardless of construction
    order relative to :func:`inject`.
    """

    def faulty(indices: np.ndarray) -> np.ndarray:
        plan = _ACTIVE
        if plan is not None:
            plan.maybe_fault()
        return label_fn(indices)

    return faulty


def maybe_kill_worker(execution_indices: Iterable[int]) -> None:
    """Worker-kill seam, called by fork-pool workers per batch.

    Hard-exits the calling process when the active plan's
    ``kill_execution`` is among ``execution_indices`` — but never the
    process that installed the plan (the parent must survive to
    recover), and never more than once across all workers (atomic
    ``O_CREAT | O_EXCL`` latch file).
    """
    plan = _ACTIVE
    if plan is None or plan.kill_execution is None or plan._latch_dir is None:
        return
    if int(plan.kill_execution) not in {int(i) for i in execution_indices}:
        return
    if plan._install_pid is None or os.getpid() == plan._install_pid:
        return
    latch = os.path.join(plan._latch_dir, "worker-killed")
    try:
        fd = os.open(latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    except OSError:
        return
    os.close(fd)
    os._exit(plan.kill_exit_code)


def corrupt_statistic(
    store_dir: str | os.PathLike, which: int = 0, mode: str = "truncate"
) -> Path:
    """Damage one statistic file in a store directory.

    Its next open detects the damage (header parse or metadata
    validation) and quarantines the file with a reason report: the disk
    statistics backend rebuilds the statistic from the source scores,
    and the sample store starts the label column again empty — the
    chaos gates assert that recovery is byte-identical.

    Args:
        store_dir: the persistent store directory.
        which: index into the directory's ``stat-*.npy`` files, sorted
            by name.
        mode: ``"truncate"`` keeps the leading third of the file;
            ``"garbage"`` replaces the contents with non-npy bytes.
    """
    from .core.stats_backend import STAT_FILE_GLOB  # deferred: avoids import cycles

    paths = sorted(Path(store_dir).expanduser().glob(STAT_FILE_GLOB))
    if not paths:
        raise FileNotFoundError(f"no backend statistic files in {store_dir}")
    if not 0 <= which < len(paths):
        raise IndexError(f"statistic index {which} out of range (have {len(paths)})")
    path = paths[which]
    if mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 3)])
    elif mode == "garbage":
        path.write_bytes(b"this is not an npy statistic\n")
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path
