"""Continuously running SUPG service: admission queue + plan windows.

:class:`~repro.query.engine.SupgEngine` executes one query (or one
*static* batch) per call.  A production deployment looks different:
queries arrive continuously from concurrent clients, and the paper's
cost model — charge per distinct labeled record — rewards any two
in-flight queries that can legally share an oracle draw.  This module
adds the admission/scheduling layer that makes such sharing happen
without any client coordinating with any other, in the spirit of
GraftDB's dynamic folding of concurrent analytical queries: arrivals
are queued, batched into *plan windows*, and each window is compiled
through the batch planner so queries sharing a
``(dataset fingerprint × SampleDesign × seed)`` group pay for exactly
one oracle draw.

The moving parts:

- :class:`SupgService` — owns a long-lived engine and a scheduler
  thread.  :meth:`~SupgService.submit` enqueues one statement and
  returns immediately with a :class:`SubmitTicket`.
- **Plan windows** — the scheduler closes the open window when it
  holds ``max_window_queries`` statements *or* ``max_window_ms`` has
  elapsed since the window's first arrival, whichever comes first.  A
  closed window is compiled, grouped via
  :func:`~repro.core.planning.plan_executions`, pre-drawn (each
  distinct design exactly once), then executed, with results routed
  back to each submitter's ticket.
- **Late folding** — after a window's groups are pre-drawn but before
  it executes, arrivals still sitting in the queue whose group is
  already warm are folded into the executing window
  (:meth:`~repro.core.planning.QueryPlan.fold`) instead of waiting for
  the next one: their draw is already paid for, so folding them is
  free labels and lower latency.

Results are bit-identical to a sequential ``engine.execute()`` loop
over the same statements in arrival order: window membership only
decides *when* a query runs and which draws are shared, never what any
query returns.

Overload behavior
-----------------

Admission is bounded and failure under load is *typed*, never silent:

- ``max_queue_depth`` caps the pending queue.  A full queue resolves
  per the ``admission`` mode: ``"block"`` (wait for space, up to
  ``admission_timeout_s``, then raise :class:`AdmissionRejected`),
  ``"reject"`` (raise :class:`AdmissionRejected` immediately, with a
  ``retry_after_hint``), or ``"shed_oldest"`` (fail the oldest queued
  *batch-lane* ticket with :class:`QueryShedError` and admit the new
  arrival).  All three paths are counted in :meth:`session_stats`
  (``admitted`` / ``rejected`` / ``shed`` / ``blocked_ms``).
- Tickets carry a ``client_id`` and a ``lane`` (``"interactive"`` or
  ``"batch"``).  Window membership is chosen by equal-weight
  round-robin across clients, so one flooding client cannot starve
  others, and the scheduler dispatches at most
  :data:`MAX_INTERACTIVE_STALENESS` batch windows while an interactive
  ticket is pending — the interactive lane's bounded-staleness
  guarantee.
- With ``max_inflight_windows > 1``, windows over disjoint
  ``(table, seed)`` groups execute concurrently on worker threads,
  each budgeted a fair share of the service's ``jobs`` via
  :func:`~repro.core.planning.worker_share`.
- An optional :class:`~repro.oracle.retry.OracleCircuitBreaker` trips
  after N consecutive :class:`~repro.oracle.retry.OracleUnavailableError`
  draws; while open, windows fail fast with typed errors instead of
  burning every ticket's full retry budget, and half-open probes
  re-close the breaker once the oracle recovers.
- ``window_log`` is a ring buffer (``window_log_limit`` records) with
  monotonic cumulative counters, so a week-long serve run does not
  grow memory without bound; :meth:`health` snapshots queue depth,
  inflight windows, breaker state, and per-lane latency percentiles.

Failure semantics
-----------------

Sharing a window must never mean sharing a failure.  The isolation
rules, outermost first:

- A statement that fails — selector error, budget exhaustion, a
  permanently unavailable oracle — fails only its *own* ticket, with a
  :class:`QueryError` carrying the window id and the underlying cause.
  Window-mates proceed normally.  (Compile-time errors such as an
  unknown table surface raw, exactly as ``engine.execute()`` would
  raise them.)
- A prewarm draw that fails takes down only the executions that
  needed that draw; the window's other groups still warm and execute.
- A fork worker that dies mid-window is detected
  (``BrokenProcessPool``) by :func:`~repro.core.planning.fan_out`, the
  recovery path every fork fan-out shares, and its groups are
  re-executed sequentially in the parent from the already pre-drawn
  store — bit-identical results, logged as ``recovered_groups``.
- With ``window_deadline_s`` set, a window that hangs past the
  deadline is abandoned: its unfinished tickets fail with a
  :class:`QueryError` and the scheduler moves on.
- If the scheduler thread itself dies, every queued and in-flight
  ticket is failed with the scheduler's exception — ``result()``
  never blocks forever on a dead service — and later ``submit()``
  calls raise immediately.
- ``close(drain=True, timeout=...)`` bounds the final drain; whatever
  is still unfinished when the timeout expires fails with a
  :class:`QueryError` instead of blocking shutdown.

Example::

    engine = SupgEngine(store_dir="/var/cache/supg")
    engine.register_table("frames", dataset)
    with SupgService(engine, max_window_queries=8, max_window_ms=25.0) as service:
        tickets = [service.submit(sql) for sql in statements]
        rows = [ticket.result(timeout=60.0) for ticket in tickets]
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..core.pipeline import label_tally
from ..core.planning import effective_workers, resolve_n_jobs, worker_share
from ..oracle.retry import (
    CircuitOpenError,
    OracleCircuitBreaker,
    OracleUnavailableError,
)
from .engine import QueryExecution, SupgEngine
from .parser import parse_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ast import ParsedQuery

__all__ = [
    "SupgService",
    "SubmitTicket",
    "QueryError",
    "QueryShedError",
    "AdmissionRejected",
]

#: Default window-close thresholds: small enough that an interactive
#: client never waits noticeably, large enough that a burst of
#: concurrent submissions lands in one window.
DEFAULT_WINDOW_QUERIES = 8
DEFAULT_WINDOW_MS = 25.0

#: Ring-buffer capacity for per-window records (cumulative counters
#: keep counting past it).
DEFAULT_WINDOW_LOG_LIMIT = 512

#: ``client_id`` of submissions that pass none.
DEFAULT_CLIENT = "default"

#: K in the interactive lane's bounded-staleness guarantee: at most K
#: batch windows are dispatched while an interactive ticket waits.
MAX_INTERACTIVE_STALENESS = 1

#: Per-lane latency samples kept for the health snapshot's percentiles.
LANE_LATENCY_SAMPLES = 2048

#: The two scheduling lanes a ticket may ride.
LANES = ("interactive", "batch")

#: Admission modes for a full queue.
ADMISSION_MODES = ("block", "reject", "shed_oldest")

#: The counts in every :attr:`SupgService.window_log` record; a window
#: that did not get as far as some of them logs 0 for those.
WINDOW_COUNTS = (
    "queries",
    "errors",
    "distinct_draws",
    "queries_folded",
    "late_folded",
    "warm_draws",
    "labels_drawn",
    "labels_saved",
    "bytes_shipped",
    "stats_inherited",
    "recovered_groups",
)


class QueryError(RuntimeError):
    """One query's failure, isolated to its own ticket.

    Embeds the underlying cause's message (so existing ``match=``
    patterns keep working) and carries structured context for
    programmatic handling.

    Attributes:
        number: the failed query's submission number, when known.
        window: index into :attr:`SupgService.window_log` of the window
            that failed it, when known.
        phase: where the failure happened (``"planning"``,
            ``"execution"``, ``"deadline"``, ``"scheduler"``,
            ``"shutdown"``, ``"admission"``, ``"breaker"``,
            ``"cancelled"``).
        cause: the underlying exception, when one exists (also chained
            as ``__cause__``).
    """

    def __init__(
        self,
        message: str,
        number: int | None = None,
        window: int | None = None,
        phase: str | None = None,
        cause: BaseException | None = None,
    ) -> None:
        super().__init__(message)
        self.number = number
        self.window = window
        self.phase = phase
        self.cause = cause
        if cause is not None:
            self.__cause__ = cause

    @classmethod
    def wrap(
        cls,
        cause: BaseException,
        number: int | None = None,
        window: int | None = None,
        phase: str = "execution",
    ) -> "QueryError":
        """Wrap an underlying failure with query/window context."""
        return cls(
            f"query #{number} failed during {phase} in window {window}: {cause}",
            number=number,
            window=window,
            phase=phase,
            cause=cause,
        )


class QueryShedError(QueryError):
    """A queued ticket sacrificed under overload (``shed_oldest``).

    The shed query never executed; resubmitting it is always safe.
    """


class AdmissionRejected(RuntimeError):
    """``submit()`` refused a statement because the queue is full.

    Raised in the *submitting* client (no ticket exists), so callers
    can apply backpressure — wait ``retry_after_hint`` seconds and
    resubmit.

    Attributes:
        queue_depth: pending statements at rejection time.
        retry_after_hint: suggested wait before resubmitting, in
            seconds (roughly one plan window).
    """

    def __init__(
        self, message: str, queue_depth: int = 0, retry_after_hint: float = 0.0
    ) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.retry_after_hint = retry_after_hint


class SubmitTicket:
    """Future-style handle for one submitted query.

    Returned immediately by :meth:`SupgService.submit`; the result
    arrives when the query's plan window executes.

    Attributes:
        number: the service-wide submission number (arrival order).
        sql: the submitted statement text.
        client_id: the submitting client's identity (fairness unit).
        lane: ``"interactive"`` or ``"batch"``.
        window: index of the plan window that served the query (into
            :attr:`SupgService.window_log`), set on completion.
        state: where the query is in its lifecycle — ``"queued"``
            (waiting for a window), ``"executing"`` (its window is
            running), ``"folded"`` (absorbed late into an executing
            window), ``"cancelled"``, ``"done"``.  Included in timeout
            errors so a hung ``result()`` call says what it was
            waiting on.
    """

    def __init__(
        self,
        number: int,
        sql: str,
        client_id: str = "default",
        lane: str = "batch",
    ) -> None:
        self.number = number
        self.sql = sql
        self.client_id = client_id
        self.lane = lane
        self.window: int | None = None
        self.state = "queued"
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: QueryExecution | None = None
        self._exception: BaseException | None = None
        self._dispatched = False
        self._cancel_hook: Callable[[], None] | None = None

    def done(self) -> bool:
        """Whether the query has finished (successfully or not)."""
        return self._event.is_set()

    def cancel(self) -> bool:
        """Cancel the query if it has not been dispatched to a window.

        Returns ``True`` when the cancellation won: the ticket resolves
        immediately with a :class:`QueryError` (``phase="cancelled"``),
        the statement never executes, and the service counts it in
        ``session_stats()["cancelled"]``.  Returns ``False`` once the
        query is already in flight (or finished) — an executing window
        cannot be unwound.
        """
        with self._lock:
            if self._event.is_set() or self._dispatched:
                return False
            self.state = "cancelled"
            self._exception = QueryError(
                f"query #{self.number} cancelled before dispatch",
                number=self.number,
                phase="cancelled",
            )
            self._event.set()
        # Outside the ticket lock: the hook takes the service's arrival
        # lock, and the scheduler takes ticket locks *under* it — the
        # release above is what keeps the orderings acyclic.
        hook = self._cancel_hook
        if hook is not None:
            hook()
        return True

    def _mark_dispatched(self) -> bool:
        """Claim the ticket for a window; loses to an earlier cancel."""
        with self._lock:
            if self.state == "cancelled" or self._event.is_set():
                return False
            self._dispatched = True
            return True

    def _timeout_error(self, timeout: float | None) -> TimeoutError:
        return TimeoutError(
            f"query #{self.number} did not complete within {timeout}s "
            f"(state: {self.state})"
        )

    def result(self, timeout: float | None = None) -> QueryExecution:
        """Block until the window executes; return the execution.

        Raises:
            TimeoutError: the window did not complete within ``timeout``
                seconds; the message includes the ticket's current
                :attr:`state`.
            Exception: whatever the execution itself raised.
        """
        if not self._event.wait(timeout):
            raise self._timeout_error(timeout)
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until done; return the error (or ``None`` on success)."""
        if not self._event.wait(timeout):
            raise self._timeout_error(timeout)
        return self._exception

    def _finish(
        self,
        result: QueryExecution | None = None,
        error: BaseException | None = None,
        window: int | None = None,
    ) -> bool:
        """Resolve the ticket; idempotent (the first resolution wins).

        Idempotence is what makes the failure paths composable: a
        deadline abandonment, a scheduler-crash sweep, a cancel, and
        the (possibly still running) window execution may all try to
        finish the same ticket, and exactly one of them succeeds.
        """
        with self._lock:
            if self._event.is_set():
                return False
            self._result = result
            self._exception = error
            self.window = window
            self.state = "done"
            self._event.set()
            return True


@dataclass
class _Submission:
    """One queued query: parsed statement plus its execution parameters."""

    parsed: "ParsedQuery"
    seed: int
    method: str | None
    stage_budget: int
    selector_kwargs: Mapping[str, object]
    ticket: SubmitTicket
    client_id: str = "default"
    lane: str = "batch"
    arrived: float = field(default_factory=time.monotonic)


class _Window(list):
    """One window's submissions, with its log index and abandoned flag.

    The scheduler forms it and files this same object in ``_inflight``;
    late folds join it under ``_arrival``.  So every failure sweep —
    the deadline, the dispatch handlers, ``close(timeout=)`` and the
    scheduler crash guard — reaches folded tickets too, and the deadline
    record reuses the window's own index.
    """

    def __init__(self, submissions: list[_Submission], index: int) -> None:
        super().__init__(submissions)
        self.index = index
        self.abandoned = threading.Event()


class SupgService:
    """Admission queue over a long-lived engine, batching into plan windows.

    Args:
        engine: the engine to serve (register its tables and UDFs
            before submitting queries).  The service owns the engine's
            execution schedule, not its registrations.
        max_window_queries: close the open window once it holds this
            many statements.
        max_window_ms: close the open window this many milliseconds
            after its first statement arrived, even if not full.
        jobs: worker processes for each window's group fan-out
            (``-1`` = all cores; ``None``/``1`` = in-thread).  With
            concurrent windows the budget is split across them via
            :func:`~repro.core.planning.worker_share`.  On platforms
            without ``fork`` the service warns once and runs windows
            sequentially.
        default_seed: seed for submissions that do not pass one.
        stage_budget: stage-1/2 budget for joint-target queries.
        window_deadline_s: wall-clock budget for one window's
            planning + execution; a window still running past it is
            abandoned (its unfinished tickets fail with
            :class:`QueryError`) and the scheduler moves on.  ``None``
            (the default) never aborts.
        max_queue_depth: cap on queued (not yet dispatched)
            submissions; ``None`` (the default) admits unboundedly.
        admission: what a full queue does to ``submit()`` —
            ``"block"`` (default), ``"reject"``, or ``"shed_oldest"``.
        admission_timeout_s: how long ``"block"`` admission waits for
            queue space before raising :class:`AdmissionRejected`;
            ``None`` waits forever.
        default_lane: lane for submissions that pass none
            (``"batch"``).
        max_inflight_windows: windows executing concurrently (worker
            threads); windows sharing a coarse ``(table, seed)`` group
            never overlap.  ``1`` (the default) executes windows
            in-line on the scheduler thread.
        window_log_limit: ring-buffer capacity of :attr:`window_log`.
        breaker: optional
            :class:`~repro.oracle.retry.OracleCircuitBreaker` guarding
            the oracle-touching prewarm path.
    """

    def __init__(
        self,
        engine: SupgEngine,
        max_window_queries: int = DEFAULT_WINDOW_QUERIES,
        max_window_ms: float = DEFAULT_WINDOW_MS,
        jobs: int | None = None,
        default_seed: int = 0,
        stage_budget: int = 1000,
        window_deadline_s: float | None = None,
        max_queue_depth: int | None = None,
        admission: str = "block",
        admission_timeout_s: float | None = 30.0,
        default_lane: str = "batch",
        max_inflight_windows: int = 1,
        window_log_limit: int = DEFAULT_WINDOW_LOG_LIMIT,
        breaker: OracleCircuitBreaker | None = None,
    ) -> None:
        if max_window_queries <= 0:
            raise ValueError(
                f"max_window_queries must be positive, got {max_window_queries}"
            )
        if max_window_ms <= 0:
            raise ValueError(f"max_window_ms must be positive, got {max_window_ms}")
        if window_deadline_s is not None and window_deadline_s <= 0:
            raise ValueError(
                f"window_deadline_s must be positive or None, got {window_deadline_s}"
            )
        if max_queue_depth is not None and max_queue_depth <= 0:
            raise ValueError(
                f"max_queue_depth must be positive or None, got {max_queue_depth}"
            )
        if admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}, got {admission!r}"
            )
        if admission_timeout_s is not None and admission_timeout_s <= 0:
            raise ValueError(
                "admission_timeout_s must be positive or None, "
                f"got {admission_timeout_s}"
            )
        if default_lane not in LANES:
            raise ValueError(f"default_lane must be one of {LANES}, got {default_lane!r}")
        if max_inflight_windows <= 0:
            raise ValueError(
                f"max_inflight_windows must be positive, got {max_inflight_windows}"
            )
        if window_log_limit <= 0:
            raise ValueError(
                f"window_log_limit must be positive, got {window_log_limit}"
            )
        resolve_n_jobs(jobs)  # validate eagerly, before the thread starts
        self.engine = engine
        self.max_window_queries = max_window_queries
        self.max_window_ms = max_window_ms
        self.window_deadline_s = window_deadline_s
        self.max_queue_depth = max_queue_depth
        self.admission = admission
        self.admission_timeout_s = admission_timeout_s
        self.default_lane = default_lane
        self.max_inflight_windows = max_inflight_windows
        self.window_log_limit = window_log_limit
        self._breaker = breaker
        self._jobs = jobs
        self._default_seed = default_seed
        self._stage_budget = stage_budget
        self._arrival = threading.Condition()
        self._pending: list[_Submission] = []
        #: window index -> the window; filed from formation until the
        #: dispatch completes, so the scheduler-crash sweep can fail
        #: exactly the in-flight tickets, late folds included.
        self._inflight: dict[int, _Window] = {}
        #: window index -> coarse (table, seed) keys of windows currently
        #: executing on worker threads (concurrent-window mode only).
        self._running: dict[int, set] = {}
        self._closed = False
        self._scheduler_error: BaseException | None = None
        self._submitted = 0
        self._windows: deque[dict] = deque(maxlen=window_log_limit)
        self._window_seq = 0
        self._batch_windows_stale = 0
        #: The service's cumulative counters, the one source that
        #: session_stats() and health() read (under ``_arrival``).
        #: Monotonic: they keep counting past the window-log buffer.
        self._counts = {
            "windows": 0,
            "queries_served": 0,
            "queries_folded": 0,
            "late_folded": 0,
            "window_errors": 0,
            "recovered_groups": 0,
            "admitted": 0,
            "rejected": 0,
            "shed": 0,
            "cancelled": 0,
            "blocked_ms": 0.0,
        }
        self._lane_latency = {
            lane: deque(maxlen=LANE_LATENCY_SAMPLES) for lane in LANES
        }
        self._lane_stats = {lane: {"served": 0, "errors": 0} for lane in LANES}
        self._thread = threading.Thread(
            target=self._scheduler, name="supg-service-scheduler", daemon=True
        )
        self._thread.start()

    # -- client API ------------------------------------------------------------

    def submit(
        self,
        sql: str,
        seed: int | None = None,
        method: str | None = None,
        stage_budget: int | None = None,
        client_id: str | None = None,
        lane: str | None = None,
        admission_timeout: float | None = None,
        **selector_kwargs,
    ) -> SubmitTicket:
        """Enqueue one statement; returns with a ticket once admitted.

        The statement is parsed synchronously, so syntax errors raise
        here (in the submitting client) rather than poisoning a window.
        Execution errors — unknown table, budget exhaustion — surface
        through :meth:`SubmitTicket.result`.

        Args:
            sql: one SUPG dialect statement (trailing ``;`` and ``--``
                comments allowed).
            seed: per-query seed (defaults to the service's
                ``default_seed``).  Queries submitted with the same
                seed, dataset, and sampling design fold into one
                oracle draw.
            method: selector registry name override.
            stage_budget: joint-query stage budget override.
            client_id: fairness identity; defaults to
                :data:`DEFAULT_CLIENT`.
            lane: ``"interactive"`` or ``"batch"``; defaults to the
                service's ``default_lane``.
            admission_timeout: per-call override of
                ``admission_timeout_s`` for ``"block"`` admission.
            **selector_kwargs: forwarded to the selector constructor.

        Raises:
            repro.query.parser.QuerySyntaxError: malformed statement.
            AdmissionRejected: the queue is full (``"reject"`` mode, a
                ``"block"`` deadline expiring, or nothing sheddable).
            RuntimeError: the service has been closed, or its scheduler
                thread has died.
        """
        parsed = parse_query(sql)
        lane = self.default_lane if lane is None else lane
        if lane not in LANES:
            raise ValueError(f"lane must be one of {LANES}, got {lane!r}")
        client = DEFAULT_CLIENT if client_id is None else str(client_id)
        submission = _Submission(
            parsed=parsed,
            seed=self._default_seed if seed is None else seed,
            method=method,
            stage_budget=self._stage_budget if stage_budget is None else stage_budget,
            selector_kwargs=dict(selector_kwargs),
            ticket=SubmitTicket(0, sql, client_id=client, lane=lane),
            client_id=client,
            lane=lane,
        )
        timeout = (
            self.admission_timeout_s if admission_timeout is None else admission_timeout
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._arrival:
            self._check_open()
            while (
                self.max_queue_depth is not None
                and len(self._pending) >= self.max_queue_depth
            ):
                if self.admission == "reject":
                    self._counts["rejected"] += 1
                    raise AdmissionRejected(
                        f"admission queue full ({len(self._pending)} pending, "
                        f"cap {self.max_queue_depth}); retry in "
                        f"{self._retry_hint():.3f}s",
                        queue_depth=len(self._pending),
                        retry_after_hint=self._retry_hint(),
                    )
                if self.admission == "shed_oldest":
                    if self._shed_oldest():
                        continue  # a slot opened; re-check the cap
                    self._counts["rejected"] += 1
                    raise AdmissionRejected(
                        f"admission queue full ({len(self._pending)} pending) "
                        "and nothing sheddable (all interactive)",
                        queue_depth=len(self._pending),
                        retry_after_hint=self._retry_hint(),
                    )
                # "block": wait for the scheduler to drain a window.
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._counts["rejected"] += 1
                    raise AdmissionRejected(
                        f"admission queue still full after blocking {timeout}s "
                        f"({len(self._pending)} pending, cap {self.max_queue_depth})",
                        queue_depth=len(self._pending),
                        retry_after_hint=self._retry_hint(),
                    )
                waited_from = time.monotonic()
                self._arrival.wait(remaining)
                self._counts["blocked_ms"] += (time.monotonic() - waited_from) * 1000.0
                self._check_open()
            submission.ticket.number = self._submitted
            self._submitted += 1
            self._counts["admitted"] += 1
            self._pending.append(submission)
            submission.ticket._cancel_hook = lambda: self._on_cancel(submission)
            self._arrival.notify_all()
        return submission.ticket

    def _check_open(self) -> None:
        """Raise (under the arrival lock) if submissions are impossible."""
        if self._scheduler_error is not None:
            raise RuntimeError(
                "cannot submit: the SupgService scheduler thread has died"
            ) from self._scheduler_error
        if self._closed:
            raise RuntimeError("cannot submit to a closed SupgService")

    def _retry_hint(self) -> float:
        """Suggested client backoff: roughly one plan window."""
        return max(0.001, self.max_window_ms / 1000.0)

    def _shed_oldest(self) -> bool:
        """Fail the oldest queued batch-lane ticket; True if one shed.

        Interactive tickets are never shed — they are the priority
        lane — so a queue full of interactive work reports back
        pressure via :class:`AdmissionRejected` instead.
        """
        victim = next(
            (
                s
                for s in self._pending
                if s.lane != "interactive" and s.ticket.state != "cancelled"
            ),
            None,
        )
        if victim is None:
            return False
        self._pending.remove(victim)
        self._counts["shed"] += 1
        victim.ticket._finish(
            error=QueryShedError(
                f"query #{victim.ticket.number} shed under overload: admission "
                f"queue at cap {self.max_queue_depth}; resubmit when load drops",
                number=victim.ticket.number,
                phase="admission",
            )
        )
        return True

    def _on_cancel(self, submission: _Submission) -> None:
        """Cancel hook: drop a cancelled submission from the queue."""
        with self._arrival:
            try:
                self._pending.remove(submission)
            except ValueError:
                return  # already dispatched (or shed); nothing to count here
            self._counts["cancelled"] += 1
            self._arrival.notify_all()

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the scheduler.  Idempotent.

        Args:
            drain: run the remaining queued arrivals in final windows
                (the default).  ``False`` fails every queued — not yet
                executing — submission immediately with a
                :class:`QueryError` instead of running it.
            timeout: bound the drain in seconds.  If the scheduler has
                not finished by then, every still-unresolved ticket is
                failed with a :class:`QueryError` so no client blocks
                on a shutdown that cannot complete; the scheduler
                thread (a daemon) is left to die with the process.
        """
        with self._arrival:
            self._closed = True
            dropped = [] if drain else list(self._pending)
            if not drain:
                self._pending.clear()
            self._arrival.notify_all()
        for submission in dropped:
            submission.ticket._finish(
                error=QueryError(
                    f"query #{submission.ticket.number} dropped: service closed "
                    "with drain=False",
                    number=submission.ticket.number,
                    phase="shutdown",
                )
            )
        self._thread.join(timeout)
        if not self._thread.is_alive():
            return
        with self._arrival:
            stuck = [s for subs in self._inflight.values() for s in subs]
            stuck.extend(self._pending)
            self._pending.clear()
        for submission in stuck:
            submission.ticket._finish(
                error=QueryError(
                    f"query #{submission.ticket.number} aborted: close() drain "
                    f"timed out after {timeout}s",
                    number=submission.ticket.number,
                    phase="shutdown",
                )
            )

    def __enter__(self) -> "SupgService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    @property
    def window_log(self) -> tuple[dict, ...]:
        """Per-window statistics, oldest retained first (ring buffer).

        Each record maps ``index`` (monotonic window number), ``lane``,
        ``queries`` (every ticket the window resolved, late folds
        included), ``errors`` (those of them that failed: compile
        errors, failed executions, breaker or deadline failures),
        ``distinct_draws``, ``queries_folded`` (statements beyond the
        first of each group), ``late_folded`` (arrivals absorbed after
        the window closed), ``warm_draws`` (groups already in the store's
        memory before the window pre-drew), ``labels_drawn`` / ``labels_saved``
        (what the window's own store fetches drew and were served,
        counted by :func:`~repro.core.pipeline.label_tally`),
        ``bytes_shipped`` (index bytes of the results the window's fork
        workers returned over the pool pipe), ``stats_inherited``
        (file-backed statistics the window's workers inherited),
        ``recovered_groups`` (execution groups re-run sequentially after
        a fork worker died), ``window_seconds``, and ``closed_by``
        (``"count"`` / ``"timeout"`` / ``"drain"``).  Every record has
        these keys; a window abandoned at its deadline logs one record
        under its own index, counting its late folds, that also carries
        ``deadline_expired=True``, and a window failed fast by the
        circuit breaker ``breaker_open=True``.  Fetches made inside fork
        workers are not counted, as in the store's own totals.  Only the
        newest ``window_log_limit`` records are retained; the cumulative
        counters in :meth:`session_stats` keep counting past the buffer.
        """
        with self._arrival:
            return tuple(dict(record) for record in self._windows)

    def session_stats(self) -> Mapping[str, int]:
        """Engine counters plus the service's one cumulative counter dict.

        Window aggregates (``windows``, ``queries_served``, …) are
        bumped as each record is logged, not summed over
        :attr:`window_log`, so they stay exact after the ring buffer
        starts dropping old records.
        Admission accounting: ``admitted`` / ``rejected`` / ``shed`` /
        ``cancelled`` / ``blocked_ms``.
        """
        stats = dict(self.engine.session_stats())
        with self._arrival:
            stats.update(self._counters_locked())
        if self._breaker is not None:
            stats["breaker_fast_failures"] = self._breaker.fast_failures
            stats["breaker_trips"] = self._breaker.tripped_total
        return stats

    def health(self) -> Mapping[str, object]:
        """Live operational snapshot (what ``repro serve`` exposes).

        Reports queue depth, inflight windows, circuit-breaker state,
        per-lane pending/served counts with p50/p99 latency in
        milliseconds (over the last ``LANE_LATENCY_SAMPLES`` completions
        per lane), and the counters :meth:`session_stats` reads
        (``windows_total`` is its ``windows``).
        """
        with self._arrival:
            counts = self._counters_locked()
            lanes: dict[str, dict] = {}
            for lane in LANES:
                samples = np.asarray(self._lane_latency[lane], dtype=float)
                entry: dict[str, object] = {
                    "pending": sum(1 for s in self._pending if s.lane == lane),
                    "served": self._lane_stats[lane]["served"],
                    "errors": self._lane_stats[lane]["errors"],
                    "p50_ms": (
                        float(np.percentile(samples, 50) * 1000.0)
                        if samples.size
                        else None
                    ),
                    "p99_ms": (
                        float(np.percentile(samples, 99) * 1000.0)
                        if samples.size
                        else None
                    ),
                }
                lanes[lane] = entry
            snapshot: dict[str, object] = {
                "queue_depth": len(self._pending),
                "max_queue_depth": self.max_queue_depth,
                "admission": self.admission,
                "inflight_windows": len(self._inflight),
                "max_inflight_windows": self.max_inflight_windows,
                "windows_total": counts["windows"],
                "admitted": counts["admitted"],
                "rejected": counts["rejected"],
                "shed": counts["shed"],
                "cancelled": counts["cancelled"],
                "blocked_ms": counts["blocked_ms"],
                "lanes": lanes,
            }
        snapshot["breaker"] = (
            self._breaker.snapshot()
            if self._breaker is not None
            else {"state": "disabled"}
        )
        return snapshot

    def _counters_locked(self) -> dict[str, int]:
        """The cumulative counters, as ints (call under ``_arrival``)."""
        return {key: int(value) for key, value in self._counts.items()}

    # -- scheduler -------------------------------------------------------------

    def _scheduler(self) -> None:
        """Thread body: the window loop inside a last-resort guard.

        The guard is the no-hung-ticket backstop: if the loop itself
        dies (a bug, ``MemoryError``, interpreter shutdown), every
        queued and in-flight ticket is failed with the exception —
        otherwise each would block its client's ``result()`` forever —
        and later ``submit()`` calls fail fast.
        """
        try:
            self._scheduler_loop()
        except BaseException as exc:  # noqa: B036 - deliberate last resort
            self._fail_all_outstanding(exc)

    def _fail_all_outstanding(self, exc: BaseException) -> None:
        with self._arrival:
            self._scheduler_error = exc
            self._closed = True
            stuck = [s for subs in self._inflight.values() for s in subs]
            stuck.extend(self._pending)
            self._pending.clear()
            self._inflight = {}
            self._running = {}
            self._arrival.notify_all()
        for submission in stuck:
            submission.ticket._finish(
                error=QueryError(
                    f"query #{submission.ticket.number} aborted: the service "
                    f"scheduler thread crashed: {exc}",
                    number=submission.ticket.number,
                    phase="scheduler",
                    cause=exc,
                )
            )

    def _scheduler_loop(self) -> None:
        """Collect arrivals into windows; runs until closed and drained."""
        while True:
            with self._arrival:
                while not self._pending and not self._closed:
                    self._arrival.wait()
                if not self._pending and self._closed:
                    break
                closed_by = "drain" if self._closed else "timeout"
                deadline = self._pending[0].arrived + self.max_window_ms / 1000.0
                while not self._closed and len(self._pending) < self.max_window_queries:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._arrival.wait(timeout=remaining)
                if len(self._pending) >= self.max_window_queries:
                    closed_by = "count"
                elif self._closed:
                    closed_by = "drain"
                members = self._take_window()
                window = None
                if members:
                    window = _Window(members, self._window_seq)
                    self._window_seq += 1
                    self._inflight[window.index] = window
                # Queue space was freed (taken or purged submissions):
                # wake blocked admission waiters.
                self._arrival.notify_all()
            if not window:
                # close(drain=False) emptied the queue while we waited,
                # or everything left was cancelled; nothing to execute.
                continue
            if self.max_inflight_windows <= 1:
                try:
                    self._dispatch_window(window, closed_by)
                except Exception as exc:
                    # A window must never take the scheduler down with
                    # it: fail the window's tickets and keep serving — a
                    # hung submit()/result() on every later client is
                    # strictly worse than one failed window.
                    for submission in window:
                        submission.ticket._finish(error=exc)
                # Deliberately NOT a finally: a BaseException escaping
                # the dispatch must leave _inflight populated so the
                # scheduler crash guard can fail exactly these tickets.
                with self._arrival:
                    self._inflight.pop(window.index, None)
                    self._arrival.notify_all()
            else:
                self._launch_concurrent(window, closed_by)
        self._await_running_windows()

    def _take_window(self) -> list[_Submission]:
        """Select the next window's members (call under ``_arrival``).

        Purges cancelled tickets, picks the window's lane (batch vs
        interactive, honoring the bounded-staleness counter), and fills
        the window by equal-weight round-robin across ``client_id`` so
        a flooding client cannot push other clients' queries out of the
        next window.
        """
        # Purge cancels that raced past the eager removal hook.
        for submission in [
            s for s in self._pending if s.ticket.state == "cancelled"
        ]:
            self._pending.remove(submission)
            self._counts["cancelled"] += 1
        interactive = [s for s in self._pending if s.lane == "interactive"]
        batch = [s for s in self._pending if s.lane != "interactive"]
        if not self._pending:
            return []
        if interactive and not batch:
            lane = "interactive"
        elif batch and not interactive:
            lane = "batch"
        elif (
            self._batch_windows_stale >= MAX_INTERACTIVE_STALENESS
            or self._pending[0].lane == "interactive"
        ):
            lane = "interactive"
        else:
            lane = "batch"
        if lane == "interactive":
            self._batch_windows_stale = 0
            candidates = interactive
        else:
            if interactive:
                self._batch_windows_stale += 1
            candidates = batch
        chosen = self._round_robin(candidates, self.max_window_queries)
        window: list[_Submission] = []
        for submission in chosen:
            self._pending.remove(submission)
            if submission.ticket._mark_dispatched():
                window.append(submission)
            else:
                self._counts["cancelled"] += 1
        return window

    @staticmethod
    def _round_robin(candidates: list[_Submission], limit: int) -> list[_Submission]:
        """Equal-weight round-robin across clients, FIFO within each.

        Clients are cycled in order of their oldest pending arrival,
        taking one statement per client per cycle until the window is
        full — the fairness bound: with C active clients, any client's
        oldest statement is at worst in position C of the window.
        """
        queues: "OrderedDict[str, list[_Submission]]" = OrderedDict()
        for submission in candidates:
            queues.setdefault(submission.client_id, []).append(submission)
        chosen: list[_Submission] = []
        while queues and len(chosen) < limit:
            for client in list(queues):
                queue = queues[client]
                chosen.append(queue.pop(0))
                if not queue:
                    del queues[client]
                if len(chosen) >= limit:
                    break
        return chosen

    @staticmethod
    def _coarse_key(submission: _Submission) -> tuple:
        """Conservative disjointness key for concurrent windows.

        Two windows may overlap in time only when their ``(table,
        seed)`` sets are disjoint — a superset of sharing a real
        ``(fingerprint × design × seed)`` group, computable without
        compiling on the scheduler thread.  (Correctness never depends
        on this — the store serializes draws — it keeps fold accounting
        and label savings attributed to single windows.)
        """
        seed = submission.seed
        return (submission.parsed.table, seed if isinstance(seed, int) else None)

    def _launch_concurrent(self, window: _Window, closed_by: str) -> None:
        """Run one window on a worker thread, capped and disjoint."""
        keys = {self._coarse_key(s) for s in window}
        with self._arrival:
            while (
                len(self._running) >= self.max_inflight_windows
                or any(keys & running for running in self._running.values())
            ):
                self._arrival.wait(timeout=0.5)
            self._running[window.index] = keys

        def run() -> None:
            try:
                self._dispatch_window(window, closed_by)
            except Exception as exc:
                for submission in window:
                    submission.ticket._finish(error=exc)
            except BaseException as exc:
                # A BaseException on a window thread is not a scheduler
                # death: fail this window's tickets and let the service
                # keep running.
                for submission in window:
                    submission.ticket._finish(
                        error=QueryError(
                            f"query #{submission.ticket.number} aborted: window "
                            f"thread crashed: {exc}",
                            number=submission.ticket.number,
                            phase="scheduler",
                            cause=exc if isinstance(exc, Exception) else None,
                        )
                    )
            finally:
                with self._arrival:
                    self._running.pop(window.index, None)
                    self._inflight.pop(window.index, None)
                    self._arrival.notify_all()

        threading.Thread(target=run, name="supg-window-runner", daemon=True).start()

    def _await_running_windows(self) -> None:
        """Drain barrier: wait for concurrent window threads to finish."""
        with self._arrival:
            while self._running:
                self._arrival.wait(timeout=1.0)

    def _dispatch_window(self, window: _Window, closed_by: str) -> None:
        """Run one window, under the service's deadline when one is set.

        The deadline path runs the window on a disposable daemon thread
        and abandons it on overrun: the thread cannot be killed, but
        its later attempts to fold arrivals, finish tickets or append a
        window record are no-ops (idempotent tickets, the window's
        ``abandoned`` flag), so the scheduler safely moves on to the
        next window.  The deadline record takes the window's own index
        and counts its late folds.
        """
        if self.window_deadline_s is None:
            self._execute_window(window, closed_by)
            return

        def run() -> None:
            try:
                self._execute_window(window, closed_by)
            except Exception as exc:
                for submission in window:
                    submission.ticket._finish(error=exc)

        worker = threading.Thread(target=run, name="supg-window", daemon=True)
        worker.start()
        worker.join(self.window_deadline_s)
        if not worker.is_alive():
            return
        with self._arrival:
            window.abandoned.set()
            unfinished = [s for s in window if not s.ticket.done()]
            queries = len(window)
        window_index = window.index
        self._log_window(
            window_index,
            window[0].lane,
            closed_by,
            self.window_deadline_s,
            queries=queries,
            errors=len(unfinished),
            deadline_expired=True,
        )
        for submission in unfinished:
            submission.ticket._finish(
                error=QueryError(
                    f"query #{submission.ticket.number} aborted: window "
                    f"{window_index} exceeded its deadline of "
                    f"{self.window_deadline_s}s",
                    number=submission.ticket.number,
                    window=window_index,
                    phase="deadline",
                ),
                window=window_index,
            )

    # -- window execution ------------------------------------------------------

    def _log_window(
        self,
        index: int,
        lane: str,
        closed_by: str,
        seconds: float,
        abandoned: threading.Event | None = None,
        **counts,
    ) -> None:
        """Build one window's record, log it, and add it to the totals.

        Every record has all of :data:`WINDOW_COUNTS` (0 unless
        ``counts`` gives one), plus any flag a caller passes.  A window
        already ``abandoned`` at its deadline logs nothing: the
        scheduler logged its deadline record.
        """
        record = {"index": index, "lane": lane, **dict.fromkeys(WINDOW_COUNTS, 0)}
        record["window_seconds"] = seconds
        record["closed_by"] = closed_by
        record.update(counts)
        with self._arrival:
            if abandoned is not None and abandoned.is_set():
                return
            self._windows.append(record)
            totals = self._counts
            totals["windows"] += 1
            totals["queries_served"] += record["queries"]
            totals["queries_folded"] += record["queries_folded"]
            totals["late_folded"] += record["late_folded"]
            totals["window_errors"] += record["errors"]
            totals["recovered_groups"] += record["recovered_groups"]

    def _finish_submission(
        self,
        submission: _Submission,
        result: QueryExecution | None = None,
        error: BaseException | None = None,
        window: int | None = None,
    ) -> bool:
        """Finish a ticket and record its lane latency (first win only)."""
        finished = submission.ticket._finish(result=result, error=error, window=window)
        if not finished:
            return False
        lane = submission.lane if submission.lane in self._lane_latency else "batch"
        latency = time.monotonic() - submission.arrived
        with self._arrival:
            self._lane_latency[lane].append(latency)
            self._lane_stats[lane]["served"] += 1
            if error is not None:
                self._lane_stats[lane]["errors"] += 1
        return True

    def _compile_submission(self, submission: _Submission, index: int):
        return self.engine._compile(
            index,
            submission.parsed,
            submission.seed,
            submission.method,
            submission.stage_budget,
            submission.selector_kwargs,
        )

    def _planned_execution(self, job):
        """The planner's view of one compiled query, at its real index.

        Delegates to the engine's own plan builder so the service's
        fold decisions can never diverge from how ``execute_many``
        would group the same statement (joint queries, oracle UDFs,
        generator seeds — one source of truth).
        """
        planned = self.engine._plan_compiled([job]).executions[0]
        return replace(planned, index=job.index)

    def _fold_late_arrivals(self, compiled, window: _Window, plan) -> int:
        """Absorb queued arrivals whose group this window already pre-drew.

        Runs between prewarm and execution: any pending submission
        keyed to one of the window's (now warm) groups joins the
        window — its draw is already paid for, so running it now saves
        a whole window of latency and keeps the fold accounting where
        the labels were actually shared.  Arrivals that would need a
        *new* draw stay queued for the next window.  A folded arrival
        joins ``window`` in the same locked step that claims it, and an
        abandoned window claims nothing.
        """
        # Snapshot under the lock, compile outside it: compilation can
        # be slow (first-use proxy-UDF derivation scores the whole
        # dataset) and must not stall concurrent submit() calls.  With
        # concurrent windows, another window may fold or take a
        # snapshotted submission first, so each fold re-checks and
        # *claims* its submission under the lock before committing.
        with self._arrival:
            snapshot = list(self._pending)
        folded = 0
        for submission in snapshot:
            try:
                job = self._compile_submission(submission, len(compiled))
            except Exception:
                continue  # stays queued; its own window surfaces the error
            planned = self._planned_execution(job)
            if not plan.covers(planned.key):
                continue
            with self._arrival:
                if window.abandoned.is_set():
                    break  # past its deadline: leave the rest queued
                if submission not in self._pending:
                    continue  # another window claimed it meanwhile
                self._pending.remove(submission)
                if not submission.ticket._mark_dispatched():
                    self._counts["cancelled"] += 1
                    continue
                window.append(submission)
                submission.ticket.state = "folded"
                self._arrival.notify_all()  # queue space freed
            plan.fold(planned, dataset=job.dataset)
            compiled.append(job)
            folded += 1
        return folded

    def _execute_window(self, window: _Window, closed_by: str) -> None:
        start = time.perf_counter()
        window_index = window.index
        abandoned = window.abandoned
        lane = window[0].lane
        compiled = []
        submissions: list[_Submission] = []
        compile_errors = 0
        for submission in window:
            try:
                job = self._compile_submission(submission, len(compiled))
            except Exception as exc:
                # Compile errors (unknown table, bad method name) stay
                # raw: they are the same exceptions engine.execute()
                # raises, and carry no window context worth adding.
                self._finish_submission(submission, error=exc, window=window_index)
                compile_errors += 1
                continue
            compiled.append(job)
            submissions.append(submission)
            submission.ticket.state = "executing"

        store = self.engine.context.store
        breaker = self._breaker

        # Circuit breaker gate: while open, fail the window fast with a
        # typed error instead of letting every ticket burn its full
        # oracle retry budget against a dead dependency.
        probing = False
        if compiled and breaker is not None:
            try:
                probing = breaker.check()
            except CircuitOpenError as exc:
                for submission in submissions:
                    self._finish_submission(
                        submission,
                        error=QueryError.wrap(
                            exc,
                            number=submission.ticket.number,
                            window=window_index,
                            phase="breaker",
                        ),
                        window=window_index,
                    )
                self._log_window(
                    window_index,
                    lane,
                    closed_by,
                    time.perf_counter() - start,
                    abandoned,
                    queries=len(window),
                    errors=len(window),
                    breaker_open=True,
                )
                return

        plan = None
        warm_draws = 0
        late_folded = 0
        doomed: dict[int, BaseException] = {}
        prewarm_failures: Mapping[tuple, Exception] = {}
        window_error: Exception | None = None
        outcomes = None
        recovered_groups = 0
        transfer: Mapping[str, int] = {}
        # The tally counts the labels this window's own fetches draw and
        # are served (prewarm and in-thread executions); concurrent
        # windows sharing the store count into tallies of their own.
        with label_tally() as tally:
            if compiled:
                # Planning and prewarm touch real resources (the oracle,
                # the label columns); a failure here must fail
                # tickets, not unwind into the scheduler.  Prewarm
                # failures are isolated per group: only the executions
                # that needed the broken draw are doomed, the rest of
                # the window proceeds.
                try:
                    plan = self.engine._plan_compiled(compiled)
                    warm_draws = sum(
                        1 for tier in plan.warm_keys(store).values() if tier is not None
                    )
                    prewarm_failures = plan.prewarm(store, isolate_failures=True)
                    formed = len(window)
                    late_folded = self._fold_late_arrivals(compiled, window, plan)
                    submissions.extend(window[formed:])
                    if prewarm_failures:
                        groups = plan.groups
                        for key, exc in prewarm_failures.items():
                            for index in groups.get(key, ()):
                                doomed[index] = exc
                except Exception as exc:
                    window_error = exc

            if window_error is None and compiled:
                try:
                    outcomes, recovered_groups, transfer = self._run_window(
                        compiled, plan, doomed
                    )
                except Exception as exc:
                    window_error = exc

        execution_errors = 0
        oracle_failures = sum(
            1
            for exc in prewarm_failures.values()
            if isinstance(exc, OracleUnavailableError)
        )
        if window_error is not None:
            # The whole window, late folds included: a fold that failed
            # part way has joined the window but not ``submissions``.
            for submission in window:
                self._finish_submission(
                    submission,
                    error=QueryError.wrap(
                        window_error,
                        number=submission.ticket.number,
                        window=window_index,
                        phase="planning",
                    ),
                    window=window_index,
                )
        elif outcomes is not None:
            for submission, job, (result, error) in zip(submissions, compiled, outcomes):
                if error is not None:
                    execution_errors += 1
                    if (
                        isinstance(error, OracleUnavailableError)
                        and job.index not in doomed
                    ):
                        oracle_failures += 1
                    self._finish_submission(
                        submission,
                        error=QueryError.wrap(
                            error,
                            number=submission.ticket.number,
                            window=window_index,
                            phase="execution",
                        ),
                        window=window_index,
                    )
                    continue
                execution = QueryExecution(
                    parsed=job.parsed,
                    result=result,
                    dataset=job.dataset,
                    method=job.method,
                )
                self._finish_submission(submission, result=execution, window=window_index)

        # Breaker accounting: only genuine oracle contact moves the
        # state — windows served entirely from warm draws abstain, so a
        # half-open probe stays available for a window that will
        # actually exercise the oracle.
        if compiled and breaker is not None:
            if window_error is not None:
                if isinstance(window_error, OracleUnavailableError):
                    breaker.record_failure()
                else:
                    breaker.abstain()
            elif oracle_failures:
                for _ in range(oracle_failures):
                    breaker.record_failure()
            elif tally["labels_drawn"] > 0:
                breaker.record_success()
            elif probing:
                breaker.abstain()

        distinct_draws = plan.distinct_draws if plan is not None else 0
        grouped = plan.n_executions - len(plan.ungrouped) if plan is not None else 0
        self._log_window(
            window_index,
            lane,
            closed_by,
            time.perf_counter() - start,
            abandoned,
            queries=len(window),
            errors=len(window) if window_error is not None else compile_errors + execution_errors,
            distinct_draws=distinct_draws,
            queries_folded=max(0, grouped - distinct_draws),
            late_folded=late_folded,
            warm_draws=warm_draws,
            recovered_groups=recovered_groups,
            **tally,
            **transfer,
        )

    def _run_window(
        self, compiled, plan, doomed: Mapping[int, BaseException] | None = None
    ):
        """Execute one window's compiled queries.

        Returns ``(outcomes, recovered_groups, transfer)`` where
        ``outcomes`` has one ``(result, error)`` pair per compiled query
        (exactly one of the two is set), ``recovered_groups`` counts
        execution groups re-run in-thread after a fork worker died, and
        ``transfer`` holds the ``bytes_shipped`` and ``stats_inherited``
        of the window's own fork fan-out (empty when it ran in-thread).

        The window's worker budget is its fair share of the service's
        ``jobs`` across currently running windows
        (:func:`~repro.core.planning.worker_share`), so concurrent
        windows cannot oversubscribe the host.

        Statement failures are isolated here: the parallel path fans
        whole groups to workers, so when any statement in it raises,
        the window falls back to the sequential per-statement path —
        deterministic, so only the genuinely failing statements' tickets
        fail.  Executions doomed by a failed prewarm draw are not run
        at all (re-attempting a draw that just exhausted its retry
        policy would only hammer the broken oracle); their outcome is
        the prewarm failure.
        """
        doomed = dict(doomed or {})
        if not compiled:
            return [], 0, {}
        with self._arrival:
            concurrent = max(1, len(self._running))
        workers = effective_workers(
            worker_share(self._jobs, concurrent),
            len(compiled),
            "SupgService plan windows",
        )
        if workers > 1 and not doomed:
            try:
                results, recovered, transfer = self.engine._run_batches_parallel(
                    compiled, plan, self.engine.context, workers
                )
            except Exception:
                pass  # isolate per statement on the sequential path below
            else:
                return [(result, None) for result in results], len(recovered), transfer
        outcomes: list[tuple] = []
        for job in compiled:
            if job.index in doomed:
                outcomes.append((None, doomed[job.index]))
                continue
            try:
                outcomes.append((job.run(self.engine.context), None))
            except Exception as exc:
                outcomes.append((None, exc))
        return outcomes, 0, {}
