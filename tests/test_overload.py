"""Overload safety: bounded admission, lanes, breaker, concurrent windows.

The contracts pinned here:

1. Admission is bounded and typed: a full queue blocks (bounded by a
   deadline), rejects with :class:`AdmissionRejected` carrying
   ``queue_depth``/``retry_after_hint``, or sheds the oldest batch-lane
   ticket with :class:`QueryShedError` — never silently drops, never
   hangs, and every path is counted in ``session_stats``.
2. Fairness and priority are scheduling invariants, tested with gated
   windows (Events), not sleeps: a flooding client cannot push another
   client's ticket beyond the round-robin bound, and an interactive
   ticket never waits behind more than ``MAX_INTERACTIVE_STALENESS``
   batch windows.
3. The window log is a ring buffer with monotone cumulative counters.
4. The oracle circuit breaker trips after N consecutive failures, fails
   fast while open (typed, no oracle contact), and recovers through a
   single half-open probe — driven by an injected fake clock.
5. Concurrent windows over disjoint (table, seed) groups genuinely
   overlap, same-key windows never do, and results stay bit-identical
   to sequential execution.
6. Under saturation — more submitter threads than cores against
   bounded admission — every submission is admitted and served, none
   hangs, and every result is bit-identical to a fresh engine's.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.planning import worker_share
from repro.datasets import make_beta_dataset
from repro.oracle import (
    CircuitOpenError,
    OracleCircuitBreaker,
    OracleUnavailableError,
)
from repro.query import (
    AdmissionRejected,
    QueryError,
    QueryShedError,
    SupgEngine,
    SupgService,
)

RT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT 400 USING A(x) "
    "RECALL TARGET {gamma}% WITH PROBABILITY 95%"
)

TARGET = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT {budget} USING A(x) "
    "{target} TARGET {gamma}% WITH PROBABILITY 95%"
)

#: A mixed batch with 2 distinct oracle draws: the four recall targets
#: share one proxy-weighted design, and the three precision targets share
#: IS-CI-P's stage-1 design (budget // 2), which the last recall query
#: reuses.
MIXED_BATCH = [
    *(TARGET.format(budget=500, target="RECALL", gamma=g) for g in (80, 85, 90, 95)),
    *(TARGET.format(budget=500, target="PRECISION", gamma=g) for g in (80, 90, 95)),
    TARGET.format(budget=250, target="RECALL", gamma=90),
]

DONE = object()  # sentinel result for stubbed window executions


def _engine(dataset, **kwargs) -> SupgEngine:
    engine = SupgEngine(**kwargs)
    engine.register_table("t", dataset)
    return engine


def _finish_window(window, result=DONE):
    for submission in window:
        submission.ticket._finish(result=result, window=0)


class _GatedWindows:
    """Stub for ``service._execute_window`` whose first window stalls.

    The stall is the deterministic way to pile up a queue: while window
    0 is held open (``release`` unset), every later submission stays
    pending, so admission limits and scheduling order can be asserted
    without sleeps.  Subsequent windows complete immediately and are
    recorded (client ids, lanes) for fairness assertions.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.windows: list[list] = []
        self._lock = threading.Lock()
        self._first = True

    def __call__(self, window, closed_by, abandoned=None):
        with self._lock:
            first = self._first
            self._first = False
            self.windows.append(list(window))
        if first:
            self.entered.set()
            assert self.release.wait(10), "test forgot to release the gate"
        _finish_window(window)

    def client_ids(self):
        return [[s.client_id for s in window] for window in self.windows]

    def lanes(self):
        return [window[0].lane for window in self.windows]


def _gated_service(dataset, **kwargs):
    service = SupgService(
        _engine(dataset), max_window_queries=1, max_window_ms=5.0, **kwargs
    )
    gate = _GatedWindows()
    service._execute_window = gate
    return service, gate


# -- bounded admission ---------------------------------------------------------


def test_reject_mode_raises_typed_with_backpressure_hints(beta_dataset):
    service, gate = _gated_service(
        beta_dataset, max_queue_depth=2, admission="reject"
    )
    try:
        first = service.submit(RT.format(gamma=80))
        assert gate.entered.wait(10)
        queued = [service.submit(RT.format(gamma=g)) for g in (85, 90)]
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(RT.format(gamma=95))
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.retry_after_hint > 0
        gate.release.set()
        for ticket in [first, *queued]:
            assert ticket.result(timeout=10) is DONE
    finally:
        gate.release.set()
        service.close(timeout=10)
    stats = service.session_stats()
    assert stats["admitted"] == 3
    assert stats["rejected"] == 1
    assert sum(len(window) for window in gate.windows) == 3


def test_shed_oldest_fails_batch_victim_never_interactive(beta_dataset):
    service, gate = _gated_service(
        beta_dataset, max_queue_depth=2, admission="shed_oldest"
    )
    try:
        first = service.submit(RT.format(gamma=80))
        assert gate.entered.wait(10)
        victim = service.submit(RT.format(gamma=85), lane="batch")
        survivor = service.submit(RT.format(gamma=90), lane="interactive")
        # Queue full: the new arrival displaces the oldest batch ticket.
        newcomer = service.submit(RT.format(gamma=95), lane="interactive")
        shed_error = victim.exception(timeout=10)
        assert isinstance(shed_error, QueryShedError)
        assert isinstance(shed_error, QueryError)  # typed, catchable as either
        assert shed_error.phase == "admission"
        # Queue now holds only interactive tickets: nothing is sheddable,
        # so overload degrades to a typed rejection, never a shed
        # priority ticket.
        with pytest.raises(AdmissionRejected):
            service.submit(RT.format(gamma=96), lane="batch")
        gate.release.set()
        for ticket in (first, survivor, newcomer):
            assert ticket.result(timeout=10) is DONE
    finally:
        gate.release.set()
        service.close(timeout=10)
    stats = service.session_stats()
    assert stats["shed"] == 1
    assert stats["rejected"] == 1


def test_block_mode_waits_for_space_then_admits(beta_dataset):
    service, gate = _gated_service(
        beta_dataset, max_queue_depth=1, admission="block"
    )
    try:
        first = service.submit(RT.format(gamma=80))
        assert gate.entered.wait(10)
        filler = service.submit(RT.format(gamma=85))
        blocked = {}

        def blocked_submit():
            blocked["ticket"] = service.submit(RT.format(gamma=90))

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive(), "submit should block on a full queue"
        gate.release.set()  # window 0 completes; the queue drains
        thread.join(timeout=10)
        assert not thread.is_alive()
        for ticket in (first, filler, blocked["ticket"]):
            assert ticket.result(timeout=10) is DONE
    finally:
        gate.release.set()
        service.close(timeout=10)
    stats = service.session_stats()
    assert stats["admitted"] == 3
    assert stats["rejected"] == 0
    assert stats["blocked_ms"] > 0


def test_block_mode_deadline_raises_admission_rejected(beta_dataset):
    service, gate = _gated_service(
        beta_dataset, max_queue_depth=1, admission="block"
    )
    try:
        service.submit(RT.format(gamma=80))
        assert gate.entered.wait(10)
        service.submit(RT.format(gamma=85))
        with pytest.raises(AdmissionRejected):
            service.submit(RT.format(gamma=90), admission_timeout=0.05)
    finally:
        gate.release.set()
        service.close(timeout=10)


# -- cancellation --------------------------------------------------------------


def test_cancel_queued_ticket_wins_and_is_counted(beta_dataset):
    service, gate = _gated_service(beta_dataset)
    try:
        service.submit(RT.format(gamma=80))
        assert gate.entered.wait(10)
        queued = service.submit(RT.format(gamma=85))
        assert queued.cancel() is True
        assert queued.done()
        error = queued.exception(timeout=1)
        assert isinstance(error, QueryError)
        assert error.phase == "cancelled"
        assert queued.cancel() is False  # idempotent: already resolved
        gate.release.set()
    finally:
        gate.release.set()
        service.close(timeout=10)
    stats = service.session_stats()
    assert stats["cancelled"] == 1
    # The cancelled statement never reached a window.
    assert sum(len(window) for window in gate.windows) == 1


def test_cancel_loses_once_dispatched(beta_dataset):
    service, gate = _gated_service(beta_dataset)
    try:
        inflight = service.submit(RT.format(gamma=80))
        assert gate.entered.wait(10)
        assert inflight.cancel() is False
        gate.release.set()
        assert inflight.result(timeout=10) is DONE
    finally:
        gate.release.set()
        service.close(timeout=10)
    assert service.session_stats()["cancelled"] == 0


# -- fairness and lanes --------------------------------------------------------


def test_flooding_client_cannot_starve_another(beta_dataset):
    service, gate = _gated_service(beta_dataset)
    service.max_window_queries = 4
    try:
        service.submit(RT.format(gamma=80), client_id="flood")
        assert gate.entered.wait(10)
        for g in range(81, 91):
            service.submit(RT.format(gamma=g), client_id="flood")
        other = service.submit(RT.format(gamma=95), client_id="other")
        gate.release.set()
        assert other.result(timeout=10) is DONE
    finally:
        gate.release.set()
        service.close(timeout=10)
    # Round-robin bound: with 2 active clients, "other"'s single ticket
    # is in the *first* window formed after it queued, within the first
    # 2 positions — 10 queued flood tickets notwithstanding.
    window = gate.client_ids()[1]
    assert "other" in window[:2]


def test_interactive_waits_behind_at_most_k_batch_windows(beta_dataset):
    service, gate = _gated_service(beta_dataset)
    try:
        service.submit(RT.format(gamma=80), lane="batch")
        assert gate.entered.wait(10)
        for g in range(81, 87):
            service.submit(RT.format(gamma=g), lane="batch")
        service.submit(RT.format(gamma=95), lane="interactive")
        gate.release.set()
        service.close(drain=True, timeout=10)
    finally:
        gate.release.set()
        service.close(timeout=10)
    lanes = gate.lanes()
    # Everything after the gated window 0: at most K=1 batch windows
    # may be dispatched while the interactive ticket is pending.
    waited_behind = lanes[1:].index("interactive")
    assert waited_behind <= 1
    # And the batch backlog still ran after it.
    assert lanes.count("batch") == 1 + 6


# -- window log ring buffer ----------------------------------------------------


def test_window_log_is_ring_buffer_with_cumulative_counters(beta_dataset):
    engine = _engine(beta_dataset)
    service = SupgService(
        engine, max_window_queries=1, max_window_ms=5.0, window_log_limit=4
    )
    try:
        for i in range(6):
            ticket = service.submit(RT.format(gamma=80 + i), seed=0)
            ticket.result(timeout=120)
    finally:
        service.close(timeout=30)
    log = service.window_log
    assert len(log) == 4  # only the newest window_log_limit records retained
    assert [record["index"] for record in log] == [2, 3, 4, 5]
    stats = service.session_stats()
    assert stats["windows"] == 6  # cumulative counters outlive the buffer
    assert stats["queries_served"] == 6
    health = service.health()
    assert health["windows_total"] == 6
    assert health["lanes"]["batch"]["served"] == 6
    assert health["lanes"]["batch"]["p99_ms"] is not None


# -- circuit breaker (unit) ----------------------------------------------------


def test_breaker_trips_after_threshold_and_fails_fast():
    clock = {"now": 0.0}
    breaker = OracleCircuitBreaker(
        threshold=3, cooldown_s=10.0, clock=lambda: clock["now"]
    )
    assert breaker.check() is False
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"  # not yet at threshold
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.tripped_total == 1
    with pytest.raises(CircuitOpenError) as excinfo:
        breaker.check()
    assert isinstance(excinfo.value, OracleUnavailableError)  # typed as oracle-down
    assert 0.0 < excinfo.value.retry_after <= 10.0
    assert excinfo.value.failures == 3
    assert breaker.fast_failures == 1


def test_breaker_half_open_probe_single_flight_and_recovery():
    clock = {"now": 0.0}
    breaker = OracleCircuitBreaker(
        threshold=1, cooldown_s=10.0, clock=lambda: clock["now"]
    )
    breaker.record_failure()
    assert breaker.state == "open"
    clock["now"] = 10.0
    assert breaker.state == "half_open"
    assert breaker.check() is True  # this caller holds the probe
    with pytest.raises(CircuitOpenError):
        breaker.check()  # a second caller must not also probe
    breaker.record_failure()  # probe failed: re-open with a fresh cooldown
    assert breaker.state == "open"
    clock["now"] = 15.0
    assert breaker.state == "open"  # fresh cooldown started at t=10
    clock["now"] = 20.0
    assert breaker.check() is True
    breaker.abstain()  # probe never touched the oracle: slot released
    assert breaker.check() is True
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.check() is False
    assert breaker.snapshot()["consecutive_failures"] == 0


# -- circuit breaker (service integration) -------------------------------------


def test_service_breaker_fails_fast_then_probes_back(beta_dataset):
    clock = {"now": 0.0}
    breaker = OracleCircuitBreaker(
        threshold=2, cooldown_s=30.0, clock=lambda: clock["now"]
    )
    engine = _engine(beta_dataset)
    reference = engine.execute(RT.format(gamma=95), seed=0)
    engine.reset_session()
    store = engine.context.store
    real_fetch = store.fetch
    outage = {"on": True, "calls": 0}

    def flaky_fetch(dataset, design, seed):
        outage["calls"] += 1
        if outage["on"]:
            raise OracleUnavailableError("oracle hard down", attempts=1)
        return real_fetch(dataset, design, seed)

    store.fetch = flaky_fetch
    service = SupgService(
        engine, max_window_queries=1, max_window_ms=5.0, breaker=breaker
    )
    try:
        # Two windows exhaust their draws against the dead oracle: each
        # records one consecutive failure, the second trips the breaker.
        for gamma in (80, 85):
            error = service.submit(RT.format(gamma=gamma), seed=0).exception(
                timeout=60
            )
            assert isinstance(error, QueryError)
            assert isinstance(error.cause, OracleUnavailableError)
        assert breaker.state == "open"
        calls_when_tripped = outage["calls"]
        # While open: fail fast, typed, without touching the oracle.
        fast = service.submit(RT.format(gamma=90), seed=0).exception(timeout=60)
        assert isinstance(fast, QueryError)
        assert fast.phase == "breaker"
        assert isinstance(fast.cause, CircuitOpenError)
        assert outage["calls"] == calls_when_tripped
        # Oracle recovers; after the cooldown one half-open probe window
        # closes the breaker and results flow again.
        outage["on"] = False
        clock["now"] = 30.0
        execution = service.submit(RT.format(gamma=95), seed=0).result(timeout=120)
        assert breaker.state == "closed"
        assert np.array_equal(
            execution.result.indices, reference.result.indices
        )
        assert execution.result.tau == reference.result.tau
    finally:
        service.close(timeout=30)
    stats = service.session_stats()
    assert stats["breaker_trips"] == 1
    assert stats["breaker_fast_failures"] >= 1
    assert service.health()["breaker"]["state"] == "closed"


# -- concurrent windows --------------------------------------------------------


def test_disjoint_windows_execute_concurrently(beta_dataset):
    service = SupgService(
        _engine(beta_dataset),
        max_window_queries=1,
        max_window_ms=5.0,
        max_inflight_windows=2,
    )
    barrier = threading.Barrier(2)

    def stub(window, closed_by, abandoned=None):
        # Both windows must be inside their executions at once, or the
        # barrier times out and fails the tickets.
        barrier.wait(timeout=10)
        _finish_window(window)

    service._execute_window = stub
    try:
        a = service.submit(RT.format(gamma=80), seed=0)
        b = service.submit(RT.format(gamma=80), seed=1)  # disjoint (table, seed)
        assert a.result(timeout=15) is DONE
        assert b.result(timeout=15) is DONE
    finally:
        service.close(timeout=10)


def test_same_group_windows_never_overlap(beta_dataset):
    service = SupgService(
        _engine(beta_dataset),
        max_window_queries=1,
        max_window_ms=5.0,
        max_inflight_windows=2,
    )
    lock = threading.Lock()
    state = {"active": 0, "max_active": 0}
    release = threading.Event()

    def stub(window, closed_by, abandoned=None):
        with lock:
            state["active"] += 1
            state["max_active"] = max(state["max_active"], state["active"])
        release.wait(10)
        with lock:
            state["active"] -= 1
        _finish_window(window)

    service._execute_window = stub
    try:
        a = service.submit(RT.format(gamma=80), seed=0)
        b = service.submit(RT.format(gamma=85), seed=0)  # same (table, seed)
        release.set()
        assert a.result(timeout=15) is DONE
        assert b.result(timeout=15) is DONE
    finally:
        release.set()
        service.close(timeout=10)
    assert state["max_active"] == 1


def test_concurrent_windows_bit_identical_to_sequential(beta_dataset):
    statements = [(RT.format(gamma=g), seed) for seed in (0, 1) for g in (80, 85, 90, 95)]
    reference_engine = _engine(beta_dataset)
    expected = [
        reference_engine.execute(sql, seed=seed) for sql, seed in statements
    ]
    service = SupgService(
        _engine(beta_dataset),
        max_window_queries=4,
        max_window_ms=25.0,
        max_inflight_windows=2,
    )
    try:
        tickets = [service.submit(sql, seed=seed) for sql, seed in statements]
        for ticket, want in zip(tickets, expected):
            got = ticket.result(timeout=120)
            assert got.method == want.method
            assert np.array_equal(got.result.indices, want.result.indices)
            assert got.result.tau == want.result.tau
            assert got.result.oracle_calls == want.result.oracle_calls
    finally:
        service.close(timeout=30)
    assert service.session_stats()["window_errors"] == 0


def test_saturated_service_serves_every_submitter_bit_identically():
    """64 submitter threads (more than there are cores) cycle through the
    mixed batch against ``block`` admission with a queue of 8, two
    concurrent windows, eight clients and both lanes.  Every thread
    finishes, every submission is admitted and served without error, and
    every result matches a fresh engine's ``execute()`` byte for byte."""
    submitters = 64
    dataset = make_beta_dataset(0.01, 1.0, size=20_000, seed=7)
    reference_engine = _engine(dataset)
    expected = {sql: reference_engine.execute(sql, seed=0) for sql in MIXED_BATCH}
    statements = [MIXED_BATCH[i % len(MIXED_BATCH)] for i in range(submitters)]
    results: list = [None] * submitters
    errors: list = []
    service = SupgService(
        _engine(dataset),
        max_window_queries=16,
        max_window_ms=50.0,
        max_queue_depth=8,
        admission="block",
        admission_timeout_s=60.0,
        max_inflight_windows=2,
    )

    def submitter(i: int, sql: str) -> None:
        try:
            ticket = service.submit(
                sql,
                seed=0,
                client_id=f"tenant-{i % 8}",
                lane="interactive" if i % 10 == 0 else "batch",
            )
            results[i] = ticket.result(timeout=60)
        except Exception as exc:  # reported by the assertion below
            errors.append((i, exc))

    threads = [
        threading.Thread(target=submitter, args=(i, sql), daemon=True)
        for i, sql in enumerate(statements)
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
        service.close(timeout=30)
    assert not [thread for thread in threads if thread.is_alive()]
    assert errors == []
    for got, sql in zip(results, statements):
        want = expected[sql]
        assert got.result.indices.tobytes() == want.result.indices.tobytes()
        assert got.result.tau == want.result.tau
        assert got.result.oracle_calls == want.result.oracle_calls
    stats = service.session_stats()
    assert stats["admitted"] == stats["queries_served"] == submitters


# -- worker budgeting ----------------------------------------------------------


def test_worker_share_splits_budget_fairly():
    assert worker_share(8, 2) == 4
    assert worker_share(8, 3) == 2
    assert worker_share(8, 16) == 1  # never starves a window below 1
    assert worker_share(None, 4) == 1
    with pytest.raises(ValueError):
        worker_share(8, 0)
