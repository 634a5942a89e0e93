"""SupgService: admission queue, plan-window folding, result routing.

The contracts pinned here:

1. A window of concurrent queries sharing sampling designs performs
   exactly one oracle draw per distinct design (asserted via the store
   counters) — the acceptance case is 8 queries over 2 designs → 2
   draws.
2. Window close triggers on *both* thresholds: ``max_window_queries``
   (count) and ``max_window_ms`` (timeout).
3. Every result is bit-identical to a sequential ``engine.execute()``
   call with the same statement and seed, in arrival order.
4. Late arrivals whose group an executing window already pre-drew are
   folded in rather than queued for the next window.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, inject
from repro.query import QuerySyntaxError, SupgEngine, SupgService

RT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT 400 USING A(x) "
    "RECALL TARGET {gamma}% WITH PROBABILITY 95%"
)
PT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT 400 USING A(x) "
    "PRECISION TARGET {gamma}% WITH PROBABILITY 95%"
)

#: 8 statements over 2 distinct designs: four recall targets share the
#: proxy-weighted draw at budget 400; three precision targets share
#: IS-CI-P's stage-1 design (budget 200), which the half-budget recall
#: query reuses as well.
EIGHT_QUERIES = [
    RT.format(gamma=80),
    RT.format(gamma=85),
    RT.format(gamma=90),
    RT.format(gamma=95),
    PT.format(gamma=80),
    PT.format(gamma=90),
    PT.format(gamma=95),
    RT.format(gamma=90).replace("ORACLE LIMIT 400", "ORACLE LIMIT 200"),
]


def _engine(dataset, **kwargs) -> SupgEngine:
    engine = SupgEngine(**kwargs)
    engine.register_table("t", dataset)
    return engine


def _assert_same_execution(actual, expected, label=""):
    assert actual.method == expected.method, label
    assert np.array_equal(actual.result.indices, expected.result.indices), label
    assert actual.result.tau == expected.result.tau, label
    assert actual.result.oracle_calls == expected.result.oracle_calls, label
    assert np.array_equal(
        actual.result.sampled_indices, expected.result.sampled_indices
    ), label
    assert dict(actual.result.details) == dict(expected.result.details), label


@contextlib.contextmanager
def _alarm(seconds):
    """Fail, rather than hang, when a ticket never resolves."""

    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class _HangOnceArmed(FaultPlan):
    """Fault plan whose oracle calls hang, once armed, until released."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.armed = threading.Event()
        self.release = threading.Event()

    def maybe_fault(self) -> None:
        if self.armed.is_set():
            self.release.wait(60.0)


class TestAcceptanceWindow:
    def test_eight_concurrent_queries_two_designs_two_draws(self, beta_dataset):
        """The acceptance case: 8 concurrent submitters, 2 designs, 2
        oracle draws, results bit-identical to sequential execute."""
        engine = _engine(beta_dataset)
        tickets = [None] * len(EIGHT_QUERIES)
        barrier = threading.Barrier(len(EIGHT_QUERIES))

        with SupgService(
            engine, max_window_queries=len(EIGHT_QUERIES), max_window_ms=10_000.0
        ) as service:

            def client(position: int) -> None:
                barrier.wait()
                tickets[position] = service.submit(EIGHT_QUERIES[position], seed=3)

            threads = [
                threading.Thread(target=client, args=(position,))
                for position in range(len(EIGHT_QUERIES))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            executions = [ticket.result(timeout=120.0) for ticket in tickets]

        stats = service.session_stats()
        assert stats["misses"] == 2, "exactly one draw per distinct design"
        assert stats["labels_drawn"] <= 400 + 200
        assert stats["windows"] == 1
        assert stats["queries_served"] == 8
        assert stats["queries_folded"] == 6

        reference = _engine(beta_dataset)
        for position, execution in enumerate(executions):
            expected = reference.execute(EIGHT_QUERIES[position], seed=3)
            _assert_same_execution(execution, expected, label=position)

    def test_results_bit_identical_in_arrival_order(self, beta_dataset):
        service = SupgService(
            _engine(beta_dataset), max_window_queries=3, max_window_ms=5_000.0
        )
        with service:
            tickets = [
                service.submit(sql, seed=1) for sql in EIGHT_QUERIES
            ]
            executions = [ticket.result(timeout=120.0) for ticket in tickets]
        assert [ticket.number for ticket in tickets] == list(range(8))
        reference = _engine(beta_dataset)
        for sql, execution in zip(EIGHT_QUERIES, executions):
            _assert_same_execution(execution, reference.execute(sql, seed=1), sql)


class TestWindowClose:
    def test_count_trigger_closes_full_windows(self, beta_dataset):
        with SupgService(
            _engine(beta_dataset), max_window_queries=2, max_window_ms=60_000.0
        ) as service:
            tickets = [service.submit(RT.format(gamma=90), seed=seed) for seed in range(4)]
            for ticket in tickets:
                ticket.result(timeout=120.0)
        log = service.window_log
        assert len(log) >= 2
        assert log[0]["queries"] == 2 and log[0]["closed_by"] == "count"
        assert sum(record["queries"] for record in log) == 4

    def test_timeout_trigger_closes_partial_window(self, beta_dataset):
        with SupgService(
            _engine(beta_dataset), max_window_queries=100, max_window_ms=80.0
        ) as service:
            ticket = service.submit(RT.format(gamma=90))
            execution = ticket.result(timeout=120.0)
            assert execution.result.size > 0
            # The window closed by timeout, not by the (unreachable)
            # count threshold and not by service shutdown.
            assert service.window_log[0]["closed_by"] == "timeout"
            assert service.window_log[0]["queries"] == 1

    def test_close_drains_pending_queries(self, beta_dataset):
        service = SupgService(
            _engine(beta_dataset), max_window_queries=100, max_window_ms=60_000.0
        )
        tickets = [service.submit(RT.format(gamma=g)) for g in (80, 90)]
        service.close()  # must flush the open window, not drop it
        for ticket in tickets:
            assert ticket.done()
            assert ticket.result().result.size > 0
        assert service.window_log[-1]["closed_by"] == "drain"

    def test_submit_after_close_rejected(self, beta_dataset):
        service = SupgService(_engine(beta_dataset))
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(RT.format(gamma=90))
        service.close()  # idempotent


class TestFolding:
    def test_same_design_folds_one_draw(self, beta_dataset):
        engine = _engine(beta_dataset)
        with SupgService(engine, max_window_queries=3, max_window_ms=5_000.0) as service:
            tickets = [
                service.submit(RT.format(gamma=gamma), seed=5)
                for gamma in (80, 90, 95)
            ]
            for ticket in tickets:
                ticket.result(timeout=120.0)
        stats = service.session_stats()
        assert stats["misses"] == 1
        assert stats["queries_folded"] == 2
        assert service.window_log[0]["distinct_draws"] == 1

    def test_distinct_seeds_do_not_fold(self, beta_dataset):
        engine = _engine(beta_dataset)
        with SupgService(engine, max_window_queries=2, max_window_ms=5_000.0) as service:
            first = service.submit(RT.format(gamma=90), seed=0)
            second = service.submit(RT.format(gamma=90), seed=1)
            first.result(timeout=120.0)
            second.result(timeout=120.0)
        stats = service.session_stats()
        assert stats["misses"] == 2 and stats["queries_folded"] == 0

    def test_late_arrival_folds_into_warm_window(self, beta_dataset, monkeypatch):
        """An arrival landing after prewarm but before execution joins
        the executing window when its draw is already paid for."""
        from repro.query import service as service_module

        engine = _engine(beta_dataset)
        service = SupgService(engine, max_window_queries=1, max_window_ms=10_000.0)
        original_prewarm = service_module.SupgService._fold_late_arrivals

        late_ticket = {}

        def submit_late_then_fold(self, compiled, submissions, plan):
            # Runs on the scheduler thread after prewarm: the window's
            # group is warm, and this arrival shares it.
            late_ticket["ticket"] = service.submit(RT.format(gamma=95), seed=9)
            return original_prewarm(self, compiled, submissions, plan)

        monkeypatch.setattr(
            service_module.SupgService, "_fold_late_arrivals", submit_late_then_fold
        )
        try:
            first = service.submit(RT.format(gamma=80), seed=9)
            first_execution = first.result(timeout=120.0)
            late_execution = late_ticket["ticket"].result(timeout=120.0)
        finally:
            monkeypatch.setattr(
                service_module.SupgService, "_fold_late_arrivals", original_prewarm
            )
            service.close()

        log = service.window_log
        assert log[0]["late_folded"] == 1
        assert log[0]["queries"] == 2
        assert first.window == late_ticket["ticket"].window == 0
        assert service.session_stats()["misses"] == 1  # one shared draw

        reference = _engine(beta_dataset)
        _assert_same_execution(first_execution, reference.execute(RT.format(gamma=80), seed=9))
        _assert_same_execution(late_execution, reference.execute(RT.format(gamma=95), seed=9))

    def test_cold_late_arrival_waits_for_next_window(self, beta_dataset, monkeypatch):
        """A late arrival needing a *new* draw stays queued."""
        from repro.query import service as service_module

        engine = _engine(beta_dataset)
        service = SupgService(engine, max_window_queries=1, max_window_ms=10_000.0)
        original = service_module.SupgService._fold_late_arrivals
        late_ticket = {}

        def submit_cold_late(self, compiled, submissions, plan):
            late_ticket["ticket"] = service.submit(RT.format(gamma=90), seed=99)
            return original(self, compiled, submissions, plan)

        monkeypatch.setattr(
            service_module.SupgService, "_fold_late_arrivals", submit_cold_late
        )
        try:
            first = service.submit(RT.format(gamma=90), seed=0)
            first.result(timeout=120.0)
            monkeypatch.setattr(
                service_module.SupgService, "_fold_late_arrivals", original
            )
            late_ticket["ticket"].result(timeout=120.0)
        finally:
            service.close()
        log = service.window_log
        assert log[0]["late_folded"] == 0
        assert len(log) == 2  # the cold arrival formed its own window
        assert late_ticket["ticket"].window == 1


class TestErrorsAndStores:
    def test_syntax_error_raises_in_submitter(self, beta_dataset):
        with SupgService(_engine(beta_dataset)) as service:
            with pytest.raises(QuerySyntaxError):
                service.submit("SELECT nonsense")

    def test_window_failure_fails_tickets_but_service_survives(
        self, beta_dataset, monkeypatch
    ):
        """A planning/prewarm crash fails that window's tickets; the
        scheduler keeps serving later submissions (no permanent hang)."""
        engine = _engine(beta_dataset)
        with SupgService(
            engine, max_window_queries=1, max_window_ms=200.0
        ) as service:
            def boom(compiled):
                raise RuntimeError("prewarm disk exploded")

            monkeypatch.setattr(engine, "_plan_compiled", boom)
            doomed = service.submit(RT.format(gamma=90))
            error = doomed.exception(timeout=120.0)
            assert isinstance(error, RuntimeError)
            with pytest.raises(RuntimeError, match="exploded"):
                doomed.result()

            monkeypatch.undo()
            healthy = service.submit(RT.format(gamma=90))
            assert healthy.result(timeout=120.0).result.size > 0
        log = service.window_log
        assert log[0]["errors"] == 1 and log[1]["errors"] == 0

    def test_unknown_table_surfaces_on_ticket(self, beta_dataset):
        with SupgService(
            _engine(beta_dataset), max_window_queries=2, max_window_ms=200.0
        ) as service:
            bad = service.submit(RT.format(gamma=90).replace("FROM t", "FROM missing"))
            good = service.submit(RT.format(gamma=90))
            assert isinstance(bad.exception(timeout=120.0), KeyError)
            with pytest.raises(KeyError):
                bad.result()
            assert good.result(timeout=120.0).result.size > 0
        assert service.session_stats()["window_errors"] == 1

    def test_store_dir_windows_spill_and_reuse(self, beta_dataset, tmp_path):
        engine = _engine(beta_dataset, store_dir=str(tmp_path))
        with SupgService(engine, max_window_queries=4, max_window_ms=5_000.0) as service:
            tickets = [
                service.submit(RT.format(gamma=gamma), seed=2)
                for gamma in (80, 85, 90, 95)
            ]
            for ticket in tickets:
                ticket.result(timeout=120.0)
        assert len(list(tmp_path.glob("sample-*.npz"))) == 1

        second = _engine(beta_dataset, store_dir=str(tmp_path))
        with SupgService(second, max_window_queries=1, max_window_ms=5_000.0) as warm:
            warm.submit(RT.format(gamma=90), seed=2).result(timeout=120.0)
        stats = warm.session_stats()
        assert stats["labels_drawn"] == 0 and stats["disk_hits"] == 1
        assert warm.window_log[0]["warm_draws"] == 1

    def test_validation(self, beta_dataset):
        engine = _engine(beta_dataset)
        with pytest.raises(ValueError, match="max_window_queries"):
            SupgService(engine, max_window_queries=0)
        with pytest.raises(ValueError, match="max_window_ms"):
            SupgService(engine, max_window_ms=0)
        with pytest.raises(ValueError, match="n_jobs"):
            SupgService(engine, jobs=0)

    def test_parallel_window_jobs_bit_identical(self, beta_dataset):
        engine = _engine(beta_dataset)
        with SupgService(
            engine, max_window_queries=8, max_window_ms=5_000.0, jobs=2
        ) as service:
            tickets = [service.submit(sql, seed=3) for sql in EIGHT_QUERIES]
            executions = [ticket.result(timeout=120.0) for ticket in tickets]
        reference = _engine(beta_dataset)
        for sql, execution in zip(EIGHT_QUERIES, executions):
            _assert_same_execution(execution, reference.execute(sql, seed=3), sql)
        assert service.session_stats()["misses"] == 2


class TestNoForkDegradation:
    def test_service_degrades_sequentially_with_one_warning(
        self, beta_dataset, monkeypatch
    ):
        import warnings as warnings_module

        from repro.core import planning

        monkeypatch.setattr(planning, "fork_available", lambda: False)
        monkeypatch.setattr(planning, "_FORK_WARNING_EMITTED", False)
        engine = _engine(beta_dataset)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            with SupgService(
                engine, max_window_queries=2, max_window_ms=5_000.0, jobs=4
            ) as service:
                first = [service.submit(sql, seed=3) for sql in EIGHT_QUERIES[:2]]
                for ticket in first:
                    ticket.result(timeout=120.0)
                second = [service.submit(sql, seed=3) for sql in EIGHT_QUERIES[2:4]]
                for ticket in second:
                    ticket.result(timeout=120.0)
        fork_warnings = [
            warning for warning in caught if "fork" in str(warning.message)
        ]
        assert len(fork_warnings) == 1, "exactly one clear warning"
        assert issubclass(fork_warnings[0].category, RuntimeWarning)
        # Both windows still produced correct results sequentially.
        reference = _engine(beta_dataset)
        for sql, ticket in zip(EIGHT_QUERIES[:4], first + second):
            _assert_same_execution(ticket.result(), reference.execute(sql, seed=3), sql)


class TestFailureIsolation:
    """PR 6 failure semantics: one query's fault stays on its ticket."""

    def _bomb_engine(self, dataset, bomb_seed=99):
        """An engine whose compiled jobs raise at *run* time when
        compiled with ``seed == bomb_seed`` — an execution-phase
        failure (unlike the raw compile errors covered above)."""
        engine = _engine(dataset)
        original = engine._compile

        class Bomb:
            def __init__(self, job):
                self._job = job

            def __getattr__(self, name):
                return getattr(self._job, name)

            def run(self, context):
                raise RuntimeError("boom mid-execution")

        def compile_with_bomb(index, parsed, seed, method, stage_budget, kwargs):
            job = original(index, parsed, seed, method, stage_budget, kwargs)
            return Bomb(job) if seed == bomb_seed else job

        engine._compile = compile_with_bomb
        return engine

    def test_execution_failure_fails_only_its_own_ticket(self, beta_dataset):
        from repro.query import QueryError

        engine = self._bomb_engine(beta_dataset)
        with SupgService(engine, max_window_queries=3, max_window_ms=5_000.0) as service:
            good_a = service.submit(EIGHT_QUERIES[0], seed=3)
            bad = service.submit(EIGHT_QUERIES[1], seed=99)
            good_b = service.submit(EIGHT_QUERIES[2], seed=3)
            error = bad.exception(timeout=120.0)
            assert isinstance(error, QueryError)
            assert isinstance(error, RuntimeError)  # back-compat contract
            assert "boom mid-execution" in str(error)
            assert error.phase == "execution" and error.window == 0
            assert error.number == bad.number
            assert isinstance(error.cause, RuntimeError)
            # Window-mates are unharmed and bit-identical.
            reference = _engine(beta_dataset)
            _assert_same_execution(
                good_a.result(timeout=120.0),
                reference.execute(EIGHT_QUERIES[0], seed=3),
            )
            _assert_same_execution(
                good_b.result(timeout=120.0),
                reference.execute(EIGHT_QUERIES[2], seed=3),
            )
            log = service.window_log
            assert log[0]["errors"] == 1 and log[0]["queries"] == 3

    def test_scheduler_death_fails_all_tickets_and_submits(self, beta_dataset):
        from repro.query import QueryError

        engine = _engine(beta_dataset)
        service = SupgService(engine, max_window_queries=2, max_window_ms=5_000.0)

        def die(*args, **kwargs):
            raise SystemExit("scheduler killed mid-window")

        service._execute_window = die
        first = service.submit(EIGHT_QUERIES[0], seed=3)
        second = service.submit(EIGHT_QUERIES[1], seed=3)  # closes the window
        for ticket in (first, second):
            error = ticket.exception(timeout=30.0)
            assert isinstance(error, QueryError)
            assert "scheduler thread crashed" in str(error)
            assert error.phase == "scheduler"
        with pytest.raises(RuntimeError, match="scheduler thread has died"):
            service.submit(EIGHT_QUERIES[2], seed=3)

    def test_timeout_message_reports_queued_state(self, beta_dataset):
        engine = _engine(beta_dataset)
        with SupgService(
            engine, max_window_queries=8, max_window_ms=60_000.0
        ) as service:
            ticket = service.submit(EIGHT_QUERIES[0], seed=3)
            with pytest.raises(TimeoutError, match=r"state: queued"):
                ticket.result(timeout=0.05)
            assert ticket.state == "queued"

    def test_window_deadline_aborts_hung_window(self, beta_dataset):
        from repro.query import QueryError

        engine = _engine(beta_dataset)
        hang = threading.Event()
        original = engine._plan_compiled

        def slow_plan(compiled):
            if not hang.is_set():
                hang.set()
                time.sleep(30.0)  # first window hangs well past the deadline
            return original(compiled)

        engine._plan_compiled = slow_plan
        with SupgService(
            engine,
            max_window_queries=1,
            max_window_ms=5_000.0,
            window_deadline_s=0.3,
        ) as service:
            stuck = service.submit(EIGHT_QUERIES[0], seed=3)
            # While the window hangs, the ticket reports its state.
            with pytest.raises(TimeoutError, match=r"state: (queued|executing)"):
                stuck.result(timeout=0.05)
            error = stuck.exception(timeout=30.0)
            assert isinstance(error, QueryError)
            assert "deadline" in str(error) and error.phase == "deadline"
            # The scheduler moved on: the next window executes normally.
            healthy = service.submit(EIGHT_QUERIES[1], seed=3)
            _assert_same_execution(
                healthy.result(timeout=120.0),
                _engine(beta_dataset).execute(EIGHT_QUERIES[1], seed=3),
            )
            log = service.window_log
            assert log[0].get("deadline_expired") is True
            assert log[0]["errors"] == 1

    def test_deadline_fails_late_folded_tickets(self, beta_dataset, monkeypatch):
        """A ticket folded into a window that then misses its deadline
        fails with the window, under the window's own index, and counts
        as served."""
        from repro.query import QueryError
        from repro.query import service as service_module

        plan = _HangOnceArmed()
        service = SupgService(
            _engine(beta_dataset),
            max_window_queries=1,
            max_window_ms=10_000.0,
            window_deadline_s=1.0,
        )
        original = service_module.SupgService._fold_late_arrivals
        late = {}

        def fold_then_hang(self, compiled, window, query_plan):
            if "ticket" not in late:
                late["ticket"] = service.submit(PT.format(gamma=90), seed=5)
            folded = original(self, compiled, window, query_plan)
            plan.armed.set()  # both statements' stage-2 labels now hang
            return folded

        monkeypatch.setattr(
            service_module.SupgService, "_fold_late_arrivals", fold_then_hang
        )
        with _alarm(60), inject(plan):
            try:
                first = service.submit(PT.format(gamma=80), seed=5)
                first_error = first.exception(timeout=30.0)
                late_error = late["ticket"].exception(timeout=5.0)
            finally:
                plan.release.set()
                service.close(timeout=30.0)
        for error in (first_error, late_error):
            assert isinstance(error, QueryError) and error.phase == "deadline"
        assert first.window == late["ticket"].window == 0
        [record] = service.window_log
        assert record["deadline_expired"] is True and record["index"] == 0
        assert record["queries"] == record["errors"] == 2
        stats = service.session_stats()
        assert stats["admitted"] == stats["queries_served"] == 2

    def test_close_drain_timeout_fails_stuck_tickets(self, beta_dataset):
        from repro.query import QueryError

        engine = _engine(beta_dataset)
        service = SupgService(engine, max_window_queries=1, max_window_ms=5_000.0)
        release = threading.Event()

        def stall(window, closed_by, abandoned=None):
            release.wait(30.0)

        service._execute_window = stall
        ticket = service.submit(EIGHT_QUERIES[0], seed=3)
        service.close(timeout=0.3)
        error = ticket.exception(timeout=5.0)
        assert isinstance(error, QueryError)
        assert "drain timed out" in str(error)
        release.set()

    def test_close_without_drain_fails_queued_tickets(self, beta_dataset):
        from repro.query import QueryError

        engine = _engine(beta_dataset)
        service = SupgService(engine, max_window_queries=8, max_window_ms=60_000.0)
        ticket = service.submit(EIGHT_QUERIES[0], seed=3)
        service.close(drain=False, timeout=5.0)
        error = ticket.exception(timeout=5.0)
        assert isinstance(error, QueryError)
        assert "drain=False" in str(error)
