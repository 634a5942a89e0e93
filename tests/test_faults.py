"""Fault-injection harness and oracle retry layer.

The contracts pinned here:

1. :class:`RetryingOracle` retries only transient failures, with
   deterministic (seeded) backoff, and raises a typed
   :class:`OracleUnavailableError` when the per-call cap or the total
   retry budget runs out.  Non-transient errors pass through unretried.
2. Retries never double-charge the label budget: the retry wrapper
   sits below :class:`BudgetedOracle` and below the sample store, so a
   draw that eventually succeeds pays exactly once and a draw that
   never succeeds pays nothing.
3. :class:`FaultPlan` is reproducible — the same seed faults the same
   calls — and :func:`inject` is process-wide, nestable, and cleanly
   restored.
4. Worker-death recovery: every fork fan-out — ``execute_many``
   (engine), ``run_trials``, ``sweep``/``compare_methods`` panels and
   ``run_sweep_cells`` (experiments) — survives a hard-killed worker,
   re-executes only the affected work in the parent, warns, and
   returns bit-identical results.  None of them may hang.
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.core.pipeline import ExecutionContext, SampleStore
from repro.core.planning import fork_available
from repro.core import ApproxQuery, ImportanceCIRecall
from repro.datasets import make_beta_dataset
from repro.experiments import run_sweep_cells, run_trials, sweep
from repro.faults import (
    FaultPlan,
    FaultyOracle,
    active_plan,
    corrupt_statistic,
    inject,
    maybe_kill_worker,
    wrap_label_fn,
)
from repro.oracle import (
    BudgetedOracle,
    OracleUnavailableError,
    RetryPolicy,
    RetryingOracle,
    TransientOracleError,
)
from repro.query import SupgEngine
from repro.sampling import SampleDesign

DESIGN = SampleDesign(kind="proxy-weighted", budget=200, exponent=0.5, mixing=0.1)

RT_SQL = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT 300 USING A(x) "
    "RECALL TARGET {gamma}% WITH PROBABILITY 95%"
)

#: A no-sleep policy for tests that only care about retry logic.
FAST = dict(backoff=0.0, backoff_cap=0.0)


def _flaky(labels, fail_times):
    """A label_fn raising TransientOracleError on its first N calls."""
    calls = {"n": 0}

    def label_fn(indices):
        calls["n"] += 1
        if calls["n"] <= fail_times:
            raise TransientOracleError(f"flake #{calls['n']}")
        return labels[np.asarray(indices)]

    label_fn.calls = calls
    return label_fn


@pytest.fixture(scope="module")
def workload():
    return make_beta_dataset(0.01, 1.0, size=20_000, seed=9)


class TestRetryingOracle:
    def test_transient_failures_retried_to_success(self, workload):
        oracle = RetryingOracle(
            _flaky(workload.labels, 2), RetryPolicy(retries=3, **FAST)
        )
        indices = np.arange(10)
        np.testing.assert_array_equal(oracle.query(indices), workload.labels[:10])
        assert oracle.attempts == 3 and oracle.retries_used == 2

    def test_exhaustion_raises_typed_error(self, workload):
        oracle = RetryingOracle(
            _flaky(workload.labels, 99), RetryPolicy(retries=2, **FAST)
        )
        with pytest.raises(OracleUnavailableError, match="after 2 retries") as info:
            oracle.query(np.arange(4))
        assert info.value.attempts == 3
        assert isinstance(info.value.__cause__, TransientOracleError)

    def test_retry_budget_separate_from_per_call_cap(self, workload):
        policy = RetryPolicy(retries=10, retry_budget=3, **FAST)
        oracle = RetryingOracle(_flaky(workload.labels, 99), policy)
        with pytest.raises(OracleUnavailableError, match="retry budget of 3"):
            oracle.query(np.arange(4))
        assert oracle.retries_used == 3

    def test_non_transient_errors_pass_through_unretried(self):
        def broken(indices):
            raise KeyError("deterministic bug")

        oracle = RetryingOracle(broken, RetryPolicy(retries=5, **FAST))
        with pytest.raises(KeyError):
            oracle.query(np.arange(2))
        assert oracle.attempts == 1 and oracle.retries_used == 0

    def test_timeout_counts_as_transient(self, workload):
        import time as _time

        slow_once = {"n": 0}

        def label_fn(indices):
            slow_once["n"] += 1
            if slow_once["n"] == 1:
                _time.sleep(0.5)
            return workload.labels[np.asarray(indices)]

        oracle = RetryingOracle(
            label_fn, RetryPolicy(retries=2, timeout=0.05, **FAST)
        )
        np.testing.assert_array_equal(
            oracle.query(np.arange(5)), workload.labels[:5]
        )
        assert oracle.retries_used == 1

    def test_timeout_exhaustion_is_typed(self):
        import time as _time

        oracle = RetryingOracle(
            lambda indices: _time.sleep(5),
            RetryPolicy(retries=1, timeout=0.02, **FAST),
        )
        with pytest.raises(OracleUnavailableError, match="timed out"):
            oracle.query(np.arange(2))

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(retries=8, backoff=0.1, backoff_cap=0.4, jitter=0.25, seed=5)
        a = RetryingOracle(lambda i: i, policy)
        b = RetryingOracle(lambda i: i, policy)
        delays_a = [a._backoff(n) for n in range(1, 7)]
        delays_b = [b._backoff(n) for n in range(1, 7)]
        assert delays_a == delays_b  # seeded jitter
        for n, delay in enumerate(delays_a, start=1):
            base = min(0.4, 0.1 * 2 ** (n - 1))
            assert base * 0.75 <= delay <= base * 1.25

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="retry_budget"):
            RetryPolicy(retry_budget=-2)

    def test_no_double_charge_below_budget_layer(self, workload):
        """The canonical layering: BudgetedOracle(RetryingOracle(lookup)).
        Two transient failures then success must charge the labels once."""
        retrier = RetryingOracle(
            _flaky(workload.labels, 2), RetryPolicy(retries=5, **FAST)
        )
        budgeted = BudgetedOracle(retrier.query, budget=50)
        budgeted.query(np.arange(20))
        assert budgeted.calls_used == 20  # not 3 x 20
        assert retrier.retries_used == 2


class TestFaultPlan:
    def test_same_seed_same_fault_sequence(self, workload):
        def pattern(seed):
            plan = FaultPlan(seed=seed, oracle_failure_rate=0.3)
            plan._install()
            oracle = FaultyOracle(lambda i: workload.labels[i], plan)
            outcome = []
            for _ in range(40):
                try:
                    oracle.query(np.arange(3))
                    outcome.append(True)
                except TransientOracleError:
                    outcome.append(False)
            return outcome

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="oracle_failure_rate"):
            FaultPlan(oracle_failure_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(oracle_failure_rate=0.7, oracle_hang_rate=0.7)

    def test_inject_is_nestable_and_restored(self):
        assert active_plan() is None
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        with inject(outer):
            assert active_plan() is outer
            with inject(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_wrap_label_fn_checks_plan_at_call_time(self, workload):
        # Wrapped before any plan exists; faulted once one is injected.
        wrapped = wrap_label_fn(lambda i: workload.labels[np.asarray(i)])
        np.testing.assert_array_equal(wrapped(np.arange(3)), workload.labels[:3])
        with inject(FaultPlan(seed=0, oracle_failure_rate=1.0)):
            with pytest.raises(TransientOracleError, match="injected oracle fault"):
                wrapped(np.arange(3))
        np.testing.assert_array_equal(wrapped(np.arange(3)), workload.labels[:3])

    def test_kill_seam_never_kills_installing_process(self):
        plan = FaultPlan(kill_execution=1)
        with inject(plan):
            # Same pid as the installer: must return, not exit.
            maybe_kill_worker([0, 1, 2])
            assert not plan.worker_killed

    def test_corrupt_statistic_modes_and_errors(self, workload, tmp_path):
        with pytest.raises(FileNotFoundError):
            corrupt_statistic(tmp_path)
        SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 0)  # a label column
        with pytest.raises(IndexError):
            corrupt_statistic(tmp_path, which=5)
        with pytest.raises(ValueError, match="corruption mode"):
            corrupt_statistic(tmp_path, mode="nonsense")
        path = corrupt_statistic(tmp_path, mode="garbage")
        assert path.name.endswith("-labels.npy")
        assert path.read_bytes().startswith(b"this is not")


class TestStoreRetryWiring:
    def test_faulted_draw_is_bit_identical_and_charged_once(self, workload):
        reference = SampleStore().fetch(workload, DESIGN, 3)

        store = SampleStore(retry_policy=RetryPolicy(retries=20, **FAST))
        # Seed 3's uniform stream opens 0.086, 0.237, 0.801: two
        # injected faults, then the retried call succeeds.
        with inject(FaultPlan(seed=3, oracle_failure_rate=0.5)) as plan:
            sample = store.fetch(workload, DESIGN, 3)
        assert plan.faults_injected > 0  # the chaos actually happened
        assert store.oracle_retries == plan.faults_injected
        np.testing.assert_array_equal(sample.indices, reference.indices)
        np.testing.assert_array_equal(sample.labels, reference.labels)
        assert store.stats()["labels_drawn"] == reference.oracle_calls

    def test_permanent_failure_is_typed_and_charges_nothing(self, workload):
        store = SampleStore(retry_policy=RetryPolicy(retries=2, **FAST))
        with inject(FaultPlan(seed=0, oracle_failure_rate=1.0)):
            with pytest.raises(OracleUnavailableError):
                store.fetch(workload, DESIGN, 3)
        assert store.stats()["labels_drawn"] == 0

    def test_no_policy_means_no_retry(self, workload):
        store = SampleStore()  # retry_policy=None
        with inject(FaultPlan(seed=0, oracle_failure_rate=1.0)):
            with pytest.raises(TransientOracleError):
                store.fetch(workload, DESIGN, 3)

    def test_context_retry_policy_delegates_to_store(self, workload):
        policy = RetryPolicy(retries=1)
        context = ExecutionContext(store=SampleStore(retry_policy=policy))
        assert context.retry_policy is policy
        assert ExecutionContext(store=SampleStore()).retry_policy is None


QUERY = ApproxQuery.recall_target(0.9, 0.05, 300)


def _recall_factory(gamma):
    return lambda: ImportanceCIRecall(QUERY.with_gamma(gamma))


def _execute_many(workload, store_dir, jobs):
    engine = SupgEngine(store_dir=str(store_dir))
    engine.register_table("t", workload)
    statements = [RT_SQL.format(gamma=g) for g in (80, 85, 90, 95)]
    return [
        (e.method, e.result.indices.tobytes(), e.result.tau, e.result.oracle_calls)
        for e in engine.execute_many(statements, seed=0, jobs=jobs)
    ]


def _run_trials(workload, store_dir, jobs):
    return run_trials(_recall_factory(0.9), workload, trials=4, n_jobs=jobs).records


def _sweep(workload, store_dir, jobs):
    summaries = sweep(_recall_factory, (0.8, 0.9), workload, trials=4, n_jobs=jobs)
    return [summary.records for summary in summaries]


def _run_sweep_cells(workload, store_dir, jobs):
    cells = [
        dict(factory_for_gamma=_recall_factory, gammas=(0.8, 0.9), dataset=workload,
             trials=2, base_seed=base_seed)
        for base_seed in (0, 10)
    ]
    return [
        [summary.records for summary in summaries]
        for summaries in run_sweep_cells(cells, n_jobs=jobs)
    ]


#: Fan-out → (runner, execution index whose worker the fault plan kills).
FAN_OUTS = {
    "execute_many": (_execute_many, 1),
    "run_trials": (_run_trials, 0),
    "sweep": (_sweep, 0),
    "run_sweep_cells": (_run_sweep_cells, 1),
}


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when a fan-out never returns."""

    def expire(signum, frame):
        raise TimeoutError(f"fan-out still blocked after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not fork_available(), reason="requires the fork start method")
class TestWorkerDeathRecovery:
    @pytest.mark.parametrize("fan_out", list(FAN_OUTS))
    def test_fan_out_recovers_bit_identically(self, fan_out, workload, tmp_path):
        run, kill_execution = FAN_OUTS[fan_out]
        expected = run(workload, tmp_path / "sequential", 1)
        with _deadline(60), inject(FaultPlan(kill_execution=kill_execution)) as plan:
            with pytest.warns(RuntimeWarning, match="recovered"):
                recovered = run(workload, tmp_path / "parallel", 2)
            assert plan.worker_killed
        assert recovered == expected
