"""Chaos acceptance: the PR 6 robustness contract, end to end.

With injected faults — a 20% transient oracle-failure rate, one
fork-worker kill, one corrupted spill — a 50-statement mixed workload
through :class:`SupgService` must:

- resolve every ticket (no hangs),
- return bit-identical results to the fault-free run for every query
  that succeeds,
- fail only with typed :class:`QueryError`\\ s, each on its own ticket,
- draw no labels beyond the fault-free total plus the one redraw the
  corrupted spill forces (retries are never charged as labels).

The full scenario is delegated to ``scripts/chaos_smoke.py``, run here
with its default size and query count; the focused tests below pin
the isolation property the smoke's high retry budget makes unlikely to
surface — permanent oracle failures landing on individual tickets
while window-mates succeed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import make_beta_dataset
from repro.faults import FaultPlan, inject
from repro.oracle import OracleUnavailableError, RetryPolicy
from repro.query import QueryError, SupgEngine, SupgService

pytestmark = pytest.mark.chaos

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT {budget} USING A(x) "
    "RECALL TARGET {gamma}% WITH PROBABILITY 95%"
)


def test_fifty_query_mixed_workload_survives_chaos():
    """The headline acceptance run: all five gates of the chaos smoke."""
    sys.path.insert(0, str(SCRIPTS))
    try:
        import chaos_smoke
    finally:
        sys.path.remove(str(SCRIPTS))
    assert chaos_smoke.main(["--size", "20000", "--queries", "50"]) == 0


def test_permanent_failures_are_typed_and_isolated(tmp_path):
    """With retries disabled and a high fault rate, *some* queries fail
    permanently — as QueryError wrapping OracleUnavailableError, each
    on its own ticket — while queries whose draws succeeded (or were
    already warm) return bit-identical results."""
    dataset = make_beta_dataset(0.01, 1.0, size=20_000, seed=7)
    statements = [
        (RT.format(gamma=g, budget=b), seed)
        for g in (80, 90)
        for b in (200, 400)
        for seed in (0, 1)
    ]

    reference_engine = SupgEngine()
    reference_engine.register_table("t", dataset)
    reference = [
        reference_engine.execute(sql, seed=seed) for sql, seed in statements
    ]

    engine = SupgEngine(
        store_dir=str(tmp_path), retry_policy=RetryPolicy(retries=0, backoff=0.0)
    )
    engine.register_table("t", dataset)
    failed = succeeded = 0
    with inject(FaultPlan(seed=1, oracle_failure_rate=0.5)):
        with SupgService(
            engine, max_window_queries=4, max_window_ms=100.0
        ) as service:
            tickets = [service.submit(sql, seed=seed) for sql, seed in statements]
            for ticket, want in zip(tickets, reference):
                error = ticket.exception(timeout=120.0)
                if error is not None:
                    failed += 1
                    assert isinstance(error, QueryError)
                    assert isinstance(error.cause, OracleUnavailableError) or isinstance(
                        error.__cause__, OracleUnavailableError
                    )
                    continue
                succeeded += 1
                got = ticket.result()
                assert got.method == want.method
                np.testing.assert_array_equal(
                    got.result.indices, want.result.indices
                )
                assert got.result.oracle_calls == want.result.oracle_calls
    # Seed 1's fault stream makes both outcomes occur; if this ever
    # flakes the stream changed, not the contract.
    assert failed > 0 and succeeded > 0


def test_no_label_spend_on_permanently_failing_draws(tmp_path):
    """A query whose draw never succeeds charges zero labels."""
    dataset = make_beta_dataset(0.01, 1.0, size=20_000, seed=7)
    engine = SupgEngine(
        store_dir=str(tmp_path), retry_policy=RetryPolicy(retries=1, backoff=0.0)
    )
    engine.register_table("t", dataset)
    with inject(FaultPlan(seed=0, oracle_failure_rate=1.0)):
        with SupgService(
            engine, max_window_queries=1, max_window_ms=100.0
        ) as service:
            ticket = service.submit(RT.format(gamma=90, budget=300), seed=0)
            error = ticket.exception(timeout=120.0)
    assert isinstance(error, QueryError)
    assert engine.session_stats()["labels_drawn"] == 0
