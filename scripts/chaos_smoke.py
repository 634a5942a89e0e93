#!/usr/bin/env python
"""Chaos smoke run: a mixed workload under injected faults must degrade cleanly.

Runs the same 50-statement mixed recall/precision workload through a
``SupgService`` twice — once fault-free (the reference), once under the
deterministic fault harness (:mod:`repro.faults`) with:

- a 20% transient oracle-failure rate (every labeling call may raise),
- one fork worker killed mid-window (``kill_execution``),
- one spill file corrupted on disk before the service starts.

The gates, which together are the repo's operational-robustness
contract (see README "Failure semantics"):

1. **No hung tickets** — every submission resolves (result or typed
   error) within the per-ticket timeout.
2. **Bit-identical recovery** — every query that succeeds under faults
   returns exactly the reference pass's indices / tau / oracle_calls:
   retries, worker-death recovery, and quarantine-triggered redraws
   may cost time, never correctness.
3. **Typed failures only** — any query that does fail (transient
   failures outliving the retry budget) fails with
   :class:`repro.query.QueryError` on its own ticket only.
4. **No label inflation** — oracle retries are never double-charged,
   so the faulted pass draws at most the fault-free labels plus the
   one redraw forced by the corrupted spill.
5. **Fault evidence** — exactly one spill quarantined; retries
   actually happened; with fork available, at least one execution
   group was recovered after the worker kill.
6. **No leaked temp files** — after all passes (including the worker
   kill and the overload burst), no ``supg-*`` entry is left in
   ``/dev/shm`` or in ``tempfile.gettempdir()``: fork workers return
   results over the pool pipe, so a killed worker leaves nothing
   behind for anyone to clean up.
7. **Overload contract** — a 2×-capacity concurrent submit burst
   against a hard oracle outage (:func:`run_overload_pass`) resolves
   every ticket to a bit-identical success or a *typed* error
   (``AdmissionRejected`` / ``QueryShedError`` / ``QueryError``), trips
   the circuit breaker, fast-fails while open, and recovers through a
   half-open probe once the outage lifts — no hangs, no untyped
   failures.
8. **Backend corruption recovery** — a disk statistics backend whose
   ``stat-*.npy`` file is corrupted on disk
   (:func:`run_backend_corruption_pass`) quarantines the damaged file
   with a reason report, rebuilds the statistic from the source
   scores, and answers the same batch (under ``jobs`` workers)
   bit-identically to the pre-corruption run.

Exit status 0 on success, 1 with a gate-by-gate report otherwise; a
JSON summary is printed either way.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [--size 20000]
        [--queries 50] [--fault-rate 0.2] [--retries 8] [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import threading

from repro.core.planning import fork_available
from repro.core.stats_backend import statistic_entries
from repro.core.zonemap import MIN_INDEXED_SIZE
from repro.datasets import load_dataset
from repro.faults import FaultPlan, corrupt_spill, corrupt_statistic, inject
from repro.oracle import OracleCircuitBreaker, RetryPolicy
from repro.query import (
    AdmissionRejected,
    QueryError,
    QueryShedError,
    SupgEngine,
    SupgService,
)

RT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT {budget} USING A(x) "
    "RECALL TARGET {gamma}% WITH PROBABILITY 95%"
)
PT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT {budget} USING A(x) "
    "PRECISION TARGET {gamma}% WITH PROBABILITY 95%"
)

#: The corrupted spill forces exactly one fresh draw; no design in the
#: workload pays more than this many labels for it.
MAX_REDRAW_LABELS = 400


def build_workload(queries: int) -> list[tuple[str, int]]:
    """``queries`` mixed statements as (sql, seed) pairs.

    Cycles target kind, gamma, budget, and seed so the workload folds
    heavily (few distinct designs) while still exercising recall and
    precision paths, two budgets, and three seeds.
    """
    gammas = [80, 85, 90, 95]
    workload = []
    for i in range(queries):
        template = RT if i % 2 == 0 else PT
        sql = template.format(gamma=gammas[i % len(gammas)], budget=400 if i % 3 else 200)
        workload.append((sql, i % 3))
    return workload


def run_pass(
    workload,
    store_dir: str,
    retry_policy: RetryPolicy | None,
    jobs: int,
    ticket_timeout: float,
    size: int,
):
    """One service pass; returns per-query outcomes plus the session stats."""
    engine = SupgEngine(store_dir=store_dir, retry_policy=retry_policy)
    engine.register_table("t", load_dataset("beta(0.01,1)", size=size, seed=7))
    service = SupgService(
        engine, max_window_queries=8, max_window_ms=100.0, jobs=jobs
    )
    outcomes: list[dict] = []
    hung = 0
    try:
        tickets = [
            service.submit(sql, seed=seed) for sql, seed in workload
        ]
        for ticket in tickets:
            try:
                error = ticket.exception(timeout=ticket_timeout)
            except TimeoutError:
                hung += 1
                outcomes.append({"hung": True, "state": ticket.state})
                continue
            if error is not None:
                outcomes.append({"error": error})
            else:
                result = ticket.result().result
                outcomes.append(
                    {
                        "indices": result.indices,
                        "tau": result.tau,
                        "oracle_calls": result.oracle_calls,
                    }
                )
    finally:
        service.close(timeout=ticket_timeout)
    stats = dict(service.session_stats())
    stats["hung"] = hung
    return outcomes, stats


def run_overload_pass(
    store_dir: str, jobs: int, ticket_timeout: float, size: int
) -> tuple[list[str], dict]:
    """Overload + outage pass: a 2×-capacity burst against a dead oracle.

    24 concurrent submitters (mixed interactive/batch lanes, four
    client identities) hit a service capped at ``max_queue_depth=8``
    with ``shed_oldest`` admission, while the first 10 oracle calls
    fail unconditionally (:class:`FaultPlan` ``outage_calls``) — enough
    consecutive exhausted draws to trip the circuit breaker
    (threshold 3), after which the outage lifts and a half-open probe
    must recover the service.

    Gates (the overload contract from README "Overload behavior"):

    - **No hangs** — every submitter thread resolves within the
      timeout, whether to a result, a shed, or a rejection.
    - **Typed outcomes only** — every non-success is
      :class:`AdmissionRejected`, :class:`QueryShedError`, or
      :class:`QueryError`; anything else fails the gate.
    - **Bit-identical successes** — every query that does succeed
      matches a fault-free sequential reference exactly.
    - **Breaker evidence** — the breaker tripped at least once and
      fast-failed at least one window, and recovered (a success after
      the outage).

    Returns ``(failures, summary)``.
    """
    statements = build_workload(24)
    reference_engine = SupgEngine()
    reference_engine.register_table(
        "t", load_dataset("beta(0.01,1)", size=size, seed=7)
    )
    reference = [
        reference_engine.execute(sql, seed=seed) for sql, seed in statements
    ]

    breaker = OracleCircuitBreaker(threshold=3, cooldown_s=0.05)
    engine = SupgEngine(
        store_dir=store_dir,
        retry_policy=RetryPolicy(retries=1, backoff=0.0, backoff_cap=0.0, seed=3),
    )
    engine.register_table("t", load_dataset("beta(0.01,1)", size=size, seed=7))
    service = SupgService(
        engine,
        max_window_queries=4,
        max_window_ms=25.0,
        jobs=jobs,
        max_queue_depth=8,
        admission="shed_oldest",
        max_inflight_windows=2,
        breaker=breaker,
    )
    outcomes: list[tuple] = [None] * len(statements)

    def client(i: int, sql: str, seed: int) -> None:
        lane = "interactive" if i % 5 == 0 else "batch"
        try:
            ticket = service.submit(
                sql, seed=seed, client_id=f"client-{i % 4}", lane=lane
            )
        except AdmissionRejected as exc:
            outcomes[i] = ("rejected", exc)
            return
        except Exception as exc:  # untyped admission failure: gate catches it
            outcomes[i] = ("untyped", exc)
            return
        try:
            error = ticket.exception(timeout=ticket_timeout)
        except TimeoutError:
            outcomes[i] = ("hung", ticket.state)
            return
        if error is None:
            outcomes[i] = ("success", ticket.result().result)
        elif isinstance(error, QueryShedError):
            outcomes[i] = ("shed", error)
        elif isinstance(error, QueryError):
            outcomes[i] = ("query_error", error)
        else:
            outcomes[i] = ("untyped", error)

    plan = FaultPlan(seed=5, outage_calls=10)
    try:
        with inject(plan):
            threads = [
                threading.Thread(target=client, args=(i, sql, seed))
                for i, (sql, seed) in enumerate(statements)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=ticket_timeout + 30.0)
            hung_threads = sum(1 for thread in threads if thread.is_alive())
            # The breaker may still be open when the burst drains; prove
            # recovery explicitly: after the cooldown, a fresh submission
            # must succeed via the half-open probe (the outage budget is
            # spent, so the oracle is healthy again).
            time.sleep(0.1)
            recovery = service.submit(statements[0][0], seed=statements[0][1])
            recovery_error = recovery.exception(timeout=ticket_timeout)
            recovery_result = None if recovery_error else recovery.result().result
    finally:
        service.close(timeout=ticket_timeout)

    failures: list[str] = []
    counts = {"success": 0, "rejected": 0, "shed": 0, "query_error": 0}
    for i, outcome in enumerate(outcomes):
        if outcome is None or outcome[0] == "hung" or hung_threads:
            failures.append(f"overload: submitter #{i} hung or never resolved")
            continue
        kind, value = outcome
        if kind == "untyped":
            failures.append(
                f"overload: query #{i} failed with untyped "
                f"{type(value).__name__}: {value}"
            )
            continue
        counts[kind] += 1
        if kind == "success":
            ref = reference[i].result
            if not (
                np.array_equal(value.indices, ref.indices)
                and value.tau == ref.tau
                and value.oracle_calls == ref.oracle_calls
            ):
                failures.append(
                    f"overload: query #{i} succeeded but diverged from the "
                    "fault-free reference"
                )
    if breaker.tripped_total < 1:
        failures.append("overload: the oracle outage never tripped the breaker")
    if breaker.fast_failures < 1:
        failures.append("overload: the open breaker never fast-failed a window")
    if recovery_error is not None:
        failures.append(
            f"overload: post-outage recovery query failed: {recovery_error}"
        )
    else:
        ref = reference[0].result
        if not (
            np.array_equal(recovery_result.indices, ref.indices)
            and recovery_result.tau == ref.tau
            and recovery_result.oracle_calls == ref.oracle_calls
        ):
            failures.append(
                "overload: post-outage recovery query diverged from the "
                "fault-free reference"
            )
    stats = dict(service.session_stats())
    summary = {
        "burst": len(statements),
        "max_queue_depth": 8,
        **counts,
        "breaker_trips": breaker.tripped_total,
        "breaker_fast_failures": breaker.fast_failures,
        "recovered_after_outage": recovery_error is None,
        "admitted": stats["admitted"],
        "rejected_at_admission": stats["rejected"],
        "shed_at_admission": stats["shed"],
    }
    return failures, summary


def run_backend_corruption_pass(
    store_dir: str, jobs: int, size: int
) -> tuple[list[str], dict]:
    """Disk-backend corruption gate: quarantine, rebuild, bit-identity.

    Warms a disk statistics backend with a small query batch, corrupts
    one ``stat-*.npy`` file on disk, then replays the batch through a
    fresh engine over the same store (with ``jobs`` workers, so the
    rebuilt memmaps also cross the fork boundary).  The damaged file
    must be quarantined with a reason report, the statistic rebuilt
    warm, and every result byte-identical to the pre-corruption run.

    Returns ``(failures, summary)``.
    """
    failures: list[str] = []
    batch = [
        (RT.format(gamma=90, budget=400), 0),
        (PT.format(gamma=85, budget=400), 1),
        (RT.format(gamma=95, budget=200), 2),
    ]
    statements = [sql for sql, _ in batch]

    def run(engine):
        executions = []
        for (sql, seed) in batch:
            executions.append(engine.execute(sql, seed=seed))
        # One parallel replay of the whole batch on top, so the paged
        # scans also run inside fork workers.
        executions.extend(engine.execute_many(statements, seed=9, jobs=jobs))
        return [
            (e.result.indices.tobytes(), e.result.tau, e.result.oracle_calls)
            for e in executions
        ]

    warm_engine = SupgEngine(store_dir=store_dir, backend="disk")
    warm_engine.register_table("t", load_dataset("beta(0.01,1)", size=size, seed=7))
    baseline = run(warm_engine)

    corrupted = corrupt_statistic(store_dir, which=0, mode="garbage")

    recovery_engine = SupgEngine(store_dir=store_dir, backend="disk")
    recovery_engine.register_table(
        "t", load_dataset("beta(0.01,1)", size=size, seed=7)
    )
    recovered = run(recovery_engine)
    stats = recovery_engine.session_stats()

    if recovered != baseline:
        failures.append(
            "backend corruption: post-recovery results diverged from the "
            "pre-corruption run"
        )
    if stats["stats_quarantined"] != 1:
        failures.append(
            f"backend corruption: expected exactly 1 quarantined statistic, "
            f"got {stats['stats_quarantined']}"
        )
    reason = Path(store_dir) / "quarantine" / (corrupted.name + ".reason.json")
    if not reason.exists():
        failures.append(
            f"backend corruption: no reason report at {reason.name}"
        )
    stale = [e["file"] for e in statistic_entries(store_dir) if e["state"] != "warm"]
    if stale:
        failures.append(
            f"backend corruption: statistics not rebuilt warm: {', '.join(stale)}"
        )

    summary = {
        "corrupted_statistic": corrupted.name,
        "stats_quarantined": stats["stats_quarantined"],
        "sorts_performed": stats["sorts_performed"],
        "bytes_paged": stats["bytes_paged"],
        "results_identical": recovered == baseline,
    }
    return failures, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=20000)
    parser.add_argument("--queries", type=int, default=50)
    parser.add_argument("--fault-rate", type=float, default=0.2)
    parser.add_argument("--retries", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--ticket-timeout", type=float, default=120.0)
    parser.add_argument("--fault-seed", type=int, default=11)
    args = parser.parse_args(argv)

    workload = build_workload(args.queries)
    failures: list[str] = []

    with tempfile.TemporaryDirectory() as ref_dir, tempfile.TemporaryDirectory() as chaos_dir:
        # Reference pass: no faults, no retry policy needed.
        reference, ref_stats = run_pass(
            workload, ref_dir, None, args.jobs, args.ticket_timeout, args.size
        )
        if ref_stats["hung"] or any("error" in o or o.get("hung") for o in reference):
            print("reference pass itself failed; aborting", file=sys.stderr)
            return 1

        # Seed the chaos store with one spill, then corrupt it on disk.
        seed_engine = SupgEngine(store_dir=chaos_dir)
        seed_engine.register_table(
            "t", load_dataset("beta(0.01,1)", size=args.size, seed=7)
        )
        seed_engine.execute(workload[0][0], seed=workload[0][1])
        corrupted = corrupt_spill(chaos_dir, which=0, mode="truncate")

        plan = FaultPlan(
            seed=args.fault_seed,
            oracle_failure_rate=args.fault_rate,
            kill_execution=1 if fork_available() and args.jobs > 1 else None,
        )
        policy = RetryPolicy(
            retries=args.retries, backoff=0.0, backoff_cap=0.0, seed=3
        )
        with inject(plan):
            chaos, chaos_stats = run_pass(
                workload, chaos_dir, policy, args.jobs, args.ticket_timeout, args.size
            )
            # Snapshot inside the block: inject() tears down the
            # kill latch on exit.
            worker_killed = plan.worker_killed

    # Gate 1: no hung tickets.
    if chaos_stats["hung"]:
        failures.append(f"{chaos_stats['hung']} ticket(s) hung past the timeout")

    # Gates 2 + 3: bit-identical successes, typed failures.
    errored = 0
    for number, (ref, got) in enumerate(zip(reference, chaos)):
        if got.get("hung"):
            continue
        if "error" in got:
            errored += 1
            if not isinstance(got["error"], QueryError):
                failures.append(
                    f"query #{number} failed with untyped "
                    f"{type(got['error']).__name__}: {got['error']}"
                )
            continue
        if not (
            np.array_equal(got["indices"], ref["indices"])
            and got["tau"] == ref["tau"]
            and got["oracle_calls"] == ref["oracle_calls"]
        ):
            failures.append(f"query #{number} diverged from the fault-free run")

    # Gate 4: label accounting.  Retries are charged to the retry
    # budget, never the label budget, so the only legitimate extra
    # spend is the one redraw forced by the corrupted spill.
    extra_labels = chaos_stats["labels_drawn"] - ref_stats["labels_drawn"]
    if extra_labels > MAX_REDRAW_LABELS:
        failures.append(
            f"label inflation: chaos pass drew {extra_labels} extra labels "
            f"(> {MAX_REDRAW_LABELS} allowed for the quarantine redraw)"
        )

    # Gate 5: the faults demonstrably happened.
    if chaos_stats.get("quarantined", 0) != 1:
        failures.append(
            f"expected exactly 1 quarantined spill, got "
            f"{chaos_stats.get('quarantined', 0)}"
        )
    if chaos_stats.get("oracle_retries", 0) == 0:
        failures.append("no oracle retries recorded despite the injected fault rate")
    if plan.kill_execution is not None and chaos_stats.get("recovered_groups", 0) == 0:
        failures.append("worker kill requested but no execution group was recovered")

    # Gate 7 (run before the leak sweep so its files are covered):
    # the overload contract — a 2×-capacity concurrent burst against a
    # dead oracle resolves every ticket to a bit-identical success or a
    # typed error, trips and recovers the circuit breaker, and leaves
    # nothing hung.
    with tempfile.TemporaryDirectory() as overload_dir:
        overload_failures, overload_summary = run_overload_pass(
            overload_dir, args.jobs, args.ticket_timeout, args.size
        )
    failures.extend(overload_failures)

    # Gate 8: disk-backend statistic corruption must quarantine,
    # rebuild, and recover bit-identically.  The dataset is floored at
    # zone-map scale so the replay exercises the *paged* scan path, not
    # the small-table dense fallback.
    with tempfile.TemporaryDirectory() as backend_dir:
        backend_failures, backend_summary = run_backend_corruption_pass(
            backend_dir, args.jobs, max(args.size, 2 * MIN_INDEXED_SIZE)
        )
    failures.extend(backend_failures)

    # Gate 6: no leaked temp files.  Every pass (and the killed worker)
    # must leave no supg-* entry in /dev/shm or the temp directory.
    leaked = sorted(
        str(path)
        for directory in ("/dev/shm", tempfile.gettempdir())
        for path in Path(directory).glob("supg-*")
    )
    if leaked:
        failures.append(f"leaked temp files: {', '.join(leaked)}")

    summary = {
        "queries": args.queries,
        "fault_rate": args.fault_rate,
        "worker_killed": worker_killed,
        "corrupted_spill": Path(corrupted).name,
        "reference_labels": ref_stats["labels_drawn"],
        "chaos_labels": chaos_stats["labels_drawn"],
        "extra_labels": extra_labels,
        "oracle_retries": chaos_stats.get("oracle_retries", 0),
        "quarantined": chaos_stats.get("quarantined", 0),
        "recovered_groups": chaos_stats.get("recovered_groups", 0),
        "typed_failures": errored,
        "hung": chaos_stats["hung"],
        "leaked_files": leaked,
        "overload": overload_summary,
        "backend_corruption": backend_summary,
        "gates_failed": failures,
    }
    print(json.dumps(summary, indent=2))
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("chaos smoke passed: degraded cleanly, recovered bit-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
