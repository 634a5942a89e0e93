#!/usr/bin/env python
"""Perf smoke run: record selector throughput to a BENCH_*.json file.

Runs every guaranteed selector at paper scale (n = 1M synthetic
Beta(0.01, 1) records, oracle budget 10k) for a handful of trials,
records the median per-trial latency, times the vectorized candidate
scan (uniform and importance-weighted) against its loop-based
reference, times a shared-sample gamma sweep against fresh per-gamma
draws, times the fig13 bound-ablation cell (seven methods over two
sampling designs) trial-outer against the pre-PR per-method loops,
times a same-design ``compare_methods`` panel, times the batch query
planner (an 8-query mixed batch through ``SupgEngine.execute_many``
against a sequential ``execute()`` loop, cold and warm store — and
*fails* if batch throughput falls below the sequential loop), times
the continuously running service (the same 8 queries submitted
concurrently to a ``SupgService`` fold into one plan window with 2
oracle draws, against 8 independent per-client ``execute()`` calls —
and *fails* if the folded window is under 1.5x the independent path),
saturates the service with 200 concurrent submitters on mixed
interactive/batch lanes under bounded ``block`` admission and two
concurrent plan windows (gating sustained throughput against a
sequential ``execute()`` loop and the interactive lane's p99 against
starvation), times the parallel fan-out (the same 8 queries through a
parallel ``execute_many`` whose fork workers inherit the dataset
statistics, against eight naive independent clients that each build
their own engine and statistics — and *fails* if the parallel path
does not beat them),
times threshold scans through the stratified score zone map at 10M
records (``count_above`` + ``select_above`` at 0.1%/1%/10%
selectivity against the dense O(n) passes, byte-identical index sets
required — and *fails* below a 1.5x advantage, with 4x the recorded
target), exercises the out-of-core disk statistics backend at the same
scale (chunked external sort into ``stat-*.npy`` files, paged scans
verified byte-identical from a separate bounded-RSS process — failing
when the probe's memory growth exceeds 25% of the statistics
footprint, when ``bytes_paged`` exceeds 10% of the score column at
<=1% selectivity, or when warm paged scans lose to the dense pass),
and proves the persistent sample store by re-running a panel
against a warm spill directory (the second run must draw zero oracle
labels).  The output file (``BENCH_PR10.json`` by default) extends the repo's
performance trajectory — future PRs append ``BENCH_PR<k>.json`` files
and should beat (or at least not regress) these numbers.

``--compare BASELINE.json`` additionally checks the freshly measured
numbers against a recorded baseline and exits non-zero on a regression
past ``--max-regression``.  ``--compare-mode absolute`` (default,
same-machine) gates raw selector medians and scan latencies;
``--compare-mode ratios`` gates only the machine-independent speedup
ratios — what the CI perf job uses against ``BENCH_PR1.json``, since
hosted runners are not wall-clock-comparable to the machines that
record the baselines.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py [--output BENCH_PR2.json]
        [--size 1000000] [--budget 10000] [--trials 5]
        [--compare BENCH_PR1.json] [--max-regression 2.0]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.bounds import BootstrapBound, HoeffdingBound, NormalBound
from repro.core.importance import (
    ImportanceCIPrecisionOneStage,
    ImportanceCIPrecisionTwoStage,
    ImportanceCIRecall,
)
from repro.core.pipeline import ExecutionContext, SampleStore
from repro.core.stats_backend import DiskBackend, statistic_entries
from repro.core.types import ApproxQuery
from repro.core.uniform import (
    UniformCIPrecision,
    UniformCIRecall,
    precision_candidate_scan,
    precision_candidate_scan_reference,
)
from repro.datasets import make_beta_dataset
from repro.experiments.figures import figure13_panel
from repro.experiments.runner import compare_methods, sweep
from repro.query import SupgEngine, SupgService
from repro.sampling import DEFAULT_EXPONENT, DEFAULT_MIXING

GAMMA = 0.9
DELTA = 0.05
SWEEP_GAMMAS = (0.5, 0.6, 0.7, 0.8, 0.9)
SWEEP_TRIALS = 3


def _selector_panel(budget: int):
    rt = ApproxQuery.recall_target(GAMMA, DELTA, budget)
    pt = ApproxQuery.precision_target(GAMMA, DELTA, budget)
    return {
        "u-ci-r": lambda: UniformCIRecall(rt),
        "u-ci-p": lambda: UniformCIPrecision(pt),
        "is-ci-r": lambda: ImportanceCIRecall(rt),
        "is-ci-p-one-stage": lambda: ImportanceCIPrecisionOneStage(pt),
        "is-ci-p": lambda: ImportanceCIPrecisionTwoStage(pt),
    }


def time_selectors(dataset, budget: int, trials: int) -> dict[str, dict[str, float]]:
    results: dict[str, dict[str, float]] = {}
    for name, factory in _selector_panel(budget).items():
        latencies = []
        for t in range(trials):
            start = time.perf_counter()
            factory().select(dataset, seed=t)
            latencies.append(time.perf_counter() - start)
        results[name] = {
            "median_trial_seconds": statistics.median(latencies),
            "min_trial_seconds": min(latencies),
            "max_trial_seconds": max(latencies),
            "trials": trials,
        }
        print(f"  {name:20s} median {results[name]['median_trial_seconds'] * 1e3:8.1f} ms")
    return results


def _best(fn, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def time_candidate_scan(budget: int, weighted: bool = False, repeats: int = 7) -> dict[str, float]:
    rng = np.random.default_rng(0)
    scores = rng.random(budget)
    labels = (rng.random(budget) < scores).astype(float)
    if weighted:
        mass = rng.choice([0.5, 1.0, 2.0], size=budget)
    else:
        mass = np.ones(budget)
    bound = NormalBound()

    vectorized = _best(
        lambda: precision_candidate_scan(
            scores, labels, mass, gamma=GAMMA, delta=DELTA, bound=bound, step=100
        ),
        repeats,
    )
    reference = _best(
        lambda: precision_candidate_scan_reference(
            scores, labels, mass, gamma=GAMMA, delta=DELTA, bound=bound, step=100
        ),
        repeats,
    )
    speedup = reference / vectorized
    label = "weighted scan" if weighted else "candidate scan"
    print(
        f"  {label:20s} vectorized {vectorized * 1e3:.2f} ms, "
        f"reference {reference * 1e3:.2f} ms ({speedup:.1f}x)"
    )
    return {
        "vectorized_seconds": vectorized,
        "reference_seconds": reference,
        "speedup": speedup,
        "budget": budget,
        "step": 100,
        "bound": "normal",
        "weighted": weighted,
    }


def time_sweep(dataset, budget: int, repeats: int = 3) -> dict[str, object]:
    """Shared-sample gamma sweep vs fresh per-gamma draws (IS-CI-R)."""
    base = ApproxQuery.recall_target(GAMMA, DELTA, budget)

    def factory_for_gamma(gamma):
        return lambda: ImportanceCIRecall(base.with_gamma(gamma))

    shared = _best(
        lambda: sweep(
            factory_for_gamma, SWEEP_GAMMAS, dataset, trials=SWEEP_TRIALS,
            share_samples=True,
        ),
        repeats,
    )
    fresh = _best(
        lambda: sweep(
            factory_for_gamma, SWEEP_GAMMAS, dataset, trials=SWEEP_TRIALS,
            share_samples=False,
        ),
        repeats,
    )
    speedup = fresh / shared
    print(
        f"  {'is-ci-r sweep':20s} shared {shared * 1e3:.1f} ms, "
        f"fresh {fresh * 1e3:.1f} ms ({speedup:.1f}x, "
        f"{len(SWEEP_GAMMAS)} gammas x {SWEEP_TRIALS} trials)"
    )
    return {
        "selector": "is-ci-r",
        "gammas": list(SWEEP_GAMMAS),
        "trials": SWEEP_TRIALS,
        "budget": budget,
        "shared_seconds": shared,
        "fresh_seconds": fresh,
        "speedup": speedup,
    }


def time_fig13_cell(dataset, budget: int, trials: int = 3, repeats: int = 3) -> dict[str, object]:
    """Trial-outer fig13 cell vs the pre-PR per-method fresh-draw loops.

    ``speedup`` is the cold shared-store cell against the store-
    oblivious path; ``warm_speedup`` re-runs the cell against a primed
    persistent spill directory (the repeated-regeneration / CI case,
    where zero oracle labels are drawn).
    """
    factories = figure13_panel(ApproxQuery.recall_target(GAMMA, DELTA, budget))
    fresh = _best(
        lambda: compare_methods(factories, dataset, trials=trials, share_samples=False),
        repeats,
    )
    shared = _best(
        lambda: compare_methods(factories, dataset, trials=trials), repeats
    )
    with tempfile.TemporaryDirectory() as spill:
        compare_methods(factories, dataset, trials=trials, store_dir=spill)
        warm = _best(
            lambda: compare_methods(factories, dataset, trials=trials, store_dir=spill),
            repeats,
        )
    speedup, warm_speedup = fresh / shared, fresh / warm
    print(
        f"  {'fig13 cell':20s} shared {shared * 1e3:.0f} ms, warm {warm * 1e3:.0f} ms, "
        f"fresh {fresh * 1e3:.0f} ms ({speedup:.1f}x cold, {warm_speedup:.1f}x warm)"
    )
    return {
        "methods": len(factories),
        "trials": trials,
        "budget": budget,
        "fresh_seconds": fresh,
        "shared_seconds": shared,
        "warm_seconds": warm,
        "speedup": speedup,
        "warm_speedup": warm_speedup,
    }


def time_compare_reuse(dataset, budget: int, trials: int = 3, repeats: int = 3) -> dict[str, object]:
    """Same-design ``compare_methods`` panel: three IS-CI-R bound
    variants sharing one proxy-weighted draw per seed."""
    query = ApproxQuery.recall_target(GAMMA, DELTA, budget)
    factories = {
        "normal": lambda: ImportanceCIRecall(query, bound=NormalBound()),
        "bootstrap": lambda: ImportanceCIRecall(query, bound=BootstrapBound(n_resamples=200)),
        "hoeffding": lambda: ImportanceCIRecall(query, bound=HoeffdingBound(value_range=None)),
    }
    fresh = _best(
        lambda: compare_methods(factories, dataset, trials=trials, share_samples=False),
        repeats,
    )
    shared = _best(
        lambda: compare_methods(factories, dataset, trials=trials), repeats
    )
    speedup = fresh / shared
    print(
        f"  {'compare reuse':20s} shared {shared * 1e3:.0f} ms, "
        f"fresh {fresh * 1e3:.0f} ms ({speedup:.1f}x)"
    )
    return {
        "methods": len(factories),
        "trials": trials,
        "budget": budget,
        "fresh_seconds": fresh,
        "shared_seconds": shared,
        "speedup": speedup,
    }


def _batch_statements(budget: int) -> list[str]:
    """The 8-query mixed batch of the planner benchmark.

    Four recall targets share one proxy-weighted design; three
    precision targets share IS-CI-P's stage-1 design (budget // 2),
    which the half-budget recall query also reuses — 2 distinct oracle
    draws for 8 statements.
    """
    rt = (
        "SELECT * FROM bench WHERE P(x) = True ORACLE LIMIT {budget} "
        "USING A(x) RECALL TARGET {gamma}% WITH PROBABILITY 95%"
    )
    pt = (
        "SELECT * FROM bench WHERE P(x) = True ORACLE LIMIT {budget} "
        "USING A(x) PRECISION TARGET {gamma}% WITH PROBABILITY 95%"
    )
    return [
        rt.format(budget=budget, gamma=80),
        rt.format(budget=budget, gamma=85),
        rt.format(budget=budget, gamma=90),
        rt.format(budget=budget, gamma=95),
        pt.format(budget=budget, gamma=80),
        pt.format(budget=budget, gamma=90),
        pt.format(budget=budget, gamma=95),
        rt.format(budget=budget // 2, gamma=90),
    ]


def time_batch_planner(dataset, budget: int, repeats: int = 3) -> dict[str, object]:
    """``execute_many`` vs a sequential ``execute()`` loop, cold and warm.

    Both paths share labels through the engine's session store (that is
    the PR 2/3 baseline), so the cold comparison gates the planner's
    overhead: batch throughput must stay at least at the sequential
    loop's level.  The warm pair re-runs both against a primed spill
    directory — the repeated-regeneration / CI case, zero labels drawn.
    """
    statements = _batch_statements(budget)

    def run_sequential(store_dir=None):
        engine = SupgEngine(store_dir=store_dir)
        engine.register_table("bench", dataset)
        for sql in statements:
            engine.execute(sql, seed=0)

    def run_batch(jobs=None, store_dir=None):
        engine = SupgEngine(store_dir=store_dir)
        engine.register_table("bench", dataset)
        engine.execute_many(statements, seed=0, jobs=jobs)

    sequential = _best(run_sequential, repeats)
    batch = _best(run_batch, repeats)
    parallel = _best(lambda: run_batch(jobs=2), repeats)
    with tempfile.TemporaryDirectory() as spill:
        run_batch(store_dir=spill)  # prime the disk tier
        warm_sequential = _best(lambda: run_sequential(store_dir=spill), repeats)
        warm_batch = _best(lambda: run_batch(store_dir=spill), repeats)
    speedup = sequential / batch
    warm_speedup = warm_sequential / warm_batch
    print(
        f"  {'batch planner':20s} batch {batch * 1e3:.0f} ms, "
        f"loop {sequential * 1e3:.0f} ms ({speedup:.2f}x cold, "
        f"{warm_speedup:.2f}x warm, jobs=2 {parallel * 1e3:.0f} ms)"
    )
    # The CI gate: execute_many must not fall below sequential-loop
    # throughput (0.9 absorbs scheduler jitter around parity — the two
    # paths do identical labeling work, so a real planner regression
    # shows up far below that).
    if speedup < 0.9:
        raise SystemExit(
            f"batch planner regression: execute_many is {1 / speedup:.2f}x slower "
            "than the sequential execute() loop"
        )
    return {
        "queries": len(statements),
        "budget": budget,
        "sequential_seconds": sequential,
        "batch_seconds": batch,
        "batch_parallel_seconds": parallel,
        "warm_sequential_seconds": warm_sequential,
        "warm_batch_seconds": warm_batch,
        "speedup": speedup,
        "warm_speedup": warm_speedup,
    }


def time_service_window(dataset, budget: int, repeats: int = 3) -> dict[str, object]:
    """Folded service window vs independent per-client ``execute()`` calls.

    The folded path submits the 8-query mixed batch concurrently to one
    ``SupgService`` (all land in a single plan window: 2 oracle draws,
    6 queries folded).  The independent path is what those clients
    would do *without* the service — each constructs its own engine and
    runs its own query, paying 8 full draws.  Results are bit-identical;
    the acceptance gate requires the folded window to hold at least a
    1.5x throughput advantage.
    """
    statements = _batch_statements(budget)

    def run_independent():
        for sql in statements:
            engine = SupgEngine()
            engine.register_table("bench", dataset)
            engine.execute(sql, seed=0)

    def run_folded():
        engine = SupgEngine()
        engine.register_table("bench", dataset)
        with SupgService(
            engine, max_window_queries=len(statements), max_window_ms=5_000.0
        ) as service:
            tickets = [service.submit(sql) for sql in statements]
            for ticket in tickets:
                ticket.result(timeout=300.0)

    independent = _best(run_independent, repeats)
    folded = _best(run_folded, repeats)
    speedup = independent / folded
    print(
        f"  {'service window':20s} folded {folded * 1e3:.0f} ms, "
        f"independent {independent * 1e3:.0f} ms ({speedup:.2f}x)"
    )
    # The acceptance gate: a folded window of queries sharing designs
    # must decisively beat the same queries submitted independently.
    if speedup < 1.5:
        raise SystemExit(
            f"service window regression: folded window is only {speedup:.2f}x "
            "the independent-submission path (required >= 1.5x)"
        )
    return {
        "queries": len(statements),
        "budget": budget,
        "independent_seconds": independent,
        "folded_seconds": folded,
        "speedup": speedup,
    }


def time_service_saturation(
    dataset, budget: int, submitters: int = 200
) -> dict[str, object]:
    """Service under saturation: hundreds of concurrent submitters.

    ``submitters`` threads each submit one statement (cycling the
    8-query mixed batch, ~10% on the interactive lane, eight tenant
    ``client_id``s) to a bounded-admission service (``block`` mode,
    two concurrent plan windows) and wait for their result.  Sustained
    throughput is gated against a sequential same-engine ``execute()``
    loop over the identical statement stream: the service folds
    duplicates into shared plan windows, so saturation must not cost
    more than half the sequential throughput (the recorded ratio is
    the machine-independent CI gate).  Every result is bit-compared to
    a fresh-engine reference, and the interactive lane's p99 latency
    must stay under the run's total wall-clock (no starvation).  The
    burst itself is the aggregate — one pass, no best-of-N.
    """
    base_statements = _batch_statements(budget)
    statements = [base_statements[i % len(base_statements)] for i in range(submitters)]

    reference_engine = SupgEngine()
    reference_engine.register_table("bench", dataset)
    reference = {sql: reference_engine.execute(sql, seed=0) for sql in base_statements}

    def run_sequential():
        engine = SupgEngine()
        engine.register_table("bench", dataset)
        start = time.perf_counter()
        for sql in statements:
            engine.execute(sql, seed=0)
        return time.perf_counter() - start

    def run_saturated():
        engine = SupgEngine()
        engine.register_table("bench", dataset)
        results: list = [None] * len(statements)
        errors: list = []

        service = SupgService(
            engine,
            max_window_queries=16,
            max_window_ms=50.0,
            max_queue_depth=32,
            admission="block",
            admission_timeout_s=300.0,
            max_inflight_windows=2,
        )

        def submitter(i: int, sql: str) -> None:
            try:
                ticket = service.submit(
                    sql,
                    client_id=f"tenant-{i % 8}",
                    lane="interactive" if i % 10 == 0 else "batch",
                )
                results[i] = ticket.result(timeout=300.0)
            except Exception as exc:  # noqa: BLE001 - gate below reports it
                errors.append((i, exc))

        with service:
            threads = [
                threading.Thread(target=submitter, args=(i, sql), daemon=True)
                for i, sql in enumerate(statements)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600.0)
            elapsed = time.perf_counter() - start
            health = service.health()
        return elapsed, results, errors, health

    sequential = run_sequential()
    elapsed, results, errors, health = run_saturated()
    if errors:
        i, exc = errors[0]
        raise SystemExit(
            f"service saturation: {len(errors)} of {submitters} submissions "
            f"failed (first: statement {i}: {type(exc).__name__}: {exc})"
        )
    identical = all(
        r is not None
        and np.array_equal(r.result.indices, reference[sql].result.indices)
        and r.result.tau == reference[sql].result.tau
        and r.result.oracle_calls == reference[sql].result.oracle_calls
        for r, sql in zip(results, statements)
    )
    throughput = submitters / elapsed
    sequential_throughput = submitters / sequential
    ratio = throughput / sequential_throughput
    interactive_p99 = health["lanes"]["interactive"]["p99_ms"]
    batch_p99 = health["lanes"]["batch"]["p99_ms"]
    print(
        f"  {'service saturation':20s} {submitters} submitters in "
        f"{elapsed * 1e3:.0f} ms ({throughput:.0f} q/s, {ratio:.2f}x of the "
        f"sequential loop; interactive p99 {interactive_p99:.0f} ms, "
        f"batch p99 {batch_p99:.0f} ms)"
    )
    if not identical:
        raise SystemExit(
            "service saturation broke parity: concurrent results differ "
            "from the fresh-engine reference"
        )
    # The acceptance gates: admission + scheduling overhead must not cost
    # more than half the sequential throughput, and the interactive lane
    # must not be starved to the end of the run.
    if ratio < 0.5:
        raise SystemExit(
            f"service saturation regression: sustained throughput is only "
            f"{ratio:.2f}x the sequential execute() loop (required >= 0.5x)"
        )
    if interactive_p99 is None or interactive_p99 > elapsed * 1000.0:
        raise SystemExit(
            f"service saturation: interactive-lane p99 {interactive_p99} ms "
            f"exceeds the run's wall clock ({elapsed * 1e3:.0f} ms) — "
            "priority lane starved"
        )
    return {
        "submitters": submitters,
        "budget": budget,
        "max_queue_depth": 32,
        "max_inflight_windows": 2,
        "elapsed_seconds": elapsed,
        "sequential_seconds": sequential,
        "queries_per_second": throughput,
        "sequential_queries_per_second": sequential_throughput,
        "throughput_ratio": ratio,
        "interactive_p99_ms": interactive_p99,
        "batch_p99_ms": batch_p99,
        "results_identical": identical,
    }


def time_shm_plane(dataset, budget: int, repeats: int = 3) -> dict[str, object]:
    """Parallel ``execute_many`` fan-out vs naive clients.

    The 8-query mixed batch through one engine (statistics computed
    once and inherited by the fork workers, results pickled back over
    the pool pipe, two deduplicated oracle draws) against eight
    *independent clients* — each building its own engine and computing
    its own dataset statistics, paying eight full draws.  Results are
    bit-identical; the acceptance gate hard-fails if the parallel path
    is not faster, and the recorded target is a 1.5x advantage.  The
    same-engine sequential loop is recorded as an informational
    reference.  (The payload key stays ``shm_plane`` so the ratio
    remains comparable with the BENCH_PR7..PR10 baselines.)
    """
    statements = _batch_statements(budget)

    def fresh_client_dataset():
        # What an independent client holds: identical content, no
        # precomputed statistics (sort, argsort, sampling weights).
        return dataset.with_scores(np.array(dataset.proxy_scores))

    def run_independent():
        out = []
        for sql in statements:
            engine = SupgEngine()
            engine.register_table("bench", fresh_client_dataset())
            out.append(engine.execute(sql, seed=0))
        return out

    def run_parallel():
        engine = SupgEngine()
        engine.register_table("bench", dataset)
        executions = engine.execute_many(statements, seed=0, jobs=2)
        return executions, engine.transfer_stats()

    def run_same_engine_loop():
        engine = SupgEngine()
        engine.register_table("bench", dataset)
        for sql in statements:
            engine.execute(sql, seed=0)

    expected = run_independent()
    parallel_executions, transfer = run_parallel()
    identical = all(
        np.array_equal(a.result.indices, b.result.indices)
        and a.result.tau == b.result.tau
        and a.result.oracle_calls == b.result.oracle_calls
        for a, b in zip(parallel_executions, expected)
    )

    independent = _best(run_independent, repeats)
    parallel = _best(run_parallel, repeats)
    same_engine = _best(run_same_engine_loop, repeats)
    speedup = independent / parallel
    print(
        f"  {'parallel fan-out':20s} parallel {parallel * 1e3:.0f} ms, "
        f"independent {independent * 1e3:.0f} ms ({speedup:.2f}x; "
        f"same-engine loop {same_engine * 1e3:.0f} ms)"
    )
    if not identical:
        raise SystemExit(
            "parallel fan-out broke parity: parallel execute_many results "
            "differ from the sequential clients"
        )
    # The acceptance gate: the parallel path must beat the naive
    # clients outright; 1.5x is the recorded target (warn below it so
    # noisy hosts do not mask a slide toward parity).
    if speedup < 1.0:
        raise SystemExit(
            f"parallel fan-out regression: parallel execute_many is "
            f"{1 / speedup:.2f}x slower than independent clients"
        )
    if speedup < 1.5:
        print(
            f"  WARNING: parallel fan-out speedup {speedup:.2f}x is below "
            "the 1.5x target"
        )
    return {
        "queries": len(statements),
        "budget": budget,
        "jobs": 2,
        "independent_seconds": independent,
        "parallel_seconds": parallel,
        "same_engine_loop_seconds": same_engine,
        "speedup": speedup,
        "results_identical": identical,
        "bytes_shipped": transfer["bytes_shipped"],
    }


def time_zonemap_scan(size: int, repeats: int = 5) -> dict[str, object]:
    """Indexed threshold scans through the score zone map vs dense passes.

    Builds a ``size``-record synthetic workload (10M by default — the
    scale the service targets), then times the two dataset-scale
    lookups every query pays — ``count_above`` (candidate-scan count
    probes) and ``select_above`` (recall-set / selection
    materialization) — at thresholds retaining ~0.1%, 1%, and 10% of
    the records, against the dense O(n) passes they replaced.  Parity
    is checked first: every indexed selection must be byte-identical
    (values and dtype) to ``np.flatnonzero(scores >= tau)``.  The
    acceptance gate hard-fails below 1.5x; the recorded target is 4x.
    """
    print(f"  building beta(0.01, 1) workload, n={size} ...")
    dataset = make_beta_dataset(0.01, 1.0, size=size, seed=0)
    zone_map = dataset.zone_map
    if zone_map is None:
        raise SystemExit(f"zonemap scan: {size}-record dataset was not indexed")
    scores = dataset.proxy_scores
    sorted_scores = dataset.sorted_scores
    fractions = (0.001, 0.01, 0.1)
    taus = [float(sorted_scores[int(size * (1.0 - f))]) for f in fractions]

    for tau in [*taus, 0.0, float("inf")]:
        dense_indices = np.flatnonzero(scores >= tau)
        indexed_indices = dataset.select_above(tau)
        if indexed_indices.dtype != dense_indices.dtype or not np.array_equal(
            indexed_indices, dense_indices
        ):
            raise SystemExit(
                f"zonemap scan broke parity at tau={tau}: indexed selection "
                "differs from the dense pass"
            )

    def run_indexed():
        for tau in taus:
            dataset.count_above(tau)
            dataset.select_above(tau)

    def run_dense():
        for tau in taus:
            int(np.count_nonzero(scores >= tau))
            np.flatnonzero(scores >= tau)

    indexed = _best(run_indexed, repeats)
    dense = _best(run_dense, repeats)
    speedup = dense / indexed
    print(
        f"  {'zonemap scan':20s} indexed {indexed * 1e3:.1f} ms, "
        f"dense {dense * 1e3:.1f} ms ({speedup:.1f}x over "
        f"{len(taus)} thresholds; {zone_map.strata} strata, "
        f"{zone_map.nbytes} B index)"
    )
    # The acceptance gate: skipping must decisively beat the dense
    # passes at service scale; 4x is the recorded target.
    if speedup < 1.5:
        raise SystemExit(
            f"zonemap scan regression: indexed path is only {speedup:.2f}x "
            "the dense pass (required >= 1.5x)"
        )
    if speedup < 4.0:
        print(f"  WARNING: zonemap scan speedup {speedup:.2f}x is below the 4x target")
    return {
        "records": size,
        "selectivities": list(fractions),
        "strata": zone_map.strata,
        "stratum_size": zone_map.stratum_size,
        "index_bytes": zone_map.nbytes,
        "indexed_seconds": indexed,
        "dense_seconds": dense,
        "speedup": speedup,
        "results_identical": True,
    }


#: Child program for the out-of-core RSS probe.  A fresh interpreter
#: opens the disk backend's statistic files as memmaps plus the zone-map
#: sidecar and runs paged threshold scans — never touching the dense
#: score column — then reports its ``ru_maxrss`` high-water mark before
#: and after the scans.  A separate process is the only honest way to
#: measure this: the parent already holds the 10M-record dataset (and a
#: warm page cache of the build) in its own RSS.
_OUTOFCORE_CHILD = """\
import hashlib, json, resource, sys
import numpy as np
from repro.core.stats_backend import DiskBackend
from repro.core.zonemap import ScoreZoneMap

store, fingerprint, size = sys.argv[1], sys.argv[2], int(sys.argv[3])
taus = [float(raw) for raw in sys.argv[4:]]
backend = DiskBackend(store)
baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sorted_scores = np.load(backend.stat_path(fingerprint, "sorted-scores"), mmap_mode="r")
score_order = np.load(backend.stat_path(fingerprint, "score-order"), mmap_mode="r")
zone_map = ScoreZoneMap.load_sidecar(store, fingerprint, size)
if zone_map is None:
    raise SystemExit("out-of-core child: zone-map sidecar missing or stale")
counters = {"bytes_paged": 0}
digests = []
for tau in taus:
    selection = zone_map.select_above_paged(tau, sorted_scores, score_order, counters)
    digests.append(hashlib.sha256(selection.tobytes()).hexdigest())
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"baseline_kb": baseline_kb, "peak_kb": peak_kb,
                  "bytes_paged": counters["bytes_paged"], "digests": digests}))
"""


def time_outofcore_scan(size: int, repeats: int = 5) -> dict[str, object]:
    """Disk-backend threshold scans: paged, bounded-RSS, byte-identical.

    Builds the 10M-record workload's statistics *out of core* (chunked
    external sort into ``stat-*.npy`` files), then gates the three
    claims the disk backend makes:

    - **Bit identity** — paged selections at ~0.1% and ~1% selectivity
      must hash identically to ``np.flatnonzero(scores >= tau)``,
      verified from a separate process that never sees the dense
      column.
    - **Bounded memory** — that child's peak-RSS growth while scanning
      must stay under 25% of the on-disk statistics footprint (the
      whole point of paging: O(selected), not O(n)).
    - **Bounded I/O** — ``bytes_paged`` must stay under 10% of the
      score column at these selectivities.

    Wall-clock is gated too: warm paged scans must not lose to the
    dense in-memory pass (hard floor 1.0x — the scans only touch the
    selection, so even through a memmap they should win).
    """
    print(f"  building beta(0.01, 1) workload, n={size} ...")
    dataset = make_beta_dataset(0.01, 1.0, size=size, seed=0)
    scores = dataset.proxy_scores
    with tempfile.TemporaryDirectory(prefix="repro-outofcore-") as store:
        backend = DiskBackend(store)
        dataset.use_backend(backend)
        dataset.prime_zone_map(store)
        build_start = time.perf_counter()
        sorted_scores = dataset.sorted_scores
        dataset.sampling_weights(DEFAULT_EXPONENT, DEFAULT_MIXING)
        zone_map = dataset.zone_map
        build = time.perf_counter() - build_start
        if zone_map is None:
            raise SystemExit(f"out-of-core scan: {size}-record dataset was not indexed")
        footprint = sum(entry["bytes"] for entry in statistic_entries(store))

        fractions = (0.001, 0.01)
        taus = [float(sorted_scores[int(size * (1.0 - f))]) for f in fractions]
        expected = [
            hashlib.sha256(np.flatnonzero(scores >= tau).tobytes()).hexdigest()
            for tau in taus
        ]

        child = subprocess.run(
            [sys.executable, "-c", _OUTOFCORE_CHILD, store,
             dataset.fingerprint, str(size), *[repr(tau) for tau in taus]],
            capture_output=True, text=True, env=dict(os.environ),
        )
        if child.returncode != 0:
            raise SystemExit(
                f"out-of-core RSS probe failed:\n{child.stdout}{child.stderr}"
            )
        probe = json.loads(child.stdout)
        if probe["digests"] != expected:
            raise SystemExit(
                "out-of-core scan broke parity: paged selections differ "
                "from the dense pass"
            )
        rss_growth = (probe["peak_kb"] - probe["baseline_kb"]) * 1024

        def run_paged():
            for tau in taus:
                dataset.count_above(tau)
                dataset.select_above(tau)

        def run_dense():
            for tau in taus:
                int(np.count_nonzero(scores >= tau))
                np.flatnonzero(scores >= tau)

        paged = _best(run_paged, repeats)
        dense = _best(run_dense, repeats)
        speedup = dense / paged
        bytes_paged = probe["bytes_paged"]
        print(
            f"  {'out-of-core scan':20s} paged {paged * 1e3:.1f} ms, "
            f"dense {dense * 1e3:.1f} ms ({speedup:.1f}x; "
            f"build {build:.1f} s, {footprint} B statistics, "
            f"probe RSS +{rss_growth // 1024} KiB, {bytes_paged} B paged)"
        )
        if rss_growth >= 0.25 * footprint:
            raise SystemExit(
                f"out-of-core scan leaked memory: probe RSS grew "
                f"{rss_growth} B against a {footprint} B statistics "
                "footprint (cap: 25%)"
            )
        if bytes_paged >= 0.10 * scores.nbytes:
            raise SystemExit(
                f"out-of-core scan paged {bytes_paged} B for <=1% "
                f"selectivity over a {scores.nbytes} B score column "
                "(cap: 10%)"
            )
        # The acceptance gate: paging only the selection must at least
        # match the dense in-memory pass it replaces.
        if speedup < 1.0:
            raise SystemExit(
                f"out-of-core scan regression: paged path is only "
                f"{speedup:.2f}x the dense pass (required >= 1.0x)"
            )
        return {
            "records": size,
            "selectivities": list(fractions),
            "chunk_records": backend.chunk_records,
            "statistics_bytes": footprint,
            "build_seconds": build,
            "probe_rss_growth_bytes": rss_growth,
            "bytes_paged": bytes_paged,
            "chunks_merged": backend.counters["chunks_merged"],
            "peak_chunk_bytes": backend.counters["peak_chunk_bytes"],
            "paged_seconds": paged,
            "dense_seconds": dense,
            "speedup": speedup,
            "results_identical": True,
        }


def check_store_persistence(dataset, budget: int, trials: int = 3) -> dict[str, object]:
    """Two store-dir runs of one panel: the second must draw nothing."""
    query = ApproxQuery.recall_target(GAMMA, DELTA, budget)
    factories = {
        "normal": lambda: ImportanceCIRecall(query, bound=NormalBound()),
        "hoeffding": lambda: ImportanceCIRecall(query, bound=HoeffdingBound(value_range=None)),
    }
    with tempfile.TemporaryDirectory() as spill:
        first = ExecutionContext(store=SampleStore(store_dir=spill))
        start = time.perf_counter()
        cold_panel = compare_methods(factories, dataset, trials=trials, context=first)
        cold = time.perf_counter() - start
        second = ExecutionContext(store=SampleStore(store_dir=spill))
        start = time.perf_counter()
        warm_panel = compare_methods(factories, dataset, trials=trials, context=second)
        warm = time.perf_counter() - start
    identical = cold_panel == warm_panel
    stats = second.stats()
    print(
        f"  {'store persistence':20s} first run drew {first.stats()['labels_drawn']} labels, "
        f"second drew {stats['labels_drawn']} ({stats['disk_hits']} disk hits)"
    )
    if not identical or stats["labels_drawn"] != 0:
        raise SystemExit(
            "persistent store failed: second run must draw zero labels "
            "and reproduce identical results"
        )
    return {
        "trials": trials,
        "budget": budget,
        "first_run_labels_drawn": first.stats()["labels_drawn"],
        "second_run_labels_drawn": stats["labels_drawn"],
        "second_run_disk_hits": stats["disk_hits"],
        "results_identical": identical,
        "cold_seconds": cold,
        "warm_seconds": warm,
    }


def _speedup_checks(payload: dict, baseline: dict, max_regression: float) -> list[str]:
    """Machine-independent checks: recorded speedup *ratios* (vectorized
    vs reference, shared vs fresh) must not collapse by more than the
    threshold.  Ratios divide out the host's absolute speed, so they
    hold across hardware (dev laptop vs CI runner)."""
    regressions: list[str] = []
    ratio_metrics = (
        ("candidate_scan", "speedup", "candidate scan speedup"),
        ("weighted_candidate_scan", "speedup", "weighted candidate scan speedup"),
        ("sweep", "speedup", "shared-sample sweep speedup"),
        ("fig13_cell", "speedup", "fig13 cell speedup"),
        ("fig13_cell", "warm_speedup", "fig13 cell warm-store speedup"),
        ("compare_methods_reuse", "speedup", "compare_methods reuse speedup"),
        ("batch_planner", "speedup", "batch planner cold speedup"),
        ("batch_planner", "warm_speedup", "batch planner warm-store speedup"),
        ("service_window", "speedup", "folded service window speedup"),
        ("service_saturation", "throughput_ratio", "service saturation throughput ratio"),
        ("shm_plane", "speedup", "parallel fan-out speedup"),
        ("zonemap_scan", "speedup", "zonemap scan speedup"),
        ("outofcore_scan", "speedup", "out-of-core scan speedup"),
    )
    for key, field, label in ratio_metrics:
        old = baseline.get(key, {}).get(field)
        new = payload.get(key, {}).get(field)
        if old is None or new is None:
            continue
        if new < old / max_regression:
            regressions.append(
                f"{label}: {new:.1f}x vs baseline {old:.1f}x (collapsed > {max_regression:.1f}x)"
            )
    return regressions


def _absolute_checks(payload: dict, baseline: dict, max_regression: float) -> list[str]:
    """Same-machine checks: absolute wall-clock must not grow past the
    threshold.  Only meaningful when the baseline was recorded on
    comparable hardware."""
    regressions: list[str] = []
    for name, stats in baseline.get("selectors", {}).items():
        new = payload["selectors"].get(name)
        if new is None:
            continue
        old_median = stats["median_trial_seconds"]
        new_median = new["median_trial_seconds"]
        if new_median > old_median * max_regression:
            regressions.append(
                f"selector {name}: {new_median * 1e3:.1f} ms vs baseline "
                f"{old_median * 1e3:.1f} ms (> {max_regression:.1f}x)"
            )
    for key, label in (
        ("candidate_scan", "candidate scan"),
        ("weighted_candidate_scan", "weighted candidate scan"),
    ):
        old = baseline.get(key, {}).get("vectorized_seconds")
        new = payload.get(key, {}).get("vectorized_seconds")
        if old is not None and new is not None and new > old * max_regression:
            regressions.append(
                f"{label}: {new * 1e3:.2f} ms vs baseline "
                f"{old * 1e3:.2f} ms (> {max_regression:.1f}x)"
            )
    return regressions


def compare_to_baseline(
    payload: dict, baseline_path: Path, max_regression: float, mode: str = "absolute"
) -> int:
    """Exit code 1 when any shared metric regressed past the threshold.

    ``mode="ratios"`` checks only the machine-independent speedup
    ratios (what CI uses — its runners are not comparable to the
    machines that recorded the baselines); ``mode="absolute"`` also
    gates raw wall-clock, for same-machine comparisons.
    """
    baseline = json.loads(baseline_path.read_text())
    regressions = _speedup_checks(payload, baseline, max_regression)
    if mode == "absolute":
        regressions += _absolute_checks(payload, baseline, max_regression)

    if regressions:
        print(f"PERF REGRESSION vs {baseline_path} ({mode}):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(
        f"no perf regressions vs {baseline_path} "
        f"({mode} mode, threshold {max_regression:.1f}x)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--output", type=Path, default=Path("BENCH_PR10.json"))
    parser.add_argument("--size", type=int, default=1_000_000)
    parser.add_argument("--budget", type=int, default=10_000)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument(
        "--zonemap-size", type=int, default=10_000_000,
        help="record count for the zone-map scan benchmark",
    )
    parser.add_argument(
        "--compare", type=Path, default=None,
        help="baseline BENCH_*.json to check regressions against",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="fail when a metric exceeds baseline by this factor",
    )
    parser.add_argument(
        "--compare-mode", choices=("absolute", "ratios"), default="absolute",
        help="'ratios' gates only machine-independent speedup ratios "
        "(use when the baseline came from different hardware, e.g. CI)",
    )
    args = parser.parse_args(argv)

    print(f"building beta(0.01, 1) workload, n={args.size} ...")
    dataset = make_beta_dataset(0.01, 1.0, size=args.size, seed=0)

    print(f"timing selectors ({args.trials} trials each, budget {args.budget}):")
    selectors = time_selectors(dataset, args.budget, args.trials)
    print("timing candidate scan:")
    scan = time_candidate_scan(args.budget)
    weighted_scan = time_candidate_scan(args.budget, weighted=True)
    print("timing shared-sample gamma sweep:")
    sweep_stats = time_sweep(dataset, args.budget)
    print("timing trial-outer method panels:")
    # The fig13 cell runs at the figure13 driver's own budget, not the
    # global selector budget: the cell benchmark mirrors the driver.
    fig13_cell = time_fig13_cell(dataset, budget=6_000)
    compare_reuse = time_compare_reuse(dataset, args.budget)
    print("timing batch query planner:")
    batch_planner = time_batch_planner(dataset, args.budget)
    print("timing folded service window:")
    service_window = time_service_window(dataset, args.budget)
    print("timing service under saturation:")
    service_saturation = time_service_saturation(dataset, args.budget)
    print("timing parallel fan-out:")
    shm_plane = time_shm_plane(dataset, args.budget)
    print("timing zone-map threshold scans:")
    zonemap_scan = time_zonemap_scan(args.zonemap_size)
    print("timing out-of-core disk-backend scans:")
    outofcore_scan = time_outofcore_scan(args.zonemap_size)
    print("checking persistent sample store:")
    persistence = check_store_persistence(dataset, args.budget)

    payload = {
        "benchmark": "perf_smoke",
        "repro_version": __version__,
        "dataset": {"name": dataset.name, "size": dataset.size},
        "budget": args.budget,
        "gamma": GAMMA,
        "delta": DELTA,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "selectors": selectors,
        "candidate_scan": scan,
        "weighted_candidate_scan": weighted_scan,
        "sweep": sweep_stats,
        "fig13_cell": fig13_cell,
        "compare_methods_reuse": compare_reuse,
        "batch_planner": batch_planner,
        "service_window": service_window,
        "service_saturation": service_saturation,
        "shm_plane": shm_plane,
        "zonemap_scan": zonemap_scan,
        "outofcore_scan": outofcore_scan,
        "store_persistence": persistence,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if args.compare is not None:
        return compare_to_baseline(
            payload, args.compare, args.max_regression, mode=args.compare_mode
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
