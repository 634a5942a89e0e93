"""Repository benchmark: SUPG queries end to end, and layer by layer when traced.

Run from the repository root::

    python3 perfbench/run.py --workload fresh-draw --seed 1 --seconds 10 --trace 0

Each workload drives the simplest correct path: one ``SupgEngine`` on
the in-memory backend with a sequential ``execute()`` loop, one closed
loop with one client.  ``batch-disk`` alone runs ``execute_many`` with
``jobs=2`` over the disk statistics backend.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sends the
same client calls to two engines in turn, one of them with span shims
installed (``tracing.py``), checks that both give byte-identical
results, and reports the per-layer metrics plus the tracing overhead.  Both modes
check every result against ground truth and a fixed, seed-chosen subset
against a fresh ``Selector.select`` with no context or store.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md in this directory
lists the workloads, the metrics and which layer should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import re
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
WORKDIR = ROOT / ".perfbench"
sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src")]

try:
    import numpy as np

    from measure import MIB, RssSampler, digest, tail
    from repro.bounds import clopper_pearson_lower
    from repro.core.registry import default_selector
    from repro.datasets import Dataset
    from repro.metrics import precision, recall
    from repro.query.parser import parse_query
    from tracing import Tracer, layer_times
    from workloads import DELTA, WORKLOADS
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program ({exc}); run from the repository root")

SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
MIN_CALLS = 16  # enough calls for a tail with ten samples beyond it
CHECKED_CALLS = 6  # calls whose statements are re-run without the engine
GUARANTEE_CONFIDENCE = 0.001  # Clopper-Pearson error level of the gamma check
# execute_many reports worker-death recovery only through this warning.
RECOVERED = re.compile(r"recovered (\d+) execution group")


@dataclass
class StatementRecord:
    """What one executed statement left behind (kept instead of its result)."""

    target: str
    seed: int
    budget: int
    oracle_calls: int
    met: bool
    digest: str
    key: tuple


class Loop:
    """One client's closed loop on one engine: the next call is sent when
    the previous one returns.

    Only the calls are timed: preparing a call's inputs and checking its
    outputs happen between clocks.  With a tracer, its shims are
    installed around each call of this loop only.
    """

    def __init__(self, workload, state, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.state = state
        self.tracer = tracer
        self.latencies: list[float] = []
        self.busy = 0.0
        self.records: list[list[StatementRecord]] = []
        self.errors: list[str] = []
        self.recovered_groups = 0
        self.stats_before = dict(state.engine.session_stats())
        self.stats_after = self.stats_before

    @property
    def calls(self) -> int:
        return len(self.latencies)

    @property
    def statements(self) -> int:
        return sum(len(call) for call in self.records) + len(self.errors)

    def delta(self, key: str) -> int:
        return int(self.stats_after.get(key, 0)) - int(self.stats_before.get(key, 0))

    def step(self, call) -> None:
        tracer = self.tracer
        shims = tracer.installed() if tracer is not None else contextlib.nullcontext()
        with shims, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            if tracer is not None:
                tracer.statement = call.number
            start = time.perf_counter()
            try:
                executions = self.workload.run(self.state, call)
            except Exception as exc:  # a failed call counts, the loop goes on
                executions = None
                error = f"call {call.number}: {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.statement = None
        for caught_warning in caught:
            recovered = RECOVERED.search(str(caught_warning.message))
            if recovered is not None:
                self.recovered_groups += int(recovered.group(1))
        self.busy += latency
        self.latencies.append(latency)
        if executions is None:
            self.errors.extend([error] * len(call.statements))
            self.records.append([])
        else:
            self.records.append(evaluate(call, executions))

    def finish(self) -> None:
        self.stats_after = dict(self.state.engine.session_stats())


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


def evaluate(call, executions) -> list[StatementRecord]:
    """Ground-truth check of every statement of one call (outside the clock)."""
    labels = call.arrays[1]
    records = []
    for statement, execution in zip(call.statements, executions):
        result = execution.result
        if statement.target == "recall":
            achieved = recall(result.indices, labels)
        else:
            achieved = precision(result.indices, labels)
        stage1_budget = statement.budget if statement.target == "recall" else statement.budget // 2
        records.append(StatementRecord(
            target=statement.target,
            seed=statement.seed,
            budget=statement.budget,
            oracle_calls=int(result.oracle_calls),
            met=achieved >= statement.gamma,
            digest=digest(result),
            key=(statement.seed, stage1_budget),
        ))
    return records


def checked_statements(workload, seed: int, calls: int) -> list[tuple[int, int]]:
    """The seed-chosen (call number, statement index) pairs to re-run."""
    rng = np.random.default_rng([seed, 99])
    numbers = rng.choice(min(calls, MIN_CALLS), size=min(CHECKED_CALLS, calls), replace=False)
    return [(int(n), int(rng.integers(workload.statements_per_call))) for n in sorted(numbers)]


def reference_mismatches(workload, inputs, loop: Loop, seed: int) -> list[str]:
    """Re-run the checked statements with a fresh ``Selector.select`` on a
    fresh in-memory dataset, no context and no store; compare bytes."""
    problems = []
    references: dict[int, Dataset] = {}
    for number, index in checked_statements(workload, seed, loop.calls):
        recorded = loop.records[number]
        if not recorded:
            continue  # the call failed and is already counted
        call = workload.next_call(inputs, number)
        statement = call.statements[index]
        scores, labels = call.arrays
        dataset = references.get(id(scores))
        if dataset is None:
            dataset = references[id(scores)] = Dataset(scores, labels, name="reference")
        selector = default_selector(parse_query(statement.sql).to_approx_query())
        try:
            expected = digest(selector.select(dataset, seed=statement.seed))
        except Exception as exc:
            problems.append(f"call {number}.{index}: reference raised {exc!r}")
            continue
        if expected != recorded[index].digest:
            problems.append(f"call {number}.{index}: result differs from Selector.select")
    return problems


def guarantee_holds(loop: Loop) -> tuple[bool, int, int]:
    """Whether the share of distinct statements missing gamma is
    consistent with delta, by a Clopper-Pearson lower bound."""
    outcomes = {}
    for call in loop.records:
        for record in call:
            outcomes[(record.target, record.seed, record.budget, record.digest)] = record.met
    misses = sum(1 for met in outcomes.values() if not met)
    trials = len(outcomes)
    if trials == 0:
        return False, misses, trials
    lower = clopper_pearson_lower(misses, trials, GUARANTEE_CONFIDENCE)
    return lower <= DELTA, misses, trials


def fresh_labels(workload, loop: Loop) -> int:
    """Oracle labels paid during the timed loop (the paper's cost model).

    A store hit pays nothing; a miss pays its stage-1 draw; a PT
    statement also pays its stage-2 region sample, which never enters
    the store.  In a sequential loop that is every label the statements
    charge minus those the store served.  In a fan-out, the workers'
    store hits die with them, so the parent's count of served labels is
    rebuilt: each statement was served its group's pre-drawn sample,
    whose size is any RT member's labels.
    """
    records = [record for call in loop.records for record in call]
    charged = sum(record.oracle_calls for record in records)
    if workload.statements_per_call == 1:
        return charged - loop.delta("labels_saved")
    stage1 = {record.key: record.oracle_calls for record in records if record.target == "recall"}
    served = sum(stage1[record.key] for record in records)
    return loop.delta("labels_drawn") + charged - served


def correctness(workload, inputs, loop: Loop, seed: int) -> tuple[bool, int, list[str]]:
    """Failed statements (errors and reference mismatches) and problems."""
    problems = list(loop.errors) + reference_mismatches(workload, inputs, loop, seed)
    failed = len(problems)
    holds, misses, trials = guarantee_holds(loop)
    if not holds:
        problems.append(f"{misses} of {trials} distinct statements missed gamma")
    return holds and failed == 0, failed, problems


def end_to_end(workload, loop: Loop, setup_times: list[float], failed: int,
               rss: RssSampler) -> dict:
    latencies_ms = [latency * 1e3 for latency in loop.latencies]
    tail_ms, percentile, samples = tail(latencies_ms)
    statements = loop.statements
    met = sum(record.met for call in loop.records for record in call)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "queries_per_s": (statements / sum(loop.latencies), "1/s"),
        "labels_per_query": (fresh_labels(workload, loop) / statements, "labels"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss.peak / MIB, "MiB"),
        "target_met_frac": (met / statements, "fraction"),
    }
    print(f"{workload.name}: {loop.calls} calls, {statements} statements, "
          f"latency_tail_ms is p{percentile:.1f} of {samples} samples")
    print(f"{workload.name}: failed_frac {failed / statements:.4f} fraction "
          f"({failed} of {statements}); peak RSS growth {rss.growth_bytes / MIB:.1f} MiB; "
          f"set-ups {', '.join(f'{t:.3f}' for t in setup_times)} s")
    return metrics


def per_layer(workload, tracer, traced: Loop, untraced: Loop,
              tables: int) -> dict:
    times = layer_times(tracer)
    timed, setup = times["timed"], times["setup"]
    counts = tracer.counts["timed"]
    queries = traced.statements
    calls = traced.calls
    fanout = workload.statements_per_call > 1
    batches = calls if fanout else 0

    def per(value, count):
        return value / count if count else 0.0

    store_hits = traced.delta("hits") + traced.delta("disk_hits")
    fetches = store_hits + traced.delta("misses")
    p50_traced = statistics.median(traced.latencies)
    p50_untraced = statistics.median(untraced.latencies)
    return {
        "parse.ms_per_query": (per(timed["total:parse"], queries), "ms"),
        "engine.self_ms_per_query": (per(timed["self:engine"], queries), "ms"),
        "store.fetch_ms_per_query": (per(timed["outer:fetch"], queries), "ms"),
        "store.hit_ratio": (per(store_hits, fetches), "fraction"),
        "store.labels_drawn_per_query": (per(traced.delta("labels_drawn"), queries), "labels"),
        "draw.ms_per_query": (per(timed["outer:draw"], queries), "ms"),
        "draw.calls": (per(timed["count:draw"], calls), "1/call"),
        "label.ms_per_query": (per(timed["total:label"], queries), "ms"),
        "label.records_per_query": (per(counts["label.records"], queries), "records"),
        "estimate_tau.self_ms_per_query": (per(timed["self:select"], queries), "ms"),
        "materialize.self_ms_per_query": (per(timed["self:materialize"], queries), "ms"),
        "scan.ms_per_query": (per(timed["self:scan"], queries), "ms"),
        "scan.records_skipped_ratio": (
            per(counts["records_skipped"], counts["scan.records"]), "fraction"),
        "scan.strata_touched_per_select": (
            per(counts["strata_touched"], counts["zonemap_selects"]), "strata"),
        "scan.dense_fallbacks": (per(counts["zonemap_dense_fallbacks"], calls), "1/call"),
        "stats.build_ms": (
            per(setup["outer:stats"] + timed["outer:stats"], tables), "ms"),
        "stats.sorts_performed": (per(traced.delta("sorts_performed"), calls), "1/call"),
        "stats.weight_passes": (per(traced.delta("weight_passes"), calls), "1/call"),
        "stats.chunks_merged": (per(traced.stats_after["chunks_merged"], tables), "1/table"),
        "stats.bytes_paged_per_query": (per(traced.delta("bytes_paged"), queries), "bytes"),
        "prewarm.ms_per_batch": (per(timed["total:prewarm"], batches), "ms"),
        "fanout.ms_per_batch": (per(timed["self:engine"], batches), "ms"),
        "fanout.bytes_shipped_per_batch": (per(traced.delta("bytes_shipped"), batches), "bytes"),
        "fanout.bytes_shm_per_batch": (per(traced.delta("bytes_shm"), batches), "bytes"),
        "fanout.stats_inherited": (per(traced.delta("stats_inherited"), batches), "1/batch"),
        "fanout.recovered_groups": (per(traced.recovered_groups, batches), "1/batch"),
        "trace.overhead_frac": ((p50_traced - p50_untraced) / p50_untraced, "fraction"),
    }


def release(state) -> None:
    state.close()
    gc.collect()


def run_untraced(workload, inputs, args, workdir: Path) -> tuple[bool, int, int, dict]:
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            release(state)
        start = time.perf_counter()
        state = workload.setup(inputs, str(workdir))
        setup_times.append(time.perf_counter() - start)
    rss = RssSampler()
    try:
        loop = Loop(workload, state)
        rss.start()
        while loop.busy < args.seconds or loop.calls < MIN_CALLS:
            loop.step(workload.next_call(inputs, loop.calls))
        loop.finish()
    finally:
        rss.stop()
        release(state)
    correct, failed, problems = correctness(workload, inputs, loop, args.seed)
    for problem in problems:
        print(f"{workload.name}: FAILED {problem}")
    metrics = end_to_end(workload, loop, setup_times, failed, rss)
    return correct, loop.statements, failed, metrics


def run_traced(workload, inputs, args, workdir: Path) -> tuple[bool, int, int, dict]:
    """Two engines take the same calls in turn, one of them traced.

    Alternating call by call (and which engine goes first) exposes both
    to the same machine state, so their latency difference is the
    tracing overhead rather than drift between two runs.
    """
    tracer = Tracer()
    states = [workload.setup(inputs, str(workdir))]
    try:
        with tracer.installed():
            states.append(workload.setup(inputs, str(workdir)))
        untraced, traced = Loop(workload, states[0]), Loop(workload, states[1], tracer)
        while untraced.busy < args.seconds / 2 or untraced.calls < MIN_CALLS:
            number = untraced.calls
            for loop in (untraced, traced) if number % 2 == 0 else (traced, untraced):
                loop.step(workload.next_call(inputs, number))
        untraced.finish()
        traced.finish()
    finally:
        for state in states:
            release(state)
    spans_path = WORKDIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.dump(str(spans_path))
    print(f"{workload.name}: {len(tracer.spans)} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    correct, failed, problems = correctness(workload, inputs, traced, args.seed)
    for number, (plain, shimmed) in enumerate(zip(untraced.records, traced.records)):
        if [r.digest for r in plain] != [r.digest for r in shimmed]:
            problems.append(f"call {number}: traced results differ from untraced results")
            failed += len(shimmed)
            correct = False
    for problem in problems:
        print(f"{workload.name}: FAILED {problem}")
    tables = 1 + (traced.calls if workload.registers_per_call else 0)
    metrics = per_layer(workload, tracer, traced, untraced, tables)
    return correct, traced.statements, failed, metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"work-{os.getpid()}"
    workdir.mkdir()
    tempfile.tempdir = str(workdir)  # anything the program spills stays in the checkout
    try:
        inputs = workload.generate(args.seed)
        runner = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics = runner(workload, inputs, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name}: {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
