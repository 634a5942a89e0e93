"""Execution engine for SUPG dialect queries.

Ties the query layer to the core selectors: tables are registered
datasets, and the WHERE / USING clauses name user-defined functions
(callbacks, per Section 4.1 of the paper) that produce oracle labels
and proxy scores.  When no UDF is registered under a clause's name the
engine falls back to the dataset's built-in ground truth and proxy
scores, which is the common case for the bundled workloads.

The engine is a *long-lived session*: it owns an
:class:`~repro.core.pipeline.ExecutionContext` whose sample store
persists across ``execute()`` calls.  Repeated queries against a
registered table therefore stop re-sampling — a labeled oracle sample
drawn for one query is replayed (bit-exactly) by any later query that
shares its sampling design, seed, and budget, e.g. the same query at a
different target, or a different selector over the same design.
Proxy-UDF-derived datasets are cached per (table, UDF) as well, so
their sorted-score statistics are computed once rather than per query.

Batch execution
---------------

:meth:`SupgEngine.execute_many` plans a whole batch before running it:
every statement is parsed and compiled, a
:class:`~repro.core.planning.QueryPlan` groups the executions by
(dataset fingerprint × :class:`~repro.sampling.designs.SampleDesign` ×
seed), and each distinct design is pre-drawn exactly once — spilled to
the disk tier when the engine has a ``store_dir`` — *before* any
query executes or any worker forks.  Independent groups then fan
across ``jobs`` worker processes through
:func:`~repro.core.planning.fan_out` (fork inheritance hands every
worker the warm store and the datasets' statistics; results come back
pickled over the pool pipe), and results return in statement order,
bit-identical to a sequential ``execute()`` loop.
:meth:`SupgEngine.plan` exposes the same dedup plan without executing
anything.

Two situations run through the same staged path but never touch the
store: oracle UDFs (labels then come from user code whose identity the
store cannot safely key) and generator seeds (no stable cache key).
Joint queries also run uncached — their three stages share one
unbudgeted oracle whose accounting is inherently per-query.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.forksafe import ForkSafeLock
from ..core.joint import JointSelector
from ..core.pipeline import ExecutionContext, SampleStore
from ..core.planning import (
    QueryPlan,
    effective_workers,
    fan_out,
    plan_executions,
)
from ..core.registry import default_selector, make_selector
from ..core.stats_backend import (
    DEFAULT_CHUNK_RECORDS,
    DiskBackend,
    InMemoryBackend,
    StatisticsBackend,
)
from ..core.types import SelectionResult
from ..datasets import Dataset
from ..faults import wrap_label_fn
from ..oracle import BudgetedOracle
from ..oracle.retry import RetryPolicy, RetryingOracle
from .ast import ParsedQuery, QueryKind
from .parser import parse_query, parse_script

__all__ = ["SupgEngine", "QueryExecution"]

#: An oracle UDF maps (dataset, record indices) to 0/1 labels.
OracleUdf = Callable[[Dataset, np.ndarray], np.ndarray]

#: A proxy UDF maps a dataset to a full vector of proxy scores.
ProxyUdf = Callable[[Dataset], np.ndarray]


@dataclass(frozen=True)
class QueryExecution:
    """The outcome of one engine run.

    Attributes:
        parsed: the query AST.
        result: the selection result (indices, threshold, oracle usage).
        dataset: the table the query ran against (post proxy-UDF).
        method: registry name of the selector that executed the query.
    """

    parsed: ParsedQuery
    result: SelectionResult
    dataset: Dataset
    method: str


@dataclass
class _CompiledQuery:
    """One parsed statement bound to its dataset, selector, and oracle.

    Compilation is shared by ``execute``, ``execute_many``, and
    ``plan``, so the three entry points cannot drift: a batch runs
    exactly the selections the sequential loop would.
    """

    index: int
    parsed: ParsedQuery
    dataset: Dataset
    selector: object  # Selector | JointSelector
    method: str
    seed: int | np.random.Generator
    oracle_factory: Callable[[], BudgetedOracle] | None = None

    @property
    def joint(self) -> bool:
        return self.parsed.kind == QueryKind.JOINT

    def run(self, context: ExecutionContext) -> SelectionResult:
        """Execute this compiled query (the worker-side unit of work)."""
        if self.joint:
            return self.selector.select(self.dataset, seed=self.seed)
        oracle = self.oracle_factory() if self.oracle_factory is not None else None
        return self.selector.select(
            self.dataset,
            seed=self.seed,
            oracle=oracle,
            context=context if oracle is None else None,
        )


class SupgEngine:
    """Registry of tables and UDFs plus a session-scoped query executor.

    Args:
        context: optional externally owned execution context; by
            default the engine creates its own, giving every engine
            instance an independent sample store.
        store_dir: spill directory for the sample store's persistent
            tier.  Engine sessions sharing a directory — including
            sessions in different processes, or across restarts —
            reuse each other's labeled oracle samples (the paper's
            cost model charges per distinct labeled record, so spilled
            labels are real savings).  Mutually exclusive with
            ``context``; construct the context's store with
            ``SampleStore(store_dir=...)`` instead.
        retry_policy: oracle retry configuration
            (:class:`~repro.oracle.retry.RetryPolicy`) applied to every
            label-drawing path of this session — store draws, fresh
            draws, and oracle UDFs.  Mutually exclusive with
            ``context`` for the same reason as ``store_dir``; construct
            the context's store with ``SampleStore(retry_policy=...)``
            instead.
        data_plane: deprecated and ignored; setting it has no effect
            beyond a :class:`DeprecationWarning`.  Fork workers read
            in-memory statistics through copy-on-write pages and disk
            statistics through inherited memmaps, so there is no
            separate data plane to choose.
        backend: where each registered dataset's derived statistics
            live — ``"memory"`` (RAM ndarrays, the default),
            ``"disk"`` (fingerprint-keyed ``.npy`` files under the
            store directory, opened as read-only memmap windows;
            construction is chunked so peak RSS stays O(chunk_records)
            rather than O(n)).  ``"disk"`` requires a persistent
            ``store_dir``.  Query results are byte-identical across
            backends.
        chunk_records: records per chunk for the disk backend's
            external sort and streaming weight passes (default
            :data:`~repro.core.stats_backend.DEFAULT_CHUNK_RECORDS`).
            Only meaningful with ``backend="disk"``.

    Example::

        engine = SupgEngine()
        engine.register_table("hummingbird_video", dataset)
        execution = engine.execute('''
            SELECT * FROM hummingbird_video
            WHERE HUMMINGBIRD_PRESENT(frame) = True
            ORACLE LIMIT 1000
            USING DNN_CLASSIFIER(frame) = "hummingbird"
            RECALL TARGET 95%
            WITH PROBABILITY 95%
        ''', seed=0)
    """

    def __init__(
        self,
        context: ExecutionContext | None = None,
        store_dir: str | None = None,
        retry_policy: RetryPolicy | None = None,
        data_plane: str | None = None,
        backend: str | None = None,
        chunk_records: int | None = None,
    ) -> None:
        if context is not None and store_dir is not None:
            raise ValueError(
                "SupgEngine(context=..., store_dir=...) is ambiguous; construct "
                "the context with SampleStore(store_dir=...) instead"
            )
        if context is not None and retry_policy is not None:
            raise ValueError(
                "SupgEngine(context=..., retry_policy=...) is ambiguous; construct "
                "the context with SampleStore(retry_policy=...) instead"
            )
        self._tables: dict[str, Dataset] = {}
        self._oracle_udfs: dict[str, OracleUdf] = {}
        self._proxy_udfs: dict[str, ProxyUdf] = {}
        self._derived: dict[tuple[str, str], Dataset] = {}
        if context is None:
            context = ExecutionContext(
                store=SampleStore(store_dir=store_dir, retry_policy=retry_policy)
            )
        self._context = context
        if data_plane is not None:
            warnings.warn(
                "SupgEngine(data_plane=...) is deprecated and has no effect",
                DeprecationWarning,
                stacklevel=2,
            )
        self._stats_backend = self._make_backend(backend, chunk_records)
        self._transfer = {"bytes_shipped": 0, "stats_inherited": 0}
        # Concurrent service windows share one engine: pre-fork
        # statistics warm-up, transfer accounting, and the derived-
        # dataset cache are the mutable session state they race on.
        self._lock = ForkSafeLock()

    def _make_backend(
        self, backend: str | None, chunk_records: int | None
    ) -> StatisticsBackend:
        if backend in (None, "memory"):
            if chunk_records is not None:
                raise ValueError("chunk_records requires backend='disk'")
            return InMemoryBackend()
        if backend == "disk":
            store_dir = self._context.store.store_dir
            if store_dir is None:
                raise ValueError(
                    "backend='disk' requires a persistent store directory; the "
                    "statistic files live next to the store's spills (pass "
                    "store_dir=... or --store-dir)"
                )
            return DiskBackend(
                store_dir,
                chunk_records=(
                    DEFAULT_CHUNK_RECORDS if chunk_records is None else chunk_records
                ),
            )
        raise ValueError(
            f"unknown statistics backend {backend!r}; choose 'memory' or 'disk'"
        )

    # -- registration ----------------------------------------------------------

    def register_table(self, name: str, dataset: Dataset) -> None:
        """Register a dataset under a table name.

        The dataset's derived statistics, its zone map included, are
        routed through the engine's statistics backend.  Nothing is
        sorted, built or written here: the first query that needs a
        statistic asks the backend, which over a warm disk store reads
        it without sorting.  Registering over a name drops the replaced
        dataset's samples from the in-memory store
        (:meth:`_forget_samples`).
        """
        if not name:
            raise ValueError("table name must be non-empty")
        dataset.use_backend(self._stats_backend)
        with self._lock:
            replaced = self._tables.get(name)
            self._tables[name] = dataset
        self._forget_samples([replaced, *self._invalidate_derived(table=name)])

    def register_oracle_udf(self, name: str, fn: OracleUdf) -> None:
        """Register a WHERE-clause oracle predicate by UDF name."""
        self._oracle_udfs[name.upper()] = fn

    def register_proxy_udf(self, name: str, fn: ProxyUdf) -> None:
        """Register a USING-clause proxy scorer by UDF name."""
        self._proxy_udfs[name.upper()] = fn
        self._forget_samples(self._invalidate_derived(proxy=name.upper()))

    def tables(self) -> tuple[str, ...]:
        """Registered table names."""
        return tuple(sorted(self._tables))

    # -- session state ---------------------------------------------------------

    @property
    def context(self) -> ExecutionContext:
        """The session's execution context (shared sample store)."""
        return self._context

    def session_stats(self) -> Mapping[str, int]:
        """The session's counters, read straight from their three owners.

        The sample store's :meth:`~repro.core.pipeline.SampleStore.stats`
        (reuse and oracle-label accounting), the statistics backend's
        ``counters`` (construction work, quarantines, and the scans of
        every zone map it served, cumulative per backend), and the
        fan-out's ``bytes_shipped`` (index bytes fork workers returned
        over the pool pipe) and ``stats_inherited`` (file-backed
        statistics they inherited instead of rebuilding).  Counts made
        inside forked workers die with the worker, so every total
        reflects parent-side work: prewarm, sequential execution, and
        worker-death recovery.
        """
        stats = dict(self._context.store.stats())
        stats.update(self._stats_backend.counters)
        with self._lock:
            stats.update(self._transfer)
        return stats

    @property
    def stats_backend(self) -> StatisticsBackend:
        """The session's statistics backend (registered tables share it)."""
        return self._stats_backend

    def close(self) -> None:
        """No-op, kept for callers that close sessions: the engine holds
        no resource that outlives it."""

    def reset_session(self) -> None:
        """Drop cached samples and derived datasets (registrations stay)."""
        self._context.store.clear()
        self._derived.clear()

    def _invalidate_derived(
        self, table: str | None = None, proxy: str | None = None
    ) -> list[Dataset]:
        """Drop the derived datasets of a table or proxy UDF; returns them."""
        with self._lock:
            stale = [
                key
                for key in self._derived
                if (table is not None and key[0] == table)
                or (proxy is not None and key[1] == proxy)
            ]
            return [self._derived.pop(key) for key in stale]

    def _forget_samples(self, dropped: Sequence[Dataset | None]) -> None:
        """Drop the stored samples of datasets this session no longer holds.

        Reads only fingerprints already computed, so registering never
        hashes a table, and skips content that a registered table or a
        cached derived dataset still holds.  A draw depends only on
        content, design and seed, so forgetting can cost a later query
        a redraw, never a different result.
        """
        fingerprints = {d.__dict__.get("fingerprint") for d in dropped if d is not None}
        with self._lock:
            for held in (*self._tables.values(), *self._derived.values()):
                fingerprints.discard(held.__dict__.get("fingerprint"))
        fingerprints.discard(None)
        for fingerprint in fingerprints:
            self._context.store.forget(fingerprint)

    # -- compilation -----------------------------------------------------------

    def _compile(
        self,
        index: int,
        parsed: ParsedQuery,
        seed: int | np.random.Generator,
        method: str | None,
        stage_budget: int,
        selector_kwargs: Mapping[str, object],
    ) -> _CompiledQuery:
        """Bind one parsed statement to its dataset, selector, and oracle."""
        dataset = self._resolve_table(parsed)
        dataset = self._apply_proxy_udf(parsed, dataset)

        if parsed.kind == QueryKind.JOINT:
            joint_query = parsed.to_joint_query(stage_budget=stage_budget)
            selector = JointSelector(joint_query, method=method or "is", **selector_kwargs)
            return _CompiledQuery(
                index=index,
                parsed=parsed,
                dataset=dataset,
                selector=selector,
                method=f"joint-{method or 'is'}",
                seed=seed,
            )

        query = parsed.to_approx_query()
        if method is None:
            selector = default_selector(query, **selector_kwargs)
        else:
            selector = make_selector(method, query, **selector_kwargs)
        return _CompiledQuery(
            index=index,
            parsed=parsed,
            dataset=dataset,
            selector=selector,
            method=selector.name,
            seed=seed,
            oracle_factory=self._oracle_factory(parsed, dataset, query.budget),
        )

    def _parse_batch(
        self, queries: "str | Sequence[str | ParsedQuery]"
    ) -> list[ParsedQuery]:
        """Normalize batch input: one multi-statement string, or a
        sequence of statements / pre-parsed queries."""
        if isinstance(queries, str):
            return parse_script(queries)
        parsed: list[ParsedQuery] = []
        for query in queries:
            if isinstance(query, ParsedQuery):
                parsed.append(query)
            else:
                parsed.extend(parse_script(query))
        return parsed

    @staticmethod
    def _broadcast(value, count: int, what: str) -> list:
        """Expand a scalar per-query parameter, or validate a sequence.

        numpy arrays count as sequences: ``seed=np.arange(3)`` means
        per-statement seeds, not one array-entropy seed shared by all
        statements (``default_rng`` would silently accept the latter).
        """
        if isinstance(value, (list, tuple, np.ndarray)):
            if len(value) != count:
                raise ValueError(
                    f"{what} sequence has {len(value)} entries for {count} statements"
                )
            return [
                item.item() if isinstance(item, np.generic) else item
                for item in value
            ]
        return [value] * count

    def _compile_batch(
        self,
        queries,
        seed,
        method,
        stage_budget: int,
        selector_kwargs: Mapping[str, object],
    ) -> list[_CompiledQuery]:
        parsed = self._parse_batch(queries)
        seeds = self._broadcast(seed, len(parsed), "seed")
        methods = self._broadcast(method, len(parsed), "method")
        return [
            self._compile(index, statement, seeds[index], methods[index],
                          stage_budget, selector_kwargs)
            for index, statement in enumerate(parsed)
        ]

    def _plan_compiled(self, compiled: Sequence[_CompiledQuery]) -> QueryPlan:
        """Group compiled queries by their shared oracle draws."""
        specs = []
        for job in compiled:
            label = f"{job.method} on {job.parsed.table}"
            if job.joint:
                note = "joint query (unbudgeted shared oracle)"
                specs.append((label, job.dataset, None, job.seed, note))
            elif job.oracle_factory is not None:
                note = "oracle UDF bypasses the sample store"
                specs.append((label, job.dataset, None, job.seed, note))
            else:
                specs.append((label, job.dataset, job.selector, job.seed, ""))
        return plan_executions(specs)

    # -- execution ---------------------------------------------------------------

    def execute(
        self,
        sql: str,
        seed: int | np.random.Generator = 0,
        method: str | None = None,
        stage_budget: int = 1000,
        **selector_kwargs,
    ) -> QueryExecution:
        """Parse and run a SUPG dialect query.

        Args:
            sql: query text (Figure 3 or Figure 14 shape).
            seed: randomness for sampling.
            method: selector registry name; defaults to the SUPG method
                for the query type (IS-CI-R / two-stage IS-CI-P).  For
                joint queries, one of ``"is"``, ``"uniform"``, ``"noci"``.
            stage_budget: stage-1/2 budget for joint-target queries.
            **selector_kwargs: forwarded to the selector constructor.

        Returns:
            A :class:`QueryExecution`.

        Raises:
            KeyError: unknown table.
            repro.query.parser.QuerySyntaxError: malformed query text.
        """
        job = self._compile(0, parse_query(sql), seed, method, stage_budget, selector_kwargs)
        result = job.run(self._context)
        return QueryExecution(
            parsed=job.parsed, result=result, dataset=job.dataset, method=job.method
        )

    def plan(
        self,
        queries: "str | Sequence[str | ParsedQuery]",
        seed: "int | Sequence[int]" = 0,
        method: "str | Sequence[str | None] | None" = None,
        stage_budget: int = 1000,
        **selector_kwargs,
    ) -> QueryPlan:
        """Build the dedup plan for a batch without executing anything.

        Accepts exactly the inputs of :meth:`execute_many`; the
        returned :class:`~repro.core.planning.QueryPlan` reports the
        distinct (dataset × design × seed) draws the batch needs, which
        statements share them, and an upper bound on oracle labels
        drawn/saved.  ``repro plan <queries.sql>`` prints it.
        """
        compiled = self._compile_batch(queries, seed, method, stage_budget, selector_kwargs)
        return self._plan_compiled(compiled)

    def execute_many(
        self,
        queries: "str | Sequence[str | ParsedQuery]",
        *,
        seed: "int | Sequence[int]" = 0,
        method: "str | Sequence[str | None] | None" = None,
        jobs: int | None = None,
        stage_budget: int = 1000,
        **selector_kwargs,
    ) -> list[QueryExecution]:
        """Plan and run a batch of queries; results in statement order.

        The batch is compiled, grouped by shared oracle draw, and each
        distinct (dataset × design × seed) is pre-drawn exactly once
        into the session store (spilling to disk when the engine has a
        ``store_dir``) before anything executes.  With ``jobs > 1``,
        workers fork *after* that warm-up, so every group is served
        from the inherited store instead of being re-drawn per worker.

        Results are bit-identical to a sequential ``execute()`` loop
        over the same statements, for any ``jobs``.

        Args:
            queries: one multi-statement string (``;``-separated), or a
                sequence of statements / pre-parsed queries.
            seed: one seed for every statement, or a per-statement
                sequence.
            method: one selector registry name for every statement, or
                a per-statement sequence (``None`` entries use the
                query-type default).
            jobs: worker processes for the group fan-out (``-1`` = all
                cores; ``None``/``1`` = sequential).
            stage_budget: stage-1/2 budget for joint-target queries.
            **selector_kwargs: forwarded to every selector constructor.
        """
        compiled = self._compile_batch(queries, seed, method, stage_budget, selector_kwargs)
        if not compiled:
            return []
        plan = self._plan_compiled(compiled)
        plan.prewarm(self._context.store)
        workers = effective_workers(jobs, len(compiled), "execute_many(jobs=...)")
        if workers > 1:
            results, recovered, _ = self._run_batches_parallel(
                compiled, plan, self._context, workers
            )
            if recovered:
                warnings.warn(
                    f"execute_many recovered {len(recovered)} execution group(s) "
                    "sequentially after a worker process died; results are "
                    "unaffected",
                    RuntimeWarning,
                    stacklevel=2,
                )
        else:
            results = [job.run(self._context) for job in compiled]
        return [
            QueryExecution(
                parsed=job.parsed, result=result, dataset=job.dataset, method=job.method
            )
            for job, result in zip(compiled, results)
        ]

    def _run_batches_parallel(
        self,
        compiled: Sequence[_CompiledQuery],
        plan: QueryPlan,
        context: ExecutionContext,
        workers: int,
    ) -> tuple[list[SelectionResult], list[list[int]], dict[str, int]]:
        """Fan the plan's independent batches across fork workers.

        Before forking, every distinct dataset in the batch computes the
        statistics workers read (:meth:`Dataset.warm_statistics`), so
        each worker inherits one copy instead of rebuilding it; a
        group's statements stay together so any residual lazy draw
        (e.g. an oracle-UDF statement) happens once on one worker.
        Batches lost to a dead worker are re-executed in the parent by
        :func:`~repro.core.planning.fan_out` from the already pre-warmed
        store, so the recovered results are bit-identical to an
        unfaulted run.

        Returns:
            ``(results, recovered_batches, transfer)`` — results in
            statement order, the batches (execution-index lists) that
            had to be re-executed after a worker death, and this
            fan-out's own ``bytes_shipped`` and ``stats_inherited``,
            which are also added to the session totals.
        """
        batches = plan.batches()
        datasets = {id(job.dataset): job.dataset for job in compiled}
        with self._lock:
            inherited = sum(dataset.warm_statistics() for dataset in datasets.values())

        def run_batch(batch: Sequence[int]) -> list[SelectionResult]:
            return [compiled[index].run(context) for index in batch]

        per_batch, recovered = fan_out(batches, run_batch, workers)
        results: list[SelectionResult | None] = [None] * len(compiled)
        for batch, batch_results in zip(batches, per_batch):
            for index, result in zip(batch, batch_results):
                results[index] = result
        transfer = {
            "bytes_shipped": sum(
                result.indices.nbytes + result.sampled_indices.nbytes
                for position, batch_results in enumerate(per_batch)
                if position not in recovered
                for result in batch_results
            ),
            "stats_inherited": inherited,
        }
        with self._lock:
            for key, value in transfer.items():
                self._transfer[key] += value
        return results, [batches[position] for position in recovered], transfer

    # -- resolution helpers ---------------------------------------------------

    def _resolve_table(self, parsed: ParsedQuery) -> Dataset:
        try:
            return self._tables[parsed.table]
        except KeyError:
            raise KeyError(
                f"unknown table {parsed.table!r}; registered: {', '.join(self.tables()) or '-'}"
            ) from None

    def _apply_proxy_udf(self, parsed: ParsedQuery, dataset: Dataset) -> Dataset:
        udf = self._proxy_udfs.get(parsed.proxy.name.upper())
        if udf is None:
            return dataset
        # Cache the derived dataset per (table, UDF): re-deriving every
        # execute() would discard the cached sorted-score statistics and
        # give each query a fresh fingerprint, defeating sample reuse.
        key = (parsed.table, parsed.proxy.name.upper())
        with self._lock:
            derived = self._derived.get(key)
            if derived is None:
                scores = np.asarray(udf(dataset), dtype=float)
                derived = dataset.with_scores(
                    scores, name=f"{dataset.name}|{parsed.proxy.name}"
                ).use_backend(self._stats_backend)
                self._derived[key] = derived
            return derived

    def _oracle_factory(
        self, parsed: ParsedQuery, dataset: Dataset, budget: int | None
    ) -> Callable[[], BudgetedOracle] | None:
        """A fresh-per-run oracle builder for oracle-UDF queries.

        ``BudgetedOracle`` is stateful (memo + budget charge), so each
        run — including each parallel worker — must construct its own.
        """
        udf = self._oracle_udfs.get(parsed.predicate.name.upper())
        if udf is None:
            return None  # the selector labels from dataset ground truth
        retry_policy = self._context.retry_policy

        def build() -> BudgetedOracle:
            def raw_lookup(indices: np.ndarray) -> np.ndarray:
                return np.asarray(udf(dataset, indices))

            # Same layering as the built-in paths: fault seam and retry
            # below the budget layer, so a retried UDF call charges its
            # labels only on the attempt that succeeds.
            lookup = wrap_label_fn(raw_lookup)
            if retry_policy is not None:
                lookup = RetryingOracle(lookup, retry_policy).query
            return BudgetedOracle(lookup, budget=budget)

        return build
