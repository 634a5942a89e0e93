"""Planning: oracle budgets for one query, oracle draws for a batch.

Two planners live here.

**Budget planning** (Section 8 of the paper, future work): *before*
spending the oracle budget, estimate how large it must be for the SUPG
machinery to produce a non-trivial result.

The binding finite-sample constraint for recall-target queries is the
positive-draw count (see
:func:`repro.core.uniform.minimum_positive_draws`): the estimator needs
roughly ``log(delta)/log(gamma)`` positive draws before any threshold
can be certified, and useful quality needs a multiple of that.  Given
the (cheap, always available) proxy scores, the expected positive
fraction of a weighted draw is computable in closed form for a
calibrated proxy — ``q = sum_x w(x) A(x)`` — so the planner inverts it.

For precision-target queries, the binding constraint is the candidate
scan: at least one full candidate step of labels must land above the
eventual threshold, and the per-candidate confidence level
``delta / M`` must leave the normal bound non-vacuous.

**Batch query planning**: the paper's cost model charges per distinct
labeled record, so a *batch* of selections should be grouped by shared
oracle draw before anything executes.  :func:`plan_executions` maps a
batch of (selector, dataset, seed) executions to a :class:`QueryPlan`
that groups them by ``(dataset fingerprint × SampleDesign × seed)`` —
the sample store's legal-reuse key.  The plan reports how many
distinct draws the batch needs (vs how many a naive per-execution loop
would pay for), can :meth:`~QueryPlan.prewarm` a
:class:`~repro.core.pipeline.SampleStore` by drawing each distinct
design exactly once (do this *before* forking workers, so they inherit
the warm store and the open label columns instead of racing to re-draw
the same key), and yields independent :meth:`~QueryPlan.batches` to
fan across workers.
:meth:`repro.query.engine.SupgEngine.execute_many` and the experiment
runner's parallel warm-up are both built on it.

Both then run their independent work through :func:`fan_out`, the one
fork fan-out (and the one worker-death recovery path) in the repo,
sized by :func:`effective_workers`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..faults import maybe_kill_worker
from ..sampling import DEFAULT_EXPONENT, DEFAULT_MIXING, proxy_sampling_weights
from ..metrics import sorted_distinct
from ..sampling.designs import SampleDesign
from .types import ApproxQuery, TargetType
from .uniform import DEFAULT_CANDIDATE_STEP, minimum_positive_draws
from .zonemap import SkipEstimate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets import Dataset
    from .pipeline import SampleStore

__all__ = [
    "BudgetPlan",
    "plan_budget",
    "expected_positive_fraction",
    "PlannedExecution",
    "QueryPlan",
    "plan_executions",
    "resolve_n_jobs",
    "effective_workers",
    "fan_out",
    "worker_share",
    "fork_available",
    "require_fork_or_warn",
]

#: Ceiling on ``n_jobs=-1``: past this, fork + store contention costs
#: more than the extra cores return for this workload shape, and a
#: many-core host (CI runners, shared build boxes) should not fork 64
#: workers for an 8-query window.
MAX_AUTO_WORKERS = 16


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request to a positive worker count.

    ``None`` and ``1`` mean sequential; ``-1`` means one worker per
    available core (the joblib convention), capped at
    :data:`MAX_AUTO_WORKERS`.

    Raises:
        ValueError: for zero or other negative values.
    """
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKERS))
    if n_jobs <= 0:
        raise ValueError(f"n_jobs must be positive or -1, got {n_jobs}")
    return n_jobs


def effective_workers(n_jobs: int | None, tasks: int, what: str) -> int:
    """The worker count a fan-out will actually use.

    The one code path behind every fan-out in the repo (engine batches,
    service windows, trial/cell chunks): normalize the request via
    :func:`resolve_n_jobs`, never exceed the number of independent
    tasks, and degrade to sequential (warning once per process, tagged
    with ``what``) on platforms without ``fork``.
    """
    workers = min(resolve_n_jobs(n_jobs), max(int(tasks), 1))
    if workers > 1 and not require_fork_or_warn(what):
        workers = 1
    return workers


#: The task function of the fan-out this process works for.  Set by the
#: pool initializer inside each forked worker, never in the parent, so
#: concurrent fan-outs (service windows on threads) share no state.
_WORKER_RUN: Callable | None = None


def _install_worker_run(run: Callable) -> None:
    global _WORKER_RUN
    _WORKER_RUN = run


def _run_worker_task(task):
    maybe_kill_worker(task)  # chaos seam; no-op unless a fault plan is active
    return _WORKER_RUN(task)


def fan_out(
    tasks: Sequence[Sequence[int]], run: Callable[[Sequence[int]], object], jobs: int
) -> tuple[list, list[int]]:
    """Run ``run(task)`` for every task across ``jobs`` fork workers.

    The one fan-out behind engine batches, service windows, trial
    chunks, panel chunks and sweep cells.  Workers fork from the
    caller, so ``run`` (usually a closure, which ``spawn`` could not
    pickle) and everything it references arrive without serialization:
    in-memory statistics as copy-on-write pages, disk statistics as
    inherited memmaps, a pre-warmed sample store as-is.  Only tasks go
    down the pool pipe and only pickled results come back.  Each task
    is an iterable of execution indices, which the chaos seam
    :func:`~repro.faults.maybe_kill_worker` reads.

    A worker that dies mid-task (OOM kill, segfault, an injected
    ``kill_execution``) fails its unfinished futures with
    ``BrokenProcessPool`` — where ``multiprocessing.Pool.map`` would
    hang forever.  Those tasks re-run in the caller; every task is
    seeded, so the re-run returns what the worker would have.  Any
    other exception propagates.  Callers size ``jobs`` with
    :func:`effective_workers` and run sequentially themselves when it
    is 1.

    Returns:
        ``(results, recovered)`` — one result per task in task order,
        and the positions of the tasks that were re-run in the caller.
    """
    results: list = [None] * len(tasks)
    recovered: list[int] = []
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_worker_run,
        initargs=(run,),
    ) as pool:
        futures = [pool.submit(_run_worker_task, task) for task in tasks]
        for position, future in enumerate(futures):
            try:
                results[position] = future.result()
            except BrokenProcessPool:
                recovered.append(position)
    for position in recovered:
        results[position] = run(tasks[position])
    return results, recovered


def worker_share(n_jobs: int | None, consumers: int) -> int:
    """Split one worker budget fairly across concurrent consumers.

    With ``max_inflight_windows > 1`` the service's ``jobs`` setting is
    a *host* budget, not a per-window one: each concurrently executing
    window gets an equal integer share (at least 1, so a window can
    always run sequentially) and the host is never oversubscribed by
    windows each forking the full budget.
    """
    if consumers <= 0:
        raise ValueError(f"consumers must be positive, got {consumers}")
    return max(1, resolve_n_jobs(n_jobs) // consumers)


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform.

    Fan-out code in this repo relies on fork inheritance (selector
    factories are closures that ``spawn`` cannot pickle) and falls back
    to sequential execution where fork is unavailable.
    """
    return "fork" in multiprocessing.get_all_start_methods()


#: Process-wide latch so the no-fork degradation warns exactly once, no
#: matter how many batches or service windows fall back to sequential.
_FORK_WARNING_EMITTED = False


def require_fork_or_warn(what: str) -> bool:
    """Check :func:`fork_available`, warning once when it is not.

    Parallel fan-out in this repo degrades to sequential execution on
    platforms without ``fork`` (results are bit-identical either way).
    That degradation should be *visible but not noisy*: the first
    caller that requests workers on a no-fork platform emits one
    :class:`RuntimeWarning`; later fallbacks stay silent.

    Returns:
        ``True`` when fork is available (callers may fan out),
        ``False`` when they must run sequentially.
    """
    global _FORK_WARNING_EMITTED
    if fork_available():
        return True
    if not _FORK_WARNING_EMITTED:
        _FORK_WARNING_EMITTED = True
        warnings.warn(
            f"the 'fork' start method is unavailable on this platform; "
            f"{what} runs sequentially (results are identical, only slower)",
            RuntimeWarning,
            stacklevel=3,
        )
    return False


def expected_positive_fraction(
    proxy_scores: np.ndarray,
    exponent: float = DEFAULT_EXPONENT,
    mixing: float = DEFAULT_MIXING,
) -> float:
    """Expected fraction of weighted draws that hit a true positive.

    Treats the proxy as calibrated (``Pr[O=1|A] = A``), which is the
    same assumption under which the sqrt weights are optimal; the
    planner's callers should recalibrate first (:mod:`repro.calibrate`)
    when the proxy is known to be skewed.

    ``exponent=0`` with ``mixing=0`` gives the uniform-sampling rate,
    i.e. the dataset's (estimated) true-positive rate.
    """
    scores = np.asarray(proxy_scores, dtype=float)
    weights = proxy_sampling_weights(scores, exponent=exponent, mixing=mixing)
    return float(np.sum(weights * scores))


@dataclass(frozen=True)
class BudgetPlan:
    """A planner's answer: the budget and the reasoning behind it.

    Attributes:
        recommended_budget: smallest budget the planner considers safe.
        minimum_budget: hard floor below which the algorithm returns
            only trivial results (whole dataset / labeled positives).
        expected_positive_draws: positives the recommended budget is
            expected to label.
        positive_fraction: expected per-draw positive probability under
            the planned sampling weights.
        rationale: one-line human-readable explanation.
    """

    recommended_budget: int
    minimum_budget: int
    expected_positive_draws: float
    positive_fraction: float
    rationale: str

    def sufficient(self, budget: int) -> bool:
        """Whether a proposed budget meets the recommended level."""
        return budget >= self.recommended_budget


def plan_budget(
    query: ApproxQuery,
    proxy_scores: np.ndarray,
    exponent: float = DEFAULT_EXPONENT,
    mixing: float = DEFAULT_MIXING,
    safety_factor: float = 3.0,
    step: int = DEFAULT_CANDIDATE_STEP,
) -> BudgetPlan:
    """Estimate the oracle budget a query needs.

    Args:
        query: the RT or PT query (its ``budget`` field is ignored —
            this function exists to choose it).
        proxy_scores: full score vector (cheap to compute, per §4.1).
        exponent, mixing: the sampling-weight configuration the
            selector will use.
        safety_factor: multiple of the bare minimum to recommend;
            covers draw variance and the quality (not just validity)
            of the result.
        step: candidate step of the PT scan.

    Returns:
        A :class:`BudgetPlan`.
    """
    if safety_factor < 1.0:
        raise ValueError(f"safety_factor must be >= 1, got {safety_factor}")
    q = expected_positive_fraction(proxy_scores, exponent=exponent, mixing=mixing)

    if query.target_type is TargetType.RECALL:
        k_min = minimum_positive_draws(query.gamma, query.delta)
        if math.isinf(k_min) or q <= 0.0:
            return BudgetPlan(
                recommended_budget=int(np.asarray(proxy_scores).size),
                minimum_budget=int(np.asarray(proxy_scores).size),
                expected_positive_draws=0.0,
                positive_fraction=q,
                rationale=(
                    "gamma=1 (or a proxy with no positive mass) cannot be certified "
                    "from samples; only exhaustive labeling guarantees full recall"
                ),
            )
        minimum = math.ceil(k_min / q)
        recommended = math.ceil(safety_factor * minimum)
        rationale = (
            f"recall target {query.gamma} at delta {query.delta} needs >= {k_min:.0f} "
            f"positive draws; expected positive fraction per draw is {q:.4f}"
        )
    else:
        # PT: the scan needs at least one candidate step of labels in the
        # high-score region, and the two-stage split halves the budget.
        minimum = 2 * step
        # Enough retained labels that a perfect retained sample can
        # certify precision gamma at level delta/M: width ~ sqrt(2
        # log(M/delta)/n) must fit inside (1 - gamma).
        margin = max(1.0 - query.gamma, 1e-3)
        n_certify = math.ceil(2.0 * math.log(10.0 / query.delta) / margin**2)
        minimum = max(minimum, 2 * n_certify)
        recommended = math.ceil(safety_factor * minimum)
        rationale = (
            f"precision target {query.gamma} at delta {query.delta} needs ~{n_certify} "
            f"retained labels per certified candidate (margin {margin:.2f}), with the "
            f"two-stage split doubling the total"
        )

    expected_positives = recommended * q
    return BudgetPlan(
        recommended_budget=recommended,
        minimum_budget=minimum,
        expected_positive_draws=expected_positives,
        positive_fraction=q,
        rationale=rationale,
    )


# -- batch query planning --------------------------------------------------------


@dataclass(frozen=True)
class PlannedExecution:
    """One execution of a batch, as the planner sees it.

    Attributes:
        index: position in the submitted batch (results are returned in
            this order).
        label: human-readable description (method + table, slot label).
        fingerprint: dataset content hash, when the execution is
            plannable.
        design: the execution's cacheable
            :class:`~repro.sampling.designs.SampleDesign`, when one
            exists.
        seed: the integer seed keying the draw.
        note: why the execution is *not* plannable (oracle UDF,
            generator seed, joint query, no declared design) — empty
            for grouped executions.
        skip: zone-map cost estimate (strata touched × stratum size)
            for the execution's materialization, when its dataset is
            indexed — ``None`` for unindexed datasets and unplanned
            executions.
    """

    index: int
    label: str
    fingerprint: str | None = None
    design: SampleDesign | None = None
    seed: int | None = None
    note: str = ""
    skip: SkipEstimate | None = None

    @property
    def key(self) -> tuple | None:
        """The sample store's legal-reuse key, or ``None`` if unplanned."""
        if self.fingerprint is None or self.design is None or self.seed is None:
            return None
        return (self.fingerprint, self.design, self.seed)


class QueryPlan:
    """A batch of executions grouped by shared oracle draw.

    Construct via :func:`plan_executions` (or directly from
    :class:`PlannedExecution` records plus a ``fingerprint → dataset``
    map for the datasets behind the grouped keys).
    """

    def __init__(
        self,
        executions: Sequence[PlannedExecution],
        datasets: Mapping[str, "Dataset"],
    ) -> None:
        self.executions: tuple[PlannedExecution, ...] = tuple(executions)
        self._datasets = dict(datasets)
        self._groups: "OrderedDict[tuple, list[int]]" = OrderedDict()
        self._ungrouped: list[int] = []
        for execution in self.executions:
            key = execution.key
            if key is None:
                self._ungrouped.append(execution.index)
            else:
                self._groups.setdefault(key, []).append(execution.index)

    # -- structure -------------------------------------------------------------

    @property
    def n_executions(self) -> int:
        return len(self.executions)

    @property
    def groups(self) -> Mapping[tuple, tuple[int, ...]]:
        """Key → execution indices sharing that draw, in batch order."""
        return {key: tuple(members) for key, members in self._groups.items()}

    @property
    def ungrouped(self) -> tuple[int, ...]:
        """Executions the planner cannot key (they draw fresh)."""
        return tuple(self._ungrouped)

    @property
    def distinct_draws(self) -> int:
        """Number of distinct (dataset, design, seed) oracle draws."""
        return len(self._groups)

    @property
    def predicted_labels_drawn(self) -> int:
        """Upper bound on oracle labels the grouped draws will pay for.

        Each distinct design draws ``budget`` records; with-replacement
        duplicates are only charged once, so the realized count can
        only be lower.
        """
        return sum(key[1].budget for key in self._groups)

    @property
    def predicted_labels_saved(self) -> int:
        """Upper bound on labels saved vs a naive per-execution loop
        (each group's sharers beyond the first re-use its draw)."""
        return sum(
            (len(members) - 1) * key[1].budget
            for key, members in self._groups.items()
        )

    # -- dynamic folding -------------------------------------------------------

    def covers(self, key: tuple | None) -> bool:
        """Whether a (fingerprint, design, seed) key is one of this
        plan's groups — i.e. a late arrival with that key can be folded
        into the plan without any new oracle draw."""
        return key is not None and key in self._groups

    def fold(
        self, execution: PlannedExecution, dataset: "Dataset | None" = None
    ) -> bool:
        """Fold a late-arriving execution into this plan.

        This is what lets an *open* service window absorb a query that
        arrives after the window's groups were already pre-drawn: the
        execution joins its group (or starts a new one / the unplanned
        list) and shows up in :meth:`batches` like any original member.

        Args:
            execution: the arrival, with ``index`` already set to its
                position in the caller's execution list.
            dataset: the dataset behind the execution's key, so a new
                group stays :meth:`prewarm`-able.

        Returns:
            ``True`` when the execution joined an *existing* group —
            its oracle draw is already paid for (pre-drawn or about to
            be shared); ``False`` when it needs a draw of its own.
        """
        if any(existing.index == execution.index for existing in self.executions):
            raise ValueError(f"plan already holds an execution #{execution.index}")
        self.executions = self.executions + (execution,)
        key = execution.key
        if key is None:
            self._ungrouped.append(execution.index)
            return False
        folded = key in self._groups
        self._groups.setdefault(key, []).append(execution.index)
        if dataset is not None:
            self._datasets.setdefault(execution.fingerprint, dataset)
        return folded

    def warm_keys(self, store: "SampleStore") -> Mapping[tuple, str | None]:
        """Diff this plan against a live store: key → ``"memory"`` or ``None``.

        A key the store holds in memory is served without a draw; any
        other key is drawn again, and pays only for the records its
        label column lacks (:meth:`render_store_diff` counts them).
        """
        return OrderedDict(
            (key, store.locate(*key)) for key in self._groups
        )

    def render_store_diff(self, store: "SampleStore") -> str:
        """Human-readable warm/cold report against a live store.

        Each key the store does not hold in memory is drawn here — a
        draw pays no labels — and reports how many of its records the
        store's label column lacks.  The header sums those records over
        the batch, once per record: the labels the batch's designed
        draws would still pay.
        """
        tiers = self.warm_keys(store)
        warm = sum(1 for tier in tiers.values() if tier is not None)
        unknown: dict[str, list[np.ndarray]] = {}
        lines = []
        for number, (key, tier) in enumerate(tiers.items(), start=1):
            fingerprint, design, seed = key
            dataset = self._datasets.get(fingerprint)
            state = f"warm ({tier})" if tier is not None else "cold"
            if tier is None and dataset is not None:
                indices, _ = design.draw(dataset, np.random.default_rng(seed))
                records = store.unknown_records(dataset, indices)
                unknown.setdefault(fingerprint, []).append(records)
                state = (
                    f"cold ({records.size} of {sorted_distinct(indices).size} "
                    "labels unknown)"
                )
            dataset_label = dataset.name if dataset is not None else fingerprint[:12]
            lines.append(
                f"draw {number:<2d}    : {self._design_label(design)} seed={seed} "
                f"dataset={dataset_label} -> {state}"
            )
        to_pay = sum(
            sorted_distinct(np.concatenate(parts)).size for parts in unknown.values()
        )
        header = (
            f"store diff : {warm}/{len(tiers)} draws already warm; "
            f"{to_pay} labels still to pay"
        )
        return "\n".join([header, *lines])

    # -- execution support -----------------------------------------------------

    def prewarm(
        self, store: "SampleStore", isolate_failures: bool = False
    ) -> "Mapping[tuple, Exception]":
        """Draw every distinct (dataset, design, seed) exactly once.

        Fills ``store`` before any execution runs, and opens the label
        column of every planned dataset when the store has a directory.
        Call this *before* forking workers: they then serve every shared
        design from the inherited memory tier, and share one writable
        mapping of each column instead of racing to create it.

        Args:
            isolate_failures: when set, a failed draw (e.g. a
                permanently unavailable oracle) no longer propagates —
                the failing group is recorded and the remaining groups
                still warm up, so callers can fail only the executions
                that actually needed the broken draw.

        Returns:
            ``key → exception`` for groups whose draw failed; empty
            when everything warmed (always empty without
            ``isolate_failures``, since the first failure raises).
        """
        for dataset in self._datasets.values():
            store.label_column(dataset)
        failures: "OrderedDict[tuple, Exception]" = OrderedDict()
        for key in self._groups:
            fingerprint, design, seed = key
            dataset = self._datasets.get(fingerprint)
            if dataset is None:
                continue
            try:
                store.fetch(dataset, design, seed)
            except Exception as exc:
                if not isolate_failures:
                    raise
                failures[key] = exc
        return failures

    def batches(self) -> list[list[int]]:
        """Independent execution batches, in first-appearance order.

        One batch per distinct draw (its sharers run together, keeping
        any lazily-drawn sample on one worker) plus a singleton batch
        per unplanned execution.  Concatenated and sorted they cover
        every index exactly once.
        """
        batches = [list(members) for members in self._groups.values()]
        batches.extend([index] for index in self._ungrouped)
        batches.sort(key=lambda batch: batch[0])
        return batches

    # -- reporting -------------------------------------------------------------

    @staticmethod
    def _design_label(design: SampleDesign) -> str:
        if design.kind == "uniform":
            return f"uniform(budget={design.budget})"
        return (
            f"{design.kind}(budget={design.budget}, "
            f"exponent={design.exponent}, mixing={design.mixing})"
        )

    def render(self) -> str:
        """Human-readable dedup plan (what ``repro plan <file>`` prints)."""
        lines = [
            f"query plan: {self.n_executions} executions, "
            f"{self.distinct_draws} distinct oracle draws "
            f"({len(self._ungrouped)} unplanned)",
            f"labels     : <= {self.predicted_labels_drawn} drawn, "
            f"<= {self.predicted_labels_saved} saved vs per-query draws",
        ]
        for number, (key, members) in enumerate(self._groups.items(), start=1):
            fingerprint, design, seed = key
            dataset = self._datasets.get(fingerprint)
            dataset_label = dataset.name if dataset is not None else fingerprint[:12]
            shared = ", ".join(f"#{index}" for index in members)
            lines.append(
                f"draw {number:<2d}    : {self._design_label(design)} seed={seed} "
                f"dataset={dataset_label} -> {shared}"
            )
        for index in self._ungrouped:
            execution = self.executions[index]
            note = f" ({execution.note})" if execution.note else ""
            lines.append(f"unplanned  : #{index} {execution.label}{note}")
        for execution in self.executions:
            line = f"#{execution.index:<10d}: {execution.label}"
            if execution.skip is not None:
                line += f" [{execution.skip.render()}]"
            lines.append(line)
        return "\n".join(lines)


def plan_executions(
    specs: Iterable[tuple[str, "Dataset", object, object, str]],
) -> QueryPlan:
    """Build a :class:`QueryPlan` from execution specs.

    Args:
        specs: one tuple per execution, in batch order:
            ``(label, dataset, selector, seed, note)``.  ``selector``
            may be ``None`` (or ``note`` non-empty) to mark an
            execution the caller already knows is unplannable — a
            joint query, an oracle-UDF execution, a selector the store
            must not serve.  Otherwise the selector's
            ``sample_design(dataset)`` names the cacheable draw;
            selectors declaring no design and generator seeds fall
            back to unplanned with a descriptive note.
    """
    executions: list[PlannedExecution] = []
    datasets: dict[str, "Dataset"] = {}
    for index, (label, dataset, selector, seed, note) in enumerate(specs):
        design = None
        if note:
            pass  # caller-supplied reason wins
        elif selector is None:
            note = "no selector to plan"
        elif not isinstance(seed, (int, np.integer)):
            note = "generator seed (no stable cache key)"
        else:
            design_fn = getattr(selector, "sample_design", None)
            design = design_fn(dataset) if callable(design_fn) else None
            if design is None:
                note = "selector declares no sample design"
        if design is not None:
            datasets[dataset.fingerprint] = dataset
            executions.append(
                PlannedExecution(
                    index=index,
                    label=label,
                    fingerprint=dataset.fingerprint,
                    design=design,
                    seed=int(seed),
                    skip=_skip_estimate(dataset, selector),
                )
            )
        else:
            executions.append(PlannedExecution(index=index, label=label, note=note))
    return QueryPlan(executions, datasets)


def _skip_estimate(
    dataset: "Dataset", selector: object
) -> SkipEstimate | None:
    """Zone-map cost estimate for one plannable execution, or ``None``.

    Uses the per-stratum proxy-score mass as the expected positive
    count (the calibrated-proxy assumption :func:`plan_budget` already
    makes), so the estimate needs no oracle labels: an RT query keeps
    the smallest score tail holding ``gamma`` of the expected positive
    mass, a PT query the largest tail whose expected precision still
    meets ``gamma``.
    """
    zone_map = dataset.zone_map
    query = getattr(selector, "query", None)
    if zone_map is None or not isinstance(query, ApproxQuery):
        return None
    return zone_map.plan_estimate(
        recall=query.target_type is TargetType.RECALL, gamma=query.gamma
    )
