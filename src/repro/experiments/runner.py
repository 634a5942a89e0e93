"""Trial runner: repeated selections with fresh randomness.

The paper's headline claims are distributional — "over 100 runs, the
naive method misses its target half the time; SUPG fails at most a
delta fraction" — so every experiment is a loop of independent trials
with distinct seeds.  :func:`run_trials` executes that loop for one
method, :func:`compare_methods` for a method panel, :func:`sweep` for
one method across a target sweep, and :func:`run_sweep_cells` for a
whole panel of (method, dataset) sweep cells.

Trials are statistically independent (trial ``t`` is fully determined
by seed ``base_seed + t``), so the loops parallelize perfectly.  Two
fan-out shapes are available:

- ``run_trials(..., n_jobs=k)`` fans contiguous seed chunks of one
  cell across worker processes;
- ``run_sweep_cells(cells, n_jobs=k)`` fans *whole* (method, dataset)
  sweep cells across workers — the shape the figure drivers use, since
  their cells are many and each cell's internal sample reuse works
  best when the cell stays on one worker.

Seed assignment is identical to the sequential path and workers return
:class:`TrialRecord` objects in trial order, so parallel results are
bit-for-bit identical to ``n_jobs=1`` — the determinism tests pin
this.  Every shape runs through :func:`~repro.core.planning.fan_out`:
``fork`` workers (selector factories are closures, which ``spawn``
cannot pickle; forked workers inherit them), and a chunk or cell whose
worker dies is re-run in the parent with a ``RuntimeWarning``.  On
platforms without ``fork`` the runner transparently falls back to the
sequential path.

Sample reuse
------------

``sweep`` and ``compare_methods`` run their trial loop *outermost* and
thread one :class:`~repro.core.pipeline.ExecutionContext` through every
selection, so the labeled oracle sample of seed ``t`` is drawn once and
replayed across the entire gamma axis (``sweep``) or across every
method sharing its sampling design (``compare_methods``) — exactly one
draw per (dataset, seed, design) instead of one per loop iteration.
Trial-outer ordering is also what makes the reuse robust to LRU
capacity: slots of one seed execute back-to-back, so a panel with
``trials > max_entries`` can no longer thrash the store the way a
method-outer loop does.  The reuse is bit-exact: every slot sees the
same sample it would have drawn itself, so the records equal those of
independent per-slot :func:`run_trials` loops.

Passing ``store_dir`` spills every fresh draw to a persistent
:class:`~repro.core.pipeline.SampleStore` tier, shared across worker
processes and across runs — see :mod:`repro.core.pipeline`.  Parallel
runs with a ``store_dir`` additionally *pre-spill* their distinct
(dataset, design, seed) draws before forking, via the batch planner
(:mod:`repro.core.planning`): the parent draws each shared design once
and spills it, so workers warm up from disk instead of racing to
re-label the same keys.
"""

from __future__ import annotations

import warnings
from typing import Callable, Mapping, Sequence

from ..core.base import Selector
from ..core.pipeline import ExecutionContext, SampleStore
from ..core.planning import effective_workers, fan_out, plan_executions, resolve_n_jobs
from ..core.types import ApproxQuery
from ..datasets import Dataset
from ..metrics import evaluate_selection
from .results import MethodSummary, TrialRecord, quality_of, summarize_trials

__all__ = [
    "run_trials",
    "compare_methods",
    "sweep",
    "run_sweep_cells",
    "resolve_n_jobs",
    "SelectorFactory",
]

#: A factory producing a fresh selector per trial (selectors are
#: stateless, but fresh construction keeps ablation parameters obvious).
SelectorFactory = Callable[[], Selector]


def _run_single_trial(
    factory: SelectorFactory,
    dataset: Dataset,
    base_seed: int,
    method_name: str | None,
    trial: int,
    context: ExecutionContext | None = None,
) -> TrialRecord:
    """One seeded selection — the unit of work shared by all backends."""
    selector = factory()
    query: ApproxQuery = selector.query
    result = selector.select(dataset, seed=base_seed + trial, context=context)
    quality = evaluate_selection(
        result.indices, dataset.labels, positive_total=dataset.positive_count
    )
    target_metric, quality_metric = quality_of(quality, query.target_type.value)
    return TrialRecord(
        method=method_name or selector.name,
        dataset=dataset.name,
        gamma=query.gamma,
        target_metric=target_metric,
        quality_metric=quality_metric,
        oracle_calls=result.oracle_calls,
        result_size=quality.size,
        seed=base_seed + trial,
    )


#: The warn-once tag every runner fan-out hands to
#: :func:`~repro.core.planning.effective_workers` (which funnels the
#: no-fork degradation through the planner's warn-once helper).
_FANOUT_TAG = "parallel trial fan-out (n_jobs > 1)"


def _prewarm_store_dir(
    slots: Sequence["PanelSlot"],
    dataset: Dataset,
    trials: int,
    base_seed: int,
    store_dir: str,
) -> None:
    """Cross-worker warm-up: spill a panel's distinct draws before forking.

    Builds the panel's :class:`~repro.core.planning.QueryPlan` — one
    planned execution per (slot, trial) — and draws each distinct
    (dataset, design, seed) exactly once into a store backed by
    ``store_dir``.  Forked workers then serve every shared design from
    the spill directory instead of N workers racing to draw the same
    key.  Results are unchanged either way (the store contract);
    only the redundant labeling disappears.
    """
    specs = []
    for trial in range(trials):
        for factory, label in slots:
            try:
                selector = factory()
            except Exception:
                continue  # unbuildable slot: let the worker surface the error
            specs.append(
                (label or getattr(selector, "name", "slot"), dataset, selector,
                 base_seed + trial, "")
            )
    plan_executions(specs).prewarm(SampleStore(store_dir=store_dir))


def _reject_context_with_parallelism(context: ExecutionContext | None, jobs: int, what: str) -> None:
    """A caller-supplied context cannot cross process boundaries: forked
    workers would mutate copy-on-write copies of the store, leaving the
    caller's counters at zero and any intended reuse silently lost.
    Refuse the combination rather than mislead (only when parallelism
    is actually effective — a request that resolves to one worker runs
    sequentially and honors the context)."""
    if context is not None and jobs > 1:
        raise ValueError(
            f"{what}(context=...) requires sequential execution "
            "(effective n_jobs=1); parallel workers own their stores"
        )


def _make_context(store_dir: str | None) -> ExecutionContext:
    """A fresh context, persistent-tier-backed when ``store_dir`` is set."""
    return ExecutionContext(store=SampleStore(store_dir=store_dir))


def _reject_context_with_store_dir(
    context: ExecutionContext | None, store_dir: str | None, what: str
) -> None:
    """A context already owns its store, so a ``store_dir`` beside it is
    ambiguous."""
    if context is not None and store_dir is not None:
        raise ValueError(
            f"{what}(context=..., store_dir=...) is ambiguous; construct the "
            "context with SampleStore(store_dir=...) instead"
        )


def _chunk_trials(trials: int, jobs: int) -> list[list[int]]:
    """Contiguous seed chunks, one per worker (empty chunks dropped)."""
    bounds = [(i * trials) // jobs for i in range(jobs + 1)]
    return [
        list(range(bounds[i], bounds[i + 1]))
        for i in range(jobs)
        if bounds[i] < bounds[i + 1]
    ]


def _fan_out(
    tasks: Sequence[Sequence[int]],
    run: Callable[[Sequence[int]], object],
    jobs: int,
    what: str,
    unit: str = "trial chunk",
) -> list:
    """:func:`~repro.core.planning.fan_out`, warning when a task had to
    be recovered in the parent after its worker died."""
    results, recovered = fan_out(tasks, run, jobs)
    if recovered:
        warnings.warn(
            f"{what} recovered {len(recovered)} {unit}(s) in the parent after "
            "a worker process died; results are unaffected",
            RuntimeWarning,
            stacklevel=3,
        )
    return results


def _run_trials_parallel(
    factory: SelectorFactory,
    dataset: Dataset,
    trials: int,
    base_seed: int,
    method_name: str | None,
    jobs: int,
) -> list[TrialRecord]:
    """Fan seed-chunks across fork workers; record order matches sequential."""
    chunk_records = _fan_out(
        _chunk_trials(trials, jobs),
        lambda chunk: [
            _run_single_trial(factory, dataset, base_seed, method_name, t)
            for t in chunk
        ],
        jobs,
        "run_trials",
    )
    return [record for chunk in chunk_records for record in chunk]


def run_trials(
    factory: SelectorFactory,
    dataset: Dataset,
    trials: int,
    base_seed: int = 0,
    method_name: str | None = None,
    n_jobs: int | None = 1,
    context: ExecutionContext | None = None,
) -> MethodSummary:
    """Run ``trials`` independent selections and summarize them.

    Args:
        factory: builds the selector (encodes query + ablation knobs).
        dataset: the workload.
        trials: number of independent runs.
        base_seed: trial ``t`` uses seed ``base_seed + t``.
        method_name: label for the summary; defaults to the selector's
            registry name.
        n_jobs: worker processes (``-1`` = all cores).  Results are
            bit-identical to the sequential path for any value.
        context: optional shared :class:`ExecutionContext` (requires an
            effectively sequential run — parallel workers own their
            stores, so the combination raises).  Within one
            ``run_trials`` call every trial has a distinct seed, so the
            context only pays off when the *caller* shares it across
            calls that revisit the same (dataset, design, seed) keys —
            e.g. a bound ablation running several methods over one
            sampling design.

    Returns:
        A :class:`MethodSummary` over all trials.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    jobs = effective_workers(n_jobs, trials, _FANOUT_TAG)
    _reject_context_with_parallelism(context, jobs, "run_trials")
    if jobs > 1:
        records = _run_trials_parallel(
            factory, dataset, trials, base_seed, method_name, jobs
        )
    else:
        records = [
            _run_single_trial(factory, dataset, base_seed, method_name, t, context)
            for t in range(trials)
        ]
    return summarize_trials(records)


# -- trial-outer panels ---------------------------------------------------------

#: One labeled slot of a panel: ``(factory, method_name)``.  A sweep's
#: slots are its gamma points (all sharing one label); a method panel's
#: slots are its methods (one label each).
PanelSlot = tuple[SelectorFactory, "str | None"]


def _panel_chunk_records(
    slots: Sequence[PanelSlot],
    dataset: Dataset,
    trials: Sequence[int],
    base_seed: int,
    context: ExecutionContext,
) -> list[list[TrialRecord]]:
    """Trial-outer panel loop: per seed, evaluate every slot.

    Running the trial loop outermost is what makes the sample store
    effective — all slots of one seed execute back-to-back, so the
    seed's labeled sample is drawn on the first slot that needs it and
    served from cache for the rest, regardless of the store's LRU
    capacity (a slot-outer loop revisits seed keys only after ``trials``
    other keys, thrashing any store with ``max_entries < trials``).
    """
    per_slot: list[list[TrialRecord]] = [[] for _ in slots]
    for trial in trials:
        for index, (factory, method_name) in enumerate(slots):
            per_slot[index].append(
                _run_single_trial(factory, dataset, base_seed, method_name, trial, context)
            )
    return per_slot


def _run_panel(
    slots: Sequence[PanelSlot],
    dataset: Dataset,
    trials: int,
    base_seed: int,
    n_jobs: int | None,
    context: ExecutionContext | None,
    store_dir: str | None,
    what: str,
) -> list[list[TrialRecord]]:
    """Shared trial-outer execution behind ``sweep`` and
    ``compare_methods``: fan contiguous seed chunks across workers, or
    run sequentially under one shared context."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    jobs = effective_workers(n_jobs, trials, _FANOUT_TAG)
    _reject_context_with_parallelism(context, jobs, what)
    _reject_context_with_store_dir(context, store_dir, what)
    if jobs > 1:
        if store_dir is not None:
            _prewarm_store_dir(slots, dataset, trials, base_seed, store_dir)
        # Compute the dataset's statistics once, before the workers
        # fork, so every chunk inherits them instead of rebuilding them.
        dataset.warm_statistics()
        chunk_results = _fan_out(
            _chunk_trials(trials, jobs),
            lambda chunk: _panel_chunk_records(
                slots, dataset, chunk, base_seed, _make_context(store_dir)
            ),
            jobs,
            what,
        )
        return [
            [record for chunk in chunk_results for record in chunk[slot]]
            for slot in range(len(slots))
        ]
    if context is None:
        context = _make_context(store_dir)
    return _panel_chunk_records(slots, dataset, range(trials), base_seed, context)


def compare_methods(
    factories: Mapping[str, SelectorFactory],
    dataset: Dataset,
    trials: int,
    base_seed: int = 0,
    n_jobs: int | None = 1,
    context: ExecutionContext | None = None,
    store_dir: str | None = None,
) -> dict[str, MethodSummary]:
    """Run a panel of methods on one workload, trial-outer.

    Every method sees the same sequence of seeds, so differences are
    attributable to the algorithms rather than sampling luck.  The
    trial loop runs *outermost* (all methods of seed ``t`` before seed
    ``t + 1``) under one shared sample store, so methods sharing a
    sampling design — e.g. one uniform design scanned under several
    confidence-bound methods in the fig13 ablation — label their common
    sample once per seed.  Records are bit-identical to independent
    per-method :func:`run_trials` loops for any ``n_jobs``.

    Args:
        factories: label → selector factory, in panel order.
        dataset: the workload.
        trials: independent runs per method.
        base_seed: trial ``t`` uses seed ``base_seed + t`` for every
            method (matched seeds across the panel).
        n_jobs: fan trial chunks across workers (each worker keeps its
            own sample store, so within-chunk reuse is preserved).
        context: optional externally owned context (sequential path
            only), e.g. to inspect reuse counters afterwards.
        store_dir: spill directory for the persistent sample-store tier
            (workers and later runs reuse the labels).
    """
    slots: list[PanelSlot] = [(factory, label) for label, factory in factories.items()]
    per_method = _run_panel(
        slots, dataset, trials, base_seed, n_jobs, context, store_dir,
        what="compare_methods",
    )
    return {
        label: summarize_trials(records)
        for (_, label), records in zip(slots, per_method)
    }


# -- gamma sweeps ---------------------------------------------------------------


def sweep(
    factory_for_gamma: Callable[[float], SelectorFactory],
    gammas: Sequence[float],
    dataset: Dataset,
    trials: int,
    base_seed: int = 0,
    method_name: str | None = None,
    n_jobs: int | None = 1,
    context: ExecutionContext | None = None,
    store_dir: str | None = None,
) -> list[MethodSummary]:
    """Run one method across a target sweep (the Figure 7/8 x-axes).

    The trial loop runs outermost with a shared sample store, so
    sample-reusable selectors draw exactly one labeled sample per
    (dataset, seed, budget) and replay it across all of ``gammas`` —
    bit-identical to per-gamma fresh draws, at a fraction of the
    sampling and labeling cost.

    Args:
        factory_for_gamma: maps a gamma to a selector factory.
        gammas: target values to sweep.
        dataset: the workload.
        trials: independent runs per gamma.
        base_seed: trial ``t`` uses seed ``base_seed + t`` at every
            gamma (matched seeds across the sweep axis).
        method_name: summary label override.
        n_jobs: fan trial chunks across workers (each worker keeps its
            own sample store, so reuse is preserved per chunk).
        context: optional externally owned context (sequential path
            only), e.g. to share one store across several sweeps or to
            inspect reuse counters afterwards.
        store_dir: spill directory for the persistent sample-store tier.

    Returns:
        One :class:`MethodSummary` per gamma, in ``gammas`` order.
    """
    gamma_values = tuple(gammas)
    if not gamma_values:
        if trials <= 0:
            raise ValueError(f"trials must be positive, got {trials}")
        return []
    slots: list[PanelSlot] = [
        (factory_for_gamma(gamma), method_name) for gamma in gamma_values
    ]
    per_gamma = _run_panel(
        slots, dataset, trials, base_seed, n_jobs, context, store_dir,
        what="sweep",
    )
    return [summarize_trials(records) for records in per_gamma]


# -- sweep-cell fan-out ---------------------------------------------------------


def _run_cell_spec(
    cell: Mapping[str, object], context: ExecutionContext | None = None
):
    """Execute one cell spec sequentially: a ``factories`` mapping runs
    as a :func:`compare_methods` panel, otherwise the spec is a
    :func:`sweep` call."""
    if "factories" in cell:
        return compare_methods(**cell, n_jobs=1, context=context)
    return sweep(**cell, n_jobs=1, context=context)


def _cell_slots(cell: Mapping[str, object]) -> list[PanelSlot]:
    """The labeled slots a cell spec will run (mirrors _run_cell_spec)."""
    if "factories" in cell:
        return [(factory, label) for label, factory in cell["factories"].items()]
    method_name = cell.get("method_name")
    return [
        (cell["factory_for_gamma"](gamma), method_name)
        for gamma in cell.get("gammas", ())
    ]


def _prewarm_cells(cell_list: Sequence[Mapping[str, object]]) -> None:
    """Pre-spill every parallel cell's distinct draws before forking.

    Cells sharing a ``store_dir`` have their plans drawn into one
    store each, so a grid whose cells revisit the same (dataset,
    design, seed) keys labels each exactly once in the parent —
    workers then disk-hit instead of racing.
    """
    for cell in cell_list:
        store_dir = cell.get("store_dir")
        if store_dir is None:
            continue
        try:
            slots = _cell_slots(cell)
        except Exception:
            continue  # malformed spec: let the worker surface the error
        _prewarm_store_dir(
            slots,
            cell["dataset"],
            int(cell.get("trials", 0)),
            int(cell.get("base_seed", 0)),
            store_dir,
        )


def run_sweep_cells(
    cells: Sequence[Mapping[str, object]],
    n_jobs: int | None = 1,
    context: ExecutionContext | None = None,
    store_dir: str | None = None,
) -> list:
    """Fan whole (method-panel, dataset) cells across workers.

    Each cell is a mapping of keyword arguments (without ``n_jobs``)
    for either :func:`sweep` (cells with ``factory_for_gamma``) or
    :func:`compare_methods` (cells with ``factories``); the cell runs
    sequentially on one worker so its sample store stays local and hot.
    This is the figure drivers' fan-out shape: their cell count
    (methods × datasets) comfortably exceeds typical core counts, and
    whole-cell placement avoids splitting a cell's reusable samples
    across processes.

    Args:
        cells: cell specs, executed in order.
        n_jobs: worker processes for whole-cell fan-out.
        context: optional externally owned context threaded through
            *every* cell (sequential path only) — one store serves the
            whole grid, which is how the figure drivers expose their
            per-driver oracle-draw accounting.
        store_dir: persistent sample-store tier for cells that do not
            already set one; with parallel cells, the disk tier is what
            lets workers share labels across process boundaries.

    Returns:
        Per-cell results, in ``cells`` order (bit-identical to running
        every cell sequentially): a list of per-gamma summaries for
        sweep cells, a label → summary mapping for panel cells.
    """
    cell_list = list(cells)
    if not cell_list:
        return []
    _reject_context_with_store_dir(context, store_dir, "run_sweep_cells")
    if store_dir is not None:
        cell_list = [
            cell if "store_dir" in cell else {**cell, "store_dir": store_dir}
            for cell in cell_list
        ]
    jobs = effective_workers(n_jobs, len(cell_list), _FANOUT_TAG)
    _reject_context_with_parallelism(context, jobs, "run_sweep_cells")
    if jobs > 1:
        _prewarm_cells(cell_list)
        # One task per cell, named by its index so the chaos seam can
        # target a cell; a cell whose worker dies re-runs in the parent.
        return _fan_out(
            [[index] for index in range(len(cell_list))],
            lambda task: _run_cell_spec(cell_list[task[0]]),
            jobs,
            "run_sweep_cells",
            "sweep cell",
        )
    return [_run_cell_spec(cell, context=context) for cell in cell_list]
