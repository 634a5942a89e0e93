"""Figure drivers: one function per figure in the paper's evaluation.

Every driver regenerates the data series behind a figure and returns an
:class:`ExperimentResult` whose ``render()`` prints the same rows or
series the paper plots.  Parameters default to laptop-fast scales
(smaller datasets and trial counts than the paper); pass
``paper_scale=True`` for the full configuration.  Shapes — who wins, by
what rough factor, where the curves bend — are the reproduction target,
not absolute values, since our substrate simulates the authors' models
(see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..bounds import BootstrapBound, ClopperPearsonBound, HoeffdingBound, NormalBound
from ..core.baselines import UniformNoCIPrecision, UniformNoCIRecall
from ..core.importance import (
    ImportanceCIPrecisionOneStage,
    ImportanceCIPrecisionTwoStage,
    ImportanceCIRecall,
)
from ..core.joint import JointQuery, JointSelector
from ..core.types import ApproxQuery
from ..core.uniform import UniformCIPrecision, UniformCIRecall
from ..datasets import (
    EVALUATION_DATASETS,
    Dataset,
    add_proxy_noise,
    load_dataset,
    make_beta_dataset,
)
from ..metrics import evaluate_selection
from .results import MethodSummary, render_table
from .runner import compare_methods, run_sweep_cells

__all__ = [
    "ExperimentResult",
    "figure1",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure13_panel",
    "figure15",
]

#: Reduced dataset sizes for fast runs; paper scale uses the full specs.
FAST_SIZES: dict[str, int] = {
    "imagenet": 20_000,
    "night-street": 20_000,
    "ontonotes": 20_000,
    "tacred": 20_000,
    "beta(0.01,1)": 100_000,
    "beta(0.01,2)": 100_000,
}

#: Oracle budgets per dataset; the paper uses 1,000 for ImageNet and
#: 10,000 for night-street and the synthetics.
FAST_BUDGETS: dict[str, int] = {
    "imagenet": 500,
    "night-street": 1_000,
    "ontonotes": 1_000,
    "tacred": 1_000,
    "beta(0.01,1)": 2_000,
    "beta(0.01,2)": 2_000,
}

PAPER_BUDGETS: dict[str, int] = {
    "imagenet": 1_000,
    "night-street": 10_000,
    "ontonotes": 1_000,
    "tacred": 1_000,
    "beta(0.01,1)": 10_000,
    "beta(0.01,2)": 10_000,
}


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one figure/table driver.

    Attributes:
        experiment_id: e.g. ``"fig5"``.
        description: what the paper's artifact shows.
        headers: column names of the regenerated series.
        rows: data rows matching ``headers``.
        summaries: the raw per-cell summaries for programmatic checks.
    """

    experiment_id: str
    description: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    summaries: Mapping[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Text rendition of the figure's data series."""
        return render_table(self.headers, self.rows, title=f"[{self.experiment_id}] {self.description}")


def _dataset(name: str, paper_scale: bool, seed: int) -> Dataset:
    size = None if paper_scale else FAST_SIZES[name]
    return load_dataset(name, size=size, seed=seed)


def _budget(name: str, paper_scale: bool) -> int:
    return (PAPER_BUDGETS if paper_scale else FAST_BUDGETS)[name]


def _box_row(label: str, summary: MethodSummary) -> tuple[object, ...]:
    lo, q25, med, q75, hi = summary.target_quantiles
    return (label, lo, q25, med, q75, hi, summary.failure_rate)


_BOX_HEADERS = ("method", "min", "p25", "median", "p75", "max", "failure_rate")


def figure1(
    trials: int = 50,
    delta: float = 0.05,
    gamma: float = 0.9,
    seed: int = 0,
    paper_scale: bool = False,
    n_jobs: int | None = 1,
) -> ExperimentResult:
    """Figure 1: naive vs SUPG achieved precision on ImageNet (PT 90%).

    The paper's motivating box plot: over repeated runs, naive uniform
    threshold selection lands below the 90% precision target more than
    half the time (as low as 65% and worse), while SUPG respects it.
    """
    dataset = _dataset("imagenet", paper_scale, seed)
    budget = _budget("imagenet", paper_scale)
    query = ApproxQuery.precision_target(gamma, delta, budget)
    panel = compare_methods(
        {
            "naive (U-NoCI)": lambda: UniformNoCIPrecision(query),
            "SUPG (IS-CI-P)": lambda: ImportanceCIPrecisionTwoStage(query),
        },
        dataset,
        trials=trials,
        base_seed=seed + 1,
        n_jobs=n_jobs,
    )
    rows = tuple(_box_row(label, summary) for label, summary in panel.items())
    return ExperimentResult(
        experiment_id="fig1",
        description=f"achieved precision over {trials} runs, target {gamma:.0%} (ImageNet)",
        headers=_BOX_HEADERS,
        rows=rows,
        summaries=panel,
    )


def _failure_panel(
    target_type: str,
    trials: int,
    delta: float,
    gamma: float,
    seed: int,
    paper_scale: bool,
    datasets: Sequence[str],
    n_jobs: int | None = 1,
) -> tuple[tuple[tuple[object, ...], ...], dict[str, Mapping[str, MethodSummary]]]:
    rows: list[tuple[object, ...]] = []
    all_panels: dict[str, Mapping[str, MethodSummary]] = {}
    for name in datasets:
        dataset = _dataset(name, paper_scale, seed)
        budget = _budget(name, paper_scale)
        if target_type == "precision":
            query = ApproxQuery.precision_target(gamma, delta, budget)
            factories = {
                "U-NoCI": lambda q=query: UniformNoCIPrecision(q),
                "SUPG": lambda q=query: ImportanceCIPrecisionTwoStage(q),
            }
        else:
            query = ApproxQuery.recall_target(gamma, delta, budget)
            factories = {
                "U-NoCI": lambda q=query: UniformNoCIRecall(q),
                "SUPG": lambda q=query: ImportanceCIRecall(q),
            }
        panel = compare_methods(
            factories, dataset, trials=trials, base_seed=seed + 1, n_jobs=n_jobs
        )
        all_panels[name] = panel
        for label, summary in panel.items():
            rows.append((name, *_box_row(label, summary)))
    return tuple(rows), all_panels


def figure5(
    trials: int = 30,
    delta: float = 0.05,
    gamma: float = 0.9,
    seed: int = 0,
    paper_scale: bool = False,
    datasets: Sequence[str] = EVALUATION_DATASETS,
    n_jobs: int | None = 1,
) -> ExperimentResult:
    """Figure 5: precision of U-NoCI vs SUPG at a 90% precision target.

    U-NoCI fails up to ~75% of the time across the six workloads;
    SUPG's failure rate stays within delta.
    """
    rows, panels = _failure_panel(
        "precision", trials, delta, gamma, seed, paper_scale, datasets, n_jobs=n_jobs
    )
    return ExperimentResult(
        experiment_id="fig5",
        description=f"precision over {trials} trials, target {gamma:.0%}, all datasets",
        headers=("dataset", *_BOX_HEADERS),
        rows=rows,
        summaries=panels,
    )


def figure6(
    trials: int = 30,
    delta: float = 0.05,
    gamma: float = 0.9,
    seed: int = 0,
    paper_scale: bool = False,
    datasets: Sequence[str] = EVALUATION_DATASETS,
    n_jobs: int | None = 1,
) -> ExperimentResult:
    """Figure 6: recall of U-NoCI vs SUPG at a 90% recall target."""
    rows, panels = _failure_panel(
        "recall", trials, delta, gamma, seed, paper_scale, datasets, n_jobs=n_jobs
    )
    return ExperimentResult(
        experiment_id="fig6",
        description=f"recall over {trials} trials, target {gamma:.0%}, all datasets",
        headers=("dataset", *_BOX_HEADERS),
        rows=rows,
        summaries=panels,
    )


def _sweep_panel(
    methods: Sequence[tuple[str, object]],
    base_query_for: object,
    targets: Sequence[float],
    trials: int,
    seed: int,
    paper_scale: bool,
    datasets: Sequence[str],
    n_jobs: int | None,
    context=None,
    store_dir: str | None = None,
) -> dict[str, MethodSummary]:
    """Run a (dataset × method) grid of gamma-sweep cells.

    Every (dataset, method) pair becomes one sweep cell — trials run
    outermost inside it, so the cell's labeled samples are drawn once
    per seed and shared across the whole gamma axis — and whole cells
    are fanned across ``n_jobs`` workers.  Results are bit-identical to
    the per-gamma sequential loop this replaces; only the work
    placement (and the redundant re-sampling) changed.
    """
    cells: list[dict[str, object]] = []
    keys: list[tuple[str, str]] = []
    for name in datasets:
        dataset = _dataset(name, paper_scale, seed)
        budget = _budget(name, paper_scale)
        base_query = base_query_for(budget)
        for label, build in methods:
            def factory_for_gamma(gamma, build=build, base_query=base_query):
                query = base_query.with_gamma(gamma)
                return lambda: build(query)

            cells.append(
                dict(
                    factory_for_gamma=factory_for_gamma,
                    gammas=tuple(targets),
                    dataset=dataset,
                    trials=trials,
                    base_seed=seed + 1,
                    method_name=label,
                )
            )
            keys.append((name, label))
    results = run_sweep_cells(cells, n_jobs=n_jobs, context=context, store_dir=store_dir)
    summaries: dict[str, MethodSummary] = {}
    for (name, label), per_gamma in zip(keys, results):
        for gamma, summary in zip(targets, per_gamma):
            summaries[f"{name}|{gamma}|{label}"] = summary
    return summaries


def _sweep_rows(
    summaries: Mapping[str, MethodSummary],
    datasets: Sequence[str],
    targets: Sequence[float],
    method_labels: Sequence[str],
) -> tuple[tuple[object, ...], ...]:
    """Flatten sweep-cell summaries into the legacy dataset → gamma →
    method row order."""
    rows: list[tuple[object, ...]] = []
    for name in datasets:
        for gamma in targets:
            for label in method_labels:
                summary = summaries[f"{name}|{gamma}|{label}"]
                rows.append((name, gamma, label, summary.mean_quality, summary.failure_rate))
    return tuple(rows)


def figure7(
    trials: int = 10,
    delta: float = 0.05,
    targets: Sequence[float] = (0.75, 0.8, 0.9, 0.95, 0.99),
    seed: int = 0,
    paper_scale: bool = False,
    datasets: Sequence[str] = EVALUATION_DATASETS,
    n_jobs: int | None = 1,
    context=None,
    store_dir: str | None = None,
) -> ExperimentResult:
    """Figure 7: precision-target sweep -> achieved recall.

    Compares U-CI, one-stage importance sampling, and the two-stage
    SUPG algorithm; importance sampling dominates U-CI and two-stage
    matches or beats one-stage.
    """
    methods = (
        ("U-CI", UniformCIPrecision),
        ("IS one-stage", ImportanceCIPrecisionOneStage),
        ("SUPG (two-stage)", ImportanceCIPrecisionTwoStage),
    )
    summaries = _sweep_panel(
        methods,
        lambda budget: ApproxQuery.precision_target(targets[0], delta, budget),
        targets,
        trials,
        seed,
        paper_scale,
        datasets,
        n_jobs,
        context=context,
        store_dir=store_dir,
    )
    return ExperimentResult(
        experiment_id="fig7",
        description="precision target vs achieved recall (mean over trials)",
        headers=("dataset", "precision_target", "method", "mean_recall", "failure_rate"),
        rows=_sweep_rows(summaries, datasets, targets, [label for label, _ in methods]),
        summaries=summaries,
    )


def figure8(
    trials: int = 10,
    delta: float = 0.05,
    targets: Sequence[float] = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95),
    seed: int = 0,
    paper_scale: bool = False,
    datasets: Sequence[str] = EVALUATION_DATASETS,
    n_jobs: int | None = 1,
    context=None,
    store_dir: str | None = None,
) -> ExperimentResult:
    """Figure 8: recall-target sweep -> precision of the returned set.

    Compares U-CI, proportional-weight importance sampling, and SUPG's
    square-root weights; sqrt weights dominate.
    """
    methods = (
        ("U-CI", UniformCIRecall),
        ("Importance, prop", lambda q: ImportanceCIRecall(q, weight_exponent=1.0)),
        ("SUPG (sqrt)", ImportanceCIRecall),
    )
    summaries = _sweep_panel(
        methods,
        lambda budget: ApproxQuery.recall_target(targets[0], delta, budget),
        targets,
        trials,
        seed,
        paper_scale,
        datasets,
        n_jobs,
        context=context,
        store_dir=store_dir,
    )
    return ExperimentResult(
        experiment_id="fig8",
        description="recall target vs achieved precision (mean over trials)",
        headers=("dataset", "recall_target", "method", "mean_precision", "failure_rate"),
        rows=_sweep_rows(summaries, datasets, targets, [label for label, _ in methods]),
        summaries=summaries,
    )


def figure9(
    trials: int = 10,
    delta: float = 0.05,
    noise_levels: Sequence[float] = (0.01, 0.02, 0.03, 0.04),
    seed: int = 0,
    size: int = 200_000,
    n_jobs: int | None = 1,
    context=None,
    store_dir: str | None = None,
) -> ExperimentResult:
    """Figure 9: sensitivity to proxy noise on Beta(0.01, 2).

    Gaussian noise at 25/50/75/100% of the score standard deviation is
    added to the proxy after labels are drawn; SUPG outperforms uniform
    sampling at every noise level, degrading gracefully.

    Each noise level contributes one precision-target and one
    recall-target method-panel cell, fanned through
    :func:`run_sweep_cells`; panels run trial-outer under a shared
    sample store, so e.g. the uniform draw the two U-CI methods share
    is labeled once per (noisy dataset, seed).  Results are
    bit-identical to independent per-method trial loops.
    """
    base = make_beta_dataset(0.01, 2.0, size=size, seed=seed)
    budget = FAST_BUDGETS["beta(0.01,2)"]
    pt_query = ApproxQuery.precision_target(0.95, delta, budget)
    rt_query = ApproxQuery.recall_target(0.9, delta, budget)
    cells: list[dict[str, object]] = []
    keys: list[tuple[str, float]] = []
    for level in noise_levels:
        noisy = add_proxy_noise(base, level, seed=seed + 1)
        for setting, factories in (
            ("pt", {
                "U-CI": lambda: UniformCIPrecision(pt_query),
                "SUPG": lambda: ImportanceCIPrecisionTwoStage(pt_query),
            }),
            ("rt", {
                "U-CI": lambda: UniformCIRecall(rt_query),
                "SUPG": lambda: ImportanceCIRecall(rt_query),
            }),
        ):
            cells.append(
                dict(factories=factories, dataset=noisy, trials=trials, base_seed=seed + 2)
            )
            keys.append((setting, level))
    panels = run_sweep_cells(cells, n_jobs=n_jobs, context=context, store_dir=store_dir)
    rows: list[tuple[object, ...]] = []
    summaries: dict[str, MethodSummary] = {}
    setting_names = {"pt": "precision-target", "rt": "recall-target"}
    for (setting, level), panel in zip(keys, panels):
        for label, summary in panel.items():
            summaries[f"{setting}|{level}|{label}"] = summary
            rows.append((setting_names[setting], level, label, summary.mean_quality))
    return ExperimentResult(
        experiment_id="fig9",
        description="proxy noise level vs result quality, Beta(0.01, 2)",
        headers=("setting", "noise_std", "method", "mean_quality"),
        rows=tuple(rows),
        summaries=summaries,
    )


def figure10(
    trials: int = 10,
    delta: float = 0.05,
    betas: Sequence[float] = (0.125, 0.25, 0.5, 1.0, 2.0),
    seed: int = 0,
    size: int = 200_000,
    n_jobs: int | None = 1,
    context=None,
    store_dir: str | None = None,
) -> ExperimentResult:
    """Figure 10: sensitivity to class imbalance (varying Beta's beta).

    Higher beta means rarer positives; SUPG's advantage over uniform
    sampling grows with imbalance (up to ~47x in the paper).

    Like :func:`figure9`, every beta contributes one precision-target
    and one recall-target method-panel cell fanned through
    :func:`run_sweep_cells` (trial-outer, shared sample store per
    cell), bit-identical to the per-method loops it replaces.
    """
    budget = FAST_BUDGETS["beta(0.01,2)"]
    pt_query = ApproxQuery.precision_target(0.95, delta, budget)
    rt_query = ApproxQuery.recall_target(0.9, delta, budget)
    cells: list[dict[str, object]] = []
    keys: list[tuple[str, float, float]] = []
    for beta in betas:
        dataset = make_beta_dataset(0.01, beta, size=size, seed=seed)
        tpr = dataset.positive_rate
        for setting, factories in (
            ("pt", {
                "U-CI": lambda: UniformCIPrecision(pt_query),
                "SUPG": lambda: ImportanceCIPrecisionTwoStage(pt_query),
            }),
            ("rt", {
                "U-CI": lambda: UniformCIRecall(rt_query),
                "SUPG": lambda: ImportanceCIRecall(rt_query),
            }),
        ):
            cells.append(
                dict(factories=factories, dataset=dataset, trials=trials, base_seed=seed + 1)
            )
            keys.append((setting, beta, tpr))
    panels = run_sweep_cells(cells, n_jobs=n_jobs, context=context, store_dir=store_dir)
    rows: list[tuple[object, ...]] = []
    summaries: dict[str, MethodSummary] = {}
    setting_names = {"pt": "precision-target", "rt": "recall-target"}
    for (setting, beta, tpr), panel in zip(keys, panels):
        for label, summary in panel.items():
            summaries[f"{setting}|{beta}|{label}"] = summary
            rows.append((setting_names[setting], beta, tpr, label, summary.mean_quality))
    return ExperimentResult(
        experiment_id="fig10",
        description="class imbalance (beta parameter) vs result quality",
        headers=("setting", "beta", "true_positive_rate", "method", "mean_quality"),
        rows=tuple(rows),
        summaries=summaries,
    )


def figure11(
    trials: int = 10,
    delta: float = 0.05,
    steps: Sequence[int] = (100, 200, 300, 400, 500),
    mixing_ratios: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
    seed: int = 0,
    size: int = 200_000,
    n_jobs: int | None = 1,
    context=None,
    store_dir: str | None = None,
) -> ExperimentResult:
    """Figure 11: sensitivity to algorithm parameters on Beta(0.01, 2).

    Sweeps the candidate step ``m`` (precision target) and the
    defensive mixing ratio (recall target); performance is flat across
    the range, showing the parameters are easy to set.

    The step sweep is one trial-outer method panel: ``m`` only affects
    the candidate grid, so every step value shares the two-stage
    algorithm's stage-1 draw — one labeled stage-1 sample per seed
    serves the whole axis.  Each mixing ratio changes the sampling
    design, so the mixing panel reuses nothing (but keeps the same
    cell shape and fan-out).
    """
    dataset = make_beta_dataset(0.01, 2.0, size=size, seed=seed)
    budget = FAST_BUDGETS["beta(0.01,2)"]
    pt_query = ApproxQuery.precision_target(0.95, delta, budget)
    rt_query = ApproxQuery.recall_target(0.9, delta, budget)
    step_factories = {
        f"SUPG m={m}": (lambda m=m: ImportanceCIPrecisionTwoStage(pt_query, step=m))
        for m in steps
    }
    mixing_factories = {
        f"SUPG mix={mix}": (lambda mix=mix: ImportanceCIRecall(rt_query, mixing=mix))
        for mix in mixing_ratios
    }
    step_panel, mixing_panel = (
        compare_methods(
            factories, dataset, trials=trials, base_seed=seed + 1,
            n_jobs=n_jobs, context=context, store_dir=store_dir,
        )
        for factories in (step_factories, mixing_factories)
    )
    rows: list[tuple[object, ...]] = []
    summaries: dict[str, MethodSummary] = {}
    for m in steps:
        summary = step_panel[f"SUPG m={m}"]
        summaries[f"step|{m}"] = summary
        rows.append(("precision-target", f"m={m}", summary.mean_quality))
    for mix in mixing_ratios:
        summary = mixing_panel[f"SUPG mix={mix}"]
        summaries[f"mixing|{mix}"] = summary
        rows.append(("recall-target", f"mixing={mix}", summary.mean_quality))
    return ExperimentResult(
        experiment_id="fig11",
        description="parameter sensitivity: candidate step m and defensive mixing",
        headers=("setting", "parameter", "mean_quality"),
        rows=tuple(rows),
        summaries=summaries,
    )


def figure12(
    trials: int = 10,
    delta: float = 0.05,
    exponents: Sequence[float] = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
    seed: int = 0,
    size: int = 200_000,
    n_jobs: int | None = 1,
    context=None,
    store_dir: str | None = None,
) -> ExperimentResult:
    """Figure 12: importance-weight exponent sweep (recall target).

    Exponent 0 is uniform sampling and 1 proportional sampling; the
    curve peaks near the paper's square-root weights (0.5).

    One trial-outer method panel over the exponent axis.  Every
    exponent is a distinct sampling design (the weight exponent keys
    the sample store), so no draws are shared — the cell shape buys
    whole-panel fan-out and, with ``store_dir``, cross-run label reuse.
    """
    dataset = make_beta_dataset(0.01, 2.0, size=size, seed=seed)
    budget = FAST_BUDGETS["beta(0.01,2)"]
    query = ApproxQuery.recall_target(0.9, delta, budget)
    factories = {
        f"exponent={e}": (lambda e=e: ImportanceCIRecall(query, weight_exponent=e))
        for e in exponents
    }
    panel = compare_methods(
        factories, dataset, trials=trials, base_seed=seed + 1,
        n_jobs=n_jobs, context=context, store_dir=store_dir,
    )
    rows: list[tuple[object, ...]] = []
    summaries: dict[str, MethodSummary] = {}
    for exponent in exponents:
        summary = panel[f"exponent={exponent}"]
        summaries[str(exponent)] = summary
        rows.append((exponent, summary.mean_quality, summary.failure_rate))
    return ExperimentResult(
        experiment_id="fig12",
        description="importance-weight exponent vs precision (recall target 90%)",
        headers=("exponent", "mean_precision", "failure_rate"),
        rows=tuple(rows),
        summaries=summaries,
    )


def figure13_panel(query: ApproxQuery) -> dict[str, object]:
    """The Figure 13 bound-ablation method panel: label → factory.

    Seven methods over two sampling designs — U-CI-R under the normal,
    Clopper-Pearson, bootstrap, and Hoeffding bounds, and IS-CI-R
    under all but Clopper-Pearson (which applies only to uniform
    samples).  This is the panel :func:`figure13` runs.
    """
    uniform_bounds = {
        "normal": NormalBound(),
        "clopper-pearson": ClopperPearsonBound(),
        "bootstrap": BootstrapBound(n_resamples=200),
        "hoeffding": HoeffdingBound(),
    }
    supg_bounds = {
        "normal": NormalBound(),
        "bootstrap": BootstrapBound(n_resamples=200),
        "hoeffding": HoeffdingBound(value_range=None),
    }
    factories: dict[str, object] = {}
    for label, bound in uniform_bounds.items():
        factories[f"U-CI-R/{label}"] = lambda b=bound: UniformCIRecall(query, bound=b)
    for label, bound in supg_bounds.items():
        factories[f"IS-CI-R/{label}"] = lambda b=bound: ImportanceCIRecall(query, bound=b)
    return factories


def figure13(
    trials: int = 10,
    delta: float = 0.05,
    gamma: float = 0.9,
    seed: int = 0,
    size: int = 200_000,
    budget: int = 6_000,
    n_jobs: int | None = 1,
    context=None,
    store_dir: str | None = None,
) -> ExperimentResult:
    """Figure 13: confidence-interval method comparison on Beta(0.01, 1).

    Uniform (U-CI-R) compares normal approximation, Clopper-Pearson,
    bootstrap, and Hoeffding; SUPG (IS-CI-R) compares all but
    Clopper-Pearson, which applies only to uniform samples.  The normal
    approximation matches or beats alternatives; Hoeffding is vacuous.

    All seven bound variants form *one* trial-outer method panel over
    two sampling designs: the four U-CI-R variants share the uniform
    draw and the three IS-CI-R variants share the proxy-weighted draw,
    so each seed labels exactly two oracle samples instead of seven —
    the largest single reuse win among the figure drivers.  Results
    are bit-identical to independent per-bound trial loops.

    The budget defaults higher than the other fast-scale experiments:
    with ~1% positives, the uniform sampler needs roughly 60 positive
    draws before any of the variance-aware interval methods can certify
    a non-trivial threshold, so smaller budgets make every method look
    identically vacuous and the comparison meaningless.
    """
    dataset = make_beta_dataset(0.01, 1.0, size=size, seed=seed)
    query = ApproxQuery.recall_target(gamma, delta, budget)
    factories = figure13_panel(query)
    keys = [
        (("uniform" if label.startswith("U-") else "supg"), label.split("/", 1)[1], label)
        for label in factories
    ]
    panel = compare_methods(
        factories, dataset, trials=trials, base_seed=seed + 1,
        n_jobs=n_jobs, context=context, store_dir=store_dir,
    )
    rows: list[tuple[object, ...]] = []
    summaries: dict[str, MethodSummary] = {}
    for sampler, label, panel_key in keys:
        summary = panel[panel_key]
        summaries[f"{sampler}|{label}"] = summary
        rows.append((sampler, label, summary.mean_quality, summary.failure_rate))
    return ExperimentResult(
        experiment_id="fig13",
        description="confidence-interval methods vs precision (recall target 90%)",
        headers=("sampler", "ci_method", "mean_precision", "failure_rate"),
        rows=tuple(rows),
        summaries=summaries,
    )


def figure15(
    trials: int = 5,
    delta: float = 0.05,
    targets: Sequence[float] = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9),
    seed: int = 0,
    paper_scale: bool = False,
    datasets: Sequence[str] = ("imagenet", "night-street", "beta(0.01,1)", "beta(0.01,2)"),
) -> ExperimentResult:
    """Figure 15 (appendix): joint-target queries, oracle usage.

    Runs the three-stage JT algorithm with uniform vs importance RT
    subroutines at matched stage budgets; the SUPG subroutine returns
    tighter candidate sets and therefore fewer total oracle calls.
    """
    rows: list[tuple[object, ...]] = []
    summaries: dict[str, float] = {}
    for name in datasets:
        dataset = _dataset(name, paper_scale, seed)
        stage_budget = _budget(name, paper_scale)
        for gamma in targets:
            joint_query = JointQuery(
                recall_gamma=gamma,
                precision_gamma=gamma,
                delta=delta,
                stage_budget=stage_budget,
            )
            for method, label in (("uniform", "U-CI"), ("is", "SUPG")):
                selector = JointSelector(joint_query, method=method)
                calls = []
                for t in range(trials):
                    result = selector.select(dataset, seed=seed + 1 + t)
                    calls.append(result.oracle_calls)
                    quality = evaluate_selection(result.indices, dataset.labels)
                    del quality  # JT validity is asserted in the tests
                mean_calls = float(np.mean(calls))
                summaries[f"{name}|{gamma}|{label}"] = mean_calls
                rows.append((name, gamma, label, mean_calls))
    return ExperimentResult(
        experiment_id="fig15",
        description="joint recall+precision targets vs oracle queries used",
        headers=("dataset", "target", "method", "mean_oracle_queries"),
        rows=tuple(rows),
        summaries=summaries,
    )
