"""repro: a reproduction of "Approximate Selection with Guarantees using
Proxies" (SUPG; Kang, Gan, Bailis, Hashimoto, Zaharia — VLDB 2020).

SUPG answers approximate selection queries — "find all records matching
an expensive predicate" — using a limited budget of expensive *oracle*
labels plus cheap *proxy* confidence scores, while guaranteeing a
minimum recall or precision with bounded failure probability.

Quickstart::

    import repro

    dataset = repro.datasets.make_imagenet(seed=0)
    query = repro.ApproxQuery.recall_target(gamma=0.9, delta=0.05, budget=1000)
    result = repro.default_selector(query).select(dataset, seed=1)
    quality = repro.evaluate_selection(result.indices, dataset.labels)
    print(quality.recall, quality.precision)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.

Performance
-----------

The experiment pipeline's cost is ``trials × methods × gammas``
selector runs, and three layers keep it fast:

- **Vectorized candidate scans.**  ``precision_candidate_scan`` (used
  by U-CI-P and both IS-CI-P variants) evaluates all candidate
  thresholds with suffix cumulative statistics and one *suffix-batch*
  bound call (``ConfidenceBound.lower_batch``/``upper_batch``) instead
  of a per-candidate Python loop — ≥5× faster at paper-scale budgets.
  The loop implementation survives as
  ``precision_candidate_scan_reference`` and equivalence tests pin the
  two to the same threshold and accept set for every bound class (the
  underlying float bounds agree exactly for Clopper-Pearson and the
  bootstrap, and to rounding for the cumulative-sum-based normal and
  Hoeffding paths).
- **Cached dataset statistics.**  ``Dataset`` memoizes its sorted proxy
  scores (``Dataset.sorted_scores`` / ``Dataset.descending_scores``,
  ``Dataset.score_order``) and its defensive importance weights keyed
  by ``(exponent, mixing)`` (``Dataset.sampling_weights``), so repeated
  trials stop re-sorting and re-weighting the full dataset.  Caches are
  per-instance: ``subset``/``with_scores`` return fresh instances and
  never observe stale statistics; cached arrays are read-only because
  they are shared across trials.
- **Parallel trials.**  ``run_trials``, ``compare_methods``, ``sweep``
  (and the figure/table drivers plus ``repro experiment --jobs N``)
  accept ``n_jobs``: independent seeded trials fan out across forked
  worker processes with deterministic seed assignment, so results are
  bit-for-bit identical to the sequential path.  On platforms without
  the ``fork`` start method the runner falls back to sequential
  execution.

``perfbench/run.py`` is the repository benchmark: four workloads run
end to end against one engine's sequential ``execute()`` loop, with
every result checked against ground truth.  ``scripts/perf_ab.py BASE
HEAD`` runs it on two checkouts in alternating pairs and fails when the
head is worse than the base by more than a metric's bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

from . import bounds, calibrate, core, datasets, experiments, oracle, proxy, query, sampling
from .core import (
    ApproxQuery,
    BudgetPlan,
    FixedThresholdSelector,
    ImportanceCIPrecisionOneStage,
    ImportanceCIPrecisionTwoStage,
    ImportanceCIRecall,
    JointQuery,
    JointSelector,
    SelectionResult,
    Selector,
    TargetType,
    UniformCIPrecision,
    UniformCIRecall,
    UniformNoCIPrecision,
    UniformNoCIRecall,
    available_selectors,
    calibration_report,
    default_selector,
    make_selector,
    plan_budget,
)
from .datasets import Dataset, load_dataset
from .metrics import SelectionQuality, evaluate_selection, f1_score, precision, recall
from .oracle import BudgetedOracle, BudgetExhaustedError, oracle_from_labels
from .query import SupgEngine, SupgService, parse_query

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "bounds",
    "calibrate",
    "core",
    "datasets",
    "experiments",
    "oracle",
    "proxy",
    "query",
    "sampling",
    # query & result types
    "ApproxQuery",
    "SelectionResult",
    "TargetType",
    "JointQuery",
    # selectors
    "Selector",
    "UniformNoCIRecall",
    "UniformNoCIPrecision",
    "UniformCIRecall",
    "UniformCIPrecision",
    "ImportanceCIRecall",
    "ImportanceCIPrecisionOneStage",
    "ImportanceCIPrecisionTwoStage",
    "JointSelector",
    "FixedThresholdSelector",
    "available_selectors",
    "make_selector",
    "default_selector",
    "calibration_report",
    "BudgetPlan",
    "plan_budget",
    # data & oracle
    "Dataset",
    "load_dataset",
    "BudgetedOracle",
    "BudgetExhaustedError",
    "oracle_from_labels",
    # metrics
    "precision",
    "recall",
    "f1_score",
    "SelectionQuality",
    "evaluate_selection",
    # SQL layer
    "SupgEngine",
    "SupgService",
    "parse_query",
]
