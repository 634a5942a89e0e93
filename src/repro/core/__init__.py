"""Core SUPG algorithms: the paper's primary contribution."""

from __future__ import annotations

from .audit import AuditReport, audit_precision, audit_recall, audit_result
from .base import Selector
from .baselines import FixedThresholdSelector, UniformNoCIPrecision, UniformNoCIRecall
from .calibration import CalibrationReport, calibration_report
from .importance import (
    ImportanceCIPrecisionOneStage,
    ImportanceCIPrecisionTwoStage,
    ImportanceCIRecall,
)
from .joint import JointQuery, JointSelector
from .multiproxy import (
    LogisticFuser,
    MaxFuser,
    MeanFuser,
    ProxyFuser,
    fuse_proxies,
)
from .pipeline import ExecutionContext, SampleStore, StageRuntime, materialize_selection
from .planning import (
    BudgetPlan,
    PlannedExecution,
    QueryPlan,
    effective_workers,
    expected_positive_fraction,
    plan_budget,
    plan_executions,
    resolve_n_jobs,
)
from .registry import (
    available_selectors,
    default_selector,
    make_selector,
    sample_reusable_selectors,
    selector_class,
)
from .theory import (
    estimator_variance_term,
    optimal_weights,
    variance_gap_uniform_vs_sqrt,
    variance_proportional,
    variance_sqrt,
    variance_uniform,
)
from .thresholds import (
    SELECT_EVERYTHING,
    SELECT_NOTHING,
    empirical_precision,
    empirical_precision_batch,
    empirical_recall,
    empirical_recall_batch,
    max_recall_threshold,
    min_precision_threshold,
    precision_lower_bound,
    precision_lower_bound_batch,
)
from .types import ApproxQuery, SelectionResult, TargetType
from .zonemap import ScoreZoneMap, SkipEstimate
from .uniform import (
    DEFAULT_CANDIDATE_STEP,
    UniformCIPrecision,
    UniformCIRecall,
    conservative_recall_target,
    minimum_positive_draws,
    precision_candidate_scan,
    precision_candidate_scan_reference,
)

__all__ = [
    "ApproxQuery",
    "SelectionResult",
    "TargetType",
    "Selector",
    "UniformNoCIRecall",
    "UniformNoCIPrecision",
    "FixedThresholdSelector",
    "UniformCIRecall",
    "UniformCIPrecision",
    "ImportanceCIRecall",
    "ImportanceCIPrecisionOneStage",
    "ImportanceCIPrecisionTwoStage",
    "JointQuery",
    "JointSelector",
    "ProxyFuser",
    "MeanFuser",
    "MaxFuser",
    "LogisticFuser",
    "fuse_proxies",
    "BudgetPlan",
    "plan_budget",
    "expected_positive_fraction",
    "PlannedExecution",
    "QueryPlan",
    "plan_executions",
    "resolve_n_jobs",
    "effective_workers",
    "available_selectors",
    "make_selector",
    "default_selector",
    "selector_class",
    "sample_reusable_selectors",
    "ExecutionContext",
    "SampleStore",
    "StageRuntime",
    "materialize_selection",
    "SELECT_EVERYTHING",
    "SELECT_NOTHING",
    "max_recall_threshold",
    "min_precision_threshold",
    "precision_lower_bound",
    "precision_lower_bound_batch",
    "empirical_recall",
    "empirical_precision",
    "empirical_recall_batch",
    "empirical_precision_batch",
    "ScoreZoneMap",
    "SkipEstimate",
    "conservative_recall_target",
    "precision_candidate_scan",
    "precision_candidate_scan_reference",
    "DEFAULT_CANDIDATE_STEP",
    "minimum_positive_draws",
    "optimal_weights",
    "estimator_variance_term",
    "variance_uniform",
    "variance_proportional",
    "variance_sqrt",
    "variance_gap_uniform_vs_sqrt",
    "CalibrationReport",
    "calibration_report",
    "AuditReport",
    "audit_precision",
    "audit_recall",
    "audit_result",
]
