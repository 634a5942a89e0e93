"""Uniform-sampling algorithms with guarantees (Section 5.2 of the paper).

U-CI-R (Algorithm 2) and U-CI-P (Algorithm 3) extend the uniform
baselines with confidence intervals so the failure probability is
bounded by ``delta``:

- **U-CI-R** inflates the recall target from ``gamma`` to a
  conservative ``gamma'`` computed from upper/lower bounds on the
  positive mass above and below the empirical threshold, then re-solves
  for the threshold at ``gamma'``.
- **U-CI-P** walks a grid of candidate thresholds (every ``m``-th order
  statistic of the sampled scores), lower-bounds each candidate's
  population precision at level ``delta / M`` (union bound over the
  ``M`` candidates), and returns the smallest safe candidate.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..bounds import ConfidenceBound
from ..datasets import Dataset
from ..metrics import sorted_distinct
from ..sampling.designs import LabeledSample, SampleDesign
from .base import Selector
from .thresholds import (
    SELECT_EVERYTHING,
    SELECT_NOTHING,
    max_recall_threshold,
    precision_lower_bound,
    precision_lower_bound_batch,
)
from .types import ApproxQuery, TargetType

__all__ = [
    "UniformCIRecall",
    "UniformCIPrecision",
    "conservative_recall_target",
    "precision_candidate_scan",
    "precision_candidate_scan_reference",
    "minimum_positive_draws",
    "DEFAULT_CANDIDATE_STEP",
]

#: The paper's minimum candidate step ``m = 100`` in Algorithms 3 and 5.
DEFAULT_CANDIDATE_STEP = 100


def minimum_positive_draws(gamma: float, delta: float) -> float:
    """Fewest positive draws at which "keep every sampled positive" is a
    delta-safe recall rule.

    When the conservative target ``gamma'`` saturates at 1 (the
    below-threshold confidence bound carries no information), the RT
    algorithms degenerate to thresholding at the lowest sampled positive
    score.  Each positive draw lands above the largest valid threshold
    ``tau_o`` independently with probability about ``gamma``, so that
    degenerate rule fails with probability about ``gamma ** k`` for
    ``k`` positive draws — which exceeds ``delta`` unless

        k >= log(delta) / log(gamma).

    The paper's pseudocode omits this finite-sample consideration (its
    analysis is asymptotic); the RT selectors here use this threshold as
    a saturation guard, falling back to returning the whole dataset —
    always recall-valid — when the sample carries too few positives.

    Returns:
        The minimum count (may be ``inf`` for ``gamma >= 1``).
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if gamma == 1.0:
        return float("inf")
    return math.ceil(math.log(delta) / math.log(gamma))


def conservative_recall_target(
    scores: np.ndarray,
    labels: np.ndarray,
    mass: np.ndarray,
    tau_hat: float,
    delta: float,
    bound: ConfidenceBound,
) -> float:
    """The inflated recall target ``gamma'`` of Algorithms 2 and 4.

    Splits the sampled positive mass at the empirical threshold
    ``tau_hat`` into

        Z1 = 1[A(x) >= tau_hat] * O(x) * m(x)   (kept positives)
        Z2 = 1[A(x) <  tau_hat] * O(x) * m(x)   (dropped positives)

    and returns ``UB(Z1) / (UB(Z1) + LB(Z2))`` with each bound at level
    ``delta / 2``.  Overestimating the kept mass and underestimating the
    dropped mass overestimates the recall the sample *appears* to have
    at the valid threshold, so re-solving the threshold at ``gamma'``
    can only move it to the safe (smaller) side.

    Degenerate cases resolve conservatively: a non-positive upper bound
    on kept mass (no evidence of positives) yields ``gamma' = 1`` so the
    caller keeps every sampled positive; the dropped-mass lower bound is
    clamped at 0, which only increases ``gamma'``.
    """
    a = np.asarray(scores, dtype=float)
    o = np.asarray(labels, dtype=float)
    m = np.asarray(mass, dtype=float)
    z1 = (a >= tau_hat) * o * m
    z2 = (a < tau_hat) * o * m
    ub1 = bound.upper(z1, delta / 2.0)
    lb2 = max(bound.lower(z2, delta / 2.0), 0.0)
    if ub1 <= 0.0:
        return 1.0
    return float(ub1 / (ub1 + lb2))


def precision_candidate_scan(
    scores: np.ndarray,
    labels: np.ndarray,
    mass: np.ndarray,
    gamma: float,
    delta: float,
    bound: ConfidenceBound,
    step: int = DEFAULT_CANDIDATE_STEP,
    dataset: "Dataset | None" = None,
) -> tuple[float, Mapping[str, object]]:
    """The candidate-threshold loop shared by Algorithms 3 and 5.

    Evaluates candidate thresholds at every ``step``-th order statistic
    of the sampled scores (``M = ceil(s / step)`` candidates) and keeps
    those whose population precision is provably above ``gamma`` at
    level ``delta / M`` each, so the union bound caps the total failure
    probability at ``delta``.  Returns the smallest safe candidate —
    smaller thresholds return more records, i.e. higher recall — or
    :data:`SELECT_NOTHING` when no candidate qualifies (the empty set is
    always a valid PT answer).

    The scan is vectorized: each candidate retains a *suffix* of the
    score-sorted sample, so one pass of reversed cumulative sums plus a
    single suffix-batch bound evaluation
    (:func:`~repro.core.thresholds.precision_lower_bound_batch`)
    replaces the per-candidate slice-and-bound loop.
    :func:`precision_candidate_scan_reference` retains that loop as the
    semantic reference; the equivalence tests pin the two to identical
    thresholds and accept sets for every bound class.

    Args:
        scores, labels, mass: the labeled sample (mass is ones for
            uniform sampling).
        gamma: precision target.
        delta: total failure budget for this scan.
        bound: confidence-bound method.
        step: candidate spacing ``m``; clamped to the sample size so
            small test budgets still yield at least one candidate.
        dataset: when given and zone-map indexed, the scan resolves
            its *dataset-scale* lookups through the index — the grid's
            candidate thresholds map to the few strata they can cut
            through (rather than n-record count scans), and the chosen
            threshold's selection cardinality comes from the
            cumulative tail counts.  Pure telemetry plus O(log) count
            lookups: the candidate set, the accept tests, and the
            returned ``tau`` are unchanged, because each candidate's
            *statistical* test depends on the sample and the union
            bound over all ``M`` candidates — dropping grid points
            would change ``delta / M`` and break bit-identity.

    Returns:
        ``(tau, details)`` with the number of candidates examined and
        accepted in ``details``; zone-mapped datasets additionally
        report ``candidate_strata`` (distinct strata the candidate
        grid cuts through) and ``selected_count`` (rows the returned
        threshold selects, 0 for :data:`SELECT_NOTHING`).
    """
    a = np.asarray(scores, dtype=float)
    o = np.asarray(labels, dtype=float)
    m = np.asarray(mass, dtype=float)
    s = a.size
    if s == 0:
        return SELECT_NOTHING, {"candidates": 0, "accepted": 0}
    if step <= 0:
        raise ValueError(f"candidate step must be positive, got {step}")

    effective_step = min(step, s)
    # Every candidate retains the full tie group at its threshold (a
    # tie-closed suffix), so the retained *multiset* does not depend on
    # how equal scores are ordered and the closed-form bounds are
    # tie-order invariant.  The bootstrap bound resamples by position
    # and so does depend on the order within ties — but any fixed order
    # is an equally valid (and, for a given input, deterministic)
    # bootstrap draw, and scan and reference share this sort, so the
    # equivalence contract is unaffected.  The default (unstable) sort
    # is ~5x faster than a stable one on random floats.
    order = np.argsort(a)
    sorted_scores = a[order]
    sorted_labels = o[order]
    sorted_mass = m[order]

    positions = np.arange(effective_step, s + 1, effective_step)
    num_candidates = int(positions.size)
    per_candidate_delta = delta / num_candidates

    taus = sorted_scores[positions - 1]
    # Retain every sampled record with score >= tau, including ties
    # below position i-1.
    starts = np.searchsorted(sorted_scores, taus, side="left")
    retained_counts = s - starts
    lowers = precision_lower_bound_batch(
        sorted_labels, sorted_mass, retained_counts, per_candidate_delta, bound
    )
    accepted = lowers > gamma

    details = {"candidates": num_candidates, "accepted": int(np.count_nonzero(accepted))}
    tau = SELECT_NOTHING if not np.any(accepted) else float(taus[accepted].min())

    zone_map = dataset.zone_map if dataset is not None else None
    if zone_map is not None:
        # Map the candidate grid onto the index: each candidate tau can
        # cut through exactly one stratum, so the distinct boundary
        # strata bound the dataset-side work any per-candidate lookup
        # needs.  The chosen tau's selection size is one cumulative
        # tail-count lookup (O(log K + log S)) instead of an O(n) count.
        boundary_strata = np.searchsorted(zone_map.highs, taus, side="left")
        details["candidate_strata"] = int(sorted_distinct(boundary_strata).size)
        details["selected_count"] = int(dataset.count_above(tau))

    return tau, details


def precision_candidate_scan_reference(
    scores: np.ndarray,
    labels: np.ndarray,
    mass: np.ndarray,
    gamma: float,
    delta: float,
    bound: ConfidenceBound,
    step: int = DEFAULT_CANDIDATE_STEP,
) -> tuple[float, Mapping[str, object]]:
    """Loop-based reference implementation of :func:`precision_candidate_scan`.

    One scalar :func:`~repro.core.thresholds.precision_lower_bound` per
    candidate — O(M · s) but trivially auditable against the paper's
    Algorithm 3 pseudocode.  Kept for the equivalence tests and the
    ``benchmarks/test_perf_scan`` baseline; production callers use the
    vectorized scan.
    """
    a = np.asarray(scores, dtype=float)
    o = np.asarray(labels, dtype=float)
    m = np.asarray(mass, dtype=float)
    s = a.size
    if s == 0:
        return SELECT_NOTHING, {"candidates": 0, "accepted": 0}
    if step <= 0:
        raise ValueError(f"candidate step must be positive, got {step}")

    effective_step = min(step, s)
    order = np.argsort(a)  # same (unstable) order as the vectorized scan
    sorted_scores = a[order]
    sorted_labels = o[order]
    sorted_mass = m[order]

    candidate_positions = range(effective_step, s + 1, effective_step)
    num_candidates = len(candidate_positions)
    accepted: list[float] = []
    per_candidate_delta = delta / num_candidates

    for i in candidate_positions:
        tau = sorted_scores[i - 1]
        start = int(np.searchsorted(sorted_scores, tau, side="left"))
        retained_labels = sorted_labels[start:]
        retained_mass = sorted_mass[start:]
        lower = precision_lower_bound(retained_labels, retained_mass, per_candidate_delta, bound)
        if lower > gamma:
            accepted.append(float(tau))

    details = {"candidates": num_candidates, "accepted": len(accepted)}
    if not accepted:
        return SELECT_NOTHING, details
    return min(accepted), details


class UniformCIRecall(Selector):
    """U-CI-R: uniform sampling with recall guarantees (Algorithm 2).

    Args:
        query: the RT query.
        bound: confidence-bound method.
        saturation_guard: apply the finite-sample guard of
            :func:`minimum_positive_draws` when the conservative target
            saturates.  Defaults on; disable only to reproduce the
            paper's literal pseudocode (the guard ablation benchmark
            shows the failure rates without it).
    """

    name = "u-ci-r"
    target_type = TargetType.RECALL
    reusable_sample = True

    def __init__(
        self,
        query: ApproxQuery,
        bound: ConfidenceBound | None = None,
        saturation_guard: bool = True,
    ) -> None:
        super().__init__(query, bound)
        self.saturation_guard = saturation_guard

    def sample_design(self, dataset: Dataset) -> SampleDesign:
        return SampleDesign(kind="uniform", budget=self.query.budget)

    def estimate_tau_from_sample(
        self, dataset: Dataset, sample: LabeledSample
    ) -> tuple[float, Mapping[str, object]]:
        scores, labels, mass = sample.scores, sample.labels, sample.mass

        tau_hat = max_recall_threshold(scores, labels, mass, self.query.gamma)
        if tau_hat == SELECT_EVERYTHING:
            # No sampled positives: nothing to calibrate against, return
            # everything (always recall-valid).
            return SELECT_EVERYTHING, {"gamma_prime": 1.0, "tau_hat": tau_hat}

        gamma_prime = conservative_recall_target(
            scores, labels, mass, tau_hat, self.query.delta, self.bound
        )
        positive_draws = int(np.sum(labels > 0))
        if (
            self.saturation_guard
            and gamma_prime >= 1.0 - 1e-9
            and positive_draws < minimum_positive_draws(self.query.gamma, self.query.delta)
        ):
            # Saturation guard (see minimum_positive_draws): too few
            # positives to certify any non-trivial threshold.
            return SELECT_EVERYTHING, {
                "gamma_prime": gamma_prime,
                "tau_hat": tau_hat,
                "saturation_guard": True,
                "positive_draws": positive_draws,
            }
        tau = max_recall_threshold(scores, labels, mass, gamma_prime)
        return tau, {
            "gamma_prime": gamma_prime,
            "tau_hat": tau_hat,
            "positive_draws": positive_draws,
        }


class UniformCIPrecision(Selector):
    """U-CI-P: uniform sampling with precision guarantees (Algorithm 3).

    Args:
        query: the PT query.
        bound: confidence-bound method.
        step: candidate spacing ``m`` (the paper's default is 100).
    """

    name = "u-ci-p"
    target_type = TargetType.PRECISION
    reusable_sample = True

    def __init__(
        self,
        query: ApproxQuery,
        bound: ConfidenceBound | None = None,
        step: int = DEFAULT_CANDIDATE_STEP,
    ) -> None:
        super().__init__(query, bound)
        if step <= 0:
            raise ValueError(f"candidate step must be positive, got {step}")
        self.step = step

    def sample_design(self, dataset: Dataset) -> SampleDesign:
        return SampleDesign(kind="uniform", budget=self.query.budget)

    def estimate_tau_from_sample(
        self, dataset: Dataset, sample: LabeledSample
    ) -> tuple[float, Mapping[str, object]]:
        tau, details = precision_candidate_scan(
            sample.scores,
            sample.labels,
            sample.mass,
            gamma=self.query.gamma,
            delta=self.query.delta,
            bound=self.bound,
            step=self.step,
            dataset=dataset,
        )
        return tau, details
