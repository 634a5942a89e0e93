"""Importance-sampling algorithms (Section 5.3 of the paper).

The IS-CI estimators replace uniform sampling with defensive
importance sampling weighted by ``sqrt(A(x))`` (optimal for calibrated
proxies by Theorem 1), concentrating oracle labels on the records that
carry information about the threshold:

- **IS-CI-R** (Algorithm 4): weighted recall-target estimation, using
  the same inflated-target construction as Algorithm 2 but over
  reweighted samples.
- **IS-CI-P one-stage**: weighted version of the Algorithm 3 candidate
  scan.
- **IS-CI-P two-stage** (Algorithm 5): spends half the budget on an
  upper bound for the number of matches ``n_match``, restricts the
  candidate region to the top ``n_match / gamma`` proxy scores (no
  smaller threshold can reach precision ``gamma``), and scans candidates
  with the second half of the budget inside that region.

Weight construction (exponent and defensive-mixing ratio) is exposed so
the paper's fig11/fig12 ablations can sweep it.

All three participate in the staged pipeline.  IS-CI-R and the
one-stage scan draw one target-independent sample, so their whole draw
is store-reusable across gammas.  The two-stage algorithm's stage-1
draw is also target-independent (it depends only on the budget split
and the weight design); only the stage-2 region sample depends on
gamma.  Its staged execution therefore draws stage 1 through the
runtime (store-cacheable, including the generator state after the
draw, so stage 2's random stream resumes bit-exactly) and the stage-2
region sample fresh per gamma.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..bounds import ConfidenceBound
from ..datasets import Dataset
from ..sampling import (
    DEFAULT_EXPONENT,
    DEFAULT_MIXING,
    ess_ratio,
    weighted_sample,
)
from ..sampling.designs import LabeledSample, LabelFn, SampleDesign
from .base import Selector
from .pipeline import StageRuntime
from .thresholds import SELECT_EVERYTHING, max_recall_threshold
from .types import ApproxQuery, TargetType
from .uniform import (
    DEFAULT_CANDIDATE_STEP,
    conservative_recall_target,
    minimum_positive_draws,
    precision_candidate_scan,
)

__all__ = [
    "ImportanceCIRecall",
    "ImportanceCIPrecisionOneStage",
    "ImportanceCIPrecisionTwoStage",
]


class _ImportanceSelector(Selector):
    """Shared weight configuration for the IS-CI selectors."""

    def __init__(
        self,
        query: ApproxQuery,
        bound: ConfidenceBound | None = None,
        weight_exponent: float = DEFAULT_EXPONENT,
        mixing: float = DEFAULT_MIXING,
        saturation_guard: bool = True,
    ) -> None:
        super().__init__(query, bound)
        self.weight_exponent = weight_exponent
        self.mixing = mixing
        self.saturation_guard = saturation_guard

    def _weighted_design(self, budget: int) -> SampleDesign:
        return SampleDesign(
            kind="proxy-weighted",
            budget=budget,
            exponent=self.weight_exponent,
            mixing=self.mixing,
        )


class ImportanceCIRecall(_ImportanceSelector):
    """IS-CI-R: importance sampling with recall guarantees (Algorithm 4).

    With ``weight_exponent=0.5`` this is the paper's SUPG method; with
    ``weight_exponent=1.0`` it is the "Importance, prop" baseline of
    Figure 8, and the fig12 ablation sweeps the exponent.
    """

    name = "is-ci-r"
    target_type = TargetType.RECALL
    reusable_sample = True

    def sample_design(self, dataset: Dataset) -> SampleDesign:
        return self._weighted_design(self.query.budget)

    def estimate_tau_from_sample(
        self, dataset: Dataset, sample: LabeledSample
    ) -> tuple[float, Mapping[str, object]]:
        scores, labels, mass = sample.scores, sample.labels, sample.mass

        tau_hat = max_recall_threshold(scores, labels, mass, self.query.gamma)
        if tau_hat == SELECT_EVERYTHING:
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
            # Saturation guard (see minimum_positive_draws): with too few
            # positive draws, "keep every sampled positive" alone would
            # exceed the failure budget, so return everything instead.
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
            "ess_ratio": ess_ratio(mass),
        }


class ImportanceCIPrecisionOneStage(_ImportanceSelector):
    """One-stage weighted precision-target estimation.

    The full budget is importance-sampled from the whole dataset and
    fed to the candidate scan of Algorithm 3 with reweighted precision
    bounds.  Compared in Figure 7 against the two-stage method.
    """

    name = "is-ci-p-one-stage"
    target_type = TargetType.PRECISION
    reusable_sample = True

    def __init__(
        self,
        query: ApproxQuery,
        bound: ConfidenceBound | None = None,
        weight_exponent: float = DEFAULT_EXPONENT,
        mixing: float = DEFAULT_MIXING,
        step: int = DEFAULT_CANDIDATE_STEP,
    ) -> None:
        super().__init__(query, bound, weight_exponent, mixing)
        if step <= 0:
            raise ValueError(f"candidate step must be positive, got {step}")
        self.step = step

    def sample_design(self, dataset: Dataset) -> SampleDesign:
        return self._weighted_design(self.query.budget)

    def estimate_tau_from_sample(
        self, dataset: Dataset, sample: LabeledSample
    ) -> tuple[float, Mapping[str, object]]:
        tau, scan_details = precision_candidate_scan(
            sample.scores,
            sample.labels,
            sample.mass,
            gamma=self.query.gamma,
            delta=self.query.delta,
            bound=self.bound,
            step=self.step,
        )
        return tau, {**scan_details, "ess_ratio": ess_ratio(sample.mass)}


class ImportanceCIPrecisionTwoStage(_ImportanceSelector):
    """IS-CI-P: two-stage weighted precision estimation (Algorithm 5).

    Stage 1 (half the budget) upper-bounds the number of matching
    records ``n_match`` at level ``delta / 2``; any threshold below the
    ``ceil(n_match / gamma)``-th highest proxy score then provably
    cannot reach precision ``gamma``, so stage 2 (the other half)
    samples only from that top region and runs the candidate scan with
    the remaining ``delta / 2`` failure budget.
    """

    name = "is-ci-p"
    target_type = TargetType.PRECISION
    # The *stage-1* draw is target-independent and cacheable (it is
    # what sample_design declares, for the store and the batch
    # planner), but the stage-2 region sample depends on gamma, so the
    # selector's full sample is not reusable as one unit.
    reusable_sample = False

    def __init__(
        self,
        query: ApproxQuery,
        bound: ConfidenceBound | None = None,
        weight_exponent: float = DEFAULT_EXPONENT,
        mixing: float = DEFAULT_MIXING,
        step: int = DEFAULT_CANDIDATE_STEP,
    ) -> None:
        super().__init__(query, bound, weight_exponent, mixing)
        if step <= 0:
            raise ValueError(f"candidate step must be positive, got {step}")
        if query.budget < 2:
            raise ValueError("the two-stage algorithm needs a budget of at least 2")
        self.step = step

    def _stage1_design(self) -> SampleDesign:
        return self._weighted_design(self.query.budget // 2)

    def sample_design(self, dataset: Dataset) -> SampleDesign:
        # The cacheable stage-1 draw: keys the sample store and the
        # batch planner's grouping; _execute_stages consumes it and
        # then runs the gamma-dependent stage 2.
        return self._stage1_design()

    def _finish_from_stage1(
        self,
        dataset: Dataset,
        stage1: LabeledSample,
        rng: np.random.Generator,
        label_fn: LabelFn,
    ) -> tuple[float, dict[str, object], tuple[LabeledSample, LabeledSample]]:
        """Stages after the (cacheable) stage-1 draw: estimate the cut,
        draw + label the stage-2 region sample, and scan candidates."""
        stage2_budget = self.query.budget - self.query.budget // 2

        # Stage 1 estimate: importance-sampled upper bound on the match count.
        z = stage1.labels * stage1.mass
        match_rate_ub = self.bound.upper(z, self.query.delta / 2.0)
        n_match_ub = dataset.size * max(match_rate_ub, 0.0)

        # Thresholds below the (n_match / gamma)-th highest score cannot
        # reach precision gamma even if every match lands above them.
        # The order statistic comes from one partition inside one score
        # bucket of the dataset's cached index, not from a full sort.
        cut_rank = min(dataset.size, max(1, math.ceil(n_match_ub / self.query.gamma)))
        tau_min = dataset.score_at_rank(cut_rank)
        # select_above skips through the dataset's zone map when one
        # exists (bit-identical to the dense flatnonzero scan), so the
        # stage-1 region costs O(region) instead of a full O(n) pass.
        # Under a disk statistics backend only the buckets the cut
        # reaches are read from the order file, never the whole column.
        region = dataset.select_above(tau_min)

        # Stage 2: candidate scan over a weighted sample from the region.
        # Reweighting is relative to uniform-over-region, which preserves
        # precision estimands because {A >= tau} is a subset of the
        # region for every candidate tau >= tau_min.  The region's
        # weights are the full design's w(x), computed from the region's
        # scores and the cached statistic's score total: no full-length
        # column is read.
        statistic = dataset.sampling_cdf(exponent=self.weight_exponent, mixing=self.mixing)
        region_weights = statistic.weights(dataset.proxy_scores[region])
        region_sample = weighted_sample(region_weights, stage2_budget, rng)
        sampled_global = region[region_sample.indices]
        labels2 = np.asarray(label_fn(sampled_global))
        scores2 = dataset.proxy_scores[sampled_global]

        tau, scan_details = precision_candidate_scan(
            scores2,
            labels2,
            region_sample.mass,
            gamma=self.query.gamma,
            delta=self.query.delta / 2.0,
            bound=self.bound,
            step=self.step,
        )
        tau = max(tau, tau_min)
        details: dict[str, object] = {
            "n_match_upper_bound": n_match_ub,
            "tau_min": tau_min,
            "region_size": int(region.size),
            "ess_ratio": ess_ratio(region_sample.mass),
            "stage1_ess_ratio": ess_ratio(stage1.mass),
            **scan_details,
        }
        # No SampleDesign describes this draw: it is gamma-dependent and
        # region-restricted, so it must never enter a sample store.
        stage2 = LabeledSample(
            design=None,
            indices=sampled_global,
            scores=scores2,
            labels=labels2,
            mass=region_sample.mass,
            rng_state=rng.bit_generator.state,
        )
        return tau, details, (stage1, stage2)

    def _execute_stages(
        self, runtime: StageRuntime
    ) -> tuple[float, Mapping[str, object], tuple[LabeledSample, ...]]:
        # Stage 1 goes through the runtime (store-served when legal;
        # either way the random stream ends in the post-draw state, so
        # the gamma-dependent stage-2 draw is bit-identical regardless
        # of where stage 1 came from).
        stage1 = runtime.draw(self._stage1_design())
        return self._finish_from_stage1(
            runtime.dataset, stage1, runtime.rng, runtime.label
        )
