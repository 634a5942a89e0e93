"""Cached dataset statistics: correctness, identity, and invalidation.

Covers the satellite guarantees of the perf PR: the cached descending
sort must leave ``IS-CI-P``'s stage-1 cut (``tau_min``) unchanged, the
draw-statistic cache must hold exactly the table ``rng.choice`` builds
from the ``proxy_sampling_weights`` output, and derived datasets (``subset``/``with_scores``) must never observe a
stale cache.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.importance import ImportanceCIPrecisionOneStage, ImportanceCIPrecisionTwoStage
from repro.core.types import ApproxQuery
from repro.datasets import Dataset, make_beta_dataset
from repro.sampling import DEFAULT_EXPONENT, DEFAULT_MIXING, proxy_sampling_weights


@pytest.fixture(scope="module")
def workload():
    return make_beta_dataset(0.01, 1.0, size=30_000, seed=9)


class TestSortedScoreCache:
    def test_matches_full_sort(self, workload):
        np.testing.assert_array_equal(
            workload.sorted_scores, np.sort(workload.proxy_scores)
        )
        np.testing.assert_array_equal(
            workload.descending_scores, np.sort(workload.proxy_scores)[::-1]
        )

    def test_cached_identity(self, workload):
        assert workload.sorted_scores is workload.sorted_scores
        assert workload.score_order is workload.score_order

    def test_read_only(self, workload):
        with pytest.raises(ValueError):
            workload.sorted_scores[0] = 0.5
        with pytest.raises(ValueError):
            workload.descending_scores[0] = 0.5

    def test_score_order_sorts(self, workload):
        np.testing.assert_array_equal(
            workload.proxy_scores[workload.score_order], workload.sorted_scores
        )

    def test_derived_datasets_get_fresh_caches(self, workload):
        _ = workload.sorted_scores  # warm the parent cache
        shuffled = workload.with_scores(workload.proxy_scores[::-1].copy())
        np.testing.assert_array_equal(
            shuffled.sorted_scores, np.sort(shuffled.proxy_scores)
        )
        subset = workload.subset(np.arange(10))
        assert subset.sorted_scores.size == 10


def reference_cdf(weights):
    """The table ``rng.choice(p=weights / weights.sum())`` builds."""
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


class TestWeightCache:
    def test_matches_uncached_weights(self, workload):
        cached = workload.sampling_cdf(exponent=0.5, mixing=0.1)
        weights = proxy_sampling_weights(workload.proxy_scores, exponent=0.5, mixing=0.1)
        assert cached.cdf.tobytes() == reference_cdf(weights).tobytes()
        assert cached.weight_total == weights.sum()
        assert cached.score_total == np.sqrt(workload.proxy_scores).sum()
        assert cached.weights(workload.proxy_scores).tobytes() == weights.tobytes()

    def test_keyed_by_parameters(self, workload):
        a = workload.sampling_cdf(exponent=0.5, mixing=0.1)
        b = workload.sampling_cdf(exponent=0.5, mixing=0.1)
        c = workload.sampling_cdf(exponent=1.0, mixing=0.1)
        assert a is b
        assert a is not c
        assert not np.array_equal(a.cdf, c.cdf)

    def test_read_only(self, workload):
        statistic = workload.sampling_cdf(DEFAULT_EXPONENT, DEFAULT_MIXING)
        with pytest.raises(ValueError):
            statistic.cdf[0] = 0.0


class TestTwoStageTauMin:
    def test_tau_min_unchanged_by_cached_sort(self, workload):
        """The stage-1 cut must equal the order statistic a fresh full
        sort produces — the satellite regression check for replacing
        the per-trial ``np.sort`` with the cached sort."""
        query = ApproxQuery.precision_target(gamma=0.9, delta=0.05, budget=1_000)
        for seed in range(5):
            result = ImportanceCIPrecisionTwoStage(query).select(workload, seed=seed)
            n_match_ub = result.details["n_match_upper_bound"]
            cut_rank = min(
                workload.size, max(1, math.ceil(n_match_ub / query.gamma))
            )
            expected_tau_min = float(np.sort(workload.proxy_scores)[::-1][cut_rank - 1])
            assert result.details["tau_min"] == expected_tau_min


class TestEssRatioParity:
    """Both IS-CI-P variants must report ``ess_ratio`` like IS-CI-R."""

    def test_one_stage_reports_ess_ratio(self, workload):
        query = ApproxQuery.precision_target(gamma=0.9, delta=0.05, budget=500)
        result = ImportanceCIPrecisionOneStage(query).select(workload, seed=0)
        assert 0.0 < result.details["ess_ratio"] <= 1.0 + 1e-12

    def test_two_stage_reports_ess_ratio(self, workload):
        query = ApproxQuery.precision_target(gamma=0.9, delta=0.05, budget=500)
        result = ImportanceCIPrecisionTwoStage(query).select(workload, seed=0)
        assert 0.0 < result.details["ess_ratio"] <= 1.0 + 1e-12
        assert 0.0 < result.details["stage1_ess_ratio"] <= 1.0 + 1e-12


class TestCacheSemantics:
    def test_cache_survives_pickling(self):
        """Parallel workers receive datasets with caches intact."""
        import pickle

        dataset = Dataset(
            proxy_scores=np.array([0.9, 0.1, 0.5]),
            labels=np.array([1, 0, 1]),
            name="t",
        )
        _ = dataset.sorted_scores
        statistic = dataset.sampling_cdf(0.5, 0.1)
        clone = pickle.loads(pickle.dumps(dataset))
        np.testing.assert_array_equal(clone.sorted_scores, dataset.sorted_scores)
        cloned = clone.__dict__["_cdf_cache"][(0.5, 0.1)]  # carried, not rebuilt
        assert cloned.cdf.tobytes() == statistic.cdf.tobytes()
        assert (cloned.score_total, cloned.weight_total) == (
            statistic.score_total, statistic.weight_total
        )
