"""Cached dataset statistics: correctness, identity, and invalidation.

Covers the satellite guarantees of the perf PR: the cached score index
must leave ``IS-CI-P``'s stage-1 cut (``tau_min``) unchanged, the
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
from repro.core.zonemap import bucket_keys
from repro.datasets import Dataset, make_beta_dataset
from repro.sampling import DEFAULT_EXPONENT, DEFAULT_MIXING, proxy_sampling_weights


@pytest.fixture(scope="module")
def workload():
    return make_beta_dataset(0.01, 1.0, size=30_000, seed=9)


class TestSortedScoreCache:
    """The cached statistics that replace a full sort: the bucket order
    and the order statistics read through it."""

    def test_matches_full_sort(self, workload):
        descending = np.sort(workload.proxy_scores)[::-1]
        forced = workload.subset(np.arange(workload.size))
        forced.build_zone_map()
        for rank in (1, 2, 17, 1000, workload.size // 2, workload.size):
            assert workload.score_at_rank(rank) == descending[rank - 1]  # dense
            assert forced.score_at_rank(rank) == descending[rank - 1]  # indexed

    def test_cached_identity(self, workload):
        assert workload.score_order is workload.score_order
        assert workload.zone_map is workload.zone_map

    def test_read_only(self, workload):
        with pytest.raises(ValueError):
            workload.score_order[0] = 0

    def test_score_order_sorts(self, workload):
        keys = bucket_keys(workload.proxy_scores)
        np.testing.assert_array_equal(
            workload.score_order, np.argsort(keys, kind="stable")
        )
        assert np.all(np.diff(keys[workload.score_order].astype(int)) >= 0)

    def test_derived_datasets_get_fresh_caches(self, workload):
        _ = workload.score_order  # warm the parent cache
        shuffled = workload.with_scores(workload.proxy_scores[::-1].copy())
        np.testing.assert_array_equal(
            shuffled.score_order,
            np.argsort(bucket_keys(shuffled.proxy_scores), kind="stable"),
        )
        subset = workload.subset(np.arange(10))
        assert subset.score_order.size == 10
        assert subset.score_at_rank(1) == workload.proxy_scores[:10].max()


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
        sort produces — the regression check for replacing the
        per-trial ``np.sort``, first with a cached sort and then with
        the score index."""
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
        _ = dataset.score_order
        statistic = dataset.sampling_cdf(0.5, 0.1)
        clone = pickle.loads(pickle.dumps(dataset))
        np.testing.assert_array_equal(clone.__dict__["score_order"], dataset.score_order)
        cloned = clone.__dict__["_cdf_cache"][(0.5, 0.1)]  # carried, not rebuilt
        assert cloned.cdf.tobytes() == statistic.cdf.tobytes()
        assert (cloned.score_total, cloned.weight_total) == (
            statistic.score_total, statistic.weight_total
        )
