"""Equivalence contract of the unified staged selection pipeline.

``Selector.select`` has exactly one execution path — plan →
draw_sample → estimate_tau → materialize — for every calling
convention (with or without an ``ExecutionContext``, integer or
generator seed, built-in or custom oracle).  The hard promise pinned
here: that unified path is *bit-for-bit identical* to the PR 3 outputs
(whose retired fused oracle branch is reconstructed below as
``_pr3_reference_select``), while drawing each reusable oracle sample
exactly once per (dataset, seed, budget) across a gamma sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ApproxQuery,
    ExecutionContext,
    SampleStore,
    SelectionResult,
    TargetType,
    available_selectors,
    make_selector,
    sample_reusable_selectors,
    selector_class,
)
from repro.core.base import Selector
from repro.datasets import make_beta_dataset
from repro.experiments.runner import run_trials, sweep
from repro.oracle import oracle_from_labels
from repro.sampling import SampleDesign
from repro.sampling.designs import draw_labeled_sample

GAMMAS = (0.5, 0.6, 0.7, 0.8, 0.9)


@pytest.fixture(scope="module")
def workload():
    return make_beta_dataset(0.01, 1.0, size=30_000, seed=11)


def _query_for(name: str) -> ApproxQuery:
    target = (
        TargetType.RECALL
        if name in available_selectors(TargetType.RECALL)
        else TargetType.PRECISION
    )
    return ApproxQuery(target, 0.9, 0.05, 400)


def _assert_results_equal(expected, actual, label):
    assert np.array_equal(expected.indices, actual.indices), label
    assert expected.tau == actual.tau, label
    assert expected.oracle_calls == actual.oracle_calls, label
    assert np.array_equal(expected.sampled_indices, actual.sampled_indices), label
    assert dict(expected.details) == dict(actual.details), label


def _pr3_reference_select(name, query, dataset, seed) -> SelectionResult:
    """The retired PR 3 fused oracle path, reconstructed as the pin.

    Pre-PR 4, ``Selector.select`` without a context built a
    budget-enforcing oracle, drew through it, and materialized via
    ``np.union1d`` over the oracle's bookkeeping.  Re-implementing that
    path here (for every registered selector) is what lets the test
    assert the unified staged path reproduces PR 3 outputs bit for bit
    even though the branch itself is gone.
    """
    selector = make_selector(name, query)
    rng = np.random.default_rng(seed)
    oracle = oracle_from_labels(dataset.labels, budget=query.budget)
    sample = draw_labeled_sample(selector.sample_design(dataset), dataset, rng, oracle.query)
    if name == "is-ci-p":
        tau, details, _ = selector._finish_from_stage1(dataset, sample, rng, oracle.query)
    else:
        tau, details = selector.estimate_tau_from_sample(dataset, sample)
    combined = np.union1d(oracle.known_positives(), dataset.select_above(tau))
    return SelectionResult(
        indices=combined,
        tau=tau,
        oracle_calls=oracle.calls_used,
        sampled_indices=oracle.labeled_indices(),
        details=dict(details),
    )


class TestStagedBitEquivalence:
    """The unified path pinned to the PR 3 oracle-driven outputs."""

    @pytest.mark.parametrize("name", available_selectors())
    def test_every_selector_bit_identical(self, name, workload):
        query = _query_for(name)
        context = ExecutionContext()
        for seed in (0, 1, 2):
            reference = _pr3_reference_select(name, query, workload, seed)
            plain = make_selector(name, query).select(workload, seed=seed)
            staged = make_selector(name, query).select(workload, seed=seed, context=context)
            _assert_results_equal(reference, plain, (name, seed, "fresh"))
            _assert_results_equal(reference, staged, (name, seed, "store"))

    @pytest.mark.parametrize("name", available_selectors())
    def test_cache_hit_replays_identically(self, name, workload):
        """A store *hit* must reproduce the same result as the miss."""
        query = _query_for(name)
        context = ExecutionContext()
        first = make_selector(name, query).select(workload, seed=5, context=context)
        second = make_selector(name, query).select(workload, seed=5, context=context)
        _assert_results_equal(first, second, name)

    def test_generator_seed_bypasses_store(self, workload):
        """Generator seeds cannot key a cache: the same staged path runs
        with fresh draws, identical to an integer-seed-free run."""
        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        context = ExecutionContext()
        staged = make_selector("is-ci-r", query).select(
            workload, seed=np.random.default_rng(3), context=context
        )
        fresh = make_selector("is-ci-r", query).select(
            workload, seed=np.random.default_rng(3)
        )
        _assert_results_equal(fresh, staged, "generator-seed")
        assert context.store.misses == 0 and context.store.hits == 0

    def test_custom_oracle_runs_through_staged_path(self, workload):
        """A caller-supplied oracle feeds the draw stage (its labels end
        up in the samples) and its draws never enter the store."""
        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        context = ExecutionContext()
        oracle = oracle_from_labels(workload.labels, budget=query.budget)
        with_oracle = make_selector("is-ci-r", query).select(
            workload, seed=4, oracle=oracle, context=context
        )
        plain = make_selector("is-ci-r", query).select(workload, seed=4)
        _assert_results_equal(plain, with_oracle, "custom-oracle")
        assert oracle.calls_used == with_oracle.oracle_calls
        assert context.store.misses == 0 and context.store.hits == 0

    def test_stage_hook_subclass_supported(self, workload):
        """Custom selectors extend via the stage hooks; the retired
        ``_estimate_tau``-only extension point fails loudly at
        construction instead of silently never running."""

        class FixedTau(Selector):
            name = "fixed-tau"

            def sample_design(self, dataset):
                return SampleDesign(kind="uniform", budget=self.query.budget)

            def estimate_tau_from_sample(self, dataset, sample):
                return 0.5, {"method": self.name}

        query = ApproxQuery.recall_target(0.9, 0.05, 50)
        context = ExecutionContext()
        plain = FixedTau(query).select(workload, seed=2)
        via_context = FixedTau(query).select(workload, seed=2, context=context)
        _assert_results_equal(plain, via_context, "stage-hook-subclass")
        assert context.store.misses == 1

        class LegacyOnly(Selector):
            name = "legacy-only"

            def _estimate_tau(self, dataset, oracle, rng):  # pragma: no cover
                return 0.5, {}

        with pytest.raises(TypeError, match="stage pair"):
            LegacyOnly(query)

    def test_over_drawing_selector_hits_budget_wall(self, workload):
        """Fresh draws run through a budget-enforcing oracle: a selector
        that tries to label past its query budget raises instead of
        silently revealing extra ground truth."""
        from repro.oracle import BudgetExhaustedError

        class Greedy(Selector):
            name = "greedy"

            def _execute_stages(self, runtime):
                runtime.label(np.arange(self.query.budget + 1))
                return 0.5, {}, ()  # pragma: no cover

        with pytest.raises(BudgetExhaustedError):
            Greedy(ApproxQuery.recall_target(0.9, 0.05, 50)).select(workload, seed=0)


class TestSweepSampleReuse:
    """One oracle sample draw per (dataset, seed, budget) across gammas."""

    @pytest.mark.parametrize("name", sample_reusable_selectors())
    def test_one_draw_per_seed_across_gammas(self, name, workload):
        trials = 3
        base_query = _query_for(name)
        context = ExecutionContext()
        for trial in range(trials):
            for gamma in GAMMAS:
                make_selector(name, base_query.with_gamma(gamma)).select(
                    workload, seed=trial, context=context
                )
        # The oracle-call counter: exactly one sample draw per seed,
        # replayed across the remaining gamma points.
        assert context.store.misses == trials
        assert context.store.hits == trials * (len(GAMMAS) - 1)
        assert context.store.labels_drawn <= trials * base_query.budget

    def test_two_stage_caches_stage1_only(self, workload):
        """IS-CI-P's stage-1 draw is target-independent and cached; the
        gamma-dependent stage 2 is re-drawn, and results still match the
        fused path at every gamma."""
        base_query = ApproxQuery.precision_target(0.9, 0.05, 400)
        context = ExecutionContext()
        for gamma in GAMMAS:
            query = base_query.with_gamma(gamma)
            staged = make_selector("is-ci-p", query).select(workload, seed=7, context=context)
            legacy = make_selector("is-ci-p", query).select(workload, seed=7)
            _assert_results_equal(legacy, staged, gamma)
        assert context.store.misses == 1
        assert context.store.hits == len(GAMMAS) - 1

    def test_sweep_runner_uses_one_draw_per_seed(self, workload):
        """The rebuilt sweep() draws once per seed for reusable selectors
        (asserted via the store's oracle-draw counter) and returns
        summaries bit-identical to fresh per-gamma draws (the legacy
        loops)."""
        trials = 3
        base_query = ApproxQuery.recall_target(0.9, 0.05, 400)

        def factory_for_gamma(gamma):
            return lambda: make_selector("is-ci-r", base_query.with_gamma(gamma))

        context = ExecutionContext()
        shared = sweep(
            factory_for_gamma, GAMMAS, workload, trials=trials, base_seed=3, context=context
        )
        assert context.store.misses == trials
        assert context.store.hits == trials * (len(GAMMAS) - 1)

        # Legacy shape: independent per-gamma trial loops.
        legacy = [
            run_trials(factory_for_gamma(gamma), workload, trials=trials, base_seed=3)
            for gamma in GAMMAS
        ]
        assert shared == legacy

    def test_sweep_rejects_context_with_parallel_jobs(self, workload):
        """Parallel workers own their stores, so a caller-supplied
        context would be silently bypassed; sweep refuses instead."""
        base_query = ApproxQuery.recall_target(0.9, 0.05, 300)

        def factory_for_gamma(gamma):
            return lambda: make_selector("u-ci-r", base_query.with_gamma(gamma))

        with pytest.raises(ValueError, match="n_jobs=1"):
            sweep(
                factory_for_gamma, GAMMAS, workload, trials=4,
                n_jobs=2, context=ExecutionContext(),
            )
        # ... but a request that *resolves* to one worker runs
        # sequentially and honors the context.
        context = ExecutionContext()
        sweep(factory_for_gamma, GAMMAS, workload, trials=1, n_jobs=4, context=context)
        assert context.store.misses == 1

    def test_run_trials_rejects_context_with_parallel_jobs(self, workload):
        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        with pytest.raises(ValueError, match="n_jobs=1"):
            run_trials(
                lambda: make_selector("u-ci-r", query), workload, trials=4,
                n_jobs=2, context=ExecutionContext(),
            )

    def test_sweep_parallel_matches_sequential(self, workload):
        base_query = ApproxQuery.precision_target(0.9, 0.05, 400)

        def factory_for_gamma(gamma):
            return lambda: make_selector("u-ci-p", base_query.with_gamma(gamma))

        sequential = sweep(factory_for_gamma, GAMMAS, workload, trials=4, n_jobs=1)
        parallel = sweep(factory_for_gamma, GAMMAS, workload, trials=4, n_jobs=3)
        assert parallel == sequential


class TestSampleStore:
    def test_keyed_by_dataset_fingerprint(self, workload):
        other = make_beta_dataset(0.01, 2.0, size=30_000, seed=11)
        store = SampleStore()
        design = SampleDesign(kind="uniform", budget=100)
        store.fetch(workload, design, 0)
        store.fetch(other, design, 0)
        assert store.misses == 2  # distinct datasets never share samples
        store.fetch(workload, design, 0)
        assert store.hits == 1

    def test_keyed_by_design_and_seed(self, workload):
        store = SampleStore()
        store.fetch(workload, SampleDesign(kind="uniform", budget=100), 0)
        store.fetch(workload, SampleDesign(kind="uniform", budget=200), 0)
        store.fetch(workload, SampleDesign(kind="uniform", budget=100), 1)
        store.fetch(
            workload,
            SampleDesign(kind="proxy-weighted", budget=100, exponent=0.5, mixing=0.1),
            0,
        )
        assert store.misses == 4 and store.hits == 0

    def test_lru_eviction(self, workload):
        store = SampleStore(max_entries=2)
        design = SampleDesign(kind="uniform", budget=50)
        store.fetch(workload, design, 0)
        store.fetch(workload, design, 1)
        store.fetch(workload, design, 2)  # evicts seed 0
        assert len(store) == 2
        store.fetch(workload, design, 0)
        assert store.misses == 4

    def test_identical_content_shares_samples(self):
        """Two dataset objects with equal contents fingerprint equal and
        legally share one cached sample."""
        a = make_beta_dataset(0.01, 1.0, size=5_000, seed=3)
        b = make_beta_dataset(0.01, 1.0, size=5_000, seed=3)
        assert a is not b and a.fingerprint == b.fingerprint
        store = SampleStore()
        design = SampleDesign(kind="uniform", budget=50)
        store.fetch(a, design, 0)
        store.fetch(b, design, 0)
        assert store.hits == 1 and store.misses == 1

    def test_forget_drops_one_contents_samples(self, workload):
        other = make_beta_dataset(0.01, 2.0, size=30_000, seed=11)
        store = SampleStore()
        design = SampleDesign(kind="uniform", budget=100)
        store.fetch(workload, design, 0)
        store.fetch(workload, design, 1)
        store.fetch(other, design, 0)
        before = store.stats()
        assert store.forget(workload.fingerprint) == 2
        assert store.forget(workload.fingerprint) == 0
        assert len(store) == 1
        after = store.stats()
        assert {k: v for k, v in after.items() if k not in ("entries", "nbytes")} == {
            k: v for k, v in before.items() if k not in ("entries", "nbytes")
        }
        store.fetch(other, design, 0)
        store.fetch(workload, design, 0)
        assert store.hits == 1 and store.misses == 4

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            SampleStore(max_entries=0)

    def test_design_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SampleDesign(kind="stratified", budget=10)
        with pytest.raises(ValueError, match="budget"):
            SampleDesign(kind="uniform", budget=0)
        with pytest.raises(ValueError, match="exponent"):
            SampleDesign(kind="proxy-weighted", budget=10)


class TestSelectorCompleteness:
    def test_bare_selector_not_constructible(self):
        query = ApproxQuery.recall_target(0.9, 0.05, 10)
        with pytest.raises(TypeError, match="stage pair"):
            Selector(query)

    def test_incomplete_subclass_fails_at_construction(self):
        class Hollow(Selector):
            name = "hollow"

        with pytest.raises(TypeError, match="Hollow"):
            Hollow(ApproxQuery.recall_target(0.9, 0.05, 10))


class TestRegistryMetadata:
    def test_reusable_set(self):
        reusable = set(sample_reusable_selectors())
        assert reusable == {
            "u-noci-r", "u-noci-p", "u-ci-r", "u-ci-p", "is-ci-r", "is-ci-p-one-stage",
        }
        assert "is-ci-p" not in reusable  # stage 2 depends on gamma

    def test_selector_class_resolution(self):
        assert selector_class("is-ci-r").name == "is-ci-r"
        with pytest.raises(KeyError, match="unknown selector"):
            selector_class("nope")
