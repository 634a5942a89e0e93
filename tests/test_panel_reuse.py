"""Trial-outer method panels and the restructured figure drivers.

Two contracts are pinned here:

1. ``compare_methods`` runs its trial loop outermost under one shared
   sample store, so methods sharing a sampling design label their
   common sample once per seed — even when ``trials`` exceeds the
   store's LRU capacity (the thrash case a method-outer loop cannot
   survive) — while staying record-for-record identical to independent
   per-method ``run_trials`` loops.

2. The fig9–13 (and table4) drivers, rebuilt over panel cells, produce
   byte-identical rows and summaries to the pre-refactor per-method
   loops (reconstructed here from the unchanged ``run_trials``
   primitive), and their per-driver oracle-draw counts equal the
   number of distinct (dataset, seed, design) cells.
"""

from __future__ import annotations

import pytest

from repro.bounds import BootstrapBound, ClopperPearsonBound, HoeffdingBound, NormalBound
from repro.core import ApproxQuery, ExecutionContext, SampleStore, make_selector
from repro.core.importance import (
    ImportanceCIPrecisionTwoStage,
    ImportanceCIRecall,
)
from repro.core.uniform import UniformCIPrecision, UniformCIRecall
from repro.datasets import add_proxy_noise, make_beta_dataset
from repro.experiments import figure9, figure10, figure11, figure12, figure13
from repro.experiments.figures import FAST_BUDGETS
from repro.experiments.runner import compare_methods, run_sweep_cells, run_trials

SIZE = 20_000
TRIALS = 2


@pytest.fixture(scope="module")
def workload():
    return make_beta_dataset(0.01, 1.0, size=SIZE, seed=7)


def _bound_panel(query):
    """A fig13-style panel: several bounds over one uniform design."""
    return {
        "normal": lambda: UniformCIRecall(query, bound=NormalBound()),
        "hoeffding": lambda: UniformCIRecall(query, bound=HoeffdingBound()),
        "cp": lambda: UniformCIRecall(query, bound=ClopperPearsonBound()),
    }


class TestCompareMethodsTrialOuter:
    def test_shared_design_drawn_once_per_seed(self, workload):
        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        context = ExecutionContext()
        compare_methods(_bound_panel(query), workload, trials=4, context=context)
        assert context.store.misses == 4  # one uniform draw per seed
        assert context.store.hits == 4 * 2  # served to the other two bounds

    def test_reuse_survives_lru_thrash(self, workload):
        """trials > max_entries: a method-outer loop would evict every
        seed's sample before the next method re-requested it; the
        trial-outer loop touches each key back-to-back and never
        re-draws."""
        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        context = ExecutionContext(store=SampleStore(max_entries=2))
        trials = 6  # 3x the store capacity
        compare_methods(_bound_panel(query), workload, trials=trials, context=context)
        assert context.store.misses == trials
        assert context.store.hits == trials * 2

    def test_records_identical_to_per_method_loops(self, workload):
        """The store-shared panel (any n_jobs) is pinned to the
        pre-refactor shape: one independent, freshly drawing run_trials
        per method."""
        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        panel = _bound_panel(query)
        reference = {
            label: run_trials(
                factory, workload, trials=5, base_seed=3, method_name=label
            )
            for label, factory in panel.items()
        }
        shared = compare_methods(panel, workload, trials=5, base_seed=3)
        parallel = compare_methods(panel, workload, trials=5, base_seed=3, n_jobs=3)
        assert shared == reference
        assert parallel == reference

    def test_rejects_context_plus_store_dir(self, workload, tmp_path):
        query = ApproxQuery.recall_target(0.9, 0.05, 200)
        with pytest.raises(ValueError, match="ambiguous"):
            compare_methods(
                _bound_panel(query), workload, trials=2,
                context=ExecutionContext(), store_dir=str(tmp_path),
            )

    def test_store_dir_shares_labels_across_calls(self, workload, tmp_path):
        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        first = compare_methods(
            _bound_panel(query), workload, trials=3, store_dir=str(tmp_path)
        )
        context = ExecutionContext(store=SampleStore(store_dir=str(tmp_path)))
        second = compare_methods(
            _bound_panel(query), workload, trials=3, context=context
        )
        assert second == first
        stats = context.stats()
        assert stats["labels_drawn"] == 0 and stats["disk_hits"] == 3


class TestRunSweepCellsPanels:
    def test_mixed_cell_kinds(self, workload):
        base = ApproxQuery.recall_target(0.9, 0.05, 300)

        def factory_for_gamma(gamma):
            return lambda: make_selector("is-ci-r", base.with_gamma(gamma))

        cells = [
            dict(factory_for_gamma=factory_for_gamma, gammas=(0.8, 0.9),
                 dataset=workload, trials=TRIALS),
            dict(factories=_bound_panel(base), dataset=workload, trials=TRIALS),
        ]
        sweep_result, panel_result = run_sweep_cells(cells)
        assert len(sweep_result) == 2  # one summary per gamma
        assert set(panel_result) == {"normal", "hoeffding", "cp"}
        parallel = run_sweep_cells(cells, n_jobs=2)
        assert parallel == [sweep_result, panel_result]

    def test_context_threads_through_all_cells(self, workload):
        base = ApproxQuery.recall_target(0.9, 0.05, 300)
        cells = [
            dict(factories=_bound_panel(base), dataset=workload, trials=TRIALS),
            dict(factories=_bound_panel(base), dataset=workload, trials=TRIALS),
        ]
        context = ExecutionContext()
        run_sweep_cells(cells, context=context)
        # Second cell re-serves the first cell's draws from the store.
        assert context.store.misses == TRIALS
        assert context.store.hits == TRIALS * 5

    def test_context_rejected_with_parallel_cells(self, workload):
        base = ApproxQuery.recall_target(0.9, 0.05, 300)
        cells = [
            dict(factories=_bound_panel(base), dataset=workload, trials=TRIALS),
            dict(factories=_bound_panel(base), dataset=workload, trials=TRIALS),
        ]
        with pytest.raises(ValueError, match="n_jobs=1"):
            run_sweep_cells(cells, n_jobs=2, context=ExecutionContext())


class TestCrossWorkerWarmup:
    """Parallel runs with a store_dir pre-spill their distinct draws
    before forking, so workers warm up from disk instead of racing to
    re-label the same (dataset, design, seed) keys."""

    def test_prewarm_spills_one_file_per_distinct_key(self, workload, tmp_path):
        from repro.core import SampleStore
        from repro.experiments.runner import _prewarm_store_dir

        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        slots = [(factory, label) for label, factory in _bound_panel(query).items()]
        _prewarm_store_dir(slots, workload, trials=3, base_seed=0, store_dir=str(tmp_path))
        # Three bounds share one uniform design -> one spill per seed.
        assert len(list(tmp_path.glob("sample-*.npz"))) == 3
        follower = SampleStore(store_dir=str(tmp_path))
        context = ExecutionContext(store=follower)
        compare_methods(_bound_panel(query), workload, trials=3, context=context)
        assert follower.stats()["labels_drawn"] == 0
        assert follower.stats()["disk_hits"] == 3

    def test_parallel_panel_with_store_dir_matches_sequential(self, workload, tmp_path):
        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        sequential = compare_methods(_bound_panel(query), workload, trials=4)
        parallel = compare_methods(
            _bound_panel(query), workload, trials=4, n_jobs=2, store_dir=str(tmp_path)
        )
        assert parallel == sequential
        assert len(list(tmp_path.glob("sample-*.npz"))) == 4

    def test_parallel_cells_with_store_dir_share_labels(self, workload, tmp_path):
        from repro.core import SampleStore

        base = ApproxQuery.recall_target(0.9, 0.05, 300)
        cells = [
            dict(factories=_bound_panel(base), dataset=workload, trials=TRIALS),
            dict(factories=_bound_panel(base), dataset=workload, trials=TRIALS),
        ]
        sequential = run_sweep_cells(cells)
        parallel = run_sweep_cells(cells, n_jobs=2, store_dir=str(tmp_path))
        assert parallel == sequential
        # Both cells revisit the same keys: one spill per seed total,
        # written by the parent before the fork.
        assert len(list(tmp_path.glob("sample-*.npz"))) == TRIALS
        from repro.sampling import SampleDesign

        follower = SampleStore(store_dir=str(tmp_path))
        follower.fetch(workload, SampleDesign(kind="uniform", budget=300), 0)
        assert follower.labels_drawn == 0 and follower.disk_hits == 1


class TestUnionSortedUnique:
    """The searchsorted merge behind materialize_selection must equal
    np.union1d exactly for every sorted-unique input shape."""

    def test_matches_union1d_on_random_inputs(self):
        import numpy as np

        from repro.core.pipeline import _union_sorted_unique

        rng = np.random.default_rng(0)
        for _ in range(100):
            a = np.unique(rng.integers(0, 300, size=int(rng.integers(0, 40))))
            b = np.unique(rng.integers(0, 300, size=int(rng.integers(0, 200))))
            np.testing.assert_array_equal(
                _union_sorted_unique(a, b), np.union1d(a, b)
            )

    def test_edge_shapes(self):
        import numpy as np

        from repro.core.pipeline import _union_sorted_unique

        empty = np.array([], dtype=np.intp)
        b = np.array([2, 5, 9], dtype=np.intp)
        np.testing.assert_array_equal(_union_sorted_unique(empty, b), b)
        np.testing.assert_array_equal(_union_sorted_unique(b, empty), b)
        np.testing.assert_array_equal(_union_sorted_unique(b, b), b)
        a = np.array([0, 10], dtype=np.intp)  # straddles both ends of b
        np.testing.assert_array_equal(
            _union_sorted_unique(a, b), np.array([0, 2, 5, 9, 10])
        )


# -- driver equivalence: rebuilt drivers vs the pre-refactor loops -------------


def _legacy_panel(factories, dataset, trials, base_seed):
    """The pre-refactor compare_methods: independent per-method loops."""
    return {
        label: run_trials(factory, dataset, trials, base_seed, method_name=label)
        for label, factory in factories.items()
    }


class TestDriverEquivalence:
    def test_figure9_matches_legacy_loops(self):
        delta, level, seed = 0.05, 0.02, 0
        result = figure9(trials=TRIALS, noise_levels=(level,), size=SIZE, seed=seed)

        base = make_beta_dataset(0.01, 2.0, size=SIZE, seed=seed)
        budget = FAST_BUDGETS["beta(0.01,2)"]
        pt_query = ApproxQuery.precision_target(0.95, delta, budget)
        rt_query = ApproxQuery.recall_target(0.9, delta, budget)
        noisy = add_proxy_noise(base, level, seed=seed + 1)
        rows = []
        summaries = {}
        pt_panel = _legacy_panel(
            {
                "U-CI": lambda: UniformCIPrecision(pt_query),
                "SUPG": lambda: ImportanceCIPrecisionTwoStage(pt_query),
            },
            noisy, TRIALS, seed + 2,
        )
        rt_panel = _legacy_panel(
            {
                "U-CI": lambda: UniformCIRecall(rt_query),
                "SUPG": lambda: ImportanceCIRecall(rt_query),
            },
            noisy, TRIALS, seed + 2,
        )
        for label, summary in pt_panel.items():
            summaries[f"pt|{level}|{label}"] = summary
            rows.append(("precision-target", level, label, summary.mean_quality))
        for label, summary in rt_panel.items():
            summaries[f"rt|{level}|{label}"] = summary
            rows.append(("recall-target", level, label, summary.mean_quality))
        assert result.rows == tuple(rows)
        assert dict(result.summaries) == summaries

    def test_figure10_matches_legacy_loops(self):
        delta, beta, seed = 0.05, 1.0, 0
        result = figure10(trials=TRIALS, betas=(beta,), size=SIZE, seed=seed)

        budget = FAST_BUDGETS["beta(0.01,2)"]
        pt_query = ApproxQuery.precision_target(0.95, delta, budget)
        rt_query = ApproxQuery.recall_target(0.9, delta, budget)
        dataset = make_beta_dataset(0.01, beta, size=SIZE, seed=seed)
        pt_panel = _legacy_panel(
            {
                "U-CI": lambda: UniformCIPrecision(pt_query),
                "SUPG": lambda: ImportanceCIPrecisionTwoStage(pt_query),
            },
            dataset, TRIALS, seed + 1,
        )
        rt_panel = _legacy_panel(
            {
                "U-CI": lambda: UniformCIRecall(rt_query),
                "SUPG": lambda: ImportanceCIRecall(rt_query),
            },
            dataset, TRIALS, seed + 1,
        )
        rows = []
        tpr = dataset.positive_rate
        for label, summary in pt_panel.items():
            rows.append(("precision-target", beta, tpr, label, summary.mean_quality))
        for label, summary in rt_panel.items():
            rows.append(("recall-target", beta, tpr, label, summary.mean_quality))
        assert result.rows == tuple(rows)

    def test_figure11_matches_legacy_loops(self):
        delta, seed = 0.05, 0
        steps, mixes = (100, 200), (0.1, 0.3)
        result = figure11(
            trials=TRIALS, steps=steps, mixing_ratios=mixes, size=SIZE, seed=seed
        )
        dataset = make_beta_dataset(0.01, 2.0, size=SIZE, seed=seed)
        budget = FAST_BUDGETS["beta(0.01,2)"]
        pt_query = ApproxQuery.precision_target(0.95, delta, budget)
        rt_query = ApproxQuery.recall_target(0.9, delta, budget)
        rows = []
        for m in steps:
            summary = run_trials(
                lambda m=m: ImportanceCIPrecisionTwoStage(pt_query, step=m),
                dataset, TRIALS, seed + 1, method_name=f"SUPG m={m}",
            )
            rows.append(("precision-target", f"m={m}", summary.mean_quality))
        for mix in mixes:
            summary = run_trials(
                lambda mix=mix: ImportanceCIRecall(rt_query, mixing=mix),
                dataset, TRIALS, seed + 1, method_name=f"SUPG mix={mix}",
            )
            rows.append(("recall-target", f"mixing={mix}", summary.mean_quality))
        assert result.rows == tuple(rows)

    def test_figure12_matches_legacy_loops(self):
        delta, seed = 0.05, 0
        exponents = (0.0, 0.5, 1.0)
        result = figure12(trials=TRIALS, exponents=exponents, size=SIZE, seed=seed)
        dataset = make_beta_dataset(0.01, 2.0, size=SIZE, seed=seed)
        query = ApproxQuery.recall_target(0.9, delta, FAST_BUDGETS["beta(0.01,2)"])
        rows = []
        for exponent in exponents:
            summary = run_trials(
                lambda e=exponent: ImportanceCIRecall(query, weight_exponent=e),
                dataset, TRIALS, seed + 1, method_name=f"exponent={exponent}",
            )
            rows.append((exponent, summary.mean_quality, summary.failure_rate))
        assert result.rows == tuple(rows)

    def test_figure13_matches_legacy_loops(self):
        delta, gamma, seed, budget = 0.05, 0.9, 0, 600
        result = figure13(
            trials=TRIALS, gamma=gamma, size=SIZE, budget=budget, seed=seed
        )
        dataset = make_beta_dataset(0.01, 1.0, size=SIZE, seed=seed)
        query = ApproxQuery.recall_target(gamma, delta, budget)
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
        rows = []
        summaries = {}
        for label, bound in uniform_bounds.items():
            summary = run_trials(
                lambda b=bound: UniformCIRecall(query, bound=b),
                dataset, TRIALS, seed + 1, method_name=f"U-CI-R/{label}",
            )
            summaries[f"uniform|{label}"] = summary
            rows.append(("uniform", label, summary.mean_quality, summary.failure_rate))
        for label, bound in supg_bounds.items():
            summary = run_trials(
                lambda b=bound: ImportanceCIRecall(query, bound=b),
                dataset, TRIALS, seed + 1, method_name=f"IS-CI-R/{label}",
            )
            summaries[f"supg|{label}"] = summary
            rows.append(("supg", label, summary.mean_quality, summary.failure_rate))
        assert result.rows == tuple(rows)
        assert dict(result.summaries) == summaries

    def test_figure13_parallel_matches_sequential(self):
        sequential = figure13(trials=3, size=SIZE, budget=600, n_jobs=1)
        parallel = figure13(trials=3, size=SIZE, budget=600, n_jobs=2)
        assert parallel.rows == sequential.rows


class TestDriverDrawCounts:
    """One oracle draw per distinct (dataset, seed, design) cell."""

    def test_figure13_draws_two_designs_per_seed(self):
        context = ExecutionContext()
        figure13(trials=TRIALS, size=SIZE, budget=600, context=context)
        # 7 methods over 2 designs: the 4 U-CI-R bounds share the
        # uniform draw, the 3 IS-CI-R bounds the proxy-weighted one.
        assert context.store.misses == TRIALS * 2
        assert context.store.hits == TRIALS * 5

    def test_figure9_draws_three_designs_per_seed(self):
        context = ExecutionContext()
        figure9(trials=TRIALS, noise_levels=(0.02,), size=SIZE, context=context)
        # uniform(budget) is shared by the PT and RT U-CI methods;
        # IS-CI-P's stage 1 (budget//2) and IS-CI-R (budget) differ.
        assert context.store.misses == TRIALS * 3
        assert context.store.hits == TRIALS * 1

    def test_figure10_draws_three_designs_per_seed(self):
        context = ExecutionContext()
        figure10(trials=TRIALS, betas=(1.0,), size=SIZE, context=context)
        assert context.store.misses == TRIALS * 3
        assert context.store.hits == TRIALS * 1

    def test_figure11_step_axis_shares_stage1(self):
        context = ExecutionContext()
        figure11(
            trials=TRIALS, steps=(100, 200, 300), mixing_ratios=(0.1,),
            size=SIZE, context=context,
        )
        # All step values share one stage-1 design; the mixing value is
        # its own design.
        assert context.store.misses == TRIALS * 2
        assert context.store.hits == TRIALS * 2

    def test_figure12_each_exponent_is_a_distinct_design(self):
        context = ExecutionContext()
        figure12(trials=TRIALS, exponents=(0.0, 0.5), size=SIZE, context=context)
        assert context.store.misses == TRIALS * 2
        assert context.store.hits == 0

    def test_figure13_second_store_dir_run_draws_nothing(self, tmp_path):
        first = figure13(trials=TRIALS, size=SIZE, budget=600, store_dir=str(tmp_path))
        context = ExecutionContext(store=SampleStore(store_dir=str(tmp_path)))
        second = figure13(trials=TRIALS, size=SIZE, budget=600, context=context)
        assert second.rows == first.rows
        stats = context.stats()
        assert stats["labels_drawn"] == 0 and stats["misses"] == 0
        assert stats["disk_hits"] == TRIALS * 2
