"""Unit tests for the dataset substrate."""

import numpy as np
import pytest

from repro.core.thresholds import SELECT_EVERYTHING, SELECT_NOTHING
from repro.datasets import (
    EVALUATION_DATASETS,
    Dataset,
    REAL_WORKLOADS,
    add_proxy_noise,
    apply_fog,
    available_datasets,
    load_dataset,
    make_beta_dataset,
    make_drift_pair,
    make_imagenet,
    make_workload,
)


class TestDatasetContainer:
    def test_basic_properties(self, tiny_dataset):
        assert len(tiny_dataset) == 10
        assert tiny_dataset.positive_count == 4
        assert tiny_dataset.positive_rate == pytest.approx(0.4)
        np.testing.assert_array_equal(tiny_dataset.positive_indices, [0, 1, 2, 3])

    def test_select_above(self, tiny_dataset):
        np.testing.assert_array_equal(tiny_dataset.select_above(0.7), [0, 1, 2])
        assert tiny_dataset.select_above(2.0).size == 0
        assert tiny_dataset.select_above(0.0).size == 10

    def test_select_above_sentinels(self, tiny_dataset):
        # The selector sentinels must honor their contracts exactly.
        assert tiny_dataset.select_above(SELECT_NOTHING).size == 0
        np.testing.assert_array_equal(
            tiny_dataset.select_above(SELECT_EVERYTHING), np.arange(10)
        )

    def test_select_above_ties_are_inclusive(self, tiny_dataset):
        # tau equal to a stored score keeps that record (>= semantics).
        np.testing.assert_array_equal(tiny_dataset.select_above(0.75), [0, 1, 2])
        np.testing.assert_array_equal(tiny_dataset.select_above(0.05), np.arange(10))

    def test_count_above_matches_selection(self, tiny_dataset):
        for tau in (0.0, 0.05, 0.3, 0.75, 0.951, SELECT_NOTHING, SELECT_EVERYTHING):
            assert tiny_dataset.count_above(tau) == tiny_dataset.select_above(tau).size

    def test_nan_scores_rejected(self):
        # NaN would silently break dense/indexed select equivalence
        # (compares false against every tau, sorts to the end), so the
        # container refuses it up front.
        with pytest.raises(ValueError, match="NaN"):
            Dataset(
                proxy_scores=np.array([0.2, np.nan, 0.8]),
                labels=np.array([0, 0, 1]),
            )

    def test_subset_preserves_alignment(self, tiny_dataset):
        sub = tiny_dataset.subset(np.array([0, 5, 9]))
        np.testing.assert_allclose(sub.proxy_scores, [0.95, 0.45, 0.05])
        np.testing.assert_array_equal(sub.labels, [1, 0, 0])

    def test_with_scores_keeps_labels(self, tiny_dataset):
        new = tiny_dataset.with_scores(np.linspace(0, 1, 10))
        np.testing.assert_array_equal(new.labels, tiny_dataset.labels)

    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(proxy_scores=np.array([1.5]), labels=np.array([1]))
        with pytest.raises(ValueError, match="binary"):
            Dataset(proxy_scores=np.array([0.5]), labels=np.array([2]))
        with pytest.raises(ValueError, match="aligned"):
            Dataset(proxy_scores=np.array([0.5, 0.6]), labels=np.array([1]))
        with pytest.raises(ValueError, match="at least one"):
            Dataset(proxy_scores=np.array([]), labels=np.array([]))

    @pytest.mark.parametrize(
        "labels",
        [np.array([True, False]), np.array([1, 0], dtype=np.int8), np.array([1.0, 0.0])],
        ids=["bool", "int8", "float"],
    )
    def test_binary_labels_of_any_dtype_are_accepted(self, labels):
        data = Dataset(proxy_scores=np.array([0.5, 0.25]), labels=labels)
        assert data.labels.dtype == np.int8
        np.testing.assert_array_equal(data.labels, [1, 0])

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_non_binary_labels_are_rejected(self, bad):
        with pytest.raises(ValueError, match=r"labels must be binary \(0/1\)"):
            Dataset(proxy_scores=np.array([0.5, 0.25]), labels=np.array([1.0, bad]))

    def test_describe_mentions_name_and_rate(self, tiny_dataset):
        text = tiny_dataset.describe()
        assert "tiny" in text and "4 positives" in text


class TestBetaDataset:
    def test_paper_parameters_give_expected_rate(self):
        # Beta(0.01, 1) has mean ~1%, so labels are ~1% positive.
        ds = make_beta_dataset(0.01, 1.0, size=100_000, seed=0)
        assert ds.positive_rate == pytest.approx(0.01, abs=0.003)

    def test_calibration_by_construction(self):
        """O ~ Bernoulli(A) means high-score buckets match more often."""
        ds = make_beta_dataset(0.5, 0.5, size=50_000, seed=1)
        high = ds.labels[ds.proxy_scores > 0.8].mean()
        low = ds.labels[ds.proxy_scores < 0.2].mean()
        assert high > 0.8 and low < 0.2

    def test_deterministic_given_seed(self):
        a = make_beta_dataset(0.01, 2.0, size=1_000, seed=5)
        b = make_beta_dataset(0.01, 2.0, size=1_000, seed=5)
        np.testing.assert_array_equal(a.proxy_scores, b.proxy_scores)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_beta_dataset(0.0, 1.0)
        with pytest.raises(ValueError):
            make_beta_dataset(1.0, 1.0, size=0)

    def test_noise_preserves_labels_and_range(self):
        ds = make_beta_dataset(0.01, 2.0, size=10_000, seed=2)
        noisy = add_proxy_noise(ds, 0.05, seed=3)
        np.testing.assert_array_equal(noisy.labels, ds.labels)
        assert noisy.proxy_scores.min() >= 0.0
        assert noisy.proxy_scores.max() <= 1.0
        assert not np.array_equal(noisy.proxy_scores, ds.proxy_scores)

    def test_negative_noise_rejected(self):
        ds = make_beta_dataset(0.01, 2.0, size=100, seed=2)
        with pytest.raises(ValueError):
            add_proxy_noise(ds, -0.1)


class TestRealWorldWorkloads:
    @pytest.mark.parametrize("name", sorted(REAL_WORKLOADS))
    def test_positive_rates_match_table2(self, name):
        spec = REAL_WORKLOADS[name]
        ds = make_workload(spec, seed=0)
        assert ds.positive_rate == pytest.approx(spec.positive_rate, rel=0.01)

    def test_imagenet_has_exactly_fifty_positives(self):
        ds = make_imagenet(seed=0)
        assert ds.size == 50_000
        assert ds.positive_count == 50

    def test_size_override_scales_positives(self):
        ds = make_imagenet(size=10_000, seed=0)
        assert ds.size == 10_000
        assert ds.positive_count == 10

    def test_proxies_separate_classes(self):
        """Positives must score higher on average — the monotone-proxy
        assumption of Section 4.2."""
        for name in sorted(REAL_WORKLOADS):
            ds = make_workload(REAL_WORKLOADS[name], size=20_000, seed=1)
            pos_mean = ds.proxy_scores[ds.labels == 1].mean()
            neg_mean = ds.proxy_scores[ds.labels == 0].mean()
            assert pos_mean > neg_mean + 0.3, name

    def test_records_shuffled(self):
        ds = make_imagenet(size=5_000, seed=0)
        # Positives should not be clustered at the front.
        assert ds.positive_indices.max() > 1_000

    def test_tiny_size_keeps_one_positive(self):
        ds = make_imagenet(size=100, seed=0)
        assert ds.positive_count >= 1


class TestDrift:
    def test_fog_preserves_labels(self):
        clean = make_imagenet(size=5_000, seed=0)
        foggy = apply_fog(clean, severity=0.4, seed=1)
        np.testing.assert_array_equal(foggy.labels, clean.labels)
        assert foggy.name.endswith("-fog")

    def test_fog_contracts_scores_toward_middle(self):
        clean = make_imagenet(size=20_000, seed=0)
        foggy = apply_fog(
            clean, severity=0.5, noise_std=0.0, hallucination_fraction=0.0, seed=1
        )
        np.testing.assert_allclose(
            foggy.proxy_scores, 0.5 * clean.proxy_scores + 0.25, atol=1e-12
        )

    def test_fog_hallucinations_hit_only_negatives(self):
        clean = make_imagenet(size=20_000, seed=0)
        foggy = apply_fog(
            clean, severity=0.0, noise_std=0.0, hallucination_fraction=0.05, seed=1
        )
        changed = foggy.proxy_scores != clean.proxy_scores
        assert changed.any()
        assert not (changed & (clean.labels == 1)).any()

    def test_fog_parameter_validation(self):
        clean = make_imagenet(size=100, seed=0)
        with pytest.raises(ValueError):
            apply_fog(clean, severity=1.5)
        with pytest.raises(ValueError):
            apply_fog(clean, noise_std=-0.1)

    @pytest.mark.parametrize("scenario", ["imagenet", "night-street", "beta"])
    def test_drift_pairs_materialize(self, scenario):
        kwargs = {"size": 5_000} if scenario != "beta" else {"size": 5_000}
        train, test = make_drift_pair(scenario, seed=0, **kwargs)
        assert train.size == test.size == 5_000
        assert train.name != test.name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="imagenet"):
            make_drift_pair("nope")


class TestRegistry:
    def test_six_evaluation_datasets(self):
        assert len(EVALUATION_DATASETS) == 6
        assert set(EVALUATION_DATASETS) <= set(available_datasets())

    @pytest.mark.parametrize("name", EVALUATION_DATASETS)
    def test_load_every_workload(self, name):
        ds = load_dataset(name, size=2_000, seed=0)
        assert ds.size == 2_000

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError, match="imagenet"):
            load_dataset("unknown")
