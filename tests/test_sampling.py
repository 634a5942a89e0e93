"""Unit tests for the sampling substrate."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.importance
from repro.core.registry import make_selector
from repro.core.stats_backend import DiskBackend
from repro.datasets import make_beta_dataset
from repro.query import SupgEngine
from repro.query.parser import parse_query
from repro.sampling import (
    DEFAULT_EXPONENT,
    DEFAULT_MIXING,
    SampleDesign,
    proxy_sampling_weights,
    sampling_cdf,
    uniform_sample,
    uniform_weights,
    weighted_sample,
)


class TestUniformSample:
    def test_returns_requested_count(self, rng):
        idx = uniform_sample(1000, 50, rng)
        assert idx.shape == (50,)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_without_replacement_unique(self, rng):
        idx = uniform_sample(100, 100, rng, replace=False)
        assert len(np.unique(idx)) == 100

    def test_without_replacement_overdraw_rejected(self, rng):
        with pytest.raises(ValueError, match="without replacement"):
            uniform_sample(10, 11, rng, replace=False)

    def test_invalid_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            uniform_sample(0, 5, rng)
        with pytest.raises(ValueError):
            uniform_sample(10, 0, rng)

    def test_approximately_uniform(self, rng):
        idx = uniform_sample(10, 50_000, rng)
        counts = np.bincount(idx, minlength=10)
        assert counts.min() > 4_000  # each cell expects 5000

    def test_uniform_weights_vector(self):
        w = uniform_weights(4)
        np.testing.assert_allclose(w, [0.25] * 4)


class TestProxyWeights:
    def test_normalized(self):
        scores = np.array([0.1, 0.5, 0.9])
        w = proxy_sampling_weights(scores)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w > 0)

    def test_default_is_sqrt_with_mixing(self):
        scores = np.array([0.04, 0.16, 0.64])
        w = proxy_sampling_weights(scores)
        sqrt = np.sqrt(scores)
        expected = 0.9 * sqrt / sqrt.sum() + 0.1 / 3
        np.testing.assert_allclose(w, expected)

    def test_exponent_zero_is_uniform(self):
        scores = np.array([0.0, 0.3, 0.9])
        w = proxy_sampling_weights(scores, exponent=0.0)
        np.testing.assert_allclose(w, [1 / 3] * 3)

    def test_exponent_one_is_proportional(self):
        scores = np.array([0.2, 0.3, 0.5])
        w = proxy_sampling_weights(scores, exponent=1.0, mixing=0.0)
        np.testing.assert_allclose(w, scores)

    def test_mixing_keeps_zero_score_records_samplable(self):
        scores = np.array([0.0, 0.0, 1.0])
        w = proxy_sampling_weights(scores, mixing=DEFAULT_MIXING)
        assert np.all(w > 0)

    def test_all_zero_scores_fall_back_to_uniform(self):
        w = proxy_sampling_weights(np.zeros(5))
        np.testing.assert_allclose(w, [0.2] * 5)

    def test_all_zero_without_mixing_rejected(self):
        with pytest.raises(ValueError, match="defensive mixing"):
            proxy_sampling_weights(np.zeros(5), mixing=0.0)

    def test_scores_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            proxy_sampling_weights(np.array([0.5, 1.5]))

    def test_invalid_mixing_rejected(self):
        with pytest.raises(ValueError):
            proxy_sampling_weights(np.array([0.5]), mixing=1.5)

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            proxy_sampling_weights(np.array([0.5]), exponent=-1.0)

    def test_defaults_match_paper(self):
        assert DEFAULT_EXPONENT == 0.5
        assert DEFAULT_MIXING == 0.1


class TestWeightedSample:
    def test_mass_is_inverse_probability_ratio(self, rng):
        weights = np.array([0.7, 0.1, 0.1, 0.1])
        sample = weighted_sample(weights, 100, rng)
        expected_mass = (1 / 4) / weights[sample.indices]
        np.testing.assert_allclose(sample.mass, expected_mass)

    def test_respects_weights(self, rng):
        weights = np.array([0.9, 0.05, 0.05])
        sample = weighted_sample(weights, 20_000, rng)
        frac_zero = float(np.mean(sample.indices == 0))
        assert frac_zero == pytest.approx(0.9, abs=0.02)

    def test_unnormalized_weights_accepted(self, rng):
        sample = weighted_sample(np.array([7.0, 1.0, 1.0, 1.0]), 50, rng)
        assert sample.size == 50

    def test_mean_mass_near_one(self, rng):
        """E_w[u/w] = 1, so reweighting factors average to ~1."""
        weights = proxy_sampling_weights(rng.random(500))
        sample = weighted_sample(weights, 20_000, rng)
        assert sample.mass.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_inputs_rejected(self, rng):
        with pytest.raises(ValueError):
            weighted_sample(np.array([]), 10, rng)
        with pytest.raises(ValueError):
            weighted_sample(np.array([0.5, 0.5]), 0, rng)
        with pytest.raises(ValueError):
            weighted_sample(np.array([-0.1, 1.1]), 10, rng)
        with pytest.raises(ValueError):
            weighted_sample(np.array([0.0, 0.0]), 10, rng)
        # rng.choice raised on these three: NaN, +inf, and a total that
        # overflows to inf.
        with pytest.raises(ValueError):
            weighted_sample(np.array([np.nan, 1.0]), 10, rng)
        with pytest.raises(ValueError):
            weighted_sample(np.array([np.inf, 1.0]), 10, rng)
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            weighted_sample(np.array([1e308, 1e308]), 10, rng)


# ----------------------------------------------------------------------
# The sampler pinned to numpy: every importance draw must stay
# byte-identical to ``rng.choice(p=...)``, so a numpy release that
# changes how ``choice`` builds or searches its table fails here.
# ----------------------------------------------------------------------


def reference_weighted_sample(weights, sample_size, rng):
    """The ``rng.choice`` sampler the cached CDF replaced, verbatim but
    for the return value (the normalized weight vector is dropped)."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weights must be a non-empty 1-D array, got shape {w.shape}")
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    w = w / total

    indices = rng.choice(w.size, size=sample_size, replace=True, p=w)
    uniform_mass = 1.0 / w.size
    sampled_w = w[indices]
    mass = uniform_mass / sampled_w
    return indices, mass


POSITIVE = st.floats(min_value=1e-300, max_value=1.0)
TIES = st.sampled_from([1e-300, 1e-12, 0.25, 0.5, 1.0])


@st.composite
def weight_vectors(draw):
    """Non-negative vectors with a positive total: n = 1, one non-zero
    entry, or a core of zeros, ties and values from 1e-300 to 1 between
    runs of zeros at both ends.  They are valid scores in [0, 1] too."""
    shape = draw(st.sampled_from(["one", "single", "runs"]))
    if shape == "one":
        return np.array([draw(POSITIVE)])
    if shape == "single":
        weights = np.zeros(draw(st.integers(2, 300)))
        weights[draw(st.integers(0, weights.size - 1))] = draw(POSITIVE)
        return weights
    core = draw(st.lists(st.one_of(st.just(0.0), POSITIVE, TIES), min_size=1, max_size=300))
    weights = np.concatenate(
        [np.zeros(draw(st.integers(0, 40))), core, np.zeros(draw(st.integers(0, 40)))]
    )
    if not weights.any():
        weights[weights.size // 2] = draw(POSITIVE)
    return weights


SIZES = st.integers(1, 2000)
SEEDS = st.integers(0, 2**32 - 1)

#: The (exponent, mixing) grid of the backend pins.
WEIGHT_DESIGNS = [(0.5, 0.1), (1.0, 0.0), (0.0, 0.2), (2.0, 1.0)]


class TestSamplerPinnedToNumpy:
    @settings(max_examples=200, deadline=None)
    @given(weights=weight_vectors(), size=SIZES, seed=SEEDS)
    def test_weighted_sample_is_rng_choice(self, weights, size, seed):
        ours, reference, choice = (np.random.default_rng(seed) for _ in range(3))
        before = weights.copy()
        sample = weighted_sample(weights, size, ours)
        ref_indices, ref_mass = reference_weighted_sample(weights, size, reference)
        expected = choice.choice(weights.size, size, replace=True, p=weights / weights.sum())
        assert sample.indices.dtype == expected.dtype == np.int64
        assert sample.indices.tobytes() == expected.tobytes() == ref_indices.tobytes()
        assert sample.mass.tobytes() == ref_mass.tobytes()
        assert ours.bit_generator.state == choice.bit_generator.state
        assert ours.bit_generator.state == reference.bit_generator.state
        assert weights.tobytes() == before.tobytes()  # the caller's weights stay

    @settings(max_examples=150, deadline=None)
    @given(
        scores=weight_vectors(),
        design=st.sampled_from(WEIGHT_DESIGNS),
        size=SIZES,
        seed=SEEDS,
    )
    def test_statistic_draw_is_the_weight_vector_draw(self, scores, design, size, seed):
        """A draw from the cached CDF, reading only the sampled scores,
        equals the reference draw over the full weight vector."""
        exponent, mixing = design
        try:
            weights = proxy_sampling_weights(scores, exponent, mixing)
        except ValueError:
            with pytest.raises(ValueError, match="defensive mixing is disabled"):
                sampling_cdf(scores, exponent, mixing)
            return
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        statistic = sampling_cdf(scores, exponent, mixing)
        sample = statistic.draw(scores, size, ours)
        ref_indices, ref_mass = reference_weighted_sample(weights, size, reference)
        assert sample.indices.dtype == np.int64
        assert sample.indices.tobytes() == ref_indices.tobytes()
        assert sample.mass.tobytes() == ref_mass.tobytes()
        assert ours.bit_generator.state == reference.bit_generator.state
        assert statistic.weights(scores).tobytes() == weights.tobytes()


def reference_design_draw(self, dataset, rng):
    """``SampleDesign.draw`` over the full weight vector and the
    ``rng.choice`` sampler."""
    if self.kind == "uniform":
        indices = uniform_sample(dataset.size, self.budget, rng, replace=self.replace)
        return indices, np.ones(indices.size, dtype=float)
    weights = proxy_sampling_weights(dataset.proxy_scores, self.exponent, self.mixing)
    return reference_weighted_sample(weights, self.budget, rng)


class _ReferenceSample:
    def __init__(self, weights, sample_size, rng):
        self.indices, self.mass = reference_weighted_sample(weights, sample_size, rng)


SELECTION_SQL = [
    ("RECALL TARGET 90%", "is-ci-r"),
    ("PRECISION TARGET 80%", "is-ci-p-one-stage"),
    ("PRECISION TARGET 80%", "is-ci-p"),
]


def _selection_digests(path, backend, store_dir):
    """Digests of RT, one-stage PT and two-stage PT selections on two
    seeds: through ``Selector.select`` or the engine's ``execute`` and
    ``execute_many`` at jobs 1 and 2."""
    statements = [
        (f"SELECT * FROM t WHERE O(x) = True ORACLE LIMIT 800 USING A(x) {target} "
         "WITH PROBABILITY 95%", method, seed)
        for seed in (3, 4)
        for target, method in SELECTION_SQL
    ]
    data = make_beta_dataset(0.01, 1.0, size=30_000, seed=2)
    if path == "select":
        if backend == "disk":
            data.use_backend(DiskBackend(store_dir))
        results = [
            make_selector(method, parse_query(sql).to_approx_query()).select(data, seed=seed)
            for sql, method, seed in statements
        ]
    else:
        engine = SupgEngine(
            backend=backend, store_dir=str(store_dir) if backend == "disk" else None
        )
        engine.register_table("t", data)
        if path == "execute":
            executions = [
                engine.execute(sql, seed=seed, method=method) for sql, method, seed in statements
            ]
        else:
            executions = engine.execute_many(
                [sql for sql, _, _ in statements],
                seed=[seed for _, _, seed in statements],
                method=[method for _, method, _ in statements],
                jobs=int(path[-1]),
            )
        results = [execution.result for execution in executions]
    digests = []
    for result in results:
        digest = hashlib.sha256(result.indices.tobytes())
        digest.update(repr((str(result.indices.dtype), result.tau, result.oracle_calls,
                            sorted((k, repr(v)) for k, v in result.details.items()))).encode())
        digests.append(digest.hexdigest())
    return digests


@pytest.mark.parametrize("backend", ["memory", "disk"])
@pytest.mark.parametrize("path", ["select", "execute", "many-1", "many-2"])
def test_selections_match_the_rng_choice_reference(tmp_path, monkeypatch, backend, path):
    """RT, one-stage PT and two-stage PT selections are byte-identical
    to those the ``rng.choice`` sampler gives, on both backends and
    across the fork fan-out.  The region weights the two-stage draw
    samples from are pinned by the next test."""
    drawn = _selection_digests(path, backend, tmp_path / "head")
    monkeypatch.setattr(SampleDesign, "draw", reference_design_draw)
    monkeypatch.setattr(repro.core.importance, "weighted_sample", _ReferenceSample)
    assert _selection_digests(path, backend, tmp_path / "reference") == drawn


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_region_weights_are_the_weight_vector_entries(tmp_path, monkeypatch, backend):
    """The two-stage region draw samples from the full design's weights
    at the region's records, computed from their scores alone."""
    data = make_beta_dataset(0.01, 1.0, size=30_000, seed=2)
    if backend == "disk":
        data.use_backend(DiskBackend(tmp_path, chunk_records=4096))
    drawn = []

    def spy(weights, sample_size, rng):
        drawn.append(np.array(weights))
        return weighted_sample(weights, sample_size, rng)

    monkeypatch.setattr(repro.core.importance, "weighted_sample", spy)
    weights = proxy_sampling_weights(data.proxy_scores)
    query = parse_query(
        "SELECT * FROM t WHERE O(x) = True ORACLE LIMIT 800 USING A(x) "
        "PRECISION TARGET 80% WITH PROBABILITY 95%"
    ).to_approx_query()
    for seed in range(3):
        result = make_selector("is-ci-p", query).select(data, seed=seed)
        region = np.flatnonzero(data.proxy_scores >= result.details["tau_min"])
        assert drawn[-1].tobytes() == weights[region].tobytes()
    assert len(drawn) == 3
