"""Equivalence tests: suffix-batch bounds vs. the scalar reference.

``lower_batch``/``upper_batch`` element ``j`` must equal the scalar
``lower``/``upper`` applied to the suffix ``values[-counts[j]:]``, for
all four bound classes, across the degenerate inputs the candidate
scans actually produce (empty suffixes, all-zero and all-one labels,
reweighted non-binary observations).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bounds import (
    BootstrapBound,
    ClopperPearsonBound,
    HoeffdingBound,
    NormalBound,
    suffix_sums,
)

#: (bound, binary-only) pairs — Clopper-Pearson rejects non-binary data.
ALL_BOUNDS = [
    (NormalBound(), False),
    (HoeffdingBound(), False),
    (HoeffdingBound(value_range=None), False),
    (ClopperPearsonBound(), True),
    (BootstrapBound(n_resamples=50, seed=11), False),
]

#: Bounds whose batch path reuses the scalar arithmetic verbatim, so
#: results must match bit for bit (not just to rounding).
EXACT_BOUNDS = [ClopperPearsonBound(), BootstrapBound(n_resamples=50, seed=11)]


def _scalar_reference(bound, values, counts, delta, side):
    fn = getattr(bound, side)
    return np.array([fn(values[values.size - c :], delta) for c in counts])


def _assert_batch_matches(bound, values, counts, delta, *, exact=False):
    for side in ("lower", "upper"):
        batch = getattr(bound, f"{side}_batch")(values, counts, delta)
        reference = _scalar_reference(bound, values, counts, delta, side)
        assert batch.shape == reference.shape
        if exact:
            np.testing.assert_array_equal(batch, reference)
        else:
            # The batch path derives moments from cumulative sums, so
            # the last few bits can differ from the scalar per-slice
            # mean/std — tolerances cover round-off, not semantics.
            np.testing.assert_allclose(batch, reference, rtol=1e-7, atol=1e-6)


@pytest.mark.parametrize("bound,binary_only", ALL_BOUNDS, ids=lambda b: repr(b))
@given(data=st.data(), delta=st.floats(min_value=0.01, max_value=0.3))
@settings(max_examples=40, deadline=None)
def test_batch_matches_scalar_on_random_samples(bound, binary_only, data, delta):
    n = data.draw(st.integers(0, 60), label="n")
    if binary_only:
        values = data.draw(
            arrays(dtype=float, shape=n, elements=st.sampled_from([0.0, 1.0])),
            label="values",
        )
    else:
        values = data.draw(
            arrays(
                dtype=float,
                shape=n,
                elements=st.floats(0.0, 5.0, allow_nan=False),
            ),
            label="values",
        )
    counts = np.array(
        data.draw(st.lists(st.integers(0, n), min_size=1, max_size=8), label="counts")
    )
    _assert_batch_matches(bound, values, counts, delta)


@pytest.mark.parametrize("bound", EXACT_BOUNDS, ids=lambda b: repr(b))
def test_batch_is_bit_identical_for_exact_bounds(bound):
    rng = np.random.default_rng(5)
    values = (rng.random(200) < 0.3).astype(float)
    counts = np.array([0, 1, 2, 50, 199, 200, 50, 7])
    _assert_batch_matches(bound, values, counts, 0.05, exact=True)


@pytest.mark.parametrize("bound,binary_only", ALL_BOUNDS, ids=lambda b: repr(b))
@pytest.mark.parametrize(
    "values",
    [
        np.array([]),
        np.zeros(25),
        np.ones(25),
        np.array([1.0]),
        np.array([0.0]),
    ],
    ids=["empty", "all-zero", "all-one", "single-one", "single-zero"],
)
def test_batch_matches_scalar_on_edge_samples(bound, binary_only, values):
    counts = np.array([0, values.size, max(values.size // 2, 0)])
    _assert_batch_matches(bound, values, counts, 0.05)


@pytest.mark.parametrize(
    "bound",
    [b for b, binary_only in ALL_BOUNDS if not binary_only],
    ids=lambda b: repr(b),
)
def test_batch_matches_scalar_on_weighted_samples(bound):
    """Reweighted (non-binary, non-constant) observations — the IS path."""
    rng = np.random.default_rng(17)
    values = rng.random(120) * rng.choice([0.5, 1.0, 4.0], size=120)
    counts = np.arange(0, 121, 7)
    _assert_batch_matches(bound, values, counts, 0.1)


def test_clopper_pearson_batch_rejects_non_binary():
    bound = ClopperPearsonBound()
    with pytest.raises(ValueError, match="binary"):
        bound.lower_batch(np.array([0.0, 0.5, 1.0]), np.array([3]), 0.05)


def test_batch_validates_counts_range():
    bound = NormalBound()
    with pytest.raises(ValueError, match="suffix counts"):
        bound.lower_batch(np.ones(4), np.array([5]), 0.05)
    with pytest.raises(ValueError, match="suffix counts"):
        bound.upper_batch(np.ones(4), np.array([-1]), 0.05)


def test_suffix_sums_matches_slicing():
    rng = np.random.default_rng(2)
    values = rng.random(37)
    counts = np.array([0, 1, 5, 37, 20])
    expected = np.array([values[values.size - c :].sum() for c in counts])
    np.testing.assert_allclose(suffix_sums(values, counts), expected, rtol=1e-12)


def test_default_mode_still_bit_identical_to_scalar():
    bound = BootstrapBound(n_resamples=50, seed=11)
    values = (np.random.default_rng(8).random(400) < 0.3).astype(float)
    counts = np.array([0, 1, 50, 200, 400])
    for side in ("lower", "upper"):
        batch = getattr(bound, f"{side}_batch")(values, counts, 0.05)
        reference = _scalar_reference(bound, values, counts, 0.05, side)
        np.testing.assert_array_equal(batch, reference)


def test_empty_suffix_semantics():
    """Zero-count suffixes degrade to the scalar empty-sample values."""
    values = np.array([0.2, 0.8, 1.0])
    zero = np.array([0])
    assert NormalBound().lower_batch(values, zero, 0.05)[0] == -np.inf
    assert NormalBound().upper_batch(values, zero, 0.05)[0] == np.inf
    assert ClopperPearsonBound().lower_batch(np.ones(3), zero, 0.05)[0] == 0.0
    assert ClopperPearsonBound().upper_batch(np.ones(3), zero, 0.05)[0] == 1.0
    assert BootstrapBound(n_resamples=20).lower_batch(values, zero, 0.05)[0] == -np.inf
    assert HoeffdingBound().upper_batch(values, zero, 0.05)[0] == np.inf
