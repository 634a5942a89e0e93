"""Unit tests for selection-quality metrics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.types import SelectionResult
from repro.metrics import (
    SelectionQuality,
    evaluate_selection,
    f1_score,
    precision,
    recall,
    sorted_distinct,
)
from repro.sampling.designs import LabeledSample

LABELS = np.array([1, 1, 0, 0, 1, 0, 0, 0, 0, 0])


class TestPrecisionRecall:
    def test_perfect_selection(self):
        selected = np.array([0, 1, 4])
        assert precision(selected, LABELS) == 1.0
        assert recall(selected, LABELS) == 1.0

    def test_partial_selection(self):
        selected = np.array([0, 2])  # one true positive, one false
        assert precision(selected, LABELS) == pytest.approx(0.5)
        assert recall(selected, LABELS) == pytest.approx(1 / 3)

    def test_empty_selection_conventions(self):
        empty = np.array([], dtype=int)
        assert precision(empty, LABELS) == 1.0  # vacuously precise
        assert recall(empty, LABELS) == 0.0

    def test_no_positives_in_dataset(self):
        labels = np.zeros(5, dtype=int)
        assert recall(np.array([0]), labels) == 1.0  # vacuous recall
        assert precision(np.array([0]), labels) == 0.0

    def test_duplicates_ignored(self):
        selected = np.array([0, 0, 0, 2])
        assert precision(selected, LABELS) == pytest.approx(0.5)

    def test_full_dataset_selection(self):
        everything = np.arange(10)
        assert recall(everything, LABELS) == 1.0
        assert precision(everything, LABELS) == pytest.approx(0.3)


class TestF1AndQuality:
    def test_f1_harmonic_mean(self):
        selected = np.array([0, 2])  # P=0.5, R=1/3
        expected = 2 * 0.5 * (1 / 3) / (0.5 + 1 / 3)
        assert f1_score(selected, LABELS) == pytest.approx(expected)

    def test_f1_zero_when_nothing_right(self):
        labels = np.array([1, 0])
        assert f1_score(np.array([1]), labels) == 0.0

    def test_evaluate_selection_bundle(self):
        quality = evaluate_selection(np.array([0, 1, 2]), LABELS)
        assert quality == SelectionQuality(precision=2 / 3, recall=2 / 3, size=3)
        assert quality.f1 == pytest.approx(2 / 3)

    def test_quality_f1_zero_case(self):
        assert SelectionQuality(precision=0.0, recall=0.0, size=5).f1 == 0.0


@given(
    labels=arrays(dtype=np.int8, shape=st.integers(1, 50), elements=st.sampled_from([0, 1])),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_metrics_bounded_and_consistent(labels, data):
    """Property: metrics in [0,1]; singling out all positives is perfect."""
    n = labels.size
    k = data.draw(st.integers(0, n), label="k")
    selected = data.draw(
        st.permutations(list(range(n))).map(lambda p: np.array(p[:k], dtype=int)),
        label="selected",
    )
    p = precision(selected, labels)
    r = recall(selected, labels)
    assert 0.0 <= p <= 1.0
    assert 0.0 <= r <= 1.0

    exact = np.flatnonzero(labels == 1)
    assert recall(exact, labels) == 1.0
    if exact.size:
        assert precision(exact, labels) == 1.0


#: Every dtype an index set arrives in: ``intp`` from the samplers and
#: scans, narrower ints from callers, ``bool`` masks passed by mistake.
INDEX_DTYPES = [np.intp, np.int8, np.int32, np.uint32, np.bool_]

#: How the values are laid out before the call: the O(k) path takes
#: strictly increasing input, every other order takes the sort path.
ORDERINGS = {
    "as drawn": lambda a: a,
    "sorted": np.sort,
    "reversed": lambda a: np.sort(a)[::-1],
    "duplicated": lambda a: np.repeat(np.sort(a), 2),
    "sorted distinct": lambda a: np.unique(a),
}


class TestSortedDistinct:
    @given(
        values=arrays(
            dtype=st.sampled_from(INDEX_DTYPES),
            shape=st.one_of(st.integers(0, 40), st.tuples(st.integers(0, 6), st.integers(0, 6))),
        ),
        ordering=st.sampled_from(sorted(ORDERINGS)),
    )
    @example(values=np.array([], dtype=np.intp), ordering="as drawn")
    @example(values=np.array([7], dtype=np.int32), ordering="as drawn")
    @example(values=np.array([-5, -5, -1, 0, 2], dtype=np.int8), ordering="reversed")
    @example(values=np.array([[3, 1], [1, -2]], dtype=np.intp), ordering="as drawn")
    @example(values=np.array([True, False, True]), ordering="as drawn")
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_unique_bytewise(self, values, ordering):
        """Same bytes, dtype and shape as ``np.unique`` over ``intp``:
        sorted, reversed, duplicated, empty, single, negative, 2-D and
        every index dtype (``values`` spans each dtype's full range)."""
        arranged = ORDERINGS[ordering](values)
        expected = np.unique(np.asarray(arranged, dtype=np.intp))
        actual = sorted_distinct(arranged)
        assert actual.dtype == expected.dtype == np.intp
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
        assert not np.shares_memory(actual, arranged)

    def test_selection_result_owns_its_indices(self):
        """The fast path copies: a selection never aliases its input."""
        selected = np.arange(0, 100, 3, dtype=np.intp)
        result = SelectionResult(
            indices=selected, tau=0.5, oracle_calls=0, sampled_indices=np.zeros(0)
        )
        assert not np.shares_memory(result.indices, selected)
        selected[0] = 99
        assert result.indices[0] == 0

    def test_labeled_sample_caches_leave_the_draw_alone(self):
        """Reading the read-only distinct sets leaves the draw writable
        and unshared, even when the draw is already sorted and distinct."""
        indices = np.arange(10, dtype=np.intp)
        sample = LabeledSample(
            design=None,
            indices=indices,
            scores=np.linspace(0.0, 1.0, 10),
            labels=np.ones(10, dtype=np.int8),
            mass=np.ones(10),
        )
        for cached in (sample.distinct_indices, sample.distinct_positives):
            assert not cached.flags.writeable
            assert not np.shares_memory(cached, sample.indices)
        assert sample.indices is indices and indices.flags.writeable
        np.testing.assert_array_equal(sample.distinct_indices, indices)
