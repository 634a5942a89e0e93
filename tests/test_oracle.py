"""Unit tests for the budgeted oracle and the cost model."""

from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracle import (
    BudgetedOracle,
    BudgetExhaustedError,
    CostModel,
    DATASET_COST_MODELS,
    HUMAN_LABEL_COST,
    oracle_from_labels,
)


class TestBudgetedOracle:
    def test_returns_ground_truth(self):
        labels = np.array([0, 1, 0, 1, 1])
        oracle = oracle_from_labels(labels, budget=5)
        np.testing.assert_array_equal(oracle.query(np.array([1, 3, 0])), [1, 1, 0])

    def test_budget_enforced(self):
        oracle = oracle_from_labels(np.zeros(100, dtype=int), budget=3)
        oracle.query(np.array([0, 1, 2]))
        with pytest.raises(BudgetExhaustedError):
            oracle.query(np.array([3]))

    def test_budget_checked_before_revealing(self):
        oracle = oracle_from_labels(np.ones(10, dtype=int), budget=2)
        with pytest.raises(BudgetExhaustedError):
            oracle.query(np.array([0, 1, 2]))
        # The failed call leaked nothing and consumed nothing.
        assert oracle.calls_used == 0
        assert oracle.labeled_count == 0

    def test_duplicates_free_by_default(self):
        """Re-querying a labeled record is free (per-record labeling)."""
        oracle = oracle_from_labels(np.ones(10, dtype=int), budget=2)
        oracle.query(np.array([4, 4, 4, 4]))
        assert oracle.calls_used == 1
        oracle.query(np.array([4, 5]))
        assert oracle.calls_used == 2
        assert oracle.remaining() == 0

    def test_strict_mode_charges_duplicates(self):
        oracle = oracle_from_labels(np.ones(10, dtype=int), budget=3, charge_duplicates=True)
        oracle.query(np.array([4, 4, 4]))
        assert oracle.calls_used == 3
        with pytest.raises(BudgetExhaustedError):
            oracle.query(np.array([4]))

    def test_unlimited_budget(self):
        oracle = oracle_from_labels(np.ones(10, dtype=int), budget=None)
        oracle.query(np.arange(10))
        assert oracle.remaining() is None
        assert oracle.labeled_count == 10

    def test_known_positives_sorted(self):
        labels = np.array([1, 0, 1, 0, 1])
        oracle = oracle_from_labels(labels, budget=None)
        oracle.query(np.array([4, 1, 0]))
        np.testing.assert_array_equal(oracle.known_positives(), [0, 4])

    def test_labeled_indices(self):
        oracle = oracle_from_labels(np.zeros(10, dtype=int), budget=None)
        oracle.query(np.array([7, 2, 2]))
        np.testing.assert_array_equal(oracle.labeled_indices(), [2, 7])

    def test_empty_query_is_free(self):
        oracle = oracle_from_labels(np.zeros(5, dtype=int), budget=1)
        result = oracle.query(np.array([], dtype=int))
        assert result.size == 0
        assert oracle.calls_used == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BudgetedOracle(lambda idx: idx, budget=-1)

    def test_misbehaving_label_fn_detected(self):
        oracle = BudgetedOracle(lambda idx: np.zeros(idx.size + 1), budget=None)
        with pytest.raises(ValueError, match="one label per"):
            oracle.query(np.array([0, 1]))


class _DictBudgetedOracle:
    """The dict-memo ``BudgetedOracle`` that the array-backed one
    replaced, kept verbatim as an independent reference."""

    def __init__(
        self,
        label_fn: Callable[[np.ndarray], np.ndarray],
        budget: int | None,
        charge_duplicates: bool = False,
    ) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be non-negative or None, got {budget}")
        self._label_fn = label_fn
        self.budget = budget
        self.charge_duplicates = charge_duplicates
        self._cache: dict[int, int] = {}
        self._calls = 0

    @property
    def calls_used(self) -> int:
        return self._calls

    @property
    def labeled_count(self) -> int:
        return len(self._cache)

    def remaining(self) -> int | None:
        if self.budget is None:
            return None
        return self.budget - self._calls

    def query(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp).ravel()
        if idx.size == 0:
            return np.zeros(0, dtype=np.int8)

        if self.charge_duplicates:
            charge = idx.size
        else:
            new = {int(i) for i in idx} - self._cache.keys()
            charge = len(new)
        if self.budget is not None and self._calls + charge > self.budget:
            raise BudgetExhaustedError(self.budget, self._calls + charge)

        missing = np.array(
            sorted({int(i) for i in idx} - self._cache.keys()), dtype=np.intp
        )
        if missing.size:
            labels = np.asarray(self._label_fn(missing)).astype(np.int8)
            if labels.shape != missing.shape:
                raise ValueError("label_fn must return one label per requested index")
            self._cache.update(zip(missing.tolist(), labels.tolist()))
        self._calls += charge
        return np.array([self._cache[int(i)] for i in idx], dtype=np.int8)

    def labeled_indices(self) -> np.ndarray:
        return np.array(sorted(self._cache), dtype=np.intp)

    def known_positives(self) -> np.ndarray:
        return np.array(
            sorted(i for i, y in self._cache.items() if y == 1), dtype=np.intp
        )


class _RecordingLabeler:
    """Ground-truth lookup that records every request's bytes and can be
    told to answer one call with one label too few."""

    def __init__(self, truth: np.ndarray, short_call: int | None) -> None:
        self.truth = truth
        self.short_call = short_call
        self.requests: list[tuple] = []

    def __call__(self, indices: np.ndarray) -> np.ndarray:
        self.requests.append((indices.dtype.str, indices.shape, indices.tobytes()))
        labels = self.truth[indices]
        return labels[:-1] if len(self.requests) - 1 == self.short_call else labels


def _outcome(oracle, indices):
    """What one call shows a caller: the answer, or the exception."""
    try:
        answer = oracle.query(indices)
    except (BudgetExhaustedError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("answered", answer.dtype.str, answer.shape, answer.tobytes())


def _state(oracle):
    return (
        oracle.calls_used,
        oracle.labeled_count,
        oracle.remaining(),
        oracle.labeled_indices().tobytes(),
        oracle.known_positives().tobytes(),
    )


@given(
    truth=st.lists(st.integers(0, 2), min_size=30, max_size=30),
    queries=st.lists(
        st.lists(st.integers(-3, 29), max_size=12).map(lambda q: np.array(q, dtype=np.int64)),
        min_size=1,
        max_size=8,
    ),
    budget=st.one_of(st.none(), st.integers(0, 40)),
    charge_duplicates=st.booleans(),
    short_call=st.one_of(st.none(), st.integers(0, 5)),
)
@settings(max_examples=80, deadline=None)
def test_array_memo_matches_the_dict_reference(
    truth, queries, budget, charge_duplicates, short_call
):
    """Duplicates, re-queried records, negative indices, budgets running
    out part way, ``budget=None``, strict charging and a ``label_fn``
    answering with the wrong shape: every answer, exception, counter and
    ``label_fn`` request matches the reference, call by call."""
    truth = np.array(truth, dtype=np.int64)
    labelers = [_RecordingLabeler(truth, short_call) for _ in range(2)]
    oracles = [
        BudgetedOracle(labelers[0], budget=budget, charge_duplicates=charge_duplicates),
        _DictBudgetedOracle(labelers[1], budget=budget, charge_duplicates=charge_duplicates),
    ]
    for indices in queries:
        actual, expected = (_outcome(oracle, indices) for oracle in oracles)
        assert actual == expected
        assert _state(oracles[0]) == _state(oracles[1])
    assert labelers[0].requests == labelers[1].requests


class TestCostModel:
    def test_oracle_cost_linear(self):
        model = CostModel(oracle_unit_cost=HUMAN_LABEL_COST)
        assert model.oracle_cost(1_000) == pytest.approx(80.0)

    def test_exhaustive_matches_paper_imagenet(self):
        """Table 5: exhaustively labeling ImageNet costs $4,000."""
        model = DATASET_COST_MODELS["imagenet"]
        assert model.exhaustive_cost(50_000) == pytest.approx(4_000.0)

    def test_supg_breakdown_structure(self):
        model = DATASET_COST_MODELS["imagenet"]
        cost = model.supg_query(num_records=50_000, oracle_budget=1_000)
        # Table 5's qualitative claims: oracle dominates, sampling is
        # negligible, and SUPG is far below exhaustive labeling.
        assert cost.oracle > cost.proxy > cost.sampling
        assert cost.total < model.exhaustive_cost(50_000) / 10
        assert cost.total == pytest.approx(cost.sampling + cost.proxy + cost.oracle)

    def test_dnn_oracle_cheaper_per_label_than_human(self):
        night = DATASET_COST_MODELS["night-street"]
        assert night.oracle_unit_cost < HUMAN_LABEL_COST

    def test_negative_counts_rejected(self):
        model = CostModel(oracle_unit_cost=0.08)
        with pytest.raises(ValueError):
            model.oracle_cost(-1)
        with pytest.raises(ValueError):
            model.proxy_cost(-1)
        with pytest.raises(ValueError):
            model.sampling_cost(-1)
