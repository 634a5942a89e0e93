"""Oracle substrate: budgeted, memoized access to ground-truth labels.

SUPG queries specify a hard budget ``s`` on oracle invocations
(Section 3 of the paper).  :class:`BudgetedOracle` enforces that budget:
algorithm code receives one of these rather than the raw label array, so
a selector cannot accidentally peek at ground truth beyond its budget —
any attempt raises :class:`BudgetExhaustedError`.

Calls are memoized per record: the paper's operational model labels a
*record* once (a human does not re-label the same frame), so repeated
lookups of an already-labeled record are free.  This matters for
importance sampling with replacement, where the same record can be
drawn multiple times; the budget is charged per distinct record, which
is the natural accounting for human labeling.  A strict mode charging
every call is available for sensitivity studies.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..metrics import sorted_distinct

__all__ = ["BudgetExhaustedError", "BudgetedOracle", "oracle_from_labels"]


class BudgetExhaustedError(RuntimeError):
    """Raised when an algorithm exceeds its oracle budget."""

    def __init__(self, budget: int, requested: int) -> None:
        super().__init__(
            f"oracle budget exhausted: budget={budget}, distinct labels requested={requested}"
        )
        self.budget = budget
        self.requested = requested


class BudgetedOracle:
    """Budget-enforcing, memoizing wrapper around a labeling function.

    Args:
        label_fn: maps an array of record indices to an array of 0/1
            labels.  For datasets this is an array lookup; for live
            deployments it would invoke a human-labeling service or an
            expensive model.
        budget: maximum number of distinct records that may be labeled.
            ``None`` means unlimited (used by the exhaustive stage of
            the joint-target algorithm, which explicitly counts usage).
        charge_duplicates: if True, repeated queries of the same record
            consume budget each time (strict i.i.d. accounting); the
            default False matches the paper's per-record labeling cost.

    The memo is a sorted ``intp`` array of the labeled records with an
    aligned ``int8`` array of their labels.  A call is a ``searchsorted``
    split into known and missing records, one ``label_fn`` call on the
    sorted missing ones, one ``np.insert`` merge and one gather, with no
    per-record Python.  The merge is O(labeled) per call, so callers
    pass whole arrays rather than one record at a time.
    """

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
        self._labeled = np.zeros(0, dtype=np.intp)
        self._labels = np.zeros(0, dtype=np.int8)
        self._calls = 0

    @property
    def calls_used(self) -> int:
        """Budget consumed so far (distinct records, or raw calls in
        strict mode)."""
        return self._calls

    @property
    def labeled_count(self) -> int:
        """Number of distinct records labeled so far."""
        return int(self._labeled.size)

    def remaining(self) -> int | None:
        """Budget left, or None when unlimited."""
        if self.budget is None:
            return None
        return self.budget - self._calls

    def query(self, indices: np.ndarray) -> np.ndarray:
        """Label the given record indices, charging the budget.

        Args:
            indices: integer array of record indices (duplicates allowed).

        Returns:
            0/1 label array aligned with ``indices``.

        Raises:
            BudgetExhaustedError: if answering would exceed the budget.
                The budget is checked *before* any new labels are
                revealed, so a failed call leaks nothing.
        """
        idx = np.asarray(indices, dtype=np.intp).ravel()
        if idx.size == 0:
            return np.zeros(0, dtype=np.int8)

        distinct = sorted_distinct(idx)
        labeled = self._labeled
        positions = np.searchsorted(labeled, distinct)
        if labeled.size:
            new = labeled[np.minimum(positions, labeled.size - 1)] != distinct
        else:
            new = np.ones(distinct.size, dtype=bool)
        missing = distinct[new]
        charge = idx.size if self.charge_duplicates else int(missing.size)
        if self.budget is not None and self._calls + charge > self.budget:
            raise BudgetExhaustedError(self.budget, self._calls + charge)

        if missing.size:
            labels = np.asarray(self._label_fn(missing)).astype(np.int8)
            if labels.shape != missing.shape:
                raise ValueError("label_fn must return one label per requested index")
            at = positions[new]
            self._labeled = np.insert(labeled, at, missing)
            self._labels = np.insert(self._labels, at, labels)
        self._calls += charge
        return self._labels[np.searchsorted(self._labeled, idx)]

    def labeled_indices(self) -> np.ndarray:
        """Indices of all records labeled so far (the sample ``S``)."""
        return self._labeled.copy()

    def known_positives(self) -> np.ndarray:
        """Indices of records already labeled positive.

        Algorithm 1 of the paper returns these alongside the thresholded
        set (``R1`` in the pseudocode): labels already paid for are never
        wasted.
        """
        return self._labeled[self._labels == 1]


def oracle_from_labels(
    labels: np.ndarray,
    budget: int | None,
    charge_duplicates: bool = False,
) -> BudgetedOracle:
    """Wrap a ground-truth label array as a :class:`BudgetedOracle`."""
    arr = np.asarray(labels)

    def lookup(indices: np.ndarray) -> np.ndarray:
        return arr[indices]

    return BudgetedOracle(lookup, budget=budget, charge_duplicates=charge_duplicates)
