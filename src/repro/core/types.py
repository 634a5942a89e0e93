"""Query and result types for SUPG approximate selection.

These dataclasses formalize the query semantics of Section 3 of the
paper: a target type (recall or precision), a target value ``gamma``, a
failure probability ``delta``, and an oracle budget ``s``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..metrics import sorted_distinct

__all__ = ["TargetType", "ApproxQuery", "SelectionResult"]


class TargetType(str, enum.Enum):
    """Which metric the query guarantees (RT vs PT in the paper)."""

    RECALL = "recall"
    PRECISION = "precision"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ApproxQuery:
    """A SUPG query specification (Figure 3 of the paper).

    Attributes:
        target_type: guarantee a minimum recall (RT) or precision (PT).
        gamma: the target value in (0, 1].
        delta: allowed failure probability in (0, 1).
        budget: maximum number of oracle invocations ``s``.
    """

    target_type: TargetType
    gamma: float
    delta: float
    budget: int

    def __post_init__(self) -> None:
        if not isinstance(self.target_type, TargetType):
            object.__setattr__(self, "target_type", TargetType(self.target_type))
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"target gamma must be in (0, 1], got {self.gamma}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"failure probability delta must be in (0, 1), got {self.delta}")
        if self.budget <= 0:
            raise ValueError(f"oracle budget must be positive, got {self.budget}")

    @classmethod
    def recall_target(cls, gamma: float, delta: float, budget: int) -> "ApproxQuery":
        """Construct an RT query."""
        return cls(TargetType.RECALL, gamma, delta, budget)

    @classmethod
    def precision_target(cls, gamma: float, delta: float, budget: int) -> "ApproxQuery":
        """Construct a PT query."""
        return cls(TargetType.PRECISION, gamma, delta, budget)

    def with_gamma(self, gamma: float) -> "ApproxQuery":
        """The same query at a different target value.

        The sweep drivers walk the Figure 7/8 x-axes with this: every
        point shares the budget, delta, and target type — which is what
        makes the underlying oracle sample reusable across the sweep.
        """
        return ApproxQuery(self.target_type, gamma, self.delta, self.budget)


@dataclass(frozen=True)
class SelectionResult:
    """Output of one SUPG selection (Algorithm 1 of the paper).

    Attributes:
        indices: the returned set ``R = R1 ∪ R2`` as sorted distinct
            record indices.  Normalized by
            :func:`~repro.metrics.sorted_distinct`, so it is the
            result's own array: O(k) when the input is already sorted
            and distinct, as every selector's is, and never a view of
            the array passed in.
        tau: the estimated proxy-score threshold.
        oracle_calls: oracle budget actually consumed.
        sampled_indices: distinct records labeled by the oracle (the
            set ``S``), for diagnostics.
        details: algorithm-specific diagnostics (e.g. the inflated
            recall target ``gamma'``, stage-1 match-count bounds).
    """

    indices: np.ndarray
    tau: float
    oracle_calls: int
    sampled_indices: np.ndarray
    details: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", sorted_distinct(self.indices))
        object.__setattr__(
            self, "sampled_indices", np.asarray(self.sampled_indices, dtype=np.intp)
        )
        if self.oracle_calls < 0:
            raise ValueError(f"oracle_calls must be non-negative, got {self.oracle_calls}")

    @property
    def size(self) -> int:
        """Number of returned records ``|R|``."""
        return int(self.indices.size)
