"""Proxy distillation: train a cheap model against oracle labels.

The end-to-end pipeline the paper's deployment story assumes
(Section 4.1): spend part of the oracle budget labeling a training
sample, fit a small proxy model, score the whole dataset with it, and
hand the resulting :class:`~repro.datasets.Dataset` to SUPG with the
remaining budget.  Training labels stay cached in the shared budgeted
oracle, so SUPG never re-pays for them.

Class imbalance is handled the same way the selection problem is: the
uniform training sample of a rare-event workload contains almost no
positives, so by default the trainer *stratifies* — it can't know the
labels in advance, so it oversamples by score under a bootstrap proxy
(a first logistic fit on a uniform seed sample) before fitting the
final model.  Set ``stratify=False`` for plain uniform training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..datasets import Dataset
from ..metrics import sorted_distinct
from ..oracle import BudgetedOracle
from ..sampling import uniform_sample, weighted_sample
from .features import FeatureDataset
from .models import LogisticProxy

__all__ = ["ProxyModel", "TrainedProxy", "train_proxy"]


class ProxyModel(Protocol):
    """Anything with ``fit`` / ``predict_proba`` (see :mod:`.models`)."""

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "ProxyModel": ...

    def predict_proba(self, features: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class TrainedProxy:
    """A fitted proxy together with its full-dataset scores.

    Attributes:
        model: the fitted proxy model.
        dataset: SUPG-ready workload whose proxy scores are the model's
            predictions and whose labels are the task's ground truth.
        training_labels_used: oracle labels consumed by training.
    """

    model: ProxyModel
    dataset: Dataset
    training_labels_used: int


def train_proxy(
    task: FeatureDataset,
    oracle: BudgetedOracle,
    train_budget: int,
    rng: np.random.Generator,
    model: ProxyModel | None = None,
    stratify: bool = True,
) -> TrainedProxy:
    """Distill a proxy from the oracle and score the whole task.

    Args:
        task: feature-level workload.
        oracle: budget-enforcing oracle over the task's ground truth.
        train_budget: oracle labels to spend on training.
        rng: randomness for sample draws.
        model: proxy to fit; defaults to :class:`LogisticProxy`.
        stratify: spend the first half of the training budget on a
            uniform seed sample, fit a bootstrap model, then spend the
            second half importance-sampled by bootstrap score so rare
            positives actually appear in the training set.

    Returns:
        A :class:`TrainedProxy`; its ``dataset`` plugs into any
        selector.

    Raises:
        ValueError: non-positive training budget.
    """
    if train_budget <= 0:
        raise ValueError(f"train_budget must be positive, got {train_budget}")
    if model is None:
        model = LogisticProxy()

    if not stratify:
        train_idx = uniform_sample(task.size, train_budget, rng, replace=False)
        train_labels = oracle.query(train_idx)
    else:
        seed_budget = max(1, train_budget // 2)
        top_up_budget = train_budget - seed_budget
        seed_idx = uniform_sample(task.size, seed_budget, rng, replace=False)
        seed_labels = oracle.query(seed_idx)

        if top_up_budget > 0 and seed_labels.sum() > 0:
            bootstrap = LogisticProxy().fit(task.features[seed_idx], seed_labels)
            scores = np.clip(bootstrap.predict_proba(task.features), 1e-6, 1.0)
            enriched = weighted_sample(scores / scores.sum(), top_up_budget, rng)
            extra_idx = sorted_distinct(enriched.indices)
            extra_labels = oracle.query(extra_idx)
            train_idx = np.concatenate([seed_idx, extra_idx])
            train_labels = np.concatenate([seed_labels, extra_labels])
        else:
            # No positives to bootstrap from (or no remaining budget):
            # fall back to spending everything uniformly.
            extra_idx = uniform_sample(task.size, max(1, top_up_budget), rng, replace=False)
            extra_labels = oracle.query(extra_idx)
            train_idx = np.concatenate([seed_idx, extra_idx])
            train_labels = np.concatenate([seed_labels, extra_labels])

    if train_labels.sum() == 0:
        # A proxy cannot be fit without a single positive; emit the
        # uninformative constant score, which SUPG handles safely
        # (validity holds, quality collapses).
        full_scores = np.full(task.size, 0.5)
    else:
        model.fit(task.features[train_idx], train_labels)
        full_scores = np.clip(model.predict_proba(task.features), 0.0, 1.0)

    dataset = Dataset(
        proxy_scores=full_scores,
        labels=task.labels,
        name=f"{task.name}|proxy",
        metadata={**dict(task.metadata), "proxy_model": type(model).__name__},
    )
    return TrainedProxy(
        model=model,
        dataset=dataset,
        training_labels_used=oracle.calls_used,
    )
