"""Sampling designs: declarative descriptions of oracle sample draws.

Every SUPG selector begins by drawing a labeled oracle sample, and for
most of them that draw is *target-independent*: the records a selector
labels depend only on the dataset, the sampling distribution (uniform,
or proxy-weighted with a given exponent/mixing), the seed, and the
budget — never on the query's gamma.  A :class:`SampleDesign` captures
exactly those inputs as a hashable value, which is what lets the
execution pipeline (:mod:`repro.core.pipeline`) key a cache of labeled
samples and legally share one draw across selectors, gammas, queries,
and sweep cells.

A drawn-and-labeled sample is materialized as a :class:`LabeledSample`,
which also records the generator state *after* the draw so multi-stage
algorithms (Algorithm 5) can resume their random stream bit-exactly
when stage 1 is served from the cache.

Samples are also the unit of the store's persistent tier
(:mod:`repro.core.pipeline`): a :class:`LabeledSample` round-trips
through an ``.npz`` spill file — arrays verbatim, ``rng_state`` as
JSON.  The default PCG64 state is plain integers, so the JSON
round-trip is exact and a resumed stage-2 stream is bit-identical
whether stage 1 came from memory, disk, or a fresh draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..metrics import sorted_distinct
from .uniform import uniform_sample
from .weighted import weighted_sample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets import Dataset

__all__ = ["SampleDesign", "LabeledSample", "draw_labeled_sample"]

#: Maps an array of record indices to an array of 0/1 labels.
LabelFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SampleDesign:
    """Hashable description of one oracle sample draw.

    Two selector runs that share a design (and dataset, and seed) draw
    *bit-identical* samples, which is the legal-reuse contract the
    sample store relies on.

    Attributes:
        kind: ``"uniform"`` or ``"proxy-weighted"``.
        budget: number of draws ``s`` (the oracle budget this sample
            consumes).
        exponent: proxy-weight exponent for ``"proxy-weighted"`` draws
            (``None`` for uniform).
        mixing: defensive mixing ratio for ``"proxy-weighted"`` draws
            (``None`` for uniform).
        replace: with-replacement sampling (the i.i.d. setting all the
            paper's algorithms assume).
    """

    kind: str
    budget: int
    exponent: float | None = None
    mixing: float | None = None
    replace: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "proxy-weighted"):
            raise ValueError(f"unknown sample design kind {self.kind!r}")
        if self.budget <= 0:
            raise ValueError(f"sample budget must be positive, got {self.budget}")
        if self.kind == "proxy-weighted" and (self.exponent is None or self.mixing is None):
            raise ValueError("proxy-weighted designs require exponent and mixing")

    def draw(self, dataset: "Dataset", rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw record indices and reweighting mass for this design.

        Consumes ``rng`` exactly as the selectors' original inline
        sampling code did, so a staged draw is bit-identical to the
        pre-pipeline path.
        """
        if self.kind == "uniform":
            indices = uniform_sample(dataset.size, self.budget, rng, replace=self.replace)
            return indices, np.ones(indices.size, dtype=float)
        weights = dataset.sampling_weights(exponent=self.exponent, mixing=self.mixing)
        sample = weighted_sample(weights, self.budget, rng)
        return sample.indices, sample.mass


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """One drawn-and-labeled oracle sample (the set ``S`` with metadata).

    Attributes:
        design: the design that produced the draw, or ``None`` for
            samples a design cannot describe (e.g. Algorithm 5's
            gamma-dependent region-restricted stage-2 draw) — such
            samples must never be cached, since the design is the
            store's legal-reuse key.
        indices: sampled record indices (duplicates possible for
            with-replacement draws).
        scores: proxy scores aligned with ``indices``.
        labels: oracle labels aligned with ``indices``.
        mass: reweighting factors ``m(x) = u(x)/w(x)`` aligned with
            ``indices`` (ones for uniform draws).
        rng_state: the bit-generator state immediately after the draw,
            so later stages can resume the stream on a cache hit.
    """

    design: SampleDesign | None
    indices: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    mass: np.ndarray
    rng_state: Mapping[str, object] = field(default_factory=dict, repr=False)

    @cached_property
    def distinct_indices(self) -> np.ndarray:
        """Sorted distinct labeled records (the paper's set ``S``).

        Cached (and read-only, since store-served samples are shared
        across selections): every selection that materializes from this
        sample needs the same set, so a cache hit skips the O(s log s)
        sort entirely.  Built by :func:`~repro.metrics.sorted_distinct`
        into an array of its own: ``indices`` stays writable and
        unshared.
        """
        out = sorted_distinct(self.indices)
        out.flags.writeable = False
        return out

    @cached_property
    def distinct_positives(self) -> np.ndarray:
        """Sorted distinct labeled *positives* (Algorithm 1's ``R1``).

        Target-independent, hence cacheable: which sampled records the
        oracle called positive does not depend on the query's gamma, so
        one pass serves every selection replaying this sample.  Read-only
        and, like :attr:`distinct_indices`, its own array.
        """
        indices = np.asarray(self.indices, dtype=np.intp)
        out = sorted_distinct(indices[np.asarray(self.labels) == 1])
        out.flags.writeable = False
        return out

    @property
    def oracle_calls(self) -> int:
        """Oracle budget this sample consumed (distinct records)."""
        return int(self.distinct_indices.size)

    @property
    def size(self) -> int:
        """Number of draws (with duplicates)."""
        return int(self.indices.size)

    @cached_property
    def nbytes(self) -> int:
        """Approximate memory footprint, used for store accounting."""
        return int(
            self.indices.nbytes + self.scores.nbytes + self.labels.nbytes + self.mass.nbytes
        )


def draw_labeled_sample(
    design: SampleDesign,
    dataset: "Dataset",
    rng: np.random.Generator,
    label_fn: LabelFn,
) -> LabeledSample:
    """Execute a design's draw and label it (the ``draw_sample`` stage).

    Args:
        design: what to draw.
        dataset: workload supplying proxy scores and (via ``label_fn``)
            oracle labels.
        rng: generator driving the draw; its post-draw state is recorded
            on the returned sample.
        label_fn: oracle access — either ``BudgetedOracle.query`` (the
            legacy budget-enforcing path) or a ground-truth lookup (the
            store path, where budget accounting is reconstructed from
            the sample itself).
    """
    indices, mass = design.draw(dataset, rng)
    labels = np.asarray(label_fn(indices))
    return LabeledSample(
        design=design,
        indices=indices,
        scores=dataset.proxy_scores[indices],
        labels=labels,
        mass=mass,
        rng_state=rng.bit_generator.state,
    )
