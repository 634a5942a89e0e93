"""Dataset container shared by all workloads.

SUPG's algorithms interact with data exclusively through two arrays: the
proxy scores ``A(x)`` (cheap, precomputed over the whole dataset, per
Section 4.1 of the paper) and the oracle labels ``O(x)`` (expensive,
revealed only through a budgeted oracle).  A :class:`Dataset` stores
both; evaluation code may read ``labels`` directly to score results,
while algorithm code must only touch labels through
:class:`repro.oracle.BudgetedOracle`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sampling import SamplingCDF

__all__ = ["Dataset"]

_DEFAULT_BACKEND = None


def _default_backend():
    """Process-wide in-memory backend for datasets with no explicit one.

    Lazy so importing :mod:`repro.datasets` never drags in the core
    package; shared so standalone datasets don't each carry a counters
    dict nobody reads.  Engines attach their own per-session backend via
    :meth:`Dataset.use_backend`.
    """
    global _DEFAULT_BACKEND
    if _DEFAULT_BACKEND is None:
        from ..core.stats_backend import InMemoryBackend

        _DEFAULT_BACKEND = InMemoryBackend()
    return _DEFAULT_BACKEND


@dataclass(frozen=True)
class Dataset:
    """Records with proxy scores and ground-truth oracle labels.

    Attributes:
        proxy_scores: array of proxy confidences ``A(x)`` in [0, 1], one
            per record.
        labels: array of ground-truth oracle bits ``O(x)`` in {0, 1},
            aligned with ``proxy_scores``.
        name: human-readable workload name (e.g. ``"imagenet"``).
        metadata: free-form provenance (generator parameters, drift
            descriptions) recorded so experiments are self-describing.
    """

    proxy_scores: np.ndarray
    labels: np.ndarray
    name: str = "dataset"
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        scores = np.asarray(self.proxy_scores, dtype=float)
        labels = np.asarray(self.labels)
        if scores.ndim != 1:
            raise ValueError(f"proxy_scores must be 1-D, got shape {scores.shape}")
        if scores.shape != labels.shape:
            raise ValueError(
                f"proxy_scores and labels must be aligned, got {scores.shape} vs {labels.shape}"
            )
        if scores.size == 0:
            raise ValueError("a dataset must contain at least one record")
        if np.isnan(scores).any():
            # NaN compares false against every threshold, so the dense
            # ``>= tau`` path would *silently exclude* it, while its
            # bucket key lies past every score's and outside the index.
            # Reject it loudly instead of choosing either behavior.
            raise ValueError(
                "proxy scores must not contain NaN; recompute or impute the "
                "proxy before constructing a Dataset"
            )
        if np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("proxy scores must lie in [0, 1]")
        # Two equality counts accept exactly what ``np.isin(labels, (0, 1))``
        # accepts, with one boolean temporary at a time.
        if np.count_nonzero(labels == 0) + np.count_nonzero(labels == 1) != labels.size:
            raise ValueError("labels must be binary (0/1)")
        # Normalize dtypes once; frozen dataclass requires object.__setattr__.
        object.__setattr__(self, "proxy_scores", scores)
        object.__setattr__(self, "labels", labels.astype(np.int8))

    def __len__(self) -> int:
        return int(self.proxy_scores.size)

    @property
    def size(self) -> int:
        """Number of records ``|D|``."""
        return len(self)

    @cached_property
    def positive_count(self) -> int:
        """Number of records matching the oracle predicate ``|O+|``.

        Cached: the trial runner passes it to every evaluation, which
        would otherwise re-sum the full label array once per trial.
        """
        return int(self.labels.sum())

    @property
    def positive_rate(self) -> float:
        """True-positive rate of the workload (Table 2's TPR column)."""
        return self.positive_count / self.size

    @property
    def positive_indices(self) -> np.ndarray:
        """Indices of the matching records ``O+``."""
        return np.flatnonzero(self.labels == 1)

    # ------------------------------------------------------------------
    # Cached statistics.  Every selector trial needs the same derived
    # arrays — the score bucket index (every threshold scan and
    # Algorithm 5's stage-1 cut) and the inverse CDF of the defensive
    # importance weights (Algorithms 4-5) — so a Dataset computes each
    # once and reuses it across the 100+ trials of an experiment cell.
    # *What* each statistic is lives here; *where its bytes live* is the
    # attached :class:`~repro.core.stats_backend.StatisticsBackend` —
    # RAM ndarrays (memory backend) or read-only ``np.memmap`` windows
    # over fingerprint-keyed store files (disk backend), bit-identical
    # either way.  The memoized views live in
    # the instance ``__dict__`` (``cached_property`` bypasses the
    # frozen-dataclass setattr), and ``subset``/``with_scores`` build
    # new instances, so derived datasets never see stale statistics.
    # Cached arrays are read-only because they are shared across trials.
    # ------------------------------------------------------------------

    @property
    def stats_backend(self):
        """The provider computing this dataset's derived statistics."""
        backend = self.__dict__.get("_stats_backend")
        if backend is None:
            backend = _default_backend()
            self.__dict__["_stats_backend"] = backend
        return backend

    def use_backend(self, backend) -> "Dataset":
        """Attach a statistics backend; returns ``self`` for chaining.

        Attach before statistics are first touched: views already
        memoized are kept (they are bit-identical by contract), only
        future computations route through the new provider.  A zone
        map memoized before the move is kept too, and keeps counting
        its scans into the ``counters`` of the backend that built it.
        """
        self.__dict__["_stats_backend"] = backend
        return self

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the workload (scores + labels).

        Keys the shared :class:`~repro.core.pipeline.SampleStore`: two
        dataset objects with identical contents fingerprint equal, so
        labeled samples cached against one are legally served to the
        other.  Computed once per instance (~10 ms per million records)
        and amortized over every store lookup.  The arrays are hashed
        through their buffers, not copied to ``bytes`` first.
        """
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.proxy_scores))
        digest.update(np.ascontiguousarray(self.labels))
        return digest.hexdigest()

    @cached_property
    def score_order(self) -> np.ndarray:
        """Record indices in score bucket order (cached, read-only).

        numpy's stable radix ``argsort`` of the ``uint16`` bucket keys
        (:func:`~repro.core.zonemap.bucket_keys`): each bucket's records
        are contiguous, in record-index order.  Byte-identical whichever
        backend serves it — an ndarray (memory) or a memmap over the
        store's order file (disk).
        """
        return self.stats_backend.score_order(self)

    @cached_property
    def zone_map(self):
        """The dataset's score bucket index, or ``None``.

        Served once by the attached backend for datasets of at least
        :data:`~repro.core.zonemap.MIN_INDEXED_SIZE` records: counted
        from the scores (memory), or read from the store's warm
        statistic file (disk).  Smaller datasets return ``None`` and
        every threshold lookup stays on the dense path.  See
        :mod:`repro.core.zonemap`.
        """
        from ..core.zonemap import MIN_INDEXED_SIZE

        if self.size < MIN_INDEXED_SIZE:
            return None
        return self.stats_backend.zone_map(self)

    def build_zone_map(self):
        """Force-build (and cache) a zone map, bypassing the size gate.

        Tests and micro-benchmarks use this to exercise the indexed
        path on small datasets; production code reads :attr:`zone_map`.
        The map counts its scans into the attached backend's ``counters``.
        """
        from ..core.zonemap import ScoreZoneMap

        zone_map = ScoreZoneMap.build(self.proxy_scores)
        zone_map.counters = self.stats_backend.counters
        self.__dict__["zone_map"] = zone_map
        return zone_map

    def sampling_cdf(self, exponent: float, mixing: float) -> "SamplingCDF":
        """The importance draw statistic, cached per ``(exponent, mixing)``.

        A :class:`~repro.sampling.SamplingCDF`: the read-only inverse CDF
        of the defensive weights (an ndarray in RAM, or a memmap over a
        store file) and the two totals that give any record's weight
        from its score.  Every importance draw searches it, so building
        it is the only O(n) pass an importance design costs the dataset.
        """
        key = (float(exponent), float(mixing))
        cache = self.__dict__.setdefault("_cdf_cache", {})
        statistic = cache.get(key)
        if statistic is None:
            statistic = self.stats_backend.sampling_weights(self, key[0], key[1])
            cache[key] = statistic
        return statistic

    def warm_statistics(self) -> int:
        """Compute the statistics fork workers read, before they fork.

        Fan-outs call this in the parent so every worker inherits one
        copy of the zone map, the bucket order (indexed datasets only:
        nothing else reads it) and every CDF drawn from so far —
        in-memory arrays as copy-on-write pages, disk statistics as
        memmaps over the store's files — instead of each worker
        rebuilding them.  Returns how many cached statistics are
        file-backed (``np.memmap``), i.e. shared through the page cache.
        """
        statistics = [stat.cdf for stat in self.__dict__.get("_cdf_cache", {}).values()]
        if self.zone_map is not None:
            statistics.append(self.score_order)
        return sum(isinstance(array, np.memmap) for array in statistics)

    def select_above(self, tau: float) -> np.ndarray:
        """Indices of ``D(tau) = {x : A(x) >= tau}``, ascending.

        Large datasets resolve ``tau`` through the zone map: the bucket
        order's run of every bucket above tau's, plus tau's own bucket
        filtered by score, touching O(selected) records instead of all
        n.  Byte-identical to the dense ``np.flatnonzero`` scan, which
        remains the path for small datasets and, in RAM, for near-total
        selections.  Under a paged (disk) backend only the buckets the
        tau reaches are ever read from the order file.
        """
        zone_map = self.zone_map
        if zone_map is None:
            return np.flatnonzero(self.proxy_scores >= tau)
        return zone_map.select_above(
            tau, self.score_order, self.proxy_scores, self.stats_backend.paged
        )

    def score_at_rank(self, rank: int) -> float:
        """The ``rank``-th largest proxy score (``rank`` from 1).

        Through the zone map (one ``np.partition`` inside one bucket)
        when the dataset has one, else one ``np.partition`` of all the
        scores.  A zero comes back as ``+0.0``, whatever its sign bit.
        """
        zone_map = self.zone_map
        if zone_map is not None:
            return zone_map.score_at_rank(rank, self.score_order, self.proxy_scores)
        position = self.size - int(rank)
        if not 0 <= position < self.size:
            raise ValueError(f"rank must be in [1, {self.size}], got {rank}")
        return float(np.partition(self.proxy_scores, position)[position]) + 0.0

    def subset(self, indices: np.ndarray, name: str | None = None) -> "Dataset":
        """A new dataset restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices, dtype=np.intp)
        return replace(
            self,
            proxy_scores=self.proxy_scores[idx],
            labels=self.labels[idx],
            name=name if name is not None else f"{self.name}[subset]",
        )

    def with_scores(self, proxy_scores: np.ndarray, name: str | None = None) -> "Dataset":
        """A new dataset with the same labels but replaced proxy scores.

        Used by the drift generators, which corrupt the proxy while
        keeping ground truth fixed.
        """
        return replace(
            self,
            proxy_scores=np.asarray(proxy_scores, dtype=float),
            name=name if name is not None else self.name,
        )

    def describe(self) -> str:
        """One-line summary used by examples and experiment logs."""
        return (
            f"{self.name}: {self.size} records, "
            f"{self.positive_count} positives ({100 * self.positive_rate:.3f}%)"
        )
