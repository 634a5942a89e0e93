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
from typing import Mapping

import numpy as np

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
            # NaN compares false against every threshold, so it would be
            # *silently excluded* by the dense ``>= tau`` path while the
            # sorted-order (zone-map) path would place it at the end of
            # the sort and include it — a bit-identity break.  Reject it
            # loudly instead of choosing either behavior.
            raise ValueError(
                "proxy scores must not contain NaN; recompute or impute the "
                "proxy before constructing a Dataset"
            )
        if np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("proxy scores must lie in [0, 1]")
        if not np.all(np.isin(labels, (0, 1))):
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
    # arrays — the sorted proxy scores (Algorithm 5's stage-1 cut) and
    # the defensive importance weights (Algorithms 4-5) — so a Dataset
    # computes each once and reuses it across the 100+ trials of an
    # experiment cell.  *What* each statistic is lives here; *where its
    # bytes live* is the attached :class:`~repro.core.stats_backend.
    # StatisticsBackend` — RAM ndarrays (memory backend) or read-only
    # ``np.memmap`` windows over fingerprint-keyed store files (disk
    # backend), bit-identical either way.  The memoized views live in
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
        and amortized over every store lookup.
        """
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.proxy_scores).tobytes())
        digest.update(np.ascontiguousarray(self.labels).tobytes())
        return digest.hexdigest()

    @cached_property
    def sorted_scores(self) -> np.ndarray:
        """Proxy scores sorted ascending (cached, read-only).

        Served by the attached backend: an ndarray from ``np.sort``
        (memory) or a memmap window over the store's external-sort
        output (disk) — the same values either way.
        """
        return self.stats_backend.sorted_scores(self)

    @property
    def descending_scores(self) -> np.ndarray:
        """Proxy scores sorted descending (a view of :attr:`sorted_scores`)."""
        return self.sorted_scores[::-1]

    @cached_property
    def score_order(self) -> np.ndarray:
        """Stable ``argsort`` of the proxy scores, ascending (cached, read-only).

        Byte-identical to ``np.argsort(kind="stable")`` whichever
        backend serves it — the disk backend's external merge preserves
        tie order exactly.
        """
        return self.stats_backend.score_order(self)

    @cached_property
    def zone_map(self):
        """The dataset's stratified score zone map, or ``None``.

        Served once by the attached backend for datasets of at least
        :data:`~repro.core.zonemap.MIN_INDEXED_SIZE` records: built from
        :attr:`sorted_scores` (memory), or read from the store's warm
        statistic file without sorting (disk).  Smaller datasets return
        ``None`` and every threshold lookup stays on the dense path.
        See :mod:`repro.core.zonemap`.
        """
        from ..core.zonemap import MIN_INDEXED_SIZE

        if self.size < MIN_INDEXED_SIZE:
            return None
        return self.stats_backend.zone_map(self)

    def build_zone_map(self, stratum_size: int | None = None):
        """Force-build (and cache) a zone map, bypassing the size gate.

        Tests and micro-benchmarks use this to exercise the indexed
        path on small datasets; production code reads :attr:`zone_map`.
        The map counts its scans into the attached backend's ``counters``.
        """
        from ..core.zonemap import ScoreZoneMap

        zone_map = ScoreZoneMap.build(self.sorted_scores, stratum_size=stratum_size)
        zone_map.counters = self.stats_backend.counters
        self.__dict__["zone_map"] = zone_map
        return zone_map

    def sampling_weights(self, exponent: float, mixing: float) -> np.ndarray:
        """Defensive importance-sampling weights, cached per ``(exponent, mixing)``.

        Thin memoizing wrapper over the backend's weight provider
        (bitwise :func:`repro.sampling.proxy_sampling_weights`, in RAM
        or streamed to a store file); the IS selectors recompute
        identical weights every trial otherwise, a full O(n) pass over
        the dataset per selector run.
        """
        key = (float(exponent), float(mixing))
        cache: dict[tuple[float, float], np.ndarray]
        cache = self.__dict__.setdefault("_weight_cache", {})
        weights = cache.get(key)
        if weights is None:
            weights = self.stats_backend.sampling_weights(self, key[0], key[1])
            cache[key] = weights
        return weights

    def warm_statistics(self) -> int:
        """Compute the statistics fork workers read, before they fork.

        Fan-outs call this in the parent so every worker inherits one
        copy of the sorted scores, the score order and the zone map —
        in-memory arrays as copy-on-write pages, disk statistics as
        memmaps over the store's files — instead of each worker
        rebuilding them.  Returns how many cached statistics are
        file-backed (``np.memmap``), i.e. shared through the page cache.
        """
        statistics = [self.sorted_scores, self.score_order]
        statistics.extend(self.__dict__.get("_weight_cache", {}).values())
        self.zone_map  # built, or read from its statistic file, in the parent
        return sum(isinstance(array, np.memmap) for array in statistics)

    def select_above(self, tau: float) -> np.ndarray:
        """Indices of ``D(tau) = {x : A(x) >= tau}``, ascending.

        Large datasets resolve ``tau`` through the zone map — binary
        search over stratum bounds plus at most one boundary stratum,
        then the cumulative tail of :attr:`score_order` — touching
        O(selected) records instead of all n.  Byte-identical to the
        dense ``np.flatnonzero`` scan, which remains the path for small
        datasets and near-total selections.  Under a paged (disk)
        backend the scan goes through
        :meth:`~repro.core.zonemap.ScoreZoneMap.select_above_paged`
        instead — same bytes out, but only the boundary stratum and the
        selected tail are ever faulted in from the statistic files.
        """
        zone_map = self.zone_map
        if zone_map is None:
            return np.flatnonzero(self.proxy_scores >= tau)
        if self.stats_backend.paged:
            return zone_map.select_above_paged(tau, self.sorted_scores, self.score_order)
        return zone_map.select_above(
            tau, self.sorted_scores, self.score_order, self.proxy_scores
        )

    def count_above(self, tau: float) -> int:
        """``|D(tau)|`` without materializing it.

        O(log strata) through the zone map's cumulative counts; the
        dense count for unindexed datasets.
        """
        zone_map = self.zone_map
        if zone_map is None:
            return int(np.count_nonzero(self.proxy_scores >= tau))
        return zone_map.count_above(tau, self.sorted_scores)

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
