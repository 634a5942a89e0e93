"""Score bucket index: data skipping for threshold queries.

SUPG reads the proxy scores at a threshold in two places: every result
materializes ``D(tau) = {x : A(x) >= tau}`` (``Dataset.select_above``,
``materialize_selection``), and IS-CI-P's stage 1 (Algorithm 5) takes
one order statistic.  Neither needs the scores sorted; a range
partition of the score serves both.

Each record is keyed by the top 16 bits of its float64 score with the
sign bit cleared (:func:`bucket_keys`): 11 exponent bits and 4 mantissa
bits.  Non-negative doubles order like their bit patterns, so for
scores in [0, 1] the key is monotone (``-0.0`` keys like ``+0.0``) and
takes at most :data:`BUCKETS` values (1.0 keys to ``0x3FF0``).  The
dataset's statistics backend keeps two statistics of it:

- the *bucket order* (``Dataset.score_order``): the record indices in
  numpy's stable radix ``argsort`` of the ``uint16`` keys, so each
  bucket's records lie contiguous, in record-index order;
- the per-bucket record counts, a :class:`ScoreZoneMap`, whose prefix
  sums locate each bucket's run in the order.

A threshold falls inside one bucket.  ``select_above(tau)`` takes every
bucket above it plus its own bucket filtered by ``scores >= tau``, and
sorts that one index array: the indices are distinct, so any sort kind
returns exactly ``np.flatnonzero(scores >= tau)``, byte for byte.  The
``rank``-th largest score is one ``np.partition`` inside the bucket
that holds it.  Thresholds the key cannot order are decided first:
``tau <= 0`` (``-inf`` and ``-0.0`` included) keeps every record, and
``tau > 1``, ``+inf`` and NaN keep none.

When the buckets a selection reaches hold more than
:data:`DENSE_FALLBACK_FRACTION` of the dataset, sorting them costs more
than the dense boolean mask, so an in-memory ``select_above`` falls back
to the mask (counted in ``zonemap_dense_fallbacks``).  A paged (disk)
backend never does: a dense pass over a memmap would fault in the whole
column.  Datasets below :data:`MIN_INDEXED_SIZE` records have no index
(``Dataset.zone_map`` is ``None``); the dense pass is already cheap.

NaN proxy scores would break the dense/indexed equivalence, so
:class:`~repro.datasets.base.Dataset` rejects them at construction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BUCKETS",
    "DENSE_FALLBACK_FRACTION",
    "MIN_INDEXED_SIZE",
    "ZONE_MAP_COUNTERS",
    "ScoreZoneMap",
    "SkipEstimate",
    "bucket_keys",
]

#: Bucket keys a score in [0, 1] can take: ``0`` (zeros and subnormals
#: below ``2**-1026``) to ``0x3FF0`` (exactly 1.0).
BUCKETS = 0x3FF0 + 1

#: Below this many records the dense path is already cheap and
#: ``Dataset.zone_map`` stays ``None`` (callers can still force-build
#: via ``Dataset.build_zone_map`` for tests and micro-benchmarks).
MIN_INDEXED_SIZE = 32768

#: Selections reaching into buckets that hold more than this fraction of
#: the dataset take the dense boolean mask: one vectorized O(n) compare
#: beats sorting an O(n)-sized index array.
DENSE_FALLBACK_FRACTION = 0.25

#: The scan counters a zone map adds to: indexed selects, non-empty
#: buckets read, records never visited, dense fallbacks, and the bytes
#: of the bucket order a paged select reads.  Every statistics backend's
#: ``counters`` holds these keys.
ZONE_MAP_COUNTERS = (
    "zonemap_selects",
    "strata_touched",
    "records_skipped",
    "zonemap_dense_fallbacks",
    "bytes_paged",
)

#: The ``uint16`` word of a native float64 that holds its top 16 bits.
_TOP_WORD = 3 if sys.byteorder == "little" else 0

#: The smallest score of each bucket, and of the bucket past the last.
_FLOORS = (np.arange(BUCKETS + 1, dtype=np.uint64) << np.uint64(48)).view(np.float64)

#: A bucket's expected positive rate under a calibrated proxy: the
#: midpoint of its score range (1.0 for the bucket holding only 1.0).
_MIDPOINTS = np.minimum((_FLOORS[:-1] + _FLOORS[1:]) / 2, 1.0)


def bucket_keys(scores) -> np.ndarray:
    """Each score's bucket: its top 16 bits with the sign cleared (``uint16``)."""
    words = np.ascontiguousarray(scores, dtype=np.float64).view(np.uint16)
    return words[_TOP_WORD::4] & np.uint16(0x7FFF)


def _bucket_of(tau: float) -> int:
    """The bucket a threshold cuts: 0 when every score qualifies,
    :data:`BUCKETS` when none can (``tau > 1``, ``+inf``, NaN)."""
    if not tau <= 1.0:
        return BUCKETS
    if tau <= 0.0:
        return 0
    return int(bucket_keys(np.array([tau]))[0])


@dataclass(frozen=True)
class SkipEstimate:
    """A planner-facing cost estimate, in strata (non-empty buckets).

    Attributes:
        strata: non-empty buckets of the dataset's index.
        start_stratum: non-empty buckets below the estimated selection
            (``strata`` when it is empty).
        strata_touched: non-empty buckets the selection reads.
        est_selected: estimated records selected.
        est_skipped: estimated records never touched.
    """

    strata: int
    start_stratum: int
    strata_touched: int
    est_selected: int
    est_skipped: int

    def render(self) -> str:
        """Short human-readable form for plan output."""
        return (
            f"zonemap ~{self.strata_touched}/{self.strata} strata, "
            f"~{self.est_selected} rows, {self.est_skipped} skipped"
        )


class ScoreZoneMap:
    """Per-bucket record counts of one dataset's proxy scores.

    Build from the scores with :meth:`build`, or from persisted counts.
    The map holds only the counts and per-bucket arrays derived from
    them; the bucket order and the scores stay on the dataset, so
    instances are cheap to inherit, pickle and persist.

    Scan telemetry accrues in :attr:`counters`.  A map served by a
    statistics backend counts into that backend's ``counters`` dict
    (which ``SupgEngine.session_stats()`` reads), so counts are
    cumulative per backend and outlive the map; a map built directly
    counts into a dict of its own.  Counts made in forked workers die
    with the worker, so the totals reflect parent-process selections:
    prewarm, sequential execution, and recovery.
    """

    def __init__(self, counts: np.ndarray) -> None:
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.counts.shape != (BUCKETS,) or self.counts.min() < 0:
            raise ValueError(f"bucket counts must be {BUCKETS} non-negative integers")
        #: ``offsets[b]``: where bucket ``b``'s run starts in the bucket
        #: order (length ``BUCKETS + 1``; the last entry is the size).
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        #: Non-empty buckets at or above each bucket (length ``BUCKETS + 1``).
        self.strata_above = np.concatenate(
            [np.cumsum((self.counts > 0)[::-1])[::-1], [0]]
        )
        #: Expected positives at or above each bucket, each bucket's being
        #: its count times its midpoint score (length ``BUCKETS + 1``).
        self.tail_mass = np.concatenate(
            [np.cumsum((self.counts * _MIDPOINTS)[::-1])[::-1], [0.0]]
        )
        tail_counts = self.size - self.offsets[:-1]
        #: Expected precision of the records at or above each bucket.
        self.tail_precision = np.divide(
            self.tail_mass[:-1], tail_counts, out=np.zeros(BUCKETS), where=tail_counts > 0
        )
        self.counters: dict[str, int] = dict.fromkeys(ZONE_MAP_COUNTERS, 0)

    @classmethod
    def build(cls, scores: np.ndarray) -> "ScoreZoneMap":
        """Count the records of each bucket in one pass over the scores."""
        return cls(np.bincount(bucket_keys(scores), minlength=BUCKETS))

    @property
    def size(self) -> int:
        """Records covered (the dataset size)."""
        return int(self.offsets[-1])

    @property
    def strata(self) -> int:
        """Non-empty buckets."""
        return int(self.strata_above[0])

    def select_above(
        self, tau: float, order: np.ndarray, scores: np.ndarray, paged: bool = False
    ) -> np.ndarray:
        """Indices of ``{x : A(x) >= tau}``, ascending.

        ``order`` is the bucket order and ``scores`` the proxy scores,
        as RAM arrays or memmaps.  Byte-identical to
        ``np.flatnonzero(scores >= tau)``.  A ``paged`` select reads
        only the order entries from tau's bucket up (counted in
        ``bytes_paged``) and the scores of tau's own bucket.
        """
        tau = float(tau)
        bucket = _bucket_of(tau)
        low = int(self.offsets[bucket])
        high = int(self.offsets[min(bucket + 1, BUCKETS)])
        reached = self.size - low
        self.counters["zonemap_selects"] += 1
        if not paged and reached > DENSE_FALLBACK_FRACTION * self.size:
            self.counters["zonemap_dense_fallbacks"] += 1
            self.counters["strata_touched"] += self.strata
            return np.flatnonzero(scores >= tau)
        if paged:
            self.counters["bytes_paged"] += reached * order.itemsize
        self.counters["strata_touched"] += int(self.strata_above[bucket])
        self.counters["records_skipped"] += low
        boundary = np.asarray(order[low:high])
        kept = boundary[scores[boundary] >= tau]
        selected = np.empty(kept.size + self.size - high, dtype=np.intp)
        selected[: kept.size] = kept
        selected[kept.size :] = order[high:]
        selected.sort()
        return selected

    def score_at_rank(self, rank: int, order: np.ndarray, scores: np.ndarray) -> float:
        """The ``rank``-th largest score (``rank`` from 1): one
        ``np.partition`` inside the bucket that holds it."""
        position = self.size - int(rank)
        if not 0 <= position < self.size:
            raise ValueError(f"rank must be in [1, {self.size}], got {rank}")
        bucket = int(np.searchsorted(self.offsets, position, side="right")) - 1
        low = int(self.offsets[bucket])
        members = scores[np.asarray(order[low : self.offsets[bucket + 1]])]
        return float(np.partition(members, position - low)[position - low]) + 0.0

    def plan_estimate(self, recall: bool, gamma: float) -> SkipEstimate:
        """Expected skipping for a query, from the bucket counts alone.

        Under a calibrated proxy (``Pr[O=1|A] = A``, the budget planner's
        standing assumption) a bucket's expected positives are its count
        times its midpoint score, so:

        - a **recall**-target query keeps roughly the smallest score
          tail holding ``gamma`` of the total expected positive mass;
        - a **precision**-target query keeps roughly the largest tail
          whose expected precision (tail mass / tail count) still meets
          ``gamma`` (monotone in the start bucket, as the midpoints
          increase).
        """
        total = self.tail_mass[0]
        if recall:
            qualifying = np.flatnonzero(self.tail_mass[:-1] >= gamma * total)
            start = int(qualifying.max()) if total > 0.0 and qualifying.size else 0
        else:
            qualifying = np.flatnonzero(self.tail_precision >= gamma)
            start = int(qualifying.min()) if qualifying.size else BUCKETS
        touched = int(self.strata_above[start])
        return SkipEstimate(
            strata=self.strata,
            start_stratum=self.strata - touched,
            strata_touched=touched,
            est_selected=self.size - int(self.offsets[start]),
            est_skipped=int(self.offsets[start]),
        )
