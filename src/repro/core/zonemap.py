"""Stratified score zone-map index: data skipping for threshold queries.

Every SUPG hot path ultimately asks one of two questions about the
dataset's proxy scores: *how many* records lie at or above a threshold
``tau`` (recall-set sizing, planner estimates), and *which* records do
(``Dataset.select_above``, ``materialize_selection``).  Both were O(n)
full-array passes per query, even though the engine already pays to
fully sort every dataset's scores (``Dataset.sorted_scores`` /
``score_order``, which fork workers inherit from the parent).

A :class:`ScoreZoneMap` partitions the *sorted score order* into K
equi-depth strata of ~:data:`DEFAULT_STRATUM_SIZE` records and keeps,
per stratum: the record range (``offsets``), the score min/max
(``lows``/``highs``), and the summed proxy score (``score_mass`` — the
expected positive count under a calibrated proxy, the same assumption
the budget planner already makes).  Because strata are contiguous in
score order, any threshold cuts through **at most one** stratum:

- ``locate(tau)`` binary-searches the K stratum bounds, then at most
  one stratum's slice of the sorted scores — O(log K + log S) instead
  of O(n) — and returns the global cut position, *identical* to
  ``np.searchsorted(sorted_scores, tau, side="left")``.
- ``count_above(tau)`` is the cumulative tail count past that cut.
- ``select_above(tau)`` materializes the boundary stratum plus the
  cumulative tail by sorting ``score_order[cut:]`` — the cut indices
  are distinct integers, so any sort kind restores ascending order —
  **byte-identical** to the dense
  ``np.flatnonzero(proxy_scores >= tau)``, because the cut position
  splits the stable argsort exactly at the ``>= tau`` boundary.

When a selection retains more than :data:`DENSE_FALLBACK_FRACTION` of
the dataset, sorting the tail costs more than the dense boolean mask,
so ``select_above`` falls back to the dense path (still bit-identical;
counted in ``zonemap_dense_fallbacks``).  Datasets below
:data:`MIN_INDEXED_SIZE` records skip the index entirely
(``Dataset.zone_map`` is ``None``) — at that size the dense pass is
already cheap and the index bookkeeping is pure overhead.

The index arrays are tiny (4 arrays of K ≈ n / 8192 entries), so fork
workers inherit them like any other dataset statistic.  The dataset's
statistics backend builds the map (``StatisticsBackend.zone_map``); the
disk backend also keeps it in a fingerprint-keyed statistic file, so a
warm store serves it without sorting.

NaN proxy scores would break the dense/indexed equivalence (NaN
compares false against every ``tau`` but sorts to the end of
``sorted_scores``), so :class:`~repro.datasets.base.Dataset` rejects
them at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_STRATUM_SIZE",
    "DENSE_FALLBACK_FRACTION",
    "MIN_INDEXED_SIZE",
    "ZONE_MAP_COUNTERS",
    "ScoreZoneMap",
    "SkipEstimate",
    "stratum_offsets",
]

#: Records per stratum (equi-depth).  ~8k keeps the boundary-stratum
#: binary search inside one or two cache lines of scores while the
#: whole index for a 100M-record dataset stays under ~400 KB.
DEFAULT_STRATUM_SIZE = 8192

#: Below this many records the dense path is already cheap and
#: ``Dataset.zone_map`` stays ``None`` (callers can still force-build
#: via ``Dataset.build_zone_map`` for tests and micro-benchmarks).
MIN_INDEXED_SIZE = 4 * DEFAULT_STRATUM_SIZE

#: Selections retaining more than this fraction of the dataset fall
#: back to the dense boolean mask: one vectorized O(n) compare beats
#: radix-sorting an O(n)-sized index tail.
DENSE_FALLBACK_FRACTION = 0.25

#: The scan counters a zone map adds to: indexed selects, strata read,
#: records never visited, dense fallbacks, and the bytes a paged select
#: faults in.  Every statistics backend's ``counters`` holds these keys.
ZONE_MAP_COUNTERS = (
    "zonemap_selects",
    "strata_touched",
    "records_skipped",
    "zonemap_dense_fallbacks",
    "bytes_paged",
)


def stratum_offsets(size: int, stratum_size: int = DEFAULT_STRATUM_SIZE) -> np.ndarray:
    """Record offsets of ``ceil(size / stratum_size)`` equi-depth strata.

    A pure function of its arguments, so a persisted map need not store
    its offsets.
    """
    strata = -(-int(size) // stratum_size)  # ceil division
    return np.minimum(np.arange(strata + 1, dtype=np.intp) * stratum_size, int(size))


@dataclass(frozen=True)
class SkipEstimate:
    """A planner-facing cost estimate: strata touched × stratum size.

    Attributes:
        strata: total stratum count K of the dataset's zone map.
        stratum_size: records per (full) stratum.
        start_stratum: first stratum the estimated selection reaches
            into (``strata`` when the estimated selection is empty).
        strata_touched: strata the selection is expected to read.
        est_selected: estimated records selected (tail count).
        est_skipped: estimated records never touched (the prefix).
    """

    strata: int
    stratum_size: int
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
    """Equi-depth strata over one dataset's sorted proxy scores.

    Construct via :meth:`build` (from the cached ascending
    ``sorted_scores``).  The map holds only per-stratum summaries — the
    score arrays themselves stay on the dataset — so instances are cheap
    to inherit, pickle, and persist.

    Scan telemetry accrues in :attr:`counters`.  A map served by a
    statistics backend counts into that backend's ``counters`` dict
    (which ``SupgEngine.session_stats()`` reads), so counts are
    cumulative per backend and outlive the map; a map built directly
    counts into a dict of its own.  Counts made in forked workers die
    with the worker, so the totals reflect parent-process selections:
    prewarm, sequential execution, and recovery.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        score_mass: np.ndarray,
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.lows = np.asarray(lows, dtype=float)
        self.highs = np.asarray(highs, dtype=float)
        self.score_mass = np.asarray(score_mass, dtype=float)
        if (
            self.offsets.ndim != 1
            or self.offsets.size < 2
            or self.lows.shape != self.highs.shape
            or self.lows.shape != self.score_mass.shape
            or self.lows.size != self.offsets.size - 1
        ):
            raise ValueError("zone-map arrays are misaligned")
        #: Cumulative suffix sums of ``score_mass`` (length K+1): the
        #: expected positives at or above each stratum boundary, under
        #: a calibrated proxy.  Derived locally, never shared.
        self.tail_mass = np.concatenate(
            [np.cumsum(self.score_mass[::-1])[::-1], [0.0]]
        )
        self.counters: dict[str, int] = dict.fromkeys(ZONE_MAP_COUNTERS, 0)

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        sorted_scores: np.ndarray,
        stratum_size: int | None = None,
    ) -> "ScoreZoneMap":
        """Build the index from ascending sorted scores.

        Deterministic in the inputs, so a map built in the parent and a
        map rebuilt in a fork child are element-identical.
        """
        scores = np.asarray(sorted_scores, dtype=float)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError("sorted_scores must be a non-empty 1-D array")
        depth = DEFAULT_STRATUM_SIZE if stratum_size is None else int(stratum_size)
        if depth <= 0:
            raise ValueError(f"stratum_size must be positive, got {depth}")
        offsets = stratum_offsets(scores.size, depth)
        lows = scores[offsets[:-1]]
        highs = scores[offsets[1:] - 1]
        score_mass = np.add.reduceat(scores, offsets[:-1])
        return cls(offsets, lows, highs, score_mass)

    # -- structure -------------------------------------------------------------

    @property
    def size(self) -> int:
        """Records covered (the dataset size)."""
        return int(self.offsets[-1])

    @property
    def strata(self) -> int:
        """Stratum count K."""
        return int(self.lows.size)

    @property
    def stratum_size(self) -> int:
        """Records per full stratum (the last stratum may be shorter)."""
        return int(self.offsets[1] - self.offsets[0])

    # -- skipping lookups ------------------------------------------------------

    def locate(self, tau: float, sorted_scores: np.ndarray) -> tuple[int, int]:
        """The global cut for ``tau``: ``(position, boundary stratum)``.

        ``position`` equals ``np.searchsorted(sorted_scores, tau,
        side="left")`` — the first sorted position with score >= tau —
        but is found through the stratum bounds: strata whose ``high``
        is below ``tau`` cannot contain the cut, and because strata are
        contiguous in score order exactly one stratum can straddle it.
        ``boundary stratum`` is K when the selection is empty.
        """
        j = int(np.searchsorted(self.highs, tau, side="left"))
        if j >= self.strata:
            return self.size, self.strata
        low = int(self.offsets[j])
        if self.lows[j] >= tau:
            return low, j
        high = int(self.offsets[j + 1])
        return low + int(
            np.searchsorted(sorted_scores[low:high], tau, side="left")
        ), j

    def count_above(self, tau: float, sorted_scores: np.ndarray) -> int:
        """``|{x : A(x) >= tau}|`` via the cumulative tail count."""
        position, _ = self.locate(tau, sorted_scores)
        return self.size - position

    def select_above(
        self,
        tau: float,
        sorted_scores: np.ndarray,
        score_order: np.ndarray,
        proxy_scores: np.ndarray,
    ) -> np.ndarray:
        """Indices of ``{x : A(x) >= tau}``, ascending.

        Byte-identical to ``np.flatnonzero(proxy_scores >= tau)``: the
        cut position splits the stable argsort exactly at the
        ``>= tau`` boundary, so ``score_order[position:]`` *is* the
        selected index set, and sorting it restores ascending order in
        O(selected log selected).  The indices are distinct integers,
        so the sort kind cannot change the result and the default
        introsort (3-10x faster than numpy's stable mergesort on wide
        integers) is safe.  Large selections take the dense mask
        instead (see :data:`DENSE_FALLBACK_FRACTION`).
        """
        position, stratum = self.locate(tau, sorted_scores)
        selected = self.size - position
        self.counters["zonemap_selects"] += 1
        if selected == 0:
            self.counters["records_skipped"] += self.size
            return np.zeros(0, dtype=np.intp)
        if selected > DENSE_FALLBACK_FRACTION * self.size:
            self.counters["zonemap_dense_fallbacks"] += 1
            self.counters["strata_touched"] += self.strata
            return np.flatnonzero(proxy_scores >= tau)
        self.counters["strata_touched"] += self.strata - stratum
        self.counters["records_skipped"] += position
        return np.sort(score_order[position:])

    def select_above_paged(
        self,
        tau: float,
        sorted_scores: np.ndarray,
        score_order: np.ndarray,
    ) -> np.ndarray:
        """Out-of-core ``select_above``: page in only what the tau cuts.

        Same indices, byte for byte, as :meth:`select_above` (and hence
        as the dense scan) — but built for file-backed statistics.  The
        only pages faulted in are the boundary stratum of
        ``sorted_scores`` that :meth:`locate` bisects and the
        ``score_order`` tail that *is* the selection; ``proxy_scores``
        is never touched and there is no dense-mask fallback, which
        over a memmap would fault in the entire column and defeat the
        point.  ``bytes_paged`` accounts the faulted-in byte span.
        """
        position, stratum = self.locate(tau, sorted_scores)
        selected = self.size - position
        boundary = 0
        if stratum < self.strata:
            boundary = int(self.offsets[stratum + 1] - self.offsets[stratum])
        self.counters["zonemap_selects"] += 1
        self.counters["bytes_paged"] += (
            boundary * sorted_scores.itemsize + selected * score_order.itemsize
        )
        if selected == 0:
            self.counters["records_skipped"] += self.size
            return np.zeros(0, dtype=np.intp)
        self.counters["strata_touched"] += self.strata - stratum
        self.counters["records_skipped"] += position
        return np.sort(np.asarray(score_order[position:]))

    # -- planner estimates -----------------------------------------------------

    def plan_estimate(self, recall: bool, gamma: float) -> SkipEstimate:
        """Expected skipping for a query, from per-stratum score mass.

        Under a calibrated proxy (``Pr[O=1|A] = A`` — the budget
        planner's standing assumption) ``score_mass`` is each stratum's
        expected positive count, so:

        - a **recall**-target query keeps roughly the smallest score
          tail holding ``gamma`` of the total expected positive mass;
        - a **precision**-target query keeps roughly the largest tail
          whose expected precision (tail mass / tail count) still
          meets ``gamma`` (tail precision is monotone in the start
          stratum because scores are sorted).
        """
        total = float(self.tail_mass[0])
        if recall:
            if total <= 0.0:
                start = 0
            else:
                qualifying = np.flatnonzero(
                    self.tail_mass[:-1] >= gamma * total
                )
                start = int(qualifying.max()) if qualifying.size else 0
        else:
            tail_counts = (self.size - self.offsets[:-1]).astype(float)
            precision = self.tail_mass[:-1] / tail_counts
            qualifying = np.flatnonzero(precision >= gamma)
            start = int(qualifying.min()) if qualifying.size else self.strata
        return SkipEstimate(
            strata=self.strata,
            stratum_size=self.stratum_size,
            start_stratum=start,
            strata_touched=self.strata - start,
            est_selected=self.size - int(self.offsets[start]),
            est_skipped=int(self.offsets[start]),
        )
