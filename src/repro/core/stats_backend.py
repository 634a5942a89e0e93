"""Statistics backends: one provider interface from Dataset to zone map.

SUPG's selectors only ever touch a dataset through a handful of derived
statistics — the ascending sorted proxy scores (Algorithm 5's stage-1
cut), the stable argsort order that maps sorted positions back to record
indices, the inverse CDF of each defensive importance-weight design
(:class:`~repro.sampling.SamplingCDF`, which every importance draw of
Algorithms 4-5 searches), and the score zone map that serves every
threshold scan (:mod:`repro.core.zonemap`).
Historically those lived as ad-hoc ``Dataset`` cached properties, which
assumes every statistic is a fully materialized ``ndarray`` in RAM and
caps the system at memory-sized datasets.

This module puts a provider interface between *what a statistic is* and
*where its bytes live*:

``InMemoryBackend``
    The historical behavior, bit for bit: ``np.sort``,
    ``np.argsort(kind="stable")`` and :func:`repro.sampling.sampling_cdf`
    on RAM arrays, and
    :meth:`ScoreZoneMap.build <repro.core.zonemap.ScoreZoneMap.build>`.

``DiskBackend``
    Statistics live in fingerprint-keyed ``.npy`` files under the store
    directory and are handed back as read-only ``np.memmap`` windows.
    Construction never materializes an O(n) temporary: the sort runs as
    a chunked external merge sort (stable, byte-identical to
    ``np.argsort(kind="stable")``) and each inverse CDF streams through
    in O(chunk) passes whose floating-point result is bit-identical to
    the one-shot in-memory computation (see :func:`chunked_pairwise_sum`
    and :meth:`DiskBackend._build_cdf`).  Peak RSS during construction
    and scans is O(chunk_records), not O(n).  The zone map is built once
    from the sorted scores and kept in a statistic file of its own, so
    a warm store serves every statistic without sorting.

Bit-identity across backends is the contract, not an aspiration: every
query result, every random draw, and every selection must be
byte-identical whichever backend serves the statistics.  The only
permitted divergence is the internal byte layout of equal-comparing
signed zeros inside ``sorted_scores`` (``np.sort`` is not stable, the
external merge is) — value-identical, and invisible to ``searchsorted``
and every selection path, which go through the stable ``score_order``.

Corrupt or stale backend files (fingerprint/shape/dtype mismatch,
truncation, garbage) are quarantined with a forensic reason sidecar —
the same convention as the sample store's spill quarantine — and the
statistic is rebuilt from the source scores on the next access.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np
from numpy.lib.format import open_memmap

from ..sampling.weighted import (
    SamplingCDF,
    check_weight_total,
    check_weights,
    defensive_weights,
    require_score_mass,
    sampling_cdf,
    score_powers,
    validate_design,
    validate_scores,
)
from .pipeline import quarantine_file
from .zonemap import ZONE_MAP_COUNTERS, ScoreZoneMap, stratum_offsets

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datasets.base import Dataset

__all__ = [
    "DEFAULT_CHUNK_RECORDS",
    "STAT_FILE_GLOB",
    "STAT_META_GLOB",
    "StatisticsBackend",
    "InMemoryBackend",
    "DiskBackend",
    "cdf_stat_name",
    "chunked_argsort",
    "chunked_pairwise_sum",
    "external_stable_argsort",
    "statistic_entries",
    "ZONE_MAP_STAT",
]

#: Default records per chunk for the disk backend's external sort and
#: streaming CDF passes.  1M float64 records is 8 MiB per buffer —
#: small enough that construction peaks far below the dataset footprint,
#: large enough that the merge runs at memory bandwidth.
DEFAULT_CHUNK_RECORDS = 1 << 20

#: Backend statistic files under a store directory.
STAT_FILE_GLOB = "stat-*.npy"

#: Metadata sidecars (full fingerprint, record count, dtype) validating
#: each statistic file.  Named ``<stat file>.meta.json`` so the pair
#: sorts together and neither glob matches the other.
STAT_META_GLOB = "stat-*.npy.meta.json"

_META_SUFFIX = ".meta.json"
_STAT_FORMAT_VERSION = 1

#: Statistic name of the persisted zone map.
ZONE_MAP_STAT = "zone-map"

#: numpy's pairwise summation stops recursing at blocks of 128 elements
#: (``PW_BLOCKSIZE`` in the ufunc reduce loops); the chunked emulation
#: must never split below that or the leaf accumulation order diverges.
_NUMPY_PAIRWISE_BLOCK = 128


def _fresh_counters() -> dict[str, int]:
    counters = dict.fromkeys(ZONE_MAP_COUNTERS, 0)
    counters.update(
        sorts_performed=0,
        weight_passes=0,
        chunks_merged=0,
        peak_chunk_bytes=0,
        stats_quarantined=0,
    )
    return counters


def _note_chunk(counters: dict[str, int] | None, nbytes: int) -> None:
    if counters is None:
        return
    if nbytes > counters["peak_chunk_bytes"]:
        counters["peak_chunk_bytes"] = int(nbytes)


#: Metadata keys of a CDF statistic file: the score total ``T`` and the
#: weight total ``W`` its draws need (JSON floats round-trip exactly).
_CDF_TOTALS = ("score_total", "weight_total")


def _is_total(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value >= 0.0


def cdf_stat_name(exponent: float, mixing: float) -> str:
    """Canonical statistic name for the inverse CDF of a weight design.

    Names the :class:`DiskBackend`'s CDF files, so a design's draw
    statistic is the same file in every session sharing a store
    directory.
    """
    return f"cdf-{float(exponent):g}-{float(mixing):g}"


# ----------------------------------------------------------------------
# Chunked external merge sort.
#
# Phase 1 argsorts each contiguous chunk with ``kind="stable"`` and
# writes the runs (sorted scores + global indices) into a scratch
# buffer.  Phase 2 repeatedly merges *adjacent* run pairs blockwise:
# because the left run's indices are all smaller than the right run's,
# a merge that breaks score ties in favor of the left run reproduces the
# global stable argsort exactly.  Buffers ping-pong between passes; the
# initial buffer is chosen by pass-count parity so the final pass lands
# in the caller's primary buffer.  Peak RSS is O(chunk): each step
# touches at most one chunk-sized block per run plus the merged block.
# ----------------------------------------------------------------------


def _copy_range(src, dst, lo: int, hi: int, out: int, chunk: int) -> None:
    """Copy ``src[lo:hi]`` to ``dst[out:...]`` for each (scores, order) pair."""
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        for s, d in zip(src, dst):
            d[out : out + (stop - start)] = s[start:stop]
        out += stop - start


def _merge_adjacent_runs(
    src,
    dst,
    a_lo: int,
    a_hi: int,
    b_hi: int,
    chunk: int,
    counters: dict[str, int] | None,
) -> None:
    """Stable-merge runs ``[a_lo, a_hi)`` and ``[a_hi, b_hi)`` into ``dst``.

    Ties emit the left run first; since the left run holds strictly
    smaller record indices this is exactly stable-argsort tie order.
    Each iteration loads one block per run, determines the longest
    prefixes that can be emitted without seeing more data (every left
    element ``<=`` the left block's last score is final once the right
    block's strictly-smaller prefix is known, and vice versa), and
    interleaves them positionally via ``searchsorted`` — no Python-level
    per-element loop.
    """
    src_scores, src_order = src
    dst_scores, dst_order = dst
    ia, ib, out = a_lo, a_hi, a_lo
    while True:
        if ia == a_hi:
            _copy_range(src, dst, ib, b_hi, out, chunk)
            return
        if ib == b_hi:
            _copy_range(src, dst, ia, a_hi, out, chunk)
            return
        a_blk = np.asarray(src_scores[ia : min(ia + chunk, a_hi)])
        b_blk = np.asarray(src_scores[ib : min(ib + chunk, b_hi)])
        last_a = a_blk[-1]
        last_b = b_blk[-1]
        if last_a <= last_b:
            # Every element of a_blk is final; b's strictly-below-last_a
            # prefix is final (ties wait so the left run emits first).
            na = int(a_blk.size)
            nb = int(np.searchsorted(b_blk, last_a, side="left"))
        else:
            na = int(np.searchsorted(a_blk, last_b, side="right"))
            nb = int(b_blk.size)
        a_emit = a_blk[:na]
        b_emit = b_blk[:nb]
        # Final position of each emitted element inside the merged
        # block: its own rank plus the count of other-run elements that
        # precede it (left-priority on ties).
        pos_a = np.arange(na, dtype=np.intp) + np.searchsorted(
            b_emit, a_emit, side="left"
        )
        pos_b = np.arange(nb, dtype=np.intp) + np.searchsorted(
            a_emit, b_emit, side="right"
        )
        merged_scores = np.empty(na + nb, dtype=a_blk.dtype)
        merged_order = np.empty(na + nb, dtype=np.intp)
        merged_scores[pos_a] = a_emit
        merged_scores[pos_b] = b_emit
        merged_order[pos_a] = np.asarray(src_order[ia : ia + na])
        merged_order[pos_b] = np.asarray(src_order[ib : ib + nb])
        dst_scores[out : out + na + nb] = merged_scores
        dst_order[out : out + na + nb] = merged_order
        ia += na
        ib += nb
        out += na + nb
        if counters is not None:
            counters["chunks_merged"] += 1
        _note_chunk(
            counters,
            a_blk.nbytes + b_blk.nbytes + merged_scores.nbytes + merged_order.nbytes,
        )


def external_stable_argsort(
    values,
    primary,
    scratch,
    chunk_records: int,
    counters: dict[str, int] | None = None,
):
    """Chunked stable argsort of ``values`` into preallocated buffers.

    ``primary`` and ``scratch`` are ``(scores, order)`` pairs of
    length-n array-likes (typically ``np.memmap``).  On return
    ``primary[0]`` holds the ascending scores and ``primary[1]`` the
    stable argsort — byte-identical to
    ``order = np.argsort(values, kind="stable"); scores = values[order]``
    — with peak working memory O(chunk_records).  The run-generation
    buffer is chosen by merge-pass parity so the result always lands in
    ``primary``.  Returns ``primary``.
    """
    n = int(values.shape[0]) if hasattr(values, "shape") else len(values)
    chunk = max(1, int(chunk_records))
    runs = max(1, -(-n // chunk))
    passes = 0
    r = runs
    while r > 1:
        r = (r + 1) // 2
        passes += 1
    src, dst = (primary, scratch) if passes % 2 == 0 else (scratch, primary)
    # Phase 1: chunk-local stable runs.
    bounds = list(range(0, n, chunk)) + [n]
    if n == 0:
        return primary
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = np.asarray(values[lo:hi], dtype=float)
        local = np.argsort(part, kind="stable")
        src[0][lo:hi] = part[local]
        src[1][lo:hi] = local + lo
        _note_chunk(counters, 2 * part.nbytes + 2 * local.nbytes)
    # Phase 2: merge adjacent run pairs until one run remains.
    while len(bounds) > 2:
        new_bounds = [bounds[0]]
        idx = 0
        while idx + 2 <= len(bounds) - 1:
            _merge_adjacent_runs(
                src, dst, bounds[idx], bounds[idx + 1], bounds[idx + 2], chunk, counters
            )
            new_bounds.append(bounds[idx + 2])
            idx += 2
        if idx == len(bounds) - 2:
            # Odd run out: carry it over unchanged.
            _copy_range(src, dst, bounds[idx], bounds[idx + 1], bounds[idx], chunk)
            new_bounds.append(bounds[idx + 1])
        src, dst = dst, src
        bounds = new_bounds
    return primary


def chunked_argsort(values, chunk_records: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_values, stable_order)`` via the external merge path.

    In-memory buffers; exists so tests can pin the merge against
    ``np.argsort(kind="stable")`` without touching disk.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    primary = (np.empty(n, dtype=np.float64), np.empty(n, dtype=np.intp))
    scratch = (np.empty(n, dtype=np.float64), np.empty(n, dtype=np.intp))
    external_stable_argsort(values, primary, scratch, chunk_records)
    return primary


def chunked_pairwise_sum(
    read: Callable[[int, int], np.ndarray],
    n: int,
    chunk_records: int,
    offset: int = 0,
) -> np.float64:
    """``np.sum``-bit-identical total over a column read in segments.

    numpy's pairwise summation splits a reduction of ``n > 128``
    contiguous doubles at ``n2 = (n // 2) - ((n // 2) % 8)`` — a pure
    function of ``n``.  Recursing down that exact split tree, summing
    each leaf segment with ``np.sum`` (which runs the same pairwise
    kernel on the segment), and combining partials with float64 adds in
    tree order therefore reproduces the one-shot ``array.sum()`` to the
    last bit while holding only O(chunk_records) elements at a time.
    ``read(lo, hi)`` must return the contiguous float64 segment
    ``column[lo:hi]``.
    """
    if n <= 0:
        return np.float64(0.0)
    if n <= chunk_records or n <= _NUMPY_PAIRWISE_BLOCK:
        return np.float64(np.sum(read(offset, offset + n)))
    half = n // 2
    half -= half % 8
    return chunked_pairwise_sum(read, half, chunk_records, offset) + chunked_pairwise_sum(
        read, n - half, chunk_records, offset + half
    )


# ----------------------------------------------------------------------
# Backends.
# ----------------------------------------------------------------------


class StatisticsBackend:
    """Provider interface for a dataset's derived statistics.

    A backend owns *where the bytes live*; :class:`~repro.datasets.base.
    Dataset` owns *when a statistic is needed* (its cached properties
    delegate here on first access and memoize the returned view).  The
    returned arrays are read-only and must be bit-identical across
    implementations — callers never know or care which backend served
    them.

    ``sampling_weights`` returns the draw statistic of one weight
    design, a :class:`~repro.sampling.SamplingCDF`: the inverse CDF of
    the defensive weights with their two totals, not the weights
    themselves.  It keeps the name of the weight vector it replaced,
    which perfbench's tracing shims time as the ``stats`` layer.

    ``zone_map`` returns an in-RAM
    :class:`~repro.core.zonemap.ScoreZoneMap` (its arrays are tiny);
    the dataset applies the ``MIN_INDEXED_SIZE`` gate before asking.

    ``counters`` is one plain dict, cumulative over the backend's life,
    that ``SupgEngine.session_stats()`` reads as is: construction work
    (``sorts_performed``, ``weight_passes`` — one per CDF built —
    ``chunks_merged``, ``peak_chunk_bytes``), integrity events
    (``stats_quarantined``), and the scans of every zone map the backend served
    (:data:`~repro.core.zonemap.ZONE_MAP_COUNTERS`, ``bytes_paged``
    included).  Those maps count straight into this dict, so their
    counts survive a table being registered again or replaced.
    """

    #: Whether statistics come back as file-backed memmap windows.  The
    #: dataset routes threshold scans through the zone map's *paged*
    #: select path when true, so a scan touches only the strata the tau
    #: cuts rather than faulting in the whole column.
    paged = False

    def __init__(self) -> None:
        self.counters = _fresh_counters()

    def sorted_scores(self, dataset: "Dataset") -> np.ndarray:
        raise NotImplementedError

    def score_order(self, dataset: "Dataset") -> np.ndarray:
        raise NotImplementedError

    def sampling_weights(
        self, dataset: "Dataset", exponent: float, mixing: float
    ) -> SamplingCDF:
        raise NotImplementedError

    def zone_map(self, dataset: "Dataset") -> ScoreZoneMap:
        raise NotImplementedError


class InMemoryBackend(StatisticsBackend):
    """The historical RAM path, bit for bit."""

    def sorted_scores(self, dataset: "Dataset") -> np.ndarray:
        self.counters["sorts_performed"] += 1
        out = np.sort(dataset.proxy_scores)
        out.flags.writeable = False
        return out

    def score_order(self, dataset: "Dataset") -> np.ndarray:
        self.counters["sorts_performed"] += 1
        out = np.argsort(dataset.proxy_scores, kind="stable")
        out.flags.writeable = False
        return out

    def sampling_weights(
        self, dataset: "Dataset", exponent: float, mixing: float
    ) -> SamplingCDF:
        self.counters["weight_passes"] += 1
        return sampling_cdf(dataset.proxy_scores, exponent, mixing)

    def zone_map(self, dataset: "Dataset") -> ScoreZoneMap:
        zone_map = ScoreZoneMap.build(dataset.sorted_scores)
        zone_map.counters = self.counters
        return zone_map


class DiskBackend(StatisticsBackend):
    """Fingerprint-keyed statistic files under the store directory.

    Files are named ``stat-<fingerprint16>-<statistic>.npy`` with a
    ``.meta.json`` sidecar recording the format version, the *full*
    fingerprint, record count and dtype; a file whose sidecar is
    missing or mismatched is quarantined and rebuilt.  Writes are
    crash-safe: the array is built in a dot-prefixed temporary, flushed,
    its sidecar written, then ``os.replace``d into place — readers
    either see the complete pair or nothing.  Opened views are
    ``mmap_mode="r"`` windows shared freely across fork workers (and
    re-openable by path from any process), so a fan-out's workers share
    the page cache instead of copying bytes.  The zone map is the
    exception: it is read into RAM, since its arrays are tiny.
    """

    paged = True

    def __init__(self, directory, chunk_records: int = DEFAULT_CHUNK_RECORDS) -> None:
        super().__init__()
        self.directory = Path(directory).expanduser()
        self.chunk_records = max(1, int(chunk_records))

    # -- file naming ---------------------------------------------------

    @staticmethod
    def stat_filename(fingerprint: str, name: str) -> str:
        return f"stat-{fingerprint[:16]}-{name}.npy"

    def stat_path(self, fingerprint: str, name: str) -> Path:
        return self.directory / self.stat_filename(fingerprint, name)

    # -- provider interface --------------------------------------------

    def sorted_scores(self, dataset: "Dataset") -> np.ndarray:
        return self._sort_statistic(dataset, "sorted-scores", np.float64)

    def score_order(self, dataset: "Dataset") -> np.ndarray:
        return self._sort_statistic(dataset, "score-order", np.intp)

    def sampling_weights(
        self, dataset: "Dataset", exponent: float, mixing: float
    ) -> SamplingCDF:
        # The in-memory build's validation, so misuse fails identically
        # whichever backend is active; a warm file skips the score pass.
        exponent, mixing = validate_design(exponent, mixing)
        name = cdf_stat_name(exponent, mixing)
        fingerprint = dataset.fingerprint
        opened = self._open(fingerprint, name, dataset.size, np.float64, _CDF_TOTALS)
        if opened is None:
            self._build_cdf(dataset, fingerprint, name, exponent, mixing)
            opened = self._require(fingerprint, name, dataset.size, np.float64, _CDF_TOTALS)
        view, meta = opened
        return SamplingCDF(view, exponent, mixing, meta["score_total"], meta["weight_total"])

    def zone_map(self, dataset: "Dataset") -> ScoreZoneMap:
        # The file holds the strata's lows, highs and score mass,
        # concatenated; the offsets follow from the record count.
        offsets = stratum_offsets(dataset.size)
        strata = offsets.size - 1
        fingerprint = dataset.fingerprint
        opened = self._open(fingerprint, ZONE_MAP_STAT, 3 * strata, np.float64)
        if opened is not None:
            zone_map = ScoreZoneMap(offsets, *np.array(opened[0]).reshape(3, strata))
            zone_map.counters = self.counters
            return zone_map
        zone_map = ScoreZoneMap.build(dataset.sorted_scores)
        zone_map.counters = self.counters
        summaries = np.concatenate([zone_map.lows, zone_map.highs, zone_map.score_mass])
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self._scratch_path(ZONE_MAP_STAT)
        try:
            np.save(tmp, summaries)
            self._finalize(
                tmp,
                self.stat_path(fingerprint, ZONE_MAP_STAT),
                fingerprint,
                ZONE_MAP_STAT,
                summaries.size,
                np.float64,
            )
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()
        return zone_map

    # -- open / validate / quarantine ----------------------------------

    def _meta_path(self, path: Path) -> Path:
        return path.with_name(path.name + _META_SUFFIX)

    def _read_meta(self, path: Path) -> dict | None:
        meta_path = self._meta_path(path)
        try:
            return json.loads(meta_path.read_text())
        except (OSError, ValueError):
            return None

    def _write_meta(
        self, path: Path, fingerprint: str, name: str, records: int, dtype, extra: dict
    ) -> None:
        payload = {
            "format_version": _STAT_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "stat": name,
            "records": int(records),
            "dtype": np.dtype(dtype).str,
            "chunk_records": self.chunk_records,
            "created_at": time.time(),
            **extra,
        }
        self._meta_path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    def _open(
        self, fingerprint: str, name: str, records: int, dtype, totals: tuple[str, ...] = ()
    ) -> tuple[np.ndarray, dict] | None:
        """A validated read-only memmap of the statistic and its metadata,
        or ``None``.

        Any inconsistency — unreadable header, truncated data, missing
        or mismatched metadata, a key of ``totals`` that is not a finite
        non-negative float — quarantines the file so the caller rebuilds
        from source.
        """
        path = self.stat_path(fingerprint, name)
        if not path.exists():
            return None
        meta = self._read_meta(path)
        try:
            view = np.load(path, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError) as exc:
            self._quarantine(path, f"unreadable statistic file: {exc}")
            return None
        if (
            meta is None
            or meta.get("format_version") != _STAT_FORMAT_VERSION
            or meta.get("fingerprint") != fingerprint
            or int(meta.get("records", -1)) != int(records)
            or view.ndim != 1
            or view.shape[0] != int(records)
            or view.dtype != np.dtype(dtype)
            or not all(_is_total(meta.get(key)) for key in totals)
        ):
            del view
            self._quarantine(path, "stale or mismatched statistic file")
            return None
        return view, meta

    def _require(
        self, fingerprint: str, name: str, records: int, dtype, totals: tuple[str, ...] = ()
    ) -> tuple[np.ndarray, dict]:
        opened = self._open(fingerprint, name, records, dtype, totals)
        if opened is None:
            raise OSError(
                f"statistic {name!r} for dataset {fingerprint[:16]} could not be "
                f"built under {self.directory} (directory unwritable or file "
                "corrupted during construction)"
            )
        return opened

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad statistic file aside with a forensic reason sidecar.

        The sample store's spill quarantine (:func:`~repro.core.pipeline.
        quarantine_file`): the file lands in ``<directory>/quarantine/``
        next to a ``.reason.json`` report, or is deleted when it cannot
        be moved; its metadata sidecar is removed, and the statistic
        rebuilds from source on the next access.
        """
        self.counters["stats_quarantined"] += 1
        if not quarantine_file(path, reason):
            with contextlib.suppress(OSError):
                path.unlink()
        with contextlib.suppress(OSError):
            self._meta_path(path).unlink()

    # -- construction --------------------------------------------------

    def _scratch_path(self, tag: str) -> Path:
        return self.directory / f".build-{os.getpid():x}-{tag}.npy"

    def _finalize(
        self, tmp: Path, final: Path, fingerprint: str, name: str, records: int, dtype,
        extra: dict | None = None,
    ) -> None:
        # Metadata lands before the array file: a reader that races the
        # rename either misses the .npy entirely (rebuild path) or sees
        # the complete, validated pair.  The reverse order would let a
        # reader quarantine a perfectly good freshly-built file.
        self._write_meta(final, fingerprint, name, records, dtype, extra or {})
        os.replace(tmp, final)

    def _sort_statistic(self, dataset: "Dataset", which: str, dtype) -> np.ndarray:
        fingerprint = dataset.fingerprint
        opened = self._open(fingerprint, which, dataset.size, dtype)
        if opened is None:
            self._build_sort(dataset, fingerprint)
            opened = self._require(fingerprint, which, dataset.size, dtype)
        return opened[0]

    def _build_sort(self, dataset: "Dataset", fingerprint: str) -> None:
        """External-merge both sort statistics in one pass over the data."""
        self.counters["sorts_performed"] += 1
        n = dataset.size
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp_scores = self._scratch_path("sorted-scores")
        tmp_order = self._scratch_path("score-order")
        tmp_scores2 = self._scratch_path("scratch-scores")
        tmp_order2 = self._scratch_path("scratch-order")
        scratch_files = [tmp_scores, tmp_order, tmp_scores2, tmp_order2]
        try:
            primary = (
                open_memmap(tmp_scores, mode="w+", dtype=np.float64, shape=(n,)),
                open_memmap(tmp_order, mode="w+", dtype=np.intp, shape=(n,)),
            )
            scratch = (
                open_memmap(tmp_scores2, mode="w+", dtype=np.float64, shape=(n,)),
                open_memmap(tmp_order2, mode="w+", dtype=np.intp, shape=(n,)),
            )
            external_stable_argsort(
                dataset.proxy_scores, primary, scratch, self.chunk_records, self.counters
            )
            for buf in (*primary, *scratch):
                buf.flush()
            del primary, scratch
            self._finalize(
                tmp_scores,
                self.stat_path(fingerprint, "sorted-scores"),
                fingerprint,
                "sorted-scores",
                n,
                np.float64,
            )
            self._finalize(
                tmp_order,
                self.stat_path(fingerprint, "score-order"),
                fingerprint,
                "score-order",
                n,
                np.intp,
            )
        finally:
            for leftover in scratch_files:
                try:
                    leftover.unlink()
                except OSError:
                    pass

    def _build_cdf(
        self,
        dataset: "Dataset",
        fingerprint: str,
        name: str,
        exponent: float,
        mixing: float,
    ) -> None:
        """Stream :func:`~repro.sampling.sampling_cdf` in O(chunk) passes,
        bit-identically.

        Two pairwise-faithful chunked sums give ``T`` (over the score
        powers) and ``W`` (over the weights, which the second sum also
        writes to the file), the same floats the one-shot sums give.
        One pass then turns each chunk into its cumulative sum of
        ``w / W`` in place, with the running total folded into the
        chunk's first element before its ``cumsum``: every entry is the
        same sequence of additions as one ``cumsum`` over the whole
        column.  A second pass divides by the last entry.  ``T`` and
        ``W`` go into the metadata, so a warm open reads no column.
        """
        self.counters["weight_passes"] += 1
        scores = validate_scores(dataset.proxy_scores)
        n = dataset.size
        chunk = self.chunk_records
        score_total = float(
            chunked_pairwise_sum(lambda lo, hi: score_powers(scores[lo:hi], exponent), n, chunk)
        )
        require_score_mass(score_total, mixing)
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self._scratch_path(name)
        try:
            out = open_memmap(tmp, mode="w+", dtype=np.float64, shape=(n,))

            def weights(lo: int, hi: int) -> np.ndarray:
                segment = defensive_weights(scores[lo:hi], exponent, mixing, n, score_total)
                check_weights(segment)
                _note_chunk(self.counters, segment.nbytes)
                out[lo:hi] = segment
                return segment

            weight_total = float(chunked_pairwise_sum(weights, n, chunk))
            check_weight_total(weight_total)
            carry = None
            for lo in range(0, n, chunk):
                segment = out[lo : lo + chunk]
                segment /= weight_total
                if carry is not None:
                    segment[0] += carry
                np.cumsum(segment, out=segment)
                carry = segment[-1]
            for lo in range(0, n, chunk):
                out[lo : lo + chunk] /= carry
            out.flush()
            del out
            self._finalize(
                tmp, self.stat_path(fingerprint, name), fingerprint, name, n, np.float64,
                {"score_total": score_total, "weight_total": weight_total},
            )
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()


# ----------------------------------------------------------------------
# Store-directory introspection (``repro store ls``).
# ----------------------------------------------------------------------


def statistic_entries(directory) -> list[dict[str, object]]:
    """Describe every backend statistic file under ``directory``.

    Each entry reports file name, size, dtype, record count, the owning
    dataset fingerprint (from the metadata sidecar) and a ``state`` of
    ``"warm"`` (valid pair) or ``"stale"`` (unreadable, or metadata
    missing, of another format version or mismatched — the backend would
    quarantine and rebuild it on access).
    """
    base = Path(directory).expanduser()
    entries: list[dict[str, object]] = []
    if not base.is_dir():
        return entries
    for path in sorted(base.glob(STAT_FILE_GLOB)):
        entry: dict[str, object] = {
            "file": path.name,
            "bytes": int(path.stat().st_size),
        }
        state = "warm"
        records = None
        try:
            view = np.load(path, mmap_mode="r", allow_pickle=False)
            entry["dtype"] = str(view.dtype)
            records = int(view.shape[0]) if view.ndim == 1 else None
            entry["records"] = records
            del view
        except (OSError, ValueError) as exc:
            entry["error"] = str(exc)
            state = "stale"
        meta = None
        meta_path = path.with_name(path.name + _META_SUFFIX)
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            meta = None
        if meta is None or meta.get("format_version") != _STAT_FORMAT_VERSION:
            state = "stale"
        if meta is not None:
            entry["fingerprint"] = meta.get("fingerprint")
            entry["stat"] = meta.get("stat")
            if records is not None and int(meta.get("records", -1)) != records:
                state = "stale"
        entry["state"] = state
        entries.append(entry)
    return entries


def statistic_files(directory) -> Iterable[Path]:
    """Every backend statistic file and metadata sidecar under ``directory``."""
    base = Path(directory).expanduser()
    if not base.is_dir():
        return []
    return sorted([*base.glob(STAT_FILE_GLOB), *base.glob(STAT_META_GLOB)])
