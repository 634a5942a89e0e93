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
    The historical statistics, bit for bit, on RAM arrays: ``np.sort``,
    the stable argsort from :func:`stable_argsort` (numpy's SIMD
    ``argsort`` plus a re-sort of each run of tied scores by record
    index, byte-identical to ``np.argsort(kind="stable")``),
    :func:`repro.sampling.sampling_cdf`, and
    :meth:`ScoreZoneMap.build <repro.core.zonemap.ScoreZoneMap.build>`.

``DiskBackend``
    Statistics live in fingerprint-keyed ``.npy`` files under the store
    directory and are handed back as read-only ``np.memmap`` windows.
    Construction never materializes an O(n) temporary: the sort runs as
    a chunked external merge sort (:func:`stable_argsort` per chunk,
    timsort merges of adjacent runs; byte-identical to
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
truncation, garbage) are quarantined with a forensic reason sidecar and
the statistic is rebuilt from the source scores on the next access.
The sample store keeps each dataset's oracle label column as one more
statistic file (:data:`LABELS_STAT`), written, validated and
quarantined by the same module-level helpers (:func:`open_statistic`,
:func:`finalize_statistic`, :func:`quarantine_statistic`).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import threading
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
from .zonemap import ZONE_MAP_COUNTERS, ScoreZoneMap, stratum_offsets

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datasets.base import Dataset

__all__ = [
    "DEFAULT_CHUNK_RECORDS",
    "LABELS_STAT",
    "QUARANTINE_DIRNAME",
    "STAT_FILE_GLOB",
    "STAT_META_GLOB",
    "StatisticsBackend",
    "InMemoryBackend",
    "DiskBackend",
    "cdf_stat_name",
    "chunked_argsort",
    "chunked_pairwise_sum",
    "external_stable_argsort",
    "finalize_statistic",
    "open_statistic",
    "quarantine_statistic",
    "stable_argsort",
    "stat_filename",
    "StaleStatistic",
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

#: Statistic name of a dataset's oracle label column: ``int8``, one
#: byte per record, ``-1`` for a label no one has paid for yet.
LABELS_STAT = "labels"

#: Subdirectory of a store directory holding quarantined statistic
#: files and their ``*.reason.json`` reports.  Outside the root-level
#: globs, so nothing opens or lists a quarantined file as a live one.
QUARANTINE_DIRNAME = "quarantine"

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


def stable_argsort(values, ranked=None) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, byte for byte, at SIMD speed.

    For floats the stable kind is timsort, which no SIMD sort serves;
    numpy's default ``argsort`` dispatches to x86-simd-sort on AVX2 and
    AVX-512 but leaves equal values in no particular order.  So this
    sorts with the default kind, then re-sorts the indices of every run
    of equal values: one ``int64`` sort of ``run_id * n + index`` over
    the records whose value ties a neighbour's (at most ``n / 2`` runs,
    so the keys fit ``int64`` for ``n`` below ``2**32``).  NaNs sort
    last in every numpy sort, and their run is re-sorted like any other.

    ``ranked`` is the ascending values (``np.sort(values)`` will do);
    only where its runs of equal values start and end is read, so any
    layout of equal-comparing ``±0.0`` serves.  When it is not given the
    values are gathered through the unstable order.
    """
    values = np.asarray(values)
    order = np.argsort(values)
    n = order.size
    if n < 2:
        return order
    if ranked is None:
        ranked = values[order]
    tied = ranked[1:] == ranked[:-1]
    if ranked[-1] != ranked[-1]:  # NaNs, sorted last, compare unequal
        tied[np.searchsorted(ranked, ranked[-1]) :] = True
    if not tied.any():
        return order
    member = np.zeros(n, dtype=bool)
    member[1:] = tied
    member[:-1] |= tied
    where = np.flatnonzero(member)
    run_starts = np.empty(where.size, dtype=bool)
    run_starts[0] = True
    np.logical_not(tied[where[1:] - 1], out=run_starts[1:])
    base = np.cumsum(run_starts, dtype=np.int64) * n
    key = base + order[where]
    key.sort()
    key -= base
    order[where] = key
    return order


# ----------------------------------------------------------------------
# Chunked external merge sort.
#
# Phase 1 stable-argsorts each contiguous chunk and writes the runs
# (sorted scores + global indices) into a scratch buffer.  Phase 2
# repeatedly merges *adjacent* run pairs blockwise: because the left
# run's indices are all smaller than the right run's, a merge that
# breaks score ties in favor of the left run reproduces the global
# stable argsort exactly.  Buffers ping-pong between passes; the initial
# buffer is chosen by pass-count parity so the final pass lands in the
# caller's primary buffer.  Peak RSS is O(chunk): each step touches at
# most one chunk-sized block per run plus the merged block.
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
    merges them with one stable ``argsort`` of their concatenation:
    timsort finds the two ascending runs and merges them, and on ties
    it keeps the left run first.
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
        if last_a <= last_b or last_b != last_b:
            # Every element of a_blk is final; b's strictly-below-last_a
            # prefix is final (ties wait so the left run emits first).
            # NaN sorts last, as ``searchsorted`` assumes.
            na = int(a_blk.size)
            nb = int(np.searchsorted(b_blk, last_a, side="left"))
        else:
            na = int(np.searchsorted(a_blk, last_b, side="right"))
            nb = int(b_blk.size)
        scores = np.concatenate([a_blk[:na], b_blk[:nb]])
        merge = np.argsort(scores, kind="stable")
        dst_scores[out : out + na + nb] = scores[merge]
        # One concatenated column and its gather at a time, beside the
        # two blocks and the permutation.
        del scores
        order = np.concatenate([src_order[ia : ia + na], src_order[ib : ib + nb]])
        dst_order[out : out + na + nb] = order[merge]
        ia += na
        ib += nb
        out += na + nb
        if counters is not None:
            counters["chunks_merged"] += 1
        # The two blocks and the merged block's scores and order.
        _note_chunk(counters, a_blk.nbytes + b_blk.nbytes + 2 * merge.nbytes)


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
        local = stable_argsort(part)
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
# Statistic files: naming, atomic finalize, validated open, quarantine.
# ----------------------------------------------------------------------


class StaleStatistic(ValueError):
    """A statistic file that must not be served; the message says why."""


def stat_filename(fingerprint: str, name: str) -> str:
    return f"stat-{fingerprint[:16]}-{name}.npy"


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + _META_SUFFIX)


def _read_meta(path: Path) -> dict | None:
    try:
        meta = json.loads(_meta_path(path).read_text())
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def scratch_path(directory: Path, tag: str) -> Path:
    """A dot-prefixed build file, private to this process and thread."""
    return directory / f".build-{os.getpid():x}-{threading.get_ident():x}-{tag}.npy"


def finalize_statistic(
    tmp: Path, final: Path, fingerprint: str, name: str, records: int, dtype,
    extra: dict | None = None,
) -> None:
    """Publish a built statistic file atomically, sidecar first.

    Metadata lands before the array file: a reader that races the
    rename either misses the ``.npy`` entirely (rebuild path) or sees
    the complete, validated pair.  The reverse order would let a reader
    quarantine a perfectly good freshly-built file.
    """
    payload = {
        "format_version": _STAT_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "stat": name,
        "records": int(records),
        "dtype": np.dtype(dtype).str,
        "created_at": time.time(),
        **(extra or {}),
    }
    _meta_path(final).write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, final)


def open_statistic(
    path: Path, fingerprint: str, records: int, dtype, totals: tuple[str, ...] = (),
    mode: str = "r",
) -> tuple[np.ndarray, dict] | None:
    """A validated memmap of a statistic file and its metadata, or
    ``None`` when there is no file.

    Raises :class:`StaleStatistic` on any inconsistency — unreadable
    header, truncated data, missing or mismatched metadata, a key of
    ``totals`` that is not a finite non-negative float — so the caller
    quarantines the file and rebuilds.  ``mode="r+"`` maps the file
    shared and writable, once it has been validated read-only: numpy
    would extend a truncated file with zeros when mapping it ``"r+"``.
    """
    if not path.exists():
        return None
    meta = _read_meta(path)
    try:
        view = np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise StaleStatistic(f"unreadable statistic file: {exc}") from None
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
        raise StaleStatistic("stale or mismatched statistic file")
    if mode != "r":
        view = np.load(path, mmap_mode=mode, allow_pickle=False)
    return view, meta


def quarantine_statistic(path: Path, reason: str) -> None:
    """Set a bad statistic file aside for good.

    The file moves into ``quarantine/`` beside it, keeping its name,
    next to a ``<name>.reason.json`` report (its name, ``reason`` and
    the time) that ``repro store ls`` lists; a file that cannot be moved
    is deleted.  Its metadata sidecar is removed, so the next access
    rebuilds it.
    """
    target = path.parent / QUARANTINE_DIRNAME / path.name
    try:
        target.parent.mkdir(exist_ok=True)
        os.replace(path, target)
        report = {"file": path.name, "reason": reason, "quarantined_at": time.time()}
        target.with_name(target.name + ".reason.json").write_text(
            json.dumps(report, indent=2, sort_keys=True)
        )
    except OSError:
        with contextlib.suppress(OSError):
            path.unlink()
    with contextlib.suppress(OSError):
        _meta_path(path).unlink()


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
    """The historical RAM path, bit for bit.

    ``score_order`` runs :func:`stable_argsort` over the dataset's
    ``sorted_scores``, so it reads the tie runs from the ``np.sort``
    output the zone map needs anyway instead of gathering the scores
    again; each of the two sorts counts once in ``sorts_performed``.
    """

    def sorted_scores(self, dataset: "Dataset") -> np.ndarray:
        self.counters["sorts_performed"] += 1
        out = np.sort(dataset.proxy_scores)
        out.flags.writeable = False
        return out

    def score_order(self, dataset: "Dataset") -> np.ndarray:
        self.counters["sorts_performed"] += 1
        out = stable_argsort(dataset.proxy_scores, dataset.sorted_scores)
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

    stat_filename = staticmethod(stat_filename)

    def stat_path(self, fingerprint: str, name: str) -> Path:
        return self.directory / stat_filename(fingerprint, name)

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
        tmp = scratch_path(self.directory, ZONE_MAP_STAT)
        try:
            np.save(tmp, summaries)
            self._finalize(tmp, fingerprint, ZONE_MAP_STAT, summaries.size, np.float64)
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()
        return zone_map

    # -- open / validate / quarantine ----------------------------------

    def _open(
        self, fingerprint: str, name: str, records: int, dtype, totals: tuple[str, ...] = ()
    ) -> tuple[np.ndarray, dict] | None:
        """A validated read-only memmap of the statistic and its metadata,
        or ``None``; a defective file is quarantined (counted in
        ``stats_quarantined``) so the caller rebuilds from source."""
        path = self.stat_path(fingerprint, name)
        try:
            return open_statistic(path, fingerprint, records, dtype, totals)
        except StaleStatistic as exc:
            self.counters["stats_quarantined"] += 1
            quarantine_statistic(path, str(exc))
            return None

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

    # -- construction --------------------------------------------------

    def _finalize(
        self, tmp: Path, fingerprint: str, name: str, records: int, dtype,
        extra: dict | None = None,
    ) -> None:
        finalize_statistic(
            tmp, self.stat_path(fingerprint, name), fingerprint, name, records, dtype,
            {"chunk_records": self.chunk_records, **(extra or {})},
        )

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
        tmp_scores = scratch_path(self.directory, "sorted-scores")
        tmp_order = scratch_path(self.directory, "score-order")
        tmp_scores2 = scratch_path(self.directory, "scratch-scores")
        tmp_order2 = scratch_path(self.directory, "scratch-order")
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
            self._finalize(tmp_scores, fingerprint, "sorted-scores", n, np.float64)
            self._finalize(tmp_order, fingerprint, "score-order", n, np.intp)
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
        tmp = scratch_path(self.directory, name)
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
                tmp, fingerprint, name, n, np.float64,
                {"score_total": score_total, "weight_total": weight_total},
            )
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()


# ----------------------------------------------------------------------
# Store-directory introspection (``repro store ls``).
# ----------------------------------------------------------------------


def _backend_reads(filename: str) -> bool:
    """Whether a backend or the sample store opens a statistic file of
    this name: a sort statistic, the zone map, a label column, or the
    inverse CDF of a valid design."""
    match = re.fullmatch(r"stat-.{16}-(.+)\.npy", filename)
    if match is None:
        return False
    name = match[1]
    if name in ("sorted-scores", "score-order", ZONE_MAP_STAT, LABELS_STAT):
        return True
    if not name.startswith("cdf-"):
        return False
    design = name[len("cdf-") :]
    # ``:g`` may write a minus sign inside a number (``1e-05``), so try
    # every dash as the separator.
    for cut in (i for i, char in enumerate(design) if char == "-"):
        try:
            exponent, mixing = validate_design(design[:cut], design[cut + 1 :])
        except ValueError:
            continue
        if cdf_stat_name(exponent, mixing) == name:
            return True
    return False


def statistic_entries(directory) -> list[dict[str, object]]:
    """Describe every backend statistic file under ``directory``.

    Each entry reports file name, size, dtype, record count, the owning
    dataset fingerprint (from the metadata sidecar) and a ``state`` of
    ``"warm"`` (valid pair) or ``"stale"`` (unreadable, or metadata
    missing, of another format version or mismatched — the backend would
    quarantine and rebuild it on access — or a statistic no backend
    reads any more, such as the weight vectors that inverse CDFs
    replaced).  A readable label column also reports ``known``, the
    records whose label it holds.
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
        state = "warm" if _backend_reads(path.name) else "stale"
        records = None
        try:
            view = np.load(path, mmap_mode="r", allow_pickle=False)
            entry["dtype"] = str(view.dtype)
            records = int(view.shape[0]) if view.ndim == 1 else None
            entry["records"] = records
            if path.name.endswith(f"-{LABELS_STAT}.npy") and records is not None:
                entry["known"] = int(np.count_nonzero(view >= 0))
            del view
        except (OSError, ValueError) as exc:
            entry["error"] = str(exc)
            state = "stale"
        meta = _read_meta(path)
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
