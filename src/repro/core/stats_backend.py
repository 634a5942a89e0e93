"""Statistics backends: one provider interface from Dataset to zone map.

SUPG's selectors only ever touch a dataset through a handful of derived
statistics: the score bucket index that serves every threshold scan and
IS-CI-P's stage-1 cut (:mod:`repro.core.zonemap`: the bucket order and
the per-bucket counts), and the inverse CDF of each defensive
importance-weight design (:class:`~repro.sampling.SamplingCDF`, which
every importance draw of Algorithms 4-5 searches).  Historically those
lived as ad-hoc ``Dataset`` cached properties, which assumes every
statistic is a fully materialized ``ndarray`` in RAM and caps the
system at memory-sized datasets.

This module puts a provider interface between *what a statistic is* and
*where its bytes live*:

``InMemoryBackend``
    RAM arrays: the bucket order is numpy's stable radix ``argsort`` of
    the ``uint16`` bucket keys, the counts one ``np.bincount``
    (:meth:`ScoreZoneMap.build <repro.core.zonemap.ScoreZoneMap.build>`),
    and each CDF :func:`repro.sampling.sampling_cdf`.

``DiskBackend``
    Statistics live in fingerprint-keyed ``.npy`` files under the store
    directory and are handed back as read-only ``np.memmap`` windows.
    Construction never materializes an O(n) temporary: the index is
    built in two streaming passes over ``chunk_records`` chunks (count
    the keys; then radix-sort each chunk's keys and scatter its record
    indices to per-bucket cursors, see :func:`scatter_bucket_order`),
    and each inverse CDF streams through in O(chunk) passes whose
    floating-point result is bit-identical to the one-shot in-memory
    computation (see :func:`chunked_pairwise_sum` and
    :meth:`DiskBackend._build_cdf`).  Peak RSS during construction and
    scans is O(chunk_records), not O(n).  A warm store serves every
    statistic without building anything.

Bit-identity across backends is the contract, not an aspiration: every
statistic, every random draw, and every selection must be byte-identical
whichever backend serves the statistics.

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
from .zonemap import BUCKETS, ZONE_MAP_COUNTERS, ScoreZoneMap, bucket_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datasets.base import Dataset

__all__ = [
    "COUNTS_STAT",
    "DEFAULT_CHUNK_RECORDS",
    "LABELS_STAT",
    "ORDER_STAT",
    "QUARANTINE_DIRNAME",
    "STAT_FILE_GLOB",
    "STAT_META_GLOB",
    "StatisticsBackend",
    "InMemoryBackend",
    "DiskBackend",
    "cdf_stat_name",
    "chunked_pairwise_sum",
    "finalize_statistic",
    "open_statistic",
    "quarantine_statistic",
    "scatter_bucket_order",
    "stat_filename",
    "StaleStatistic",
    "statistic_entries",
]

#: Default records per chunk for the disk backend's index build and
#: streaming CDF passes.  1M float64 records is 8 MiB per buffer:
#: small enough that construction peaks far below the dataset footprint,
#: large enough that each pass runs at memory bandwidth.
DEFAULT_CHUNK_RECORDS = 1 << 20

#: Backend statistic files under a store directory.
STAT_FILE_GLOB = "stat-*.npy"

#: Metadata sidecars (full fingerprint, record count, dtype) validating
#: each statistic file.  Named ``<stat file>.meta.json`` so the pair
#: sorts together and neither glob matches the other.
STAT_META_GLOB = "stat-*.npy.meta.json"

_META_SUFFIX = ".meta.json"
_STAT_FORMAT_VERSION = 1

#: Statistic names of the score bucket index: the record indices in
#: bucket order (``intp``, one per record) and the per-bucket record
#: counts (``int64``, one per bucket).  Stores written before the index
#: held ``sorted-scores``, ``score-order`` and ``zone-map`` files; no
#: backend opens those names, so such a ``score-order`` file (the right
#: length and dtype, but another order) is never served.
ORDER_STAT = "bucket-order"
COUNTS_STAT = "bucket-counts"

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


def _note_chunk(counters: dict[str, int], nbytes: int) -> None:
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


def scatter_bucket_order(
    scores, counts: np.ndarray, out, chunk_records: int, counters: dict[str, int]
):
    """Write the bucket order of ``scores`` into ``out``, chunk by chunk.

    ``counts`` are the per-bucket record counts of all of ``scores``, so
    each bucket's run in ``out`` starts at their prefix sum.  Each chunk's
    keys are radix-sorted (a stable ``argsort`` of ``uint16``) and its
    record indices scattered to the cursors of their buckets.  Chunks
    come in record order and each chunk's sort is stable, so every
    bucket's run ends in record-index order: ``out`` equals
    ``np.argsort(bucket_keys(scores), kind="stable")`` byte for byte,
    with O(chunk_records) working memory.  Each chunk run merged into
    ``out`` adds 1 to ``chunks_merged``.  Returns ``out``.
    """
    cursors = np.cumsum(counts) - counts
    for low in range(0, len(out), chunk_records):
        keys = bucket_keys(scores[low : low + chunk_records])
        local = np.argsort(keys, kind="stable")
        chunk_counts = np.bincount(keys, minlength=BUCKETS)
        # Bucket b's records of this chunk go to cursors[b], cursors[b] + 1, ...
        targets = np.repeat(cursors - (np.cumsum(chunk_counts) - chunk_counts), chunk_counts)
        targets += np.arange(local.size)
        out[targets] = local + low
        cursors += chunk_counts
        counters["chunks_merged"] += 1
        _note_chunk(counters, keys.nbytes + 3 * local.nbytes)
    return out


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

    ``score_order`` returns the bucket order and ``zone_map`` an in-RAM
    :class:`~repro.core.zonemap.ScoreZoneMap` of the per-bucket counts
    (the dataset applies the ``MIN_INDEXED_SIZE`` gate before asking).

    ``sampling_weights`` returns the draw statistic of one weight
    design, a :class:`~repro.sampling.SamplingCDF`: the inverse CDF of
    the defensive weights with their two totals, not the weights
    themselves.  It keeps the name of the weight vector it replaced,
    which perfbench's tracing shims time as the ``stats`` layer.

    ``counters`` is one plain dict, cumulative over the backend's life,
    that ``SupgEngine.session_stats()`` reads as is: construction work
    (``sorts_performed`` — one per bucket order built — ``weight_passes``
    — one per CDF built — ``chunks_merged`` — chunk runs merged into an
    order file — and ``peak_chunk_bytes``), integrity events
    (``stats_quarantined``), and the scans of every zone map the backend
    served (:data:`~repro.core.zonemap.ZONE_MAP_COUNTERS`, ``bytes_paged``
    included).  Those maps count straight into this dict, so their
    counts survive a table being registered again or replaced.
    """

    #: Whether statistics come back as file-backed memmap windows.  The
    #: dataset then selects without the dense fallback, so a scan reads
    #: only the buckets the tau reaches rather than the whole column.
    paged = False

    def __init__(self) -> None:
        self.counters = _fresh_counters()

    def score_order(self, dataset: "Dataset") -> np.ndarray:
        raise NotImplementedError

    def sampling_weights(
        self, dataset: "Dataset", exponent: float, mixing: float
    ) -> SamplingCDF:
        raise NotImplementedError

    def zone_map(self, dataset: "Dataset") -> ScoreZoneMap:
        raise NotImplementedError


class InMemoryBackend(StatisticsBackend):
    """Statistics as RAM arrays."""

    # No query path reads this; perfbench's tracing shims look it up
    # (ROADMAP, shim hazard).
    def sorted_scores(self, dataset: "Dataset") -> np.ndarray:
        return np.sort(dataset.proxy_scores)

    def score_order(self, dataset: "Dataset") -> np.ndarray:
        self.counters["sorts_performed"] += 1
        out = np.argsort(bucket_keys(dataset.proxy_scores), kind="stable")
        out.flags.writeable = False
        return out

    def sampling_weights(
        self, dataset: "Dataset", exponent: float, mixing: float
    ) -> SamplingCDF:
        self.counters["weight_passes"] += 1
        return sampling_cdf(dataset.proxy_scores, exponent, mixing)

    def zone_map(self, dataset: "Dataset") -> ScoreZoneMap:
        zone_map = ScoreZoneMap.build(dataset.proxy_scores)
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
    the page cache instead of copying bytes.  The bucket counts are the
    exception: they are read into RAM, since they are small.
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

    # No query path reads this; perfbench's tracing shims look it up
    # (ROADMAP, shim hazard).
    def sorted_scores(self, dataset: "Dataset") -> np.ndarray:
        return np.sort(dataset.proxy_scores)

    def score_order(self, dataset: "Dataset") -> np.ndarray:
        fingerprint = dataset.fingerprint
        opened = self._open(fingerprint, ORDER_STAT, dataset.size, np.intp)
        if opened is None:
            self._build_order(dataset, fingerprint)
            opened = self._require(fingerprint, ORDER_STAT, dataset.size, np.intp)
        return opened[0]

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
        zone_map = ScoreZoneMap(self._bucket_counts(dataset))
        zone_map.counters = self.counters
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

    def _bucket_counts(self, dataset: "Dataset") -> np.ndarray:
        """The per-bucket record counts: from their statistic file, or
        one streaming pass over the scores that writes it."""
        fingerprint = dataset.fingerprint
        opened = self._open(fingerprint, COUNTS_STAT, BUCKETS, np.int64)
        if opened is not None:
            return np.array(opened[0])
        scores = dataset.proxy_scores
        counts = np.zeros(BUCKETS, dtype=np.int64)
        for low in range(0, dataset.size, self.chunk_records):
            chunk = scores[low : low + self.chunk_records]
            counts += np.bincount(bucket_keys(chunk), minlength=BUCKETS)
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = scratch_path(self.directory, COUNTS_STAT)
        try:
            np.save(tmp, counts)
            self._finalize(tmp, fingerprint, COUNTS_STAT, BUCKETS, np.int64)
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()
        return counts

    def _build_order(self, dataset: "Dataset", fingerprint: str) -> None:
        """Scatter the records to per-bucket cursors in the order file
        (:func:`scatter_bucket_order`), after the counting pass."""
        counts = self._bucket_counts(dataset)
        self.counters["sorts_performed"] += 1
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = scratch_path(self.directory, ORDER_STAT)
        try:
            out = open_memmap(tmp, mode="w+", dtype=np.intp, shape=(dataset.size,))
            scatter_bucket_order(
                dataset.proxy_scores, counts, out, self.chunk_records, self.counters
            )
            out.flush()
            del out
            self._finalize(tmp, fingerprint, ORDER_STAT, dataset.size, np.intp)
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()

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
    this name: the bucket order or counts, a label column, or the
    inverse CDF of a valid design."""
    match = re.fullmatch(r"stat-.{16}-(.+)\.npy", filename)
    if match is None:
        return False
    name = match[1]
    if name in (ORDER_STAT, COUNTS_STAT, LABELS_STAT):
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
    replaced and the sorted scores, stable order and zone map that the
    bucket index replaced).  A readable label column also reports
    ``known``, the records whose label it holds.
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
