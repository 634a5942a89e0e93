"""Percentile-bootstrap confidence bounds.

The bootstrap estimates the sampling distribution of the mean by
resampling the observed data with replacement and taking empirical
quantiles of the resampled means.  The paper compares it in the
Figure 13 ablation, where it performs comparably to the normal
approximation but costs ``n_resamples`` times more computation.

The implementation is vectorized: all resamples are drawn as one
``(n_resamples, n)`` index matrix and reduced along the last axis.

The suffix-batch API the candidate scans use draws one index matrix per
distinct suffix length, reseeded per length, which reproduces the
scalar ``lower``/``upper`` bit for bit (the guarantee tests pin this).

Resampled means are additionally memoized in a small module-level LRU
keyed by (sample content digest, n_resamples, seed).  Bound-ablation
panels (Figure 13) evaluate several bootstrap-bound methods over one
store-shared labeled sample, so without the cache every method redraws
and re-reduces the same ``(n_resamples, n)`` matrix; with it, the
means are computed once per distinct sample and replayed bit-exactly
(the quantile, which depends on delta, stays per-call).  Inspect or
reset with :func:`resample_cache_stats` / :func:`clear_resample_cache`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from .base import ConfidenceBound, validate_batch, validate_delta

__all__ = ["BootstrapBound", "resample_cache_stats", "clear_resample_cache"]

#: LRU of resampled-mean vectors.  At the default 1000 resamples an
#: entry is ~8 KB, so the cap bounds the cache near half a megabyte.
_RESAMPLE_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_RESAMPLE_CACHE_MAX_ENTRIES = 64
_CACHE_COUNTERS = {"hits": 0, "misses": 0}


def resample_cache_stats() -> dict[str, int]:
    """Hit/miss counters and current size of the resample-mean cache."""
    return {**_CACHE_COUNTERS, "entries": len(_RESAMPLE_CACHE)}


def clear_resample_cache() -> None:
    """Drop every cached resample-mean vector and reset the counters."""
    _RESAMPLE_CACHE.clear()
    _CACHE_COUNTERS["hits"] = 0
    _CACHE_COUNTERS["misses"] = 0


class BootstrapBound(ConfidenceBound):
    """Percentile bootstrap for the sample mean.

    Args:
        n_resamples: number of bootstrap resamples.  The paper does not
            specify; 1000 is the conventional default.
        seed: seed for the internal resampling generator.  Bounds are a
            deterministic function of (sample, delta) for a fixed seed,
            which keeps the SUPG guarantee analysis well-defined and the
            tests reproducible.
    """

    name = "bootstrap"

    def __init__(self, n_resamples: int = 1000, seed: int = 0) -> None:
        if n_resamples < 1:
            raise ValueError(f"n_resamples must be positive, got {n_resamples}")
        self.n_resamples = n_resamples
        self.seed = seed

    def _resampled_means(self, values: np.ndarray) -> np.ndarray:
        """Means of ``n_resamples`` with-replacement resamples of ``values``.

        Memoized by (content digest, n_resamples, seed): the result is
        a pure function of those three, so a cache hit is bit-identical
        to recomputation.  Hashing the sample (~µs) replaces drawing
        and reducing an ``(n_resamples, n)`` matrix (~ms at paper
        scale) whenever the same labeled sample is scanned again — the
        fig13 panels' store-shared samples, repeated gammas, suffix
        batches revisiting a length.
        """
        key = (
            hashlib.sha1(values.tobytes()).hexdigest(),
            values.dtype.str,
            values.size,
            self.n_resamples,
            self.seed,
        )
        cached = _RESAMPLE_CACHE.get(key)
        if cached is not None:
            _RESAMPLE_CACHE.move_to_end(key)
            _CACHE_COUNTERS["hits"] += 1
            return cached
        rng = np.random.default_rng(self.seed)
        n = values.size
        idx = rng.integers(0, n, size=(self.n_resamples, n))
        means = values[idx].mean(axis=1)
        means.flags.writeable = False  # shared across callers
        _RESAMPLE_CACHE[key] = means
        _CACHE_COUNTERS["misses"] += 1
        while len(_RESAMPLE_CACHE) > _RESAMPLE_CACHE_MAX_ENTRIES:
            _RESAMPLE_CACHE.popitem(last=False)
        return means

    def upper(self, values: np.ndarray, delta: float) -> float:
        validate_delta(delta)
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return float("inf")
        means = self._resampled_means(arr)
        return float(np.quantile(means, 1.0 - delta))

    def lower(self, values: np.ndarray, delta: float) -> float:
        validate_delta(delta)
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return float("-inf")
        means = self._resampled_means(arr)
        return float(np.quantile(means, delta))

    def _batch_quantiles(
        self, values: np.ndarray, counts: np.ndarray, q: float, empty: float
    ) -> np.ndarray:
        """Bootstrap quantiles for many suffixes of one shared sample.

        The scalar bound reseeds its generator per call, so the resample
        index matrix is a deterministic function of the suffix *length*
        alone — suffixes of equal length share one matrix and one
        vectorized mean-reduction.  (A single matrix shared across
        different lengths would be cheaper still, but its draws could
        not reproduce the scalar path bit for bit, and the guarantee
        tests pin batch == scalar exactly.)
        """
        arr, c = validate_batch(values, counts)
        out = np.full(c.size, empty)
        for n in np.unique(c):
            if n == 0:
                continue
            suffix = arr[arr.size - n :]
            value = float(np.quantile(self._resampled_means(suffix), q))
            out[c == n] = value
        return out

    def upper_batch(self, values: np.ndarray, counts: np.ndarray, delta: float) -> np.ndarray:
        validate_delta(delta)
        return self._batch_quantiles(values, counts, 1.0 - delta, float("inf"))

    def lower_batch(self, values: np.ndarray, counts: np.ndarray, delta: float) -> np.ndarray:
        validate_delta(delta)
        return self._batch_quantiles(values, counts, delta, float("-inf"))
