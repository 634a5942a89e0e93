"""Sampling substrate: uniform and defensive importance sampling."""

from __future__ import annotations

from .designs import LabeledSample, SampleDesign, draw_labeled_sample
from .diagnostics import effective_sample_size, ess_ratio
from .reweighting import (
    reweighted_mean,
    reweighted_total,
    weighted_precision,
    weighted_recall,
)
from .uniform import uniform_sample, uniform_weights
from .weighted import (
    DEFAULT_EXPONENT,
    DEFAULT_MIXING,
    SamplingCDF,
    WeightedSample,
    proxy_sampling_weights,
    sampling_cdf,
    weighted_sample,
)

__all__ = [
    "SampleDesign",
    "LabeledSample",
    "draw_labeled_sample",
    "uniform_sample",
    "uniform_weights",
    "proxy_sampling_weights",
    "sampling_cdf",
    "SamplingCDF",
    "weighted_sample",
    "WeightedSample",
    "DEFAULT_MIXING",
    "DEFAULT_EXPONENT",
    "effective_sample_size",
    "ess_ratio",
    "reweighted_mean",
    "reweighted_total",
    "weighted_recall",
    "weighted_precision",
]
