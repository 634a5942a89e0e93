"""Importance sampling with defensive mixing.

Implements the weighted sampling used by the IS-CI algorithms
(Algorithms 4-5 of the paper):

1. raw weights are a power of the proxy score, ``A(x) ** exponent``,
   with the paper's Theorem 1 showing ``exponent = 0.5`` (square root)
   is variance-optimal for calibrated proxies;
2. the normalized weights are *defensively mixed* with the uniform
   distribution, ``w = (1 - mix) * w_proxy + mix * u``, guarding against
   adversarially mis-calibrated proxies (Owen & Zhou 2000, cited as [49]);
3. records are drawn i.i.d. with replacement according to ``w``.

The mixing step also guarantees ``w(x) > 0`` everywhere, so the
reweighting factors ``m(x) = u(x) / w(x)`` are always finite.

Draws invert the cumulative distribution of ``w``.  The table of
cumulative weights is fixed for a dataset and a design, so it is the
one cached draw statistic (:class:`SamplingCDF`): a draw is ``s``
binary searches into it, and ``w(x)`` is recomputed only for the
sampled records.  The table is exactly the one ``rng.choice(p=...)``
builds on every call, and the draw consumes the same uniforms, so the
indices, the mass and the generator's state afterwards are
byte-identical to ``rng.choice`` (pinned in ``tests/test_sampling.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_MIXING",
    "DEFAULT_EXPONENT",
    "SamplingCDF",
    "check_weight_total",
    "check_weights",
    "checked_weight_total",
    "defensive_weights",
    "inverse_cdf_draw",
    "proxy_sampling_weights",
    "require_score_mass",
    "sampling_cdf",
    "score_powers",
    "validate_design",
    "validate_scores",
    "weighted_sample",
    "WeightedSample",
]

#: Defensive mixing ratio used throughout the paper's algorithms (the
#: ``.9 * w + .1 * uniform`` line in Algorithms 4-5).
DEFAULT_MIXING = 0.1

#: Theorem 1's variance-optimal exponent for calibrated proxies.
DEFAULT_EXPONENT = 0.5


def validate_scores(proxy_scores: np.ndarray) -> np.ndarray:
    """Proxy scores as a float array, or ``ValueError`` unless they are
    a non-empty 1-D array in [0, 1]."""
    scores = np.asarray(proxy_scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError(f"proxy_scores must be a non-empty 1-D array, got shape {scores.shape}")
    if scores.min() < 0 or scores.max() > 1:
        raise ValueError("proxy scores must lie in [0, 1]")
    return scores


def validate_design(exponent: float, mixing: float) -> tuple[float, float]:
    """``(exponent, mixing)`` as floats, or ``ValueError`` for a negative
    exponent or a mixing ratio outside [0, 1].  Every backend raises
    these messages."""
    exponent, mixing = float(exponent), float(mixing)
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    if not 0.0 <= mixing <= 1.0:
        raise ValueError(f"mixing must be in [0, 1], got {mixing}")
    return exponent, mixing


def require_score_mass(score_total: float, mixing: float) -> None:
    """Reject all-zero scores when no defensive mixing rescues them."""
    if score_total == 0.0 and mixing == 0.0:
        raise ValueError(
            "all proxy scores are zero and defensive mixing is disabled; "
            "the sampling distribution is undefined"
        )


def score_powers(scores: np.ndarray, exponent: float) -> np.ndarray:
    """``A(x) ** exponent`` in a new buffer (ones for exponent 0)."""
    if exponent == 0.0:
        return np.ones(len(scores))
    return np.power(scores, exponent)


def defensive_weights(
    scores: np.ndarray, exponent: float, mixing: float, size: int, score_total: float
) -> np.ndarray:
    """``w(x) = (1 - mixing) * A(x) ** exponent / T + mixing / n`` per score.

    ``score_total`` is ``T``, the sum of ``A(x) ** exponent`` over the
    whole population of ``size`` records; ``T == 0`` gives the uniform
    ``1 / n``.  Elementwise, so the weights of a few records equal the
    same entries of the full vector bit for bit.  Returns a new array.
    """
    return _mix(score_powers(scores, exponent), mixing, size, score_total)


def _mix(raw: np.ndarray, mixing: float, size: int, score_total: float) -> np.ndarray:
    # In place: the power buffer becomes the weights.
    if score_total == 0.0:
        raw.fill(1.0 / size)
        return raw
    raw /= score_total
    raw *= 1.0 - mixing
    raw += mixing * (1.0 / size)
    return raw


def check_weights(weights: np.ndarray) -> None:
    """``ValueError`` unless every weight is non-negative (not NaN)."""
    if not weights.min() >= 0:
        raise ValueError("weights must be non-negative and not NaN")


def check_weight_total(total: float) -> None:
    """``ValueError`` unless the total weight is finite and positive."""
    if not (np.isfinite(total) and total > 0):
        raise ValueError("weights must have a finite, positive total mass")


def checked_weight_total(weights: np.ndarray) -> np.float64:
    """``W = weights.sum()``, after the checks ``rng.choice(p=...)`` made
    on the weights normalized by it."""
    check_weights(weights)
    total = weights.sum()
    check_weight_total(total)
    return total


def proxy_sampling_weights(
    proxy_scores: np.ndarray,
    exponent: float = DEFAULT_EXPONENT,
    mixing: float = DEFAULT_MIXING,
) -> np.ndarray:
    """Compute defensive importance-sampling weights from proxy scores.

    Args:
        proxy_scores: array of proxy confidences ``A(x)`` in [0, 1].
        exponent: power applied to the scores before normalization.
            0.0 recovers uniform sampling, 1.0 proportional sampling, and
            0.5 the paper's square-root weights.  The fig12 ablation
            sweeps this parameter.
        mixing: fraction of uniform distribution blended in defensively.
            Must lie in [0, 1]; 0 disables the guard (used only in
            ablations), 1 recovers uniform sampling.

    Returns:
        A probability vector over records (sums to 1).

    Raises:
        ValueError: for scores outside [0, 1], empty inputs, a negative
            exponent, a mixing ratio outside [0, 1], or weights that sum
            to zero with no defensive mixing to rescue them.
    """
    scores = validate_scores(proxy_scores)
    exponent, mixing = validate_design(exponent, mixing)
    return _weights_and_score_total(scores, exponent, mixing)[0]


def _weights_and_score_total(
    scores: np.ndarray, exponent: float, mixing: float
) -> tuple[np.ndarray, np.float64]:
    raw = score_powers(scores, exponent)
    score_total = raw.sum()
    require_score_mass(score_total, mixing)
    return _mix(raw, mixing, scores.size, score_total), score_total


@dataclass(frozen=True)
class WeightedSample:
    """An importance sample together with its reweighting factors.

    Attributes:
        indices: sampled record indices (with replacement), ``int64``.
        mass: reweighting factors ``m(x) = u(x) / w(x)`` aligned with
            ``indices``; multiplying observations by ``mass`` makes
            sample averages unbiased for uniform-population averages
            (Equation 10 of the paper).
    """

    indices: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        if self.indices.shape != self.mass.shape:
            raise ValueError("indices and mass must be aligned 1-D arrays")

    @property
    def size(self) -> int:
        """Number of sampled records."""
        return int(self.indices.size)


def inverse_cdf_draw(cdf: np.ndarray, sample_size: int, rng: np.random.Generator) -> np.ndarray:
    """``sample_size`` i.i.d. record indices from a cumulative weight table.

    Record ``i`` is drawn when a uniform probe lands in
    ``[cdf[i-1], cdf[i])``.  The probes are ``rng.random(sample_size)``,
    the ones ``rng.choice`` draws, and they are searched in ascending
    order so that neighbouring searches share cache lines and pages of
    the table.  Returns ``int64`` indices in probe order.
    """
    probes = rng.random(sample_size)
    order = np.argsort(probes)
    indices = np.empty(sample_size, dtype=np.int64)
    indices[order] = cdf.searchsorted(probes[order], side="right")
    return indices


def _weights_to_cdf(weights: np.ndarray, total: float) -> np.ndarray:
    """``cumsum(weights / total)`` divided by its last entry, in place:
    the table ``rng.choice(p=weights / total)`` builds."""
    weights /= total
    np.cumsum(weights, out=weights)
    weights /= weights[-1]
    return weights


@dataclass(frozen=True, eq=False)
class SamplingCDF:
    """The cached draw statistic of one defensive weight design.

    Attributes:
        cdf: read-only ``cumsum(w / weight_total) / last``, one entry
            per record (an ``np.memmap`` on the disk backend).
        exponent: the design's score exponent.
        mixing: the design's defensive mixing ratio.
        score_total: ``T``, the sum of ``A(x) ** exponent``.
        weight_total: ``W``, the sum of ``w(x)``.
    """

    cdf: np.ndarray
    exponent: float
    mixing: float
    score_total: float
    weight_total: float

    @property
    def size(self) -> int:
        """Number of records the statistic covers."""
        return int(self.cdf.shape[0])

    def weights(self, scores: np.ndarray) -> np.ndarray:
        """``w(x)`` of the records whose proxy scores are ``scores``."""
        return defensive_weights(scores, self.exponent, self.mixing, self.size, self.score_total)

    def draw(
        self, proxy_scores: np.ndarray, sample_size: int, rng: np.random.Generator
    ) -> WeightedSample:
        """Draw ``sample_size`` records; ``proxy_scores`` are the dataset's.

        Byte-identical to :func:`weighted_sample` over the full weight
        vector, reading only the sampled records' scores for the mass.
        """
        indices = inverse_cdf_draw(self.cdf, sample_size, rng)
        sampled = self.weights(proxy_scores[indices])
        mass = (1.0 / self.size) / (sampled / self.weight_total)
        return WeightedSample(indices=indices, mass=mass)


def sampling_cdf(
    proxy_scores: np.ndarray, exponent: float, mixing: float
) -> SamplingCDF:
    """Build the draw statistic in one n-length buffer.

    Validates like :func:`proxy_sampling_weights` and sums ``T`` and
    ``W`` as it and :func:`weighted_sample` do, so every entry matches
    the table ``rng.choice`` built from those weights byte for byte.
    """
    scores = validate_scores(proxy_scores)
    exponent, mixing = validate_design(exponent, mixing)
    weights, score_total = _weights_and_score_total(scores, exponent, mixing)
    total = checked_weight_total(weights)
    cdf = _weights_to_cdf(weights, total)
    cdf.flags.writeable = False
    return SamplingCDF(cdf, exponent, mixing, float(score_total), float(total))


def weighted_sample(
    weights: np.ndarray,
    sample_size: int,
    rng: np.random.Generator,
) -> WeightedSample:
    """Draw an i.i.d. sample of indices according to ``weights``.

    Byte-identical to ``rng.choice(n, sample_size, p=weights /
    weights.sum())``: the same indices, the same generator state
    afterwards.  One copy of ``weights`` becomes its cumulative table in
    place.

    Args:
        weights: probability vector over the population (need not be
            exactly normalized; it is renormalized defensively).
        sample_size: number of draws ``s``.
        rng: NumPy random generator.

    Returns:
        A :class:`WeightedSample` with indices and ``m(x)`` factors.

    Raises:
        ValueError: for invalid sizes, NaN or negative weights, or a
            total weight that is not finite and positive.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weights must be a non-empty 1-D array, got shape {w.shape}")
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    total = checked_weight_total(w)
    indices = inverse_cdf_draw(_weights_to_cdf(w.copy(), total), sample_size, rng)
    mass = (1.0 / w.size) / (w[indices] / total)
    return WeightedSample(indices=indices, mass=mass)
