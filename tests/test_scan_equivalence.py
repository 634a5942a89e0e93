"""Equivalence: vectorized candidate scan vs. the loop-based reference.

The vectorized ``precision_candidate_scan`` must return the *same*
threshold and the *same* accept set as
``precision_candidate_scan_reference`` (the paper-pseudocode loop) for
every confidence-bound class, including weighted samples, heavy score
ties, degenerate label patterns, and the paper's scale (budget 10,000,
candidate step 100).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bounds import (
    BootstrapBound,
    ClopperPearsonBound,
    HoeffdingBound,
    NormalBound,
)
from repro.core.thresholds import SELECT_NOTHING, precision_lower_bound, precision_lower_bound_batch
from repro.core.uniform import (
    precision_candidate_scan,
    precision_candidate_scan_reference,
)

#: (bound, uniform-mass-only) — Clopper-Pearson rejects weighted samples.
SCAN_BOUNDS = [
    (NormalBound(), False),
    (HoeffdingBound(), False),
    (HoeffdingBound(value_range=None), False),
    (ClopperPearsonBound(), True),
    (BootstrapBound(n_resamples=40, seed=9), False),
]


def _assert_scans_agree(scores, labels, mass, gamma, delta, bound, step):
    tau_vec, details_vec = precision_candidate_scan(
        scores, labels, mass, gamma=gamma, delta=delta, bound=bound, step=step
    )
    tau_ref, details_ref = precision_candidate_scan_reference(
        scores, labels, mass, gamma=gamma, delta=delta, bound=bound, step=step
    )
    assert tau_vec == tau_ref
    assert dict(details_vec) == dict(details_ref)


@pytest.mark.parametrize("bound,uniform_only", SCAN_BOUNDS, ids=lambda b: repr(b))
@given(
    data=st.data(),
    gamma=st.floats(min_value=0.1, max_value=0.99),
    delta=st.floats(min_value=0.01, max_value=0.2),
)
@settings(max_examples=30, deadline=None)
def test_scan_matches_reference(bound, uniform_only, data, gamma, delta):
    n = data.draw(st.integers(1, 120), label="n")
    # Mix continuous scores with heavily tied ones so candidates share
    # retained sets (the searchsorted tie-handling path).
    tie_pool = data.draw(st.booleans(), label="ties")
    if tie_pool:
        scores = data.draw(
            arrays(dtype=float, shape=n, elements=st.sampled_from([0.1, 0.4, 0.5, 0.9])),
            label="scores",
        )
    else:
        scores = data.draw(
            arrays(dtype=float, shape=n, elements=st.floats(0.0, 1.0)), label="scores"
        )
    labels = data.draw(
        arrays(dtype=np.int8, shape=n, elements=st.sampled_from([0, 1])), label="labels"
    )
    if uniform_only:
        mass = np.ones(n)
    else:
        # sampled_from([1.0, 2.0]) produces suffixes that are sometimes
        # constant-mass and sometimes not, exercising both branches of
        # precision_lower_bound_batch.
        mass = data.draw(
            arrays(dtype=float, shape=n, elements=st.sampled_from([1.0, 1.0, 2.0, 0.5])),
            label="mass",
        )
    step = data.draw(st.integers(1, 40), label="step")
    _assert_scans_agree(scores, labels, mass, gamma, delta, bound, step)


#: Fixed samples: degenerate label patterns at n = 200 under every bound,
#: and the paper's scale (budget 10,000, candidate step m = 100) under
#: the normal, Clopper-Pearson and Hoeffding bounds, plus the normal
#: bound on an importance-weighted sample.
FIXED_SAMPLES = [
    pytest.param(bound, uniform_only, kind, id=f"{kind}-{bound!r}-{uniform_only}")
    for kind in ("all-zero", "all-one", "mixed")
    for bound, uniform_only in SCAN_BOUNDS
] + [
    pytest.param(bound, uniform_only, "paper-scale", id=f"paper-scale-{bound!r}-{uniform_only}")
    for bound, uniform_only in [
        (NormalBound(), True),
        (ClopperPearsonBound(), True),
        (HoeffdingBound(), True),
        (NormalBound(), False),
    ]
]


@pytest.mark.parametrize("bound,uniform_only,labels_kind", FIXED_SAMPLES)
def test_scan_matches_reference_degenerate_labels(bound, uniform_only, labels_kind):
    rng = np.random.default_rng(23)
    n, step = (10_000, 100) if labels_kind == "paper-scale" else (200, 25)
    scores = rng.random(n)
    if labels_kind == "all-zero":
        labels = np.zeros(n)
    elif labels_kind == "all-one":
        labels = np.ones(n)
    else:
        labels = (rng.random(n) < scores).astype(float)
    mass = np.ones(n) if uniform_only else rng.choice([1.0, 1.0, 3.0], size=n)
    _assert_scans_agree(scores, labels, mass, 0.8, 0.05, bound, step)


def test_scan_empty_sample():
    tau, details = precision_candidate_scan(
        np.array([]), np.array([]), np.array([]), gamma=0.9, delta=0.05, bound=NormalBound()
    )
    assert tau == SELECT_NOTHING
    assert dict(details) == {"candidates": 0, "accepted": 0}


def test_scan_rejects_non_positive_step():
    with pytest.raises(ValueError, match="step"):
        precision_candidate_scan(
            np.ones(5), np.ones(5), np.ones(5), gamma=0.5, delta=0.05,
            bound=NormalBound(), step=0,
        )
    with pytest.raises(ValueError, match="step"):
        precision_candidate_scan_reference(
            np.ones(5), np.ones(5), np.ones(5), gamma=0.5, delta=0.05,
            bound=NormalBound(), step=-3,
        )


@pytest.mark.parametrize("bound,uniform_only", SCAN_BOUNDS, ids=lambda b: repr(b))
def test_precision_lower_bound_batch_matches_scalar(bound, uniform_only):
    """Direct check of the batch helper against per-suffix scalar calls."""
    rng = np.random.default_rng(31)
    n = 80
    labels = (rng.random(n) < 0.4).astype(float)
    mass = np.ones(n) if uniform_only else rng.choice([1.0, 1.0, 2.0], size=n)
    counts = np.array([0, 1, 2, 5, 40, 80, 33])
    batch = precision_lower_bound_batch(labels, mass, counts, 0.05, bound)
    reference = np.array(
        [
            precision_lower_bound(labels[n - c :], mass[n - c :], 0.05, bound)
            for c in counts
        ]
    )
    np.testing.assert_allclose(batch, reference, rtol=1e-9, atol=1e-12)


def test_constant_non_dyadic_mass_takes_bernoulli_branch_in_both_paths():
    """Regression: a constant mass whose float mean rounds away from the
    constant (e.g. mean of three 0.1s) must take the Bernoulli branch in
    BOTH the scalar and batch paths.  The scalar used to decide the
    branch after appending the rounded pseudo-mass, demoting such
    samples to the conservative ratio branch and diverging from the
    batch detection (suffix min == max)."""
    bound = NormalBound()
    for n in (3, 7, 30):
        labels = np.ones(n)
        mass = np.full(n, 0.1)
        assert float(np.mean(mass)) != 0.1  # the round-off that triggered the bug
        scalar = precision_lower_bound(labels, mass, 0.05, bound)
        batch = precision_lower_bound_batch(labels, mass, np.array([n]), 0.05, bound)
        np.testing.assert_allclose(batch, [scalar], rtol=1e-9, atol=1e-12)
        # Bernoulli branch: identical to the unit-mass result.
        unit = precision_lower_bound(labels, np.ones(n), 0.05, bound)
        assert scalar == unit


def test_precision_lower_bound_batch_validates_inputs():
    bound = NormalBound()
    with pytest.raises(ValueError, match="aligned"):
        precision_lower_bound_batch(np.ones(3), np.ones(4), np.array([1]), 0.05, bound)
    with pytest.raises(ValueError, match="suffix counts"):
        precision_lower_bound_batch(np.ones(3), np.ones(3), np.array([4]), 0.05, bound)
