"""Differential conformance of the persistent paths.

The first slice of one generated conformance harness for every serving
path.  Hypothesis draws batches of RT and PT statements — gamma, seed
and budget vary, and one budget is the table's size — over a table of
``MIN_INDEXED_SIZE`` records.  Each batch runs through every path that
reads or writes a store directory's label column, on the memory and the
disk statistics backend alike:

- a plain engine with no store directory: the reference;
- a cold engine on a fresh ``store_dir``, one ``execute()`` at a time;
- a second engine on the same directory, now warm;
- ``execute_many(jobs=2)`` on a fresh directory;
- one ``SupgService`` window on a fresh directory.

Every path must return byte-identical results, the warm engine must pay
no labels, no session may pay more labels than its draws' distinct
records, and every label a column holds must be the true one.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.stats_backend import LABELS_STAT
from repro.core.zonemap import MIN_INDEXED_SIZE
from repro.datasets import Dataset, make_beta_dataset
from repro.query import SupgEngine, SupgService

STATEMENT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT {budget} USING A(x) "
    "{target} TARGET {gamma}% WITH PROBABILITY 95%"
)

TABLE = make_beta_dataset(0.01, 1.0, size=MIN_INDEXED_SIZE, seed=23)

BATCHES = st.lists(
    st.tuples(
        st.sampled_from(["RECALL", "PRECISION"]),
        st.integers(min_value=50, max_value=99),
        st.sampled_from([200, 700, MIN_INDEXED_SIZE]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=4,
)


def _engine(backend: str, store_dir: str | None = None) -> SupgEngine:
    engine = SupgEngine(store_dir=store_dir, backend=backend if store_dir else None)
    engine.register_table("t", TABLE)
    return engine


def _outputs(executions) -> list[tuple]:
    return [
        (e.result.indices.tobytes(), e.result.tau, e.result.oracle_calls)
        for e in executions
    ]


def _sequential(engine: SupgEngine, statements, seeds) -> list[tuple]:
    return _outputs(engine.execute(sql, seed=seed) for sql, seed in zip(statements, seeds))


def _windowed(engine: SupgEngine, statements, seeds) -> list[tuple]:
    with SupgService(
        engine, max_window_queries=len(statements), max_window_ms=60_000.0
    ) as service:
        tickets = [service.submit(sql, seed=seed) for sql, seed in zip(statements, seeds)]
        executions = [ticket.result(timeout=120.0) for ticket in tickets]
    assert len(service.window_log) == 1
    return _outputs(executions)


def _assert_column_is_truth(store_dir: str) -> None:
    (path,) = Path(store_dir).glob(f"stat-*-{LABELS_STAT}.npy")
    column = np.load(path)
    known = column >= 0
    np.testing.assert_array_equal(column[known], TABLE.labels[known])


def _assert_pays_at_most_its_draws(engine: SupgEngine, statements, seeds) -> None:
    """The session's paid labels never exceed the distinct records its
    statements sampled (replayed on a plain engine)."""
    plain = _engine("memory")
    sampled = [
        plain.execute(sql, seed=seed).result.sampled_indices
        for sql, seed in zip(statements, seeds)
    ]
    assert engine.session_stats()["labels_drawn"] <= np.unique(np.concatenate(sampled)).size


@pytest.mark.parametrize("backend", ["memory", "disk"])
@given(batch=BATCHES)
@example(batch=[("RECALL", 90, MIN_INDEXED_SIZE, 1), ("PRECISION", 80, MIN_INDEXED_SIZE, 1)])
@settings(max_examples=8, deadline=None)
def test_persistent_paths_agree(backend, batch):
    statements = [
        STATEMENT.format(target=target, gamma=gamma, budget=budget)
        for target, gamma, budget, _ in batch
    ]
    seeds = [seed for *_, seed in batch]
    reference = _sequential(_engine("memory"), statements, seeds)

    with tempfile.TemporaryDirectory() as shared:
        cold = _engine(backend, shared)
        assert _sequential(cold, statements, seeds) == reference
        _assert_pays_at_most_its_draws(cold, statements, seeds)
        warm = _engine(backend, shared)
        assert _sequential(warm, statements, seeds) == reference
        assert warm.session_stats()["labels_drawn"] == 0
        _assert_column_is_truth(shared)

    with tempfile.TemporaryDirectory() as fanned:
        engine = _engine(backend, fanned)
        executions = engine.execute_many(statements, seed=seeds, jobs=2)
        assert _outputs(executions) == reference
        _assert_pays_at_most_its_draws(engine, statements, seeds)
        _assert_column_is_truth(fanned)

    with tempfile.TemporaryDirectory() as served:
        engine = _engine(backend, served)
        assert _windowed(engine, statements, seeds) == reference
        _assert_pays_at_most_its_draws(engine, statements, seeds)
        _assert_column_is_truth(served)


# ----------------------------------------------------------------------
# Scan differential: threshold selections and queries over adversarial
# score tables, on every statistics backend.
# ----------------------------------------------------------------------


def _top16_floor(word: int) -> float:
    """The smallest double whose top 16 bits read ``word``: a score at
    which the sign, exponent and leading four mantissa bits turn over."""
    return float(np.array([word << 48], dtype=np.uint64).view(np.float64)[0])


#: Top-16-bit boundaries at 0.25, 0.5 and 0.75, with their neighbours.
_EDGES = np.array([_top16_floor(word) for word in (0x3FD0, 0x3FE0, 0x3FE8)])
_EDGE_VALUES = np.concatenate(
    [_EDGES, np.nextafter(_EDGES, 0.0), np.nextafter(_EDGES, 1.0)]
)

SCAN_TABLES = [
    "ties", "constant", "zeros", "ones", "signed-zeros", "subnormals",
    "bucket-edge", "hot-bucket",
]
SCAN_SIZES = [MIN_INDEXED_SIZE - 1, MIN_INDEXED_SIZE, MIN_INDEXED_SIZE + 1]

#: Records per chunk of the disk backend's statistic builds: below n.
SCAN_CHUNK = 4099

SCAN_RT = STATEMENT.format(target="RECALL", gamma=90, budget=300)
SCAN_PT_GAMMAS = (80, 95)


def _scan_table(kind: str, n: int):
    """Scores of one adversarial kind, with labels drawn from them."""
    rng = np.random.default_rng([n, SCAN_TABLES.index(kind)])
    scores = rng.random(n)
    share = rng.random(n)
    if kind == "ties":
        tied = share < 0.4
        scores[tied] = rng.choice([0.1, 0.25, 0.5, 0.9], size=int(tied.sum()))
    elif kind == "constant":
        scores[:] = 0.37
    elif kind == "zeros":
        scores[:] = 0.0
    elif kind == "ones":
        scores[:] = 1.0
    elif kind == "signed-zeros":
        zero = share < 0.6
        scores[zero] = rng.choice([-0.0, 0.0], size=int(zero.sum()))
    elif kind == "subnormals":
        tiny = share < 0.5
        pool = [0.0, 5e-324, 1e-320, 2e-310, 2.2250738585072014e-308]
        scores[tiny] = rng.choice(pool, size=int(tiny.sum()))
    elif kind == "bucket-edge":
        edge = share < 0.5
        scores[edge] = rng.choice(_EDGE_VALUES, size=int(edge.sum()))
    elif kind == "hot-bucket":
        hot = share < 0.9
        scores[hot] = rng.uniform(0.5, _top16_floor(0x3FE1), size=int(hot.sum()))
    labels = (rng.random(n) < np.abs(scores)).astype(np.int8)
    return scores, labels


def _scan_taus(scores: np.ndarray) -> np.ndarray:
    """Sentinels, signed zeros, every tie value, and scores cutting on
    both sides of the dense-fallback fraction with their neighbours."""
    values, counts = np.unique(scores, return_counts=True)
    ascending = np.sort(scores)
    cuts = (np.array([0.5, 0.74, 0.76, 0.9, 0.99, 0.999]) * scores.size).astype(int)
    picks = ascending[cuts]
    fixed = [-np.inf, -0.5, -0.0, 0.0, 1.0, np.nextafter(1.0, 2.0), np.inf, np.nan]
    return np.concatenate([
        fixed, values[counts > 1], picks,
        np.nextafter(picks, -np.inf), np.nextafter(picks, np.inf),
    ])


def _assert_scans_match(dataset, taus) -> None:
    for tau in taus:
        want = np.flatnonzero(dataset.proxy_scores >= tau)
        got = dataset.select_above(float(tau))
        assert got.dtype == want.dtype, tau
        assert got.tobytes() == want.tobytes(), tau


def _query_outputs(engine: SupgEngine, scores: np.ndarray) -> list[tuple]:
    """RT and PT outputs; each PT's stage-1 cut is checked against a full
    descending sort by value."""
    result = engine.execute(SCAN_RT, seed=4).result
    outputs = [(result.indices.tobytes(), result.tau, result.oracle_calls)]
    for gamma in SCAN_PT_GAMMAS:
        sql = STATEMENT.format(target="PRECISION", gamma=gamma, budget=300)
        result = engine.execute(sql, seed=4).result
        outputs.append((result.indices.tobytes(), result.tau, result.oracle_calls))
        bound = result.details["n_match_upper_bound"]
        cut_rank = min(scores.size, max(1, math.ceil(bound / (gamma / 100))))
        assert result.details["tau_min"] == np.sort(scores)[::-1][cut_rank - 1]
    return outputs


@pytest.mark.parametrize("n", SCAN_SIZES)
@pytest.mark.parametrize("kind", SCAN_TABLES)
def test_scan_paths_agree(kind, n, tmp_path):
    scores, labels = _scan_table(kind, n)
    taus = _scan_taus(scores)
    outputs = {}
    engines = {
        "memory": SupgEngine(),
        "cold-disk": SupgEngine(
            store_dir=str(tmp_path), backend="disk", chunk_records=SCAN_CHUNK
        ),
        "warm-disk": SupgEngine(
            store_dir=str(tmp_path), backend="disk", chunk_records=SCAN_CHUNK
        ),
    }
    for path, engine in engines.items():
        table = Dataset(scores.copy(), labels.copy(), name="t")
        engine.register_table("t", table)
        _assert_scans_match(table, taus)
        outputs[path] = _query_outputs(engine, scores)
    assert outputs["cold-disk"] == outputs["memory"]
    assert outputs["warm-disk"] == outputs["memory"]
    assert engines["warm-disk"].session_stats()["sorts_performed"] == 0
