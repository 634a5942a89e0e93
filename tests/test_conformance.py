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

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.stats_backend import LABELS_STAT
from repro.core.zonemap import MIN_INDEXED_SIZE
from repro.datasets import make_beta_dataset
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
