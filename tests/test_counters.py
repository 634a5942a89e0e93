"""One counter path: every count has one owner and one read path.

The contracts pinned here:

1. Each service window counts its own work.  With two (and, under a
   short thread switch interval, four) windows in flight over one
   shared store, the window records' ``labels_drawn`` and
   ``labels_saved`` add up to exactly what the store counted.
2. Zone-map scan counters live in the statistics backend, so a table
   registered again under the same name keeps the counts of the tables
   it replaced.
3. Every ``window_log`` record has the same keys, whichever way the
   window ended, and ``queries`` counts every ticket a window resolved.
4. ``session_stats()`` keeps its key set on both backends and reads
   each count straight from its owner (the store, the statistics
   backend, the fan-out), and ``health()`` reads the same window count.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.datasets import make_beta_dataset
from repro.oracle import OracleCircuitBreaker
from repro.query import SupgEngine, SupgService

RT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT 2000 USING A(x) "
    "RECALL TARGET {gamma}% WITH PROBABILITY 95%"
)

#: The engine's ``session_stats()`` keys: the store's reuse and label
#: counters, the statistics backend's counters (zone-map scans
#: included), and the fan-out's two counts.
ENGINE_STAT_KEYS = {
    "entries",
    "hits",
    "misses",
    "disk_hits",
    "disk_errors",
    "disk_evictions",
    "quarantined",
    "oracle_retries",
    "labels_drawn",
    "labels_saved",
    "nbytes",
    "sorts_performed",
    "weight_passes",
    "chunks_merged",
    "bytes_paged",
    "peak_chunk_bytes",
    "stats_quarantined",
    "zonemap_selects",
    "strata_touched",
    "records_skipped",
    "zonemap_dense_fallbacks",
    "bytes_shipped",
    "stats_inherited",
}

#: What a service adds to the engine's keys.
SERVICE_STAT_KEYS = {
    "windows",
    "queries_served",
    "queries_folded",
    "late_folded",
    "window_errors",
    "recovered_groups",
    "admitted",
    "rejected",
    "shed",
    "cancelled",
    "blocked_ms",
}


def _engine(dataset, **kwargs) -> SupgEngine:
    engine = SupgEngine(**kwargs)
    engine.register_table("t", dataset)
    return engine


@pytest.mark.parametrize("inflight", [2, 4])
def test_concurrent_windows_count_only_their_own_labels(inflight):
    engine = _engine(make_beta_dataset(0.01, 1.0, size=200_000, seed=5))
    service = SupgService(
        engine,
        max_window_queries=1,
        max_window_ms=5.0,
        max_inflight_windows=inflight,
        jobs=1,
    )
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # Disjoint seeds: every window draws cold, and windows overlap.
        tickets = [service.submit(RT.format(gamma=90), seed=seed) for seed in range(8)]
        for ticket in tickets:
            ticket.result(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
        service.close(timeout=60)
    log = service.window_log
    assert len(log) == 8
    stats = engine.session_stats()
    assert stats["misses"] == 8
    assert sum(record["labels_drawn"] for record in log) == stats["labels_drawn"]
    assert sum(record["labels_saved"] for record in log) == stats["labels_saved"]


def test_zone_map_counts_survive_reregistration():
    engine = SupgEngine()
    for seed in range(3):
        engine.register_table("t", make_beta_dataset(0.01, 1.0, size=100_000, seed=seed))
        for gamma in (80, 90):
            engine.execute(RT.format(gamma=gamma), seed=0)
    stats = engine.session_stats()
    assert stats["sorts_performed"] == 6
    assert stats["zonemap_selects"] == 6


def test_every_window_record_has_the_same_keys(beta_dataset):
    release = threading.Event()

    def stall(window, closed_by, abandoned=None):
        release.wait(30.0)

    breaker = OracleCircuitBreaker(threshold=1, cooldown_s=3600.0)
    records = {}
    with SupgService(_engine(beta_dataset), max_window_ms=5.0, breaker=breaker) as service:
        service.submit(RT.format(gamma=90), seed=0).result(timeout=120)
        breaker.record_failure()  # open: the next window fails fast
        service.submit(RT.format(gamma=90), seed=1).exception(timeout=60)
        [records["normal"], records["breaker"]] = service.window_log
    assert records["breaker"].pop("breaker_open") is True
    deadline = SupgService(_engine(beta_dataset), max_window_ms=5.0, window_deadline_s=0.2)
    deadline._execute_window = stall
    try:
        deadline.submit(RT.format(gamma=90), seed=0).exception(timeout=30)
        [records["deadline"]] = deadline.window_log
    finally:
        release.set()
        deadline.close(timeout=30)
    assert records["deadline"].pop("deadline_expired") is True
    assert set(records["normal"]) == set(records["breaker"]) == set(records["deadline"])
    assert records["breaker"]["queries"] == records["breaker"]["errors"] == 1
    assert records["deadline"]["queries"] == records["deadline"]["errors"] == 1


def test_unknown_table_ticket_counts_as_served(beta_dataset):
    with SupgService(_engine(beta_dataset), max_window_ms=5.0) as service:
        sql = RT.replace("FROM t", "FROM missing").format(gamma=90)
        assert isinstance(service.submit(sql).exception(timeout=60), KeyError)
    [record] = service.window_log
    assert record["queries"] == 1 and record["errors"] == 1
    stats = service.session_stats()
    assert stats["admitted"] == stats["queries_served"] == 1
    assert stats["window_errors"] == 1


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_session_stats_reads_each_count_from_its_owner(tmp_path, backend):
    store_dir = str(tmp_path) if backend == "disk" else None
    engine = SupgEngine(store_dir=store_dir, backend=backend)
    engine.register_table("t", make_beta_dataset(0.01, 1.0, size=50_000, seed=7))
    assert set(engine.session_stats()) == ENGINE_STAT_KEYS
    with SupgService(engine, max_window_ms=5.0) as service:
        service.submit(RT.format(gamma=90), seed=0).result(timeout=120)
        stats = service.session_stats()
        assert set(stats) == ENGINE_STAT_KEYS | SERVICE_STAT_KEYS
        assert service.health()["windows_total"] == stats["windows"] == 1
    stats = engine.session_stats()
    owners = {**engine.context.store.stats(), **engine.stats_backend.counters}
    assert set(owners) | {"bytes_shipped", "stats_inherited"} == ENGINE_STAT_KEYS
    assert {key: stats[key] for key in owners} == owners
    assert stats["zonemap_selects"] == 1
