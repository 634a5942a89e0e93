"""Tests for the stratified score zone-map index.

The index is a pure performance structure: every test here ultimately
pins the same contract — indexed lookups are byte-identical to the
dense O(n) passes they replace — plus the lifecycle around it
(persistence in the disk statistics backend, engine telemetry, fork
workers under ``jobs > 1``).
"""

import json

import numpy as np
import pytest

from repro.core.stats_backend import ZONE_MAP_STAT, DiskBackend, statistic_entries
from repro.core.thresholds import SELECT_EVERYTHING, SELECT_NOTHING
from repro.core.zonemap import (
    DEFAULT_STRATUM_SIZE,
    MIN_INDEXED_SIZE,
    ScoreZoneMap,
    SkipEstimate,
)
from repro.datasets import Dataset, make_beta_dataset
from repro.query import SupgEngine

RT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT 400 USING A(x) "
    "RECALL TARGET {gamma}% WITH PROBABILITY 95%"
)
PT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT 400 USING A(x) "
    "PRECISION TARGET 80% WITH PROBABILITY 95%"
)
BATCH = [RT.format(gamma=80), RT.format(gamma=90), PT]


@pytest.fixture(scope="module")
def dataset():
    """Large enough to build the index without forcing (> MIN_INDEXED_SIZE)."""
    return make_beta_dataset(0.01, 1.0, size=MIN_INDEXED_SIZE + 5_000, seed=11)


def tau_panel(dataset, rng):
    """Thresholds hitting every interesting regime: random cuts, exact
    tie values from the data, and both sentinel boundaries."""
    scores = dataset.proxy_scores
    return np.concatenate(
        [
            rng.uniform(0.0, 1.0, size=40),
            rng.choice(scores, size=20, replace=False),  # exact ties
            [0.0, 1.0, SELECT_EVERYTHING, SELECT_NOTHING, -1.0, np.min(scores), np.max(scores)],
        ]
    )


class TestBuild:
    def test_structure(self, dataset):
        zone_map = dataset.zone_map
        assert zone_map is not None
        assert zone_map.size == len(dataset)
        assert zone_map.strata == -(-len(dataset) // DEFAULT_STRATUM_SIZE)
        assert zone_map.stratum_size == DEFAULT_STRATUM_SIZE
        # Per-stratum bounds bracket the sorted slice they summarize.
        scores = dataset.sorted_scores
        for j in range(zone_map.strata):
            low, high = zone_map.offsets[j], zone_map.offsets[j + 1]
            assert zone_map.lows[j] == scores[low]
            assert zone_map.highs[j] == scores[high - 1]
            assert zone_map.score_mass[j] == pytest.approx(scores[low:high].sum())

    def test_last_stratum_may_be_short(self):
        zone_map = ScoreZoneMap.build(np.linspace(0, 1, 100), stratum_size=30)
        assert zone_map.strata == 4
        assert int(zone_map.offsets[-1]) == 100

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            ScoreZoneMap.build(np.array([]))
        with pytest.raises(ValueError, match="positive"):
            ScoreZoneMap.build(np.linspace(0, 1, 10), stratum_size=0)
        with pytest.raises(ValueError, match="misaligned"):
            ScoreZoneMap(
                offsets=np.array([0, 5]),
                lows=np.array([0.0, 0.5]),
                highs=np.array([0.4, 0.9]),
                score_mass=np.array([1.0, 2.0]),
            )

    def test_dataset_below_threshold_has_no_index(self, tiny_dataset):
        assert tiny_dataset.zone_map is None
        # ... but force-building still works for benchmarks/tests.
        forced = tiny_dataset.build_zone_map(stratum_size=4)
        assert forced is tiny_dataset.zone_map
        assert forced.strata == 3


class TestLocate:
    def test_matches_global_searchsorted(self, dataset, rng):
        zone_map = dataset.zone_map
        scores = dataset.sorted_scores
        for tau in tau_panel(dataset, rng):
            position, stratum = zone_map.locate(float(tau), scores)
            assert position == np.searchsorted(scores, tau, side="left")
            if position < len(dataset):
                assert zone_map.offsets[stratum] <= position < zone_map.offsets[stratum + 1]
            else:
                assert stratum == zone_map.strata

    def test_count_above_matches_dense(self, dataset, rng):
        for tau in tau_panel(dataset, rng):
            dense = int(np.count_nonzero(dataset.proxy_scores >= tau))
            assert dataset.count_above(float(tau)) == dense


class TestSelectAbove:
    def test_bit_identical_to_dense(self, dataset, rng):
        zone_map = dataset.zone_map
        for tau in tau_panel(dataset, rng):
            dense = np.flatnonzero(dataset.proxy_scores >= tau)
            indexed = zone_map.select_above(
                float(tau),
                dataset.sorted_scores,
                dataset.score_order,
                dataset.proxy_scores,
            )
            np.testing.assert_array_equal(indexed, dense)
            assert indexed.dtype == dense.dtype

    def test_boundary_semantics(self, dataset):
        assert dataset.select_above(SELECT_NOTHING).size == 0
        assert dataset.select_above(SELECT_EVERYTHING).size == len(dataset)
        np.testing.assert_array_equal(
            dataset.select_above(SELECT_EVERYTHING), np.arange(len(dataset))
        )

    def test_counters_accrue(self):
        data = make_beta_dataset(0.01, 1.0, size=MIN_INDEXED_SIZE, seed=3)
        zone_map = data.zone_map
        before = dict(zone_map.counters)
        data.select_above(0.9)  # tiny selection: indexed path
        data.select_above(0.0)  # full selection: dense fallback
        data.select_above(SELECT_NOTHING)  # empty: all skipped
        assert zone_map.counters["zonemap_selects"] == before["zonemap_selects"] + 3
        assert zone_map.counters["zonemap_dense_fallbacks"] >= before["zonemap_dense_fallbacks"] + 1
        assert zone_map.counters["records_skipped"] >= before["records_skipped"] + len(data)


class TestPlanEstimate:
    def test_recall_tail_holds_gamma_mass(self, dataset):
        zone_map = dataset.zone_map
        estimate = zone_map.plan_estimate(recall=True, gamma=0.9)
        assert isinstance(estimate, SkipEstimate)
        total = float(zone_map.tail_mass[0])
        kept = float(zone_map.tail_mass[estimate.start_stratum])
        assert kept >= 0.9 * total
        assert estimate.strata_touched + estimate.start_stratum == zone_map.strata
        assert estimate.est_selected + estimate.est_skipped == len(dataset)

    def test_higher_recall_touches_more(self, dataset):
        low = dataset.zone_map.plan_estimate(recall=True, gamma=0.5)
        high = dataset.zone_map.plan_estimate(recall=True, gamma=0.99)
        assert high.strata_touched >= low.strata_touched

    def test_precision_estimate_bounded(self, dataset):
        estimate = dataset.zone_map.plan_estimate(recall=False, gamma=0.8)
        assert 0 <= estimate.start_stratum <= dataset.zone_map.strata
        assert "zonemap" in estimate.render()


def _no_build(*args, **kwargs):
    raise AssertionError("a warm zone-map file must be read, not rebuilt")


def _map_bytes(zone_map):
    return [
        getattr(zone_map, name).tobytes()
        for name in ("offsets", "lows", "highs", "score_mass")
    ]


class TestSidecar:
    """The zone map's persisted form: a disk-backend statistic file that
    its ``.meta.json`` sidecar validates (format version, fingerprint,
    length) before it is served; anything else is quarantined and the
    map rebuilt."""

    def _forge(self, dataset, tmp_path, **meta_fields):
        """Persist the dataset's map, then overwrite sidecar fields."""
        backend = DiskBackend(tmp_path)
        backend.zone_map(dataset)
        path = backend.stat_path(dataset.fingerprint, ZONE_MAP_STAT)
        meta_path = path.with_name(path.name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        meta.update(meta_fields)
        meta_path.write_text(json.dumps(meta))
        return path

    def _assert_rebuilt(self, dataset, tmp_path):
        backend = DiskBackend(tmp_path)
        assert _map_bytes(backend.zone_map(dataset)) == _map_bytes(dataset.zone_map)
        assert backend.counters["stats_quarantined"] == 1

    def test_round_trip(self, dataset, tmp_path, monkeypatch):
        DiskBackend(tmp_path).zone_map(dataset)
        monkeypatch.setattr(ScoreZoneMap, "build", _no_build)
        loaded = DiskBackend(tmp_path).zone_map(dataset)
        assert _map_bytes(loaded) == _map_bytes(dataset.zone_map)

    def test_rejects_foreign_fingerprint(self, dataset, tmp_path):
        self._forge(dataset, tmp_path, fingerprint="deadbeef" * 8)
        self._assert_rebuilt(dataset, tmp_path)

    def test_rejects_size_mismatch(self, dataset, tmp_path):
        path = self._forge(dataset, tmp_path)
        np.save(path, np.load(path)[:-1])
        self._assert_rebuilt(dataset, tmp_path)

    def test_rejects_stale_format(self, dataset, tmp_path):
        self._forge(dataset, tmp_path, format_version=-1)
        [entry] = statistic_entries(tmp_path)
        assert entry["state"] == "stale"
        self._assert_rebuilt(dataset, tmp_path)

    def test_entries_report_corruption(self, tmp_path):
        name = DiskBackend.stat_filename("bad" * 8, ZONE_MAP_STAT)
        (tmp_path / name).write_bytes(b"not an npy")
        [entry] = statistic_entries(tmp_path)
        assert "error" in entry and entry["state"] == "stale"

    def test_entries_missing_dir(self, tmp_path):
        assert statistic_entries(tmp_path / "absent") == []


class TestEngineTelemetry:
    def test_session_stats_carries_skipping_counters(self):
        # A fresh dataset: the module fixture's map was built by another
        # backend, and counts into it, before this engine saw it.
        data = make_beta_dataset(0.01, 1.0, size=MIN_INDEXED_SIZE, seed=11)
        engine = SupgEngine()
        engine.register_table("t", data)
        engine.execute(RT.format(gamma=90), seed=0)
        stats = engine.session_stats()
        for key in (
            "zonemap_selects",
            "strata_touched",
            "records_skipped",
            "zonemap_dense_fallbacks",
        ):
            assert key in stats
        assert stats["zonemap_selects"] > 0
        assert stats["records_skipped"] > 0

    def test_sidecar_written_and_reused(self, tmp_path):
        data = make_beta_dataset(0.01, 1.0, size=MIN_INDEXED_SIZE, seed=9)
        engine = SupgEngine(store_dir=str(tmp_path), backend="disk")
        engine.register_table("t", data)
        path = engine.stats_backend.stat_path(data.fingerprint, ZONE_MAP_STAT)
        # Registration is lazy: it forces neither the sort nor the
        # index build.
        assert not path.exists()
        assert "zone_map" not in data.__dict__
        assert "sorted_scores" not in data.__dict__
        # First use builds the index and persists it with its sidecar.
        assert data.zone_map is not None
        assert path.exists() and path.with_name(path.name + ".meta.json").exists()
        # A second engine (fresh dataset object, same content) reads the
        # index from the file on first access, never sorting at all.
        clone = make_beta_dataset(0.01, 1.0, size=MIN_INDEXED_SIZE, seed=9)
        assert "zone_map" not in clone.__dict__
        engine2 = SupgEngine(store_dir=str(tmp_path), backend="disk")
        engine2.register_table("t", clone)
        zone_map = clone.zone_map
        assert zone_map is not None
        assert "sorted_scores" not in clone.__dict__
        assert engine2.session_stats()["sorts_performed"] == 0
        np.testing.assert_array_equal(zone_map.offsets, data.zone_map.offsets)

    def test_small_dataset_not_indexed_by_engine(self, tiny_dataset, tmp_path):
        # A copy, so the shared fixture keeps its in-memory backend.
        data = Dataset(tiny_dataset.proxy_scores, tiny_dataset.labels)
        engine = SupgEngine(store_dir=str(tmp_path), backend="disk")
        engine.register_table("t", data)
        assert data.zone_map is None
        path = engine.stats_backend.stat_path(data.fingerprint, ZONE_MAP_STAT)
        assert not path.exists()


class TestParallelBitIdentity:
    """The ISSUE's pin: indexed selection under jobs > 1 matches jobs=1."""

    def test_execute_many_jobs2_matches_sequential(self):
        data = make_beta_dataset(0.01, 1.0, size=MIN_INDEXED_SIZE, seed=11)
        data.build_zone_map()  # force the indexed path everywhere

        sequential_engine = SupgEngine()
        sequential_engine.register_table("t", data)
        sequential = sequential_engine.execute_many(BATCH, seed=0, jobs=1)

        parallel_engine = SupgEngine()
        parallel_engine.register_table("t", data)
        parallel = parallel_engine.execute_many(BATCH, seed=0, jobs=2)

        assert len(sequential) == len(parallel) == len(BATCH)
        for a, b in zip(sequential, parallel):
            np.testing.assert_array_equal(a.result.indices, b.result.indices)
            assert a.result.indices.dtype == b.result.indices.dtype
            assert a.result.tau == b.result.tau
            assert a.result.oracle_calls == b.result.oracle_calls


class TestNaNRejection:
    def test_dataset_rejects_nan_scores(self):
        scores = np.array([0.1, np.nan, 0.9])
        with pytest.raises(ValueError, match="NaN"):
            Dataset(proxy_scores=scores, labels=np.array([0, 0, 1]))
