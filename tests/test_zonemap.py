"""Tests for the score bucket index.

The index is a pure performance structure: every test here ultimately
pins the same contract — indexed lookups are byte-identical to the
dense O(n) passes they replace — plus the lifecycle around it
(persistence in the disk statistics backend, engine telemetry, fork
workers under ``jobs > 1``).
"""

import json

import numpy as np
import pytest

from repro.core import stats_backend
from repro.core.stats_backend import COUNTS_STAT, DiskBackend, statistic_entries
from repro.core.thresholds import SELECT_EVERYTHING, SELECT_NOTHING
from repro.core.zonemap import (
    BUCKETS,
    MIN_INDEXED_SIZE,
    ScoreZoneMap,
    SkipEstimate,
    bucket_keys,
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
        keys = bucket_keys(dataset.proxy_scores)
        np.testing.assert_array_equal(zone_map.counts, np.bincount(keys, minlength=BUCKETS))
        assert zone_map.strata == np.unique(keys).size
        # Each bucket's run of the order holds exactly its records, in
        # record-index order.
        order = dataset.score_order
        for bucket in np.unique(keys):
            run = order[zone_map.offsets[bucket] : zone_map.offsets[bucket + 1]]
            np.testing.assert_array_equal(run, np.flatnonzero(keys == bucket))

    def test_keys_are_monotone_on_the_unit_interval(self):
        scores = np.array([0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 0.25, 0.5, 0.75, 1.0])
        keys = bucket_keys(np.sort(np.concatenate([scores, np.random.default_rng(0).random(999)])))
        assert keys.dtype == np.uint16
        assert np.all(np.diff(keys.astype(int)) >= 0)
        assert bucket_keys(np.array([-0.0, 0.0, 1.0])).tolist() == [0, 0, BUCKETS - 1]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="bucket counts"):
            ScoreZoneMap(np.zeros(BUCKETS - 1, dtype=np.int64))
        with pytest.raises(ValueError, match="bucket counts"):
            ScoreZoneMap(np.full(BUCKETS, -1))

    def test_dataset_below_threshold_has_no_index(self, tiny_dataset):
        assert tiny_dataset.zone_map is None
        # ... but force-building still works for benchmarks/tests.
        forced = tiny_dataset.build_zone_map()
        assert forced is tiny_dataset.zone_map
        assert forced.strata == np.unique(bucket_keys(tiny_dataset.proxy_scores)).size


class TestLocate:
    def test_matches_global_searchsorted(self, dataset, rng):
        """A threshold's cut in the ascending scores lies inside the run
        of its own bucket, so every bucket above it is selected whole."""
        zone_map = dataset.zone_map
        ascending = np.sort(dataset.proxy_scores)
        for tau in tau_panel(dataset, rng):
            if not 0.0 < tau <= 1.0:
                continue
            bucket = int(bucket_keys(np.array([tau]))[0])
            position = np.searchsorted(ascending, tau, side="left")
            assert zone_map.offsets[bucket] <= position <= zone_map.offsets[bucket + 1]

    def test_score_at_rank_matches_full_sort(self, dataset, rng):
        descending = np.sort(dataset.proxy_scores)[::-1]
        ranks = np.concatenate([[1, 2, len(dataset) - 1, len(dataset)],
                                rng.integers(1, len(dataset) + 1, size=200)])
        for rank in ranks:
            assert dataset.score_at_rank(int(rank)) == descending[rank - 1]
        with pytest.raises(ValueError, match="rank"):
            dataset.score_at_rank(0)

    def test_score_at_rank_returns_positive_zero(self):
        scores = np.zeros(MIN_INDEXED_SIZE)
        scores[::2] = -0.0
        data = Dataset(scores, np.zeros(scores.size, dtype=np.int8))
        for table in (data, data.subset(np.arange(100))):  # indexed, dense
            tau = table.score_at_rank(3)
            assert tau == 0.0 and not np.signbit(tau)


class TestSelectAbove:
    def test_bit_identical_to_dense(self, dataset, rng):
        zone_map = dataset.zone_map
        for tau in tau_panel(dataset, rng):
            dense = np.flatnonzero(dataset.proxy_scores >= tau)
            for paged in (False, True):
                indexed = zone_map.select_above(
                    float(tau), dataset.score_order, dataset.proxy_scores, paged
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


def _midpoint_mass(zone_map):
    """Each bucket's count times its midpoint score (1.0 at most)."""
    floors = (np.arange(BUCKETS + 1, dtype=np.uint64) << np.uint64(48)).view(np.float64)
    return zone_map.counts * np.minimum((floors[:-1] + floors[1:]) / 2, 1.0)


class TestPlanEstimate:
    def test_recall_tail_holds_gamma_mass(self, dataset):
        zone_map = dataset.zone_map
        estimate = zone_map.plan_estimate(recall=True, gamma=0.9)
        assert isinstance(estimate, SkipEstimate)
        mass = _midpoint_mass(zone_map)
        kept = mass[zone_map.offsets[:-1] >= estimate.est_skipped].sum()
        assert kept >= 0.9 * mass.sum()
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
    raise AssertionError("a warm bucket-counts file must be read, not rebuilt")


class TestSidecar:
    """The zone map's persisted form: a bucket-counts statistic file
    that its ``.meta.json`` sidecar validates (format version,
    fingerprint, length) before it is served; anything else is
    quarantined and the counts rebuilt."""

    def _forge(self, dataset, tmp_path, **meta_fields):
        """Persist the dataset's map, then overwrite sidecar fields."""
        backend = DiskBackend(tmp_path)
        backend.zone_map(dataset)
        path = backend.stat_path(dataset.fingerprint, COUNTS_STAT)
        meta_path = path.with_name(path.name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        meta.update(meta_fields)
        meta_path.write_text(json.dumps(meta))
        return path

    def _assert_rebuilt(self, dataset, tmp_path):
        backend = DiskBackend(tmp_path)
        assert backend.zone_map(dataset).counts.tobytes() == dataset.zone_map.counts.tobytes()
        assert backend.counters["stats_quarantined"] == 1

    def test_round_trip(self, dataset, tmp_path, monkeypatch):
        DiskBackend(tmp_path).zone_map(dataset)
        monkeypatch.setattr(stats_backend, "bucket_keys", _no_build)
        loaded = DiskBackend(tmp_path).zone_map(dataset)
        assert loaded.counts.tobytes() == dataset.zone_map.counts.tobytes()

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
        name = DiskBackend.stat_filename("bad" * 8, COUNTS_STAT)
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
        path = engine.stats_backend.stat_path(data.fingerprint, COUNTS_STAT)
        # Registration is lazy: it forces neither the order nor the
        # counts.
        assert not path.exists()
        assert "zone_map" not in data.__dict__
        assert "score_order" not in data.__dict__
        # First use counts the buckets and persists them with a sidecar.
        assert data.zone_map is not None
        assert path.exists() and path.with_name(path.name + ".meta.json").exists()
        # A second engine (fresh dataset object, same content) reads the
        # index from the file on first access, never keying a score.
        clone = make_beta_dataset(0.01, 1.0, size=MIN_INDEXED_SIZE, seed=9)
        assert "zone_map" not in clone.__dict__
        engine2 = SupgEngine(store_dir=str(tmp_path), backend="disk")
        engine2.register_table("t", clone)
        zone_map = clone.zone_map
        assert zone_map is not None
        assert "score_order" not in clone.__dict__
        assert engine2.session_stats()["sorts_performed"] == 0
        np.testing.assert_array_equal(zone_map.offsets, data.zone_map.offsets)

    def test_small_dataset_not_indexed_by_engine(self, tiny_dataset, tmp_path):
        # A copy, so the shared fixture keeps its in-memory backend.
        data = Dataset(tiny_dataset.proxy_scores, tiny_dataset.labels)
        engine = SupgEngine(store_dir=str(tmp_path), backend="disk")
        engine.register_table("t", data)
        assert data.zone_map is None
        path = engine.stats_backend.stat_path(data.fingerprint, COUNTS_STAT)
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
