"""Persistent-tier contract of the SampleStore: one label column per dataset.

With a ``store_dir``, every ground-truth lookup reads the labels the
dataset's column knows and pays only for the rest, so a later process
redraws the same sample bit-identically and pays no labels.  *Any*
defect in a column file — truncation, garbage bytes, a mismatched
format version, record count or fingerprint, a value outside
{-1, 0, 1} — quarantines it once and starts the column again empty.
Wrong labels are never served and nothing ever crashes on a bad file.

Several test names predate the column and say "spill" or "disk hit";
each now checks the same promise of the persistent tier on the column.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import ApproxQuery, ExecutionContext, SampleStore, make_selector
from repro.core.stats_backend import QUARANTINE_DIRNAME, statistic_entries
from repro.datasets import make_beta_dataset
from repro.sampling import SampleDesign

DESIGN = SampleDesign(kind="proxy-weighted", budget=200, exponent=0.5, mixing=0.1)
UNIFORM = SampleDesign(kind="uniform", budget=150)


@pytest.fixture(scope="module")
def workload():
    return make_beta_dataset(0.01, 1.0, size=20_000, seed=9)


def _assert_samples_equal(a, b):
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.mass, b.mass)
    assert a.scores.dtype == b.scores.dtype and a.labels.dtype == b.labels.dtype
    assert dict(a.rng_state) == dict(b.rng_state)


def _column_file(tmp_path):
    (only,) = list(tmp_path.glob("stat-*-labels.npy"))
    return only


def _column(tmp_path):
    return np.load(_column_file(tmp_path), mmap_mode="r")


class TestDiskRoundTrip:
    def test_second_process_pays_no_labels(self, workload, tmp_path):
        first = SampleStore(store_dir=tmp_path)
        drawn = first.fetch(workload, DESIGN, 3)
        assert first.stats()["misses"] == 1
        assert first.stats()["labels_drawn"] == drawn.oracle_calls

        second = SampleStore(store_dir=tmp_path)  # simulates a new process
        served = second.fetch(workload, DESIGN, 3)
        stats = second.stats()
        assert stats["misses"] == 1 and stats["labels_drawn"] == 0
        assert stats["labels_saved"] == drawn.oracle_calls
        _assert_samples_equal(drawn, served)

    def test_spill_files_are_complete_and_atomic(self, workload, tmp_path):
        """Two designs on one dataset share one column and its sidecar;
        no build file, spill file or stray file is left behind."""
        store = SampleStore(store_dir=tmp_path)
        a = store.fetch(workload, DESIGN, 0)
        b = store.fetch(workload, UNIFORM, 0)
        column = _column_file(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            column.name, column.name + ".meta.json"
        ]
        meta = json.loads((tmp_path / (column.name + ".meta.json")).read_text())
        assert meta["fingerprint"] == workload.fingerprint
        assert meta["records"] == workload.size and meta["stat"] == "labels"
        values = np.asarray(_column(tmp_path))
        known = np.union1d(a.distinct_indices, b.distinct_indices)
        np.testing.assert_array_equal(values[known], workload.labels[known])
        assert np.count_nonzero(values >= 0) == known.size
        assert store.labels_drawn == known.size

    def test_disk_hit_promotes_to_memory(self, workload, tmp_path):
        """A draw served by the column is cached in memory like any other."""
        SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 1)
        store = SampleStore(store_dir=tmp_path)
        store.fetch(workload, DESIGN, 1)
        store.fetch(workload, DESIGN, 1)
        assert store.misses == 1 and store.hits == 1 and store.labels_drawn == 0

    def test_selector_results_identical_through_disk(self, workload, tmp_path):
        """A staged selection whose labels came off the column — including
        the two-stage algorithm, whose stage-2 sample reads it too — must
        match the legacy oracle-driven path bit for bit."""
        for name, query in (
            ("is-ci-r", ApproxQuery.recall_target(0.9, 0.05, 300)),
            ("is-ci-p", ApproxQuery.precision_target(0.9, 0.05, 300)),
        ):
            legacy = make_selector(name, query).select(workload, seed=4)
            ExecutionContext(store=SampleStore(store_dir=tmp_path)).select(
                make_selector(name, query), workload, seed=4
            )
            cold = ExecutionContext(store=SampleStore(store_dir=tmp_path))
            served = cold.select(make_selector(name, query), workload, seed=4)
            assert np.array_equal(legacy.indices, served.indices), name
            assert legacy.tau == served.tau, name
            assert legacy.oracle_calls == served.oracle_calls, name
            assert dict(legacy.details) == dict(served.details), name
            assert cold.store.labels_drawn == 0, name

    def test_racing_lookups_write_only_the_truth(self, workload, tmp_path):
        """Eight threads (more than the cores) race lookups through one
        store's column with a short switch interval: every label served
        and every byte written is the true label; a lost write only
        costs a later payment."""
        store = SampleStore(store_dir=tmp_path)
        served = []

        def race(seed):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                indices = rng.integers(0, workload.size, size=300)
                served.append((indices, store.labeler(workload)(indices)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=race, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(served) == 8 * 40
        for indices, labels in served:
            np.testing.assert_array_equal(labels, workload.labels[indices])
        values = np.asarray(_column(tmp_path))
        known = values >= 0
        assert known.any()
        np.testing.assert_array_equal(values[known], workload.labels[known])


class TestCorruptionTolerance:
    def _reference(self, workload, tmp_path, design=DESIGN, seed=2):
        return SampleStore(store_dir=tmp_path).fetch(workload, design, seed)

    def _assert_redrawn(self, workload, tmp_path, reference, design=DESIGN, seed=2):
        store = SampleStore(store_dir=tmp_path)
        sample = store.fetch(workload, design, seed)
        assert store.quarantined == 1 and store.misses == 1
        assert store.labels_drawn == reference.oracle_calls  # paid again
        _assert_samples_equal(reference, sample)  # redraw, not garbage
        return store

    def test_truncated_file_falls_back_to_fresh_draw(self, workload, tmp_path):
        reference = self._reference(workload, tmp_path)
        path = _column_file(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        self._assert_redrawn(workload, tmp_path, reference)

    def test_garbage_bytes_fall_back_to_fresh_draw(self, workload, tmp_path):
        reference = self._reference(workload, tmp_path)
        _column_file(tmp_path).write_bytes(b"not an npy column at all")
        self._assert_redrawn(workload, tmp_path, reference)

    def test_format_version_mismatch_rejected(self, workload, tmp_path):
        reference = self._reference(workload, tmp_path)
        meta_path = tmp_path / (_column_file(tmp_path).name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        meta["format_version"] += 1
        meta_path.write_text(json.dumps(meta))
        self._assert_redrawn(workload, tmp_path, reference)

    def test_fingerprint_mismatch_never_serves_foreign_labels(self, tmp_path):
        """A column of one dataset, renamed to another's path (copied
        store, fingerprint-prefix collision), must be rejected — its
        labels belong to different records."""
        ours = make_beta_dataset(0.01, 1.0, size=5_000, seed=1)
        theirs = make_beta_dataset(0.01, 2.0, size=5_000, seed=2)
        SampleStore(store_dir=tmp_path).fetch(theirs, UNIFORM, 0)
        foreign = _column_file(tmp_path)
        ours_path = tmp_path / foreign.name.replace(theirs.fingerprint[:16], ours.fingerprint[:16])
        os.replace(foreign, ours_path)
        os.replace(
            tmp_path / (foreign.name + ".meta.json"), tmp_path / (ours_path.name + ".meta.json")
        )

        fresh = SampleStore(store_dir=tmp_path)
        sample = fresh.fetch(ours, UNIFORM, 0)
        assert fresh.quarantined == 1 and fresh.misses == 1
        assert fresh.labels_drawn == sample.oracle_calls
        np.testing.assert_array_equal(sample.labels, ours.labels[sample.indices])

    def test_budget_mismatch_rejected(self, workload, tmp_path):
        """A column whose length disagrees with the dataset's record
        count is unusable even if its sidecar parses."""
        reference = self._reference(workload, tmp_path, UNIFORM, 5)
        path = _column_file(tmp_path)
        values = np.load(path)
        np.save(path, values[:-3])
        self._assert_redrawn(workload, tmp_path, reference, UNIFORM, 5)

    @pytest.mark.parametrize("bad", [2, -2, 127, -128])
    def test_value_outside_label_range_rejected(self, workload, tmp_path, bad):
        reference = self._reference(workload, tmp_path)
        path = _column_file(tmp_path)
        values = np.load(path)
        values[int(reference.distinct_indices[0])] = bad
        np.save(path, values)
        self._assert_redrawn(workload, tmp_path, reference)


class TestLruInterleaving:
    def test_eviction_follows_access_order_not_insertion(self, workload):
        """Touching an entry must move it to the LRU tail: after
        inserting seeds 0,1 and re-reading 0, adding seed 2 evicts 1."""
        store = SampleStore(max_entries=2)
        store.fetch(workload, UNIFORM, 0)
        store.fetch(workload, UNIFORM, 1)
        store.fetch(workload, UNIFORM, 0)  # hit: 0 becomes most-recent
        store.fetch(workload, UNIFORM, 2)  # evicts 1, not 0
        assert store.fetch(workload, UNIFORM, 0) is not None and store.hits == 2
        store.fetch(workload, UNIFORM, 1)
        assert store.misses == 4  # 0, 1, 2, then 1 again after eviction

    def test_interleaved_designs_do_not_thrash(self, workload):
        """Trial-outer access (all designs of seed t back-to-back) stays
        hot even when trials exceed capacity."""
        store = SampleStore(max_entries=2)
        other = SampleDesign(kind="uniform", budget=150, replace=False)
        for seed in range(5):
            for design in (UNIFORM, other):
                store.fetch(workload, design, seed)
                store.fetch(workload, design, seed)
        assert store.misses == 10 and store.hits == 10

    def test_disk_tier_survives_lru_eviction(self, workload, tmp_path):
        """An evicted entry is redrawn from the column, paying nothing."""
        store = SampleStore(max_entries=1, store_dir=tmp_path)
        first = store.fetch(workload, UNIFORM, 0)
        second = store.fetch(workload, UNIFORM, 1)  # evicts seed 0 from memory
        paid = store.labels_drawn
        again = store.fetch(workload, UNIFORM, 0)
        assert store.misses == 3 and store.labels_drawn == paid
        assert paid == np.union1d(first.distinct_indices, second.distinct_indices).size
        _assert_samples_equal(first, again)


class TestSessionStats:
    def test_labels_saved_accounting(self, workload):
        store = SampleStore()
        drawn = store.fetch(workload, UNIFORM, 0)
        store.fetch(workload, UNIFORM, 0)
        store.fetch(workload, UNIFORM, 0)
        stats = store.stats()
        assert stats["labels_drawn"] == drawn.oracle_calls
        assert stats["labels_saved"] == 2 * drawn.oracle_calls

    def test_engine_store_dir_shares_labels_across_sessions(self, workload, tmp_path):
        from repro.query import SupgEngine

        sql = (
            "SELECT * FROM t WHERE PRESENT(x) = True ORACLE LIMIT 300 "
            "USING SCORE(x) RECALL TARGET 90% WITH PROBABILITY 95%"
        )
        first = SupgEngine(store_dir=str(tmp_path))
        first.register_table("t", workload)
        a = first.execute(sql, seed=1)
        second = SupgEngine(store_dir=str(tmp_path))
        second.register_table("t", workload)
        b = second.execute(sql, seed=1)
        assert np.array_equal(a.result.indices, b.result.indices)
        assert a.result.oracle_calls == b.result.oracle_calls
        stats = second.session_stats()
        assert stats["labels_drawn"] == 0 and stats["misses"] == 1
        assert stats["labels_saved"] == a.result.oracle_calls

    def test_engine_rejects_context_plus_store_dir(self):
        from repro.query import SupgEngine

        with pytest.raises(ValueError, match="ambiguous"):
            SupgEngine(context=ExecutionContext(), store_dir="/tmp/x")


class TestDiskEviction:
    """A label column is one byte per record, so the tier has no cap to
    enforce; only the LRU of samples evicts."""

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            SampleStore(max_entries=0, store_dir=tmp_path)
        with pytest.raises(TypeError, match="max_disk_bytes"):
            SampleStore(store_dir=tmp_path, max_disk_bytes=100)


class TestDiskInspection:
    def test_disk_entries_and_usage(self, workload, tmp_path):
        """``statistic_entries`` lists the column, warm, with how many
        labels it holds."""
        store = SampleStore(store_dir=tmp_path)
        a = store.fetch(workload, UNIFORM, 0)
        b = store.fetch(workload, DESIGN, 0)
        (entry,) = statistic_entries(tmp_path)
        assert entry["stat"] == "labels" and entry["state"] == "warm"
        assert entry["fingerprint"] == workload.fingerprint
        assert entry["records"] == workload.size and entry["dtype"] == "int8"
        assert entry["known"] == np.union1d(a.distinct_indices, b.distinct_indices).size
        assert entry["bytes"] == _column_file(tmp_path).stat().st_size

    def test_persistent_stats_accumulate_across_processes(self, workload, tmp_path):
        """The labels known accumulate over processes; a third pays
        nothing for either earlier draw."""
        a = SampleStore(store_dir=tmp_path).fetch(workload, UNIFORM, 0)
        b = SampleStore(store_dir=tmp_path).fetch(workload, UNIFORM, 1)
        (entry,) = statistic_entries(tmp_path)
        assert entry["known"] == np.union1d(a.distinct_indices, b.distinct_indices).size
        third = SampleStore(store_dir=tmp_path)
        third.fetch(workload, UNIFORM, 0)
        third.fetch(workload, UNIFORM, 1)
        assert third.labels_drawn == 0 and third.misses == 2

    def test_clear_disk_removes_spills_and_stats(self, workload, tmp_path):
        store = SampleStore(store_dir=tmp_path)
        store.fetch(workload, UNIFORM, 0)
        summary = SampleStore.clear_disk(tmp_path)
        assert summary["files_removed"] == 2 and summary["bytes_freed"] > 0
        assert list(tmp_path.iterdir()) == []
        # An empty directory pays again rather than erroring.
        fresh = SampleStore(store_dir=tmp_path)
        sample = fresh.fetch(workload, UNIFORM, 0)
        assert fresh.misses == 1 and fresh.quarantined == 0
        assert fresh.labels_drawn == sample.oracle_calls


class TestStoreDirHygiene:
    def test_tilde_paths_expand_to_home(self, tmp_path, monkeypatch):
        """README advertises store_dir=\"~/.cache/...\"; a literal './~'
        directory must never be created."""
        monkeypatch.setenv("HOME", str(tmp_path))
        store = SampleStore(store_dir="~/supg-labels")
        assert store.store_dir == tmp_path / "supg-labels"
        assert store.store_dir.is_dir()

    def test_numpy_design_fields_are_spillable(self, workload, tmp_path):
        """Budgets off np.arange (numpy integers) are hashable, so the
        memory tier accepts them — the persistent tier must too, and a
        second store must pay no labels for the same draw."""
        design = SampleDesign(
            kind="proxy-weighted",
            budget=np.int64(120),
            exponent=np.float64(0.5),
            mixing=np.float64(0.1),
        )
        first = SampleStore(store_dir=tmp_path)
        drawn = first.fetch(workload, design, 0)
        second = SampleStore(store_dir=tmp_path)
        _assert_samples_equal(drawn, second.fetch(workload, design, 0))
        assert second.labels_drawn == 0 and second.quarantined == 0


    def test_unwritable_column_is_left_alone(self, workload, tmp_path, monkeypatch):
        """A valid column this process cannot map writable is neither
        quarantined nor used: lookups go to the oracle."""
        drawn = SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 0)
        before = np.load(_column_file(tmp_path))
        load = np.load

        def read_only(path, mmap_mode=None, **kwargs):
            if mmap_mode == "r+":
                raise PermissionError(13, "Permission denied", str(path))
            return load(path, mmap_mode=mmap_mode, **kwargs)

        monkeypatch.setattr(np, "load", read_only)
        store = SampleStore(store_dir=tmp_path)
        _assert_samples_equal(drawn, store.fetch(workload, DESIGN, 0))
        monkeypatch.undo()
        assert store.quarantined == 0 and store.labels_drawn == drawn.oracle_calls
        np.testing.assert_array_equal(np.load(_column_file(tmp_path)), before)


class TestQuarantine:
    """Defective columns are quarantined, not silently deleted.

    Every corruption mode must (1) still serve the query via a fresh
    draw with correct label accounting, (2) move the bad file to
    ``<store_dir>/quarantine/`` with a reason file, exactly once, and
    (3) show up in the counters and in ``quarantine_entries``.
    """

    def _assert_quarantined_once(self, tmp_path, workload, reference):
        store = SampleStore(store_dir=tmp_path)
        sample = store.fetch(workload, DESIGN, 2)
        assert store.quarantined == 1 and store.stats()["quarantined"] == 1
        _assert_samples_equal(reference, sample)  # redraw, not garbage
        assert store.stats()["labels_drawn"] == reference.oracle_calls

        qdir = tmp_path / QUARANTINE_DIRNAME
        columns = sorted(qdir.glob("stat-*-labels.npy"))
        reasons = sorted(qdir.glob("*.reason.json"))
        assert len(columns) == 1 and len(reasons) == 1
        reason = json.loads(reasons[0].read_text())
        assert reason["file"] == columns[0].name and reason["reason"]

        # Exactly once: the redraw refilled a new column, so a new store
        # pays nothing and quarantines nothing further.
        again = SampleStore(store_dir=tmp_path)
        served = again.fetch(workload, DESIGN, 2)
        assert again.labels_drawn == 0 and again.quarantined == 0
        _assert_samples_equal(reference, served)

    def test_truncated_spill_quarantined(self, workload, tmp_path):
        reference = SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 2)
        only = _column_file(tmp_path)
        only.write_bytes(only.read_bytes()[: only.stat().st_size // 2])
        self._assert_quarantined_once(tmp_path, workload, reference)

    def test_format_version_mismatch_quarantined(self, workload, tmp_path):
        reference = SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 2)
        meta_path = tmp_path / (_column_file(tmp_path).name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        self._assert_quarantined_once(tmp_path, workload, reference)

    def test_fingerprint_mismatch_quarantined(self, workload, tmp_path):
        reference = SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 2)
        meta_path = tmp_path / (_column_file(tmp_path).name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        meta["fingerprint"] = "f" * 64
        meta_path.write_text(json.dumps(meta))
        self._assert_quarantined_once(tmp_path, workload, reference)

    def test_quarantine_entries_and_clear_disk(self, workload, tmp_path):
        SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 2)
        _column_file(tmp_path).write_bytes(b"not an npy column")
        SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 2)

        entries = SampleStore.quarantine_entries(tmp_path)
        assert len(entries) == 1 and entries[0]["reason"]
        assert entries[0]["bytes"] > 0

        # The quarantined file is invisible to the live listing (the
        # redraw made a new column under the same name at the root)...
        assert [entry["state"] for entry in statistic_entries(tmp_path)] == ["warm"]
        assert entries[0]["path"].parent.name == "quarantine"
        # ...and clear_disk removes it along with the live column.
        SampleStore.clear_disk(tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert SampleStore.quarantine_entries(tmp_path) == []

    def test_persistent_quarantine_counter(self, workload, tmp_path):
        """A quarantine stays on record across processes."""
        SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 2)
        _column_file(tmp_path).write_bytes(b"garbage")
        SampleStore(store_dir=tmp_path).fetch(workload, DESIGN, 2)
        later = SampleStore(store_dir=tmp_path)
        later.fetch(workload, DESIGN, 2)
        assert later.quarantined == 0
        assert len(SampleStore.quarantine_entries(tmp_path)) == 1
