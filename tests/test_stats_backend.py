"""Statistics-backend tests: the bit-identity contract across providers.

The disk backend's external merge sort, streaming CDF passes, and
paged threshold scans must be *byte-identical* to the in-memory path —
every sorted array, every draw statistic, every selection, every query
result.  These tests pin that contract at three layers: the chunked
primitives against their numpy references, ``Dataset`` statistics
across backends, and full engine executions (including ``jobs > 1``
and corruption recovery).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core.stats_backend import (
    DEFAULT_CHUNK_RECORDS,
    DiskBackend,
    InMemoryBackend,
    cdf_stat_name,
    chunked_argsort,
    chunked_pairwise_sum,
    stable_argsort,
    statistic_entries,
)
from repro.core.pipeline import SampleStore
from repro.core.zonemap import MIN_INDEXED_SIZE, ScoreZoneMap
from repro.datasets import Dataset, make_beta_dataset
from repro.faults import FaultPlan, corrupt_statistic, inject
from repro.query import SupgEngine
from repro.sampling import proxy_sampling_weights, sampling_cdf

RT = (
    "SELECT * FROM t WHERE O(x) = True ORACLE LIMIT 600 "
    "USING A(x) RECALL TARGET {gamma}% WITH PROBABILITY 95%"
)
PT = (
    "SELECT * FROM t WHERE O(x) = True ORACLE LIMIT 600 "
    "USING A(x) PRECISION TARGET 80% WITH PROBABILITY 95%"
)


#: The (exponent, mixing) grid every draw-statistic pin runs over.
WEIGHT_DESIGNS = [(0.5, 0.1), (1.0, 0.0), (0.0, 0.2), (2.0, 1.0)]


def make_dataset(size=MIN_INDEXED_SIZE, seed=3):
    return make_beta_dataset(0.01, 1.0, size=size, seed=seed)


def _no_build(*args, **kwargs):
    raise AssertionError("a warm zone-map file must be read, not rebuilt")


def _cdf_bytes(statistic):
    """A draw statistic's table and both totals, as bytes."""
    totals = np.array([statistic.score_total, statistic.weight_total])
    return statistic.cdf.tobytes(), totals.tobytes()


def _reference_cdf(weights):
    """The table ``rng.choice(p=weights / weights.sum())`` builds."""
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


def _map_bytes(zone_map):
    return [
        getattr(zone_map, name).tobytes()
        for name in ("offsets", "lows", "highs", "score_mass")
    ]


# ----------------------------------------------------------------------
# Stable argsort and the chunked external sort: pins against
# np.argsort(kind="stable").
# ----------------------------------------------------------------------

#: Values that tie or sort in special ways: signed zeros, infinities, NaN.
SPECIAL_VALUES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 0.5, 1.0]


@st.composite
def tied_arrays(draw):
    """0 to ~2k floats: uniform randoms with a drawn share of them
    replaced from a pool of up to 8 values (specials and arbitrary
    floats), so runs of ties range from none to all-equal."""
    n = draw(st.integers(0, 2100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random(n)
    pool = draw(st.lists(st.sampled_from(SPECIAL_VALUES) | st.floats(), max_size=8))
    if pool:
        share = draw(st.sampled_from([0.05, 0.5, 0.95, 1.0]))
        tied = rng.random(n) < share
        values[tied] = rng.choice(np.array(pool, dtype=float), size=int(tied.sum()))
    return values


@settings(max_examples=150, deadline=None)
@given(values=tied_arrays() | st.lists(st.sampled_from(SPECIAL_VALUES), max_size=3).map(np.array))
@example(values=np.array([], dtype=float))
@example(values=np.full(1000, 0.25))
@example(values=np.array([0.0, -0.0, 0.0, -0.0, 1.0, -0.0]))
@example(values=np.array([np.nan, 1.0, np.nan, -np.inf, np.inf, np.nan, np.inf]))
def test_stable_argsort_matches_numpy_stable_in_bytes(values):
    values = np.asarray(values, dtype=float)
    want = np.argsort(values, kind="stable")
    for ranked in (None, np.sort(values), values[want]):
        got = stable_argsort(values, ranked)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestChunkedArgsort:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000, 4097])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 17, 100, 10**6])
    def test_byte_identity_random_with_ties(self, n, chunk):
        rng = np.random.default_rng(n * 1000 + chunk)
        values = rng.random(n)
        values[rng.random(n) < 0.3] = 0.5  # heavy tie mass
        sorted_values, order = chunked_argsort(values, chunk)
        ref_order = np.argsort(values, kind="stable")
        assert order.tobytes() == ref_order.tobytes()
        assert order.dtype == ref_order.dtype
        assert sorted_values.tobytes() == values[ref_order].tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 64, 10**6])
    def test_infinity_sentinels(self, chunk):
        rng = np.random.default_rng(0)
        values = rng.random(257)
        values[::5] = np.inf
        values[1::7] = -np.inf
        _, order = chunked_argsort(values, chunk)
        assert order.tobytes() == np.argsort(values, kind="stable").tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 17, 10**6])
    @pytest.mark.parametrize("pool", [[-0.0, 0.0, 0.5], [np.nan, -0.0, 0.0, 1.0]],
                             ids=["signed-zeros", "nan"])
    def test_mixed_signed_zeros_and_nan(self, chunk, pool):
        values = np.random.default_rng(chunk).choice(pool, size=301)
        sorted_values, order = chunked_argsort(values, chunk)
        ref_order = np.argsort(values, kind="stable")
        assert order.tobytes() == ref_order.tobytes()
        assert sorted_values.tobytes() == values[ref_order].tobytes()

    def test_all_equal(self):
        values = np.full(513, 0.25)
        _, order = chunked_argsort(values, 19)
        assert order.tobytes() == np.arange(513, dtype=np.intp).tobytes()

    def test_chunk_larger_than_input_is_plain_argsort(self):
        values = np.random.default_rng(1).random(100)
        _, order = chunked_argsort(values, 10**6)
        assert order.tobytes() == np.argsort(values, kind="stable").tobytes()

    def test_single_record_chunks(self):
        values = np.random.default_rng(2).random(73)
        _, order = chunked_argsort(values, 1)
        assert order.tobytes() == np.argsort(values, kind="stable").tobytes()


class TestChunkedPairwiseSum:
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 1000, 100001])
    @pytest.mark.parametrize("chunk", [1, 7, 128, 1000, 10**7])
    def test_bitwise_matches_np_sum(self, n, chunk):
        values = np.random.default_rng(n + chunk).random(n)
        got = chunked_pairwise_sum(lambda lo, hi: values[lo:hi], n, chunk)
        assert np.float64(got).tobytes() == np.float64(values.sum()).tobytes()


# ----------------------------------------------------------------------
# Backend-level parity on a real Dataset.
# ----------------------------------------------------------------------


class TestBackendParity:
    def test_sorted_scores_and_order_bitwise(self, tmp_path):
        data = make_dataset(size=50000)
        disk = DiskBackend(tmp_path, chunk_records=7001)
        memory = InMemoryBackend()
        assert disk.sorted_scores(data).tobytes() == memory.sorted_scores(data).tobytes()
        assert disk.score_order(data).tobytes() == memory.score_order(data).tobytes()
        assert disk.score_order(data).dtype == memory.score_order(data).dtype

    @pytest.mark.parametrize("exponent,mixing", WEIGHT_DESIGNS)
    def test_weights_bitwise(self, tmp_path, exponent, mixing):
        """The disk CDF and its totals match the memory backend's, which
        match the table ``rng.choice`` builds from the weight vector."""
        data = make_dataset(size=30000)
        disk = DiskBackend(tmp_path, chunk_records=999)
        memory = InMemoryBackend().sampling_weights(data, exponent, mixing)
        weights = proxy_sampling_weights(data.proxy_scores, exponent=exponent, mixing=mixing)
        assert memory.cdf.tobytes() == _reference_cdf(weights).tobytes()
        assert memory.weight_total == weights.sum()
        assert _cdf_bytes(disk.sampling_weights(data, exponent, mixing)) == _cdf_bytes(memory)

    @pytest.mark.parametrize("exponent,mixing", WEIGHT_DESIGNS)
    def test_cdf_bitwise_at_chunk_edges(self, tmp_path, exponent, mixing):
        """Chunks of one record, a few, and n - 1, n and n + 1 records."""
        data = make_dataset(size=1000)
        memory = _cdf_bytes(sampling_cdf(data.proxy_scores, exponent, mixing))
        for chunk in (1, 7, data.size - 1, data.size, data.size + 1):
            disk = DiskBackend(tmp_path / str(chunk), chunk_records=chunk)
            assert _cdf_bytes(disk.sampling_weights(data, exponent, mixing)) == memory, chunk

    def test_zero_scores_without_mixing_raises_identically(self, tmp_path):
        data = Dataset(
            proxy_scores=np.zeros(256), labels=np.zeros(256, dtype=np.int8)
        )
        disk = DiskBackend(tmp_path, chunk_records=17)
        for backend in (disk, InMemoryBackend()):
            with pytest.raises(ValueError, match="defensive mixing is disabled"):
                backend.sampling_weights(data, 1.0, 0.0)
        # ...and the defensive-mixing escape hatch matches too.
        ref = _reference_cdf(proxy_sampling_weights(data.proxy_scores, exponent=1.0, mixing=0.1))
        assert disk.sampling_weights(data, 1.0, 0.1).cdf.tobytes() == ref.tobytes()
        assert disk.sampling_weights(data, 1.0, 0.1).score_total == 0.0

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    @pytest.mark.parametrize(
        "exponent,mixing,message",
        [
            (-1.0, 0.1, "exponent must be non-negative, got -1.0"),
            (0.5, 1.5, r"mixing must be in \[0, 1\], got 1.5"),
        ],
    )
    def test_design_errors_read_the_same_on_both_backends(
        self, tmp_path, backend, exponent, mixing, message
    ):
        data = make_dataset(size=1000)
        provider = DiskBackend(tmp_path) if backend == "disk" else InMemoryBackend()
        with pytest.raises(ValueError, match=f"^{message}$"):
            provider.sampling_weights(data, exponent, mixing)
        assert not list(tmp_path.iterdir())

    def test_views_are_readonly_memmaps(self, tmp_path):
        data = make_dataset()
        data.use_backend(DiskBackend(tmp_path, chunk_records=4096))
        assert isinstance(data.sorted_scores, np.memmap)
        assert not data.sorted_scores.flags.writeable
        assert data.sorted_scores is data.sorted_scores  # cached_property memoized
        statistic = data.sampling_cdf(0.5, 0.1)
        assert isinstance(statistic.cdf, np.memmap)
        assert not statistic.cdf.flags.writeable
        assert data.sampling_cdf(0.5, 0.1) is statistic

    def test_warm_files_skip_construction(self, tmp_path, monkeypatch):
        data = make_dataset(size=40000)
        first = DiskBackend(tmp_path, chunk_records=8192)
        data.use_backend(first)
        data.sorted_scores
        data.sampling_cdf(0.5, 0.1)
        data.zone_map
        assert first.counters["sorts_performed"] == 1
        assert first.counters["weight_passes"] == 1
        # Fresh dataset object + fresh backend over the same directory:
        # everything is served from the warm files, zero construction.
        monkeypatch.setattr(ScoreZoneMap, "build", _no_build)
        clone = make_dataset(size=40000)
        warm = DiskBackend(tmp_path, chunk_records=8192)
        clone.use_backend(warm)
        assert clone.sorted_scores.tobytes() == data.sorted_scores.tobytes()
        assert clone.score_order.tobytes() == data.score_order.tobytes()
        assert _cdf_bytes(clone.sampling_cdf(0.5, 0.1)) == _cdf_bytes(data.sampling_cdf(0.5, 0.1))
        assert _map_bytes(clone.zone_map) == _map_bytes(data.zone_map)
        assert warm.counters["sorts_performed"] == 0
        assert warm.counters["weight_passes"] == 0

    def test_select_and_count_above_paged_parity(self, tmp_path):
        data = make_dataset()
        dense = make_dataset()
        data.use_backend(DiskBackend(tmp_path, chunk_records=4096))
        for frac in (0.0005, 0.01, 0.2, 0.9):
            tau = float(data.sorted_scores[int(data.size * (1 - frac))])
            expected = np.flatnonzero(dense.proxy_scores >= tau)
            got = data.select_above(tau)
            assert got.tobytes() == expected.tobytes()
            assert got.dtype == expected.dtype
            assert data.count_above(tau) == expected.size
        # Empty and total selections.
        assert data.select_above(np.inf).size == 0
        assert data.select_above(0.0).tobytes() == np.arange(data.size, dtype=np.intp).tobytes()

    def test_paged_scan_accounts_bytes(self, tmp_path):
        data = make_dataset()
        backend = DiskBackend(tmp_path, chunk_records=4096)
        data.use_backend(backend)
        tau = float(data.sorted_scores[int(data.size * 0.999)])
        assert backend.counters["bytes_paged"] == 0
        data.select_above(tau)
        paged = backend.counters["bytes_paged"]
        assert 0 < paged < data.size * 8  # far less than one full column


# ----------------------------------------------------------------------
# Bounded memory: paged scans from a process that never holds the column.
# ----------------------------------------------------------------------


def _has_vm_hwm() -> bool:
    try:
        with open("/proc/self/status") as handle:
            return any(line.startswith("VmHWM:") for line in handle)
    except OSError:
        return False


#: A fresh interpreter opens the sort files as memmaps, reads the zone
#: map through the disk backend, runs paged scans, and reports the growth
#: of its own resident high-water mark.  ``VmHWM`` belongs to the new
#: process image, whereas ``ru_maxrss`` carries the parent's peak across
#: fork and exec and so reads no growth whatever the scans allocate.
_PAGED_SCAN_CHILD = """\
import hashlib, json, sys
from types import SimpleNamespace
import numpy as np
from repro.core.stats_backend import DiskBackend

def vm_hwm_kib():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

store, fingerprint, size = sys.argv[1], sys.argv[2], int(sys.argv[3])
backend = DiskBackend(store)
baseline_kib = vm_hwm_kib()
sorted_scores = np.load(backend.stat_path(fingerprint, "sorted-scores"), mmap_mode="r")
score_order = np.load(backend.stat_path(fingerprint, "score-order"), mmap_mode="r")
# No scores in this process: a warm zone-map file needs only the
# fingerprint and the record count.
zone_map = backend.zone_map(SimpleNamespace(fingerprint=fingerprint, size=size))
digests = []
for tau in map(float, sys.argv[4:]):
    selection = zone_map.select_above_paged(tau, sorted_scores, score_order)
    digests.append(hashlib.sha256(selection.tobytes()).hexdigest())
print(json.dumps({"growth_kib": vm_hwm_kib() - baseline_kib,
                  "bytes_paged": backend.counters["bytes_paged"], "digests": digests}))
"""


#: A fresh interpreter loads a 1M table from ``.npy`` files, registers it
#: with a disk engine over a warm store, and runs whole queries: an RT and
#: a two-stage PT statement on seeds the store has not seen, so both draw.
_WHOLE_QUERY_CHILD = """\
import hashlib, json, sys
import numpy as np
from repro.datasets import Dataset
from repro.query import SupgEngine

def vm_hwm_kib():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

store, scores, labels = sys.argv[1:4]
engine = SupgEngine(store_dir=store, backend="disk")
engine.register_table("t", Dataset(np.load(scores), np.load(labels), name="t"))
baseline_kib = vm_hwm_kib()
digests = []
for sql, seed in zip(sys.argv[4::2], sys.argv[5::2]):
    result = engine.execute(sql, seed=int(seed)).result
    digests.append(hashlib.sha256(result.indices.tobytes()).hexdigest())
stats = engine.session_stats()
print(json.dumps({"growth_kib": vm_hwm_kib() - baseline_kib, "digests": digests,
                  "sorts": stats["sorts_performed"], "weight_passes": stats["weight_passes"]}))
"""


class TestBoundedMemory:
    @pytest.mark.skipif(not _has_vm_hwm(), reason="needs VmHWM in /proc/self/status")
    def test_whole_queries_grow_rss_by_less_than_a_weight_vector(self, tmp_path):
        """Draws read the cached CDF and the sampled records' scores: a
        warm 1M query on disk never holds an n-length float vector."""
        size, budget = 1_000_000, 10_000
        data = make_dataset(size=size)
        store = tmp_path / "store"
        warm = SupgEngine(store_dir=str(store), backend="disk")
        warm.register_table("t", data)
        rt = RT.replace("600", str(budget)).format(gamma=90)
        pt = PT.replace("600", str(budget))
        for seed, sql in enumerate((rt, pt)):  # builds every statistic file
            warm.execute(sql, seed=seed)
        statements = [(rt, 41), (pt, 42)]  # seeds the store has not drawn
        reference = SupgEngine()
        reference.register_table("t", make_dataset(size=size))
        expected = [
            hashlib.sha256(reference.execute(sql, seed=seed).result.indices.tobytes()).hexdigest()
            for sql, seed in statements
        ]
        np.save(tmp_path / "scores.npy", data.proxy_scores)
        np.save(tmp_path / "labels.npy", data.labels)
        child = subprocess.run(
            [sys.executable, "-c", _WHOLE_QUERY_CHILD, str(store), str(tmp_path / "scores.npy"),
             str(tmp_path / "labels.npy"), *[str(part) for pair in statements for part in pair]],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        )
        assert child.returncode == 0, child.stderr
        probe = json.loads(child.stdout)
        assert probe["digests"] == expected
        assert probe["sorts"] == 0 and probe["weight_passes"] == 0
        assert probe["growth_kib"] * 1024 < data.proxy_scores.nbytes

    @pytest.mark.skipif(not _has_vm_hwm(), reason="needs VmHWM in /proc/self/status")
    def test_paged_scans_grow_rss_by_a_fraction_of_the_statistics(self, tmp_path):
        size = 1_000_000
        data = make_dataset(size=size)
        data.use_backend(DiskBackend(tmp_path, chunk_records=1 << 18))
        assert data.zone_map is not None  # writes the sort and zone-map files
        footprint = sum(entry["bytes"] for entry in statistic_entries(tmp_path))
        taus = [float(data.sorted_scores[int(size * (1 - frac))]) for frac in (0.001, 0.01)]
        expected = [
            hashlib.sha256(np.flatnonzero(data.proxy_scores >= tau).tobytes()).hexdigest()
            for tau in taus
        ]
        child = subprocess.run(
            [sys.executable, "-c", _PAGED_SCAN_CHILD, str(tmp_path), data.fingerprint,
             str(size), *map(repr, taus)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        )
        assert child.returncode == 0, child.stderr
        probe = json.loads(child.stdout)
        assert probe["digests"] == expected
        assert probe["growth_kib"] * 1024 < 0.25 * footprint
        assert probe["bytes_paged"] < 0.10 * data.proxy_scores.nbytes


# ----------------------------------------------------------------------
# Corruption: quarantine + rebuild, store ls/clear integration.
# ----------------------------------------------------------------------


class TestCorruptionRecovery:
    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_quarantine_and_rebuild(self, tmp_path, mode):
        data = make_dataset(size=40000)
        first = DiskBackend(tmp_path, chunk_records=8192)
        first.sorted_scores(data)
        reference = np.sort(data.proxy_scores).tobytes()
        reference_map = _map_bytes(first.zone_map(data))
        # Files sort as score-order, sorted-scores, zone-map.
        corrupted = [corrupt_statistic(tmp_path, which=which, mode=mode) for which in (1, 2)]
        assert "sorted-scores" in corrupted[0].name
        assert "zone-map" in corrupted[1].name
        backend = DiskBackend(tmp_path, chunk_records=8192)
        clone = make_dataset(size=40000).use_backend(backend)
        assert clone.sorted_scores.tobytes() == reference
        assert _map_bytes(clone.zone_map) == reference_map
        assert backend.counters["stats_quarantined"] == 2
        assert backend.counters["sorts_performed"] == 1
        quarantine = tmp_path / "quarantine"
        for path in corrupted:
            assert (quarantine / path.name).exists()
            report = json.loads((quarantine / (path.name + ".reason.json")).read_text())
            assert report["file"] == path.name

    def test_stale_fingerprint_is_quarantined(self, tmp_path):
        data = make_dataset(size=40000)
        backend = DiskBackend(tmp_path, chunk_records=8192)
        backend.sorted_scores(data)
        # Forge the metadata to claim a different dataset.
        path = backend.stat_path(data.fingerprint, "sorted-scores")
        meta_path = path.with_name(path.name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        meta["fingerprint"] = "f" * 64
        meta_path.write_text(json.dumps(meta))
        fresh = DiskBackend(tmp_path, chunk_records=8192)
        fresh.sorted_scores(make_dataset(size=40000))
        assert fresh.counters["stats_quarantined"] == 1

    @pytest.mark.parametrize("forged", [None, "NaN", -1.0, "0.5"])
    def test_cdf_with_bad_totals_is_quarantined(self, tmp_path, forged):
        """A CDF file whose sidecar lacks a usable weight total is rebuilt."""
        data = make_dataset(size=40000)
        built = DiskBackend(tmp_path, chunk_records=8192).sampling_weights(data, 0.5, 0.1)
        path = DiskBackend(tmp_path).stat_path(data.fingerprint, cdf_stat_name(0.5, 0.1))
        meta_path = path.with_name(path.name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        if forged is None:
            del meta["weight_total"]
        else:
            meta["weight_total"] = float(forged) if forged == "NaN" else forged
        meta_path.write_text(json.dumps(meta))
        fresh = DiskBackend(tmp_path, chunk_records=8192)
        assert _cdf_bytes(fresh.sampling_weights(data, 0.5, 0.1)) == _cdf_bytes(built)
        assert fresh.counters["stats_quarantined"] == 1
        assert fresh.counters["weight_passes"] == 1

    def test_statistic_entries_reports_warm_and_stale(self, tmp_path):
        data = make_dataset(size=40000)
        backend = DiskBackend(tmp_path, chunk_records=8192)
        backend.sorted_scores(data)
        backend.sampling_weights(data, 0.5, 0.1)
        entries = statistic_entries(tmp_path)
        assert len(entries) == 3
        assert all(entry["state"] == "warm" for entry in entries)
        names = {entry["stat"] for entry in entries}
        assert names == {"sorted-scores", "score-order", cdf_stat_name(0.5, 0.1)}
        assert cdf_stat_name(0.5, 0.1) == "cdf-0.5-0.1"
        assert any(entry["file"].endswith("-cdf-0.5-0.1.npy") for entry in entries)
        assert all(entry["fingerprint"] == data.fingerprint for entry in entries)
        corrupt_statistic(tmp_path, which=0, mode="garbage")
        states = {e["file"]: e["state"] for e in statistic_entries(tmp_path)}
        assert sorted(states.values()) == ["stale", "warm", "warm"]

    def test_statistic_no_backend_reads_is_stale(self, tmp_path):
        """A weight-vector file from before the inverse CDFs is a valid
        pair that no backend opens any more."""
        data = make_dataset(size=40000)
        backend = DiskBackend(tmp_path, chunk_records=8192)
        backend.sampling_weights(data, 0.5, 0.1)
        cdf_path = backend.stat_path(data.fingerprint, cdf_stat_name(0.5, 0.1))
        forged = backend.stat_path(data.fingerprint, "weights-0.5-0.1")
        forged.write_bytes(cdf_path.read_bytes())
        meta = json.loads(Path(f"{cdf_path}.meta.json").read_text())
        meta["stat"] = "weights-0.5-0.1"
        Path(f"{forged}.meta.json").write_text(json.dumps(meta))
        states = {entry["file"]: entry["state"] for entry in statistic_entries(tmp_path)}
        assert states == {cdf_path.name: "warm", forged.name: "stale"}

    def test_clear_disk_removes_statistic_files(self, tmp_path):
        data = make_dataset(size=40000)
        backend = DiskBackend(tmp_path, chunk_records=8192)
        backend.sorted_scores(data)
        corrupt_statistic(tmp_path, which=0, mode="garbage")
        DiskBackend(tmp_path).score_order(data)  # quarantines the garbage file
        summary = SampleStore.clear_disk(tmp_path)
        assert summary["files_removed"] > 0
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file()
        ]
        assert leftovers == []


# ----------------------------------------------------------------------
# Engine integration: backend selection, lazy priming, full parity.
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def test_disk_requires_store_dir(self):
        with pytest.raises(ValueError, match="store directory"):
            SupgEngine(backend="disk")

    def test_chunk_records_requires_disk(self):
        with pytest.raises(ValueError, match="chunk_records"):
            SupgEngine(backend="memory", chunk_records=1024)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown statistics backend"):
            SupgEngine(backend="tape")

    def test_query_results_bitwise_across_backends(self, tmp_path):
        results = {}
        for backend in ("memory", "disk"):
            kwargs = {"backend": backend}
            if backend == "disk":
                kwargs["store_dir"] = str(tmp_path)
                kwargs["chunk_records"] = 9973
            engine = SupgEngine(**kwargs)
            engine.register_table("t", make_dataset(size=60000))
            runs = [
                engine.execute(q, seed=5)
                for q in (RT.format(gamma=90), RT.format(gamma=95), PT)
            ]
            results[backend] = [
                (
                    r.result.indices.tobytes(),
                    str(r.result.indices.dtype),
                    r.result.tau,
                    r.result.oracle_calls,
                )
                for r in runs
            ]
        assert results["memory"] == results["disk"]

    def test_jobs2_parity_over_disk_backend(self, tmp_path):
        batch = [RT.format(gamma=90), PT, RT.format(gamma=95), PT]
        sequential_engine = SupgEngine(store_dir=str(tmp_path / "a"), backend="disk")
        sequential_engine.register_table("t", make_dataset(size=60000))
        sequential = sequential_engine.execute_many(batch, seed=7, jobs=1)
        parallel_engine = SupgEngine(store_dir=str(tmp_path / "b"), backend="disk")
        data = make_dataset(size=60000)
        parallel_engine.register_table("t", data)
        parallel = parallel_engine.execute_many(batch, seed=7, jobs=2)
        for a, b in zip(sequential, parallel):
            assert a.result.indices.tobytes() == b.result.indices.tobytes()
            assert a.result.indices.dtype == b.result.indices.dtype
            assert a.result.tau == b.result.tau
            assert a.result.oracle_calls == b.result.oracle_calls
        # Workers inherited the disk statistics as memmaps (nothing was
        # copied into RAM in the parent) and shipped results back.
        stats = parallel_engine.session_stats()
        assert stats["stats_inherited"] > 0
        assert stats["bytes_shipped"] > 0
        assert isinstance(data.sorted_scores, np.memmap)
        assert isinstance(data.score_order, np.memmap)

    def test_lazy_priming_zero_redundant_sorts(self, tmp_path, monkeypatch):
        """A warm store costs zero sorts, weight passes and index builds.

        First session pays one sort (plus the index build); a second
        session over the same store dir answers an RT and a PT query
        without ever sorting or building — the statistic files serve
        the sorted arrays, the weights and the zone map.
        """
        first = SupgEngine(store_dir=str(tmp_path), backend="disk")
        data = make_dataset()
        first.register_table("t", data)
        # Registration alone computes nothing: no sort, no index, no file.
        assert first.session_stats()["sorts_performed"] == 0
        assert "zone_map" not in data.__dict__
        assert not any(tmp_path.iterdir())
        queries = (RT.format(gamma=90), PT)
        baseline = [first.execute(query, seed=2) for query in queries]
        assert first.session_stats()["sorts_performed"] == 1
        monkeypatch.setattr(ScoreZoneMap, "build", _no_build)
        second = SupgEngine(store_dir=str(tmp_path), backend="disk")
        second.register_table("t", make_dataset())
        warm = [second.execute(query, seed=2) for query in queries]
        stats = second.session_stats()
        assert stats["sorts_performed"] == 0
        assert stats["weight_passes"] == 0
        for cold, hot in zip(baseline, warm):
            assert hot.result.indices.tobytes() == cold.result.indices.tobytes()
            assert hot.result.tau == cold.result.tau

    def test_reregistered_dataset_leaves_first_store_untouched(self, tmp_path):
        """Statistics follow the backend a dataset is registered with
        last: a dataset registered over store A, then over store B, and
        queried through B writes nothing into A."""
        store_a, store_b = tmp_path / "a", tmp_path / "b"
        data = make_dataset()
        SupgEngine(store_dir=str(store_a), backend="disk").register_table("t", data)
        engine_b = SupgEngine(store_dir=str(store_b), backend="disk")
        engine_b.register_table("t", data)
        engine_b.execute(RT.format(gamma=90), seed=0)
        assert list(store_a.rglob("*")) == []
        assert {entry["stat"] for entry in statistic_entries(store_b)} >= {
            "sorted-scores", "score-order", "zone-map"
        }

    def test_session_stats_carry_backend_counters(self, tmp_path):
        engine = SupgEngine(store_dir=str(tmp_path), backend="disk")
        engine.register_table("t", make_dataset())
        engine.execute(RT.format(gamma=90), seed=0)
        stats = engine.session_stats()
        for key in (
            "sorts_performed",
            "weight_passes",
            "chunks_merged",
            "bytes_paged",
            "peak_chunk_bytes",
            "stats_quarantined",
        ):
            assert key in stats
        assert stats["bytes_paged"] > 0


# ----------------------------------------------------------------------
# Chaos: worker death mid-paged-scan.
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestChaosKillWorkerMidPagedScan:
    def test_worker_kill_recovery_is_bit_identical(self, tmp_path):
        """Kill a fork worker while it runs paged scans over the disk
        backend; the recovered results must match an unfaulted run."""
        batch = [RT.format(gamma=90), PT, RT.format(gamma=95), PT]
        clean_engine = SupgEngine(store_dir=str(tmp_path / "clean"), backend="disk")
        clean_engine.register_table("t", make_dataset(size=60000))
        clean = clean_engine.execute_many(batch, seed=7, jobs=2)

        chaotic_engine = SupgEngine(store_dir=str(tmp_path / "chaos"), backend="disk")
        chaotic_engine.register_table("t", make_dataset(size=60000))
        with inject(FaultPlan(seed=0, kill_execution=0)):
            recovered = chaotic_engine.execute_many(batch, seed=7, jobs=2)
        for a, b in zip(clean, recovered):
            assert a.result.indices.tobytes() == b.result.indices.tobytes()
            assert a.result.tau == b.result.tau
            assert a.result.oracle_calls == b.result.oracle_calls
