"""End-to-end tests for the query engine."""

import numpy as np
import pytest

from repro.metrics import evaluate_selection
from repro.query import SupgEngine

RT_SQL = """
SELECT * FROM video
WHERE CONTAINS_EVENT(frame) = True
ORACLE LIMIT 500
USING PROXY_SCORE(frame)
RECALL TARGET 90%
WITH PROBABILITY 95%
"""

PT_SQL = RT_SQL.replace("RECALL TARGET 90%", "PRECISION TARGET 90%")

JT_SQL = """
SELECT * FROM video
WHERE CONTAINS_EVENT(frame) = True
USING PROXY_SCORE(frame)
RECALL TARGET 80%
PRECISION TARGET 80%
WITH PROBABILITY 95%
"""


@pytest.fixture
def engine(beta_dataset):
    eng = SupgEngine()
    eng.register_table("video", beta_dataset)
    return eng


class TestExecution:
    def test_rt_defaults_to_supg(self, engine, beta_dataset):
        execution = engine.execute(RT_SQL, seed=0)
        assert execution.method == "is-ci-r"
        quality = evaluate_selection(execution.result.indices, beta_dataset.labels)
        assert quality.recall >= 0.8  # sanity; the guarantee is probabilistic

    def test_pt_defaults_to_two_stage(self, engine):
        execution = engine.execute(PT_SQL, seed=0)
        assert execution.method == "is-ci-p"
        assert execution.result.oracle_calls <= 500

    def test_method_override(self, engine):
        execution = engine.execute(RT_SQL, seed=0, method="u-ci-r")
        assert execution.method == "u-ci-r"

    def test_selector_kwargs_forwarded(self, engine):
        execution = engine.execute(RT_SQL, seed=0, method="is-ci-r", weight_exponent=1.0)
        assert execution.method == "is-ci-r"

    def test_joint_query_runs(self, engine, beta_dataset):
        execution = engine.execute(JT_SQL, seed=0, stage_budget=400)
        assert execution.method == "joint-is"
        quality = evaluate_selection(execution.result.indices, beta_dataset.labels)
        assert quality.precision == 1.0

    def test_unknown_table_rejected(self, engine):
        with pytest.raises(KeyError, match="registered"):
            engine.execute(RT_SQL.replace("FROM video", "FROM nope"))

    def test_tables_listing(self, engine):
        assert engine.tables() == ("video",)


class TestUdfs:
    def test_proxy_udf_overrides_scores(self, engine, beta_dataset):
        """A registered proxy UDF replaces the dataset's scores."""
        engine.register_proxy_udf("PROXY_SCORE", lambda ds: 1.0 - ds.proxy_scores)
        execution = engine.execute(RT_SQL, seed=0)
        assert execution.dataset.name.endswith("|PROXY_SCORE")
        # The anti-correlated proxy forces a conservative (tiny)
        # threshold to keep the recall guarantee -> huge result set.
        assert execution.result.size > beta_dataset.size * 0.5

    def test_oracle_udf_used_for_labels(self, beta_dataset):
        eng = SupgEngine()
        eng.register_table("video", beta_dataset)
        calls = {"n": 0}

        def oracle(ds, indices):
            calls["n"] += 1
            return ds.labels[indices]

        eng.register_oracle_udf("CONTAINS_EVENT", oracle)
        execution = eng.execute(RT_SQL, seed=0)
        assert calls["n"] > 0
        assert execution.result.oracle_calls <= 500

    def test_udf_names_case_insensitive(self, engine, beta_dataset):
        engine.register_proxy_udf("proxy_score", lambda ds: ds.proxy_scores)
        execution = engine.execute(RT_SQL, seed=0)
        assert execution.dataset.name.endswith("|PROXY_SCORE")

    def test_empty_table_name_rejected(self):
        eng = SupgEngine()
        with pytest.raises(ValueError):
            eng.register_table("", None)


class TestSession:
    """The engine is a long-lived session: repeated queries against a
    registered table stop re-sampling (and re-deriving proxy-UDF
    datasets) while staying bit-identical to uncached execution."""

    def test_repeated_query_served_from_store(self, engine):
        first = engine.execute(RT_SQL, seed=0)
        second = engine.execute(RT_SQL, seed=0)
        assert np.array_equal(first.result.indices, second.result.indices)
        assert first.result.tau == second.result.tau
        stats = engine.session_stats()
        assert stats["hits"] >= 1
        assert stats["misses"] == 1

    def test_reuse_spans_gammas_and_methods(self, engine):
        """Different targets and selectors sharing one sampling design
        reuse one labeled sample."""
        for target in ("80%", "90%", "95%"):
            engine.execute(RT_SQL.replace("RECALL TARGET 90%", f"RECALL TARGET {target}"), seed=1)
        assert engine.session_stats()["misses"] == 1
        assert engine.session_stats()["hits"] == 2

    def test_store_matches_fresh_engine(self, beta_dataset):
        warm = SupgEngine()
        warm.register_table("video", beta_dataset)
        warm.execute(PT_SQL, seed=3)
        cached = warm.execute(PT_SQL.replace("90%", "80%"), seed=3)

        cold = SupgEngine()
        cold.register_table("video", beta_dataset)
        fresh = cold.execute(PT_SQL.replace("90%", "80%"), seed=3)
        assert np.array_equal(cached.result.indices, fresh.result.indices)
        assert cached.result.tau == fresh.result.tau
        assert dict(cached.result.details) == dict(fresh.result.details)

    def test_oracle_udf_bypasses_store(self, beta_dataset):
        eng = SupgEngine()
        eng.register_table("video", beta_dataset)
        eng.register_oracle_udf("CONTAINS_EVENT", lambda ds, idx: ds.labels[idx])
        eng.execute(RT_SQL, seed=0)
        eng.execute(RT_SQL, seed=0)
        assert eng.session_stats()["misses"] == 0

    def test_proxy_udf_dataset_derived_once(self, engine):
        derivations = {"n": 0}

        def proxy(ds):
            derivations["n"] += 1
            return 1.0 - ds.proxy_scores

        engine.register_proxy_udf("PROXY_SCORE", proxy)
        engine.execute(RT_SQL, seed=0)
        engine.execute(RT_SQL, seed=1)
        assert derivations["n"] == 1

    def test_register_table_invalidates_derived(self, engine, beta_dataset):
        engine.register_proxy_udf("PROXY_SCORE", lambda ds: 1.0 - ds.proxy_scores)
        first = engine.execute(RT_SQL, seed=0)
        engine.register_table("video", beta_dataset.subset(np.arange(10_000)))
        second = engine.execute(RT_SQL, seed=0)
        assert second.dataset.size == 10_000
        assert first.dataset.size != second.dataset.size

    def test_replaced_table_samples_leave_the_store(self, beta_dataset):
        eng = SupgEngine()
        eng.register_table("video", beta_dataset)
        eng.execute(RT_SQL, seed=0)
        eng.execute(PT_SQL, seed=0)
        assert eng.session_stats()["entries"] == 2
        replacement = beta_dataset.subset(np.arange(20_000))
        eng.register_table("video", replacement)
        assert eng.session_stats()["entries"] == 0
        got = eng.execute(RT_SQL, seed=0).result
        fresh = SupgEngine()
        fresh.register_table("video", replacement)
        want = fresh.execute(RT_SQL, seed=0).result
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.tau == want.tau
        assert eng.session_stats()["misses"] == 3

    def test_samples_stay_while_a_registered_table_holds_the_content(self, beta_dataset):
        eng = SupgEngine()
        eng.register_table("video", beta_dataset)
        eng.register_table("copy", beta_dataset)
        eng.execute(RT_SQL, seed=0)
        eng.register_table("video", beta_dataset.subset(np.arange(20_000)))
        assert eng.session_stats()["entries"] == 1
        again = eng.execute(RT_SQL.replace("FROM video", "FROM copy"), seed=0)
        assert eng.session_stats()["hits"] == 1
        assert eng.session_stats()["misses"] == 1
        fresh = SupgEngine()
        fresh.register_table("video", beta_dataset)
        want = fresh.execute(RT_SQL, seed=0).result
        assert again.result.indices.tobytes() == want.indices.tobytes()

    def test_reregistering_the_same_table_keeps_its_samples(self, engine, beta_dataset):
        engine.execute(RT_SQL, seed=0)
        engine.register_table("video", beta_dataset)
        assert engine.session_stats()["entries"] == 1
        engine.execute(RT_SQL, seed=0)
        assert engine.session_stats()["hits"] == 1

    def test_dropped_derived_dataset_samples_leave_the_store(self, engine):
        engine.execute(RT_SQL, seed=0)
        engine.register_proxy_udf("PROXY_SCORE", lambda ds: 1.0 - ds.proxy_scores)
        engine.execute(RT_SQL, seed=0)
        assert engine.session_stats()["entries"] == 2
        engine.register_proxy_udf("PROXY_SCORE", lambda ds: ds.proxy_scores ** 2)
        assert engine.session_stats()["entries"] == 1

    def test_reset_session_clears_store(self, engine):
        engine.execute(RT_SQL, seed=0)
        engine.reset_session()
        assert engine.session_stats()["entries"] == 0

    def test_data_plane_keyword_is_deprecated_and_ignored(self, beta_dataset):
        with pytest.warns(DeprecationWarning, match="data_plane"):
            legacy = SupgEngine(data_plane="mmap")
        legacy.register_table("video", beta_dataset)
        plain = SupgEngine()
        plain.register_table("video", beta_dataset)
        got = legacy.execute(RT_SQL, seed=3).result
        want = plain.execute(RT_SQL, seed=3).result
        np.testing.assert_array_equal(got.indices, want.indices)
        legacy.close()  # a no-op; the engine stays usable
        assert legacy.execute(RT_SQL, seed=3).result.tau == want.tau
