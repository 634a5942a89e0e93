"""Batch query planning: ``SupgEngine.execute_many`` and ``QueryPlan``.

Two contracts are pinned here:

1. ``execute_many`` is *bit-for-bit identical* to a sequential
   ``execute()`` loop over the same statements — returned rows,
   thresholds, oracle usage, and diagnostics — for any ``jobs``.
2. A batch whose statements share (dataset × SampleDesign × seed)
   draws each distinct design exactly once (asserted via the store
   counters: the plan pre-draws every group before anything executes,
   and before any worker forks).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionContext, SampleStore, plan_executions
from repro.core.planning import PlannedExecution, QueryPlan
from repro.query import SupgEngine, parse_script

RT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT 400 USING A(x) "
    "RECALL TARGET {gamma}% WITH PROBABILITY 95%"
)
PT = (
    "SELECT * FROM t WHERE P(x) = True ORACLE LIMIT 400 USING A(x) "
    "PRECISION TARGET {gamma}% WITH PROBABILITY 95%"
)
JT = (
    "SELECT * FROM t WHERE P(x) = True USING A(x) "
    "RECALL TARGET 80% PRECISION TARGET 80% WITH PROBABILITY 95%"
)

#: The mixed 8-query batch of the acceptance criteria: three RT targets
#: share one proxy-weighted draw; three PT targets plus a half-budget
#: RT query share the second (IS-CI-P's stage-1 design at budget 400
#: equals IS-CI-R's design at budget 200); the joint query is
#: unplannable.  2 distinct draws for 7 plannable statements.
MIXED_BATCH = [
    RT.format(gamma=80),
    RT.format(gamma=90),
    RT.format(gamma=95),
    PT.format(gamma=80),
    PT.format(gamma=90),
    PT.format(gamma=95),
    RT.format(gamma=90).replace("ORACLE LIMIT 400", "ORACLE LIMIT 200"),
    JT,
]


def _engine(dataset, **kwargs) -> SupgEngine:
    engine = SupgEngine(**kwargs)
    engine.register_table("t", dataset)
    return engine


def _assert_executions_equal(batch, sequential):
    assert len(batch) == len(sequential)
    for index, (a, b) in enumerate(zip(batch, sequential)):
        assert a.method == b.method, index
        assert np.array_equal(a.result.indices, b.result.indices), index
        assert a.result.tau == b.result.tau, index
        assert a.result.oracle_calls == b.result.oracle_calls, index
        assert np.array_equal(a.result.sampled_indices, b.result.sampled_indices), index
        assert dict(a.result.details) == dict(b.result.details), index


class TestExecuteManyEquivalence:
    def test_mixed_batch_matches_sequential_loop(self, beta_dataset):
        sequential = [
            _engine(beta_dataset).execute(sql, seed=3) for sql in MIXED_BATCH
        ]
        batch = _engine(beta_dataset).execute_many(MIXED_BATCH, seed=3)
        _assert_executions_equal(batch, sequential)

    def test_parallel_jobs_match_sequential(self, beta_dataset):
        sequential = _engine(beta_dataset).execute_many(MIXED_BATCH, seed=3)
        parallel = _engine(beta_dataset).execute_many(MIXED_BATCH, seed=3, jobs=3)
        _assert_executions_equal(parallel, sequential)

    def test_multi_statement_string_input(self, beta_dataset):
        script = ";\n".join(MIXED_BATCH)
        from_script = _engine(beta_dataset).execute_many(script, seed=3)
        from_list = _engine(beta_dataset).execute_many(MIXED_BATCH, seed=3)
        _assert_executions_equal(from_script, from_list)

    def test_per_statement_seeds_and_methods(self, beta_dataset):
        queries = [RT.format(gamma=90), RT.format(gamma=90)]
        batch = _engine(beta_dataset).execute_many(
            queries, seed=[1, 2], method=[None, "u-ci-r"]
        )
        assert batch[0].method == "is-ci-r" and batch[1].method == "u-ci-r"
        reference = _engine(beta_dataset)
        _assert_executions_equal(
            batch,
            [
                reference.execute(queries[0], seed=1),
                reference.execute(queries[1], seed=2, method="u-ci-r"),
            ],
        )

    def test_mismatched_seed_sequence_rejected(self, beta_dataset):
        with pytest.raises(ValueError, match="seed sequence"):
            _engine(beta_dataset).execute_many(MIXED_BATCH, seed=[1, 2])

    def test_numpy_seed_array_means_per_statement_seeds(self, beta_dataset):
        """np.arange(n) seeds are a per-statement sequence, not one
        array-entropy seed shared by every statement."""
        queries = [RT.format(gamma=90), RT.format(gamma=90)]
        from_array = _engine(beta_dataset).execute_many(queries, seed=np.arange(2))
        from_list = _engine(beta_dataset).execute_many(queries, seed=[0, 1])
        _assert_executions_equal(from_array, from_list)
        # Distinct seeds -> distinct samples -> (almost surely) distinct taus.
        assert from_array[0].result.tau != from_array[1].result.tau
        with pytest.raises(ValueError, match="seed sequence"):
            _engine(beta_dataset).execute_many(queries, seed=np.arange(3))

    def test_empty_batch(self, beta_dataset):
        assert _engine(beta_dataset).execute_many([]) == []
        assert _engine(beta_dataset).execute_many("  ;; ") == []

    def test_comment_only_batch_is_empty(self, beta_dataset):
        assert _engine(beta_dataset).execute_many("-- nothing\n;\n-- at all\n") == []
        assert _engine(beta_dataset).plan("-- nothing\n").n_executions == 0

    def test_empty_plan_renders(self, beta_dataset):
        plan = _engine(beta_dataset).plan([])
        assert plan.distinct_draws == 0 and plan.batches() == []
        assert "0 executions" in plan.render()

    def test_duplicate_statements_fold_but_answer_per_statement(self, beta_dataset):
        """Identical duplicates share one draw yet every submission
        gets its own result row, in submission order."""
        sql = RT.format(gamma=90)
        engine = _engine(beta_dataset)
        plan = engine.plan([sql] * 4, seed=3)
        assert plan.n_executions == 4 and plan.distinct_draws == 1
        assert plan.groups[next(iter(plan.groups))] == (0, 1, 2, 3)

        batch = engine.execute_many([sql] * 4, seed=3)
        assert len(batch) == 4
        assert engine.session_stats()["misses"] == 1
        reference = _engine(beta_dataset).execute(sql, seed=3)
        for execution in batch:
            assert np.array_equal(execution.result.indices, reference.result.indices)
            assert execution.result.tau == reference.result.tau


class TestOneDrawPerDistinctDesign:
    def test_mixed_batch_draws_each_design_once(self, beta_dataset):
        engine = _engine(beta_dataset)
        engine.execute_many(MIXED_BATCH, seed=3)
        stats = engine.session_stats()
        assert stats["misses"] == 2  # the two distinct designs, pre-drawn
        # The plan pre-draws each group, so all 7 plannable statements hit.
        assert stats["hits"] == 7
        assert stats["labels_drawn"] <= 400 + 200

    def test_jobs_path_draws_each_design_once(self, beta_dataset, tmp_path):
        """Workers fork *after* the shared designs are spilled: the
        parent's store holds every distinct draw, and a second engine
        over the same directory draws zero labels."""
        engine = _engine(beta_dataset, store_dir=str(tmp_path))
        engine.execute_many(MIXED_BATCH, seed=3, jobs=3)
        assert engine.session_stats()["misses"] == 2
        assert len(list(tmp_path.glob("sample-*.npz"))) == 2

        second = _engine(beta_dataset, store_dir=str(tmp_path))
        second.execute_many(MIXED_BATCH[:7], seed=3)
        stats = second.session_stats()
        assert stats["labels_drawn"] == 0 and stats["disk_hits"] == 2

    def test_oracle_udf_statements_stay_unplanned(self, beta_dataset):
        engine = _engine(beta_dataset)
        engine.register_oracle_udf("P", lambda ds, idx: ds.labels[idx])
        plan = engine.plan(MIXED_BATCH)
        assert plan.distinct_draws == 0
        assert len(plan.ungrouped) == len(MIXED_BATCH)
        engine.execute_many(MIXED_BATCH[:2], seed=0)
        assert engine.session_stats()["misses"] == 0


class TestEnginePlan:
    def test_plan_groups_and_predictions(self, beta_dataset):
        plan = _engine(beta_dataset).plan(MIXED_BATCH, seed=3)
        assert plan.n_executions == 8
        assert plan.distinct_draws == 2
        assert plan.ungrouped == (7,)  # the joint query
        groups = list(plan.groups.values())
        assert sorted(map(len, groups)) == [3, 4]
        assert plan.predicted_labels_drawn == 400 + 200
        assert plan.predicted_labels_saved == 2 * 400 + 3 * 200

    def test_plan_draws_nothing(self, beta_dataset):
        engine = _engine(beta_dataset)
        engine.plan(MIXED_BATCH)
        assert engine.session_stats()["misses"] == 0

    def test_render_names_queries_and_draws(self, beta_dataset):
        text = _engine(beta_dataset).plan(MIXED_BATCH, seed=3).render()
        assert "8 executions" in text and "2 distinct oracle draws" in text
        assert "is-ci-r on t" in text and "joint-is on t" in text
        assert "unplanned" in text

    def test_batches_partition_the_batch(self, beta_dataset):
        plan = _engine(beta_dataset).plan(MIXED_BATCH, seed=3)
        batches = plan.batches()
        flat = sorted(index for batch in batches for index in batch)
        assert flat == list(range(8))
        # Groups stay whole: the three RT statements share one batch.
        assert any(set(batch) == {0, 1, 2} for batch in batches)

    def test_generator_seed_is_unplannable(self, beta_dataset):
        plan = _engine(beta_dataset).plan(
            [RT.format(gamma=90)], seed=[np.random.default_rng(0)]
        )
        assert plan.distinct_draws == 0 and len(plan.ungrouped) == 1


class TestQueryPlanUnit:
    """QueryPlan over hand-built executions (no engine involved)."""

    def test_prewarm_fetches_each_group_once(self, beta_dataset):
        from repro.core import make_selector
        from repro.core.types import ApproxQuery

        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        specs = [
            (f"slot-{i}", beta_dataset, make_selector("is-ci-r", query), seed, "")
            for i, seed in enumerate([0, 0, 1])
        ]
        plan = plan_executions(specs)
        assert plan.distinct_draws == 2
        store = SampleStore()
        plan.prewarm(store)
        assert store.misses == 2 and store.hits == 0
        plan.prewarm(store)  # idempotent: second pass is all hits
        assert store.misses == 2 and store.hits == 2

    def test_caller_note_wins(self, beta_dataset):
        plan = plan_executions(
            [("custom", beta_dataset, None, 0, "caller says no")]
        )
        assert plan.executions[0].note == "caller says no"
        assert plan.executions[0].key is None

    def test_planned_execution_key(self):
        bare = PlannedExecution(index=0, label="x")
        assert bare.key is None
        empty = QueryPlan([bare], {})
        assert empty.distinct_draws == 0 and empty.batches() == [[0]]


class TestPlanFolding:
    """QueryPlan.fold / covers: the open-window late-arrival path."""

    def _plan(self, beta_dataset, seeds):
        from repro.core import make_selector
        from repro.core.types import ApproxQuery

        query = ApproxQuery.recall_target(0.9, 0.05, 300)
        specs = [
            (f"slot-{i}", beta_dataset, make_selector("is-ci-r", query), seed, "")
            for i, seed in enumerate(seeds)
        ]
        return plan_executions(specs), make_selector("is-ci-r", query)

    def test_fold_into_existing_group(self, beta_dataset):
        plan, selector = self._plan(beta_dataset, [0, 1])
        (key0, key1) = list(plan.groups)
        late = PlannedExecution(
            index=2,
            label="late",
            fingerprint=beta_dataset.fingerprint,
            design=selector.sample_design(beta_dataset),
            seed=0,
        )
        assert plan.covers(late.key)
        assert plan.fold(late, dataset=beta_dataset) is True
        assert plan.groups[key0] == (0, 2)
        assert plan.distinct_draws == 2  # no new draw needed
        assert sorted(i for batch in plan.batches() for i in batch) == [0, 1, 2]

    def test_fold_new_key_forms_new_group(self, beta_dataset):
        plan, selector = self._plan(beta_dataset, [0])
        late = PlannedExecution(
            index=1,
            label="late",
            fingerprint=beta_dataset.fingerprint,
            design=selector.sample_design(beta_dataset),
            seed=7,
        )
        assert not plan.covers(late.key)
        assert plan.fold(late, dataset=beta_dataset) is False
        assert plan.distinct_draws == 2
        store = SampleStore()
        plan.prewarm(store)  # the folded group is prewarm-able too
        assert store.misses == 2

    def test_fold_unplanned_execution(self, beta_dataset):
        plan, _ = self._plan(beta_dataset, [0])
        assert plan.fold(PlannedExecution(index=1, label="joint")) is False
        assert plan.ungrouped == (1,)

    def test_fold_duplicate_index_rejected(self, beta_dataset):
        plan, _ = self._plan(beta_dataset, [0])
        with pytest.raises(ValueError, match="execution #0"):
            plan.fold(PlannedExecution(index=0, label="dup"))


class TestWarmKeysDiff:
    """QueryPlan.warm_keys / render_store_diff: the cross-batch report."""

    def test_warm_keys_tiers(self, beta_dataset, tmp_path):
        engine = _engine(beta_dataset, store_dir=str(tmp_path))
        plan = engine.plan(MIXED_BATCH, seed=3)
        store = engine.context.store
        assert set(plan.warm_keys(store).values()) == {None}
        text = plan.render_store_diff(store)
        assert "0/2 draws already warm" in text and "cold" in text

        # Draw one of the two groups; it becomes memory-warm here and
        # disk-warm for a fresh store over the same directory.
        first_key = next(iter(plan.groups))
        store.fetch(beta_dataset, first_key[1], first_key[2])
        tiers = plan.warm_keys(store)
        assert tiers[first_key] == "memory"
        assert sum(1 for tier in tiers.values() if tier is None) == 1

        fresh = SampleStore(store_dir=str(tmp_path))
        assert plan.warm_keys(fresh)[first_key] == "disk"
        assert "warm (disk)" in plan.render_store_diff(fresh)
        # The cold-labels estimate counts only the still-cold group.
        assert "1/2 draws already warm" in plan.render_store_diff(fresh)

    def test_locate_without_store_dir(self, beta_dataset):
        store = SampleStore()
        plan = _engine(beta_dataset).plan(MIXED_BATCH[:1], seed=0)
        key = next(iter(plan.groups))
        assert store.locate(*key) is None
        store.fetch(beta_dataset, key[1], key[2])
        assert store.locate(*key) == "memory"


class TestNoForkFallback:
    def test_execute_many_jobs_warns_once_and_matches(self, beta_dataset, monkeypatch):
        import warnings as warnings_module

        from repro.core import planning

        monkeypatch.setattr(planning, "fork_available", lambda: False)
        monkeypatch.setattr(planning, "_FORK_WARNING_EMITTED", False)
        engine = _engine(beta_dataset)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            first = engine.execute_many(MIXED_BATCH, seed=3, jobs=4)
            second = engine.execute_many(MIXED_BATCH, seed=3, jobs=4)
        fork_warnings = [w for w in caught if "fork" in str(w.message)]
        assert len(fork_warnings) == 1
        assert "sequentially" in str(fork_warnings[0].message)
        _assert_executions_equal(first, second)
        _assert_executions_equal(
            first, _engine(beta_dataset).execute_many(MIXED_BATCH, seed=3)
        )

    def test_sequential_jobs_do_not_warn(self, beta_dataset, monkeypatch):
        import warnings as warnings_module

        from repro.core import planning

        monkeypatch.setattr(planning, "fork_available", lambda: False)
        monkeypatch.setattr(planning, "_FORK_WARNING_EMITTED", False)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            _engine(beta_dataset).execute_many(MIXED_BATCH[:2], seed=3)
        assert not [w for w in caught if "fork" in str(w.message)]


class TestParseScriptEngineIntegration:
    def test_engine_accepts_preparsed_statements(self, beta_dataset):
        statements = parse_script(";".join(MIXED_BATCH[:3]))
        batch = _engine(beta_dataset).execute_many(statements, seed=1)
        assert [execution.method for execution in batch] == ["is-ci-r"] * 3
