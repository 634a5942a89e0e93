"""The benchmark's four workloads: seeded input generation and client calls.

Every input comes from the workload seed alone: the datasets, the
statements, and each statement's sampling seed.  The engine under test
only ever sees the generated tables and SQL text.

A workload has four phases, which the runner times separately:

- ``generate(seed)`` makes the inputs (never timed);
- ``setup(inputs, workdir)`` builds an engine, registers tables and
  finishes lazy set-up (timed as ``setup_s``);
- ``next_call(inputs, number)`` prepares client call ``number``,
  including any table it brings (never timed);
- ``run(state, call)`` is one client call (timed as its latency).

Calls are addressable by number, so a run can replay the same calls on
a second engine (the traced run does).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.datasets import Dataset, load_dataset
from repro.datasets.synthetic import make_beta_dataset
from repro.query.engine import SupgEngine

DELTA = 0.05

Arrays = tuple[np.ndarray, np.ndarray]  # (proxy scores, labels)


@dataclass(frozen=True)
class Statement:
    """One SUPG query with the seed its sampling uses."""

    target: str  # "recall" or "precision"
    gamma: float
    budget: int
    seed: int
    table: str

    @property
    def sql(self) -> str:
        return (
            f"SELECT * FROM {self.table} WHERE oracle = 1 ORACLE LIMIT {self.budget} "
            f"USING SCORE(frame) {self.target.upper()} TARGET {self.gamma:g} "
            f"WITH PROBABILITY {1.0 - DELTA:g}"
        )


@dataclass
class Call:
    """One client call: a single ``execute()`` or one ``execute_many()`` batch."""

    number: int
    statements: list[Statement]
    arrays: Arrays  # the table every statement of the call reads
    table: Dataset | None = None  # registered inside the timed call when set


@dataclass
class Inputs:
    """Generated inputs of one run."""

    seed: int
    arrays: dict[str, Arrays] = field(default_factory=dict)
    extra: dict[str, object] = field(default_factory=dict)

    def seed_for(self, *key: int) -> int:
        """A sampling seed derived from the workload seed and ``key``."""
        rng = np.random.default_rng([self.seed, *key])
        return int(rng.integers(0, 2**31 - 1))

    def dataset(self, name: str) -> Dataset:
        """A new Dataset object over generated arrays (cold statistics)."""
        scores, labels = self.arrays[name]
        return Dataset(proxy_scores=scores, labels=labels, name=name)


@dataclass
class State:
    """What setup hands to the timed phase."""

    engine: SupgEngine
    tmpdir: tempfile.TemporaryDirectory | None = None

    def close(self) -> None:
        self.engine.close()
        if self.tmpdir is not None:
            self.tmpdir.cleanup()


def beta_arrays(size: int, seed: int) -> Arrays:
    """The paper's synthetic Beta(0.01, 1) table."""
    data = make_beta_dataset(0.01, 1.0, size=size, seed=seed)
    return data.proxy_scores, data.labels


def alternating(number: int) -> str:
    return "recall" if number % 2 == 0 else "precision"


class Workload:
    """Base class: subclasses set sizes and the phase hooks."""

    name = "abstract"
    why = ""
    statements_per_call = 1
    registers_per_call = False  # whether each call brings a new table
    table = "t"

    def __init__(self, tiny: bool = False) -> None:
        self.size = 40_000 if tiny else 1_000_000
        self.budget = 1_000 if tiny else 10_000

    def generate(self, seed: int) -> Inputs:
        raise NotImplementedError

    def warm_up(self, engine: SupgEngine, inputs: Inputs) -> None:
        """Finish lazy set-up with calls the timed phase never repeats."""
        raise NotImplementedError

    def setup(self, inputs: Inputs, workdir: str) -> State:
        engine = SupgEngine()
        engine.register_table(self.table, inputs.dataset(self.table))
        self.warm_up(engine, inputs)
        return State(engine)

    def next_call(self, inputs: Inputs, number: int) -> Call:
        raise NotImplementedError

    def run(self, state: State, call: Call) -> list:
        if call.table is not None:
            state.engine.register_table(self.table, call.table)
        (statement,) = call.statements
        return [state.engine.execute(statement.sql, seed=statement.seed)]


class FreshDraw(Workload):
    """Every statement draws a new oracle sample: the store never hits."""

    name = "fresh-draw"
    why = (
        "Beta(0.01,1) 1M rows; RT and PT alternate at gamma 0.9, budget 10k, a new "
        "seed each: every draw misses the store, so draw and label dominate"
    )
    table = "beta"

    def generate(self, seed: int) -> Inputs:
        inputs = Inputs(seed)
        inputs.arrays[self.table] = beta_arrays(self.size, inputs.seed_for(0))
        return inputs

    def _statement(self, inputs: Inputs, number: int) -> Statement:
        return Statement(
            alternating(number), 0.9, self.budget, inputs.seed_for(1, number), self.table
        )

    def warm_up(self, engine: SupgEngine, inputs: Inputs) -> None:
        # One RT and one PT statement on their own seeds build the zone
        # map, the sorted scores and the weight vector.
        for number in range(2):
            warm = Statement(
                alternating(number), 0.9, self.budget, inputs.seed_for(2, number), self.table
            )
            engine.execute(warm.sql, seed=warm.seed)

    def next_call(self, inputs: Inputs, number: int) -> Call:
        return Call(number, [self._statement(inputs, number)], inputs.arrays[self.table])


class WarmSweep(Workload):
    """A gamma sweep over pre-drawn seeds: every stage-1 draw hits the store."""

    name = "warm-sweep"
    why = (
        "night-street 1M rows; RT and PT over gamma 0.5..0.95 on 16 seeds pre-drawn in "
        "setup: draws hit the store, so tau, scan, parse and engine dominate"
    )
    table = "night"
    gammas = tuple(round(0.5 + 0.05 * step, 2) for step in range(10))
    # Tau, and so the selection size, varies with the sample: with 16
    # seeds the run's latency mix no longer hangs on a few samples.
    seeds_per_run = 16

    def generate(self, seed: int) -> Inputs:
        inputs = Inputs(seed)
        data = load_dataset("night-street", size=self.size, seed=inputs.seed_for(0))
        inputs.arrays[self.table] = (data.proxy_scores, data.labels)
        seeds = [inputs.seed_for(1, k) for k in range(self.seeds_per_run)]
        sweep = [
            Statement(target, gamma, self.budget, seed, self.table)
            for seed in seeds
            for target in ("recall", "precision")
            for gamma in self.gammas
        ]
        order = np.random.default_rng([seed, 2]).permutation(len(sweep))
        inputs.extra["seeds"] = seeds
        inputs.extra["sweep"] = [sweep[i] for i in order]
        return inputs

    def warm_up(self, engine: SupgEngine, inputs: Inputs) -> None:
        # Pre-draw both stage-1 designs (RT's full budget, PT's half) for
        # every seed of the sweep.
        for seed in inputs.extra["seeds"]:
            for target in ("recall", "precision"):
                warm = Statement(target, self.gammas[-1], self.budget, seed, self.table)
                engine.execute(warm.sql, seed=warm.seed)

    def next_call(self, inputs: Inputs, number: int) -> Call:
        sweep = inputs.extra["sweep"]
        return Call(number, [sweep[number % len(sweep)]], inputs.arrays[self.table])


class ColdTable(Workload):
    """Every statement is the first query on a table the engine never saw."""

    name = "cold-table"
    why = (
        "a new Beta(0.01,1) 1M-row table per statement, registered and queried in one "
        "timed call with no store dir: the statistics build dominates"
    )
    table = "cold"
    registers_per_call = True

    def generate(self, seed: int) -> Inputs:
        inputs = Inputs(seed)
        inputs.arrays[self.table] = beta_arrays(self.size, inputs.seed_for(0))
        return inputs

    def warm_up(self, engine: SupgEngine, inputs: Inputs) -> None:
        # One cold call pays first-use costs; the timed calls still see
        # only tables the engine never saw.
        warm = Statement("recall", 0.9, self.budget, inputs.seed_for(2), self.table)
        engine.execute(warm.sql, seed=warm.seed)

    def next_call(self, inputs: Inputs, number: int) -> Call:
        arrays = beta_arrays(self.size, inputs.seed_for(3, number))
        table = Dataset(proxy_scores=arrays[0], labels=arrays[1], name=self.table)
        statement = Statement(
            alternating(number), 0.9, self.budget, inputs.seed_for(1, number), self.table
        )
        return Call(number, [statement], arrays, table=table)


class BatchDisk(Workload):
    """execute_many batches over the disk backend with a fork fan-out."""

    name = "batch-disk"
    why = (
        "Beta(0.01,1) 5M rows, disk backend; execute_many of 8 RT/PT statements over "
        "2 shared draws, jobs=2, new seeds per batch: fork, transfer and paging"
    )
    table = "big"
    statements_per_call = 8
    jobs = 2
    warm_batches = 3

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.size = 50_000 if tiny else 5_000_000
        self.budget = 500 if tiny else 5_000
        self.chunk_records = 16_384 if tiny else 1 << 20

    def generate(self, seed: int) -> Inputs:
        inputs = Inputs(seed)
        inputs.arrays[self.table] = beta_arrays(self.size, inputs.seed_for(0))
        return inputs

    def _batch(self, inputs: Inputs, *key: int) -> list[Statement]:
        # Two draws per batch: a seed's RT design (budget b) is also the
        # PT stage-1 design (budget 2b, halved), so four statements
        # share each pre-drawn sample.
        statements = []
        for draw in range(2):
            seed = inputs.seed_for(*key, draw)
            for gamma in (0.9, 0.8):
                statements.append(Statement("recall", gamma, self.budget, seed, self.table))
                statements.append(
                    Statement("precision", gamma, 2 * self.budget, seed, self.table)
                )
        return statements

    def setup(self, inputs: Inputs, workdir: str) -> State:
        tmpdir = tempfile.TemporaryDirectory(prefix="store-", dir=workdir)
        # The mmap data plane keeps every file the fan-out writes under
        # the store directory.
        engine = SupgEngine(
            store_dir=tmpdir.name,
            backend="disk",
            chunk_records=self.chunk_records,
            data_plane="mmap",
        )
        engine.register_table(self.table, inputs.dataset(self.table))
        state = State(engine, tmpdir)
        # Warm-up batches: the first builds the statistic files, the
        # zone-map sidecar and the weight file and publishes the dataset
        # to the plane; the first few run ~30% slower than the rest.
        for number in range(self.warm_batches):
            warm = Call(-1, self._batch(inputs, 2, number), inputs.arrays[self.table])
            self.run(state, warm)
        return state

    def next_call(self, inputs: Inputs, number: int) -> Call:
        return Call(number, self._batch(inputs, 1, number), inputs.arrays[self.table])

    def run(self, state: State, call: Call) -> list:
        return state.engine.execute_many(
            [statement.sql for statement in call.statements],
            seed=[statement.seed for statement in call.statements],
            jobs=self.jobs,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FreshDraw, WarmSweep, ColdTable, BatchDisk)
}
