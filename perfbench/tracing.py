"""Outside-in tracing: spans recorded by shims around public entry points.

Nothing in the program changes.  ``Tracer.installed()`` replaces each
entry point listed in ``SHIMS`` with a wrapper that records a span
(name, start, end, parent span, statement id), restores the originals
on exit, and keeps every span in memory.  Counters that belong to one
boundary (records labeled, zone-map skipping) are read at that boundary
by the same wrapper.

Spans recorded inside forked workers die with the worker, so on the
fan-out workload the trace sees only the parent's share of the work.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator

import repro.core.base
import repro.core.importance
import repro.core.pipeline
import repro.query.engine
from repro.core.base import Selector
from repro.core.pipeline import SampleStore
from repro.core.planning import QueryPlan
from repro.core.stats_backend import DiskBackend, InMemoryBackend
from repro.core.zonemap import ScoreZoneMap
from repro.datasets import Dataset
from repro.query.engine import SupgEngine
from repro.sampling.designs import SampleDesign

ZONEMAP_COUNTERS = ("zonemap_selects", "strata_touched", "records_skipped", "zonemap_dense_fallbacks")

# (owner, attribute, span name): the traced layer boundaries.
SHIMS = (
    (repro.query.engine, "parse_query", "parse"),
    (repro.query.engine, "parse_script", "parse"),
    (SupgEngine, "execute", "engine"),
    (SupgEngine, "execute_many", "engine"),
    (SampleStore, "fetch", "fetch"),
    (SampleDesign, "draw", "draw"),
    (repro.core.importance, "weighted_sample", "draw"),
    (repro.core.pipeline, "ground_truth_labeler", "label"),
    (Selector, "select", "select"),
    (repro.core.base, "materialize_selection", "materialize"),
    (Dataset, "select_above", "scan"),
    (InMemoryBackend, "sorted_scores", "stats"),
    (InMemoryBackend, "score_order", "stats"),
    (InMemoryBackend, "sampling_weights", "stats"),
    (DiskBackend, "sorted_scores", "stats"),
    (DiskBackend, "score_order", "stats"),
    (DiskBackend, "sampling_weights", "stats"),
    (ScoreZoneMap, "build", "stats"),
    (QueryPlan, "prewarm", "prewarm"),
)


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent index, statement id]``
    lists; ``statement`` is the id stamped on new spans (``None`` during
    set-up).  ``counts`` accumulates boundary counters per phase.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.statement: int | None = None
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.statement]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    @property
    def phase(self) -> str:
        return "setup" if self.statement is None else "timed"

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return shim

    def _wrap_labeler(self, make_labeler: Callable) -> Callable:
        @functools.wraps(make_labeler)
        def traced_labeler(dataset):
            label = make_labeler(dataset)

            def traced_label(indices):
                with self.span("label"):
                    self.counts[self.phase]["label.records"] += len(indices)
                    return label(indices)

            return traced_label

        return traced_labeler

    def _wrap_scan(self, select_above: Callable) -> Callable:
        @functools.wraps(select_above)
        def traced_scan(dataset, tau):
            zone_map = dataset.__dict__.get("zone_map")
            before = dict(zone_map.counters) if zone_map is not None else {}
            with self.span("scan"):
                result = select_above(dataset, tau)
            zone_map = dataset.__dict__.get("zone_map")
            counts = self.counts[self.phase]
            counts["scan.records"] += dataset.size
            if zone_map is not None:
                for key in ZONEMAP_COUNTERS:
                    counts[key] += zone_map.counters[key] - before.get(key, 0)
            return result

        return traced_scan

    def _shim_for(self, owner, attribute: str, name: str, original):
        if attribute == "ground_truth_labeler":
            return self._wrap_labeler(original)
        if attribute == "select_above":
            return self._wrap_scan(original)
        if isinstance(original, classmethod):
            bound = getattr(owner, attribute)
            return staticmethod(self.wrap(name, bound))
        return self.wrap(name, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every shim; restore the original entry points on exit."""
        saved = []
        try:
            for owner, attribute, name in SHIMS:
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._shim_for(owner, attribute, name, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------------

    def durations(self) -> tuple[list[float], list[float]]:
        """Total and self time (seconds) of every span, by span index."""
        total = [end - start for _, start, end, _, _ in self.spans]
        own = list(total)
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= total[index]
        return total, own

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, statement."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, statement) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "statement": statement,
                }) + "\n")


def layer_times(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-phase sums (ms) of span time: ``total:<name>``, ``self:<name>``
    and ``outer:<name>`` (spans not nested in a span of the same name)."""
    total, own = tracer.durations()
    out: dict[str, dict[str, float]] = {"setup": Counter(), "timed": Counter()}
    spans = tracer.spans
    for index, (name, _, _, parent, statement) in enumerate(spans):
        phase = out["setup" if statement is None else "timed"]
        phase[f"total:{name}"] += total[index] * 1e3
        phase[f"self:{name}"] += own[index] * 1e3
        phase[f"count:{name}"] += 1
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            phase[f"outer:{name}"] += total[index] * 1e3
    return out
