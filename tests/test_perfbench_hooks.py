"""The benchmark's hooks into the program, checked without running it.

``perfbench/tracing.py`` wraps program entry points (its ``SHIMS``),
finding each with ``vars(owner)[attribute]``, and ``perfbench/run.py``
indexes a few ``session_stats()`` keys directly.  A program change that
moves one of them breaks the benchmark's traced runs, which only its
own self-test exercises.  These tests read the benchmark's sources and
run no workload.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

from repro.datasets import make_beta_dataset
from repro.query import SupgEngine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_shim_target_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _ in tracing.SHIMS
        if attribute not in vars(owner)
    ]
    assert missing == []


def test_installed_tracer_restores_every_original():
    originals = [vars(owner)[attribute] for owner, attribute, _ in tracing.SHIMS]
    with tracing.Tracer().installed():
        for (owner, attribute, _), original in zip(tracing.SHIMS, originals):
            assert vars(owner)[attribute] is not original, attribute
    for (owner, attribute, _), original in zip(tracing.SHIMS, originals):
        assert vars(owner)[attribute] is original, attribute


def test_disk_session_stats_have_every_key_the_runner_indexes(tmp_path):
    source = (PERFBENCH / "run.py").read_text()
    indexed = set(re.findall(r'(?:stats_after|stats_before|session_stats\(\))\["(\w+)"\]', source))
    assert indexed, "no direct session_stats() lookup found in perfbench/run.py"
    engine = SupgEngine(store_dir=str(tmp_path), backend="disk")
    engine.register_table("t", make_beta_dataset(0.01, 1.0, size=2000, seed=1))
    assert indexed <= set(engine.session_stats())
