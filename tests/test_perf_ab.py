"""The A/B gate's verdict on synthetic benchmark runs (``scripts/perf_ab.py``).

The gate fails a change when a head run exits non-zero or reports a
wrong or failed statement, or when the head's median is worse than the
base's by more than a metric's bound, in that metric's direction.  A
row whose base runs spread wider than the bound reads ``unresolved``
unless every head run beats every base run; that does not fail.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))
try:
    from perf_ab import verdict
finally:
    sys.path.remove(str(SCRIPTS))

LATENCY = {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
THROUGHPUT = {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs(value, metric=LATENCY, spread=(0.98, 1.0, 1.03), **fields):
    """Healthy run records, one per ``spread`` entry, whose median reads ``value``."""
    return [
        {
            "returncode": 0,
            "correct": True,
            "attempted": 40,
            "failed": 0,
            "metrics": {metric["name"]: {"value": value * scale, "unit": metric["unit"]}},
            **fields,
        }
        for scale in spread
    ]


def problems(metric, base, head):
    rows, found = verdict([metric], "fresh-draw", base, head)
    [row] = rows
    assert row[:2] == ["fresh-draw", metric["name"]]
    assert row[-1] == ("WORSE" if any(metric["name"] in p for p in found) else "ok")
    return found


def test_slowdown_beyond_the_bound_fails():
    found = problems(LATENCY, runs(100.0), runs(130.0))
    assert len(found) == 1 and "latency_p50_ms" in found[0]


def test_slowdown_within_the_bound_passes():
    assert problems(LATENCY, runs(100.0), runs(120.0)) == []
    assert problems(LATENCY, runs(100.0), runs(60.0)) == []  # faster is fine


@pytest.mark.parametrize(
    "head_value,fails", [(70.0, True), (80.0, False), (130.0, False)]
)
def test_higher_is_better_inverts_the_direction(head_value, fails):
    found = problems(THROUGHPUT, runs(100.0, THROUGHPUT), runs(head_value, THROUGHPUT))
    assert bool(found) is fails


def test_median_not_mean_decides():
    # One head run is 10x slower; the median of the three is not.
    head = runs(100.0, spread=(1.0, 1.01, 10.0))
    assert problems(LATENCY, runs(100.0), head) == []


@pytest.mark.parametrize(
    "fields", [{"correct": False}, {"failed": 1}], ids=["incorrect", "failed"]
)
@pytest.mark.parametrize("side", ["base", "head"])
def test_a_wrong_or_failed_run_fails(side, fields):
    base, head = runs(100.0), runs(100.0)
    target = base if side == "base" else head
    target[1] = runs(100.0, **fields)[1]
    found = problems(LATENCY, base, head)
    assert len(found) == 1 and f"{side} run 2" in found[0]


def test_a_run_that_exited_non_zero_fails():
    head = runs(100.0)
    head[0] = {"returncode": 2}
    found = problems(LATENCY, runs(100.0), head)
    assert found == ["fresh-draw: head run 1 exited 2"]


def test_rows_report_quartiles_and_seed_paired_wins():
    """A tie counts for neither side; a run that exited non-zero drops
    its pair; quartiles interpolate linearly."""
    base = runs(100.0, spread=(1.0, 1.1, 1.2, 1.3, 1.4))
    head = runs(100.0, spread=(0.9, 1.1, 1.0, 1.4, 1.0))  # win, tie, win, loss, win
    head[4] = {"returncode": 2}
    rows, found = verdict([LATENCY], "fresh-draw", base, head)
    [row] = rows
    assert row[3] == "110–130" and row[5] == "97.5–117.5"
    assert row[7] == "2/4"
    assert found == ["fresh-draw: head run 5 exited 2"]


#: Base runs whose interquartile range, 40% of their median, is wider
#: than the 25% bound.
WIDE = (0.6, 0.8, 1.0, 1.2, 1.4)


def status(metric, base, head):
    rows, found = verdict([metric], "warm-sweep", base, head)
    [row] = rows
    return row[-1], found


def test_a_wide_base_spread_leaves_a_row_unresolved():
    # The head's worst run ties the base's best: not every head run beats.
    head = runs(100.0, spread=(0.6, 0.5, 0.55))
    assert status(LATENCY, runs(100.0, spread=WIDE), head) == ("unresolved", [])


def test_a_wide_spread_is_resolved_when_every_head_run_wins():
    head = runs(100.0, spread=(0.5, 0.55, 0.59))
    assert status(LATENCY, runs(100.0, spread=WIDE), head) == ("ok", [])
    # Higher is better: every head run above every base run.
    head = runs(100.0, THROUGHPUT, spread=(1.41, 1.5, 1.6))
    assert status(THROUGHPUT, runs(100.0, THROUGHPUT, spread=WIDE), head) == ("ok", [])


def test_worse_takes_precedence_over_unresolved():
    verdict_, found = status(LATENCY, runs(100.0, spread=WIDE), runs(130.0, spread=WIDE))
    assert verdict_ == "WORSE" and len(found) == 1


def test_a_narrow_base_spread_stays_ok_without_a_clean_sweep():
    head = runs(100.0, spread=(0.97, 1.0, 1.05))  # a tie and a loss
    assert status(LATENCY, runs(100.0), head) == ("ok", [])
