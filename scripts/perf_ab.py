#!/usr/bin/env python
"""A/B gate: the repository benchmark on a base checkout against a head checkout.

Usage::

    python3 scripts/perf_ab.py BASE HEAD

BASE and HEAD are two checkouts of this repository, for example a
``git worktree`` at the merge base and ``.``.  Both sides run the
*base's* ``perfbench/run.py`` and ``BENCHMARK.json``: ``run.py`` imports
the program from ``src/`` under its working directory, so each run
starts in its own side's checkout, and a change cannot loosen its own
gate.

For every workload the script runs ``PAIRS`` pairs of untraced runs of
``run_seconds`` each.  Both runs of a pair take the pair number as
their seed, and the side that runs first alternates from pair to pair.
It first prints the Python and numpy versions, numpy's SIMD level and
the CPU count of the interpreter the runs use: a gain can hang on one
numpy release (numpy 2.4's ``unique`` re-sorts sorted input) or on the
CPU (numpy's default ``argsort`` of floats is about 3x faster with
AVX-512 than without SIMD), and CI installs numpy unpinned.  Then it
prints one row per workload and end-to-end metric with each side's
median and quartiles, the change, how many seed-paired
runs the head won in the metric's ``better`` direction (ties count for
neither side), the bound, and a verdict:

- ``WORSE`` when the head's median is worse than the base's by more
  than the metric's bound, in its ``better`` direction;
- else ``unresolved`` when the base runs spread too widely to tell: the
  interquartile range of the base runs, relative to their median, is
  wider than the bound, and not every head run beats every base run (a
  tie does not beat);
- else ``ok``.

Each ``unresolved`` row is followed by every run's value on both
sides.  A claimed gain reads the wins and quartiles; the exit rule does
not, and an ``unresolved`` row does not fail the gate.  The script
exits 1 when

- any run exits non-zero;
- any run reports ``correct: false`` or ``failed > 0``;
- the head's median is worse than the base's by more than the metric's
  ``bound``, in the metric's ``better`` direction.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

#: Even, so that each side runs first in half of the pairs (the second
#: run of a pair reads a few percent slower on some metrics).  With one
#: commit on both sides on a 2-core x86_64 box, three pairs failed one
#: run in three (cold-table setup_s +31%); six stayed inside every bound.
PAIRS = 6


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its exit code and,
    when it exits 0, the JSON object on its last line of output."""
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if out.returncode != 0:
        print(out.stdout + out.stderr, file=sys.stderr)
        return {"returncode": out.returncode}
    return {"returncode": 0, **json.loads(out.stdout.strip().splitlines()[-1])}


def run_problems(workload: str, side: str, runs: list[dict]) -> list[str]:
    """Runs that exited non-zero, or reported a wrong or failed statement."""
    problems = []
    for number, record in enumerate(runs, start=1):
        if record["returncode"] != 0:
            problems.append(f"{workload}: {side} run {number} exited {record['returncode']}")
        elif not record["correct"] or record["failed"] > 0:
            problems.append(
                f"{workload}: {side} run {number} reported correct "
                f"{record['correct']} with {record['failed']} failed"
            )
    return problems


#: The SIMD levels numpy's sorts dispatch to, fastest first, as ``(name,
#: numpy 2.4+ target group)``.  x86-simd-sort serves the default
#: ``argsort`` at either level.
SIMD_LEVELS = (("AVX512_SKX", "X86_V4"), ("AVX2", "X86_V3"))


def environment(interpreter: str) -> str:
    """One line naming the Python, numpy, SIMD level and CPU count of
    ``interpreter``.

    The SIMD level is the fastest of :data:`SIMD_LEVELS` that numpy's
    ``__cpu_features__`` enables (``NPY_DISABLE_CPU_FEATURES`` switches
    levels off), or ``baseline``.
    """
    probe = (
        "import os, platform, numpy\n"
        "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
        f"simd = next((n for n, g in {SIMD_LEVELS!r} if f.get(g, f.get(n))), 'baseline')\n"
        "print(f'python {platform.python_version()}, numpy {numpy.__version__}, "
        "simd {simd}, os.cpu_count() {os.cpu_count()}')"
    )
    out = subprocess.run([interpreter, "-c", probe], capture_output=True, text=True, check=True)
    return out.stdout.strip()


def value_of(record: dict, metric: str) -> float | None:
    """The run's value of ``metric``, or ``None`` when the run exited non-zero."""
    return record["metrics"][metric]["value"] if record["returncode"] == 0 else None


def values_of(runs: list[dict], metric: str) -> list[float]:
    return [value for value in (value_of(record, metric) for record in runs) if value is not None]


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, interpolated linearly as numpy's
    ``percentile`` does."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def head_wins(base: list[dict], head: list[dict], metric: dict) -> tuple[int, int]:
    """Seed-paired runs the head won in the metric's ``better`` direction,
    and the pairs in which both runs exited 0.  A tie counts for neither."""
    wins = pairs = 0
    for base_record, head_record in zip(base, head):
        base_value = value_of(base_record, metric["name"])
        head_value = value_of(head_record, metric["name"])
        if base_value is None or head_value is None:
            continue
        pairs += 1
        if metric["better"] == "lower":
            wins += head_value < base_value
        else:
            wins += head_value > base_value
    return wins, pairs


def relative_change(base: float, head: float) -> float:
    if base == 0:
        return 0.0 if head == 0 else math.copysign(math.inf, head)
    return (head - base) / abs(base)


def verdict(end_to_end: list[dict], workload: str, base: list[dict],
            head: list[dict]) -> tuple[list[list[str]], list[str]]:
    """Table rows and failure reasons for one workload's base and head runs.

    ``end_to_end`` is the ``BENCHMARK.json`` list of metrics, each with a
    ``name``, ``unit``, ``better`` (``lower`` or ``higher``) and
    ``bound``, the largest relative worsening that still passes.
    """
    problems = run_problems(workload, "base", base) + run_problems(workload, "head", head)
    rows = []
    for metric in end_to_end:
        name, bound, unit = metric["name"], metric["bound"], metric["unit"]
        base_values, head_values = values_of(base, name), values_of(head, name)
        if not base_values or not head_values:
            rows.append([workload, name, *["n/a"] * 6, f"{bound:.0%}", "no runs"])
            continue
        base_median, head_median = statistics.median(base_values), statistics.median(head_values)
        (base_q1, base_q3), (head_q1, head_q3) = quartiles(base_values), quartiles(head_values)
        wins, pairs = head_wins(base, head, metric)
        change = relative_change(base_median, head_median)
        lower = metric["better"] == "lower"
        worse = change if lower else -change
        spread = relative_change(base_median, base_median + base_q3 - base_q1)
        head_beats_all = (
            max(head_values) < min(base_values) if lower else min(head_values) > max(base_values)
        )
        status = "ok"
        if worse > bound:
            status = "WORSE"
            problems.append(
                f"{workload}: {name} {head_median:.4g} {unit} against "
                f"{base_median:.4g}, {change:+.1%} (bound {bound:.0%})"
            )
        elif spread > bound and not head_beats_all:
            status = "unresolved"
        rows.append([
            workload, name,
            f"{base_median:.4g} {unit}", f"{base_q1:.4g}–{base_q3:.4g}",
            f"{head_median:.4g} {unit}", f"{head_q1:.4g}–{head_q3:.4g}",
            f"{change:+.1%}", f"{wins}/{pairs}", f"{bound:.0%}", status,
        ])
    return rows, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit("usage: python3 scripts/perf_ab.py BASE HEAD")
    checkouts = {"base": Path(argv[0]).resolve(), "head": Path(argv[1]).resolve()}
    spec = json.loads((checkouts["base"] / "BENCHMARK.json").read_text())
    # The base's benchmark files, named by absolute path so that every
    # run can start in its own side's checkout.
    command = [
        str(checkouts["base"] / part) if (checkouts["base"] / part).is_file() else part
        for part in spec["command"]
    ]
    seconds = spec["run_seconds"]
    print(environment(command[0]), flush=True)
    rows, problems, spreads = [], [], []
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for pair in range(1, PAIRS + 1):
            order = ("base", "head") if pair % 2 else ("head", "base")
            for side in order:
                record = run_once(command, checkouts[side], workload, pair, seconds)
                runs[side].append(record)
                print(f"{workload}: seed {pair} {side} exited {record['returncode']}", flush=True)
        workload_rows, workload_problems = verdict(
            spec["end_to_end"], workload, runs["base"], runs["head"]
        )
        rows.extend(workload_rows)
        problems.extend(workload_problems)
        for row in workload_rows:
            if row[-1] == "unresolved":
                values = {
                    side: ", ".join(f"{value:.4g}" for value in values_of(runs[side], row[1]))
                    for side in runs
                }
                spreads.append(f"{workload}: {row[1]} base runs {values['base']}; "
                               f"head runs {values['head']}")
    header = [
        "workload", "metric", "base median", "base q1–q3", "head median", "head q1–q3",
        "change", "head wins", "bound", "verdict",
    ]
    for row in [header, ["---"] * len(header), *rows]:
        print("| " + " | ".join(row) + " |")
    for spread in spreads:
        print(f"UNRESOLVED {spread}")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
