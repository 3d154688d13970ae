"""Shared helpers: checkout layout, child environment, order statistics and
the reference loop."""

from __future__ import annotations

import gc
import math
import os
import statistics
import time

#: files the benchmark needs from the checkout besides its own directory
REQUIRED = ("src/rgupzeeman/__init__.py", "src/rgupzeeman/cli.py",
            "tests/golden/constants.txt")

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def missing_files(root: str) -> list[str]:
    return [rel for rel in REQUIRED if not os.path.isfile(os.path.join(root, rel))]


def child_env(root: str) -> dict[str, str]:
    """Environment for every process the benchmark starts: the package from
    src/ on the path, and no RGUPZ_* defaults leaking in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile with
    TAIL_BEYOND samples past it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 1 if n <= TAIL_BEYOND else n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def cost_in_refs(rounds, refs) -> list[float]:
    """Each round's wall time in units of the reference loop timed around it."""
    return [took / ref for took, ref in zip(rounds, refs)]


def reference_seconds(repeat: int = 8000) -> float:
    """Wall time of a fixed pure-Python loop (float math, dict and string
    work).  Timed right before and right after each round, it measures how
    fast the host runs Python at that moment.  The collector is off so the
    loop's time does not depend on how many objects the program holds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, total = {}, 0.0
        for i in range(repeat):
            total += math.sqrt(i * 1.000001) * 0.5
            table[i & 255] = f"{total:.6e}"
            total -= len(table.get((i * 7) & 255, "")) * 1e-9
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
