"""Shared benchmark fixtures: populated registries over long horizons.

A session-finish hook writes ``BENCH_core.json`` to the repository root
with every benchmark's timing summary (p50/p90, intervals/sec when the
benchmark reports interval counts) plus the process-wide
materialisation-cache counters (hit ratio included), so successive runs
can be diffed without re-parsing pytest-benchmark's own storage.

Two sources feed the ``benchmarks`` list:

* pytest-benchmark fixtures (``benchmark(...)``) — read from the plugin's
  session stats;
* :func:`record_benchmark` — self-timed benchmarks (the parallel
  throughput suite times ``eval_many`` batches with ``perf_counter``
  directly) register their samples here and land in the report even when
  the plugin runs with ``--benchmark-disable`` (the CI smoke mode).

Entries are **merged by name with the previous report**: a partial run
(one file, a smoke pass) updates its own entries and leaves the rest of
the recorded perf trajectory intact, instead of overwriting the file
with an empty list.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

from repro.catalog import (
    CalendarRegistry,
    install_standard_calendars,
    install_us_holidays,
)
from repro.core import CalendarSystem
from repro.core.matcache import get_default_cache
from repro.db import Database

BENCH_REPORT = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: Rows registered by self-timed benchmarks this session (name -> row).
_MANUAL_ROWS: dict[str, dict] = {}


def build_registry(horizon_years: int = 30,
                   matcache=None) -> CalendarRegistry:
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=horizon_years,
                                matcache=matcache)
    install_standard_calendars(registry)
    install_us_holidays(registry, 1987, 1987 + horizon_years - 1)
    return registry


@pytest.fixture(scope="module")
def registry() -> CalendarRegistry:
    return build_registry()


@pytest.fixture(scope="module")
def bench_db(registry) -> Database:
    return Database(calendars=registry)


def _percentile(samples: list[float], q: float) -> float:
    """The q-quantile (0..1) of ``samples`` by nearest-rank."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def record_benchmark(name: str, samples: "list[float]",
                     intervals: int | None = None, **extra) -> dict:
    """Register a self-timed benchmark row for BENCH_core.json.

    ``samples`` are per-round wall times in seconds; ``intervals`` (when
    given) is the number of calendar intervals produced per round, from
    which ``intervals_per_s`` is derived.  Extra keyword pairs are kept
    verbatim (e.g. ``batch=32``, ``speedup=2.3``).
    """
    if not samples:
        raise ValueError(f"benchmark {name!r} recorded no samples")
    mean = statistics.fmean(samples)
    row = {
        "name": name,
        "mean_s": mean,
        "min_s": min(samples),
        "p50_s": _percentile(samples, 0.50),
        "p90_s": _percentile(samples, 0.90),
        "rounds": len(samples),
    }
    if intervals is not None and mean > 0:
        row["intervals_per_s"] = intervals / mean
    row.update(extra)
    _MANUAL_ROWS[name] = row
    return row


def _benchmark_rows(session) -> list[dict]:
    """Per-benchmark timing summaries, tolerant of plugin internals."""
    rows = []
    try:
        benchmarks = session.config._benchmarksession.benchmarks
    except AttributeError:
        return rows
    for bench in benchmarks:
        try:
            stats = bench.stats
            row = {"name": bench.fullname,
                   "mean_s": stats.mean,
                   "min_s": stats.min,
                   "p50_s": stats.median,
                   "p90_s": _percentile(list(stats.sorted_data), 0.90),
                   "rounds": stats.rounds}
            intervals = (bench.extra_info or {}).get("intervals")
            if intervals and stats.mean > 0:
                row["intervals_per_s"] = intervals / stats.mean
            rows.append(row)
        except (AttributeError, TypeError):
            continue
    return rows


def _previous_rows() -> dict[str, dict]:
    """The ``benchmarks`` entries of the existing report, keyed by name."""
    try:
        previous = json.loads(BENCH_REPORT.read_text())
    except (OSError, ValueError):
        return {}
    rows = previous.get("benchmarks")
    if not isinstance(rows, list):
        return {}
    return {row["name"]: row for row in rows
            if isinstance(row, dict) and "name" in row}


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_core.json: wall times + materialisation-cache stats.

    Rows from this run (plugin-collected and manually recorded) override
    same-named rows of the previous report; other previous rows are kept,
    so smoke passes that time nothing (``--benchmark-disable`` collects
    stats-less Metadata objects) no longer wipe the recorded trajectory.
    """
    merged = _previous_rows()
    for row in _benchmark_rows(session):
        merged[row["name"]] = row
    merged.update(_MANUAL_ROWS)
    cache_stats = get_default_cache().stats()
    report = {
        "benchmarks": sorted(merged.values(), key=lambda r: r["name"]),
        "matcache": cache_stats,
        "cache_hit_ratio": cache_stats["hit_ratio"],
    }
    try:
        BENCH_REPORT.write_text(json.dumps(report, indent=2) + "\n")
    except OSError:
        pass
