"""Throughput of the deduplicating batch evaluation engine.

Times a 32-script mixed batch (8 unique scripts × 4 occurrences —
expressions, defined calendars, and a full script, the shape of a DBCRON
rule population sharing trigger expressions) two ways:

* a sequential ``session.eval`` loop (the pre-batch baseline),
* ``session.eval_many`` over the same batch,

plus an all-unique 32-script batch (the overhead guard: with no
duplicates to deduplicate, ``eval_many`` must not be meaningfully slower
than the plain loop).

The batch speedup comes from *work deduplication*: duplicate scripts
collapse to one job, and shared GenerateSteps are hoisted and
materialised once for the whole batch.

These benchmarks are self-timed (``perf_counter`` around whole batches;
pytest-benchmark's per-round calibration does not fit a
build-session-then-run-batch shape) and register their rows via
:func:`benchmarks.conftest.record_benchmark`, so they land in
``BENCH_core.json["benchmarks"]`` even under ``--benchmark-disable``.
"""

from __future__ import annotations

from time import perf_counter

from conftest import record_benchmark

from repro.core import Calendar
from repro.core.matcache import MaterialisationCache
from repro.obs.instrument import Instrumentation
from repro.session import Session

WINDOW = ("Jan 1 1993", "Dec 31 1994")

#: Eight unique scripts of mixed kinds; the batch repeats each 4 times.
UNIQUE_SCRIPTS = [
    "[1]/MONTHS:during:1993/YEARS",
    "[22]/DAYS:during:[1]/MONTHS:during:1993/YEARS",
    "[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS",
    "DAYS:during:[2]/MONTHS:during:1993/YEARS",
    "HOLIDAYS",
    "AM_BUS_DAYS - HOLIDAYS",
    "x = (DAYS:during:[1]/MONTHS:during:1993/YEARS); return (x)",
    "[n]/DAYS:during:[3]/MONTHS:during:1993/YEARS",
]

#: 32 scripts, each unique one exactly 4 times, deterministically
#: interleaved (3 is coprime to 8, so the stride visits every residue).
MIXED_BATCH = [UNIQUE_SCRIPTS[(i * 3) % len(UNIQUE_SCRIPTS)]
               for i in range(32)]

#: 32 pairwise-distinct expressions: no duplicate for eval_many to
#: collapse, isolating the batch machinery's own overhead.
ALL_UNIQUE_BATCH = [
    f"[{(i % 27) + 1}]/DAYS:during:[{(i % 12) + 1}]/MONTHS"
    f":during:{1993 + i // 16}/YEARS"
    for i in range(32)
]

ROUNDS = 5


def fresh_session() -> Session:
    """A fully cold stack: private registry, matcache, instrumentation."""
    return Session("Jan 1 1987", holiday_years=(1993, 1995),
                   matcache=MaterialisationCache(),
                   instrumentation=Instrumentation())


def _count_intervals(results) -> int:
    return sum(len(r) for r in results if isinstance(r, Calendar))


def _time_sequential(batch) -> tuple[list[float], int]:
    samples = []
    intervals = 0
    for _ in range(ROUNDS):
        session = fresh_session()
        t0 = perf_counter()
        results = [session.eval(text, window=WINDOW) for text in batch]
        samples.append(perf_counter() - t0)
        intervals = _count_intervals(results)
    return samples, intervals


def _time_eval_many(batch) -> tuple[list[float], int]:
    samples = []
    intervals = 0
    for _ in range(ROUNDS):
        session = fresh_session()
        t0 = perf_counter()
        results = session.eval_many(batch, window=WINDOW)
        samples.append(perf_counter() - t0)
        intervals = _count_intervals(results)
    return samples, intervals


class TestBatchThroughput:
    def test_eval_many_dedup_speedup_on_mixed_batch(self):
        """≥2× aggregate throughput over the loop on the 32-script batch."""
        seq_samples, seq_intervals = _time_sequential(MIXED_BATCH)
        record_benchmark("batch/sequential_eval_32_mixed",
                         seq_samples, intervals=seq_intervals,
                         batch=len(MIXED_BATCH))
        samples, intervals = _time_eval_many(MIXED_BATCH)
        speedup = min(seq_samples) / min(samples)
        record_benchmark(
            "batch/eval_many_32_mixed", samples, intervals=intervals,
            batch=len(MIXED_BATCH), speedup_vs_sequential=round(speedup, 3))
        assert speedup >= 2.0, (
            f"eval_many managed only {speedup:.2f}x over sequential eval")

    def test_eval_many_matches_sequential_results(self):
        """The timed configurations agree result-for-result."""
        session = fresh_session()
        expected = [session.eval(t, window=WINDOW) for t in MIXED_BATCH]
        got = fresh_session().eval_many(MIXED_BATCH, window=WINDOW)
        assert len(got) == len(expected)
        assert all(a == b for a, b in zip(got, expected))

    def test_single_thread_overhead_under_5_percent(self):
        """eval_many on an all-unique batch ≈ plain loop.

        With nothing to deduplicate, the batch path's planning/hoisting
        bookkeeping is pure overhead — it must stay below 5% of the
        sequential loop's best time (it is usually *faster*: the batch
        shares one context cache where the loop re-slices the matcache).
        """
        seq_samples, _ = _time_sequential(ALL_UNIQUE_BATCH)
        many_samples, intervals = _time_eval_many(ALL_UNIQUE_BATCH)
        ratio = min(many_samples) / min(seq_samples)
        record_benchmark("batch/single_thread_overhead_32_unique",
                         many_samples, intervals=intervals,
                         batch=len(ALL_UNIQUE_BATCH),
                         overhead_ratio=round(ratio, 4))
        assert ratio < 1.05, (
            f"eval_many is {ratio:.3f}x the plain sequential loop "
            f"(must be < 1.05)")
