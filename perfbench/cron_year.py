"""``cron_year`` — the rule path plus persistence, one simulated year a cycle.

Each cycle (one client, closed loop):

1. set-up: a session whose clock stands at Jan 1 of a seeded year and a
   ``log(rule, t)`` table (only the first cycle's set-up is in
   ``setup_s``; later cycles build theirs untimed);
2. declare: 200 seeded rules as Postquel ``define rule … on calendar "…"
   do (append log …)``, timed one by one.  They share eight distinct
   calendar expressions: weekly and monthly ordinals that compile to
   periodic sets, and holiday-bearing shapes that fall back to
   materialisation;
3. advance DBCRON to Jul 1 with ``run_until``, one simulated week per
   request;
4. three round trips of ``save_database``, then ``load_database`` and
   ``attach_database(…, clock_start=tick)`` (restore recompiles every
   rule; the last loaded database carries on);
5. advance through Dec 31, again a week per request.

A run is ``round(0.35 × seconds)`` cycles (at least one).  The oracle (untimed,
after the run): every rule fires exactly once at every tick of its
calendar in (Jan 1, Dec 31] — no duplicate and no missing fire across
the save/load — as evaluated by the reference path
(``Session(optimize=False, periodic=False)``, ``eval_expression(…,
optimize=False)``) and, for the weekday and day-of-month shapes, by
``datetime``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
from collections import Counter
from datetime import date

import common
import dates

NAME = "cron_year"
RULES = 200
#: Save/load round trips at mid-year (each load replaces the session's
#: database; the last one carries on).
ROUND_TRIPS = 3
WEEKDAY_CALS = ("Mondays", "Tuesdays", "Wednesdays", "Thursdays", "Fridays")
#: (category, how many distinct expressions of it per cycle)
MIX = (("weekly", 3), ("month_day", 2), ("month_weekday", 1),
       ("holiday", 2))
HOLIDAY_SHAPES = ("HOLIDAYS", "[n]/AM_BUS_DAYS:<:[n]/DAYS:during:MONTHS",
                  "[-2]/AM_BUS_DAYS:<:[n]/DAYS:during:MONTHS")


def _expression(rng, category: str) -> str:
    if category == "weekly":
        return f"[{rng.randint(1, 7)}]/DAYS:during:WEEKS"
    if category == "month_day":
        k = rng.choice(list(range(1, 29)) + ["n", -2, -3])
        return f"[{k}]/DAYS:during:MONTHS"
    if category == "month_weekday":
        j = rng.choice((1, 2, 3, 4, "n"))
        return f"[{j}]/{rng.choice(WEEKDAY_CALS)}:during:MONTHS"
    return rng.choice(HOLIDAY_SHAPES)


def _datetime_points(expression: str, year: int):
    """Fire days by ``datetime`` for weekly and day-of-month shapes."""
    head, _, tail = expression.partition("/")
    k = head.strip("[]")
    if tail == "DAYS:during:WEEKS":
        return {d for m in range(1, 13) for d in dates.month_days(year, m)
                if d.weekday() == int(k) - 1}
    if tail == "DAYS:during:MONTHS":
        k = k if k == "n" else int(k)
        return {d for m in range(1, 13)
                for d in dates.ordinal(dates.month_days(year, m), k)}
    return None


class Cycle:
    """The seeded inputs of one simulated year."""

    def __init__(self, rng) -> None:
        self.year = rng.randint(1989, 2015)
        distinct: list[str] = []
        for category, count in MIX:
            while sum(_category_of(e) == category for e in distinct) < count:
                expression = _expression(rng, category)
                if expression not in distinct:
                    distinct.append(expression)
        self.rules = [(f"r{i:03d}", distinct[i % len(distinct)])
                      for i in range(RULES)]
        rng.shuffle(self.rules)
        self.start = dates.tick(date(self.year, 1, 1))
        self.mid = dates.tick(date(self.year, 7, 1))
        self.end = dates.tick(date(self.year, 12, 31))

    def statements(self) -> list[str]:
        return [f'define rule {name} on calendar "{expr}" do '
                f'(append log (rule = "{name}", t = now.t))'
                for name, expr in self.rules]


def _category_of(expression: str) -> str:
    if expression in HOLIDAY_SHAPES:
        return "holiday"
    if expression.endswith("DAYS:during:WEEKS"):
        return "weekly"
    if expression.endswith("/DAYS:during:MONTHS"):
        return "month_day"
    return "month_weekday"


def cycles(seed: int):
    rng = random.Random(f"{NAME}:{seed}")
    while True:
        yield Cycle(rng)


def stream_digest(seed: int, n: int = 3) -> str:
    digest = hashlib.sha1()
    stream = cycles(seed)
    for _ in range(n):
        cycle = next(stream)
        digest.update(repr((cycle.year, cycle.statements())).encode())
    return digest.hexdigest()


class Workload(common.Workload):
    """Set-up, timed run, oracle check and metrics of ``cron_year``."""

    name = NAME
    PRIMARY = "declare"
    SECONDARY = "advance"
    #: Cycles (simulated years) per second on the reference host.
    RATE = 0.35
    trace_requests = 1
    METRIC_ALIASES = {
        "throughput_per_s": "fires_per_s",
        "primary_p50_ms": "declare_p50_ms",
        "primary_p90_ms": "declare_p90_ms",
        "secondary_p50_ms": "advance_week_p50_ms",
        "secondary_p90_ms": "advance_week_p90_ms",
    }

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.done: list[tuple[Cycle, list]] = []
        self.fires = 0
        self.requests = 0
        self.errors = 0
        self.counts: Counter = Counter()

    def generate(self) -> None:
        self.stream = cycles(self.seed)
        self.cycle = next(self.stream)

    def setup(self) -> None:
        self.session = self._session(self.cycle)

    @staticmethod
    def _session(cycle: Cycle):
        from repro import Session
        session = Session("Jan 1 1987", horizon_years=30,
                          holiday_years=dates.HOLIDAY_YEARS,
                          clock_start=cycle.start)
        session.db.execute("create table log (rule text, t abstime)")
        return session

    # -- timed run ------------------------------------------------------------

    def run(self, requests: int, recorder=None) -> None:
        """``requests`` cycles; each after the first builds its session
        untimed."""
        for ran in range(requests):
            if ran:
                self.cycle = next(self.stream)
                self.session = self._session(self.cycle)
                gc.collect()
            self._run_cycle(recorder)

    def _request(self, name: str, recorder, fn, *args):
        self.requests += 1
        result, error = common.call(self.samples, name, recorder,
                                    f"request.{name}", fn, *args)
        self.errors += error is not None
        return result, error

    def _advance(self, recorder, until: int) -> None:
        session = self.session
        while session.clock.now < until:
            target = min(session.clock.now + 7, until)
            fired, _e = self._request("advance", recorder,
                                      session.cron.run_until, target)
            self.fires += fired or 0

    def _run_cycle(self, recorder) -> None:
        from repro.db.persist import load_database, save_database
        cycle, session = self.cycle, self.session
        for text in cycle.statements():
            self._request("declare", recorder, session.db.execute, text)
        self._advance(recorder, cycle.mid)
        self._collect_daemon_stats()
        path = common.out_dir("db") / f"{NAME}-{os.getpid()}.json"

        def load():
            loaded = load_database(str(path))
            session.attach_database(loaded, clock_start=cycle.mid)

        try:
            for _ in range(ROUND_TRIPS):
                gc.collect()  # untimed; see common.persist_round_trips
                self._request("save", recorder, save_database, session.db,
                              str(path))
                self.persist_bytes = path.stat().st_size
                self._request("load", recorder, load)
        finally:
            if path.exists():
                path.unlink()
        self._advance(recorder, cycle.end)
        self._collect_daemon_stats()
        rows = session.db.execute("retrieve (l.rule, l.t) from l in log").rows
        self.done.append((cycle, [(r["rule"], r["t"]) for r in rows]))

    def _collect_daemon_stats(self) -> None:
        """Add the lifetime counts of the daemon about to be replaced
        (by the attach at mid-year, or by the next cycle's session)."""
        stats = self.session.rules.stats()
        for key in ("fires", "probes", "reschedules"):
            self.counts[f"rules.dbcron.{key}"] += stats["daemon"][key]
        schedule = stats["schedule"]
        self.counts["rules.wheel.cascades"] += schedule.get("cascades", 0)
        self.counts["rules.wheel.overflow"] = max(
            self.counts["rules.wheel.overflow"], schedule.get("overflow", 0))

    # -- oracle ---------------------------------------------------------------

    def check(self) -> list[str]:
        from repro import Session
        from repro.core.matcache import MaterialisationCache
        from repro.obs.instrument import Instrumentation
        ref = Session("Jan 1 1987", horizon_years=30,
                      holiday_years=dates.HOLIDAY_YEARS, optimize=False,
                      periodic=False, matcache=MaterialisationCache(),
                      instrumentation=Instrumentation())
        memo: dict = {}
        problems: list[str] = []
        for cycle, log in self.done:
            got = Counter(log)
            want: Counter = Counter()
            for name, expression in cycle.rules:
                key = (expression, cycle.year)
                if key not in memo:
                    memo[key] = self._expected(ref, expression, cycle)
                    if isinstance(memo[key], str):
                        problems.append(memo[key])
                        memo[key] = ()
                for t in memo[key]:
                    want[(name, t)] += 1
            for item in (got - want):
                problems.append(f"{cycle.year}: extra or duplicate fire "
                                f"{item} ({got[item]}x)")
            for item in (want - got):
                problems.append(f"{cycle.year}: missing fire {item}")
        ref.close()
        return problems

    @staticmethod
    def _expected(ref, expression: str, cycle: Cycle):
        padded = (dates.text(date(cycle.year - 1, 12, 1)),
                  dates.text(date(cycle.year + 1, 1, 31)))
        value = ref.registry.eval_expression(expression, window=padded,
                                             optimize=False)
        points = sorted({t for lo, hi in value.flatten().to_pairs()
                         for t in range(lo, hi + 1)
                         if cycle.start < t <= cycle.end})
        by_datetime = _datetime_points(expression, cycle.year)
        if by_datetime is not None:
            ticks = sorted(dates.tick(d) for d in by_datetime
                           if cycle.start < dates.tick(d) <= cycle.end)
            if ticks != points:
                return (f"{expression!r} {cycle.year}: the reference path "
                        f"and datetime disagree")
        return tuple(points)

    def plant(self) -> None:
        """Drop one recorded fire (the self-test's wrong answer)."""
        cycle, log = self.done[0]
        self.done[0] = (cycle, log[1:])

    # -- results --------------------------------------------------------------

    def throughput(self) -> tuple[int, float]:
        self.extra["cycles"] = [
            {"year": c.year, "distinct_expressions":
             sorted({e for _n, e in c.rules}), "fires": len(log)}
            for c, log in self.done]
        return self.fires, self.samples.total("advance")

    def rules_counts(self) -> dict:
        return dict(self.counts)

    def user_bytes(self) -> int:
        cycle, log = self.done[-1]
        return len(json.dumps([cycle.statements(), log],
                              separators=(",", ":")))

    def attempted(self) -> int:
        return self.requests

    def failed(self) -> int:
        return self.errors
