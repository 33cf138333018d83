"""``cel_mix`` — the calendar path: seeded CEL requests through ``Session.eval``.

The stream interleaves two kinds of request, one client, closed loop:

* **first touch** (half the stream): a text never evaluated before in the
  process, over the one-year window of its anchor year (1988–2016).  The
  shapes are the paper's E1–E8 examples and the Figure 2/3 chains,
  parameterised by year, month, ordinal and weekday, plus ``&``/``-``
  with HOLIDAYS and AM_BUS_DAYS, ``caloperate`` and the three §3.3
  scripts (E8 with ``today=``).  Each pays lexer → parser → factorizer →
  planner → optimizer → PlanVM → periodic compile → basis generation.
* **repeat** (the other half): a small pool of texts re-run over six
  sliding one-year windows, all evaluated once before timing.  These are
  served by the memo and the materialisation cache, as long as the first
  touches do not push them out of the 2048-entry memo.

Shapes appear in a fixed proportion (every block of requests holds each
shape once, in seeded order), so a seed changes parameters and order, not
the mix.  Every result is checked after the timed region against the
reference path (``Session(optimize=False, periodic=False)`` with
``eval_expression(..., optimize=False)``, on a private cache) and, for
the weekday and ordinal shapes, against ``datetime``/``dateutil.rrule``.

Sub-day requests such as ``[9]/HOURS:during:DAYS`` fail with a typed
``GranularityError`` at the time of writing.  They are run as a separate
probe after the timed region and reported in the run's stamp, not mixed
into the stream, because the stream must be free of failing operations.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from datetime import date, timedelta

import common
import dates

NAME = "cel_mix"
YEARS = (1988, 2016)
WEEKDAY_CALS = ("Mondays", "Tuesdays", "Wednesdays", "Thursdays",
                "Fridays", "Saturdays", "Sundays")
MONTH_CALS = ("Januarys", "Februarys", "Marches", "Aprils", "Mays", "Junes",
              "Julys", "Augusts", "Septembers", "Octobers", "Novembers",
              "Decembers")
#: Share of first-touch requests in every block (the rest are repeats).
FIRST_SHARE = 0.5
#: The repeat pool: these texts, each over the same six sliding one-year
#: windows (the seed picks the windows), 48 combinations in all.
POOL = ("[2]/DAYS:during:WEEKS", "AM_BUS_DAYS - HOLIDAYS",
        "[n]/AM_BUS_DAYS:during:MONTHS", "LDOM", "Weekdays & HOLIDAYS",
        "[3]/Fridays:during:MONTHS", "caloperate(MONTHS, *; 3)",
        "Mondays:during:Januarys")
POOL_WINDOWS = 6
#: Sub-day requests probed after the timed region (a known gap).
SUBDAY_PROBE = ("[9]/HOURS:during:DAYS", "[1]/HOURS:during:DAYS",
                "[30]/MINUTES:during:HOURS:during:[1]/DAYS:during:WEEKS")

EMP_DAYS = ("{{LDOM_t = [n]/DAYS:during:[{a}-{b}]/MONTHS:during:{y}/YEARS; "
            "LDOM_HOL = LDOM_t:intersects:HOLIDAYS; "
            "LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL; "
            "return (LDOM_t - LDOM_HOL + LAST_BUS_DAY);}}")
EXPIRATION = ("{{Fris = [5]/DAYS:during:WEEKS; "
              "temp1 = [3]/Fris:overlaps:[{m}]/MONTHS:during:{y}/YEARS; "
              "if (temp1:intersects:HOLIDAYS) "
              "return([n]/AM_BUS_DAYS:<:temp1); else return(temp1);}}")
LAST_TRADING = ("{{ temp1 = [n]/AM_BUS_DAYS:during:[{m}]/MONTHS:during:"
                "{y}/YEARS; temp2 = [-7]/AM_BUS_DAYS:<:temp1; "
                "while (today:<:temp2) ; return (\"LAST TRADING DAY\");}}")


class Request:
    __slots__ = ("kind", "shape", "text", "window", "today", "expected")

    def __init__(self, kind, shape, text, window, today=None,
                 expected=None):
        self.kind = kind          # "first" | "repeat"
        self.shape = shape
        self.text = text
        self.window = window      # (start text, end text)
        self.today = today        # civil-date text or None
        self.expected = expected  # datetime-oracle pairs, or None

    def key(self) -> tuple:
        return (self.text, self.window, self.today)


# -- the first-touch shapes ------------------------------------------------------
# Each takes (rng, year, month) and returns (text, today, datetime oracle).

def _weeks_in_month(rng, y, m):
    weeks = dates.full_weeks(y, m)
    return (f"WEEKS:during:[{m}]/MONTHS:during:{y}/YEARS", None,
            tuple((dates.tick(w[0]), dates.tick(w[-1])) for w in weeks))


def _fig3(rng, y, m):
    k = rng.randint(1, 4)
    return f"[{k}]/WEEKS:overlaps:[{m}]/MONTHS:during:{y}/YEARS", None, None


def _weeks_relaxed(rng, y, m):
    return f"WEEKS.overlaps.[{m}]/MONTHS:during:{y}/YEARS", None, None


def _caloperate(rng, y, m):
    q = rng.choice((3, 5, 7, 10))
    return (f"caloperate(DAYS, *; {q}):during:[{m}]/MONTHS:during:{y}/YEARS",
            None, None)


def _fig2(rng, y, m):
    d = rng.randint(1, 7)
    days = [w[d - 1] for w in dates.full_weeks(y, m)]
    return (f"[{d}]/DAYS:during:WEEKS:during:[{m}]/MONTHS:during:{y}/YEARS",
            None, dates.points(days))


def _fig2_named(rng, y, m):
    # Unlike the factorized text above, the named form keeps the weekday
    # of a week that straddles the month boundary.
    d = rng.randint(1, 7)
    days = dates.weekdays_in(y, m, d - 1)
    return (f"{WEEKDAY_CALS[d - 1]}:during:{MONTH_CALS[m - 1]}:during:"
            f"{y}/YEARS", None, dates.points(days))


def _fig3_named(rng, y, m):
    return f"Third_Weeks:during:{MONTH_CALS[m - 1]}:during:{y}/YEARS", \
        None, None


def _kth_day(rng, y, m):
    k = rng.choice(list(range(1, 29)) + ["n", -2, -3])
    return (f"[{k}]/DAYS:during:[{m}]/MONTHS:during:{y}/YEARS", None,
            dates.points(dates.ordinal(dates.month_days(y, m), k)))


def _kth_weekday(rng, y, m):
    d = rng.randint(1, 7)
    k = rng.choice((1, 2, 3, 4, "n"))
    chosen = dates.ordinal(dates.weekdays_in(y, m, d - 1), k)
    return (f"[{k}]/{WEEKDAY_CALS[d - 1]}:during:[{m}]/MONTHS:during:"
            f"{y}/YEARS", None, dates.points(chosen))


def _bus_and_weekday(rng, y, m):
    d = rng.randint(1, 5)
    chosen = [x for x in dates.business_days(y, m) if x.weekday() == d - 1]
    return (f"(AM_BUS_DAYS & {WEEKDAY_CALS[d - 1]}):during:[{m}]/MONTHS:"
            f"during:{y}/YEARS", None, dates.points(chosen))


def _weekdays_minus_holidays(rng, y, m):
    return (f"(Weekdays - HOLIDAYS):during:[{m}]/MONTHS:during:{y}/YEARS",
            None, dates.points(dates.business_days(y, m)))


def _kth_business_day(rng, y, m):
    k = rng.choice((1, 2, 3, "n", -2))
    chosen = dates.ordinal(dates.business_days(y, m), k)
    return (f"[{k}]/AM_BUS_DAYS:during:[{m}]/MONTHS:during:{y}/YEARS", None,
            dates.points(chosen))


def _holidays_in_month(rng, y, m):
    chosen = [d for d in dates.holidays(y) if d.month == m]
    return (f"HOLIDAYS:during:[{m}]/MONTHS:during:{y}/YEARS", None,
            dates.points(chosen))


def _emp_days(rng, y, m):
    a = rng.randint(1, 12)
    b = rng.randint(a, 12)
    return EMP_DAYS.format(a=a, b=b, y=y), None, None


def _expiration(rng, y, m):
    return EXPIRATION.format(m=m, y=y), None, None


def _last_trading(rng, y, m):
    today = dates.text(date(y, m, dates.last_day(y, m)))
    return LAST_TRADING.format(m=m, y=y), today, None


SHAPES = (
    ("E1.weeks_in_month", _weeks_in_month),
    ("E1.fig3_factorized", _fig3),
    ("E1.weeks_relaxed", _weeks_relaxed),
    ("E1.caloperate", _caloperate),
    ("E4.fig2_factorized", _fig2),
    ("E4.fig2_named", _fig2_named),
    ("E5.fig3_named", _fig3_named),
    ("ordinal.kth_day", _kth_day),
    ("ordinal.kth_weekday", _kth_weekday),
    ("setop.bus_and_weekday", _bus_and_weekday),
    ("setop.weekdays_minus_holidays", _weekdays_minus_holidays),
    ("ordinal.kth_business_day", _kth_business_day),
    ("setop.holidays_in_month", _holidays_in_month),
    ("E6.emp_days", _emp_days),
    ("E7.expiration", _expiration),
    ("E8.last_trading_day", _last_trading),
)


def pool_windows(rng) -> list[tuple[str, str]]:
    """Six one-year windows, each starting one month after the last."""
    year = rng.randint(YEARS[0], YEARS[1] - 1)
    month = rng.randint(1, 7)
    out = []
    for j in range(POOL_WINDOWS):
        start = date(year, month + j, 1)
        end = date(year + 1, month + j, 1) - timedelta(days=1)
        out.append((dates.text(start), dates.text(end)))
    return out


class Stream:
    """The seeded, endless request stream of one run."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{NAME}:{seed}")
        self.windows = pool_windows(self.rng)
        combos = [(t, w) for t in POOL for w in self.windows]
        self.rng.shuffle(combos)
        self.pool_combos = combos
        self._seen: set[str] = set()

    def warmup(self) -> list[Request]:
        return [Request("repeat", "pool", t, w) for t, w in self.pool_combos]

    def _first(self, shape: str, make) -> "Request | None":
        for _ in range(64):
            y = self.rng.randint(*YEARS)
            m = self.rng.randint(1, 12)
            text, today, expected = make(self.rng, y, m)
            if text not in self._seen:
                self._seen.add(text)
                return Request("first", shape, text, dates.year_window(y),
                               today, expected)
        return None

    def __iter__(self):
        repeats = itertools.cycle(self.pool_combos)
        per_block = len(SHAPES)
        n_repeat = round(per_block * (1 - FIRST_SHARE) / FIRST_SHARE)
        while True:
            block = [("first", s) for s in SHAPES] + \
                [("repeat", None)] * n_repeat
            self.rng.shuffle(block)
            for kind, shape in block:
                if kind == "first":
                    request = self._first(*shape)
                    if request is not None:
                        yield request
                else:
                    text, window = next(repeats)
                    yield Request("repeat", "pool", text, window)


def stream_digest(seed: int, n: int = 400) -> str:
    digest = hashlib.sha1()
    for request in itertools.islice(Stream(seed), n):
        digest.update(repr((request.kind, request.key())).encode())
    return digest.hexdigest()


def _canon(value):
    return value.to_pairs() if hasattr(value, "to_pairs") else value


class Workload(common.Workload):
    """Set-up, timed run, oracle check and metrics of ``cel_mix``."""

    name = NAME
    PRIMARY = "first"
    SECONDARY = "repeat"
    RATE = 150.0
    trace_requests = 500
    METRIC_ALIASES = {
        "throughput_per_s": "evals_per_s",
        "primary_p50_ms": "eval_first_p50_ms",
        "primary_p90_ms": "eval_first_p90_ms",
        "secondary_p50_ms": "eval_repeat_p50_ms",
        "secondary_p90_ms": "eval_repeat_p90_ms",
    }

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.results: list[tuple[Request, object, object]] = []

    # -- set-up ---------------------------------------------------------------

    def generate(self) -> None:
        self.stream = Stream(self.seed)

    def setup(self) -> None:
        from repro import Session
        self.session = Session("Jan 1 1987", horizon_years=30,
                               holiday_years=dates.HOLIDAY_YEARS)
        define_paper_calendars(self.session.registry)

    # -- timed run ------------------------------------------------------------

    def run(self, requests: int, recorder=None) -> None:
        session = self.session
        for request in self.stream.warmup():
            session.eval(request.text, window=request.window)
        stream = iter(self.stream)
        for _ in range(requests):
            request = next(stream)
            value, error = common.call(
                self.samples, request.kind, recorder, "request.eval",
                session.eval, request.text, window=request.window,
                today=request.today)
            self.results.append((request, _canon(value), error))
        self.save_load(recorder)

    def save_load(self, recorder) -> None:
        """Persistence round trips of the session database (the catalog)."""
        names = sorted(record.name for record in self.session.registry.table)

        def verify(loaded) -> list[str]:
            got = sorted(record.name for record in loaded.calendars.table)
            return [] if got == names else ["catalog changed across "
                                            "save/load"]

        self.persist_bytes, self.persist_problems = \
            common.persist_round_trips(self, recorder, rounds=100,
                                       verify=verify)

    # -- oracle ---------------------------------------------------------------

    def check(self) -> list[str]:
        from repro import Session
        from repro.core.matcache import MaterialisationCache
        from repro.errors import ReproError
        from repro.obs.instrument import Instrumentation
        ref = Session("Jan 1 1987", horizon_years=30,
                      holiday_years=dates.HOLIDAY_YEARS, optimize=False,
                      periodic=False, matcache=MaterialisationCache(),
                      instrumentation=Instrumentation())
        define_paper_calendars(ref.registry)
        registry = ref.registry
        memo: dict = {}
        problems: list[str] = []
        for request, got, error in self.results:
            key = request.key()
            if key not in memo:
                try:
                    if request.text.lstrip().startswith("{"):
                        value = registry.eval_script(
                            request.text, window=request.window,
                            today=request.today)
                    else:
                        value = registry.eval_expression(
                            request.text, window=request.window,
                            optimize=False)
                    memo[key] = (_canon(value), None)
                except ReproError as exc:
                    memo[key] = (None, type(exc).__name__)
            want, want_error = memo[key]
            got_error = type(error).__name__ if error is not None else None
            if got_error != want_error:
                problems.append(f"{request.text!r} {request.window}: error "
                                f"{got_error} vs reference {want_error}")
            elif got != want:
                problems.append(f"{request.text!r} {request.window}: result "
                                f"differs from the reference path")
            elif request.expected is not None and got != request.expected:
                problems.append(f"{request.text!r} {request.window}: result "
                                f"differs from the datetime oracle")
        problems.extend(self.persist_problems)
        self.extra["subday_probe"] = self._subday_probe(ReproError)
        ref.close()
        return problems

    def _subday_probe(self, typed_error) -> dict:
        errors: dict[str, str] = {}
        for text in SUBDAY_PROBE:
            try:
                self.session.eval(text, window=dates.year_window(1995))
            except typed_error as exc:
                errors[text] = type(exc).__name__
        return {"attempted": len(SUBDAY_PROBE), "typed_errors": errors}

    def plant(self) -> None:
        """Corrupt one recorded result (the self-test's wrong answer)."""
        request, got, error = self.results[0]
        self.results[0] = (request, (got or ()) + ((0, 0),), error)

    # -- results --------------------------------------------------------------

    def throughput(self) -> tuple[int, float]:
        s = self.samples
        first = s.count("first")
        self.extra["stream"] = {
            "first_share": first / len(self.results),
            "pool_texts": len(POOL), "pool_windows": POOL_WINDOWS,
            "pool_size": len(POOL) * POOL_WINDOWS}
        return len(self.results), s.total("first") + s.total("repeat")

    def user_bytes(self) -> int:
        """Bytes of what the user put in the database: the catalog's
        derivation scripts and explicit values, as compact JSON."""
        return len(json.dumps([
            [r.name, r.derivation_script,
             r.values.to_pairs() if r.values is not None else None]
            for r in self.session.registry.table], separators=(",", ":")))

    def attempted(self) -> int:
        return len(self.results)

    def failed(self) -> int:
        return sum(error is not None for _r, _v, error in self.results)


def define_paper_calendars(registry) -> None:
    """The month calendars and ``Third_Weeks`` of Figures 2 and 3."""
    for month, name in enumerate(MONTH_CALS, start=1):
        registry.define(name,
                        script=f"{{return([{month}]/MONTHS:during:YEARS);}}",
                        granularity="MONTHS")
    registry.define("Third_Weeks",
                    script="{return([3]/WEEKS:overlaps:MONTHS);}",
                    granularity="WEEKS")
