"""``vt_query`` — the query path: seeded Postquel through ``Database.execute``.

Data (seeded): a valid-time ``trades(id, sym, day, qty)`` relation of
50 000 rows over ten years with an ordered index on ``sym``, and two
interval relations ``ia``/``ib(id, grp, lo, hi)`` of 20 000 rows each.

Requests (one client, closed loop, a fixed mix per block of 17 in seeded
order): ``within`` a small pool of calendars, ``on AM_BUS_DAYS``, indexed
filters, aggregates, equi-joins and ``overlaps``/``during`` joins, plus
two ``append`` batches of 50 rows to ``trades`` (a ninth of the
requests).  The calendar pool is resolved before timing, so the executor,
the vector classifier, the join kernels and storage do the work here, not
the calendar path.

Every retrieve is checked, outside its timing, against plain Python over
the benchmark's own copy of the rows (kept in step with the appends);
membership in the calendars comes from ``datetime`` (see ``dates.py``).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random

import common
import dates

NAME = "vt_query"
N_TRADES = 50_000
N_INTERVALS = 20_000
N_SYMBOLS = 200
N_GROUPS = 50
APPEND_BATCH = 50
#: The calendars ``within`` probes, by name or expression.
CALENDAR_POOL = ("Mondays", "LDOM", "[15]/DAYS:during:MONTHS", "HOLIDAYS",
                 "[n]/AM_BUS_DAYS:during:MONTHS")
#: Request kinds of one block, in fixed proportion (order is seeded): five
#: cheap indexed lookups and aggregates, six mid-weight scans and joins,
#: four heavy joins and calendar scans, and two append batches (a ninth
#: of the requests).  The proportions put the median inside the
#: mid-weight group and p90 inside the heavy one, not on a boundary
#: between groups, where a percentile jumps.
BLOCK = ("sym_lookup", "sym_range", "agg_sum", "agg_minmax", "within_sym",
         "on_bus_sym", "equi_trades_ia", "equi_ia_ib", "day_range",
         "within_count", "within_count",
         "overlaps_grp", "during_grp", "on_bus_count", "overlaps_all",
         "append", "append")


def _member(calendar: str, t: int) -> bool:
    day = dates.day_of(t)
    if calendar == "Mondays":
        return day.weekday() == 0
    if calendar == "LDOM":
        return day.day == dates.last_day(day.year, day.month)
    if calendar == "[15]/DAYS:during:MONTHS":
        return day.day == 15
    if calendar == "HOLIDAYS":
        return t in dates.holiday_ticks()
    if calendar == "[n]/AM_BUS_DAYS:during:MONTHS":
        return day == dates.business_days(day.year, day.month)[-1]
    if calendar == "AM_BUS_DAYS":
        return dates.is_business_day(day)
    raise KeyError(calendar)


class Data:
    """The seeded rows, and the plain-Python oracle over them."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{NAME}:{seed}")
        self.seed = seed
        first = rng.randint(1990, 2007)
        self.lo = dates.tick(dates.date(first, 1, 1))
        self.hi = dates.tick(dates.date(first + 9, 12, 31))
        self.symbols = [f"S{i:03d}" for i in range(N_SYMBOLS)]
        self.trades = [(i, rng.choice(self.symbols),
                        rng.randint(self.lo, self.hi), rng.randint(1, 1000))
                       for i in range(N_TRADES)]
        self.ia = self._intervals(rng)
        self.ib = self._intervals(rng)
        self.next_id = 10 * N_TRADES
        self._members: dict[str, frozenset] = {}
        self._by_sym: dict[str, list] = {}
        for row in self.trades:
            self._by_sym.setdefault(row[1], []).append(row)
        self._b_lo = sorted(r[2] for r in self.ib)
        self._b_hi = sorted(r[3] for r in self.ib)
        self._a_by_lo = sorted(self.ia, key=lambda r: r[2])
        self._a_lo_keys = [r[2] for r in self._a_by_lo]
        self._memo: dict = {}

    def _intervals(self, rng) -> list[tuple]:
        out = []
        for i in range(N_INTERVALS):
            lo = rng.randint(self.lo, self.hi)
            out.append((i, rng.randrange(N_GROUPS), lo, lo + rng.randint(0, 3)))
        return out

    def members(self, calendar: str) -> frozenset:
        if calendar not in self._members:
            self._members[calendar] = frozenset(
                t for t in range(self.lo, self.hi + 1)
                if _member(calendar, t))
        return self._members[calendar]

    def append(self, rows: list[tuple]) -> None:
        self.trades.extend(rows)
        for row in rows:
            self._by_sym.setdefault(row[1], []).append(row)

    # -- oracle answers, as sorted row tuples ----------------------------------

    def answer(self, kind: str, p: dict) -> list:
        if kind == "within_count":
            cal = self.members(p["cal"])
            return [(sum(1 for r in self.trades if r[2] in cal),)]
        if kind == "within_sym":
            cal = self.members(p["cal"])
            return sorted((r[0], r[3]) for r in self._by_sym[p["sym"]]
                          if r[2] in cal)
        if kind == "on_bus_sym":
            cal = self.members("AM_BUS_DAYS")
            return sorted((r[0],) for r in self._by_sym[p["sym"]]
                          if r[2] in cal)
        if kind == "on_bus_count":
            cal = self.members("AM_BUS_DAYS")
            return [(sum(1 for r in self.trades if r[2] in cal),)]
        if kind == "sym_lookup":
            return sorted((r[0], r[2], r[3]) for r in self._by_sym[p["sym"]])
        if kind == "sym_range":
            return sorted((r[0],) for r in self._by_sym[p["sym"]]
                          if r[3] > p["q"])
        if kind == "agg_sum":
            rows = self._by_sym[p["sym"]]
            return [(len(rows), sum(r[3] for r in rows))]
        if kind == "agg_minmax":
            rows = self._by_sym[p["sym"]]
            return [(max(r[3] for r in rows), min(r[2] for r in rows))]
        if kind == "day_range":
            return [(sum(1 for r in self.trades if p["a"] <= r[2] <= p["b"]),)]
        if kind == "equi_trades_ia":
            return [(sum(1 for r in self._by_sym[p["sym"]]
                         if r[0] < N_INTERVALS),)]
        key = (kind, p.get("g"))
        if key not in self._memo:
            self._memo[key] = self._interval_answer(kind, p.get("g"))
        return self._memo[key]

    def _interval_answer(self, kind: str, g) -> list:
        if kind == "equi_ia_ib":
            return [(sum(1 for r in self.ia if r[1] == g),)]
        if kind in ("overlaps_grp", "overlaps_all"):
            total = 0
            for _i, grp, lo, hi in self.ia:
                if kind == "overlaps_grp" and grp != g:
                    continue
                # b overlaps a  <=>  b.lo <= a.hi and b.hi >= a.lo
                total += (bisect.bisect_right(self._b_lo, hi)
                          - bisect.bisect_left(self._b_hi, lo))
            return [(total,)]
        if kind == "during_grp":
            total = 0
            for _i, grp, blo, bhi in self.ib:
                if grp != g:
                    continue
                start = bisect.bisect_left(self._a_lo_keys, blo)
                stop = bisect.bisect_right(self._a_lo_keys, bhi)
                total += sum(1 for r in self._a_by_lo[start:stop]
                             if r[3] <= bhi)
            return [(total,)]
        raise KeyError(kind)


QUERIES = {
    "within_count": 'retrieve (count()) from t in trades '
                    'where t.day within "{cal}"',
    "within_sym": 'retrieve (t.id, t.qty) from t in trades '
                  'where t.sym = "{sym}" and t.day within "{cal}"',
    "on_bus_sym": 'retrieve (t.id) from t in trades where t.sym = "{sym}" '
                  'on AM_BUS_DAYS',
    "on_bus_count": 'retrieve (count()) from t in trades on AM_BUS_DAYS',
    "sym_lookup": 'retrieve (t.id, t.day, t.qty) from t in trades '
                  'where t.sym = "{sym}"',
    "sym_range": 'retrieve (t.id) from t in trades '
                 'where t.sym = "{sym}" and t.qty > {q}',
    "agg_sum": 'retrieve (count(), sum(t.qty) as total) from t in trades '
               'where t.sym = "{sym}"',
    "agg_minmax": 'retrieve (max(t.qty) as top, min(t.day) as first) '
                  'from t in trades where t.sym = "{sym}"',
    "day_range": 'retrieve (count()) from t in trades '
                 'where t.day >= {a} and t.day <= {b}',
    "equi_trades_ia": 'retrieve (count()) from t in trades, a in ia '
                      'where t.id = a.id and t.sym = "{sym}"',
    "equi_ia_ib": 'retrieve (count()) from a in ia, b in ib '
                  'where a.id = b.id and a.grp = {g}',
    "overlaps_grp": 'retrieve (count()) from a in ia, b in ib '
                    'where a.grp = {g} and overlaps(a.lo, a.hi, b.lo, b.hi)',
    "during_grp": 'retrieve (count()) from a in ia, b in ib '
                  'where during(a.lo, a.hi, b.lo, b.hi) and b.grp = {g}',
    "overlaps_all": 'retrieve (count()) from a in ia, b in ib '
                    'where overlaps(a.lo, a.hi, b.lo, b.hi)',
}


class Request:
    __slots__ = ("kind", "params", "texts", "rows")

    def __init__(self, kind, params, texts, rows=None):
        self.kind = kind
        self.params = params
        self.texts = texts    # one statement, or one per appended row
        self.rows = rows      # appended rows (append batches only)


def iter_requests(data: Data):
    """The endless seeded request stream over ``data``."""
    rng = random.Random(f"{NAME}:stream:{data.seed}")
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "append":
                rows = []
                for _ in range(APPEND_BATCH):
                    rows.append((data.next_id, rng.choice(data.symbols),
                                 rng.randint(data.lo, data.hi),
                                 rng.randint(1, 1000)))
                    data.next_id += 1
                texts = [f'append trades (id = {i}, sym = "{s}", day = {d}, '
                         f'qty = {q})' for i, s, d, q in rows]
                yield Request(kind, {}, texts, rows)
                continue
            a = rng.randint(data.lo, data.hi - 30)
            p = {"cal": rng.choice(CALENDAR_POOL),
                 "sym": rng.choice(data.symbols), "q": rng.randint(1, 999),
                 "g": rng.randrange(N_GROUPS), "a": a,
                 "b": a + rng.randint(0, 30)}
            yield Request(kind, p, [QUERIES[kind].format(**p)])


def stream_digest(seed: int, n: int = 400) -> str:
    digest = hashlib.sha1()
    for request in itertools.islice(iter_requests(Data(seed)), n):
        digest.update(repr((request.kind, request.texts)).encode())
    return digest.hexdigest()


def _rows(result) -> list:
    return sorted(tuple(row.values()) for row in result.rows)


class Workload(common.Workload):
    """Set-up, timed run, oracle check and metrics of ``vt_query``."""

    name = NAME
    PRIMARY = "query"
    SECONDARY = "append"
    RATE = 16.0
    trace_requests = 200
    METRIC_ALIASES = {
        "throughput_per_s": "queries_per_s",
        "primary_p50_ms": "query_p50_ms",
        "primary_p90_ms": "query_p90_ms",
        "secondary_p50_ms": "append_p50_ms",
        "secondary_p90_ms": "append_p90_ms",
    }

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.answers: list[tuple] = []
        self.count = 0
        self.errors = 0
        self.result_rows = 0

    def generate(self) -> None:
        self.data = Data(self.seed)

    def setup(self) -> None:
        from repro import Session
        self.session = Session("Jan 1 1987", horizon_years=30,
                               holiday_years=dates.HOLIDAY_YEARS)
        db = self.session.db
        db.execute("create table trades (id int4, sym text, day abstime, "
                   "qty int4) valid time day")
        db.execute("create table ia (id int4, grp int4, lo abstime, "
                   "hi abstime)")
        db.execute("create table ib (id int4, grp int4, lo abstime, "
                   "hi abstime)")
        fields = {"trades": ("id", "sym", "day", "qty"),
                  "ia": ("id", "grp", "lo", "hi"),
                  "ib": ("id", "grp", "lo", "hi")}
        for name, rows in (("trades", self.data.trades),
                           ("ia", self.data.ia), ("ib", self.data.ib)):
            names = fields[name]
            db.relation(name).insert_many(
                [dict(zip(names, row)) for row in rows], fire_hooks=False)
        db.execute("create index on trades (sym)")

    def run(self, requests: int, recorder=None) -> None:
        db = self.session.db
        for cal in CALENDAR_POOL:  # warm-up: resolve the calendar pool
            db.execute(QUERIES["within_count"].format(cal=cal))
        db.execute(QUERIES["on_bus_count"])
        stream = iter_requests(self.data)
        for _ in range(requests):
            request = next(stream)
            self.count += 1
            if request.kind == "append":
                _r, error = common.call(self.samples, "append", recorder,
                                        "request.append", _append_batch, db,
                                        request.texts)
            else:
                result, error = common.call(self.samples, "query", recorder,
                                            "request.query", db.execute,
                                            request.texts[0])
            self._record(request, result if request.kind != "append"
                         else None, error)
        self.save_load(recorder)

    def _record(self, request: Request, result, error) -> None:
        """Keep the result beside the oracle's answer (both untimed)."""
        if error is not None:
            self.errors += 1
            return
        if request.kind == "append":
            self.data.append(request.rows)
            return
        got = _rows(result)
        self.result_rows += len(got)
        self.answers.append((request.texts[0], got,
                             self.data.answer(request.kind, request.params)))

    def save_load(self, recorder) -> None:
        want = sorted(self.data.trades)

        def verify(loaded) -> list[str]:
            rows = loaded.execute("retrieve (t.id, t.sym, t.day, t.qty) "
                                  "from t in trades").rows
            got = sorted(tuple(r.values()) for r in rows)
            problems = [] if got == want else ["trades changed across "
                                               "save/load"]
            if "sym" not in loaded.relation("trades").indexes:
                problems.append("index on trades(sym) lost across save/load")
            return problems

        self.persist_bytes, self.persist_problems = \
            common.persist_round_trips(self, recorder, rounds=8,
                                       verify=verify)

    def check(self) -> list[str]:
        problems = [f"{text!r}: {len(got)} rows differ from the oracle"
                    for text, got, want in self.answers if got != want]
        return problems + self.persist_problems

    def plant(self) -> None:
        """Corrupt one recorded result (the self-test's wrong answer)."""
        text, got, want = self.answers[0]
        self.answers[0] = (text, got + [(-1,)], want)

    def throughput(self) -> tuple[int, float]:
        s = self.samples
        return self.count, s.total("query") + s.total("append")

    def user_bytes(self) -> int:
        d = self.data
        return len(json.dumps([d.trades, d.ia, d.ib], separators=(",", ":")))

    def attempted(self) -> int:
        return self.count

    def failed(self) -> int:
        return self.errors


def _append_batch(db, texts: list[str]) -> None:
    for text in texts:
        db.execute(text)
