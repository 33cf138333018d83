"""Independent date arithmetic for the output oracles.

Written against the standard library (``datetime``) and
``dateutil.rrule`` only, never against the program: day ticks count from
the calendar-system epoch (Jan 1 1987 is tick 1, and there is no tick 0),
weeks run Monday to Sunday, and the market holidays follow the published
US federal schedule with Saturday→Friday and Sunday→Monday observance
(an observed day that would leave its month is dropped).
"""

from __future__ import annotations

import calendar as pycal
from datetime import date, timedelta
from functools import lru_cache

from dateutil.rrule import MONTHLY, WEEKLY, rrule, weekday as rr_weekday

EPOCH = date(1987, 1, 1)
MONTH_ABBR = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug",
              "Sep", "Oct", "Nov", "Dec")
#: First and last year of the HOLIDAYS catalog entry the benchmark installs.
HOLIDAY_YEARS = (1987, 2016)


def tick(day: date) -> int:
    offset = (day - EPOCH).days
    return offset + 1 if offset >= 0 else offset


def day_of(t: int) -> date:
    return EPOCH + timedelta(days=t - 1 if t > 0 else t)


def text(day: date) -> str:
    """The civil-date spelling the program parses (``Mar 1 1995``)."""
    return f"{MONTH_ABBR[day.month - 1]} {day.day} {day.year}"


def year_window(year: int) -> tuple[str, str]:
    return (f"Jan 1 {year}", f"Dec 31 {year}")


def last_day(year: int, month: int) -> int:
    return pycal.monthrange(year, month)[1]


def _nth_weekday(year: int, month: int, wd: int, n: int) -> date:
    """n-th (1-based, -1 = last) weekday ``wd`` (Mon=0) of a month."""
    rule = rrule(MONTHLY, count=1, dtstart=date(year, month, 1),
                 byweekday=rr_weekday(wd)(n))
    return rule[0].date()


@lru_cache(maxsize=None)
def holidays(year: int) -> frozenset:
    """Observed US market holidays of ``year`` as dates."""
    floating = {
        _nth_weekday(year, 1, 0, 3),    # Martin Luther King Jr. Day
        _nth_weekday(year, 2, 0, 3),    # Presidents Day
        _nth_weekday(year, 5, 0, -1),   # Memorial Day
        _nth_weekday(year, 9, 0, 1),    # Labor Day
        _nth_weekday(year, 10, 0, 2),   # Columbus Day
        _nth_weekday(year, 11, 3, 4),   # Thanksgiving
    }
    for month, day in ((1, 1), (7, 4), (11, 11), (12, 25)):
        fixed = date(year, month, day)
        if fixed.weekday() == 5:
            fixed -= timedelta(days=1)
        elif fixed.weekday() == 6:
            fixed += timedelta(days=1)
        if fixed.month == month:
            floating.add(fixed)
    return frozenset(floating)


@lru_cache(maxsize=None)
def holiday_ticks() -> frozenset:
    lo, hi = HOLIDAY_YEARS
    return frozenset(tick(d) for y in range(lo, hi + 1) for d in holidays(y))


def is_business_day(day: date) -> bool:
    """A weekday that is no holiday, inside the HOLIDAYS lifespan."""
    return (day.weekday() < 5 and day not in holidays(day.year)
            and HOLIDAY_YEARS[0] <= day.year <= HOLIDAY_YEARS[1])


def month_days(year: int, month: int):
    return [date(year, month, d) for d in range(1, last_day(year, month) + 1)]


def business_days(year: int, month: int) -> list[date]:
    return [d for d in month_days(year, month) if is_business_day(d)]


def full_weeks(year: int, month: int) -> list[list[date]]:
    """Monday-to-Sunday weeks lying wholly inside the month."""
    first = date(year, month, 1)
    monday = first + timedelta(days=(7 - first.weekday()) % 7)
    weeks = []
    while monday + timedelta(days=6) <= date(year, month,
                                             last_day(year, month)):
        weeks.append([monday + timedelta(days=i) for i in range(7)])
        monday += timedelta(days=7)
    return weeks


def weekdays_in(year: int, month: int, wd: int) -> list[date]:
    """Every weekday ``wd`` (Mon=0) of a month, via ``dateutil.rrule``."""
    start = date(year, month, 1)
    until = date(year, month, last_day(year, month))
    return [d.date() for d in rrule(WEEKLY, dtstart=start, until=until,
                                    byweekday=rr_weekday(wd))]


def ordinal(seq: list, k) -> list:
    """The paper's ``[k]`` selection over a list (``n`` = last, negatives
    count from the end); empty when out of range."""
    if k == "n":
        return seq[-1:]
    k = int(k)
    index = k - 1 if k > 0 else len(seq) + k
    return [seq[index]] if 0 <= index < len(seq) else []


def points(days) -> tuple:
    """Day-instant calendar pairs, the shape ``Calendar.to_pairs`` gives."""
    return tuple((tick(d), tick(d)) for d in sorted(days))
