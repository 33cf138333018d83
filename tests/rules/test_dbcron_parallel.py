"""DBCRON same-tick waves: every rule fires once, in arm order, counted once.

Rules due at the *same* fire tick form a wave; the daemon fires a wave's
rules one after another on the calling thread, in the order they were
armed, and waves for different ticks stay strictly ordered.
"""

import pytest

from repro.obs.instrument import Instrumentation
from repro.rules import DBCron, RuleManager, SimulatedClock
from repro.session import Session


@pytest.fixture()
def cron_stack(db):
    """(db, manager, clock, cron) under the default scheduler."""
    manager = RuleManager(db)
    clock = SimulatedClock(now=db.system.day_of("Jan 1 1993"))
    cron = DBCron(manager, clock, period=7)
    return db, manager, clock, cron


def _define(manager, clock, name, expr, log):
    manager.declare_temporal(
        name, expression=expr,
        callback=lambda d, t, n=name: log.append((n, t)),
        after=clock.now)


class TestSameTickWave:
    def test_same_tick_rules_all_fire_once(self, cron_stack):
        db, manager, clock, cron = cron_stack
        log = []
        # Six rules sharing one trigger calendar: a single wave per tick.
        for i in range(6):
            _define(manager, clock, f"tue_{i}",
                    "[2]/DAYS:during:WEEKS", log)
        cron.run_until(db.system.day_of("Feb 1 1993"))
        by_rule = {}
        for name, tick in log:
            by_rule.setdefault(name, []).append(tick)
        assert len(by_rule) == 6
        ticks = list(by_rule.values())
        # Every rule fired on exactly the same tick sequence, once each.
        assert all(t == ticks[0] for t in ticks)
        assert len(ticks[0]) == len(set(ticks[0]))

    def test_wave_fires_in_arm_order(self, db):
        # The wheel arms each rule as it is declared and re-armed, so
        # arm order is declaration order.  (The heap arms in RULE_TIME
        # probe order; test_wheel_props pins its per-tick fire sets to
        # the wheel's.)
        manager = RuleManager(db)
        clock = SimulatedClock(now=db.system.day_of("Jan 1 1993"))
        cron = DBCron(manager, clock, period=7, scheduler="wheel")
        log = []
        # Names armed against their sort order, two calendars whose
        # waves interleave: ticks ascend, and within each tick the
        # rules fire in the order they were declared.
        names = ["zeta", "alpha", "mu", "beta"]
        for name in names:
            _define(manager, clock, name, "[2]/DAYS:during:WEEKS", log)
        _define(manager, clock, "fri", "[5]/DAYS:during:WEEKS", log)
        cron.run_until(db.system.day_of("Mar 1 1993"))
        ticks = [tick for _, tick in log]
        assert ticks == sorted(ticks)
        waves = {}
        for name, tick in log:
            waves.setdefault(tick, []).append(name)
        tuesday_waves = [w for w in waves.values() if w != ["fri"]]
        assert tuesday_waves
        assert all(w == names for w in tuesday_waves)


class TestWaveMetrics:
    def test_fire_seconds_counted_per_fire(self):
        session = Session("Jan 1 1987", holiday_years=(1993, 1994),
                          instrumentation=Instrumentation())
        log = []
        for i in range(3):
            _define(session.manager, session.clock, f"m{i}",
                    "[2]/DAYS:during:WEEKS", log)
        session.cron.run_until(session.system.day_of("Feb 1 1993"))
        assert log
        snap = session.metrics()
        assert snap["dbcron.fires"] == len(log)
        assert snap["dbcron.fire_seconds"]["count"] == len(log)
