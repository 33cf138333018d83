"""Property-based parity: the timing wheel ≡ the legacy heap scheduler.

For random rule sets (random explicit calendars and probe periods), a
wheel-scheduled daemon must fire exactly the same (rule, tick)
sequence as a heap-scheduled one.  Order *within* one tick is normalised
— both schedulers are deterministic, but the contract is per-tick set
equality plus cross-tick ordering, and that is what downstream rule
semantics depend on.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog import CalendarRegistry
from repro.core import CalendarSystem
from repro.db import Database
from repro.rules import DBCron, HeapSchedule, RuleManager, SimulatedClock
from repro.rules.wheel import WheelSchedule

rule_schedules = st.lists(
    st.lists(st.integers(min_value=5, max_value=400),
             min_size=1, max_size=10, unique=True),
    min_size=1, max_size=5)
periods = st.integers(min_value=1, max_value=40)


def run_daemon(schedules, period, scheduler):
    """Fire a rule set to completion; [(tick, {rules fired at tick})]."""
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    cron = DBCron(manager, clock, period=period, scheduler=scheduler)
    fired: list[tuple[int, str]] = []
    for i, days in enumerate(schedules):
        registry.define(f"S{i}", values=[(d, d) for d in sorted(days)],
                        granularity="DAYS")
        manager.declare_temporal(
            f"rule{i}", expression=f"S{i}",
            callback=(lambda n: lambda d, t: fired.append((t, n)))(
                f"rule{i}"), after=1)
    cron.run_until(450)
    # Normalise within-tick order: per-tick sets, cross-tick sequence.
    waves: list[tuple[int, set]] = []
    for tick, name in fired:
        if waves and waves[-1][0] == tick:
            waves[-1][1].add(name)
        else:
            waves.append((tick, {name}))
    return waves


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rule_schedules, periods)
def test_wheel_fires_identically_to_heap(schedules, period):
    heap_waves = run_daemon(schedules, period, "heap")
    wheel_waves = run_daemon(schedules, period, "wheel")
    assert wheel_waves == heap_waves, \
        f"period={period}: wheel {wheel_waves} != heap {heap_waves}"


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.text(alphabet="abcdef", min_size=1,
                                  max_size=6),
                          st.integers(min_value=2, max_value=200)),
                min_size=1, max_size=30))
def test_schedule_pop_parity_on_raw_arms(arms):
    """The bare strategy objects agree, whatever the arm stream.

    Both pop a wave in arm order, so the waves match exactly, order
    within a tick included.
    """
    heap, wheel = HeapSchedule(), WheelSchedule(1, slots=(4, 4, 4))
    for name, tick in arms:
        assert heap.schedule(name, tick) == wheel.schedule(name, tick)
    assert len(heap) == len(wheel)

    def waves(sched):
        out = []
        while True:
            wave = sched.pop_wave(500)
            if not wave:
                return out
            out.append(wave)

    assert waves(wheel) == waves(heap)
