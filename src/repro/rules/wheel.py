"""Hierarchical timing-wheel scheduling for DBCRON at alerting scale.

The legacy DBCRON schedule (a binary heap refilled by periodic RULE_TIME
probes) pays ``O(log n)`` per push/pop *plus* a full catalog probe every
period — per probe it walks the RULE_TIME index, materialises a row dict
per due rule and sorts the result.  At 10⁵–10⁶ registered rules the probe
dominates everything else the daemon does.

This module replaces that schedule with a **hierarchical timing wheel**
(Varghese & Lauck): time is bucketed into slots whose span grows
geometrically per level, so arming a trigger is an O(1) list append and
advancing the clock one tick touches exactly one level-0 slot (plus an
amortised-O(1) cascade when a coarser slot's window opens).  Because the
wheel holds *arbitrarily* far futures — coarse levels plus a far-future
overflow heap — DBCRON no longer needs a probe horizon at all: rule
(re)arms go straight into a bucket and RULE_TIME becomes a durability
record instead of the scheduling hot path.

Staleness is handled by **generation counters**, shared with the fixed
heap schedule (see ``docs/IMPLEMENTATION_NOTES.md`` §11): every push
records a per-name generation, cancel/redefine bumps it, and dead
entries are simply skipped when their slot comes up (lazy deletion —
cancelling never searches a bucket).  A per-name *fired-at* watermark
additionally refuses re-arms at or before the last popped tick, closing
the probe-vs-in-flight-fire double-fire race of the legacy daemon.

All wheel arithmetic happens in linear coordinates (``t - 1`` for
positive axis ticks), removing the axis' zero skip exactly like
:mod:`repro.core.periodic` does.
"""

from __future__ import annotations

import heapq
import threading

from repro.core.errors import AxisError

__all__ = ["HierarchicalWheel", "WheelSchedule", "DEFAULT_SLOTS"]

#: Default slot counts per level: 512 one-tick slots, then 64 slots of
#: 512 ticks, then 64 slots of 32 768 ticks — ~2.1M day ticks (~5 700
#: years) of native coverage before the overflow heap is touched.
DEFAULT_SLOTS = (512, 64, 64)


def _lin(tick: int) -> int:
    """Axis tick -> linear coordinate (removes the zero skip)."""
    return tick - 1 if tick > 0 else tick


def _unlin(lin: int) -> int:
    """Linear coordinate -> axis tick."""
    return lin + 1 if lin >= 0 else lin


class HierarchicalWheel:
    """Slotted time, cascading, far-future overflow.

    Entries are opaque ``(seq, name, gen)`` triples keyed by a linear
    tick; the wheel never inspects them beyond the tick.  Not
    thread-safe — the owning :class:`WheelSchedule` serialises access.
    """

    def __init__(self, now_lin: int,
                 slots: tuple[int, ...] = DEFAULT_SLOTS) -> None:
        if len(slots) < 2 or any(s < 2 for s in slots):
            raise AxisError("wheel levels need at least 2 slots each")
        self._slots = tuple(slots)
        #: Per-slot tick span of each level: 1, s0, s0*s1, ...
        self._spans = [1]
        for count in slots[:-1]:
            self._spans.append(self._spans[-1] * count)
        #: Ticks covered by the slotted levels before overflow kicks in.
        self.capacity = self._spans[-1] * slots[-1]
        self._levels: list[list[list]] = [
            [[] for _ in range(count)] for count in slots]
        #: Far-future entries as a (tick, seq, name, gen) min-heap.
        self._overflow: list[tuple] = []
        #: Everything at or before the cursor has been handed out.
        self.cursor = now_lin
        #: Due entries waiting to be popped: tick -> [(seq, name, gen)].
        self._ripe: dict[int, list] = {}
        self._ripe_ticks: list[int] = []
        #: Cascade operations performed (observability).
        self.cascades = 0

    # -- arming ---------------------------------------------------------------

    def push(self, tick_lin: int, seq: int, name: str, gen: int) -> None:
        """File one entry under its linear tick (O(1) amortised)."""
        delta = tick_lin - self.cursor
        if delta <= 0:
            self._ripen(tick_lin, (seq, name, gen))
            return
        if delta >= self.capacity:
            heapq.heappush(self._overflow, (tick_lin, seq, name, gen))
            return
        # delta < capacity guarantees some level accepts the entry:
        # capacity is exactly the last level's span * slot count.
        for level in range(len(self._slots)):
            span = self._spans[level]
            if delta < span * self._slots[level]:
                slot = (tick_lin // span) % self._slots[level]
                self._levels[level][slot].append(
                    (tick_lin, seq, name, gen))
                return

    def _ripen(self, tick_lin: int, entry: tuple) -> None:
        bucket = self._ripe.get(tick_lin)
        if bucket is None:
            self._ripe[tick_lin] = [entry]
            heapq.heappush(self._ripe_ticks, tick_lin)
        else:
            bucket.append(entry)

    # -- advancing ------------------------------------------------------------

    def advance_to(self, now_lin: int) -> None:
        """Move the cursor to ``now_lin``, ripening every due entry.

        Walks tick by tick; each step is one level-0 slot take plus a
        boundary check per coarser level, so a jump of K ticks costs
        O(K) regardless of how many rules are registered.
        """
        while self.cursor < now_lin:
            self.cursor += 1
            cursor = self.cursor
            # Cascade coarse slots whose window opens at this tick,
            # coarsest first so re-pushed entries can land a level down
            # and still be re-examined by the finer cascade below.
            for level in range(len(self._slots) - 1, 0, -1):
                span = self._spans[level]
                if cursor % span == 0:
                    self._cascade(level, (cursor // span)
                                  % self._slots[level])
            if self._overflow and cursor % self._spans[-1] == 0:
                self._drain_overflow()
            slot = self._levels[0][cursor % self._slots[0]]
            if slot:
                self._levels[0][cursor % self._slots[0]] = []
                for tick_lin, seq, name, gen in slot:
                    self._ripen(tick_lin, (seq, name, gen))

    def _cascade(self, level: int, slot: int) -> None:
        entries = self._levels[level][slot]
        if not entries:
            return
        self._levels[level][slot] = []
        self.cascades += 1
        for tick_lin, seq, name, gen in entries:
            self.push(tick_lin, seq, name, gen)

    def _drain_overflow(self) -> None:
        bound = self.cursor + self.capacity
        while self._overflow and self._overflow[0][0] < bound:
            tick_lin, seq, name, gen = heapq.heappop(self._overflow)
            self.push(tick_lin, seq, name, gen)

    # -- popping --------------------------------------------------------------

    def peek_tick(self) -> int | None:
        """The earliest ripe linear tick, or None."""
        return self._ripe_ticks[0] if self._ripe_ticks else None

    def take_tick(self, tick_lin: int) -> list:
        """Remove and return the ripe ``(seq, name, gen)`` entries of a tick."""
        entries = self._ripe.pop(tick_lin, [])
        if self._ripe_ticks and self._ripe_ticks[0] == tick_lin:
            heapq.heappop(self._ripe_ticks)
        return entries

    @property
    def overflow_size(self) -> int:
        return len(self._overflow)


class WheelSchedule:
    """The timing wheel behind :class:`~repro.rules.dbcron.DBCron`.

    Implements the schedule strategy protocol shared with
    :class:`~repro.rules.dbcron.HeapSchedule`:

    * ``schedule(name, tick)`` — arm (idempotent; False when refused),
    * ``cancel(name)`` — disarm and forget the fired-at watermark,
    * ``pop_wave(now)`` — the earliest due same-tick wave, as
      ``(tick, name)`` pairs in arm order,
    * ``len()`` — live armed rules.

    Unlike the heap, the wheel holds the *entire* future: DBCRON's probe
    horizon does not apply (``bounded_horizon`` is False) and the only
    RULE_TIME scan ever performed is the one-time synchronisation of
    rules declared before the daemon existed.
    """

    #: The daemon must not filter arms through its probe horizon.
    bounded_horizon = False

    def __init__(self, now: int,
                 slots: tuple[int, ...] = DEFAULT_SLOTS) -> None:
        self._slots = slots
        self._wheel = HierarchicalWheel(_lin(now), slots)
        #: Guards the wheel and both liveness maps.
        self._lock = threading.Lock()
        #: Monotonic generation source: every arm gets a fresh value, so
        #: a dead wheel entry can never impersonate a later incarnation.
        #: It doubles as the arm sequence that orders a wave.
        self._arm_counter = 0
        #: Live armament per rule name: (axis tick, generation).  An
        #: entry in the wheel is real only while its (tick, gen) pair is
        #: recorded here — cancel/redefine just re-points or drops the
        #: record and the wheel entry dies in place.
        self._scheduled: dict[str, tuple[int, int]] = {}
        #: Last tick actually handed to the daemon per rule name; arms
        #: at or before it are refused (anti double-fire watermark).
        self._fired_at: dict[str, int] = {}

    # -- strategy protocol ----------------------------------------------------

    def schedule(self, name: str, tick: int) -> bool:
        """Arm ``name`` at axis ``tick``; False when dup or watermarked."""
        with self._lock:
            current = self._scheduled.get(name)
            if current is not None and current[0] == tick:
                return False  # already armed at this tick
            fired = self._fired_at.get(name)
            if fired is not None and tick <= fired:
                return False  # stale re-arm at/before the last fire
            self._arm_counter += 1
            gen = self._arm_counter
            self._scheduled[name] = (tick, gen)
            self._wheel.push(_lin(tick), gen, name, gen)
        return True

    def cancel(self, name: str) -> None:
        """Disarm ``name``; its wheel entries die in place."""
        with self._lock:
            self._scheduled.pop(name, None)
            self._fired_at.pop(name, None)

    def pop_wave(self, now: int) -> list[tuple[int, str]]:
        """All live entries of the earliest due tick, in arm order.

        Advances the wheel to ``now``, filters dead entries (generation
        or armament mismatch) and returns the earliest ripe tick's
        entries as ``(tick, name)`` sorted by arm sequence — the same
        deterministic order the heap's (tick, seq) comparator yields.
        A ripe tick whose entries all died (cancelled or re-pointed
        rules) is consumed and the next tick examined, so a graveyard
        tick never masks a live later one.
        """
        now_lin = _lin(now)
        with self._lock:
            self._wheel.advance_to(now_lin)
            while (tick_lin := self._wheel.peek_tick()) is not None:
                tick = _unlin(tick_lin)
                wave: list[tuple[int, str]] = []
                for seq, name, gen in self._wheel.take_tick(tick_lin):
                    if self._scheduled.get(name) != (tick, gen):
                        continue  # cancelled or re-pointed: dead
                    del self._scheduled[name]
                    self._fired_at[name] = tick
                    wave.append((seq, name))
                if wave:
                    wave.sort()
                    return [(tick, name) for _, name in wave]
        return []

    def __len__(self) -> int:
        return len(self._scheduled)

    # -- introspection --------------------------------------------------------

    def due_within(self, now: int, horizon: int) -> int:
        """Live armed rules with tick <= now + horizon (probe report)."""
        bound = now + horizon
        with self._lock:
            return sum(1 for tick, _ in self._scheduled.values()
                       if tick <= bound)

    def cascades(self) -> int:
        """Total cascade operations performed by the wheel."""
        return self._wheel.cascades

    def lag(self, now: int) -> int:
        """Scheduling lag in ticks (0 = keeping up).

        How far behind ``now`` the earliest live armament sits; a
        persistently non-zero lag means waves are not draining — the
        signal behind the ``dbcron.wheel.shard_lag_ticks`` histogram.
        """
        with self._lock:
            earliest = min((tick for tick, _ in self._scheduled.values()),
                           default=None)
        return max(0, now - earliest) if earliest is not None else 0

    def overflow_size(self) -> int:
        """Far-future entries parked beyond the slotted capacity."""
        return self._wheel.overflow_size

    def stats(self) -> dict:
        """Snapshot for ``Session.rules.stats()`` / the CLI."""
        return {
            "kind": "wheel",
            "scheduled": len(self._scheduled),
            "cascades": self.cascades(),
            "overflow": self.overflow_size(),
            "slots": list(self._slots),
        }
