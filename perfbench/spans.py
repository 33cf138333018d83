"""Span recording for the traced run, from the benchmark's own files.

The program is not modified: :class:`Shims` replaces the public functions
and methods named in :data:`TARGETS` with recording wrappers for the
duration of a traced run and puts the original objects back afterwards.
A module-level function is patched everywhere the program bound it (its
defining module and every ``from … import`` site), so calls made through
any of those names are recorded.

Each span records its name, start, end, parent and request id.  Spans are
kept in memory and written out when the run ends.  A span's self time is
its duration minus the time covered by its children; each layer's time is
the sum of the self times of its spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute path, layer).  A dotted attribute is ``Class.method``.
TARGETS = (
    ("repro.lang.parser", "parse_expression", "lang.parser"),
    ("repro.lang.parser", "parse_script", "lang.parser"),
    ("repro.lang.factorizer", "factorize", "lang.factorizer"),
    ("repro.lang.planner", "compile_expression", "lang.planner"),
    ("repro.lang.optimizer", "optimize_plan", "lang.optimizer"),
    ("repro.lang.plan", "PlanVM.run", "lang.plan"),
    ("repro.lang.interpreter", "Interpreter.evaluate", "lang.interpreter"),
    ("repro.lang.interpreter", "Interpreter.execute", "lang.interpreter"),
    ("repro.catalog.registry", "CalendarRegistry.periodic_set",
     "core.periodic"),
    ("repro.catalog.registry", "CalendarRegistry.evaluate",
     "catalog.registry"),
    ("repro.catalog.registry", "CalendarRegistry.eval_expression",
     "catalog.registry"),
    ("repro.catalog.registry", "CalendarRegistry.eval_script",
     "catalog.registry"),
    ("repro.catalog.registry", "CalendarRegistry.next_occurrence",
     "catalog.registry"),
    ("repro.core.basis", "CalendarSystem.generate", "core.basis"),
    ("repro.core.basis", "CalendarSystem.iter_generate", "core.basis"),
    ("repro.db.ql.parser", "parse_statement", "db.ql.parser"),
    ("repro.db.vector", "plan_retrieve", "db.vector.plan"),
    ("repro.db.executor", "Executor.execute", "db.executor"),
    ("repro.db.database", "Database.execute", "db.database"),
    ("repro.db.database", "Database.resolve_calendar",
     "db.database.calendar_resolve"),
    ("repro.db.database", "Database.resolve_periodic",
     "db.database.calendar_resolve"),
    ("repro.db.storage", "Relation.insert", "db.storage.insert"),
    ("repro.db.storage", "Relation.insert_many", "db.storage.insert"),
    ("repro.db.index", "OrderedIndex.insert", "db.index.insert"),
    ("repro.db.index", "OrderedIndex.insert_batch", "db.index.insert"),
    ("repro.rules.manager", "RuleManager.declare_temporal",
     "rules.manager.declare"),
    ("repro.rules.temporal", "TemporalRule.next_trigger",
     "rules.temporal.next_trigger"),
    ("repro.rules.dbcron", "DBCron.probe", "rules.dbcron.probe"),
    ("repro.rules.dbcron", "DBCron.fire_due", "rules.dbcron.fire"),
    ("repro.db.persist", "dump_database", "db.persist.dump"),
    ("repro.db.persist", "restore_database", "db.persist.restore"),
)

#: Request roots (the benchmark's calls into the public API) and the
#: layer their uncovered self time belongs to.
ROOT_LAYERS = {
    "request.eval": "session (Session.eval / _run_text dispatch)",
    "request.query": "db.database (Database.execute glue)",
    "request.append": "db.database (Database.execute glue)",
    "request.declare": "db.database (Database.execute glue)",
    "request.advance": "rules.clock (SimulatedClock.advance dispatch)",
    "request.save": "db.persist (JSON encoding and file write)",
    "request.load": "db.persist (file read, JSON decoding, attach)",
}


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


class Recorder:
    """In-memory span store with a per-thread-free stack (one client)."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, request id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = 0
        self.active = False
        #: Counts taken at layer boundaries (e.g. factorizer rewrites).
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def request(self, name: str):
        """Root span of one benchmark request."""
        self._request += 1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, -1, self._request]
        self.spans.append(span)
        self._stack.append(idx)
        self.active = True
        span[1] = perf_counter()
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self.active = bool(self._stack)

    def wrap(self, fn, layer: str, post=None):
        recorder = self

        def shim(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack
            idx = len(recorder.spans)
            span = [layer, 0.0, 0.0, stack[-1], recorder._request]
            recorder.spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if post is not None:
                post(recorder, args, result)
            return result

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", layer)
        shim.__doc__ = getattr(fn, "__doc__", None)
        return shim

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time (duration minus its children's durations)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[i]
                for i, (_n, start, end, _p, _r) in enumerate(self.spans)]

    def layer_times(self, factor) -> dict[str, float]:
        """Calibrated seconds of self time per layer, roots included.

        ``factor(start, end)`` scales the spans of each request by the
        host speed around it.  Executor spans below a DBCRON fire are rule
        actions and are reported as ``db.executor.action``.
        """
        out: dict[str, float] = defaultdict(float)
        selfs = self.self_times()
        scale = [1.0] * len(self.spans)
        under_fire = [False] * len(self.spans)
        for i, (name, start, end, parent, _r) in enumerate(self.spans):
            if parent < 0:
                scale[i] = factor(start, end)
            else:
                scale[i] = scale[parent]
            under_fire[i] = name == "rules.dbcron.fire" or (
                parent >= 0 and under_fire[parent])
            if name == "db.executor" and under_fire[i]:
                name = "db.executor.action"
            out[name] += selfs[i] * scale[i]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_rest in self.spans:
            out[name] += 1
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request"],
                       "spans": self.spans}, handle)


def _count_rewrites(key: str):
    def post(recorder: Recorder, _args, result) -> None:
        recorder.counts[key] += len(getattr(result, "rewrites", ()) or ())
    return post


def _count_len(key: str):
    def post(recorder: Recorder, _args, result) -> None:
        try:
            recorder.counts[key] += len(result)
        except TypeError:
            pass
    return post


def _count_fallback(recorder: Recorder, _args, result) -> None:
    plan = result[0] if isinstance(result, tuple) else result
    recorder.counts["db.vector.fallback_statements"] += plan is None


POSTS = {
    "factorize": _count_rewrites("lang.factorizer.rewrites"),
    "optimize_plan": _count_rewrites("lang.optimizer.rewrites"),
    "CalendarSystem.generate": _count_len("core.basis.intervals"),
    "plan_retrieve": _count_fallback,
}


class Shims:
    """Install recording wrappers over :data:`TARGETS`; restore them after.

    ``patched`` lists every ``(owner, attribute, original)`` replaced, so
    :meth:`uninstall` puts back the very same objects (the self-test
    checks identity).
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.patched: list[tuple[object, str, object]] = []

    def install(self) -> "Shims":
        for module_name, attr, layer in TARGETS:
            owner, name = _resolve(module_name, attr)
            original = owner.__dict__[name]
            post = POSTS.get(attr)
            if isinstance(owner, type):
                self._patch(owner, name, original,
                            self.recorder.wrap(original, layer, post))
                continue
            shim = self.recorder.wrap(original, layer, post)
            # Every module that bound the function by name is a call site.
            for mod_name, module in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for site, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, site, original, shim)
        return self

    def _patch(self, owner, name: str, original, shim) -> None:
        self.patched.append((owner, name, original))
        setattr(owner, name, shim)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched.clear()

    def __enter__(self) -> "Shims":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
