"""The traced run: per-layer self times, counts and coverage.

Layer names follow the ``src/repro`` modules.  Times are the summed self
times (calibrated ms, see ``common.Calibrator``) of the spans
:mod:`spans` records over a fixed number of
requests; counts are deltas of ``Session.metrics()`` and
``session.rules.stats()`` around the run, plus the counts the shims take
at layer boundaries.  ``coverage`` is the attributed share of the
requests' wall time; the rest is reported as ``other.ms`` and, when
coverage is below 0.9, the layer it belongs to is named.
"""

from __future__ import annotations

import json

import common
from spans import ROOT_LAYERS, Recorder, Shims

#: per-layer metric -> unit, in report order.
PER_LAYER = {
    "lang.parser.ms": "ms", "lang.parser.calls": "count",
    "lang.factorizer.ms": "ms", "lang.factorizer.rewrites": "count",
    "lang.planner.ms": "ms", "lang.optimizer.ms": "ms",
    "lang.optimizer.rewrites": "count", "lang.interpreter.ms": "ms",
    "lang.plan.ms": "ms",
    "core.periodic.compile_ms": "ms", "core.periodic.compiled": "count",
    "core.periodic.fallback": "count",
    "core.basis.ms": "ms", "core.basis.intervals": "count",
    "core.matcache.hit_ratio": "ratio",
    "core.matcache.memo_hit_ratio": "ratio",
    "core.matcache.generated_intervals": "count",
    "core.matcache.served_intervals": "count",
    "core.matcache.extensions": "count", "core.matcache.evictions": "count",
    "core.columnar.materialisations": "count",
    "catalog.registry.ms": "ms",
    "db.ql.parser.ms": "ms", "db.vector.plan_ms": "ms",
    "db.vector.fallback_statements": "count", "db.executor.ms": "ms",
    "db.database.calendar_resolve_ms": "ms",
    "db.join.hash": "count", "db.join.merge": "count",
    "db.join.sweep": "count", "db.join.batched_probe": "count",
    "db.join.sequential": "count", "db.batch.rows_per_result": "ratio",
    "db.storage.insert_ms": "ms", "db.index.insert_ms": "ms",
    "rules.manager.declare_ms": "ms", "rules.temporal.next_trigger_ms": "ms",
    "rules.temporal.next_trigger_calls": "count",
    "rules.dbcron.probe_ms": "ms", "rules.dbcron.fire_ms": "ms",
    "rules.dbcron.fires": "count", "rules.dbcron.probes": "count",
    "rules.dbcron.reschedules": "count", "rules.wheel.cascades": "count",
    "rules.wheel.overflow": "count", "db.executor.action_ms": "ms",
    "db.persist.dump_ms": "ms", "db.persist.json_ms": "ms",
    "db.persist.restore_ms": "ms", "db.persist.bytes": "bytes",
    "db.persist.bytes_per_user_byte": "ratio",
    "db.database.ms": "ms", "other.ms": "ms", "coverage": "ratio",
    "tracing.overhead_s": "s", "tracing.overhead_ratio": "ratio",
}

#: span layer -> per-layer time metric.
TIME_OF = {
    "lang.parser": "lang.parser.ms",
    "lang.factorizer": "lang.factorizer.ms",
    "lang.planner": "lang.planner.ms",
    "lang.optimizer": "lang.optimizer.ms",
    "lang.interpreter": "lang.interpreter.ms",
    "lang.plan": "lang.plan.ms",
    "core.periodic": "core.periodic.compile_ms",
    "core.basis": "core.basis.ms",
    "catalog.registry": "catalog.registry.ms",
    "db.ql.parser": "db.ql.parser.ms",
    "db.vector.plan": "db.vector.plan_ms",
    "db.executor": "db.executor.ms",
    "db.executor.action": "db.executor.action_ms",
    "db.database": "db.database.ms",
    "db.database.calendar_resolve": "db.database.calendar_resolve_ms",
    "db.storage.insert": "db.storage.insert_ms",
    "db.index.insert": "db.index.insert_ms",
    "rules.manager.declare": "rules.manager.declare_ms",
    "rules.temporal.next_trigger": "rules.temporal.next_trigger_ms",
    "rules.dbcron.probe": "rules.dbcron.probe_ms",
    "rules.dbcron.fire": "rules.dbcron.fire_ms",
    "db.persist.dump": "db.persist.dump_ms",
    "db.persist.restore": "db.persist.restore_ms",
}

STRATEGIES = {
    "hash join": "db.join.hash", "merge join": "db.join.merge",
    "endpoint sweep": "db.join.sweep",
    "batched calendar sweep": "db.join.batched_probe",
    "sequential fallback": "db.join.sequential",
}
MATCACHE = ("hits", "misses", "extensions", "evictions", "memo_hits",
            "memo_misses", "generated_intervals", "served_intervals")


def _snapshot(session) -> dict:
    snap = session.metrics()
    out = {key: value for key, value in snap.items()
           if isinstance(value, (int, float))}
    rows = snap.get("db.batch.rows")
    out["db.batch.rows.sum"] = rows["sum"] if isinstance(rows, dict) else 0
    return out


def traced_run(workload, requests: int):
    """Run ``requests`` requests with the shims installed."""
    recorder = Recorder()
    before = _snapshot(workload.session)
    with Shims(recorder):
        workload.run(requests, recorder=recorder)
    after = _snapshot(workload.session)
    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in set(before) | set(after)}
    return recorder, delta


def per_layer(workload, recorder: Recorder, delta: dict,
              untraced_busy: float) -> tuple[dict, dict]:
    times = recorder.layer_times(workload.calibrator.factor)
    calls = recorder.calls()
    out = {name: 0.0 for name in PER_LAYER}
    for layer, seconds in times.items():
        metric = TIME_OF.get(layer)
        if metric is not None:
            out[metric] += seconds * 1000.0
    roots = {name: seconds for name, seconds in times.items()
             if name.startswith("request.")}
    total = sum(times.values())
    unattributed = sum(roots.values())
    # JSON encoding/decoding is the self time of the save/load roots.
    out["db.persist.json_ms"] = (roots.get("request.save", 0.0)
                                 + roots.get("request.load", 0.0)) * 1000.0
    out["other.ms"] = unattributed * 1000.0 - out["db.persist.json_ms"]
    attributed = total - unattributed + out["db.persist.json_ms"] / 1000.0
    out["coverage"] = attributed / total if total > 0 else 1.0
    out["lang.parser.calls"] = calls.get("lang.parser", 0)
    out["rules.temporal.next_trigger_calls"] = calls.get(
        "rules.temporal.next_trigger", 0)
    for key in ("lang.factorizer.rewrites", "lang.optimizer.rewrites",
                "core.basis.intervals", "db.vector.fallback_statements"):
        out[key] = recorder.counts.get(key, 0)
    out["core.periodic.compiled"] = delta.get("periodic.compiled", 0)
    out["core.periodic.fallback"] = delta.get("periodic.fallback", 0)
    m = {name: delta.get(f"matcache.{name}", 0) for name in MATCACHE}
    lookups = m["hits"] + m["misses"] + m["extensions"]
    out["core.matcache.hit_ratio"] = m["hits"] / lookups if lookups else 0.0
    memo = m["memo_hits"] + m["memo_misses"]
    out["core.matcache.memo_hit_ratio"] = m["memo_hits"] / memo \
        if memo else 0.0
    for name in ("generated_intervals", "served_intervals", "extensions",
                 "evictions"):
        out[f"core.matcache.{name}"] = m[name]
    out["core.columnar.materialisations"] = delta.get(
        "columnar.materialisations", 0)
    for key, value in delta.items():
        if key.startswith("db.join.strategy{"):
            label = key.split('"')[1]
            if label in STRATEGIES:
                out[STRATEGIES[label]] += value
    result_rows = getattr(workload, "result_rows", 0)
    out["db.batch.rows_per_result"] = (delta.get("db.batch.rows.sum", 0)
                                       / result_rows) if result_rows else 0.0
    for key, value in workload.rules_counts().items():
        out[key] = value
    out["db.persist.bytes"] = workload.persist_bytes
    user = workload.user_bytes()
    out["db.persist.bytes_per_user_byte"] = workload.persist_bytes / user \
        if user else 0.0
    busy = workload.busy_seconds()
    out["tracing.overhead_s"] = busy - untraced_busy
    out["tracing.overhead_ratio"] = (busy - untraced_busy) / untraced_busy
    uncovered = None
    if out["coverage"] < 0.9 and roots:
        worst = max(roots, key=roots.get)
        uncovered = ROOT_LAYERS.get(worst, worst)
    report = {
        "requests": sum(1 for span in recorder.spans if span[3] < 0),
        "spans": len(recorder.spans),
        "coverage": out["coverage"],
        "uncovered_layer": uncovered,
        "unattributed_ms_by_root": {k: v * 1000.0 for k, v in roots.items()},
        "overhead_s": out["tracing.overhead_s"],
        "overhead_ratio": out["tracing.overhead_ratio"],
        "traced_busy_s": busy, "untraced_busy_s": untraced_busy,
    }
    path = common.out_dir("traces") / f"{workload.name}-{workload.seed}.json"
    recorder.dump(path)
    with open(path.with_suffix(".layers.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"per_layer": out, "report": report}, handle, indent=1)
    report["span_file"] = str(path.relative_to(common.ROOT))
    metrics = {name: {"value": out[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return metrics, report
