#!/usr/bin/env python
"""CI smoke: boot a telemetered session, scrape it, validate the scrape.

Exercises the telemetry acceptance path end to end, over a real socket:

1. boot a :class:`repro.Session` with ``REPRO_TELEMETRY_PORT`` (or
   ``--port``) and a forced-low slow-query threshold, tracing on;
2. run a 32-script ``eval_many`` batch (which feeds the per-script
   labelled latency family) plus a labelled workload with a hostile
   label value and a deliberately tiny ``max_series`` cap;
3. scrape ``/metrics`` and **fail on malformed exposition** — every
   sample line must parse (label escaping and OpenMetrics exemplar
   annotations included), every series needs ``# HELP``/``# TYPE``,
   histogram buckets must be cumulative and end in ``le="+Inf"`` equal
   to ``_count``;
4. assert the labelled series round-trip: the escaped label value
   appears, the series-cap collapse produced a ``tenant="other"``
   series and a non-zero ``series_dropped`` counter, and at least one
   histogram bucket carries a syntactically valid exemplar;
5. assert ``/healthz`` is 200/ok, ``/slowlog`` holds at least one
   record, ``/events`` saw the batch, ``/flamegraph`` serves parseable
   collapsed stacks, and a ``HEAD /metrics`` probe answers headers-only.

Exit code 0 on success, 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import json
import os
import re
import sys
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.session import Session  # noqa: E402 (path bootstrap first)

_VALUE = r"(?:[+-]?(?:\d+\.?\d*(?:e[+-]?\d+)?|Inf)|NaN)"
#: One sample line: name{labels} value, optionally followed by an
#: OpenMetrics exemplar (`` # {labels} value timestamp``).  Label blocks
#: allow any escaped content inside quoted values.
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?'
    rf' (?P<value>{_VALUE})'
    rf'(?P<exemplar> # \{{(?:[^"}}]|"(?:[^"\\]|\\.)*")*\}} {_VALUE}'
    rf'(?: {_VALUE})?)?$')


def _fail(message: str) -> "NoReturn":  # noqa: F821 (3.11+: typing only)
    print(f"telemetry smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as response:
        if response.status != 200:
            _fail(f"GET {url} -> {response.status}")
        return response.read()


def check_exposition(text: str) -> "tuple[int, int]":
    """Validate the whole scrape; (series seen, exemplars seen)."""
    if not text.endswith("\n"):
        _fail("exposition must end with a newline")
    typed: dict[str, str] = {}
    helped: set[str] = set()
    buckets: dict[str, list[tuple[str, int]]] = {}
    counts: dict[str, int] = {}
    exemplars = 0
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped.add(line.split(" ", 3)[2])
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            if kind not in ("counter", "gauge", "histogram"):
                _fail(f"unknown TYPE {kind!r}: {line!r}")
            typed[name] = kind
        elif line.startswith("#"):
            _fail(f"unexpected comment line: {line!r}")
        else:
            match = _SAMPLE_RE.match(line)
            if match is None:
                _fail(f"malformed sample line: {line!r}")
            name = match["name"]
            if match["exemplar"]:
                if not name.endswith("_bucket"):
                    _fail(f"exemplar outside a bucket line: {line!r}")
                exemplars += 1
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    base = name[: -len(suffix)]
            if base not in typed and name not in typed:
                _fail(f"sample without TYPE: {line!r}")
            if name.endswith("_bucket"):
                le = re.search(r'le="([^"]+)"', match["labels"] or "")
                if le is None:
                    _fail(f"bucket without le label: {line!r}")
                # Per-series bucket chains: key on the non-le labels so
                # labelled histogram families validate series by series.
                others = re.sub(r',?le="[^"]+"', "", match["labels"])
                key = f"{base}{{{others}}}"
                buckets.setdefault(key, []).append(
                    (le.group(1), int(match["value"])))
                counts.setdefault(key, -1)
            elif name.endswith("_count") and typed.get(base) == "histogram":
                others = match["labels"] or ""
                counts[f"{base}{{{others}}}"] = int(match["value"])
    for name, kind in typed.items():
        if name not in helped:
            _fail(f"series {name} has TYPE but no HELP")
    for key, series in buckets.items():
        if not series:
            _fail(f"histogram {key} has no buckets")
        values = [count for _, count in series]
        if values != sorted(values):
            _fail(f"histogram {key} buckets not cumulative: {values}")
        if series[-1][0] != "+Inf":
            _fail(f"histogram {key} does not end in +Inf")
        if series[-1][1] != counts.get(key):
            _fail(f"histogram {key}: +Inf bucket {series[-1][1]} != "
                  f"_count {counts.get(key)}")
    if not typed:
        _fail("empty exposition")
    return len(typed), exemplars


def check_flamegraph(text: str) -> int:
    """Validate collapsed-stack output; the number of stack lines."""
    lines = [line for line in text.splitlines() if line]
    for line in lines:
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            _fail(f"malformed collapsed-stack line: {line!r}")
    return len(lines)


def check_head(url: str) -> None:
    """A HEAD probe must answer headers-only with a body length."""
    request = urllib.request.Request(url, method="HEAD")
    with urllib.request.urlopen(request, timeout=10) as response:
        if response.status != 200:
            _fail(f"HEAD {url} -> {response.status}")
        if int(response.headers.get("Content-Length", 0)) <= 0:
            _fail("HEAD response missing Content-Length")
        if response.read() != b"":
            _fail("HEAD response carried a body")


def main() -> int:
    port = int(sys.argv[sys.argv.index("--port") + 1]) \
        if "--port" in sys.argv \
        else int(os.environ.get("REPRO_TELEMETRY_PORT", "0"))
    session = Session(telemetry_port=port, slow_query_threshold=0.0)
    try:
        server = session.server or session.start_telemetry_server(port)
        session.instrumentation.enable_tracing()  # exemplar source
        session.profiler.start()
        scripts = [f"[{i}]/DAYS:during:[1]/MONTHS:during:1993/YEARS"
                   for i in range(1, 17)]
        scripts += [f"[{i}]/WEEKS:during:1993/YEARS" for i in range(1, 17)]
        assert len(scripts) == 32
        results = session.eval_many(scripts)
        if len(results) != 32:
            _fail(f"eval_many returned {len(results)} results")

        # Labelled workload: a hostile label value (escaping) and a
        # tiny series cap (governor collapse), validated off the scrape.
        metrics = session.instrumentation.metrics
        hostile = metrics.counter("smoke.labelled",
                                  "smoke labelled workload",
                                  labels=("tenant",), max_series=4)
        hostile.labels('evil "tenant"\n\\1').inc()
        for i in range(50):
            hostile.labels(f"tenant-{i}").inc()

        text = _get(server.url + "/metrics").decode()
        series, exemplars = check_exposition(text)
        if r'tenant="evil \"tenant\"\n\\1"' not in text:
            _fail("escaped label value missing from exposition")
        if 'repro_smoke_labelled_total{tenant="other"}' not in text:
            _fail("series-cap collapse did not produce the other series")
        dropped = re.search(
            r"^repro_metrics_series_dropped_total (\d+)$", text, re.M)
        if dropped is None or int(dropped.group(1)) < 1:
            _fail("series_dropped counter missing or zero after collapse")
        if exemplars < 1:
            _fail("no exemplar annotations despite tracing being on")

        health = json.loads(_get(server.url + "/healthz"))
        if health["status"] != "ok":
            _fail(f"unhealthy: {health}")
        slowlog = json.loads(_get(server.url + "/slowlog"))
        if len(slowlog) < 1:
            _fail("no slow-query records despite forced-low threshold")
        events = json.loads(_get(server.url + "/events"))
        kinds = {event["kind"] for event in events}
        if "batch.finish" not in kinds:
            _fail(f"batch events missing from /events: {sorted(kinds)}")
        stacks = check_flamegraph(
            _get(server.url + "/flamegraph").decode())
        check_head(server.url + "/metrics")

        print(f"telemetry smoke OK: {series} series, "
              f"{exemplars} exemplar(s), {stacks} stack(s), "
              f"{len(slowlog)} slow-query record(s), "
              f"{len(events)} event(s), "
              f"{session.telemetry.dropped} dropped")
        return 0
    finally:
        session.close()


if __name__ == "__main__":
    raise SystemExit(main())
