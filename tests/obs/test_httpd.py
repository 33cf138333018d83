"""The embedded telemetry HTTP endpoint, scraped over real sockets."""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.obs.httpd import PROMETHEUS_CONTENT_TYPE, TelemetryServer
from repro.obs.instrument import Instrumentation
from repro.session import Session


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read()


@pytest.fixture()
def session():
    # A private instrumentation bundle so enabling tracing or forcing
    # drift in one test cannot leak through the process-wide default.
    session = Session(slow_query_threshold=0.0,
                      instrumentation=Instrumentation())
    session.start_telemetry_server(0)
    yield session
    session.close()


class TestEndpoints:
    def test_metrics_scrape_is_parseable_exposition(self, session):
        session.eval("[1]/MONTHS:during:1993/YEARS")
        status, headers, body = _get(session.server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode()
        from tests.obs.test_promexport import _parse_exposition
        parsed = _parse_exposition(text)
        assert any(name.startswith("repro_matcache") for name in parsed)
        for metric in parsed.values():
            assert "type" in metric and "help" in metric

    def test_healthz_ok(self, session):
        status, _, body = _get(session.server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["problems"] == []
        assert 0.0 <= payload["cache"]["fill"] <= 1.0

    def test_healthz_degraded_on_excess_drift(self, session):
        gauge = session.instrumentation.metrics.gauge(
            "dbcron.fire_drift_ticks")
        gauge.set(10 * session.cron.period)
        try:
            status, _, body = _get(session.server.url + "/healthz")
        except urllib.error.HTTPError as exc:
            status, body = exc.code, exc.read()
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert any("behind schedule" in problem
                   for problem in payload["problems"])

    def test_slowlog_endpoint(self, session):
        session.eval("[1]/MONTHS:during:1993/YEARS")
        status, headers, body = _get(session.server.url + "/slowlog")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        records = json.loads(body)
        assert len(records) == 1
        assert records[0]["source"] == "[1]/MONTHS:during:1993/YEARS"
        assert records[0]["threshold_s"] == 0.0

    def test_traces_endpoint(self, session):
        session.instrumentation.enable_tracing()
        session.eval("WEEKS:during:1993/YEARS")
        _, _, body = _get(session.server.url + "/traces")
        doc = json.loads(body)
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert spans, "tracing on: the scrape must see spans"

    def test_events_endpoint(self, session):
        session.eval("WEEKS:during:1993/YEARS")
        _, _, body = _get(session.server.url + "/events")
        events = json.loads(body)
        kinds = {event["kind"] for event in events}
        assert "eval.start" in kinds and "eval.finish" in kinds

    def test_unknown_path_is_404(self, session):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(session.server.url + "/nope")
        assert excinfo.value.code == 404

    def test_trailing_slash_and_query_string_accepted(self, session):
        status, _, _ = _get(session.server.url + "/healthz/?verbose=1")
        assert status == 200

    def test_labelled_exposition_round_trip(self, session):
        session.eval_many(["[1]/MONTHS:during:1993/YEARS"])
        session.query("create table emp (name text)")
        _, _, body = _get(session.server.url + "/metrics")
        from tests.obs.test_promexport import (_parse_exposition,
                                               _parse_labels)
        parsed = _parse_exposition(body.decode())
        # Per-script and per-relation labelled series survive the full
        # render → scrape → conformance-parse loop.
        script = parsed["repro_eval_script_seconds"]
        label_sets = [_parse_labels(labels)
                      for name, labels, _ in script["samples"]
                      if name.endswith("_count")]
        assert {"script": "[1]/MONTHS:during:1993/YEARS"} in label_sets
        stripe = parsed["repro_matcache_stripe_hits_total"]
        assert all("stripe" in _parse_labels(labels)
                   for _, labels, _ in stripe["samples"])

    def test_profile_endpoint_returns_folded_stacks(self, session):
        status, headers, body = _get(
            session.server.url + "/profile?seconds=0.1")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert text.endswith("\n")
        for line in filter(None, text.splitlines()):
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_flamegraph_endpoint_serves_accumulation(self, session):
        session.profiler.start()
        session.eval("[1]/MONTHS:during:1993/YEARS")
        status, headers, _ = _get(session.server.url + "/flamegraph")
        session.profiler.stop()
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")


class TestMethods:
    def test_head_returns_headers_only(self, session):
        get_status, get_headers, get_body = _get(
            session.server.url + "/metrics")
        request = urllib.request.Request(
            session.server.url + "/metrics", method="HEAD")
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.status == get_status == 200
            assert response.headers["Content-Type"] == \
                get_headers["Content-Type"]
            assert int(response.headers["Content-Length"]) > 0
            assert response.read() == b""

    def test_head_healthz_matches_get_status(self, session):
        session.instrumentation.metrics.gauge(
            "dbcron.fire_drift_ticks").set(10 * session.cron.period)
        request = urllib.request.Request(
            session.server.url + "/healthz", method="HEAD")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 503
        assert excinfo.value.read() == b""

    def test_head_profile_does_not_block_for_window(self, session):
        import time
        request = urllib.request.Request(
            session.server.url + "/profile?seconds=30", method="HEAD")
        t0 = time.perf_counter()
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.status == 200
        assert time.perf_counter() - t0 < 5.0

    def test_other_methods_are_405_with_allow(self, session):
        for method in ("POST", "PUT", "DELETE", "PATCH", "OPTIONS"):
            request = urllib.request.Request(
                session.server.url + "/metrics", method=method,
                data=b"" if method in ("POST", "PUT", "PATCH") else None)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 405
            assert excinfo.value.headers["Allow"] == "GET, HEAD"


class TestServerLifecycle:
    def test_provider_failure_is_500(self):
        server = TelemetryServer(
            metrics_text=lambda: (_ for _ in ()).throw(RuntimeError("x")),
            health=lambda: {"status": "ok"},
            slowlog=lambda: [], traces=lambda: {})
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/metrics")
            assert excinfo.value.code == 500
            assert b"provider error" in excinfo.value.read()
            # The server survives the failing provider.
            status, _, _ = _get(server.url + "/healthz")
            assert status == 200
        finally:
            server.close()

    def test_ephemeral_port_resolved(self):
        server = TelemetryServer(
            metrics_text=lambda: "", health=lambda: {"status": "ok"},
            slowlog=lambda: [], traces=lambda: {}, port=0)
        try:
            assert server.port > 0
            assert str(server.port) in server.url
        finally:
            server.close()

    def test_close_releases_socket(self):
        server = TelemetryServer(
            metrics_text=lambda: "", health=lambda: {"status": "ok"},
            slowlog=lambda: [], traces=lambda: {})
        url = server.url
        server.close()
        with pytest.raises(urllib.error.URLError):
            _get(url + "/healthz")

    def test_session_env_port(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_PORT", "0")
        session = Session()
        try:
            assert session.server is not None
            assert session.telemetry is not None
            status, _, _ = _get(session.server.url + "/metrics")
            assert status == 200
        finally:
            session.close()

    def test_start_is_idempotent(self):
        session = Session()
        try:
            first = session.start_telemetry_server(0)
            assert session.start_telemetry_server(0) is first
        finally:
            session.close()


class TestLifecycleUnderLoad:
    def test_concurrent_scrapes_racing_close(self):
        import threading

        server = TelemetryServer(
            metrics_text=lambda: "repro_x_total 1\n",
            health=lambda: {"status": "ok"},
            slowlog=lambda: [], traces=lambda: {})
        url = server.url
        ok, refused, unexpected = [], [], []

        def scrape():
            for _ in range(40):
                try:
                    status, _, _ = _get(url + "/metrics")
                    ok.append(status)
                except (urllib.error.URLError, OSError,
                        http.client.HTTPException):
                    # Post-close: refused, or reset mid-flight — both
                    # are clean shutdown outcomes, never a hang or 500.
                    refused.append(1)
                except Exception as exc:  # pragma: no cover
                    unexpected.append(exc)

        threads = [threading.Thread(target=scrape) for _ in range(4)]
        for t in threads:
            t.start()
        server.close()  # races the in-flight scrapes
        for t in threads:
            t.join()
        assert not unexpected
        assert all(status == 200 for status in ok)
        # close() is idempotent even after the race.
        server.close()

    def test_provider_raising_mid_scrape_under_concurrency(self):
        import itertools
        import threading

        calls = itertools.count()

        def flaky_metrics():
            if next(calls) % 3 == 0:
                raise RuntimeError("mid-scrape failure")
            return "repro_x_total 1\n"

        server = TelemetryServer(
            metrics_text=flaky_metrics,
            health=lambda: {"status": "ok"},
            slowlog=lambda: [], traces=lambda: {})
        statuses = []
        errors = []

        def scrape():
            for _ in range(15):
                try:
                    status, _, _ = _get(server.url + "/metrics")
                    statuses.append(status)
                except urllib.error.HTTPError as exc:
                    statuses.append(exc.code)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        try:
            threads = [threading.Thread(target=scrape) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert set(statuses) == {200, 500}
            # And the server still answers cleanly afterwards.
            status, _, _ = _get(server.url + "/healthz")
            assert status == 200
        finally:
            server.close()
