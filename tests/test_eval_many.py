"""Unit tests for the batch engine: ``Session.eval_many``.

Covers what the Hypothesis parity property does not pin down directly:
result ordering and object sharing for duplicate inputs, error
propagation order, and the trace rollup of every job under one
``session.eval_many`` root span.
"""

import pytest

from repro.core import Calendar
from repro.errors import ReproError
from repro.obs.instrument import Instrumentation
from repro.session import Session

WINDOW = ("Jan 1 1993", "Dec 31 1993")

MIXED = [
    "[1]/MONTHS:during:1993/YEARS",
    "HOLIDAYS",
    "AM_BUS_DAYS - HOLIDAYS",
    "x = (DAYS:during:[1]/MONTHS:during:1993/YEARS); return (x)",
]


@pytest.fixture()
def session():
    return Session("Jan 1 1987", holiday_years=(1993, 1994),
                   instrumentation=Instrumentation())


class TestOrderingAndDedup:
    def test_results_in_input_order(self, session):
        expected = [session.eval(t, window=WINDOW) for t in MIXED]
        got = session.eval_many(MIXED, window=WINDOW)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.to_pairs() == e.to_pairs()

    def test_duplicates_share_one_result_object(self, session):
        batch = ["HOLIDAYS", "[1]/MONTHS:during:1993/YEARS", "HOLIDAYS",
                 "HOLIDAYS"]
        got = session.eval_many(batch, window=WINDOW)
        assert got[0] is got[2]
        assert got[0] is got[3]
        assert got[1] is not got[0]

    def test_empty_batch(self, session):
        assert session.eval_many([], window=WINDOW) == []

    def test_accepts_any_iterable(self, session):
        got = session.eval_many(iter(["HOLIDAYS"]), window=WINDOW)
        assert isinstance(got[0], Calendar)


class TestErrorPropagation:
    def test_unknown_name_raises(self, session):
        with pytest.raises(ReproError):
            session.eval_many(["NO_SUCH_CAL_XYZ"], window=WINDOW)

    def test_first_error_by_input_order(self, session):
        batch = ["HOLIDAYS", "UNDEFINED_B + DAYS", "UNDEFINED_A",
                 "HOLIDAYS"]
        with pytest.raises(ReproError) as excinfo:
            session.eval_many(batch, window=WINDOW)
        assert "UNDEFINED_B" in str(excinfo.value)

    def test_good_scripts_unaffected_by_bad_sibling(self, session):
        # The same session still answers after a failed batch.
        with pytest.raises(ReproError):
            session.eval_many(["HOLIDAYS", "NO_SUCH_CAL_XYZ"],
                              window=WINDOW)
        got = session.eval_many(["HOLIDAYS"], window=WINDOW)
        assert isinstance(got[0], Calendar)


class TestTraceRollup:
    def test_one_root_holds_every_job_span(self, session):
        session.instrumentation.tracing = True
        session.eval_many(MIXED, window=WINDOW)
        roots = [s for s in session.recent_traces()
                 if s.name == "session.eval_many"]
        assert len(roots) == 1
        root = roots[0]
        assert root.meta["scripts"] == len(MIXED)
        assert root.meta["unique"] == len(MIXED)
        names = [c.name for c in root.children]
        assert names.count("eval_many.plan") == 1
        assert names.count("eval_many.hoist") == 1
        jobs = [c for c in root.children if c.name == "session.eval_job"]
        assert len(jobs) == len(MIXED)
        assert {j.meta["script"] for j in jobs} == set(MIXED)
        # Jobs nest through the ordinary per-thread stack: one trace id
        # for the whole batch, and no job span published as a root.
        assert {j.trace_id for j in jobs} == {root.trace_id}
        assert not [s for s in session.recent_traces()
                    if s.name == "session.eval_job"]

    def test_hoist_span_reports_materialisations(self, session):
        session.instrumentation.tracing = True
        session.eval_many(MIXED, window=WINDOW)
        root = [s for s in session.recent_traces()
                if s.name == "session.eval_many"][0]
        hoist = root.find("eval_many.hoist")[0]
        assert hoist.meta["materialised"] >= 1

    def test_tracing_off_is_fine(self, session):
        session.instrumentation.tracing = False
        got = session.eval_many(MIXED, window=WINDOW)
        assert len(got) == len(MIXED)
        assert session.recent_traces() == []
