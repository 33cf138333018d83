"""Columnar/object parity: both representations compute identical results.

Every kernel with a columnar sweep path dispatches per-operand on
``calendar.columns``, so each property builds the *same* interval list
twice — once column-backed, once object-backed — and asserts the two
representations agree for every registered listop (strict and relaxed,
interval and calendar references), the set operations (including mixed
representations), selection and ``caloperate``.  Deterministic edge
cases — empty calendars, adjacent and touching intervals — are pinned
explicitly at the bottom.  The interval-join counting kernel is checked
against a tally of the pair kernel it replaces for ``count()``.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

import pytest

from repro.core import (
    Calendar,
    Interval,
    LAST,
    LISTOPS,
    SelectionPredicate,
    caloperate,
    foreach,
    select,
)
from repro.core import columnar

ALL_OPS = sorted(LISTOPS)

axis_point = st.integers(min_value=-60, max_value=60).filter(
    lambda t: t != 0)


@st.composite
def interval_pairs(draw, min_size=0, max_size=10):
    pairs = []
    for _ in range(draw(st.integers(min_value=min_size,
                                    max_value=max_size))):
        a = draw(axis_point)
        b = draw(axis_point)
        pairs.append((min(a, b), max(a, b)))
    pairs.sort()
    return pairs


@st.composite
def intervals(draw):
    a = draw(axis_point)
    b = draw(axis_point)
    return Interval(min(a, b), max(a, b))


def both_representations(pairs):
    """The same calendar column-backed and object-backed."""
    previous = columnar.enabled()
    try:
        columnar.set_enabled(True)
        col = Calendar.from_intervals(pairs)
        columnar.set_enabled(False)
        obj = Calendar.from_intervals(pairs)
    finally:
        columnar.set_enabled(previous)
    assert obj.columns is None
    return col, obj


class TestForeachParity:
    @settings(max_examples=60)
    @given(interval_pairs(), intervals(), st.sampled_from(ALL_OPS),
           st.booleans())
    def test_interval_reference(self, pairs, ref, op, strict):
        col, obj = both_representations(pairs)
        sweep = foreach(op, col, ref, strict=strict)
        scan = foreach(op, obj, ref, strict=strict)
        assert sweep.to_pairs() == scan.to_pairs()

    @settings(max_examples=60)
    @given(interval_pairs(), interval_pairs(min_size=1),
           st.sampled_from(ALL_OPS), st.booleans())
    def test_calendar_reference_grouping(self, pairs, ref_pairs, op,
                                         strict):
        col, obj = both_representations(pairs)
        ref_col, ref_obj = both_representations(ref_pairs)
        grouped_sweep = foreach(op, col, ref_col, strict=strict)
        grouped_scan = foreach(op, obj, ref_obj, strict=strict)
        assert grouped_sweep == grouped_scan
        # Mixed representations must agree too.
        assert foreach(op, col, ref_obj, strict=strict) == grouped_scan

    @settings(max_examples=40)
    @given(interval_pairs(), interval_pairs(min_size=1), st.booleans())
    def test_filtering_parity(self, pairs, ref_pairs, strict):
        # "intersects" is the one filtering-shaped builtin: the result
        # stays order-1 and members are kept (or clipped) when they
        # relate to *any* reference.
        col, obj = both_representations(pairs)
        ref, _ = both_representations(ref_pairs)
        kept_sweep = foreach("intersects", col, ref, strict=strict)
        kept_scan = foreach("intersects", obj, ref, strict=strict)
        assert kept_sweep.to_pairs() == kept_scan.to_pairs()


class TestSetOperationParity:
    @settings(max_examples=60)
    @given(interval_pairs(), interval_pairs(),
           st.sampled_from(["union", "intersection", "difference"]))
    def test_all_representation_mixes(self, a_pairs, b_pairs, op_name):
        a_col, a_obj = both_representations(a_pairs)
        b_col, b_obj = both_representations(b_pairs)
        expected = getattr(a_obj, op_name)(b_obj).to_pairs()
        for left, right in ((a_col, b_col), (a_col, b_obj),
                            (a_obj, b_col)):
            result = getattr(left, op_name)(right)
            assert result.to_pairs() == expected


class TestSelectionParity:
    @settings(max_examples=40)
    @given(interval_pairs(min_size=1), interval_pairs(min_size=1))
    def test_select_parity(self, pairs, ref_pairs):
        col, obj = both_representations(pairs)
        ref, _ = both_representations(ref_pairs)
        grouped_sweep = foreach("during", col, ref)
        grouped_scan = foreach("during", obj, ref)
        for predicate in (SelectionPredicate.of(1),
                          SelectionPredicate.of(1, 3),
                          SelectionPredicate.of(LAST)):
            assert (select(grouped_sweep, predicate)
                    == select(grouped_scan, predicate))


class TestCaloperateParity:
    @settings(max_examples=40)
    @given(interval_pairs(min_size=1),
           st.lists(st.integers(min_value=1, max_value=4),
                    min_size=1, max_size=3))
    def test_caloperate_parity(self, pairs, pattern):
        col, obj = both_representations(pairs)
        try:
            expected = caloperate(obj, tuple(pattern))
        except Exception as error:
            with pytest.raises(type(error)):
                caloperate(col, tuple(pattern))
            return
        assert caloperate(col, tuple(pattern)) == expected


# Regular join lanes, lo-sorted: small starts and widths so touching
# endpoints and point intervals (lo == hi) are common.
join_lanes = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 4)), max_size=12).map(
    lambda spans: sorted((lo, lo + width) for lo, width in spans))


class TestIntervalJoinCounts:
    """``interval_join_counts`` is a per-side tally of
    ``interval_join_pairs`` for both predicates."""

    @settings(max_examples=200, deadline=None)
    @given(a=join_lanes, b=join_lanes)
    @example(a=[], b=[])
    @example(a=[(1, 3)], b=[])
    @example(a=[], b=[(1, 3)])
    @example(a=[(1, 5), (5, 5), (5, 9)], b=[(0, 1), (5, 5), (9, 12)])
    def test_counts_tally_pairs(self, a, b):
        lanes = ([lo for lo, _ in a], [hi for _, hi in a],
                 [lo for lo, _ in b], [hi for _, hi in b])
        for predicate in ("overlaps", "during"):
            pairs = columnar.interval_join_pairs(*lanes,
                                                 predicate=predicate)
            for side, n, tally in (
                    ("a", len(a), Counter(i for i, _ in pairs)),
                    ("b", len(b), Counter(j for _, j in pairs))):
                counts = columnar.interval_join_counts(
                    *lanes, predicate=predicate, side=side)
                assert counts == [tally[k] for k in range(n)], \
                    (predicate, side)

    def test_unknown_predicate_and_side(self):
        with pytest.raises(ValueError, match="predicate"):
            columnar.interval_join_counts([1], [2], [1], [2],
                                          predicate="meets")
        with pytest.raises(ValueError, match="side"):
            columnar.interval_join_counts([1], [2], [1], [2], side="c")


class TestEdgeCases:
    """Pinned empty / adjacent / touching behaviours, both paths."""

    def test_empty_calendar_round_trip(self):
        col, obj = both_representations([])
        days, _ = both_representations([(1, 1), (2, 2)])
        for empty in (col, obj):
            assert (empty & days).to_pairs() == ()
            assert (empty - days).to_pairs() == ()
            assert (days - empty).to_pairs() == ((1, 1), (2, 2))
            assert (empty + days).to_pairs() == ((1, 1), (2, 2))
            assert foreach("during", empty, Interval(1, 5)).to_pairs() == ()

    def test_adjacent_intervals_stay_separate(self):
        # Adjacent (touching endpoints differ by one tick) intervals
        # never merge; only genuine overlaps do.
        col, obj = both_representations([(1, 2), (3, 4)])
        other, _ = both_representations([(1, 4)])
        for cal in (col, obj):
            union = cal + other
            assert union.to_pairs() == ((1, 4),)
            assert (cal & other).to_pairs() == ((1, 2), (3, 4))

    def test_touching_intervals(self):
        # Sharing an endpoint is an overlap of exactly one tick.
        col, obj = both_representations([(1, 5), (5, 9)])
        probe, _ = both_representations([(5, 5)])
        for cal in (col, obj):
            assert (cal & probe).to_pairs() == ((5, 5),)
            assert (cal - probe).to_pairs() == ((1, 4), (6, 9))

    def test_zero_skipping_difference(self):
        # Cutting across the (nonexistent) zero tick: the remainder
        # endpoints must skip 0 in both representations.
        col, obj = both_representations([(-3, 3)])
        cut, _ = both_representations([(-1, 1)])
        for cal in (col, obj):
            assert (cal - cut).to_pairs() == ((-3, -2), (2, 3))
