"""Span-tree invariants: structural unit tests plus a property test
over randomly generated work trees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_SPAN,
    PLAN_PHASES,
    Trace,
    current_trace,
    extract_run,
    iter_tree,
    phase_timings,
    span,
    traced,
    tracing,
)

from .conftest import FakeClock


class TestTraceStructure:
    def test_nesting_sets_parent_indices(self, fake_clock):
        trace = Trace(clock=fake_clock)
        with trace.begin("root"):
            fake_clock.tick(1.0)
            with trace.begin("child"):
                fake_clock.tick(1.0)
                with trace.begin("grandchild"):
                    fake_clock.tick(1.0)
            with trace.begin("sibling"):
                fake_clock.tick(1.0)
        names = {s.name: s for s in trace.spans}
        assert names["root"].parent is None
        assert names["child"].parent == names["root"].index
        assert names["grandchild"].parent == names["child"].index
        assert names["sibling"].parent == names["root"].index
        assert trace.current_span() is None

    def test_durations_nest(self, fake_clock):
        trace = Trace(clock=fake_clock)
        with trace.begin("root"):
            fake_clock.tick(0.5)
            with trace.begin("child"):
                fake_clock.tick(2.0)
            fake_clock.tick(0.25)
        root, child = trace.spans
        assert root.duration == 2.75
        assert child.duration == 2.0
        assert root.start <= child.start
        assert child.end <= root.end

    def test_exception_closes_span_and_marks_error(self, fake_clock):
        trace = Trace(clock=fake_clock)
        with pytest.raises(ValueError):
            with trace.begin("work"):
                fake_clock.tick(1.0)
                raise ValueError("boom")
        (work,) = trace.spans
        assert work.attrs["error"] == "ValueError"
        assert work.duration == 1.0
        assert trace.current_span() is None

    def test_extract_run_rebases_to_self_contained(self, fake_clock):
        trace = Trace(clock=fake_clock)
        with trace.begin("earlier"):
            fake_clock.tick(1.0)
        base = len(trace.spans)
        with trace.begin("run"):
            with trace.begin("phase"):
                fake_clock.tick(1.0)
        run = extract_run(trace, base)
        assert [s.name for s in run] == ["run", "phase"]
        assert run[0].index == 0 and run[0].parent is None
        assert run[1].parent == 0
        # Copies, not aliases: mutating the slice leaves the trace alone.
        run[0].attrs["x"] = 1
        assert "x" not in trace.spans[base].attrs

    def test_phase_timings_reads_plan_children(self, fake_clock):
        trace = Trace(clock=fake_clock)
        with trace.begin("plan_route"):
            for phase in PLAN_PHASES:
                with trace.begin(phase):
                    fake_clock.tick(1.0)
        timings = phase_timings(trace.spans)
        assert set(timings) == set(PLAN_PHASES) | {"total"}
        assert timings["total"] == pytest.approx(4.0)
        for phase in PLAN_PHASES:
            assert timings[phase] == pytest.approx(1.0)

    def test_iter_tree_is_depth_first(self, fake_clock):
        trace = Trace(clock=fake_clock)
        with trace.begin("a"):
            with trace.begin("b"):
                pass
            with trace.begin("c"):
                pass
        with trace.begin("d"):
            pass
        assert [s.name for s in iter_tree(trace.spans)] == ["a", "b", "c", "d"]


class TestGlobalTrace:
    def test_span_is_noop_when_disabled(self):
        assert current_trace() is None
        handle = span("anything", attr=1)
        assert handle is NULL_SPAN
        with handle as h:
            assert h.set(more=2) is h  # chainable, records nothing

    def test_tracing_context_enables_and_restores(self):
        assert current_trace() is None
        with tracing() as trace:
            assert current_trace() is trace
            with span("inside"):
                pass
        assert current_trace() is None
        assert [s.name for s in trace.spans] == ["inside"]

    def test_tracing_restores_previous_trace_when_nested(self):
        with tracing() as outer:
            with tracing() as inner:
                with span("deep"):
                    pass
                assert current_trace() is inner
            assert current_trace() is outer
        assert [s.name for s in inner.spans] == ["deep"]
        assert outer.spans == []

    def test_traced_decorator_records_under_function_name(self):
        @traced()
        def work():
            return 42

        assert work() == 42  # disabled: plain call
        with tracing() as trace:
            assert work() == 42
        assert len(trace.spans) == 1
        assert trace.spans[0].name.endswith("work")

    def test_default_lane_stamps_new_traces(self):
        with tracing() as trace, span("work"):
            pass
        assert trace.lane == "main"
        assert [s.lane for s in trace.spans] == ["main"]
        assert Trace(lane="serve").begin("request").span.lane == "serve"


# ----------------------------------------------------------------------
# Property test: arbitrary work trees keep the span invariants
# ----------------------------------------------------------------------

# A work tree: (self_work_before, [children], self_work_after), with
# durations drawn from exact binary fractions so float sums stay exact.
work = st.integers(min_value=0, max_value=8).map(lambda n: n / 16.0)
trees = st.deferred(
    lambda: st.tuples(work, st.lists(trees, max_size=3), work)
)


def record(trace, clock, tree, name="n"):
    before, children, after = tree
    with trace.begin(name):
        clock.tick(before)
        for i, child in enumerate(children):
            record(trace, clock, child, name=f"{name}.{i}")
        clock.tick(after)


@settings(max_examples=60, deadline=None)
@given(forest=st.lists(trees, min_size=1, max_size=3))
def test_span_tree_invariants(forest):
    clock = FakeClock()
    trace = Trace(clock=clock)
    for i, tree in enumerate(forest):
        record(trace, clock, tree, name=f"root{i}")

    spans = trace.spans
    assert trace.current_span() is None
    by_index = {s.index: s for s in spans}
    assert sorted(by_index) == list(range(len(spans)))

    for s in spans:
        if s.parent is None:
            continue
        parent = by_index[s.parent]
        # Children start later and are fully contained in the parent.
        assert parent.index < s.index
        assert parent.start <= s.start
        assert s.end <= parent.end + 1e-9

    for s in spans:
        child_total = sum(c.duration for c in trace.children(s.index))
        assert child_total <= s.duration + 1e-9
