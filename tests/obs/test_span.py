"""Tests for the span tracer: nesting, ring bounds, instants."""

from repro.obs import SpanTracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestSpans:
    def test_begin_end_records_interval(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        span = tracer.begin("work", "test", bytes=4)
        clock.now = 10
        tracer.end(span)
        (got,) = tracer.events()
        assert (got.name, got.begin, got.end, got.duration) == ("work", 0, 10, 10)
        assert got.args == {"bytes": 4}
        assert not got.is_instant

    def test_open_spans_not_committed_until_ended(self):
        tracer = SpanTracer(FakeClock())
        tracer.begin("open", "test")
        assert len(tracer) == 0
        assert tracer.open_depth() == 1

    def test_end_defaults_to_innermost(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        tracer.begin("outer", "test")
        clock.now = 1
        tracer.begin("inner", "test")
        clock.now = 2
        tracer.end()
        clock.now = 3
        tracer.end()
        names = [s.name for s in tracer.events()]
        assert names == ["inner", "outer"]  # commit order = close order
        assert tracer.open_depth() == 0

    def test_end_closes_the_span_it_is_given(self):
        # Two open spans equal as dataclasses: ending the inner one must
        # not close the outer one in its place.
        clock = FakeClock()
        tracer = SpanTracer(clock)
        outer = tracer.begin("x")
        inner = tracer.begin("x")
        clock.now = 5
        tracer.end(inner)
        clock.now = 9
        tracer.end(outer)
        assert tracer.open_depth() == 0
        assert tracer.end() is None
        events = tracer.events()
        assert [(s.begin, s.end) for s in events] == [(0, 5), (0, 9)]
        assert events[0] is inner and events[1] is outer

    def test_end_closes_an_equal_outer_span_first(self):
        # Closing the outer of two equal spans first leaves the inner
        # one open, as the innermost span a bare end() closes.
        tracer = SpanTracer(FakeClock())
        outer = tracer.begin("x")
        inner = tracer.begin("x")
        tracer.end(outer)
        assert tracer.end() is inner
        assert tracer.open_depth() == 0

    def test_tracks_nest_independently(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        a = tracer.begin("a", "test", track="one")
        tracer.begin("b", "test", track="two")
        tracer.end(a)
        assert tracer.open_depth("one") == 0
        assert tracer.open_depth("two") == 1

    def test_instant_has_no_duration(self):
        tracer = SpanTracer(FakeClock())
        tracer.instant("tick", "test")
        (got,) = tracer.events()
        assert got.is_instant
        assert got.duration == 0

    def test_complete_records_future_interval(self):
        tracer = SpanTracer(FakeClock())
        tracer.complete("pass", "revoker", 100, 250, track="revoker")
        (got,) = tracer.events()
        assert (got.begin, got.end, got.track) == (100, 250, "revoker")

    def test_context_manager_closes_on_exception(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        try:
            with tracer.span("doomed", "test"):
                clock.now = 5
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        (got,) = tracer.events()
        assert got.end == 5
        assert tracer.open_depth() == 0

    def test_ring_is_bounded_and_counts_drops(self):
        clock = FakeClock()
        tracer = SpanTracer(clock, capacity=4)
        for i in range(7):
            tracer.instant(f"e{i}", "test")
        assert len(tracer) == 4
        assert tracer.dropped == 3
        assert [s.name for s in tracer.events()] == ["e3", "e4", "e5", "e6"]

    def test_clear_resets_everything(self):
        tracer = SpanTracer(FakeClock(), capacity=2)
        tracer.instant("a", "test")
        tracer.instant("b", "test")
        tracer.instant("c", "test")
        tracer.begin("open", "test")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0
        assert tracer.open_depth() == 0
