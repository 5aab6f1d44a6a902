"""The one span type: SpanRecorder bookkeeping."""

from repro.obs import SpanRecorder


def test_end_closes_the_span_it_is_given_even_if_another_looks_alike():
    rec = SpanRecorder(clock=lambda: 0)
    a = rec.begin("x", "c")
    b = rec.begin("x", "c")
    rec.end(b)
    assert rec.open_spans == [a]
    rec.end(a)
    assert rec.open_spans == []
    assert list(rec.events) == [b, a]
