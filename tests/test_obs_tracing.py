"""Tests for sim-clock span tracing and Chrome trace export."""

import json

import pytest

from repro.obs.tracing import SpanTracer, TraceError, validate_chrome_trace
from repro.sim import SimClock


class TestRecord:
    def test_explicit_interval(self):
        tracer = SpanTracer()
        span = tracer.record("flash_read", 1.5, 0.25, category="query",
                             track="flash", bytes=4096)
        assert span.end_s == pytest.approx(1.75)
        assert span.args == {"bytes": 4096}
        assert len(tracer) == 1
        assert tracer.names() == {"flash_read"}

    def test_track_defaults_to_name(self):
        tracer = SpanTracer()
        assert tracer.record("decompress", 0.0, 1.0).track == "decompress"

    def test_negative_duration_rejected(self):
        with pytest.raises(TraceError):
            SpanTracer().record("x", 0.0, -1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(TraceError):
            SpanTracer().record("x", -0.5, 1.0)


class TestSpanContext:
    def test_brackets_sim_clock(self):
        clock = SimClock()
        tracer = SpanTracer(clock=clock)
        clock.advance(2.0)
        with tracer.span("work") as info:
            clock.advance(0.5)
            info["pages"] = 3
        (span,) = tracer.spans
        assert span.start_s == pytest.approx(2.0)
        assert span.duration_s == pytest.approx(0.5)
        assert span.args["pages"] == 3
        assert span.wall_duration_s >= 0.0

    def test_wall_fallback_without_clock(self):
        tracer = SpanTracer()
        with tracer.span("wall"):
            pass
        (span,) = tracer.spans
        assert span.start_s == 0.0
        assert span.duration_s >= 0.0

    def test_records_even_on_exception(self):
        tracer = SpanTracer(clock=SimClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("inside")
        assert tracer.names() == {"boom"}


class TestChromeExport:
    def test_sim_seconds_become_microseconds(self):
        tracer = SpanTracer()
        tracer.record("q", 0.001, 0.002, category="query")
        trace = tracer.to_chrome_trace()
        (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event["ts"] == pytest.approx(1000.0)
        assert event["dur"] == pytest.approx(2000.0)
        assert event["cat"] == "query"
        assert trace["displayTimeUnit"] == "ms"

    def test_tracks_get_tids_and_thread_names(self):
        tracer = SpanTracer()
        tracer.record("a", 0, 1, track="flash")
        tracer.record("b", 0, 1, track="host")
        trace = tracer.to_chrome_trace()
        meta = {e["args"]["name"]: e["tid"]
                for e in trace["traceEvents"] if e["ph"] == "M"}
        assert set(meta) == {"flash", "host"}
        events = {e["name"]: e["tid"]
                  for e in trace["traceEvents"] if e["ph"] == "X"}
        assert events["a"] == meta["flash"]
        assert events["b"] == meta["host"]

    def test_write_and_validate_roundtrip(self, tmp_path):
        tracer = SpanTracer()
        tracer.record("one", 0.0, 1.0)
        path = tracer.write_chrome_trace(tmp_path / "sub" / "trace.json")
        assert path.exists()
        assert validate_chrome_trace(path) == 1
        # and the file is plain JSON Perfetto can open
        assert "traceEvents" in json.loads(path.read_text())

    def test_clear(self):
        tracer = SpanTracer()
        tracer.record("x", 0, 1)
        tracer.clear()
        assert len(tracer) == 0


class TestValidate:
    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            validate_chrome_trace({"traceEvents": []})

    def test_metadata_only_trace_rejected(self):
        trace = {"traceEvents": [{"ph": "M", "name": "thread_name"}]}
        with pytest.raises(TraceError):
            validate_chrome_trace(trace)

    def test_malformed_event_rejected(self):
        with pytest.raises(TraceError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})

    def test_missing_ts_rejected(self):
        with pytest.raises(TraceError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "a"}]})

    def test_non_dict_rejected(self):
        with pytest.raises(TraceError):
            validate_chrome_trace({"events": []})

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            validate_chrome_trace(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TraceError):
            validate_chrome_trace(bad)
