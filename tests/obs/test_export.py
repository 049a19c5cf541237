"""Perfetto ``trace_event`` export schema tests."""

import json

from repro.obs import Span, trace_events, write_trace

SPANS = [
    Span("late", "test", begin=500, end=900, track="rtos"),
    Span("early", "test", begin=100, end=300, track="rtos", args={"n": 1}),
    Span("tick", "test", begin=200, track="revoker"),  # instant
]

#: A one-device fold, as ``make trace`` writes it.
DEVICE = [("cheriot-sim", SPANS)]


class TestTraceEvents:
    def test_complete_and_instant_phases(self):
        events = trace_events(DEVICE, 100.0)
        by_name = {e["name"]: e for e in events if e.get("ph") != "M"}
        assert by_name["early"]["ph"] == "X"
        assert by_name["early"]["dur"] == 2.0  # 200 cycles at 100 MHz
        assert by_name["early"]["args"] == {"n": 1}
        assert by_name["tick"]["ph"] == "i"
        assert by_name["tick"]["s"] == "t"
        assert "dur" not in by_name["tick"]

    def test_timestamps_scale_with_frequency_and_are_monotonic(self):
        events = trace_events(DEVICE, 200.0)
        data = [e for e in events if e.get("ph") != "M"]
        assert [e["name"] for e in data] == ["early", "tick", "late"]
        ts = [e["ts"] for e in data]
        assert ts == sorted(ts)
        assert ts[0] == 0.5  # 100 cycles at 200 MHz

    def test_equal_keys_keep_span_order(self):
        spans = [
            Span(name, "test", begin=100, end=200, track="rtos")
            for name in ("recorded-first", "recorded-second")
        ]
        events = trace_events([("cheriot-sim", spans)], 100.0)
        data = [e["name"] for e in events if e["ph"] != "M"]
        assert data == ["recorded-first", "recorded-second"]

    def test_track_metadata_and_tids(self):
        events = trace_events(DEVICE, 100.0)
        meta = [e for e in events if e.get("ph") == "M"]
        assert meta[0]["args"]["name"] == "cheriot-sim"
        assert meta[0]["pid"] == 1
        threads = {e["tid"]: e["args"]["name"] for e in meta[1:]}
        data = [e for e in events if e.get("ph") != "M"]
        for event in data:
            assert threads[event["tid"]] in ("rtos", "revoker")
        # Same track, same tid.
        rtos_tids = {e["tid"] for e in data if threads[e["tid"]] == "rtos"}
        assert len(rtos_tids) == 1

    def test_document_shape(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(str(path), DEVICE, 100.0, {"core": "ibex"})
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"core": "ibex"}
        assert len(doc["traceEvents"]) == len(SPANS) + 3  # + process, 2 tracks
        write_trace(str(path), DEVICE, 100.0, None)
        assert "otherData" not in json.loads(path.read_text())

    def test_write_trace_round_trips_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_trace(str(path), DEVICE, 100.0, {"k": "v"})
        doc = json.loads(path.read_text())
        assert count == len(doc["traceEvents"]) == len(SPANS) + 3
        ts = [e["ts"] for e in doc["traceEvents"] if e.get("ph") != "M"]
        assert ts == sorted(ts)


class TestFleetTrace:
    """Merged multi-device export: per-device pid + tid namespaces."""

    DEVICES = [
        ("cheriot-sim/device-0", SPANS),
        ("cheriot-sim/device-1", SPANS),  # same tracks on purpose
    ]

    def test_same_track_on_two_devices_cannot_collide(self):
        events = trace_events(self.DEVICES, 100.0)
        meta = [e for e in events if e["ph"] == "M"]
        rows = {}
        for event in meta:
            if event["name"] == "thread_name":
                rows.setdefault(event["args"]["name"], set()).add(
                    (event["pid"], event["tid"])
                )
        # Both devices export "rtos"/"revoker"; every row is distinct.
        assert len(rows["rtos"]) == 2
        assert len(rows["revoker"]) == 2
        assert not (rows["rtos"] & rows["revoker"])

    def test_each_device_is_its_own_process(self):
        events = trace_events(self.DEVICES, 100.0)
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {
            1: "cheriot-sim/device-0", 2: "cheriot-sim/device-1",
        }
        data_pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert data_pids == {1, 2}

    def test_merged_events_are_sorted_and_deterministic(self):
        events = trace_events(self.DEVICES, 100.0)
        data = [e for e in events if e["ph"] != "M"]
        keys = [(e["ts"], e["pid"], e["tid"]) for e in data]
        assert keys == sorted(keys)
        assert trace_events(self.DEVICES, 100.0) == events

    def test_write_fleet_trace_round_trips(self, tmp_path):
        path = tmp_path / "fleet.json"
        count = write_trace(str(path), self.DEVICES, 100.0, None)
        doc = json.loads(path.read_text())
        assert count == len(doc["traceEvents"])
        # 2 devices x (1 process_name + 2 thread_name + 3 spans).
        assert count == 2 * 6
