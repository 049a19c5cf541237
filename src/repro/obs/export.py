"""Chrome/Perfetto ``trace_event`` JSON export.

The output is the JSON-object flavour understood by both
``chrome://tracing`` and https://ui.perfetto.dev::

    {"traceEvents": [...], "displayTimeUnit": "ms", ...}

Mapping from this repo's model:

* one Perfetto *process* represents one simulated SoC, a *device*;
  ``make trace`` exports one device and ``make fleet-trace`` several,
  through the same fold (:func:`trace_events`);
* each :class:`~repro.obs.span.Span` ``track`` becomes a *thread* row
  (tids are assigned in first-seen order **within that process**, with
  metadata ``M`` events naming them);
* closed spans export as phase ``"X"`` complete events, instants as
  phase ``"i"``;
* timestamps convert from cycles to microseconds at the core clock
  (``frequency_mhz``, 100 MHz for both Flute and Ibex), so span
  durations read as real time on the configured core.

Events are sorted by timestamp so ``ts`` is monotonic in the file —
ring-buffer eviction and late ``complete()`` records (background
revoker passes) would otherwise leave them out of order.

Track identity in Perfetto is the *(pid, tid)* pair, so two devices
both exporting an ``allocator`` track stay on separate rows precisely
because each device owns a pid and allocates tids in its own
namespace.  :func:`trace_events` enforces that: concatenating two
devices' events under one pid would fold same-named compartment
tracks from different devices onto one row — the collision this
module exists to prevent.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence, Tuple

from .span import Span

#: The Perfetto process name of a single-device export.
PROCESS_NAME = "cheriot-sim"


def spans_to_trace_events(
    spans: Iterable[Span],
    frequency_mhz: float,
    pid: int,
    process_name: str,
) -> List[dict]:
    """One device's ``trace_event`` list: its process and thread
    metadata, then one event per span in span order."""
    scale = 1.0 / frequency_mhz  # cycles -> microseconds

    tids: dict = {}

    def tid_for(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
        return tids[track]

    events: List[dict] = []
    for span in spans:
        event = {
            "name": span.name,
            "cat": span.category,
            "pid": pid,
            "tid": tid_for(span.track),
            "ts": round(span.begin * scale, 3),
        }
        if span.is_instant:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = round(span.duration * scale, 3)
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)

    meta: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": process_name},
        }
    ]
    for track, tid in tids.items():
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return meta + events


def trace_events(
    devices: Sequence[Tuple[str, Iterable[Span]]],
    frequency_mhz: float,
) -> List[dict]:
    """Fold per-device span sets into one ``trace_event`` list.

    ``devices`` is a sequence of ``(process_name, spans)`` pairs in
    device order.  Device *i* gets pid ``i + 1`` and allocates tids in
    its own first-seen namespace, so two devices exporting the same
    compartment track land on distinct ``(pid, tid)`` rows instead of
    colliding.  Metadata events lead (grouped by device), then every
    span event sorted by ``(ts, pid, tid, dur)``; the sort is stable,
    so events with equal keys keep span order and the file is
    byte-deterministic for a fixed device order.
    """
    meta: List[dict] = []
    events: List[dict] = []
    for index, (process_name, spans) in enumerate(devices):
        for event in spans_to_trace_events(
            spans, frequency_mhz, index + 1, process_name
        ):
            (meta if event["ph"] == "M" else events).append(event)
    events.sort(
        key=lambda e: (e["ts"], e["pid"], e["tid"], e.get("dur", 0))
    )
    return meta + events


def write_trace(
    path: str,
    devices: Sequence[Tuple[str, Iterable[Span]]],
    frequency_mhz: float,
    metadata: Optional[dict],
) -> int:
    """Write the folded trace JSON to ``path``; returns the event count."""
    document = {
        "traceEvents": trace_events(devices, frequency_mhz),
        "displayTimeUnit": "ms",
    }
    if metadata:
        document["otherData"] = dict(metadata)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    return len(document["traceEvents"])
