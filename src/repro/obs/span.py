"""Span tracing over the simulated-cycle clock.

A :class:`SpanTracer` records begin/end intervals and point events into
a bounded ring buffer.  Timestamps come from whatever clock the owner
supplies — in this repo, ``lambda: core_model.cycles`` — so spans line
up exactly with the retire-stream cycle accounting, and a trace of a
deterministic workload is itself deterministic.

The ring is a :class:`collections.deque` with ``maxlen``: once full,
the oldest *closed* spans fall off and ``dropped`` counts them.  Open
spans live on a per-track stack until ended, so an unwind that crosses
many frames (a compartment fault) still closes every span as the
``try/finally`` blocks in the switcher run.

Events map 1:1 onto the Chrome/Perfetto ``trace_event`` model:

* ``Span``  -> phase ``"X"`` (complete event: ts + dur)
* instant   -> phase ``"i"``

``track`` names become Perfetto thread rows at export time (see
:mod:`repro.obs.export`).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

DEFAULT_RING_CAPACITY = 65536


@dataclass
class Span:
    """One closed interval (or instant, when ``end`` stays None)."""

    name: str
    category: str
    begin: int
    end: Optional[int] = None
    track: str = "rtos"
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return 0 if self.end is None else self.end - self.begin

    @property
    def is_instant(self) -> bool:
        return self.end is None


class SpanTracer:
    """Bounded recorder of spans and instants on a cycle clock."""

    def __init__(
        self,
        clock: Callable[[], int],
        capacity: int = DEFAULT_RING_CAPACITY,
    ):
        self.clock = clock
        self.capacity = capacity
        self._ring: "deque[Span]" = deque(maxlen=capacity)
        self._open: Dict[str, List[Span]] = {}
        self.dropped = 0
        self.default_track = "rtos"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _push(self, span: Span) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(span)

    def begin(
        self, name: str, category: str = "rtos",
        track: Optional[str] = None, **args,
    ) -> Span:
        """Open a span; it nests under any span already open on its track."""
        span = Span(
            name=name,
            category=category,
            begin=self.clock(),
            track=track or self.default_track,
            args=args,
        )
        self._open.setdefault(span.track, []).append(span)
        return span

    def end(self, span: Optional[Span] = None, **args) -> Optional[Span]:
        """Close ``span`` (default: innermost open span on the default
        track) and commit it to the ring."""
        if span is None:
            stack = self._open.get(self.default_track)
            if not stack:
                return None
            span = stack[-1]
        # By identity: two open spans can compare equal as dataclasses.
        stack = self._open.get(span.track, [])
        for depth in range(len(stack) - 1, -1, -1):
            if stack[depth] is span:
                del stack[depth]
                break
        span.end = self.clock()
        if args:
            span.args.update(args)
        self._push(span)
        return span

    def instant(
        self, name: str, category: str = "rtos",
        track: Optional[str] = None, **args,
    ) -> Span:
        span = Span(
            name=name,
            category=category,
            begin=self.clock(),
            end=None,
            track=track or self.default_track,
            args=args,
        )
        self._push(span)
        return span

    def complete(
        self, name: str, category: str, begin: int, end: int,
        track: Optional[str] = None, **args,
    ) -> Span:
        """Record an interval whose endpoints the caller already knows —
        e.g. a background revoker pass that finishes in the future."""
        span = Span(
            name=name,
            category=category,
            begin=begin,
            end=end,
            track=track or self.default_track,
            args=args,
        )
        self._push(span)
        return span

    @contextmanager
    def span(
        self, name: str, category: str = "rtos",
        track: Optional[str] = None, **args,
    ):
        opened = self.begin(name, category, track=track, **args)
        try:
            yield opened
        finally:
            self.end(opened)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> List[Span]:
        """Committed spans, oldest first (open spans are not included)."""
        return list(self._ring)

    def open_depth(self, track: Optional[str] = None) -> int:
        return len(self._open.get(track or self.default_track, ()))

    def clear(self) -> None:
        self._ring.clear()
        self._open.clear()
        self.dropped = 0
