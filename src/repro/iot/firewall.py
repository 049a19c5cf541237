"""The firewall compartment: first hop off the driver edge.

Modeled on the compartmentalised network-stack design in "Enabling
Security on the Edge" (PAPERS.md): an untrusted-facing firewall sits
between the device driver and the TCP/IP compartment.  It inspects
only the frame *header* — length sanity against the configured MTU —
and either forwards a ``csetbounds``-narrowed capability view of the
packet buffer (trimmed to exactly the wire frame, shedding any
allocator rounding slack) or rejects the packet before it can touch
protocol state.

Content-level verdicts are deliberately not made here: checksum and
sequence failures are the TCP/IP stage's to judge.  The receive chain
(:class:`~repro.iot.sessions.NetPipeline`) counts a firewall
rejection as ``dropped_corrupt``, like a checksum failure; this
module's :class:`FirewallStats` keeps the runt and oversize causes
apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.capability import Capability
from .packets import FRAME_HEADER_BYTES

#: Header rule match (port/length table lookup) per packet, in cycles.
CYCLES_PER_PACKET = 250

#: Largest frame the stock firewall admits (a small-device MTU).
DEFAULT_MAX_FRAME = 1500


@dataclass
class FirewallStats:
    admitted: int = 0
    rejected_runt: int = 0
    rejected_oversize: int = 0


class Firewall:
    """Header-only admission control over driver-edge packet buffers."""

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self.stats = FirewallStats()

    def admit(
        self, frame_cap: Capability, frame_len: int
    ) -> "Tuple[Optional[Capability], int]":
        """Judge one frame; returns ``(narrowed_view, cycles)``.

        ``narrowed_view`` is ``frame_cap`` rebased to its own base and
        bounded to exactly ``frame_len`` — downstream compartments can
        never reach allocator padding past the wire bytes.  ``None``
        means rejected (runt or oversize); the caller keeps ownership
        of the buffer either way.
        """
        if frame_len < FRAME_HEADER_BYTES:
            self.stats.rejected_runt += 1
            return None, CYCLES_PER_PACKET
        if frame_len > self.max_frame:
            self.stats.rejected_oversize += 1
            return None, CYCLES_PER_PACKET
        self.stats.admitted += 1
        view = frame_cap.set_address(frame_cap.base).set_bounds(frame_len)
        return view, CYCLES_PER_PACKET
