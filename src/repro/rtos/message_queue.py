"""Inter-compartment message queues with capability-flow enforcement.

The RTOS communicates "via function calls between compartments, not
marshaled messages, at the lowest levels" (paper section 2); queues are
the layer applications build on top for asynchronous producer/consumer
patterns.  What matters architecturally is the **capability-flow rule**:
a queue's backing store is ordinary memory without SL, so enqueuing a
*local* capability must fail — the queue cannot become a laundering
channel for ephemeral or stack references.

Cost model: each operation is a cross-compartment call into the queue
service plus a bounded copy, so real-time bounds hold (no allocation on
the enqueue path — the ring is preallocated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.capability import Capability
from repro.capability.errors import PermissionFault

#: Instructions per enqueue/dequeue beyond the copy (index math, checks).
QUEUE_OP_INSTRS = 18


class QueueFull(Exception):
    """Non-blocking send on a full queue."""


class QueueEmpty(Exception):
    """Non-blocking receive on an empty queue."""


@dataclass
class QueueStats:
    sends: int = 0
    receives: int = 0
    rejected_locals: int = 0
    high_watermark: int = 0


class MessageQueue:
    """A bounded ring of messages; capabilities are policed on entry."""

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.stats = QueueStats()
        self._ring: List[object] = []

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._ring

    def _police(self, message: object) -> None:
        """Reject tagged local capabilities anywhere in the message.

        The queue's store is global memory without SL: accepting a
        local capability would be exactly the store the architecture
        forbids (section 5.2).
        """
        if isinstance(message, Capability):
            if message.tag and message.is_local:
                self.stats.rejected_locals += 1
                raise PermissionFault(
                    f"{self.name}: cannot enqueue a local capability "
                    "(queue storage lacks SL)"
                )
        elif isinstance(message, (tuple, list)):
            for item in message:
                self._police(item)

    def send(self, message: object) -> None:
        """Enqueue; raises :class:`QueueFull` rather than blocking."""
        if self.full:
            raise QueueFull(f"{self.name} at capacity {self.capacity}")
        self._police(message)
        self._ring.append(message)
        self.stats.sends += 1
        self.stats.high_watermark = max(self.stats.high_watermark, len(self._ring))

    def receive(self) -> object:
        """Dequeue; raises :class:`QueueEmpty` rather than blocking."""
        if not self._ring:
            raise QueueEmpty(self.name)
        self.stats.receives += 1
        return self._ring.pop(0)
