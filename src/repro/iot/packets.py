"""Packet framing and the simulated cloud endpoint.

The paper's end-to-end application connects to the Azure IoT Hub and
fetches JavaScript bytecode over TLS+MQTT (section 7.2.3).  We have no
network, so :class:`CloudSource` plays the hub: it emits framed,
"encrypted" records carrying MQTT payloads — including the JS bytecode
program the device runs — on a configurable schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Message:
    """A plaintext application message, pre-TLS (cloud side)."""

    sequence: int
    body: bytes


def checksum16(data: bytes) -> int:
    """The framing checksum (a 16-bit ones'-complement-ish fold).

    Even-indexed bytes add as the low byte of a 16-bit word, odd-indexed
    ones as the high byte, into a 32-bit running sum.  Masking that sum
    to 32 bits after every step equals masking the whole sum once, so
    the two byte lanes are summed at C speed.
    """
    total = (sum(data[0::2]) + (sum(data[1::2]) << 8)) & 0xFFFF_FFFF
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def frame(sequence: int, body: bytes) -> bytes:
    """Wrap a body in the on-wire header: seq(2) len(2) csum(2) body."""
    header = sequence.to_bytes(2, "little") + len(body).to_bytes(2, "little")
    return header + checksum16(header + body).to_bytes(2, "little") + body


#: Bytes of on-wire header before the body: seq(2) len(2) csum(2).
FRAME_HEADER_BYTES = 6


class FramingError(Exception):
    """Corrupt packet (bad length or checksum)."""


def validate_frame(data: bytes) -> Tuple[int, int, int]:
    """Verify a frame without materialising its body.

    Returns ``(sequence, body_offset, body_length)`` — enough for a
    receiver to *narrow* a capability over the original buffer to the
    body, instead of copying the body out.  Raises
    :class:`FramingError` exactly where :func:`unframe` would.
    """
    if len(data) < FRAME_HEADER_BYTES:
        raise FramingError("short frame")
    sequence = int.from_bytes(data[0:2], "little")
    length = int.from_bytes(data[2:4], "little")
    received = int.from_bytes(data[4:6], "little")
    body_length = len(data) - FRAME_HEADER_BYTES
    if body_length != length:
        raise FramingError(
            f"length mismatch: header {length}, got {body_length}"
        )
    if checksum16(data[0:4] + data[FRAME_HEADER_BYTES:]) != received:
        raise FramingError("checksum mismatch")
    return sequence, FRAME_HEADER_BYTES, length


def unframe(data: bytes) -> Tuple[int, bytes]:
    """Parse and verify a frame; returns (sequence, body)."""
    sequence, offset, length = validate_frame(data)
    return sequence, data[offset : offset + length]


class CloudSource:
    """The simulated IoT hub: emits telemetry polls and JS bytecode."""

    def __init__(self, bytecode: bytes, telemetry_interval_ms: int = 1000) -> None:
        self.bytecode = bytecode
        self.telemetry_interval_ms = telemetry_interval_ms
        self._sequence = 0

    def _next_seq(self) -> int:
        self._sequence += 1
        return self._sequence

    def initial_messages(self) -> List[Message]:
        """The connection bootstrap: bytecode delivery in MQTT chunks."""
        messages = []
        chunk = 64
        for offset in range(0, len(self.bytecode), chunk):
            body = b"PUB:device/code:" + self.bytecode[offset : offset + chunk]
            messages.append(Message(self._next_seq(), body))
        messages.append(Message(self._next_seq(), b"PUB:device/code-done:"))
        return messages

    def messages_for_tick(self, now_ms: int, tick_ms: int) -> List[Message]:
        """Messages arriving within [now_ms, now_ms + tick_ms)."""
        messages = []
        interval = self.telemetry_interval_ms
        boundary = (now_ms + interval - 1) // interval * interval
        while boundary < now_ms + tick_ms:
            body = b"PUB:device/poll:" + boundary.to_bytes(4, "little")
            messages.append(Message(self._next_seq(), body))
            boundary += interval
        return messages
