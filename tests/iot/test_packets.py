"""Tests for packet framing and the simulated cloud."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iot.packets import (
    CloudSource,
    FramingError,
    checksum16,
    frame,
    unframe,
)


class TestFraming:
    def test_roundtrip(self):
        wire = frame(7, b"payload")
        assert unframe(wire) == (7, b"payload")

    def test_checksum_detects_corruption(self):
        wire = bytearray(frame(1, b"hello world"))
        wire[8] ^= 0x40
        with pytest.raises(FramingError):
            unframe(bytes(wire))

    def test_truncation_detected(self):
        wire = frame(1, b"hello")
        with pytest.raises(FramingError):
            unframe(wire[:-2])

    def test_short_frame(self):
        with pytest.raises(FramingError):
            unframe(b"abc")

    def test_checksum_properties(self):
        assert checksum16(b"") == 0xFFFF
        assert checksum16(b"abc") != checksum16(b"abd")
        assert 0 <= checksum16(b"\xff" * 100) <= 0xFFFF


def _checksum16_reference(data: bytes) -> int:
    """The per-byte loop: a 32-bit running sum, masked after every byte."""
    total = 0
    for index, byte in enumerate(data):
        total = (total + (byte << (8 * (index & 1)))) & 0xFFFF_FFFF
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


#: Each pair of 0xFF bytes adds 0xFFFF, so the running sum passes
#: 2**32 - 1 once more than 131,074 bytes of 0xFF have been summed.
_WRAP_BYTES = 131_074


class TestChecksumReference:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x01",
            b"abc",
            bytes(range(256)),
            b"\xff" * _WRAP_BYTES,
            b"\xff" * (_WRAP_BYTES + 1),
            b"\xff" * (_WRAP_BYTES + 2),
            b"\xff" * (3 * _WRAP_BYTES + 5),
            bytes(random.Random(7).getrandbits(8) for _ in range(4099)),
        ],
        ids=lambda data: f"{len(data)}B",
    )
    def test_equals_per_byte_loop(self, data):
        assert checksum16(data) == _checksum16_reference(data)
        assert checksum16(bytearray(data)) == _checksum16_reference(data)

    def test_long_inputs_wrap_the_running_sum(self):
        """The wrap cases above really do overflow 32 bits."""
        assert 0xFFFF * (_WRAP_BYTES // 2) <= 0xFFFF_FFFF
        assert 0xFF + 0xFFFF * (_WRAP_BYTES // 2) > 0xFFFF_FFFF

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=600))
    def test_equals_per_byte_loop_on_any_frame(self, data):
        assert checksum16(data) == _checksum16_reference(data)


class TestCloudSource:
    def test_bootstrap_carries_full_bytecode(self):
        bytecode = bytes(range(200))
        cloud = CloudSource(bytecode)
        chunks = []
        for message in cloud.initial_messages():
            if message.body.startswith(b"PUB:device/code:"):
                chunks.append(message.body[len(b"PUB:device/code:"):])
        assert b"".join(chunks) == bytecode

    def test_bootstrap_ends_with_done_marker(self):
        cloud = CloudSource(b"\x01\x02\x03")
        assert cloud.initial_messages()[-1].body.startswith(b"PUB:device/code-done")

    def test_sequences_monotonic(self):
        cloud = CloudSource(b"x" * 100)
        seqs = [m.sequence for m in cloud.initial_messages()]
        seqs += [m.sequence for m in cloud.messages_for_tick(0, 2000)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_telemetry_schedule(self):
        cloud = CloudSource(b"", telemetry_interval_ms=1000)
        assert len(cloud.messages_for_tick(0, 10)) == 1  # t=0
        assert len(cloud.messages_for_tick(10, 10)) == 0
        assert len(cloud.messages_for_tick(995, 10)) == 1  # t=1000
        assert len(cloud.messages_for_tick(990, 2500)) == 3
