"""Pin the host-speed TLS fast paths to straightforward references.

``repro.iot.tls`` replaced its byte-at-a-time keystream, MAC and XOR
with table/big-int implementations so a 2048-session benchmark sweep
stays fast.  The *simulated* cycle constants are untouched; what must
hold is byte identity: every fast path produces exactly the bytes the
obvious implementation it replaced would have.  These references are
deliberately naive transcriptions of the original loops — if the fast
paths ever drift, every committed artifact built on record bytes
(BENCH_net.json, BENCH_fleet.json, OBS_slo.json) drifts with them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iot.tls import (
    CYCLES_PER_BYTE,
    CYCLES_PER_RECORD,
    TLSSession,
    _keystream,
    _mac16,
    _xor_bytes,
)

_M32 = 0xFFFFFFFF

keys = st.binary(min_size=8, max_size=32)
payloads = st.binary(max_size=300)
nonces = st.integers(min_value=0, max_value=1 << 32)


def reference_keystream(key: bytes, length: int, nonce: int) -> bytes:
    """The original rolling-LCG keystream, byte by byte."""
    out = bytearray()
    state = (nonce * 2654435761) & _M32
    for index in range(length):
        state = (state * 1103515245 + 12345 + key[index % len(key)]) & _M32
        out.append((state >> 16) & 0xFF)
    return bytes(out)


def reference_mac16(key: bytes, data: bytes) -> int:
    """The original ``*31``-fold MAC, byte by byte."""
    total = 0x5A5A
    for index, byte in enumerate(data):
        total = ((total * 31) & 0xFFFF) ^ byte ^ key[index % len(key)]
    return total


def reference_xor(data: bytes, stream: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, stream))


class TestKeystreamPinned:
    @given(key=keys, length=st.integers(0, 300), nonce=nonces)
    @settings(max_examples=100)
    def test_matches_reference(self, key, length, nonce):
        assert _keystream(key, length, nonce) == reference_keystream(
            key, length, nonce
        )

    def test_cache_does_not_leak_between_keys(self):
        # Interleave two keys and lengths so the per-key add-schedule
        # cache is exercised in both hit and grow paths.
        a, b = b"aaaaaaaa-key-one", b"key-two-bbbbbbbb"
        for length in (3, 64, 17, 200, 64):
            assert _keystream(a, length, 7) == reference_keystream(a, length, 7)
            assert _keystream(b, length, 7) == reference_keystream(b, length, 7)


class TestMacPinned:
    @given(key=keys, data=payloads)
    @settings(max_examples=100)
    def test_matches_reference(self, key, data):
        assert _mac16(key, data) == reference_mac16(key, data)

    def test_empty_data(self):
        assert _mac16(b"sixteen-byte-key", b"") == 0x5A5A


class TestXorPinned:
    @given(data=payloads)
    @settings(max_examples=50)
    def test_matches_reference(self, data):
        stream = reference_keystream(b"pinning-key", len(data), 1)
        assert _xor_bytes(data, stream) == reference_xor(data, stream)


class TestRecordsPinned:
    """seal/open composed from the references == the real session."""

    @given(key=keys, plaintext=payloads, nonce=nonces)
    @settings(max_examples=100)
    def test_seal_record_bytes(self, key, plaintext, nonce):
        session = TLSSession(key)
        session.handshake()
        record, cycles = session.seal_record(plaintext, nonce)
        stream = reference_keystream(key, len(plaintext), nonce)
        body = reference_xor(plaintext, stream)
        expected = body + reference_mac16(key, body).to_bytes(2, "little")
        assert record == expected
        assert cycles == CYCLES_PER_RECORD + CYCLES_PER_BYTE * len(plaintext)

    @given(key=keys, plaintext=payloads, nonce=nonces)
    @settings(max_examples=100)
    def test_open_record_roundtrip(self, key, plaintext, nonce):
        session = TLSSession(key)
        session.handshake()
        record, _ = session.seal_record(plaintext, nonce)
        opened, cycles = session.open_record(record, nonce)
        assert opened == plaintext
        assert cycles == CYCLES_PER_RECORD + CYCLES_PER_BYTE * len(plaintext)

    def test_pinned_vector(self):
        """One frozen byte vector, immune to reference-impl edits."""
        session = TLSSession(b"session-key-00000001")
        session.handshake()
        record, _ = session.seal_record(b"PUB:device/rpc:pinned", 3)
        assert record.hex() == (
            "9a821a82fe209ceeae35ee3583e0dae087d4d307023173"
        )
        assert session.open_record(record, 3)[0] == b"PUB:device/rpc:pinned"
