"""The seeded load generator, plus framing/session property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iot.loadgen import (
    STREAM_PAYLOAD_BYTES,
    DeliveryMismatch,
    NetLoadGen,
    drive,
    run_point,
)
from repro.iot.packets import (
    FRAME_HEADER_BYTES,
    FramingError,
    frame,
    unframe,
    validate_frame,
)
from repro.iot.sessions import NetPipeline, session_key
from repro.iot.tls import TLSSession


class TestLoadGen:
    def test_deterministic_wire_stream(self):
        def stream():
            gen = NetLoadGen(
                range(1, 9), seed=42, corrupt_rate=0.3, reorder_rate=0.3
            )
            return [gen.frames_for_round(r) for r in range(3)]

        assert stream() == stream()

    def test_shape_assignment_is_seed_function(self):
        a = NetLoadGen(range(10), seed=1).shapes
        b = NetLoadGen(range(10), seed=1).shapes
        c = NetLoadGen(range(10), seed=2).shapes
        assert a == b
        assert set(a.values()) == {"rr", "stream"}
        assert a != c  # astronomically unlikely to collide

    def test_frames_decode_under_session_keys(self):
        gen = NetLoadGen([3], seed=7)
        tls = TLSSession(session_key(3))
        tls.handshake()
        for round_index in range(3):
            for conn_id, wire in gen.frames_for_round(round_index):
                sequence, record = unframe(wire)
                plaintext, _ = tls.open_record(record, sequence)
                assert plaintext.startswith(b"PUB:device/")

    def test_per_connection_order_preserved(self):
        gen = NetLoadGen(range(1, 20), seed=11, stream_fraction=1.0)
        seqs = {}
        for conn_id, wire in gen.frames_for_round(0):
            sequence, _, _ = validate_frame(wire)
            assert sequence > seqs.get(conn_id, 0)
            seqs[conn_id] = sequence

    def test_corrupt_injection_counts_and_fails_checksum(self):
        gen = NetLoadGen([1], seed=3, corrupt_rate=1.0)
        frames = [wire for _, wire in gen.frames_for_round(0)]
        assert gen.injected_corrupt == 1
        with pytest.raises(FramingError):
            validate_frame(frames[0])
        validate_frame(frames[1])  # the clean retransmit follows

    def test_reorder_injection_swaps_and_retransmits(self):
        gen = NetLoadGen(
            [1], seed=3, stream_fraction=1.0, stream_burst=2,
            reorder_rate=1.0,
        )
        frames = [wire for _, wire in gen.frames_for_round(0)]
        assert gen.injected_reorder == 1
        seqs = [validate_frame(wire)[0] for wire in frames]
        assert seqs == [2, 1, 2]

    def test_expected_counters_match_pipeline(self):
        pipeline = NetPipeline(zero_copy=True)
        pipeline.establish_many(range(1, 13))
        gen = NetLoadGen(
            range(1, 13), seed=20260807, corrupt_rate=0.2, reorder_rate=0.2
        )
        drive(pipeline, gen, rounds=3)
        stats = pipeline.stats
        assert stats.packets_delivered == gen.expected_delivered
        assert stats.payload_bytes_delivered == gen.expected_payload_bytes
        assert stats.dropped_corrupt == gen.injected_corrupt
        assert stats.dropped_out_of_order == gen.injected_reorder
        assert stats.frees == stats.allocs  # no buffer leaks

    def test_backpressure_retransmit_keeps_sessions_alive(self):
        """A tiny ring forces refusals; the flow-controlled sender must
        still deliver everything (a lost frame would stall sequencing
        for the rest of the session)."""
        pipeline = NetPipeline(zero_copy=True, queue_capacity=4)
        pipeline.establish_many(range(1, 9))
        gen = NetLoadGen(range(1, 9), seed=5, stream_fraction=1.0)
        drive(pipeline, gen, rounds=2)
        assert pipeline.stats.dropped_backpressure > 0
        assert pipeline.stats.packets_delivered == gen.expected_delivered


class TestRunPoint:
    """The one sweep point behind BENCH_net.json and the net-scale bench."""

    def test_point_reports_both_drop_paths(self):
        point = run_point(True, 64, 4)
        assert point["mode"] == "zerocopy"
        assert point["counters"]["dropped_corrupt"] > 0
        assert point["counters"]["dropped_out_of_order"] > 0

    @pytest.mark.parametrize("counter, check", [
        ("packets_delivered", "delivered messages"),
        ("payload_bytes_delivered", "payload bytes"),
        ("dropped_corrupt", "corrupt drops"),
        ("dropped_out_of_order", "out-of-order drops"),
    ])
    def test_each_self_check_catches_a_miscount(
        self, monkeypatch, counter, check
    ):
        real_report = NetPipeline.report

        def miscounted(pipeline):
            report = real_report(pipeline)
            report["counters"][counter] += 1
            return report

        monkeypatch.setattr(NetPipeline, "report", miscounted)
        with pytest.raises(DeliveryMismatch, match=check):
            run_point(False, 4, 2)


bodies = st.binary(max_size=200)
sequences = st.integers(min_value=0, max_value=0xFFFF)


class TestFramingProperties:
    @given(sequence=sequences, body=bodies)
    @settings(max_examples=100)
    def test_frame_unframe_roundtrip(self, sequence, body):
        wire = frame(sequence, body)
        assert len(wire) == FRAME_HEADER_BYTES + len(body)
        assert unframe(wire) == (sequence, body)
        got_seq, offset, length = validate_frame(wire)
        assert (got_seq, wire[offset : offset + length]) == (sequence, body)

    @given(sequence=sequences, body=bodies, cut=st.integers(1, 20))
    @settings(max_examples=60)
    def test_truncated_frames_rejected(self, sequence, body, cut):
        wire = frame(sequence, body)
        truncated = wire[: max(0, len(wire) - cut)]
        with pytest.raises(FramingError):
            validate_frame(truncated)

    @given(
        sequence=sequences,
        body=st.binary(min_size=1, max_size=200),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_flipped_body_byte_rejected(self, sequence, body, data):
        wire = bytearray(frame(sequence, body))
        index = data.draw(
            st.integers(FRAME_HEADER_BYTES, len(wire) - 1), label="flip"
        )
        wire[index] ^= 0xFF
        with pytest.raises(FramingError):
            validate_frame(bytes(wire))


@st.composite
def interleavings(draw):
    """Per-connection message lists plus a seeded interleave order."""
    n_conns = draw(st.integers(2, 4))
    counts = [draw(st.integers(1, 5)) for _ in range(n_conns)]
    order = []
    for conn, count in enumerate(counts):
        order.extend([conn] * count)
    return counts, draw(st.permutations(order))


class TestInterleavedSessions:
    @given(plan=interleavings())
    @settings(max_examples=20, deadline=None)
    def test_any_interleave_delivers_in_per_session_order(self, plan):
        """Frames from many sessions in any cross-session order: every
        session still sees its own messages exactly once, in order."""
        counts, order = plan
        pipeline = NetPipeline(zero_copy=True, collect_messages=True)
        cloud = {}
        for conn in range(len(counts)):
            pipeline.establish(conn + 1)
            tls = TLSSession(session_key(conn + 1))
            tls.handshake()
            cloud[conn + 1] = tls
        next_seq = {conn + 1: 1 for conn in range(len(counts))}
        expected = {conn + 1: [] for conn in range(len(counts))}
        for conn0 in order:
            conn = conn0 + 1
            seq = next_seq[conn]
            next_seq[conn] = seq + 1
            body = b"PUB:device/rpc:" + f"c{conn}s{seq}".encode()
            expected[conn].append(b"device/rpc:" + f"c{conn}s{seq}".encode())
            record, _ = cloud[conn].seal_record(body, seq)
            assert pipeline.submit(conn, frame(seq, record))
            if not pipeline.q_ingress.has_room:
                pipeline.pump()
        pipeline.drain()
        delivered = {conn: [] for conn in expected}
        for conn, message in pipeline.messages:
            delivered[conn].append(message)
        assert delivered == expected
        assert pipeline.stats.packets_delivered == len(order)
