"""The firewall compartment, bounded queues, and the scaled pipeline."""

import pytest

from repro.capability import MonotonicityFault, make_roots
from repro.iot.firewall import Firewall
from repro.iot.loadgen import NetLoadGen, drive
from repro.iot.packets import frame
from repro.iot.sessions import (
    BoundedQueue,
    NetPipeline,
    SessionError,
    session_key,
)
from repro.iot.tls import TLSSession


def _frame_cap(length=64):
    roots = make_roots()
    return roots.memory.set_address(0x2000_0100).set_bounds(max(1, length))


class TestFirewall:
    def test_admits_ordinary_frame(self):
        fw = Firewall()
        view, cycles = fw.admit(_frame_cap(64), 64)
        assert view is not None
        assert cycles > 0
        assert fw.stats.admitted == 1

    def test_rejects_runt(self):
        fw = Firewall()
        view, _ = fw.admit(_frame_cap(5), 5)
        assert view is None
        assert fw.stats.rejected_runt == 1

    def test_rejects_oversize(self):
        fw = Firewall(max_frame=128)
        view, _ = fw.admit(_frame_cap(129), 129)
        assert view is None
        assert fw.stats.rejected_oversize == 1

    def test_view_is_narrowed_to_frame(self):
        """The admitted view covers exactly the frame — allocator slack
        above it is gone from every downstream compartment's reach."""
        cap = _frame_cap(96)
        view, _ = Firewall().admit(cap, 64)
        assert view.base == cap.base
        assert view.length == 64
        with pytest.raises(MonotonicityFault):
            view.set_bounds(96)


class TestBoundedQueue:
    def test_capacity_enforced(self):
        q = BoundedQueue("q", 2)
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert len(q) == 2

    def test_fifo_and_stats(self):
        q = BoundedQueue("q", 4)
        for item in (1, 2, 3):
            q.offer(item)
        assert [q.take(), q.take()] == [1, 2]
        snap = q.snapshot()
        assert snap["enqueued"] == 3
        assert snap["dequeued"] == 2
        assert snap["high_watermark"] == 3
        assert snap["depth"] == 1

    def test_interleaved_offers_and_takes_stay_fifo(self):
        q = BoundedQueue("q", 3)
        taken = []
        for item in range(10):
            if not q.has_room:
                taken.append(q.take())
            assert q.offer(item)
        while len(q):
            taken.append(q.take())
        assert taken == list(range(10))
        assert q.snapshot() == {
            "capacity": 3, "depth": 0, "enqueued": 10, "dequeued": 10,
            "high_watermark": 3,
        }

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue("q", 0)


def _wire(conn_id, sequence, body):
    tls = TLSSession(session_key(conn_id))
    tls.handshake()
    record, _ = tls.seal_record(body, sequence)
    return frame(sequence, record)


@pytest.fixture(params=[True, False], ids=["zerocopy", "copy"])
def pipeline(request):
    p = NetPipeline(zero_copy=request.param, collect_messages=True)
    p.establish(7)
    return p


class TestNetPipeline:
    def test_end_to_end_delivery(self, pipeline):
        pipeline.submit(7, _wire(7, 1, b"PUB:device/rpc:hello"))
        pipeline.drain()
        assert pipeline.stats.packets_delivered == 1
        assert pipeline.messages == [(7, b"device/rpc:hello")]
        assert pipeline.sessions[7].delivered == 1

    def test_zero_copy_is_one_alloc_per_packet(self):
        p = NetPipeline(zero_copy=True)
        p.establish(1)
        for seq in range(1, 6):
            p.submit(1, _wire(1, seq, b"PUB:device/rpc:x"))
        p.drain()
        assert p.stats.allocs == 5
        assert p.stats.frees == 5
        assert p.stats.narrowings == 3 * 5  # firewall, tcpip, tls

    def test_copy_mode_allocates_per_layer(self):
        p = NetPipeline(zero_copy=False)
        p.establish(1)
        p.submit(1, _wire(1, 1, b"PUB:device/rpc:x"))
        p.drain()
        # driver + firewall + tcpip + tls + app scratch
        assert p.stats.allocs == 5
        assert p.stats.frees == 5
        assert p.stats.narrowings == 0

    def test_unknown_connection_rejected(self, pipeline):
        with pytest.raises(SessionError):
            pipeline.submit(99, b"anything")

    def test_duplicate_establish_rejected(self, pipeline):
        with pytest.raises(SessionError):
            pipeline.establish(7)

    def test_corrupt_frame_dropped_and_freed(self, pipeline):
        wire = bytearray(_wire(7, 1, b"PUB:device/rpc:hello"))
        wire[8] ^= 0xFF
        pipeline.submit(7, bytes(wire))
        pipeline.drain()
        assert pipeline.stats.dropped_corrupt == 1
        assert pipeline.stats.packets_delivered == 0
        assert pipeline.stats.frees == pipeline.stats.allocs

    def test_out_of_order_dropped(self, pipeline):
        pipeline.submit(7, _wire(7, 3, b"PUB:device/rpc:early"))
        pipeline.drain()
        assert pipeline.stats.dropped_out_of_order == 1

    def test_tampered_record_dropped_by_tls(self, pipeline):
        tls = TLSSession(session_key(7))
        tls.handshake()
        record, _ = tls.seal_record(b"PUB:device/rpc:x", 1)
        tampered = record[:-2] + bytes(2)
        pipeline.submit(7, frame(1, tampered))
        pipeline.drain()
        assert pipeline.stats.dropped_tls == 1

    def test_unparseable_mqtt_dropped_by_app(self, pipeline):
        pipeline.submit(7, _wire(7, 1, b"not-mqtt-at-all"))
        pipeline.drain()
        assert pipeline.stats.dropped_app == 1

    def test_backpressure_drops_before_allocating(self):
        p = NetPipeline(zero_copy=True, queue_capacity=2)
        p.establish(1)
        wires = [_wire(1, seq, b"PUB:device/rpc:x") for seq in range(1, 5)]
        accepted = [p.submit(1, wire) for wire in wires]
        assert accepted == [True, True, False, False]
        assert p.stats.dropped_backpressure == 2
        assert p.stats.allocs == 2

    def test_crossings_are_batched(self):
        p = NetPipeline(zero_copy=True)
        p.establish(1)
        for seq in range(1, 9):
            p.submit(1, _wire(1, seq, b"PUB:device/rpc:x"))
        p.pump()
        # All eight packets traversed all four stages in one pump: one
        # crossing per stage, not per packet.
        assert p.stats.packets_delivered == 8
        assert p.stats.crossings == 4
        assert p.stats.crossing_cycles > 0

    def test_net_metric_group_on_registry(self, pipeline):
        pipeline.submit(7, _wire(7, 1, b"PUB:device/rpc:hello"))
        pipeline.drain()
        counters = pipeline.counters()
        assert counters["packets_delivered"] == 1
        assert counters["cycles_tls"] > 0

    def test_latency_sketch_populated(self, pipeline):
        pipeline.submit(7, _wire(7, 1, b"PUB:device/rpc:hello"))
        pipeline.drain()
        summary = pipeline.latency.summary()
        assert summary["count"] == 1
        assert summary["p50"] > 0

    def test_report_is_deterministic(self):
        def run():
            p = NetPipeline(zero_copy=True)
            p.establish_many(range(1, 9))
            gen = NetLoadGen(
                range(1, 9), seed=99, corrupt_rate=0.2, reorder_rate=0.2
            )
            drive(p, gen, rounds=3)
            return p.report()

        assert run() == run()

    def test_crypto_bucket_identical_across_modes(self):
        reports = {}
        for zero_copy in (True, False):
            p = NetPipeline(zero_copy=zero_copy)
            p.establish_many(range(1, 5))
            gen = NetLoadGen(range(1, 5), seed=5)
            drive(p, gen, rounds=2)
            reports[zero_copy] = p.stats
        assert (
            reports[True].cycles_crypto == reports[False].cycles_crypto
        )
        assert reports[True].cycles_crypto > 0
