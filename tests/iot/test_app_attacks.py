"""Hostile-input tests for the end-to-end application."""

import pytest

from repro.iot.app import IoTApplication
from repro.iot.packets import frame


@pytest.fixture
def connected_app():
    app = IoTApplication()
    app.connect()
    return app


class TestHostileNetwork:
    def test_corrupt_frame_dropped_at_netstack(self, connected_app):
        app = connected_app
        seq = app.cloud._next_seq()
        wire = bytearray(frame(seq, b"PUB:device/poll:abcd"))
        wire[-1] ^= 0xFF  # flip a payload bit: checksum now fails
        before = app.pipeline.stats.dropped_corrupt
        app._send(bytes(wire))
        assert app.pipeline.stats.dropped_corrupt == before + 1

    def test_tampered_tls_record_dropped(self, connected_app):
        app = connected_app
        seq = app.cloud._next_seq()
        record, _ = app.cloud_tls.seal_record(b"PUB:device/poll:evil", seq)
        tampered = bytearray(record)
        tampered[0] ^= 1
        # Re-frame so the outer checksum is valid and only TLS rejects.
        before = app.pipeline.stats.dropped_tls
        app._send(frame(seq, bytes(tampered)))
        assert app.pipeline.stats.dropped_tls == before + 1
        assert app.session.tls.stats.mac_failures == 1

    def test_replayed_record_rejected(self, connected_app):
        """A record replayed under a later sequence never reaches MQTT.

        TCP/IP still expects the sequence the replay skipped, so it
        drops the replay as out of order and ``device/code`` receives
        nothing.
        """
        app = connected_app
        seq = app.cloud._next_seq()
        record, _ = app.cloud_tls.seal_record(b"PUB:device/code:evil-code", seq)
        replay_seq = app.cloud._next_seq()
        stats = app.pipeline.stats
        out_of_order_before = stats.dropped_out_of_order
        dispatched_before = app.session.mqtt.stats.dispatched
        code_before = bytes(app._code_buffer)
        app._send(frame(replay_seq, record))
        assert stats.dropped_out_of_order == out_of_order_before + 1
        assert app.session.mqtt.stats.dispatched == dispatched_before
        assert bytes(app._code_buffer) == code_before

    def test_app_survives_and_keeps_ticking(self, connected_app):
        app = connected_app
        seq = app.cloud._next_seq()
        wire = bytearray(frame(seq, b"garbage"))
        wire[3] ^= 0x55
        app._send(bytes(wire))
        report = app.run(duration_ms=200)
        assert report.js_ticks == 20  # still animating after the attack
