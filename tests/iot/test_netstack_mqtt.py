"""Tests for the MQTT compartment.

The TCP/IP stage is tested as part of the receive chain, in
``test_firewall_sessions.py::TestNetPipeline``.
"""

import pytest

from repro.iot.mqtt import MQTTClient, MQTTError


class TestMQTT:
    def test_dispatch(self):
        client = MQTTClient()
        seen = []
        client.subscribe("a/b", seen.append)
        handlers, cycles = client.handle_record(b"PUB:a/b:payload")
        assert handlers == 1 and cycles > 0
        assert seen == [b"payload"]

    def test_multiple_subscribers(self):
        client = MQTTClient()
        seen = []
        client.subscribe("t", lambda p: seen.append(1))
        client.subscribe("t", lambda p: seen.append(2))
        client.handle_record(b"PUB:t:x")
        assert seen == [1, 2]

    def test_unknown_topic_counted(self):
        client = MQTTClient()
        handlers, _ = client.handle_record(b"PUB:ghost:x")
        assert handlers == 0
        assert client.stats.unknown_topic == 1

    def test_malformed_record_raises(self):
        client = MQTTClient()
        with pytest.raises(MQTTError):
            client.handle_record(b"SUB:x")
        with pytest.raises(MQTTError):
            client.handle_record(b"PUB:noseparator")

    def test_payload_may_contain_colons(self):
        client = MQTTClient()
        seen = []
        client.subscribe("t", seen.append)
        client.handle_record(b"PUB:t:a:b:c")
        assert seen == [b"a:b:c"]
