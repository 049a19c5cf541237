"""Tests for inter-compartment message queues."""

import pytest

from repro.capability import Capability, Permission as P
from repro.capability.errors import PermissionFault
from repro.rtos.message_queue import MessageQueue, QueueEmpty, QueueFull

RW = {P.GL, P.LD, P.SD, P.MC, P.LM, P.LG}


@pytest.fixture
def queue():
    return MessageQueue(capacity=4, name="test")


class TestRing:
    def test_fifo_order(self, queue):
        for value in (1, 2, 3):
            queue.send(value)
        assert [queue.receive() for _ in range(3)] == [1, 2, 3]

    def test_full(self, queue):
        for value in range(4):
            queue.send(value)
        assert queue.full
        with pytest.raises(QueueFull):
            queue.send(99)

    def test_empty(self, queue):
        with pytest.raises(QueueEmpty):
            queue.receive()

    def test_stats(self, queue):
        queue.send(1)
        queue.send(2)
        queue.receive()
        assert queue.stats.sends == 2
        assert queue.stats.receives == 1
        assert queue.stats.high_watermark == 2

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            MessageQueue(0)


class TestCapabilityFlow:
    def test_global_capability_flows(self, queue):
        cap = Capability.from_bounds(0x2000_0000, 64, RW)
        queue.send(cap)
        assert queue.receive() == cap

    def test_local_capability_rejected(self, queue):
        """The SL rule: queue storage is not stack, so locals can't

        pass through — no laundering of ephemeral delegations."""
        local = Capability.from_bounds(0x2000_0000, 64, RW).make_local()
        with pytest.raises(PermissionFault):
            queue.send(local)
        assert queue.stats.rejected_locals == 1
        assert queue.empty  # nothing was enqueued

    def test_local_inside_tuple_rejected(self, queue):
        local = Capability.from_bounds(0x2000_0000, 64, RW).make_local()
        with pytest.raises(PermissionFault):
            queue.send(("wrapped", local))

    def test_untagged_local_bits_pass(self, queue):
        junk = Capability.from_bounds(0x2000_0000, 64, RW).make_local().untagged()
        queue.send(junk)  # just bits; no authority moves
