"""Tests for the epoch-keyed quarantine lists (section 5.1)."""

from repro.allocator.dlmalloc import Chunk
from repro.allocator.quarantine import MAX_LISTS, Quarantine


def chunk(address=0x1000, size=64):
    return Chunk(address, size)


class TestListManagement:
    def test_same_epoch_shares_a_list(self):
        q = Quarantine()
        q.add(chunk(0x1000), 4)
        q.add(chunk(0x2000), 4)
        assert q.list_count == 1
        assert len(q) == 2

    def test_new_epoch_opens_new_list(self):
        q = Quarantine()
        q.add(chunk(0x1000), 2)
        q.add(chunk(0x2000), 4)
        assert q.list_count == 2

    def test_at_most_three_lists(self):
        """The allocator need track at most 3 distinct lists (5.1)."""
        q = Quarantine()
        for epoch in (0, 2, 4, 6, 8):
            q.add(chunk(0x1000 * (epoch + 1)), epoch)
        assert q.list_count <= MAX_LISTS
        assert len(q) == 5  # merging loses no chunks

    def test_merge_is_conservative(self):
        """Merged lists take the *younger* epoch, so nothing is reaped

        earlier than it would have been unmerged."""
        q = Quarantine()
        for epoch in (0, 2, 4, 6):
            q.add(chunk(0x1000 * (epoch + 1)), epoch)
        # Lists for 0 and 2 merged under epoch 2: at epoch 3 nothing
        # from the merged list may come out (2+2 > 3).
        assert q.reap(3) == []

    def test_total_bytes(self):
        q = Quarantine()
        q.add(chunk(0x1000, 64), 0)
        q.add(chunk(0x2000, 128), 0)
        assert q.total_bytes == 192


class TestReaping:
    def test_reap_by_epoch_rule(self):
        q = Quarantine()
        even = chunk(0x1000)
        odd = chunk(0x2000)
        q.add(even, 0)
        q.add(odd, 1)
        assert q.reap(1) == []
        ready = q.reap(2)  # even-epoch list is safe after one sweep
        assert ready == [even]
        assert q.reap(3) == []  # odd needs epoch 4
        assert q.reap(4) == [odd]
        assert len(q) == 0

    def test_drain(self):
        q = Quarantine()
        q.add(chunk(0x1000), 0)
        q.add(chunk(0x2000), 2)
        drained = q.drain()
        assert len(drained) == 2
        assert q.total_bytes == 0
