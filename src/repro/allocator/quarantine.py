"""Epoch-keyed quarantine lists (paper section 5.1).

Instead of returning memory to the free lists, ``free()`` attaches the
chunk to the quarantine list of the *current epoch*.  If the epoch has
advanced since the previous ``free()``, a new list is opened.  At most
three distinct lists need tracking: once a list's age reaches 3 (current
epoch at least three greater than when it was opened), every chunk on
it has provably been through a complete revocation sweep and may be
reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.allocator.dlmalloc import Chunk
from repro.revoker.epoch import fully_swept

#: The paper's bound on simultaneously tracked quarantine lists.
MAX_LISTS = 3


@dataclass
class _QuarantineList:
    open_epoch: int
    chunks: List[Chunk] = field(default_factory=list)
    bytes: int = 0


class Quarantine:
    """At most :data:`MAX_LISTS` epoch-stamped lists of freed chunks."""

    def __init__(self) -> None:
        self._lists: List[_QuarantineList] = []
        #: Bytes held across every list: a running total that ``add``,
        #: ``reap`` and ``drain`` keep equal to the sum of the lists'.
        self.total_bytes = 0

    @property
    def list_count(self) -> int:
        return len(self._lists)

    def __len__(self) -> int:
        return sum(len(entry.chunks) for entry in self._lists)

    def add(self, chunk: Chunk, current_epoch: int) -> None:
        """Quarantine a freed chunk under the current epoch."""
        if self._lists and self._lists[-1].open_epoch == current_epoch:
            entry = self._lists[-1]
        else:
            entry = _QuarantineList(current_epoch)
            self._lists.append(entry)
            if len(self._lists) > MAX_LISTS:
                # The two oldest lists merge; the merged list's effective
                # age is that of the *younger* of the two, which is the
                # conservative direction.
                oldest, second = self._lists[0], self._lists[1]
                second.chunks.extend(oldest.chunks)
                second.bytes += oldest.bytes
                self._lists.pop(0)
        entry.chunks.append(chunk)
        entry.bytes += chunk.size
        self.total_bytes += chunk.size

    def reap(self, current_epoch: int) -> List[Chunk]:
        """Pop every chunk that has survived a full revocation sweep."""
        ready: List[Chunk] = []
        remaining: List[_QuarantineList] = []
        for entry in self._lists:
            if fully_swept(entry.open_epoch, current_epoch):
                ready.extend(entry.chunks)
                self.total_bytes -= entry.bytes
            else:
                remaining.append(entry)
        self._lists = remaining
        return ready

    def iter_chunks(self):
        """Yield every quarantined chunk (oldest list first)."""
        for entry in self._lists:
            yield from entry.chunks

    def drain(self) -> List[Chunk]:
        """Unconditionally empty the quarantine (metadata-only mode)."""
        chunks = [c for entry in self._lists for c in entry.chunks]
        self._lists = []
        self.total_bytes = 0
        return chunks
