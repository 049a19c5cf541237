"""Tests for the capability-returning allocator compartment (section 5.1)."""

import typing
from typing import List

import pytest

from repro.allocator import (
    CheriHeap,
    DoubleFree,
    InvalidFree,
    OutOfMemory,
    TemporalSafetyMode,
)
from repro.allocator.dlmalloc import ALIGNMENT
from repro.allocator.heap import HEAP_PERMS
from repro.capability import Permission as P, make_roots
from repro.capability.bounds import (
    encode,
    representable_alignment_mask,
    representable_length,
)
from repro.memory import RevocationMap, SystemBus, TaggedMemory, default_memory_map
from repro.pipeline import CoreKind, make_core_model
from repro.revoker import BackgroundRevoker, EpochCounter, SoftwareRevoker

MM = default_memory_map()


def build_heap(mode=TemporalSafetyMode.HARDWARE, core=None, heap_size=None):
    mm = default_memory_map(heap_size=heap_size) if heap_size else MM
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
    rmap = RevocationMap(mm.heap.base, mm.heap.size)
    roots = make_roots()
    epoch = EpochCounter()
    model = core or make_core_model(CoreKind.IBEX, load_filter_enabled=True)
    software = SoftwareRevoker(bus, rmap, epoch, model)
    hardware = BackgroundRevoker(bus, rmap, epoch, model)
    heap = CheriHeap(
        bus,
        mm.heap,
        rmap,
        roots.memory,
        mode,
        software_revoker=software,
        hardware_revoker=hardware,
        epoch=epoch,
        core_model=model,
    )
    return heap, bus, rmap, roots


class TestSpatialSafety:
    def test_bounds_exactly_cover_rounded_allocation(self):
        heap, *_ = build_heap()
        cap = heap.malloc(100)
        assert cap.tag
        assert cap.base == cap.address
        assert cap.length >= 100
        # Small allocations are precise (<= 511 bytes).
        assert cap.length == 100 or cap.length == 104  # 8-byte granule only

    def test_capability_excludes_header(self):
        heap, *_ = build_heap()
        a = heap.malloc(32)
        b = heap.malloc(32)
        # The headers sit between the two payloads, outside both caps.
        assert a.top <= b.base - 8 or b.top <= a.base - 8

    def test_returned_perms_exclude_sl_and_ex(self):
        heap, *_ = build_heap()
        cap = heap.malloc(16)
        assert P.SL not in cap.perms
        assert P.EX not in cap.perms
        assert cap.has(P.LD, P.SD, P.MC, P.GL)

    def test_large_allocations_exactly_representable(self):
        """Above 511 bytes the allocator pads/aligns so bounds stay

        exact — the ~0.19 % fragmentation trade (section 3.2.3)."""
        heap, *_ = build_heap()
        for size in (1000, 4096, 100_000):
            cap = heap.malloc(size)
            assert cap.length >= size
            granule = 1 << (cap.bounds.exponent)
            assert cap.base % granule == 0
            assert cap.length % granule == 0
            heap.free(cap)

    def test_padded_request_is_crrl_and_cram(self):
        """``malloc`` computes one exponent per request; it must pad and
        align exactly as ``crrl`` and ``cram`` would, and the padded
        length must encode exactly at that alignment.  Every size below
        2**13, then each side of every exponent step (511 * 2**e)."""
        heap, *_ = build_heap()
        steps = [(511 << e) + d for e in range(25) for d in (-2, -1, 0, 1, 2)]
        sizes = list(range(1, 1 << 13)) + [s for s in steps if s <= 1 << 32]
        for size in sizes:
            rounded, align = heap._padded_request(size)
            cram = (~representable_alignment_mask(size) & 0xFFFFFFFF) + 1
            assert (rounded, align) == (
                representable_length(size), max(cram, ALIGNMENT)
            ), size
            assert encode(0, rounded, exact=True)[2] == rounded, size

    def test_rejects_nonpositive(self):
        heap, *_ = build_heap()
        with pytest.raises(ValueError):
            heap.malloc(0)


class TestFreeValidation:
    def test_free_untagged_rejected(self):
        heap, *_ = build_heap()
        cap = heap.malloc(32)
        with pytest.raises(InvalidFree):
            heap.free(cap.untagged())

    def test_double_free_detected_while_quarantined(self):
        heap, *_ = build_heap()
        cap = heap.malloc(32)
        heap.free(cap)
        with pytest.raises(DoubleFree):
            heap.free(cap)

    def test_interior_pointer_free_rejected(self):
        heap, *_ = build_heap()
        cap = heap.malloc(64)
        with pytest.raises(InvalidFree):
            heap.free(cap.inc_address(8).set_bounds(8))

    def test_foreign_pointer_free_rejected(self):
        heap, _, _, roots = build_heap()
        foreign = roots.memory.set_address(MM.heap.base + 0x3000).set_bounds(16)
        with pytest.raises(InvalidFree):
            heap.free(foreign)


class TestTemporalSafety:
    def test_free_paints_revocation_bits(self):
        heap, _, rmap, _ = build_heap()
        cap = heap.malloc(64)
        assert not rmap.is_revoked(cap.base)
        heap.free(cap)
        assert rmap.is_revoked(cap.base)
        assert rmap.is_revoked(cap.base + 56)

    def test_free_zeroes_memory(self):
        heap, bus, _, _ = build_heap()
        cap = heap.malloc(64)
        bus.write_bytes(cap.base, b"\xAA" * 64)
        heap.free(cap)
        assert bus.read_bytes(cap.base, 64) == b"\x00" * 64

    def test_no_reuse_before_revocation(self):
        heap, *_ = build_heap()
        first = heap.malloc(64)
        heap.free(first)
        second = heap.malloc(64)
        # Freed chunk is quarantined: the new allocation must not alias.
        assert second.base != first.base or heap.stats.revocation_passes > 0

    def test_reuse_after_revocation_is_clean(self):
        heap, _, rmap, _ = build_heap()
        cap = heap.malloc(64)
        base = cap.base
        heap.free(cap)
        heap.revoke_now()
        assert not rmap.is_revoked(base)

    def test_stale_capability_invalidated_in_memory(self):
        heap, bus, _, _ = build_heap()
        cap = heap.malloc(64)
        stash = cap.base  # store the cap inside its own allocation
        bus.write_capability(stash, cap)
        heap.free(cap)  # zeroing clears it; use another stash to be sure
        other = heap.malloc(64)
        bus.write_capability(other.base, cap)  # stale cap stashed again
        heap.revoke_now()
        assert not bus.read_capability(other.base).tag

    def test_oom_triggers_revocation_and_recovers(self):
        heap, *_ = build_heap()
        big = MM.heap.size * 3 // 5  # two cannot coexist in the heap
        a = heap.malloc(big)
        heap.free(a)
        b = heap.malloc(big)  # needs the quarantined memory back
        assert heap.stats.revocation_passes >= 1
        heap.free(b)

    def test_true_oom_raises(self):
        heap, *_ = build_heap()
        with pytest.raises(OutOfMemory):
            heap.malloc(MM.heap.size * 2)


class TestModes:
    def test_baseline_skips_temporal_machinery(self):
        heap, bus, rmap, _ = build_heap(TemporalSafetyMode.BASELINE)
        cap = heap.malloc(64)
        bus.write_bytes(cap.base, b"\xAA" * 64)
        heap.free(cap)
        assert not rmap.any_revoked()
        # Baseline does not zero either (no temporal safety at all).
        assert bus.read_bytes(cap.base, 64) == b"\xAA" * 64
        # And memory is reused immediately.
        again = heap.malloc(64)
        assert again.base == cap.base

    def test_metadata_paints_but_reuses_immediately(self):
        heap, _, rmap, _ = build_heap(TemporalSafetyMode.METADATA)
        cap = heap.malloc(64)
        heap.free(cap)
        assert not rmap.any_revoked()  # painted then cleared
        again = heap.malloc(64)
        assert again.base == cap.base
        assert heap.stats.revocation_passes == 0

    def test_software_mode_sweeps(self):
        heap, bus, _, _ = build_heap(TemporalSafetyMode.SOFTWARE)
        cap = heap.malloc(64)
        other = heap.malloc(64)
        bus.write_capability(other.base, cap)
        heap.free(cap)
        heap.revoke_now()
        assert not bus.read_capability(other.base).tag

    def test_mode_requires_matching_revoker(self):
        mm = default_memory_map()
        bus = SystemBus()
        bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
        rmap = RevocationMap(mm.heap.base, mm.heap.size)
        roots = make_roots()
        with pytest.raises(ValueError):
            CheriHeap(bus, mm.heap, rmap, roots.memory, TemporalSafetyMode.SOFTWARE)


class TestAccounting:
    def test_cycles_charged_for_operations(self):
        model = make_core_model(CoreKind.IBEX, load_filter_enabled=True)
        heap, *_ = build_heap(core=model)
        before = model.cycles
        cap = heap.malloc(128)
        heap.free(cap)
        assert model.cycles > before

    def test_stats(self):
        heap, *_ = build_heap()
        cap = heap.malloc(40)
        heap.free(cap)
        assert heap.stats.mallocs == 1
        assert heap.stats.frees == 1
        assert heap.stats.bytes_allocated >= 40

    def test_malloc_cap_equals_root_narrowed_then_masked(self):
        """Masking the root once up front returns the same capability as
        ``csetaddr`` + ``csetboundsexact`` + ``candperm`` per call."""
        heap, *_ = build_heap()
        for size in (1, 40, 511, 512, 5000, 70000):
            cap = heap.malloc(size)
            expected = (
                heap.memory_root.set_address(cap.address)
                .set_bounds(cap.length, exact=True)
                .and_perms(HEAP_PERMS)
            )
            assert cap == expected


def test_type_hints_resolve():
    assert typing.get_type_hints(CheriHeap.check_invariants)["return"] == List[str]
