"""Shared machinery for revoker tests."""

import pytest

from repro.capability import make_roots
from repro.memory import RevocationMap, SystemBus, TaggedMemory
from repro.pipeline import CoreKind, make_core_model

SRAM_BASE = 0x2000_0000
SRAM_SIZE = 0x1_0000
HEAP_BASE = 0x2000_8000
HEAP_SIZE = 0x8000


@pytest.fixture
def bus():
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(SRAM_BASE, SRAM_SIZE))
    return bus


@pytest.fixture
def rmap():
    return RevocationMap(HEAP_BASE, HEAP_SIZE)


@pytest.fixture
def roots():
    return make_roots()


@pytest.fixture
def core():
    return make_core_model(CoreKind.IBEX, load_filter_enabled=True)


def heap_cap(roots, offset=0, size=64):
    return roots.memory.set_address(HEAP_BASE + offset).set_bounds(size)
