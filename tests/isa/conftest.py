"""Shared fixtures for ISA tests: a small machine in both modes."""

import pytest

from repro.capability import make_roots
from repro.isa import CPU, ExecutionMode, assemble
from repro.memory import RevocationMap, SystemBus, TaggedMemory

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2000_8000
HEAP_BASE = 0x2000_C000
HEAP_SIZE = 0x4000


@pytest.fixture
def bus():
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(0x2000_0000, 0x1_0000))
    return bus


@pytest.fixture
def roots():
    return make_roots()


@pytest.fixture
def rmap():
    return RevocationMap(HEAP_BASE, HEAP_SIZE)


def make_cpu(bus, roots, source, mode=ExecutionMode.CHERIOT, load_filter=None,
             entry=""):
    """Assemble and load a program; returns the ready-to-run CPU."""
    cpu = CPU(bus, mode=mode, load_filter=load_filter)
    program = assemble(source)
    if mode is ExecutionMode.CHERIOT:
        cpu.load_program(program, CODE_BASE, pcc=roots.executable, entry=entry)
    else:
        cpu.load_program(program, CODE_BASE, entry=entry)
    return cpu


@pytest.fixture
def data_cap(roots):
    """A 256-byte RW data window at DATA_BASE."""
    return roots.memory.set_address(DATA_BASE).set_bounds(256)
