"""Cross-ISA validation: every kernel matches its Python oracle on

both targets, with and without the compiler-bug modelling, and the
initialized global data actually reaches simulated memory."""

import pytest

from repro.cc.lower import Target, compile_module
from repro.isa import CPU, ExecutionMode, assemble
from repro.memory import Region, SystemBus, TaggedMemory
from repro.workloads.coremark import boot
from repro.workloads.kernels import (
    ALL_KERNELS,
    binary_search_kernel,
    crc32_kernel,
    fibonacci_kernel,
    string_search_kernel,
)

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2002_0000
GLOBALS = Region("globals", DATA_BASE, 0x8000)
STACK = Region("stack", 0x2003_C000, 0x4000)


def run_compiled(compiled, entry, args):
    """Call ``entry(*args)`` in a compiled module; returns ``a0``."""
    setup = "\n".join(f"li a{i}, {v}" for i, v in enumerate(args))
    program = assemble(compiled.assembly + f"_start:\n{setup}\njal ra, {entry}\nhalt\n")
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(CODE_BASE, 0x4_0000))
    cheriot = compiled.target is Target.CHERIOT
    cpu = CPU(bus, ExecutionMode.CHERIOT if cheriot else ExecutionMode.RV32E)
    boot(cpu, program, CODE_BASE, STACK, GLOBALS,
         compiled.globals_layout.values())
    cpu.run(max_steps=5_000_000)
    return cpu.regs.read_int(10)


def execute(module, entry, args, target, fixed_compiler=False):
    compiled = compile_module(
        module, target, fixed_compiler=fixed_compiler, data_base=DATA_BASE
    )
    return run_compiled(compiled, entry, args)


@pytest.mark.parametrize("builder", ALL_KERNELS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("target", [Target.RV32E, Target.CHERIOT])
def test_kernel_matches_oracle(builder, target):
    module, entry, args, oracle = builder()
    assert execute(module, entry, args, target) == oracle


@pytest.mark.parametrize("builder", ALL_KERNELS, ids=lambda b: b.__name__)
def test_fixed_compiler_same_semantics(builder):
    """The bug fixes change cycle counts, never answers."""
    module, entry, args, oracle = builder()
    assert execute(module, entry, args, Target.CHERIOT, fixed_compiler=True) == oracle


class TestSpecificKernels:
    def test_crc32_known_vector(self):
        module, entry, args, oracle = crc32_kernel(b"123456789")
        # The canonical CRC-32 check value.
        assert oracle == 0xCBF43926
        assert execute(module, entry, args, Target.CHERIOT) == 0xCBF43926

    def test_search_miss_returns_minus_one(self):
        module, entry, args, oracle = string_search_kernel(needle=b"zebra")
        assert oracle == 0xFFFFFFFF
        assert execute(module, entry, args, Target.RV32E) == 0xFFFFFFFF

    def test_fibonacci_values(self):
        for n, expected in ((0, 0), (1, 1), (10, 55), (47, 2971215073)):
            module, entry, args, oracle = fibonacci_kernel(n)
            assert oracle == expected

    def test_binary_search_miss(self):
        module, entry, args, oracle = binary_search_kernel(target=5000)
        assert oracle == 0xFFFFFFFF
        assert execute(module, entry, args, Target.CHERIOT) == 0xFFFFFFFF
