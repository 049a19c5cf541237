"""Tests for the Microvium-like bytecode VM."""

import pytest

from repro.iot.jsvm import (
    CYCLES_PER_OP,
    NUM_LEDS,
    OP_ADD,
    OP_GETF,
    OP_HALT,
    OP_JMP,
    OP_JNZ,
    OP_LED,
    OP_MOD,
    OP_MUL,
    OP_NEWOBJ,
    OP_PUSH,
    OP_SETF,
    OP_STOREG,
    OP_SUB,
    JavaScriptVM,
    VMError,
    led_animation_bytecode,
)


class _FakeHeap:
    """In-test allocator capturing malloc/free and field traffic."""

    def __init__(self):
        self.allocated = []
        self.freed = []
        self.fields = {}
        self._next = 0x1000

    def malloc(self, size):
        self._next += 0x100
        self.allocated.append((self._next, size))
        return self._next

    def free(self, cap):
        self.freed.append(cap)

    def write_field(self, cap, fld, value):
        self.fields[(cap, fld)] = value

    def read_field(self, cap, fld):
        return self.fields.get((cap, fld), 0)


@pytest.fixture
def heap():
    return _FakeHeap()


@pytest.fixture
def vm(heap):
    return JavaScriptVM(
        heap.malloc, heap.free, heap.write_field, heap.read_field,
        gc_interval_ticks=3,
    )


def run(vm, *code):
    vm.load_bytecode(bytes(code))
    return vm.run_tick()


class TestOpcodes:
    def test_arithmetic(self, vm):
        run(vm, OP_PUSH, 6, OP_PUSH, 7, OP_MUL, OP_STOREG, 0, OP_HALT)
        assert vm.globals[0] == 42

    def test_mod(self, vm):
        run(vm, OP_PUSH, 17, OP_PUSH, 5, OP_MOD, OP_STOREG, 0, OP_HALT)
        assert vm.globals[0] == 2

    def test_sub_wraps(self, vm):
        run(vm, OP_PUSH, 0, OP_PUSH, 1, OP_SUB, OP_STOREG, 0, OP_HALT)
        assert vm.globals[0] == 0xFFFFFFFF

    def test_jumps(self, vm):
        # if (1) g0 = 5 else g0 = 9
        run(
            vm,
            OP_PUSH, 1,
            OP_JNZ, 4,       # skip the else branch
            OP_PUSH, 9, OP_JMP, 2,
            OP_PUSH, 5,
            OP_STOREG, 0,
            OP_HALT,
        )
        assert vm.globals[0] == 5

    def test_led(self, vm):
        run(vm, OP_PUSH, 1, OP_LED, 3, OP_HALT)
        assert vm.leds[3] == 1

    def test_objects(self, vm, heap):
        run(
            vm,
            OP_NEWOBJ, 16,
            OP_PUSH, 77, OP_SETF, 2,
            OP_GETF, 2, OP_STOREG, 1,
            OP_HALT,
        )
        assert vm.globals[1] == 77
        assert len(heap.allocated) == 1

    def test_stack_underflow_faults(self, vm):
        with pytest.raises(VMError):
            run(vm, OP_ADD, OP_HALT)

    def test_bad_opcode_faults(self, vm):
        with pytest.raises(VMError):
            run(vm, 0x7F, OP_HALT)

    def test_setf_without_object_faults(self, vm):
        with pytest.raises(VMError):
            run(vm, OP_PUSH, 1, OP_SETF, 0, OP_HALT)

    def test_runaway_loop_bounded(self, vm):
        with pytest.raises(VMError):
            run(vm, OP_JMP, 0xFE)  # jump-to-self forever

    def test_jump_before_pc_zero_faults(self, vm):
        """pc -1 must not index the program from its end (its HALT)."""
        with pytest.raises(VMError, match=r"^pc -1 before start of bytecode$"):
            run(vm, OP_PUSH, 1, OP_LED, 2, OP_JMP, 0xF9, OP_PUSH, 5, OP_HALT)
        assert vm.stats.ops_executed == 3

    def test_jump_onto_an_operand_byte_runs_it(self, vm):
        # JMP -3 lands on PUSH's operand, 0x00: HALT.
        assert run(vm, OP_PUSH, OP_HALT, OP_JMP, 0xFD, OP_PUSH, 9) == 3 * CYCLES_PER_OP


class TestGC:
    def test_no_reuse_before_collection(self, vm, heap):
        """Microvium semantics: objects are freed only at GC passes."""
        vm.load_bytecode(bytes([OP_NEWOBJ, 16, OP_HALT]))
        vm.run_tick()
        vm.run_tick()
        assert heap.freed == []
        vm.run_tick()  # tick 3 = gc_interval -> collect
        assert len(heap.freed) == 3
        assert vm.live_objects == 0
        assert vm.stats.gc_passes == 1


class TestAnimationProgram:
    def test_led_chase(self, heap):
        vm = JavaScriptVM(
            heap.malloc, heap.free, heap.write_field, heap.read_field
        )
        vm.load_bytecode(led_animation_bytecode())
        for tick in range(1, 12):
            vm.run_tick()
            expected = tick % 8
            assert vm.leds == [1 if i == expected else 0 for i in range(NUM_LEDS)]

    def test_per_tick_objects(self, heap):
        vm = JavaScriptVM(
            heap.malloc, heap.free, heap.write_field, heap.read_field
        )
        vm.load_bytecode(led_animation_bytecode(objects_per_tick=3))
        vm.run_tick()
        assert len(heap.allocated) == 3

    def test_cycles_charged_per_op(self, heap):
        vm = JavaScriptVM(
            heap.malloc, heap.free, heap.write_field, heap.read_field
        )
        vm.load_bytecode(led_animation_bytecode())
        cycles = vm.run_tick()
        assert cycles >= vm.stats.ops_executed  # > 1 cycle/op

    def test_empty_vm_tick_is_free(self, vm):
        assert JavaScriptVM(
            vm._malloc, vm._free, vm._write_field, vm._read_field
        ).run_tick() == 0
