"""The decoded-table VM against the per-byte interpreter it replaced.

``JavaScriptVM.run_tick`` walks a table that ``load_bytecode`` decodes
once.  ``_ByteLoopVM`` below keeps the interpreter as it was before:
it re-decodes every byte it runs, tests each opcode for an operand and
pops through a checking helper.  It differs in one place, a fix: a pc
below 0 faults instead of indexing the program from its end.

Hypothesis-built bytecode, with random and bad opcodes, truncated
tails, jumps to any offset, empty stacks and field ops with no object,
runs on both VMs against the same fake heap.  After every tick the
returned cycles or the ``VMError``, the globals, the LEDs, the
statistics, the tick's cycles and the heap's call log must be equal.
"""

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iot.jsvm import (
    CYCLES_PER_ALLOC_OP,
    CYCLES_PER_OP,
    NUM_GLOBALS,
    NUM_LEDS,
    OP_ADD,
    OP_DROP,
    OP_DUP,
    OP_GETF,
    OP_HALT,
    OP_JMP,
    OP_JNZ,
    OP_LED,
    OP_LOADG,
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

_HAS_OPERAND = {
    OP_PUSH, OP_LOADG, OP_STOREG, OP_JNZ, OP_JMP, OP_LED, OP_NEWOBJ,
    OP_SETF, OP_GETF,
}
_NO_OPERAND = [OP_HALT, OP_ADD, OP_SUB, OP_MUL, OP_DUP, OP_DROP, OP_MOD]


class _ByteLoopVM(JavaScriptVM):
    """The reference: one byte at a time, straight from ``bytecode``."""

    def run_tick(self) -> int:
        if not self.bytecode:
            return 0
        self._cycles_this_tick = 0
        self.stats.ticks += 1
        pc = 0
        stack: List[int] = []
        code = self.bytecode
        for _ in range(self.max_steps_per_tick):
            if pc >= len(code):
                raise VMError(f"pc {pc} past end of bytecode")
            if pc < 0:
                raise VMError(f"pc {pc} before start of bytecode")
            op = code[pc]
            operand = 0
            next_pc = pc + 1
            if op in _HAS_OPERAND:
                if pc + 1 >= len(code):
                    raise VMError(f"truncated operand at pc {pc}")
                operand = code[pc + 1]
                next_pc = pc + 2
            self.stats.ops_executed += 1
            self._cycles_this_tick += CYCLES_PER_OP

            if op == OP_HALT:
                break
            elif op == OP_PUSH:
                stack.append(operand)
            elif op in (OP_ADD, OP_SUB, OP_MUL, OP_MOD):
                b, a = self._pop(stack), self._pop(stack)
                if op == OP_ADD:
                    stack.append((a + b) & 0xFFFFFFFF)
                elif op == OP_SUB:
                    stack.append((a - b) & 0xFFFFFFFF)
                elif op == OP_MUL:
                    stack.append((a * b) & 0xFFFFFFFF)
                else:
                    stack.append(a % b if b else 0)
            elif op == OP_DUP:
                stack.append(self._peek(stack))
            elif op == OP_DROP:
                self._pop(stack)
            elif op == OP_LOADG:
                stack.append(self.globals[operand % NUM_GLOBALS])
            elif op == OP_STOREG:
                self.globals[operand % NUM_GLOBALS] = self._pop(stack)
            elif op == OP_JNZ:
                if self._pop(stack):
                    next_pc = next_pc + _signed8(operand)
            elif op == OP_JMP:
                next_pc = next_pc + _signed8(operand)
            elif op == OP_LED:
                self.leds[operand % NUM_LEDS] = self._pop(stack) & 1
            elif op == OP_NEWOBJ:
                size = max(8, operand)
                cap = self._malloc(size)
                self._objects.append(cap)
                self.stats.objects_allocated += 1
                self._cycles_this_tick += CYCLES_PER_ALLOC_OP
            elif op == OP_SETF:
                if not self._objects:
                    raise VMError("SETF with no live object")
                self._write_field(self._objects[-1], operand, self._pop(stack))
            elif op == OP_GETF:
                if not self._objects:
                    raise VMError("GETF with no live object")
                stack.append(self._read_field(self._objects[-1], operand))
            else:
                raise VMError(f"bad opcode {op:#04x} at pc {pc}")
            pc = next_pc
        else:
            raise VMError("tick exceeded max_steps_per_tick (runaway bytecode)")

        if self.stats.ticks % self.gc_interval_ticks == 0:
            self._collect()
        return self._cycles_this_tick

    @staticmethod
    def _pop(stack: List[int]) -> int:
        if not stack:
            raise VMError("stack underflow")
        return stack.pop()

    @staticmethod
    def _peek(stack: List[int]) -> int:
        if not stack:
            raise VMError("stack underflow")
        return stack[-1]


def _signed8(value: int) -> int:
    return value - 256 if value & 0x80 else value


class _LoggingHeap:
    """Fake allocator and field memory that logs every call in order.

    The ``fail_at``-th call (counting from 1) raises ``IndexError``, an
    error of the heap's own that neither VM may take for an underflow.
    """

    def __init__(self, fail_at: int = 0) -> None:
        self.log: list = []
        self.fields: dict = {}
        self.fail_at = fail_at
        self._next = 0x1000

    def _call(self, *entry) -> None:
        self.log.append(entry)
        if len(self.log) == self.fail_at:
            raise IndexError(f"heap fault on call {self.fail_at}")

    def malloc(self, size):
        self._call("malloc", size)
        self._next += 0x100
        return self._next

    def free(self, cap):
        self._call("free", cap)

    def write_field(self, cap, fld, value):
        self._call("write", cap, fld, value)
        self.fields[(cap, fld)] = value

    def read_field(self, cap, fld):
        self._call("read", cap, fld)
        return self.fields.get((cap, fld), 7)


def _pair(code: bytes, fail_at: int = 0, **kwargs):
    vms = []
    for cls in (JavaScriptVM, _ByteLoopVM):
        heap = _LoggingHeap(fail_at)
        vm = cls(heap.malloc, heap.free, heap.write_field, heap.read_field, **kwargs)
        vm.load_bytecode(code)
        vms.append((vm, heap))
    return vms


def _tick(vm):
    try:
        return ("ok", vm.run_tick())
    except (VMError, IndexError) as exc:
        return (type(exc), str(exc))


def _state(vm, heap):
    return (
        vm.globals, vm.leds, vm.stats, vm._cycles_this_tick, vm.live_objects,
        heap.log,
    )


def _assert_ticks_agree(code: bytes, ticks: int, fail_at: int = 0, **kwargs):
    (new, new_heap), (ref, ref_heap) = _pair(code, fail_at, **kwargs)
    for tick in range(ticks):
        got, want = _tick(new), _tick(ref)
        assert got == want, f"tick {tick} of {code.hex()}"
        assert _state(new, new_heap) == _state(ref, ref_heap), (
            f"tick {tick} of {code.hex()}"
        )


#: Any operand byte, or a small signed one: a near jump, a low slot.
_operand = st.one_of(st.integers(0, 255), st.integers(-6, 6).map(lambda v: v & 0xFF))
_push = st.integers(0, 255).map(lambda v: bytes([OP_PUSH, v]))
_with_operand = st.tuples(st.sampled_from(sorted(_HAS_OPERAND)), _operand).map(bytes)
_instruction = st.one_of(
    _with_operand,
    _with_operand,
    _push,
    st.sampled_from(_NO_OPERAND).map(lambda op: bytes([op])),
    # Any byte: mostly a bad opcode.
    st.integers(0, 255).map(lambda byte: bytes([byte])),
)
#: An operand-taking opcode as the last byte cuts its operand off.
_tail = st.sampled_from([b""] + [bytes([op]) for op in sorted(_HAS_OPERAND)])
#: A few pushes first, so that a run gets past its first pops.
_bytecode = st.builds(
    lambda pushes, body, tail: b"".join(pushes + body) + tail,
    st.lists(_push, max_size=6),
    st.lists(_instruction, max_size=48),
    _tail,
)


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        code=_bytecode,
        ticks=st.integers(1, 4),
        gc_interval=st.integers(1, 3),
        max_steps=st.integers(0, 200),
        fail_at=st.one_of(st.just(0), st.integers(1, 12)),
    )
    def test_random_bytecode(self, code, ticks, gc_interval, max_steps, fail_at):
        _assert_ticks_agree(
            code, ticks, fail_at,
            gc_interval_ticks=gc_interval, max_steps_per_tick=max_steps,
        )

    def test_animation_program_with_gc(self):
        _assert_ticks_agree(led_animation_bytecode(), 200, gc_interval_ticks=7)

    def test_heap_errors_pass_through(self):
        """An IndexError a heap call raises is the heap's, on an empty
        stack too.  Each call fails in turn: malloc, a field read with
        the stack empty, a field write and a field read."""
        fields = bytes([
            OP_NEWOBJ, 8, OP_GETF, 0, OP_SETF, 1, OP_GETF, 1, OP_STOREG, 0,
            OP_HALT,
        ])
        for fail_at in range(1, 5):
            _assert_ticks_agree(fields, 2, fail_at, gc_interval_ticks=1)
        for fail_at in range(1, 8):
            _assert_ticks_agree(led_animation_bytecode(), 2, fail_at)

    def test_every_byte_on_every_edge(self):
        """Each byte as an op, with and without a live object, on four
        stacks: empty, ``[7]``, ``[7, 0]`` and two words of all ones.
        Its operand is small, large, or cut off by the end of the
        program; then the stack is stored to the globals."""
        stacks = (
            b"",
            bytes([OP_PUSH, 7]),
            bytes([OP_PUSH, 7, OP_PUSH, 0]),
            bytes([OP_PUSH, 0, OP_PUSH, 1, OP_SUB, OP_DUP]),
        )
        dump = bytes([OP_STOREG, 0, OP_STOREG, 1, OP_STOREG, 2, OP_HALT])
        for op in range(256):
            for objects in (b"", bytes([OP_NEWOBJ, 3])):
                for stack in stacks:
                    for rest in (b"", bytes([OP_DUP]) + dump, bytes([0xFF]) + dump):
                        _assert_ticks_agree(objects + stack + bytes([op]) + rest, 1)

    def test_jump_targets_on_every_side(self):
        """Jumps to each pc from -130 to past the end, and to pc 0 with an
        empty stack, a one-deep stack and the step budget reached."""
        tail = bytes([OP_PUSH, 1, OP_DROP, OP_HALT])
        for operand in range(256):
            for prefix in (b"", bytes([OP_PUSH, 0]), bytes([OP_PUSH, 3])):
                for jump in (OP_JMP, OP_JNZ):
                    code = prefix + bytes([jump, operand]) + tail
                    for max_steps in (1, 2, 3, 64):
                        _assert_ticks_agree(code, 1, max_steps_per_tick=max_steps)
