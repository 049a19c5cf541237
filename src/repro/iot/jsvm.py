"""A Microvium-like JavaScript bytecode VM, in its own compartment.

The paper's application fetches JavaScript bytecode from the cloud and
runs it under the Microvium interpreter every 10 ms to animate LEDs
(section 7.2.3).  This module is the stand-in: a small stack-based
bytecode VM whose heap objects are *real heap allocations* protected by
the system's temporal safety, and which — like Microvium — does not
reuse memory between garbage-collection passes, so the revocation
machinery covers JavaScript objects accessed from C too.

Bytecode (1-byte opcodes, optional 1-byte operand)::

    00 HALT        01 PUSH imm      02 ADD     03 SUB    04 MUL
    05 DUP         06 DROP          07 MOD
    10 LOADG s     11 STOREG s      (16 global slots)
    20 JNZ off     21 JMP off       (signed relative, from next pc)
    30 LED n       (set LED n to top-of-stack, popped)
    40 NEWOBJ len  (allocate a JS object of len bytes on the heap)
    41 SETF f      (store top-of-stack into field f of newest object)
    42 GETF f      (push field f of the newest object)

:meth:`JavaScriptVM.load_bytecode` decodes the program once, into one
``(op, operand, next_pc)`` entry per byte offset, with the operands
resolved: a jump's is its absolute target, a global slot's and an
LED's are reduced modulo their counts, and ``NEWOBJ``'s is at least 8.
Every offset is decoded because a jump may land on an operand byte,
which then runs as an opcode.  A bad opcode, an operand cut off by the
end of the program, and a pc outside the program decode to entries
that raise :class:`VMError` only when they run, so a tick faults where
and when a per-byte interpreter would.  :meth:`JavaScriptVM.run_tick`
walks the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

from repro.capability import Capability

OP_HALT = 0x00
OP_PUSH = 0x01
OP_ADD = 0x02
OP_SUB = 0x03
OP_MUL = 0x04
OP_DUP = 0x05
OP_DROP = 0x06
OP_MOD = 0x07
OP_LOADG = 0x10
OP_STOREG = 0x11
OP_JNZ = 0x20
OP_JMP = 0x21
OP_LED = 0x30
OP_NEWOBJ = 0x40
OP_SETF = 0x41
OP_GETF = 0x42

_NO_OPERAND = {OP_HALT, OP_ADD, OP_SUB, OP_MUL, OP_DUP, OP_DROP, OP_MOD}
_HAS_OPERAND = {
    OP_PUSH, OP_LOADG, OP_STOREG, OP_JNZ, OP_JMP, OP_LED, OP_NEWOBJ,
    OP_SETF, OP_GETF,
}
#: Decoded-table ops outside the byte range: a fault raised when the
#: entry runs, after the op is counted (a bad opcode) or before it (a
#: truncated operand, a pc outside the program).  The operand is the
#: :class:`VMError` message.
_FAULT = 0x100
_FAULT_UNCOUNTED = 0x101

#: A decoded-table entry: ``(op, operand, next_pc)``.
_Entry = Tuple[int, Union[int, str], int]

#: Interpreter cycles per bytecode operation (dispatch + execute on an
#: embedded core; Microvium-scale interpreters run tens of cycles/op).
CYCLES_PER_OP = 22
#: Extra cycles for an allocating op (VM-side bookkeeping only; the
#: allocator's own cost is charged by the allocator compartment).
CYCLES_PER_ALLOC_OP = 60

NUM_GLOBALS = 16
NUM_LEDS = 8

_WORD = 0xFFFFFFFF


class VMError(Exception):
    """Bytecode fault (stack underflow, bad opcode, truncated operand)."""


@dataclass
class VMStats:
    ticks: int = 0
    ops_executed: int = 0
    objects_allocated: int = 0
    gc_passes: int = 0


class JavaScriptVM:
    """The interpreter compartment's state and engine."""

    def __init__(
        self,
        malloc: Callable[[int], Capability],
        free: Callable[[Capability], None],
        write_field: Callable[[Capability, int, int], None],
        read_field: Callable[[Capability, int], int],
        gc_interval_ticks: int = 50,
        max_steps_per_tick: int = 4096,
    ) -> None:
        """``malloc``/``free`` are the (cross-compartment) allocator

        entry points; ``write_field``/``read_field`` perform the actual
        capability-authorized memory accesses for object fields."""
        self._malloc = malloc
        self._free = free
        self._write_field = write_field
        self._read_field = read_field
        self.gc_interval_ticks = gc_interval_ticks
        self.max_steps_per_tick = max_steps_per_tick
        self.bytecode: bytes = b""
        self._program: List[_Entry] = []
        self.globals: List[int] = [0] * NUM_GLOBALS
        self.leds: List[int] = [0] * NUM_LEDS
        self.stats = VMStats()
        self._objects: List[Capability] = []
        self._cycles_this_tick = 0

    # ------------------------------------------------------------------
    # Program management
    # ------------------------------------------------------------------

    def load_bytecode(self, bytecode: bytes) -> None:
        self.bytecode = bytes(bytecode)
        self._program = _decode(self.bytecode)

    @property
    def has_program(self) -> bool:
        return bool(self.bytecode)

    @property
    def live_objects(self) -> int:
        return len(self._objects)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_tick(self) -> int:
        """Run one 10 ms animation tick; returns cycles consumed.

        A tick executes the program from the top until HALT.  Every
        ``gc_interval_ticks`` ticks a GC pass frees every object —
        Microvium-style no-reuse-before-collection.  A faulting tick
        raises :class:`VMError` and still counts the ops it ran.
        """
        if not self.bytecode:
            return 0
        program = self._program
        stats = self.stats
        stats.ticks += 1
        stack: List[int] = []
        push = stack.append
        pop = stack.pop
        globals_ = self.globals
        leds = self.leds
        objects = self._objects
        ops = allocs = pc = 0
        # ``ops`` counts the op being run, and an entry that faults before
        # its op counts takes it back.  The op tests run in the order of
        # the animation program's dynamic mix: of its 581 ops a tick,
        # PUSH is 147, LOADG 108, STOREG 66, ADD 65, SUB 40, JNZ 40, ...
        try:
            for ops in range(1, self.max_steps_per_tick + 1):
                op, arg, pc = program[pc]
                if op == OP_PUSH:
                    push(arg)
                elif op == OP_LOADG:
                    push(globals_[arg])
                elif op == OP_STOREG:
                    globals_[arg] = pop()
                elif op == OP_ADD:
                    b = pop()
                    stack[-1] = (stack[-1] + b) & _WORD
                elif op == OP_SUB:
                    b = pop()
                    stack[-1] = (stack[-1] - b) & _WORD
                elif op == OP_JNZ:
                    if pop():
                        pc = arg
                elif op == OP_MOD:
                    b = pop()
                    stack[-1] = stack[-1] % b if b else 0
                elif op == OP_DUP:
                    push(stack[-1])
                elif op == OP_MUL:
                    b = pop()
                    stack[-1] = (stack[-1] * b) & _WORD
                elif op == OP_LED:
                    leds[arg] = pop() & 1
                elif op == OP_NEWOBJ:
                    objects.append(self._malloc(arg))
                    stats.objects_allocated += 1
                    allocs += 1
                elif op == OP_SETF:
                    if not objects:
                        raise VMError("SETF with no live object")
                    if not stack:  # a heap op's IndexError is the heap's
                        raise VMError("stack underflow")
                    self._write_field(objects[-1], arg, pop())
                elif op == OP_DROP:
                    pop()
                elif op == OP_JMP:
                    pc = arg
                elif op == OP_HALT:
                    break
                elif op == OP_GETF:
                    if not objects:
                        raise VMError("GETF with no live object")
                    push(self._read_field(objects[-1], arg))
                else:  # a fault decoded into the table
                    if op == _FAULT_UNCOUNTED:
                        ops -= 1
                    raise VMError(arg)
            else:
                raise VMError("tick exceeded max_steps_per_tick (runaway bytecode)")
        except IndexError:
            # Decoding keeps every table, global and LED index in range,
            # so this is a pop or peek of an empty stack, unless a heap op
            # raised it from the heap's own code.
            if op == OP_NEWOBJ or op == OP_SETF or op == OP_GETF:
                raise
            raise VMError("stack underflow") from None
        finally:
            stats.ops_executed += ops
            self._cycles_this_tick = cycles = (
                ops * CYCLES_PER_OP + allocs * CYCLES_PER_ALLOC_OP
            )

        if stats.ticks % self.gc_interval_ticks == 0:
            self._collect()
        return cycles

    def _collect(self) -> None:
        """GC: free everything; memory is not reused until revoked."""
        self.stats.gc_passes += 1
        for cap in self._objects:
            self._free(cap)
        self._objects = []


def _decode(code: bytes) -> List[_Entry]:
    """The run table: entry ``pc`` decodes the byte at offset ``pc``.

    Entry ``len(code)`` faults as the pc past the end, and a jump to any
    other pc outside the program targets a fault entry appended for it.
    """
    end = len(code)
    table: List[_Entry] = []
    outside: List[_Entry] = []

    def target(dest: int) -> int:
        if 0 <= dest <= end:
            return dest
        outside.append(_pc_fault(dest))
        return end + len(outside)

    for pc, op in enumerate(code):
        if op in _NO_OPERAND:
            table.append((op, 0, pc + 1))
        elif op not in _HAS_OPERAND:
            table.append((_FAULT, f"bad opcode {op:#04x} at pc {pc}", pc + 1))
        elif pc + 1 == end:
            table.append(
                (_FAULT_UNCOUNTED, f"truncated operand at pc {pc}", pc + 1)
            )
        else:
            arg = code[pc + 1]
            if op == OP_JNZ or op == OP_JMP:
                arg = target(pc + 2 + _signed8(arg))
            elif op == OP_LOADG or op == OP_STOREG:
                arg %= NUM_GLOBALS
            elif op == OP_LED:
                arg %= NUM_LEDS
            elif op == OP_NEWOBJ:
                arg = max(8, arg)
            table.append((op, arg, pc + 2))
    table.append(_pc_fault(end))
    table += outside
    return table


def _pc_fault(pc: int) -> _Entry:
    where = "before start" if pc < 0 else "past end"
    return (_FAULT_UNCOUNTED, f"pc {pc} {where} of bytecode", pc)


def _signed8(value: int) -> int:
    return value - 256 if value & 0x80 else value


def led_animation_bytecode(work_iterations: int = 32, objects_per_tick: int = 3) -> bytes:
    """The demo program: a counter-driven LED chase with JS garbage.

    Equivalent JavaScript::

        counter = (counter + 1) % 8
        for (led = 0; led < 8; led++) setLed(led, led == counter)
        for (i = 0; i < 32; i++) acc = (acc * 3 + i) % 251   // brightness
        for (k = 0; k < 3; k++) state = { counter: counter } // garbage

    The per-tick compute loop and fresh objects give the interpreter a
    realistic duty cycle; every object is a real heap allocation freed
    (not reused) at the next GC pass.
    """
    program = bytearray()
    # counter = (g0 + 1) % 8
    program += bytes([OP_LOADG, 0, OP_PUSH, 1, OP_ADD, OP_PUSH, 8, OP_MOD])
    program += bytes([OP_DUP, OP_STOREG, 0])
    program += bytes([OP_DROP])
    # led[i] = (i == counter): unrolled compare chain
    for led in range(NUM_LEDS):
        #   push counter; push led; sub -> zero if equal
        program += bytes([OP_LOADG, 0, OP_PUSH, led, OP_SUB])
        #   jnz -> not equal: push 0, jmp set; else push 1
        program += bytes([OP_JNZ, 4])  # skip "push 1, jmp +2"
        program += bytes([OP_PUSH, 1, OP_JMP, 2])
        program += bytes([OP_PUSH, 0])
        program += bytes([OP_LED, led])
    # The compute loop: g1 = i, g2 = acc.
    program += bytes([OP_PUSH, 0, OP_STOREG, 1])
    loop_top = len(program)
    program += bytes([OP_LOADG, 2, OP_PUSH, 3, OP_MUL])
    program += bytes([OP_LOADG, 1, OP_ADD, OP_PUSH, 251, OP_MOD, OP_STOREG, 2])
    program += bytes([OP_LOADG, 1, OP_PUSH, 1, OP_ADD, OP_DUP, OP_STOREG, 1])
    program += bytes([OP_PUSH, work_iterations & 0xFF, OP_SUB])
    # JNZ back to loop_top: offset is relative to the pc after the operand.
    back = loop_top - (len(program) + 2)
    program += bytes([OP_JNZ, back & 0xFF])
    # Fresh per-tick heap objects (JS garbage, collected later).
    for _ in range(objects_per_tick):
        program += bytes([OP_NEWOBJ, 16])
        program += bytes([OP_LOADG, 0, OP_SETF, 0])
    program += bytes([OP_HALT])
    return bytes(program)
