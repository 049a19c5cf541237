"""Recovery machinery is tier-blind: every :class:`~repro.isa.Tier`.

The fleet runs its devices at the default fused tier, so the recovery
paths the paper's availability story depends on — compartment error
handlers (UNWIND / RETRY / RESTART) and the executive's watchdog
(kill / restart) — must behave *bit-identically* whether the faulting
kernel ran interpreted, single-stepped pre-decoded, or as fused
superblocks.  A fault raised from inside a fused block must surface
through the switcher exactly like one raised by the interpreter: same
outcome, same stats, same registers, same simulated cycles.

Every test here runs the identical scenario once per execution tier
and compares the complete observable state; the determinism contract
of :mod:`repro.fleet` rests on these asserts.
"""

from dataclasses import fields

import pytest

from repro.capability import make_roots
from repro.isa import CPU, CSRFile, ExecutionMode, Tier, assemble
from repro.memory import SystemBus, TaggedMemory, default_memory_map
from repro.pipeline import CoreKind, make_core_model
from repro.rtos import (
    CompartmentFault,
    CompartmentSwitcher,
    Loader,
    RecoveryAction,
    Scheduler,
)
from repro.rtos.executive import Executive, Watchdog
from repro.rtos.thread import ThreadState

#: Offsets inside the code region, clear of anything the loader places.
_CODE_OFFSET = 0x2_0000
_BUF_OFFSET = 0x3_0000
_BUF_SIZE = 256

#: A store/load loop whose body runs as one fused block.
_CLEAN_KERNEL = """\
    li a0, 40
    li a1, 0
loop:
    sw a1, 0(s0)
    lw a2, 0(s0)
    add a1, a1, a2
    addi a1, a1, 3
    addi a0, a0, -1
    bnez a0, loop
    halt
"""

#: Walks s1 one word past its bounds on iteration 17; at the fused
#: tier the faulting load sits inside a fused block, so the fault takes
#: the block's prefix-replay path, not a single step.
_FAULTING_KERNEL = """\
    li a0, 40
loop:
    lw a1, 0(s1)
    cincaddrimm s1, s1, 4
    addi a0, a0, -1
    bnez a0, loop
    halt
"""

#: Never halts: the watchdog's cycle budget is the only way out.
_RUNAWAY_KERNEL = """\
    li a0, 1
loop:
    addi a0, a0, 1
    bnez a0, loop
    halt
"""


class _Stack:
    """One fresh RTOS stack (bus, switcher, loader, thread) per tier."""

    def __init__(self):
        self.mm = default_memory_map()
        self.bus = SystemBus()
        self.bus.attach_sram(TaggedMemory(self.mm.code.base, self.mm.sram_bytes))
        self.roots = make_roots()
        self.core = make_core_model(CoreKind.IBEX)
        self.csr = CSRFile(hwm_enabled=True)
        self.switcher = CompartmentSwitcher(
            self.bus, self.csr, self.roots.sealing, self.core
        )
        self.loader = Loader(self.mm, self.roots, self.switcher)
        self.scheduler = Scheduler(self.csr, self.core, timeslice_cycles=500)
        self.code_base = self.mm.code.base + _CODE_OFFSET
        self.buf_base = self.mm.code.base + _BUF_OFFSET

    def make_thread(self, name="t0"):
        thread = self.loader.add_thread(name, stack_size=1024, priority=1)
        self.scheduler.add_thread(thread)
        self.scheduler.switch_to(thread)
        return thread

    def make_cpu(self, tier):
        """A CPU at one execution tier, charging the shared core model."""
        return CPU(
            self.bus, ExecutionMode.CHERIOT, timing=self.core, tier=tier
        )

    def load_kernel(self, cpu, source, buf_reg=8, buf_size=_BUF_SIZE):
        cpu.load_program(assemble(source), self.code_base,
                         pcc=self.roots.executable)
        cpu.regs.write(
            buf_reg,
            self.roots.memory.set_address(self.buf_base).set_bounds(buf_size),
        )
        return cpu


def _switcher_state(stack):
    stats = stack.switcher.stats
    return tuple(getattr(stats, f.name) for f in fields(stats))


def _cpu_state(cpu):
    stats = tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats))
    return cpu.regs.snapshot(), stats, cpu.pc


def _assert_tier_blind(observations):
    """All tiers observed the same thing; name the divergence if not."""
    for tier in Tier:
        assert observations[tier] == observations[Tier.INTERP], (
            f"tier {tier.name} diverged from INTERP"
        )


def _flaky_compartment(stack, tier, fail_times):
    """"client" calling "compute", whose kernel faults ``fail_times``.

    A failing call runs the out-of-bounds kernel (the fault travels
    CPU -> Trap -> switcher containment); once the failures are spent,
    the clean kernel runs to halt and its checksum is the result.
    """
    client = stack.loader.add_compartment("client")
    compute = stack.loader.add_compartment("compute")
    compute.state["fail_times"] = fail_times
    compute.state["calls"] = 0
    cpus = []

    def entry(ctx, value):
        ctx.use_stack(64)
        compute.state["calls"] += 1
        cpu = stack.make_cpu(tier)
        cpus.append(cpu)
        if compute.state["calls"] <= compute.state["fail_times"]:
            # A 64-byte buffer under a 160-byte walk: faults mid-loop.
            stack.load_kernel(cpu, _FAULTING_KERNEL, buf_reg=9, buf_size=64)
        else:
            stack.load_kernel(cpu, _CLEAN_KERNEL)
        cpu.run()
        return (cpu.regs.read_int(11) + value) & 0xFFFF_FFFF

    compute.export("entry", entry)
    stack.loader.link("client", "compute", "entry")
    return client, compute, cpus


class TestErrorHandlerTiers:
    """UNWIND / RETRY / RESTART with the fault raised from the kernel."""

    def test_unwind_identical_across_tiers(self):
        observations = {}
        for tier in Tier:
            stack = _Stack()
            thread = stack.make_thread()
            client, compute, cpus = _flaky_compartment(stack, tier, 1)
            seen = []
            compute.set_error_handler(
                lambda info: seen.append(
                    (info.compartment, info.export, info.cause_type,
                     info.depth, info.retries)
                )
                or RecoveryAction.UNWIND
            )
            with pytest.raises(CompartmentFault) as excinfo:
                stack.switcher.call(
                    thread, client.get_import("compute", "entry"), 5
                )
            observations[tier] = (
                excinfo.value.compartment,
                excinfo.value.cause_type,
                tuple(seen),
                _switcher_state(stack),
                _cpu_state(cpus[-1]),
                stack.core.cycles,
            )
            if tier is Tier.FUSED:
                # The fault came from inside a fused block: every
                # instruction retired through one, none single-stepped.
                blocks = cpus[-1].block_stats
                assert blocks.single_steps == 0
                assert blocks.instructions == cpus[-1].stats.instructions > 0
        _assert_tier_blind(observations)

    def test_retry_identical_across_tiers(self):
        observations = {}
        for tier in Tier:
            stack = _Stack()
            thread = stack.make_thread()
            client, compute, cpus = _flaky_compartment(stack, tier, 1)
            compute.set_error_handler(lambda info: RecoveryAction.RETRY)
            result = stack.switcher.call(
                thread, client.get_import("compute", "entry"), 5
            )
            observations[tier] = (
                result,
                compute.state["calls"],
                _switcher_state(stack),
                _cpu_state(cpus[-1]),
                stack.core.cycles,
            )
            if tier is Tier.FUSED:
                # The retry's clean kernel ran fused too.
                assert cpus[-1].block_stats.executions > 0
            else:
                assert cpus[-1].block_stats.executions == 0
        _assert_tier_blind(observations)
        # The retry actually happened: two entries, one contained fault.
        assert observations[Tier.INTERP][1] == 2

    def test_restart_identical_across_tiers(self):
        observations = {}
        for tier in Tier:
            stack = _Stack()
            thread = stack.make_thread()
            client, compute, cpus = _flaky_compartment(stack, tier, 1)
            stack.loader.finalize()  # snapshot: fail_times=1, calls=0
            compute.set_error_handler(lambda info: RecoveryAction.RESTART)
            with pytest.raises(CompartmentFault):
                stack.switcher.call(
                    thread, client.get_import("compute", "entry"), 5
                )
            # The restart reloaded the image; the next call fails once
            # more, then a second restart... so clear the trigger the
            # way a fixed image would and verify a clean call succeeds.
            compute.state["fail_times"] = 0
            result = stack.switcher.call(
                thread, client.get_import("compute", "entry"), 5
            )
            observations[tier] = (
                result,
                compute.restarts,
                compute.state["calls"],
                _switcher_state(stack),
                _cpu_state(cpus[-1]),
                stack.core.cycles,
            )
        _assert_tier_blind(observations)
        assert observations[Tier.INTERP][1] == 1  # exactly one restart


class TestWatchdogTiers:
    """Watchdog kill/restart over threads stepping CPUs in slices."""

    #: CPU steps per executive resume — small enough that the runaway
    #: thread is preempted many times before its budget expires.
    SLICE = 200

    def _sliced_body(self, stack, tier, source, cpus, buf_size=_BUF_SIZE):
        """A generator thread body driving one kernel in step slices."""

        def body(thread=None):
            cpu = stack.make_cpu(tier)
            cpus.append(cpu)
            stack.load_kernel(cpu, source, buf_size=buf_size)
            while True:
                try:
                    cpu.run(max_steps=self.SLICE)
                except RuntimeError:
                    yield None  # budget slice spent; preemption point
                else:
                    return  # halted

        return body

    def _run_fleet_of_two(self, tier, watchdog_factory):
        stack = _Stack()
        cpus = []
        hog_thread = stack.loader.add_thread("hog", stack_size=512, priority=5)
        good_thread = stack.loader.add_thread("good", stack_size=512, priority=1)
        executive = Executive(
            stack.scheduler, stack.core,
            watchdog=watchdog_factory(stack, tier, cpus),
        )
        executive.spawn(
            hog_thread, self._sliced_body(stack, tier, _RUNAWAY_KERNEL, cpus)()
        )
        executive.spawn(
            good_thread, self._sliced_body(stack, tier, _CLEAN_KERNEL, cpus)()
        )
        stats = executive.run()
        return stack, stats, hog_thread, good_thread, cpus

    def test_kill_identical_across_tiers(self):
        observations = {}
        for tier in Tier:
            stack, stats, hog, good, cpus = self._run_fleet_of_two(
                tier,
                lambda stack, tier, cpus: Watchdog(thread_cycle_budget=3_000),
            )
            assert hog.state is ThreadState.FINISHED
            assert good.state is ThreadState.FINISHED
            observations[tier] = (
                tuple(
                    getattr(stats, f.name) for f in fields(stats)
                    if f.name != "watchdog_events"
                ),
                tuple(stats.watchdog_events),
                stack.core.cycles,
            )
        _assert_tier_blind(observations)
        events = observations[Tier.INTERP][1]
        assert any(
            name == "hog" and reason.startswith("kill:")
            for name, reason in events
        )

    def test_restart_identical_across_tiers(self):
        observations = {}
        for tier in Tier:
            def factory(stack, tier, cpus):
                return Watchdog(
                    thread_cycle_budget=3_000,
                    action="restart",
                    restart_factory=lambda thread: self._sliced_body(
                        stack, tier, _CLEAN_KERNEL, cpus
                    )(thread),
                )

            stack, stats, hog, good, cpus = self._run_fleet_of_two(
                tier, factory
            )
            assert hog.state is ThreadState.FINISHED
            observations[tier] = (
                stats.watchdog_restarts,
                stats.watchdog_kills,
                tuple(stats.watchdog_events),
                stack.core.cycles,
            )
            if tier is Tier.FUSED:
                # The sliced kernels ran fused between preemptions.
                assert any(c.block_stats.executions > 0 for c in cpus)
        _assert_tier_blind(observations)
        assert observations[Tier.INTERP][0] == 1  # restarted, then reformed
