"""Tests for the trusted compartment switcher (sections 2.6, 5.2)."""

import pytest

from repro.capability import Capability, Permission as P
from repro.capability.errors import PermissionFault, SealedFault, TagFault
from repro.memory.bus import BusStats
from repro.rtos.compartment import ImportToken, InterruptPosture
from repro.rtos.switcher import (
    CROSS_CALL_INSTRS,
    CROSS_RETURN_INSTRS,
    FAULT_UNWIND_INSTRS,
    SWITCHER_MEM_FRACTION,
    CompartmentFault,
)


class TestBasicCalls:
    def test_call_returns_value(self, two_compartments, switcher, thread, loader):
        client, _ = two_compartments
        token = client.get_import("service", "ping")
        assert switcher.call(thread, token, 41) == 42

    def test_nested_calls(self, loader, switcher, thread):
        a = loader.add_compartment("a")
        b = loader.add_compartment("b")

        def outer(ctx, value):
            ctx.use_stack(64)
            return ctx.call("b", "double", value) + 1

        def double(ctx, value):
            ctx.use_stack(64)
            return value * 2

        a.export("outer", outer)
        b.export("double", double)
        loader.link("a", "b", "double")
        loader.link("a", "a", "outer")
        token = a.get_import("a", "outer")
        assert switcher.call(thread, token, 10) == 21
        assert switcher.call_depth == 0

    def test_sp_restored_after_call(self, two_compartments, switcher, thread):
        client, _ = two_compartments
        sp_before = thread.sp
        switcher.call(thread, client.get_import("service", "ping"), 1)
        assert thread.sp == sp_before

    def test_cycles_charged(self, two_compartments, switcher, thread, core):
        client, _ = two_compartments
        before = core.cycles
        switcher.call(thread, client.get_import("service", "ping"), 1)
        assert core.cycles - before >= CROSS_CALL_INSTRS


class TestTokenValidation:
    def test_forged_unsealed_token_rejected(self, two_compartments, switcher, thread, roots):
        forged = ImportToken(
            "service", "ping",
            roots.memory.set_address(0x2004_0000).set_bounds(16),
        )
        with pytest.raises(SealedFault):
            switcher.call(thread, forged, 1)

    def test_untagged_token_rejected(self, two_compartments, switcher, thread):
        client, _ = two_compartments
        good = client.get_import("service", "ping")
        forged = ImportToken(
            good.compartment_name, good.export_name, good.sealed_cap.untagged()
        )
        with pytest.raises(TagFault):
            switcher.call(thread, forged, 1)

    def test_wrong_otype_token_rejected(self, two_compartments, switcher, thread, roots):
        seal = roots.sealing.set_address(3)  # allocator-token, not export
        cap = roots.memory.set_address(0x2004_0000).set_bounds(16).seal(seal)
        forged = ImportToken("service", "ping", cap)
        with pytest.raises(SealedFault):
            switcher.call(thread, forged, 1)


class TestStackChopping:
    def test_callee_stack_is_bounded_below_sp(self, loader, switcher, thread):
        comp = loader.add_compartment("probe")
        seen = {}

        def probe(ctx):
            seen["stack"] = ctx.stack_cap
            return None

        comp.export("probe", probe)
        loader.link("probe", "probe", "probe")
        switcher.call(thread, comp.get_import("probe", "probe"))
        stack_cap = seen["stack"]
        assert stack_cap.base == thread.stack_region.base
        assert stack_cap.top <= thread.sp
        assert P.SL in stack_cap.perms
        assert stack_cap.is_local

    def test_callee_cannot_see_caller_frames(self, loader, switcher, thread, bus):
        """The chop: callee's stack capability tops out at the caller's

        SP, so the caller's frames are simply not addressable."""
        comp = loader.add_compartment("probe")
        caller_frame = thread.sp + 8  # inside the caller's used region

        def probe(ctx):
            with pytest.raises(Exception):
                ctx.stack_cap.check_access(caller_frame, 4, (P.LD,))
            return True

        comp.export("probe", probe)
        loader.link("probe", "probe", "probe")
        assert switcher.call(thread, comp.get_import("probe", "probe"))


class TestStackChopCache:
    """The memoised chop equals a fresh two-step derivation every time."""

    @staticmethod
    def _recorder(loader):
        comp = loader.add_compartment("recorder")
        seen = []

        def record(ctx):
            seen.append(ctx.stack_cap)

        comp.export("record", record)
        loader.link("recorder", "recorder", "record")
        return comp.get_import("recorder", "record"), seen

    @staticmethod
    def _fresh_chop(thread):
        base = thread.stack_region.base
        sp = thread.sp & ~0xF
        return thread.stack_cap.set_address(base).set_bounds(sp - base)

    def test_replaced_stack_cap_is_used(self, loader, switcher, thread):
        token, seen = self._recorder(loader)
        for _ in range(2):
            expected = self._fresh_chop(thread)
            switcher.call(thread, token)
            assert seen[-1] == expected
        thread.stack_cap = thread.stack_cap.clear_perms(P.LG)
        for _ in range(2):
            expected = self._fresh_chop(thread)
            switcher.call(thread, token)
            assert seen[-1] == expected
        assert P.LG in seen[0].perms
        assert P.LG not in seen[-1].perms

    def test_moved_sp_is_used(self, loader, switcher, thread):
        token, seen = self._recorder(loader)
        top = thread.sp
        for sp in (top, top - 64, top - 72, top - 256, top - 64, top):
            thread.sp = sp
            expected = self._fresh_chop(thread)
            switcher.call(thread, token)
            assert seen[-1] == expected
        assert len({cap.top for cap in seen}) == 4

    def test_each_thread_gets_its_own_stack(
        self, loader, switcher, thread, scheduler
    ):
        token, seen = self._recorder(loader)
        other = loader.add_thread("t1", stack_size=1024, priority=1)
        scheduler.add_thread(other)
        for current in (thread, other, thread, other):
            scheduler.switch_to(current)
            expected = self._fresh_chop(current)
            switcher.call(current, token)
            assert seen[-1] == expected
            assert seen[-1].base == current.stack_region.base
        assert seen[0] == seen[2] and seen[1] == seen[3]
        assert seen[0] != seen[1]

    def test_faulting_chop_faults_on_every_call(self, loader, switcher, thread):
        token, seen = self._recorder(loader)
        top = thread.sp
        for _ in range(3):
            thread.sp = thread.stack_region.base - 16
            with pytest.raises(CompartmentFault) as info:
                switcher.call(thread, token)
            assert info.value.cause_type == "BoundsFault"
        assert seen == []
        thread.sp = top
        expected = self._fresh_chop(thread)
        switcher.call(thread, token)
        assert seen == [expected]


class TestStackZeroing:
    def _leaky_pair(self, loader):
        comp = loader.add_compartment("leaky")

        def write_secret(ctx):
            ctx.use_stack(64)
            ctx.switcher.bus.write_word(ctx.sp + 8, 0x5EC9E7, 4)
            return ctx.sp + 8

        def read_addr(ctx, address):
            return ctx.switcher.bus.read_word(address, 4)

        comp.export("write_secret", write_secret)
        comp.export("read_addr", read_addr)
        loader.link("leaky", "leaky", "write_secret")
        loader.link("leaky", "leaky", "read_addr")
        return comp

    def test_callee_stack_zeroed_on_return(self, loader, switcher, thread):
        comp = self._leaky_pair(loader)
        address = switcher.call(thread, comp.get_import("leaky", "write_secret"))
        leaked = switcher.call(thread, comp.get_import("leaky", "read_addr"), address)
        assert leaked == 0  # the switcher zeroed the callee's frame

    def test_hwm_bounds_zeroing(self, loader, switcher, thread, core, csr):
        """With the HWM, only the dirtied bytes are cleared; without,

        the entire unused stack is — the paper's 5.2.1 mechanism."""
        comp = loader.add_compartment("busy")

        def entry(ctx):
            ctx.use_stack(64)

        comp.export("entry", entry)
        loader.link("busy", "busy", "entry")
        token = comp.get_import("busy", "entry")
        switcher.stats.bytes_zeroed = 0
        switcher.call(thread, token)
        with_hwm = switcher.stats.bytes_zeroed

        csr.hwm_enabled = False
        switcher.stats.bytes_zeroed = 0
        switcher.call(thread, token)
        without_hwm = switcher.stats.bytes_zeroed
        assert with_hwm < without_hwm
        # Without HWM both directions clear the whole unused region.
        unused = thread.sp - thread.stack_region.base
        assert without_hwm == 2 * unused


class TestEphemeralDelegation:
    def test_local_argument_cannot_be_captured(self, loader, switcher, thread, roots):
        """Section 5.2: strip GL from an argument and the callee can

        store it only on its (zeroed-on-return) stack."""
        comp = loader.add_compartment("grabby")

        def grab(ctx, cap):
            with pytest.raises(PermissionFault):
                ctx.store_global_cap("stolen", cap)
            # The stack *is* allowed (SL) ...
            ctx.store_stack_cap(0, cap)
            return True

        comp.export("grab", grab)
        loader.link("grabby", "grabby", "grab")
        delegated = (
            roots.memory.set_address(0x2004_1000).set_bounds(64).make_local()
        )
        assert switcher.call(thread, comp.get_import("grabby", "grab"), delegated)
        # ... but the frame was zeroed on return: nothing survives.
        bank = switcher.bus.bank_for(thread.stack_region.base, 8)
        assert list(bank.tagged_granules(
            thread.stack_region.base, thread.sp
        )) == []

    def test_global_argument_can_be_captured(self, loader, switcher, thread, roots):
        comp = loader.add_compartment("keeper")

        def keep(ctx, cap):
            ctx.store_global_cap("kept", cap)
            return True

        comp.export("keep", keep)
        loader.link("keeper", "keeper", "keep")
        shared = roots.memory.set_address(0x2004_1000).set_bounds(64)
        assert switcher.call(thread, comp.get_import("keeper", "keep"), shared)
        assert comp.load_global_cap("kept") == shared


class TestInterruptPosture:
    def test_disabled_export_runs_without_interrupts(
        self, loader, switcher, thread, csr
    ):
        comp = loader.add_compartment("critical")
        seen = {}

        def entry(ctx):
            seen["enabled"] = csr.interrupts_enabled

        comp.export("entry", entry, posture=InterruptPosture.DISABLED)
        loader.link("critical", "critical", "entry")
        csr.interrupts_enabled = True
        switcher.call(thread, comp.get_import("critical", "entry"))
        assert seen["enabled"] is False
        assert csr.interrupts_enabled is True  # restored

    def test_posture_restored_after_exception(self, loader, switcher, thread, csr):
        comp = loader.add_compartment("thrower")

        def entry(ctx):
            raise RuntimeError("callee exploded")

        comp.export("entry", entry, posture=InterruptPosture.DISABLED)
        loader.link("thrower", "thrower", "entry")
        with pytest.raises(RuntimeError):
            switcher.call(thread, comp.get_import("thrower", "entry"))
        assert csr.interrupts_enabled
        assert switcher.call_depth == 0


class TestCrossingLedger:
    """Every store, snoop, zeroed byte, HWM move and cycle of a crossing.

    The expected values are written out by hand from the switcher's
    sequence for the ``thread`` fixture's stack, ``[0x20050000,
    0x20050400)`` with SP at its top, on Ibex: a crossing charges the
    call mix of ``CROSS_CALL_INSTRS`` plus the 6-instruction entry
    veneer, zeroes below SP, runs the callee (each ``use_stack`` is one
    0xAA fill), zeroes what the callee dirtied on the way back and
    charges the return mix; a fault adds ``FAULT_UNWIND_INSTRS``.
    """

    BASE, TOP = 0x2005_0000, 0x2005_0400
    #: The Ibex charges used below: 35 of the 101 call instructions,
    #: 29 of the 85 return and 19 of the 55 unwind instructions are
    #: 2-cycle stores; zeroing costs 3 cycles per 8-byte word plus one
    #: per two words.
    CALL, RETURN, UNWIND = 136, 114, 74
    ZERO = {32: 14, 160: 70, 864: 378, 1024: 448}

    def test_ledger_charges_agree_with_the_core_model(self, core):
        assert core.mixed_instr_cycles(
            CROSS_CALL_INSTRS + 6, SWITCHER_MEM_FRACTION
        ) == self.CALL
        assert core.mixed_instr_cycles(
            CROSS_RETURN_INSTRS, SWITCHER_MEM_FRACTION
        ) == self.RETURN
        assert core.mixed_instr_cycles(
            FAULT_UNWIND_INSTRS, SWITCHER_MEM_FRACTION
        ) == self.UNWIND
        for nbytes, cycles in self.ZERO.items():
            assert core.zero_bytes_cycles(nbytes) == cycles

    def _record(self, bus):
        seen = []
        bus.add_store_snooper(lambda address, size: seen.append((address, size)))
        return seen

    def _nested(self, loader):
        client = loader.add_compartment("client")
        outer = loader.add_compartment("outer")
        inner = loader.add_compartment("inner")

        def run(ctx):
            ctx.use_stack(160)
            return ctx.call("inner", "run") + 1

        def run_inner(ctx):
            ctx.use_stack(32)
            return 41

        outer.export("run", run)
        inner.export("run", run_inner)
        loader.link("client", "outer", "run")
        loader.link("outer", "inner", "run")
        return client.get_import("outer", "run")

    @pytest.mark.parametrize("hwm", [True, False], ids=["hwm", "no-hwm"])
    def test_nested_call(self, loader, switcher, thread, bus, csr, core, hwm):
        csr.hwm_enabled = hwm
        token = self._nested(loader)
        seen = self._record(bus)
        before = core.cycles
        assert switcher.call(thread, token) == 42

        outer_frame, inner_frame = 0x2005_0360, 0x2005_0340
        C, R, Z = self.CALL, self.RETURN, self.ZERO
        if hwm:
            # Entry: the mark sits at SP, so nothing is zeroed.  Each
            # return zeroes exactly the frame its callee pushed.
            snoops = [
                (outer_frame, 160),  # outer's use_stack(160)
                (inner_frame, 32),   # inner's use_stack(32)
                (inner_frame, 32),   # inner's return: [mshwm, SP)
                (outer_frame, 160),  # outer's return: [mshwm, SP)
            ]
            zeroed = 32 + 160
            cycles = C + Z[160] + C + Z[32] + Z[32] + R + Z[160] + R
        else:
            # No mark: every entry and return zeroes [stack base, SP).
            below_outer = outer_frame - self.BASE  # 864 bytes
            snoops = [
                (self.BASE, 1024),       # outer's entry
                (outer_frame, 160),      # outer's use_stack(160)
                (self.BASE, below_outer),  # inner's entry
                (inner_frame, 32),       # inner's use_stack(32)
                (self.BASE, below_outer),  # inner's return
                (self.BASE, 1024),       # outer's return
            ]
            zeroed = 1024 + 864 + 864 + 1024
            cycles = (
                C + Z[1024] + Z[160] + C + Z[864] + Z[32] + Z[864] + R
                + Z[1024] + R
            )
        assert seen == snoops
        assert bus.stats == BusStats(data_writes=len(snoops))
        assert switcher.stats.bytes_zeroed == zeroed
        assert (switcher.stats.calls, switcher.stats.returns) == (2, 2)
        assert csr.high_water_mark == self.TOP
        assert thread.sp == self.TOP
        assert core.cycles - before == cycles

    def test_faulting_callee(self, loader, switcher, thread, bus, csr, core):
        client = loader.add_compartment("client")
        victim = loader.add_compartment("victim")

        def run(ctx):
            ctx.use_stack(160)
            # One load past the chopped stack's top: a bounds fault.
            ctx.stack_cap.check_access(ctx.stack_cap.top, 8, (P.LD,))

        victim.export("run", run)
        loader.link("client", "victim", "run")
        seen = self._record(bus)
        before = core.cycles
        with pytest.raises(CompartmentFault, match="BoundsFault"):
            switcher.call(thread, client.get_import("victim", "run"))

        frame = 0x2005_0360
        assert seen == [(frame, 160), (frame, 160)]
        assert bus.stats == BusStats(data_writes=2)
        assert switcher.stats.bytes_zeroed == 160
        assert switcher.stats.faults_contained == 1
        assert csr.high_water_mark == self.TOP
        assert thread.sp == self.TOP
        assert core.cycles - before == (
            self.CALL + self.ZERO[160] + self.ZERO[160] + self.RETURN
            + self.UNWIND
        )
