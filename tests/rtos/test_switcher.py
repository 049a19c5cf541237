"""Tests for the trusted compartment switcher (sections 2.6, 5.2)."""

from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.capability import Permission as P, make_roots
from repro.capability.errors import PermissionFault, SealedFault, TagFault
from repro.isa import CSRFile
from repro.memory import SystemBus, TaggedMemory, default_memory_map
from repro.memory.bus import BusStats
from repro.pipeline import CoreKind, make_core_model
from repro.rtos import (
    CompartmentSwitcher,
    InterruptLatencyMonitor,
    Loader,
    Scheduler,
)
from repro.rtos.compartment import ImportToken, InterruptPosture, RecoveryAction
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


class TestBindings:
    """A bound token behaves exactly like one resolved on every call.

    Two identical worlds run the same calls.  The reference world drops
    its switcher's bindings before every call, so it resolves every
    token every time; the bound world keeps them.  After every call,
    the outcome (the return value, or the fault's type and message),
    the switcher's counters, the cycles, the trusted-stack depth, the
    stack's bytes and tags, the posture, the high-water mark and the
    interrupts-disabled windows must be equal.
    """

    STACK = 1024

    @staticmethod
    def _world(posture):
        mm = default_memory_map()
        bus = SystemBus()
        bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
        roots = make_roots()
        core = make_core_model(CoreKind.IBEX)
        csr = CSRFile(hwm_enabled=True)
        switcher = CompartmentSwitcher(bus, csr, roots.sealing, core)
        loader = Loader(mm, roots, switcher)
        client = loader.add_compartment("client")
        service = loader.add_compartment("service")

        def work(ctx, value):
            ctx.use_stack(96)
            ctx.store_stack_cap(1, ctx.stack_cap)
            count = ctx.compartment.state.get("count", 0) + 1
            ctx.compartment.state["count"] = count
            return 100 * value + count

        def crash(ctx, value):
            ctx.use_stack(32)
            ctx.stack_cap.check_access(ctx.stack_cap.top, 8, (P.LD,))

        service.export("work", work, posture=posture)
        service.export("crash", crash, posture=posture)
        service.set_error_handler(lambda info: RecoveryAction.RESTART)
        genuine = loader.link("client", "service", "work")
        export_seal = roots.sealing.set_address(genuine.sealed_cap.otype)
        # An export-table entry whose compartment does not exist yet.
        ghost_entry = switcher.register_export_entry(
            "ghost", "work", roots.memory.set_address(0x2004_8000).set_bounds(64)
        )
        tokens = {
            "genuine": genuine,
            "crashing": loader.link("client", "service", "crash"),
            "unsealed": ImportToken(
                "service", "work",
                roots.memory.set_address(0x2004_0000).set_bounds(16),
            ),
            "untagged": ImportToken(
                "service", "work", genuine.sealed_cap.untagged()
            ),
            "wrong-otype": ImportToken(
                "service", "work",
                roots.memory.set_address(0x2004_0000).set_bounds(16)
                .seal(roots.sealing.set_address(3)),
            ),
            # A valid sealed capability under another export's names,
            # as repro.faultinject's token-relabel splice builds one.
            "relabelled": ImportToken(
                "service", "crash", genuine.sealed_cap
            ),
            "ghost": ImportToken(
                "ghost", "work",
                roots.memory.set_address(ghost_entry).seal(export_seal),
            ),
        }
        thread = loader.add_thread("t0", stack_size=TestBindings.STACK)
        scheduler = Scheduler(csr, core, timeslice_cycles=500)
        scheduler.add_thread(thread)
        scheduler.switch_to(thread)
        return SimpleNamespace(
            bus=bus, csr=csr, core=core, switcher=switcher, loader=loader,
            service=service, thread=thread, tokens=tokens, work=work,
            monitor=InterruptLatencyMonitor(csr, core), resolutions=[],
        )

    @staticmethod
    def _count_resolutions(world):
        resolve = world.switcher._resolve_token

        def counted(token):
            world.resolutions.append(token)
            return resolve(token)

        world.switcher._resolve_token = counted

    @staticmethod
    def _call(world, name, value, reference):
        if reference:
            world.switcher._bindings.clear()
        try:
            outcome = (
                "ok",
                world.switcher.call(world.thread, world.tokens[name], value),
            )
        except Exception as exc:  # noqa: BLE001 - the fault is the outcome
            outcome = ("fault", type(exc).__name__, str(exc))
        region = world.thread.stack_region
        bank = world.bus.bank_for(region.base, region.size)
        return (
            outcome,
            asdict(world.switcher.stats),
            world.core.cycles,
            world.switcher.call_depth,
            bank.read_bytes(region.base, region.size),
            list(bank.tagged_granules(region.base, region.top)),
            world.csr.interrupts_enabled,
            world.csr.high_water_mark,
            world.thread.sp,
            [(w.start_cycle, w.end_cycle) for w in world.monitor.windows],
            world.monitor._disabled_since,
            world.bus.stats,
            dict(world.service.state),
        )

    def _run(self, worlds, names):
        bound, ref = worlds
        for i, name in enumerate(names):
            # The caller's posture varies, so INHERIT is observable.
            for world in worlds:
                world.csr.interrupts_enabled = i % 3 != 1
            got = self._call(bound, name, i, reference=False)
            want = self._call(ref, name, i, reference=True)
            assert got == want, (i, name)
        return got[0]

    @pytest.fixture(params=[
        InterruptPosture.INHERIT,
        InterruptPosture.DISABLED,
        InterruptPosture.ENABLED,
    ])
    def worlds(self, request):
        worlds = (self._world(request.param), self._world(request.param))
        for world in worlds:
            self._count_resolutions(world)
        return worlds

    def test_every_token_matches_per_call_resolution(self, worlds):
        bound, ref = worlds
        self._run(worlds, [
            "relabelled", "unsealed", "ghost", "untagged", "wrong-otype",
            "genuine", "relabelled", "genuine", "untagged", "crashing",
            "unsealed", "genuine", "wrong-otype", "ghost", "crashing",
            "relabelled", "genuine", "genuine",
        ])
        # The bound world resolved each genuine token once and every
        # refused token on every call; the reference resolved them all.
        assert len(ref.resolutions) == 18
        assert len(bound.resolutions) == 2 + 11
        assert bound.switcher.stats.forged_tokens_rejected == 3
        assert sorted(bound.switcher._bindings) == sorted(
            id(bound.tokens[name]) for name in ("genuine", "crashing")
        )

    def test_registration_drops_the_bindings(self, worlds):
        bound, _ = worlds
        self._run(worlds, ["genuine", "relabelled", "genuine"])
        for world in worlds:
            extra = world.loader.add_compartment("extra")
            extra.export("noop", lambda ctx: None)
            world.loader.link("client", "extra", "noop")
        assert bound.switcher._bindings == {}
        self._run(worlds, ["genuine", "relabelled", "genuine", "relabelled"])
        # A compartment named by a refused token appears: the token now
        # resolves, because no refusal was ever stored.
        for world in worlds:
            ghost = world.loader.add_compartment("ghost")
            ghost.export("work", world.work)
        assert self._run(worlds, ["ghost", "genuine", "ghost"])[0] == "ok"

    def test_overwritten_entry_refuses_a_bound_token(self, worlds):
        bound, _ = worlds
        self._run(worlds, ["genuine", "genuine"])
        for world in worlds:
            # A new slot at the bound token's entry address.
            address = world.tokens["genuine"].sealed_cap.address
            world.switcher.register_export_entry(
                "intruder", "run",
                world.service.globals_cap.set_address(address).set_bounds(8),
            )
        outcome = self._run(worlds, ["genuine", "genuine"])
        assert outcome == (
            "fault", "SealedFault",
            "import token names service.work but its sealed capability "
            "points at intruder.run",
        )
        assert bound.switcher.stats.forged_tokens_rejected == 2

    def test_restart_keeps_the_binding_valid(self, worlds):
        self._run(worlds, ["genuine", "genuine", "relabelled"])
        for world in worlds:
            world.service.restart()
        self._run(worlds, ["genuine", "relabelled", "crashing", "genuine"])
