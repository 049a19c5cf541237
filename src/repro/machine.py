"""The full CHERIoT SoC: one object wiring every subsystem together.

:class:`System` assembles the co-designed stack the paper evaluates —
tagged SRAM, revocation bitmap, a core timing model (Flute or Ibex),
load filter, software and background revokers, the allocator
compartment, the trusted switcher and the scheduler — behind a small
facade:

    >>> from repro.machine import System, CoreKind
    >>> system = System.build(core=CoreKind.IBEX)
    >>> cap = system.malloc(64)          # cross-compartment call
    >>> system.free(cap)                 # paint + zero + quarantine
    >>> system.core_model.cycles         # mechanistic cycle count

The ``malloc``/``free`` convenience methods route through the
compartment switcher from an application thread, exactly as the paper's
allocation microbenchmark does, so their cycle costs include the
cross-compartment call and stack-zeroing machinery.
"""

from __future__ import annotations

from typing import Optional

from repro.allocator import CheriHeap, TemporalSafetyMode
from repro.capability import Capability, make_roots
from repro.isa import CPU, CSRFile, ExecutionMode, LoadFilter
from repro.memory import (
    MemoryMap,
    RevocationMap,
    SystemBus,
    TaggedMemory,
    default_memory_map,
)
from repro.obs import Telemetry
from repro.pipeline import CoreKind, CoreModel, make_core_model
from repro.revoker import BackgroundRevoker, EpochCounter, SoftwareRevoker
from repro.rtos import (
    Compartment,
    CompartmentSwitcher,
    Loader,
    Scheduler,
    SealingService,
    Thread,
    make_hardware_wait_policy,
)

#: Stack bytes the benchmark application keeps resident below its frame
#: pointer before making cross-compartment calls ("stack usage of
#: embedded applications is usually limited to a couple of KiBs" —
#: section 5.2; the unused remainder is what no-HWM switching must zero).
APP_RESIDENT_STACK = 752
#: Stack frame the allocator's entry points push while servicing a call.
ALLOC_HANDLER_FRAME = 160


class System:
    """A complete simulated CHERIoT SoC plus its RTOS image."""

    def __init__(
        self,
        memory_map: MemoryMap,
        bus: SystemBus,
        sram: TaggedMemory,
        revocation_map: RevocationMap,
        core_model: CoreModel,
        core_kind: CoreKind,
        csr: CSRFile,
        epoch: EpochCounter,
        software_revoker: SoftwareRevoker,
        hardware_revoker: BackgroundRevoker,
        load_filter: LoadFilter,
        switcher: CompartmentSwitcher,
        scheduler: Scheduler,
        loader: Loader,
        allocator: CheriHeap,
        sealing: SealingService,
        app: Compartment,
        main_thread: Thread,
        idle_thread: Thread,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.memory_map = memory_map
        self.bus = bus
        self.sram = sram
        self.revocation_map = revocation_map
        self.core_model = core_model
        self.core_kind = core_kind
        self.csr = csr
        self.epoch = epoch
        self.software_revoker = software_revoker
        self.hardware_revoker = hardware_revoker
        self.load_filter = load_filter
        self.switcher = switcher
        self.scheduler = scheduler
        self.loader = loader
        self.allocator = allocator
        self.sealing = sealing
        self.app = app
        self.main_thread = main_thread
        self.idle_thread = idle_thread
        self.obs = telemetry

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        core: CoreKind = CoreKind.IBEX,
        mode: TemporalSafetyMode = TemporalSafetyMode.HARDWARE,
        memory_map: Optional[MemoryMap] = None,
        load_filter_enabled: bool = True,
        hwm_enabled: bool = True,
        timeslice_cycles: int = 1000,
        quarantine_threshold: Optional[int] = None,
        app_stack_size: int = 1024,
        finalize: bool = True,
        telemetry: bool = False,
    ) -> "System":
        """Boot a system: memory, devices, RTOS image, allocator.

        ``core`` picks the timing model; ``mode`` the allocator's
        temporal-safety configuration; ``hwm_enabled`` fits (or omits)
        the stack high-water-mark hardware — the paper's ``(S)``
        variants.  With ``finalize=False`` the loader keeps the boot
        roots so the caller can add more compartments (the IoT app does)
        before calling ``system.loader.finalize()`` itself.

        ``telemetry`` wires a :class:`repro.obs.Telemetry` (span tracer,
        cycle attributor) into the switcher, scheduler, allocator and
        revokers; disabled, those subsystems follow the seed's exact
        code paths.
        """
        mm = memory_map if memory_map is not None else default_memory_map()
        bus = SystemBus()
        sram = bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
        rmap = RevocationMap(mm.heap.base, mm.heap.size)
        bus.attach_device(mm.revocation_mmio.base, mm.revocation_mmio.size, rmap)

        core_model = make_core_model(core, load_filter_enabled=load_filter_enabled)
        csr = CSRFile(hwm_enabled=hwm_enabled)
        epoch = EpochCounter()
        software_revoker = SoftwareRevoker(bus, rmap, epoch, core_model, csr=csr)
        hardware_revoker = BackgroundRevoker(bus, rmap, epoch, core_model)
        bus.attach_device(mm.revoker_mmio.base, mm.revoker_mmio.size, hardware_revoker)
        load_filter = LoadFilter(rmap)

        roots = make_roots()
        sealing_table = (
            roots.memory.set_address(mm.globals_.base).set_bounds(4096)
        )
        sealing = SealingService(roots.sealing, sealing_table)
        unseal_authority = roots.sealing
        switcher = CompartmentSwitcher(bus, csr, unseal_authority, core_model)
        scheduler = Scheduler(csr, core_model, timeslice_cycles=timeslice_cycles)
        loader = Loader(mm, roots, switcher)

        # --- compartments -------------------------------------------------
        alloc_comp = loader.add_compartment("alloc")
        app_comp = loader.add_compartment("app")
        loader.grant_mmio("alloc", mm.revocation_mmio, "revocation-bitmap")
        loader.grant_mmio("alloc", mm.revoker_mmio, "revoker-device")

        # The production Ibex revoker raises a completion interrupt; the
        # Flute prototype must be polled (paper section 7.2.2).
        wait_policy = make_hardware_wait_policy(
            scheduler, completion_interrupt=(core is CoreKind.IBEX)
        )
        allocator = CheriHeap(
            bus,
            mm.heap,
            rmap,
            roots.memory,
            mode,
            software_revoker=software_revoker,
            hardware_revoker=hardware_revoker,
            epoch=epoch,
            core_model=core_model,
            quarantine_threshold=quarantine_threshold,
            wait_policy=wait_policy,
        )

        def malloc_handler(ctx, size):
            ctx.use_stack(ALLOC_HANDLER_FRAME)
            return allocator.malloc(size)

        def free_handler(ctx, cap):
            ctx.use_stack(ALLOC_HANDLER_FRAME)
            allocator.free(cap)

        alloc_comp.export("malloc", malloc_handler)
        alloc_comp.export("free", free_handler)
        loader.link("app", "alloc", "malloc")
        loader.link("app", "alloc", "free")

        # --- threads ------------------------------------------------------
        main_thread = loader.add_thread(
            "main", stack_size=app_stack_size, priority=1, entry_compartment="app"
        )
        idle_thread = loader.add_thread(
            "idle", stack_size=256, priority=0, entry_compartment="app"
        )
        scheduler.add_thread(main_thread)
        scheduler.add_thread(idle_thread)
        scheduler.switch_to(main_thread)
        # The application sits APP_RESIDENT_STACK deep when it calls out.
        main_thread.sp = main_thread.stack_region.top - min(
            APP_RESIDENT_STACK, app_stack_size - 64
        )

        obs: Optional[Telemetry] = None
        if telemetry:
            obs = Telemetry(core_model)
            switcher.obs = obs
            scheduler.obs = obs
            allocator.obs = obs
            software_revoker.obs = obs
            hardware_revoker.obs = obs

        if finalize:
            loader.finalize()
        return System(
            memory_map=mm,
            bus=bus,
            sram=sram,
            revocation_map=rmap,
            core_model=core_model,
            core_kind=core,
            csr=csr,
            epoch=epoch,
            software_revoker=software_revoker,
            hardware_revoker=hardware_revoker,
            load_filter=load_filter,
            switcher=switcher,
            scheduler=scheduler,
            loader=loader,
            allocator=allocator,
            sealing=sealing,
            app=app_comp,
            main_thread=main_thread,
            idle_thread=idle_thread,
            telemetry=obs,
        )

    # ------------------------------------------------------------------
    # Application-level conveniences
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> Capability:
        """Allocate via a cross-compartment call from the main thread."""
        token = self.app.get_import("alloc", "malloc")
        return self.switcher.call(self.main_thread, token, size)

    def free(self, cap: Capability) -> None:
        """Free via a cross-compartment call from the main thread."""
        token = self.app.get_import("alloc", "free")
        self.switcher.call(self.main_thread, token, cap)

    def make_cpu(self) -> CPU:
        """A CHERIoT CPU sharing this system's bus and devices."""
        return CPU(
            self.bus,
            mode=ExecutionMode.CHERIOT,
            load_filter=self.load_filter if self.core_model.load_filter_enabled else None,
            timing=self.core_model,
            hwm_enabled=self.csr.hwm_enabled,
        )

    def reset_cycles(self) -> None:
        """Zero the cycle counters (between benchmark phases) and, with
        telemetry on, restart the cycle attribution with them."""
        self.core_model.reset()
        if self.obs is not None:
            self.obs.attributor.rebase()
