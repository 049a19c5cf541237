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
from repro.capability import Capability, Permission, make_roots
from repro.isa import (
    CPU,
    BlockCacheStats,
    CSRFile,
    ExecutionMode,
    LoadFilter,
    PMPUnit,
    Tier,
)
from repro.memory import (
    MemoryMap,
    RevocationMap,
    SystemBus,
    TaggedMemory,
    default_memory_map,
)
from repro.obs import MetricsRegistry, MetricsSnapshot, Telemetry
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
from repro.rtos.compartment import InterruptPosture

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
        # The metrics registry replaces the ad-hoc dict plumbing that
        # stats_summary used to hand-build: every classic stat holder
        # registers once, in the summary's historical key order, and
        # summaries/diffs are registry snapshots from here on.  With
        # telemetry enabled the same registry also carries the obs
        # metrics (span counts, allocation-size histogram).
        self.registry = telemetry.registry if telemetry else MetricsRegistry()
        self.registry.register_scalar("cycles", lambda: self.core_model.cycles)
        self.registry.register_source("bus", self.bus.stats)
        self.registry.register_source("heap", self.allocator.stats)
        self.registry.register_source("switcher", self.switcher.stats)
        self.registry.register_source("scheduler", self.scheduler.stats)
        self.registry.register_source(
            "software_revoker", self.software_revoker.stats
        )
        self.registry.register_source(
            "hardware_revoker", self.hardware_revoker.stats
        )
        self.registry.register_source("load_filter", self.load_filter.stats)
        # Execution-tier counters: every CPU this system creates
        # (``make_cpu``) shares this holder, so the summary aggregates
        # translation activity across all harts.
        self.block_cache_stats = BlockCacheStats()
        self.registry.register_source("block_cache", self.block_cache_stats)
        self.registry.register_scalar("epoch", lambda: self.epoch.value)
        self.registry.register_scalar(
            "quarantined_bytes", lambda: self.allocator.quarantined_bytes
        )
        self.registry.register_scalar(
            "live_allocations", lambda: self.allocator.live_allocations
        )

    #: The registry groups stats_summary() has always reported, in its
    #: historical key order (tests and reports rely on the shape).
    _CLASSIC_GROUPS = (
        "cycles",
        "bus",
        "heap",
        "switcher",
        "scheduler",
        "software_revoker",
        "hardware_revoker",
        "load_filter",
        "block_cache",
        "epoch",
        "quarantined_bytes",
        "live_allocations",
    )

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
        cycle attributor, obs metrics) into the switcher, scheduler,
        allocator and revokers; disabled, those subsystems follow the
        seed's exact code paths.
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

    def make_cpu(self, mode: ExecutionMode = ExecutionMode.CHERIOT,
                 pmp: Optional[PMPUnit] = None,
                 tier: Tier = Tier.FUSED) -> CPU:
        """An ISA-level CPU sharing this system's bus and devices.

        ``tier`` picks the execution tier exactly as on
        :class:`~repro.isa.CPU`; the zero-copy differential varies the
        tier of a device's CPU through this seam.
        """
        cpu = CPU(
            self.bus,
            mode=mode,
            load_filter=self.load_filter if self.core_model.load_filter_enabled else None,
            pmp=pmp,
            timing=self.core_model,
            hwm_enabled=self.csr.hwm_enabled,
            tier=tier,
        )
        # Aggregate this hart's tier counters into the system registry.
        cpu.block_stats = self.block_cache_stats
        return cpu

    def reset_cycles(self) -> None:
        """Zero the cycle counters (between benchmark phases)."""
        self.core_model.reset()
        if self.obs is not None:
            self.obs.attributor.rebase()

    def stats_summary(self) -> dict:
        """One dict of every subsystem's counters (for reports/tests).

        Delegates to the metrics registry, restricted to the classic
        groups so the shape is identical whether or not telemetry is
        enabled (obs-only metrics live in :meth:`stats_snapshot`).
        """
        return self.registry.snapshot(self._CLASSIC_GROUPS).as_dict()

    def stats_snapshot(self) -> MetricsSnapshot:
        """A full registry snapshot (classic groups plus obs metrics)."""
        return self.registry.snapshot()

    def stats_diff(self, before: MetricsSnapshot) -> dict:
        """Numeric deltas of every registered metric since ``before``.

        The before/after idiom for workloads::

            before = system.stats_snapshot()
            run_workload(system)
            delta = system.stats_diff(before)
        """
        return self.registry.snapshot().diff(before).as_dict()

    def audit(self):
        """The section 3.1.2 image audit for this system."""
        from repro.rtos.audit import audit_image

        return audit_image(self.switcher)
