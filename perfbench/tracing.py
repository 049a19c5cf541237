"""Host-time spans around the public entry points of each ``repro`` layer.

The tracer lives entirely outside the program: it replaces each entry
point listed in :data:`ENTRY_POINTS` with a wrapper, at every name a
caller looks it up by, and records one span per call (name, start, end,
parent).  A layer's self time is its spans' durations minus the time
covered by their child spans.

What the tracer deliberately does not do, because each of these would
change what runs: install a ``retire_hook``/``pre_step_hook`` on a CPU,
call ``sys.settrace``/``sys.setprofile`` (both force the executor back
to single-stepping), or wrap any ``CoreModel`` method (the fused and JIT
tiers specialise only when the timing model is exactly ``CoreModel``).
The Python garbage collector is observed through ``gc.callbacks``.

A call into an entry point whose direct parent span has the same key is
internal to that entry point (``readonly`` -> ``clear_perms`` ->
``and_perms``, ``drain`` -> ``pump``) and opens no new span.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time

#: (module, attribute path, span key).  A key ``None`` marks the
#: NetPipeline entry points, whose key is the receive discipline.
ENTRY_POINTS = (
    ("repro.capability.capability", "Capability.set_address", "cap.derive"),
    ("repro.capability.capability", "Capability.set_bounds", "cap.derive"),
    ("repro.capability.capability", "Capability.and_perms", "cap.derive"),
    ("repro.capability.capability", "Capability.clear_perms", "cap.derive"),
    ("repro.capability.capability", "Capability.readonly", "cap.derive"),
    ("repro.capability.capability", "Capability.check_access", "cap.check"),
    ("repro.rtos.switcher", "CompartmentSwitcher.call", "switcher.call"),
    ("repro.allocator.heap", "CheriHeap.malloc", "alloc.malloc"),
    ("repro.allocator.heap", "CheriHeap.free", "alloc.free"),
    ("repro.allocator.heap", "CheriHeap.revoke_now", "alloc.revoke"),
    ("repro.revoker.software", "SoftwareRevoker.sweep", "revoker.sweep"),
    ("repro.revoker.hardware", "BackgroundRevoker.kick", "revoker.sweep"),
    ("repro.revoker.hardware", "BackgroundRevoker.run_to_completion",
     "revoker.sweep"),
    ("repro.memory.bus", "SystemBus.read_bytes", "mem.rw"),
    ("repro.memory.bus", "SystemBus.write_bytes", "mem.rw"),
    ("repro.memory.bus", "SystemBus.fill", "mem.fill"),
    ("repro.memory.revocation_map", "RevocationMap.paint", "mem.revmap"),
    ("repro.memory.revocation_map", "RevocationMap.clear", "mem.revmap"),
    ("repro.memory.revocation_map", "RevocationMap.is_revoked", "mem.revmap"),
    ("repro.machine", "System.build", "machine.build"),
    ("repro.isa.executor", "CPU.run", "isa.run"),
    ("repro.cc.lower", "compile_module", "cc.compile"),
    ("repro.isa.assembler", "assemble", "cc.assemble"),
    ("repro.iot.sessions", "NetPipeline.submit", None),
    ("repro.iot.sessions", "NetPipeline.pump", None),
    ("repro.iot.sessions", "NetPipeline.drain", None),
    ("repro.iot.sessions", "NetPipeline.establish", "iot.establish"),
    ("repro.iot.tls", "TLSSession.open_record", "iot.tls"),
    ("repro.iot.firewall", "Firewall.admit", "iot.firewall"),
    ("repro.iot.packets", "validate_frame", "iot.frame"),
    ("repro.iot.mqtt", "MQTTClient.handle_record", "iot.mqtt"),
    ("repro.iot.jsvm", "JavaScriptVM.run_tick", "iot.jsvm.tick"),
    ("repro.iot.app", "IoTApplication.run", "iot.app"),
)

#: Modules whose by-name imports of a wrapped function must be rebound.
CALLER_MODULES = (
    "repro.workloads.coremark",
    "repro.workloads.alloc_bench",
    "repro.iot.loadgen",
    "repro.iot.app",
)

#: Export handlers run inside a switcher call; their self time belongs
#: to the object that owns them (the pipeline stages, the IoT app).
#: Handlers owned by nothing listed here (the allocator compartment's
#: malloc/free glue in ``repro.machine``) are keyed ``switcher.handler``.
HANDLER_KEY = "switcher.handler"
GC_KEY = "py.gc"
ROOT_KEY = "root"

#: Every entry-point span key, reported as ``<key>.calls`` and
#: ``<key>.self_s``; collector pauses are reported as ``py.gc.*``.
SPAN_KEYS = (
    "cap.derive", "cap.check", "switcher.call", HANDLER_KEY,
    "alloc.malloc", "alloc.free", "alloc.revoke", "revoker.sweep",
    "mem.rw", "mem.fill", "mem.revmap", "machine.build", "isa.run",
    "cc.compile", "cc.assemble", "iot.zerocopy", "iot.copy",
    "iot.establish", "iot.tls", "iot.firewall", "iot.frame", "iot.mqtt",
    "iot.jsvm.tick", "iot.app",
)

#: Spans kept for the trace file; later spans are counted, not kept.
SPAN_SAMPLE = 20_000

#: Byte counts recorded at the memory entry points.
_BYTES_OF = {
    "SystemBus.read_bytes": lambda args: args[2],
    "SystemBus.write_bytes": lambda args: len(args[2]),
    "SystemBus.fill": lambda args: args[2],
}


def _discipline_key(pipeline) -> str:
    return "iot.zerocopy" if pipeline.zero_copy else "iot.copy"


class Tracer:
    """Span stack plus per-key aggregates (calls, self seconds, bytes)."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: Open frames: [key, child seconds, span id, start].
        self.stack = [[ROOT_KEY, 0.0, -1, 0.0]]
        self.calls = {}
        self.self_s = {}
        self.nbytes = {}
        self.spans = []
        self.spans_dropped = 0
        self.next_id = 0
        self.window_start = None
        self.window_s = None
        self._gc_frame = None

    # -- span bookkeeping ------------------------------------------------

    def _open(self, key: str) -> list:
        frame = [key, 0.0, self.next_id, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        frame[3] = self.clock()
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        duration = end - frame[3]
        key = frame[0]
        self.calls[key] = self.calls.get(key, 0) + 1
        self.self_s[key] = self.self_s.get(key, 0.0) + duration - frame[1]
        parent[1] += duration
        if len(self.spans) < SPAN_SAMPLE:
            self.spans.append((key, frame[3], end, frame[2], parent[2]))
        else:
            self.spans_dropped += 1

    def wrap(self, fn, key, bytes_of=None):
        """A wrapper recording one span per call under ``key``.

        ``key`` is a string, or a function of the bound instance.
        """
        stack = self.stack
        open_, close = self._open, self._close
        nbytes = self.nbytes

        if callable(key):
            key_of = key

            def wrapper(*args, **kwargs):
                k = key_of(args[0])
                if stack[-1][0] is k:
                    return fn(*args, **kwargs)
                frame = open_(k)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame)

        elif bytes_of is not None:

            def wrapper(*args, **kwargs):
                if stack[-1][0] is key:
                    return fn(*args, **kwargs)
                nbytes[key] = nbytes.get(key, 0) + bytes_of(args)
                frame = open_(key)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame)

        else:

            def wrapper(*args, **kwargs):
                if stack[-1][0] is key:
                    return fn(*args, **kwargs)
                frame = open_(key)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- garbage collector -----------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_frame = self._open(GC_KEY)
        elif self._gc_frame is not None:
            frame, self._gc_frame = self._gc_frame, None
            if self.stack[-1] is frame:
                self._close(frame)

    # -- the measured window ---------------------------------------------

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)
        self.window_start = self.clock()
        self.stack[0][3] = self.window_start

    def stop(self) -> None:
        self.window_s = self.clock() - self.window_start
        gc.callbacks.remove(self._on_gc)

    def unattributed_s(self) -> float:
        """Window seconds not covered by any span's self time."""
        return self.window_s - sum(self.self_s.values())

    def write_spans(self, path: str) -> None:
        """The kept spans as a Chrome trace (open it in Perfetto)."""
        events = []
        for key, start, end, span_id, parent_id in self.spans:
            events.append({
                "name": key,
                "cat": key.split(".")[0],
                "ph": "X",
                "ts": round((start - self.window_start) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent_id},
            })
        doc = {
            "traceEvents": events,
            "otherData": {"spans_dropped": self.spans_dropped},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _rebind(original, replacement) -> None:
    """Replace ``original`` at every ``repro`` module name bound to it."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, builds: list) -> None:
    """Wrap every entry point; must run before any system is built.

    ``NetPipeline`` binds its stage handlers and ``sessions`` imports
    ``validate_frame`` by name, so wrappers go in before construction
    and module functions are rebound in every importing module.  The
    allocator and revoker counters of every ``System`` built are
    appended to ``builds`` as ``(heap, software, hardware)`` stats.
    """
    for name in CALLER_MODULES:
        importlib.import_module(name)
    _track_builds(builds)
    for module_name, path, key in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        bytes_of = _BYTES_OF.get(path)
        if key is None:
            key = _discipline_key
        if "." not in path:
            original = getattr(module, path)
            _rebind(original, tracer.wrap(original, key, bytes_of))
            continue
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(raw.__func__, key)))
        else:
            setattr(cls, attr, tracer.wrap(raw, key, bytes_of))
    _install_handler_spans(tracer)


def _track_builds(builds: list) -> None:
    from repro.machine import System

    build = System.__dict__["build"].__func__

    def tracked_build(*args, **kwargs):
        system = build(*args, **kwargs)
        builds.append((
            system.allocator.stats,
            system.software_revoker.stats,
            system.hardware_revoker.stats,
        ))
        return system

    System.build = staticmethod(tracked_build)


def _install_handler_spans(tracer: Tracer) -> None:
    from repro.iot.app import IoTApplication
    from repro.iot.sessions import NetPipeline
    from repro.rtos.compartment import Compartment

    export = Compartment.export

    def handler_key(handler):
        owner = getattr(handler, "__self__", None)
        if isinstance(owner, NetPipeline):
            return _discipline_key(owner)
        if isinstance(owner, IoTApplication):
            return "iot.app"
        return HANDLER_KEY

    def traced_export(self, name, handler, *args, **kwargs):
        wrapped = tracer.wrap(handler, handler_key(handler))
        return export(self, name, wrapped, *args, **kwargs)

    Compartment.export = traced_export


class TierProbe:
    """Execution-tier counts of every ``CPU.run`` call, by delta.

    Wrapping ``CPU.run`` alone changes nothing the executor decides, so
    a run with only this probe is the reference the fully traced run's
    tier mix is compared against.
    """

    FIELDS = ("instructions", "fused", "jit", "compiles", "guard_bails",
              "translations")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.FIELDS, 0)

    @staticmethod
    def _read(cpu) -> tuple:
        return (
            cpu.stats.instructions,
            cpu.block_stats.instructions,
            cpu.jit_stats.instructions,
            cpu.jit_stats.compiles,
            cpu.jit_stats.guard_bails,
            cpu.block_stats.translations,
        )

    def install(self) -> None:
        from repro.isa.executor import CPU

        run = CPU.run
        read = self._read
        totals = self.totals
        fields = self.FIELDS

        def probed_run(cpu, *args, **kwargs):
            before = read(cpu)
            try:
                return run(cpu, *args, **kwargs)
            finally:
                for name, a, b in zip(fields, before, read(cpu)):
                    totals[name] += b - a

        probed_run.__wrapped__ = run
        CPU.run = probed_run

    def tiers(self) -> dict:
        t = self.totals
        return {
            "interp": t["instructions"] - t["fused"] - t["jit"],
            "fused": t["fused"],
            "jit": t["jit"],
            "compiles": t["compiles"],
            "guard_bails": t["guard_bails"],
            "translations": t["translations"],
        }
