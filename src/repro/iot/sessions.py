"""The receive chain: zero-copy vs per-layer copy, 1 to N sessions.

This is the only implementation of the paper's receive path.  The
§7.2.3 application (:mod:`repro.iot.app`) runs it with one session and
the JS VM linked in; the scaling sweep runs it with thousands.  It
realises the paper's performant receive discipline — and its copying
strawman — over the *same* compartment topology, so the two are
directly comparable:

``driver (app) -> firewall -> tcpip -> tls -> mqtt/app``

**Zero-copy** (``zero_copy=True``): the driver allocates the packet's
heap buffer up front and programs the DMA engine to land the frame in
it directly, so the CPU pays only IRQ + descriptor handling at the
edge; every later compartment receives a ``csetbounds``-narrowed view
of that same buffer (the firewall trims allocator slack, TCP/IP
narrows to the TLS record, TLS decrypts *in place* and narrows to the
read-only plaintext body for MQTT).  Capability narrowing is what
makes handing the buffer onward *safe* — without it, sharing driver
memory would expose every neighbouring packet.  One allocation, one
free, zero CPU copies.

**Copying baseline** (``zero_copy=False``): the honest cost of a
compartmentalised stack without capability narrowing.  The DMA engine
lands frames in the driver's fixed RX ring, and since handing ring
memory to another compartment would leak the whole ring, the driver
must copy each frame out (``COPY_CYCLES_PER_BYTE``, 6 cycles/byte); the
same argument repeats at every boundary, so each layer that keeps the
data copies it into a heap buffer of its own and frees its upstream
buffer.  Five allocations per packet instead of one, which also
multiplies quarantine pressure on the temporal-safety machinery.

Stages are decoupled by **bounded queues** drained by the driver loop
(:meth:`NetPipeline.pump`), and each stage is entered once per
*batch*, not once per packet — amortising the compartment-crossing
cost (switcher instructions + stack zeroing) across everything queued
for that stage.  This is why per-packet cost *falls* as concurrent
sessions rise: more sessions keep the queues full, so every crossing
carries more packets.  When a downstream queue is full the upstream
stage stalls (items wait in place, nothing is lost mid-pipeline), and
when the ingress ring is full the driver drops the packet before
allocating (``dropped_backpressure``), like a NIC with a full RX
ring.  Queue high-watermarks, per-compartment cycle buckets, and
*measured* crossing overhead are reported per run; per-packet latency
(driver submit to application dispatch, in simulated cycles) feeds a
mergeable :class:`~repro.obs.sketch.QuantileSketch`.

Cipher work (the 45 cycles/byte cost of decrypt+MAC) is charged to its
own bucket, ``cycles_crypto``: it is byte-for-byte identical in both
disciplines by construction, so the benchmark's stack-cost metric can
exclude it and measure exactly the data-movement path that zero-copy
optimises (totals are reported too).

Everything is a pure function of the submitted wire bytes — no clock,
no RNG — so any run is byte-reproducible (``tools/lint_determinism.py``
covers this module).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Tuple

from repro.allocator import TemporalSafetyMode
from repro.capability import Capability, Permission
from repro.machine import System
from repro.obs.sketch import QuantileSketch
from repro.pipeline import CoreKind

from . import tls as _tls
from .firewall import Firewall
from .mqtt import CYCLES_PER_MESSAGE, MQTTClient, MQTTError
from .packets import FramingError, validate_frame
from .tls import TLSError, TLSSession

#: Copy cost per byte (load+store through capabilities); when TCP/IP
#: copies, the framing checksum is folded into the copy loop.
COPY_CYCLES_PER_BYTE = 6
#: TCP/IP per-packet protocol processing beyond the data movement
#: (header parse, TCP state machine update, ACK generation).
TCPIP_CYCLES_PER_PACKET = 1400
#: TCP/IP in-place validation per byte (load+accumulate, no store) on
#: the zero-copy path, which never re-materialises the body.
TCPIP_VALIDATE_CYCLES_PER_BYTE = 2
#: Driver-edge fixed cost per packet (IRQ dispatch, RX descriptor).
DRIVER_CYCLES_PER_PACKET = 400
#: Copy-mode driver cost: software copies each frame out of the fixed
#: DMA RX ring into a heap buffer.  The zero-copy driver never pays
#: this — the DMA engine lands the frame in the heap buffer itself.
DRIVER_CYCLES_PER_BYTE = COPY_CYCLES_PER_BYTE
#: A ``csetaddr`` + ``csetbounds`` pair when a stage narrows its view.
NARROW_CYCLES = 2
#: TLS compartment charge for rejecting a tampered record (its own MAC
#: check only).
TLS_REJECT_CYCLES = 600


def session_key(conn_id: int) -> bytes:
    """The per-connection TLS key both endpoints derive."""
    return f"session-key-{conn_id:08d}".encode("ascii")


class SessionError(Exception):
    """Unknown or duplicate connection ids."""


@dataclass
class QueueStats:
    enqueued: int = 0
    dequeued: int = 0
    high_watermark: int = 0


class BoundedQueue:
    """A FIFO with a hard capacity and a high-watermark gauge."""

    __slots__ = ("name", "capacity", "stats", "_items")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.stats = QueueStats()
        self._items: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def has_room(self) -> bool:
        return len(self._items) < self.capacity

    def offer(self, item) -> bool:
        """Enqueue; False (and no side effect) when full."""
        if not self.has_room:
            return False
        self._items.append(item)
        self.stats.enqueued += 1
        depth = len(self._items)
        if depth > self.stats.high_watermark:
            self.stats.high_watermark = depth
        return True

    def take(self):
        self.stats.dequeued += 1
        return self._items.popleft()

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "depth": len(self._items),
            "enqueued": self.stats.enqueued,
            "dequeued": self.stats.dequeued,
            "high_watermark": self.stats.high_watermark,
        }


class SessionState:
    """One connection's receive-side state, keyed by ``conn_id``."""

    __slots__ = ("conn_id", "expected_seq", "tls", "mqtt", "delivered",
                 "delivered_bytes")

    def __init__(self, conn_id: int) -> None:
        self.conn_id = conn_id
        self.expected_seq = 1
        self.tls = TLSSession(session_key(conn_id))
        self.mqtt = MQTTClient()
        self.delivered = 0
        self.delivered_bytes = 0


@dataclass
class NetPipelineStats:
    """The pipeline's counters, all flat integers; ``BENCH_net.json``
    and the fleet devices read them through :meth:`NetPipeline.counters`."""

    packets_in: int = 0
    bytes_in: int = 0
    packets_delivered: int = 0
    payload_bytes_delivered: int = 0
    dropped_backpressure: int = 0
    dropped_corrupt: int = 0
    dropped_out_of_order: int = 0
    dropped_tls: int = 0
    dropped_app: int = 0
    sessions_established: int = 0
    handshake_cycles: int = 0
    crossings: int = 0
    crossing_cycles: int = 0
    narrowings: int = 0
    allocs: int = 0
    frees: int = 0
    cycles_driver: int = 0
    cycles_firewall: int = 0
    cycles_tcpip: int = 0
    cycles_tls: int = 0
    cycles_crypto: int = 0
    cycles_app: int = 0
    cycles_alloc: int = 0


class _PacketRef:
    """One in-flight packet: the root allocation plus the current view."""

    __slots__ = ("conn_id", "root", "cap", "length", "t0", "nonce")

    def __init__(self, conn_id: int, root: Capability, cap: Capability,
                 length: int, t0: int) -> None:
        self.conn_id = conn_id
        self.root = root      # what eventually gets freed
        self.cap = cap        # the current stage's (narrowed) view
        self.length = length  # valid bytes under ``cap``
        self.t0 = t0          # simulated cycle stamp at the driver edge
        self.nonce = 0        # wire sequence, filled in by tcpip


class NetPipeline:
    """The scaled receive path on one :class:`~repro.machine.System`.

    The driver loop (the app compartment's main thread) owns the
    queues; each stage runs in its own compartment, entered through the
    real switcher once per packet per stage, so crossing costs are
    measured, not assumed.  Per-compartment protocol work is charged
    explicitly inside each stage; whatever remains of a stage call's
    measured cycle total is the crossing overhead (switcher
    instructions plus stack zeroing), accumulated in
    ``stats.crossing_cycles``.  Allocator traffic — including any
    revocation sweep a ``free`` triggers — is measured separately into
    ``stats.cycles_alloc``.

    ``compartments`` maps further compartment names to their exports
    (``{"jsvm": {"tick": handler}}``); each export is linked for the
    driver's compartment to call before the image is sealed, so an
    application can run beside the chain on the same system.
    """

    def __init__(
        self,
        zero_copy: bool = True,
        queue_capacity: int = 64,
        core: CoreKind = CoreKind.IBEX,
        mode: TemporalSafetyMode = TemporalSafetyMode.HARDWARE,
        quarantine_threshold: "int | None" = None,
        collect_messages: bool = False,
        compartments: "Mapping[str, Mapping[str, Callable]] | None" = None,
    ) -> None:
        self.zero_copy = zero_copy
        self.collect_messages = collect_messages
        self.stats = NetPipelineStats()
        self.latency = QuantileSketch()
        self.sessions: Dict[int, SessionState] = {}
        self.messages: List[Tuple[int, bytes]] = []

        self.system = System.build(
            core=core,
            mode=mode,
            finalize=False,
            app_stack_size=4096,
            quarantine_threshold=quarantine_threshold,
        )
        self._core = self.system.core_model
        self._bus = self.system.bus
        self.firewall = Firewall()

        loader = self.system.loader
        firewall_comp = loader.add_compartment("firewall")
        tcpip_comp = loader.add_compartment("tcpip")
        tls_comp = loader.add_compartment("tls")
        mqtt_comp = loader.add_compartment("mqtt")
        firewall_comp.export("admit", self._stage_firewall)
        tcpip_comp.export("ingest", self._stage_tcpip)
        tls_comp.export("process", self._stage_tls)
        mqtt_comp.export("dispatch", self._stage_app)
        loader.link("app", "firewall", "admit")
        loader.link("app", "tcpip", "ingest")
        loader.link("app", "tls", "process")
        loader.link("app", "mqtt", "dispatch")
        for name, exports in (compartments or {}).items():
            compartment = loader.add_compartment(name)
            for export, handler in exports.items():
                compartment.export(export, handler)
                loader.link("app", name, export)
        loader.finalize()

        app = self.system.app
        self._tokens = {
            "firewall": app.get_import("firewall", "admit"),
            "tcpip": app.get_import("tcpip", "ingest"),
            "tls": app.get_import("tls", "process"),
            "mqtt": app.get_import("mqtt", "dispatch"),
        }

        self.q_ingress = BoundedQueue("ingress", queue_capacity)
        self.q_tcpip = BoundedQueue("tcpip", queue_capacity)
        self.q_tls = BoundedQueue("tls", queue_capacity)
        self.q_app = BoundedQueue("app", queue_capacity)
        self._queues = (self.q_ingress, self.q_tcpip, self.q_tls, self.q_app)

        # Work cycles charged inside the current stage call — what the
        # crossing-overhead measurement subtracts from the call total.
        self._inner = 0

    # ------------------------------------------------------------------
    # Cost accounting helpers
    # ------------------------------------------------------------------

    def _charge(self, bucket: str, cycles: int) -> None:
        """Charge explicit stage work and attribute it to a bucket."""
        self._core.charge(cycles)
        setattr(self.stats, bucket, getattr(self.stats, bucket) + cycles)
        self._inner += cycles

    def _alloc(self, size: int) -> Capability:
        """Heap allocation through the switcher, measured into the
        allocator bucket (includes its own crossings and any sweep)."""
        before = self._core.cycles
        cap = self.system.malloc(size)
        delta = self._core.cycles - before
        self.stats.cycles_alloc += delta
        self.stats.allocs += 1
        self._inner += delta
        return cap

    def _free(self, cap: Capability) -> None:
        before = self._core.cycles
        self.system.free(cap)
        delta = self._core.cycles - before
        self.stats.cycles_alloc += delta
        self.stats.frees += 1
        self._inner += delta

    def _call(self, stage: str, batch: "List[_PacketRef]"):
        """One cross-compartment stage call carrying a whole batch.

        The crossing cost (everything the switcher charges beyond the
        work the handler itself accounts for) is measured, not
        assumed — and amortised over ``len(batch)`` packets.
        """
        before = self._core.cycles
        self._inner = 0
        result = self.system.switcher.call(
            self.system.main_thread, self._tokens[stage], batch
        )
        elapsed = self._core.cycles - before
        self.stats.crossings += 1
        self.stats.crossing_cycles += elapsed - self._inner
        return result

    def _write(self, cap: Capability, data: bytes) -> None:
        cap.check_access(cap.base, max(1, len(data)), (Permission.SD,))
        self._bus.write_bytes(cap.base, data)

    def _read(self, cap: Capability, length: int) -> bytes:
        cap.check_access(cap.base, max(1, length), (Permission.LD,))
        return self._bus.read_bytes(cap.base, length)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def establish(self, conn_id: int) -> SessionState:
        """Handshake one connection (charged, bucketed separately)."""
        if conn_id in self.sessions:
            raise SessionError(f"connection {conn_id} already established")
        session = SessionState(conn_id)
        cycles = session.tls.handshake()
        self._core.charge(cycles)
        self.stats.handshake_cycles += cycles
        self.stats.sessions_established += 1
        session.mqtt.subscribe(
            "device/rpc", self._make_app_handler(session, "device/rpc")
        )
        session.mqtt.subscribe(
            "device/stream", self._make_app_handler(session, "device/stream")
        )
        self.sessions[conn_id] = session
        return session

    def establish_many(self, conn_ids) -> None:
        for conn_id in conn_ids:
            self.establish(conn_id)

    def _make_app_handler(self, session: SessionState, topic: str):
        def handler(payload: bytes) -> None:
            session.delivered += 1
            session.delivered_bytes += len(payload)
            self.stats.payload_bytes_delivered += len(payload)
            if self.collect_messages:
                self.messages.append(
                    (session.conn_id, topic.encode() + b":" + payload)
                )
        return handler

    # ------------------------------------------------------------------
    # Driver edge
    # ------------------------------------------------------------------

    def submit(self, conn_id: int, wire: bytes) -> bool:
        """One frame off the wire for ``conn_id``; False = ring full."""
        if conn_id not in self.sessions:
            raise SessionError(f"no session for connection {conn_id}")
        self.stats.packets_in += 1
        self.stats.bytes_in += len(wire)
        if not self.q_ingress.has_room:
            # A full RX ring drops before the allocation, like a NIC.
            self.stats.dropped_backpressure += 1
            self._charge("cycles_driver", DRIVER_CYCLES_PER_PACKET)
            return False
        if self.zero_copy:
            # DMA lands the frame in the heap buffer; the CPU pays only
            # the IRQ + descriptor fixed cost.
            self._charge("cycles_driver", DRIVER_CYCLES_PER_PACKET)
        else:
            # The frame sits in the driver-owned RX ring; software must
            # copy it out before the ring slot is recycled.
            self._charge(
                "cycles_driver",
                DRIVER_CYCLES_PER_PACKET
                + DRIVER_CYCLES_PER_BYTE * len(wire),
            )
        root = self._alloc(max(8, len(wire)))
        self._write(root, wire)
        item = _PacketRef(conn_id, root, root, len(wire), self._core.cycles)
        self.q_ingress.offer(item)
        return True

    # ------------------------------------------------------------------
    # The driver loop: drain stages upstream-to-downstream
    # ------------------------------------------------------------------

    def pump(self) -> None:
        """One scheduling round; a packet can traverse all stages.

        Each non-empty stage is entered exactly once, with everything
        its input queue holds (bounded by downstream room), so the
        crossing cost amortises over the batch.
        """
        self._pump_stage("firewall", self.q_ingress, self.q_tcpip)
        self._pump_stage("tcpip", self.q_tcpip, self.q_tls)
        self._pump_stage("tls", self.q_tls, self.q_app)
        count = len(self.q_app)
        if count:
            batch = [self.q_app.take() for _ in range(count)]
            results = self._call("mqtt", batch)
            for item, delivered in zip(batch, results):
                if delivered:
                    self.stats.packets_delivered += 1
                    self.latency.observe(self._core.cycles - item.t0)
                self._retire(item)

    def _pump_stage(
        self, stage: str, source: BoundedQueue, sink: BoundedQueue
    ) -> None:
        count = min(len(source), sink.capacity - len(sink))
        if not count:
            return
        batch = [source.take() for _ in range(count)]
        results = self._call(stage, batch)
        for item, forwarded in zip(batch, results):
            if forwarded:
                sink.offer(item)
            else:
                self._retire(item)

    def drain(self, max_rounds: int = 16) -> None:
        """Pump until every queue is empty (bounded rounds)."""
        for _ in range(max_rounds):
            if not any(len(queue) for queue in self._queues):
                return
            self.pump()

    def _retire(self, item: _PacketRef) -> None:
        self._free(item.root)

    # ------------------------------------------------------------------
    # Stage handlers (run inside their compartments)
    # ------------------------------------------------------------------

    def _stage_firewall(self, ctx, batch: "List[_PacketRef]") -> List[bool]:
        ctx.use_stack(96)
        results: List[bool] = []
        for item in batch:
            results.append(self._firewall_one(item))
        return results

    def _firewall_one(self, item: _PacketRef) -> bool:
        view, cycles = self.firewall.admit(item.cap, item.length)
        self._charge("cycles_firewall", cycles)
        if view is None:
            self.stats.dropped_corrupt += 1
            return False
        if self.zero_copy:
            self._charge("cycles_firewall", NARROW_CYCLES)
            self.stats.narrowings += 1
            item.cap = view
        else:
            # Copying discipline: the firewall re-materialises the
            # frame into a buffer it owns and releases the driver's.
            data = self._read(item.cap, item.length)
            self._charge(
                "cycles_firewall", COPY_CYCLES_PER_BYTE * item.length
            )
            fresh = self._alloc(max(8, item.length))
            self._write(fresh, data)
            self._free(item.root)
            item.root = item.cap = fresh
        return True

    def _stage_tcpip(self, ctx, batch: "List[_PacketRef]") -> List[bool]:
        ctx.use_stack(160)
        results: List[bool] = []
        for item in batch:
            results.append(self._tcpip_one(item))
        return results

    def _tcpip_one(self, item: _PacketRef) -> bool:
        session = self.sessions[item.conn_id]
        data = self._read(item.cap, item.length)
        if self.zero_copy:
            self._charge(
                "cycles_tcpip",
                TCPIP_CYCLES_PER_PACKET
                + TCPIP_VALIDATE_CYCLES_PER_BYTE * item.length,
            )
        else:
            self._charge(
                "cycles_tcpip",
                TCPIP_CYCLES_PER_PACKET + COPY_CYCLES_PER_BYTE * item.length,
            )
        try:
            sequence, offset, length = validate_frame(data)
        except FramingError:
            self.stats.dropped_corrupt += 1
            return False
        if sequence != session.expected_seq:
            self.stats.dropped_out_of_order += 1
            return False
        session.expected_seq = sequence + 1
        item.nonce = sequence
        if self.zero_copy:
            self._charge("cycles_tcpip", NARROW_CYCLES)
            self.stats.narrowings += 1
            item.cap = item.cap.set_address(
                item.cap.base + offset
            ).set_bounds(length)
            item.length = length
        else:
            fresh = self._alloc(max(8, length))
            self._write(fresh, data[offset : offset + length])
            self._free(item.root)
            item.root = item.cap = fresh
            item.length = length
        return True

    def _stage_tls(self, ctx, batch: "List[_PacketRef]") -> List[bool]:
        ctx.use_stack(192)
        results: List[bool] = []
        for item in batch:
            results.append(self._tls_one(item))
        return results

    def _tls_one(self, item: _PacketRef) -> bool:
        session = self.sessions[item.conn_id]
        record = self._read(item.cap, item.length)
        try:
            plaintext, cycles = session.tls.open_record(record, item.nonce)
        except TLSError:
            self._charge("cycles_tls", TLS_REJECT_CYCLES)
            self.stats.dropped_tls += 1
            return False
        # The cipher work (identical in both disciplines) goes to its
        # own bucket; the record-layer overhead stays with the stack.
        crypto = _tls.CYCLES_PER_BYTE * len(plaintext)
        self._charge("cycles_crypto", crypto)
        self._charge("cycles_tls", cycles - crypto)
        if self.zero_copy:
            # In-place decrypt (the per-byte charge covers the store
            # back), then a narrowed *read-only* view of the plaintext
            # for the app — the MAC trailer and the store permission
            # both disappear from the application's reach.
            self._write(item.cap, plaintext)
            self._charge("cycles_tls", NARROW_CYCLES)
            self.stats.narrowings += 1
            item.cap = (
                item.cap.set_address(item.cap.base)
                .set_bounds(len(plaintext))
                .readonly()
            )
            item.length = len(plaintext)
        else:
            fresh = self._alloc(max(8, len(plaintext)))
            self._write(fresh, plaintext)
            self._free(item.root)
            item.root = item.cap = fresh
            item.length = len(plaintext)
        return True

    def _stage_app(self, ctx, batch: "List[_PacketRef]") -> List[bool]:
        ctx.use_stack(128)
        results: List[bool] = []
        for item in batch:
            results.append(self._app_one(item))
        return results

    def _app_one(self, item: _PacketRef) -> bool:
        session = self.sessions[item.conn_id]
        plaintext = self._read(item.cap, item.length)
        before_bytes = session.delivered_bytes
        try:
            handlers, cycles = session.mqtt.handle_record(plaintext)
        except MQTTError:
            self._charge("cycles_app", CYCLES_PER_MESSAGE // 2)
            self.stats.dropped_app += 1
            return False
        self._charge("cycles_app", cycles)
        if not self.zero_copy:
            # The application re-materialises the payload it keeps.
            payload_len = session.delivered_bytes - before_bytes
            scratch = self._alloc(max(8, payload_len))
            self._charge(
                "cycles_app", COPY_CYCLES_PER_BYTE * payload_len
            )
            self._free(scratch)
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self._core.cycles

    def counters(self) -> Dict[str, int]:
        return {
            field.name: getattr(self.stats, field.name)
            for field in fields(self.stats)
        }

    def report(self) -> dict:
        """The deterministic run summary (canonical key order).

        ``per_packet_cycles`` is the total steady-state cost per
        delivered packet (handshakes excluded); ``per_packet_stack_
        cycles`` additionally excludes ``cycles_crypto``, the cipher
        work that is byte-identical in both disciplines — the number
        that isolates what zero-copy actually changes.
        """
        delivered = self.stats.packets_delivered
        steady = self.cycles - self.stats.handshake_cycles
        stack = steady - self.stats.cycles_crypto
        return {
            "mode": "zerocopy" if self.zero_copy else "copy",
            "sessions": self.stats.sessions_established,
            "counters": dict(sorted(self.counters().items())),
            "queues": {
                queue.name: queue.snapshot() for queue in self._queues
            },
            "latency": self.latency.summary(),
            "latency_sketch": self.latency.to_dict(),
            "steady_cycles": steady,
            "stack_cycles": stack,
            "per_packet_cycles": (
                round(steady / delivered, 2) if delivered else 0.0
            ),
            "per_packet_stack_cycles": (
                round(stack / delivered, 2) if delivered else 0.0
            ),
            "crossing_cycles_per_packet": (
                round(self.stats.crossing_cycles / delivered, 2)
                if delivered
                else 0.0
            ),
        }
