"""The end-to-end IoT application (paper section 7.2.3).

A compartmentalized device: the firewall, TCP/IP stack, TLS, MQTT and
the JavaScript interpreter each live in their own compartment; every
network packet and every JS object is a separate heap allocation
protected by temporal safety.  The cloud delivers LED-animation
bytecode over TLS+MQTT; the JS program runs every 10 ms on a 20 MHz
CHERIoT-Ibex.

The receive path is a one-session
:class:`~repro.iot.sessions.NetPipeline`, the same chain the scaling
sweep runs with thousands of sessions.  The application links its JS
VM compartment into that pipeline's image and hands each cloud message
to the driver edge as one packet (``submit`` then ``drain``), so every
packet crosses firewall -> tcpip -> tls -> mqtt before the next one
arrives.

The headline number is **CPU load** averaged over the run (including
the TLS connection establishment): the paper reports 17.5 %, i.e. the
idle thread gets 82.5 % of a 20 MHz core.  Our cycle accounting is
mechanistic — compartment switches, allocations and revocation through
the real machinery, protocol/crypto/interpreter work charged per byte
and per opcode — so the reproduced load lands in the same regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.allocator import TemporalSafetyMode
from repro.capability import Capability, Permission
from repro.pipeline import CoreKind
from .jsvm import JavaScriptVM, led_animation_bytecode
from .packets import CloudSource, Message, frame
from .sessions import NetPipeline, SessionState, session_key
from .tls import TLSSession

#: The paper's FPGA dev board clock.
CLOCK_MHZ = 20.0
#: JS animation period (paper: "invoked every 10ms to animate the LEDs").
TICK_MS = 10
#: The device's one connection, to the cloud hub.
CONN_ID = 1


@dataclass
class IoTReport:
    """Outcome of one simulated run."""

    duration_ms: int
    busy_cycles: int
    available_cycles: int
    packets_received: int
    js_ticks: int
    js_objects_allocated: int
    gc_passes: int
    revocation_passes: int
    led_final: List[int] = field(default_factory=list)

    @property
    def cpu_load(self) -> float:
        """Fraction of CPU cycles not given to the idle thread."""
        return self.busy_cycles / max(1, self.available_cycles)

    @property
    def idle_fraction(self) -> float:
        return 1.0 - self.cpu_load


class IoTApplication:
    """The JS VM beside a one-session receive chain, on one System.

    ``zero_copy`` picks the pipeline's receive discipline: capability
    narrowing (default) or the copying baseline.  Both deliver the
    same messages; only the cycle costs differ (tests/iot pin the
    equivalence).
    """

    def __init__(
        self,
        core: CoreKind = CoreKind.IBEX,
        mode: TemporalSafetyMode = TemporalSafetyMode.HARDWARE,
        quarantine_threshold: "int | None" = None,
        zero_copy: bool = True,
    ) -> None:
        self.pipeline = NetPipeline(
            zero_copy=zero_copy,
            core=core,
            mode=mode,
            quarantine_threshold=quarantine_threshold,
            compartments={"jsvm": {"tick": self._jsvm_tick}},
        )
        self.system = self.pipeline.system
        bus = self.system.bus

        def write_field(cap: Capability, fld: int, value: int) -> None:
            address = cap.base + 4 * fld
            cap.check_access(address, 4, (Permission.SD,))
            bus.write_word(address, value, 4)

        def read_field(cap: Capability, fld: int) -> int:
            address = cap.base + 4 * fld
            cap.check_access(address, 4, (Permission.LD,))
            return bus.read_word(address, 4)

        # JS objects are allocated cross-compartment via the app's main
        # thread, like the pipeline's packet buffers.
        self.vm = JavaScriptVM(
            self.system.malloc, self.system.free, write_field, read_field
        )
        self.cloud = CloudSource(led_animation_bytecode())
        #: The hub's end of the TLS session; sealing costs the device
        #: nothing, so its cycles are never charged.
        self.cloud_tls = TLSSession(session_key(CONN_ID))
        self.cloud_tls.handshake()
        #: The device's end, set up by :meth:`connect`.
        self.session: Optional[SessionState] = None
        self._code_buffer = bytearray()

    # ------------------------------------------------------------------
    # The JS VM compartment and its bytecode delivery
    # ------------------------------------------------------------------

    def _jsvm_tick(self, ctx):
        ctx.use_stack(224)
        cycles = self.vm.run_tick()
        self.system.core_model.charge(cycles)
        return self.vm.leds[:]

    def _on_code_chunk(self, payload: bytes) -> None:
        self._code_buffer += payload

    def _on_code_done(self, payload: bytes) -> None:
        self.vm.load_bytecode(bytes(self._code_buffer))
        self._code_buffer.clear()  # the next delivery starts a new program

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def _send(self, wire: bytes) -> None:
        """One frame off the wire, through the whole receive chain."""
        self.pipeline.submit(CONN_ID, wire)
        self.pipeline.drain()

    def _deliver(self, message: Message) -> None:
        """Cloud side: seal the message and put it on the wire."""
        record, _ = self.cloud_tls.seal_record(message.body, message.sequence)
        self._send(frame(message.sequence, record))

    def connect(self) -> None:
        """Establish the connection once, then fetch the bytecode.

        The TLS handshake is charged like the paper's run.
        """
        if self.session is None:
            self.session = self.pipeline.establish(CONN_ID)
            mqtt = self.session.mqtt
            mqtt.subscribe("device/code", self._on_code_chunk)
            mqtt.subscribe("device/code-done", self._on_code_done)
            mqtt.subscribe("device/poll", lambda payload: None)
        for message in self.cloud.initial_messages():
            self._deliver(message)

    def run(self, duration_ms: int = 60_000) -> IoTReport:
        """Simulate ``duration_ms`` of device time; returns the report."""
        model = self.system.core_model
        start_cycles = model.cycles
        self.connect()
        now = 0
        token_tick = self.system.app.get_import("jsvm", "tick")
        while now < duration_ms:
            for message in self.cloud.messages_for_tick(now, TICK_MS):
                self._deliver(message)
            if self.vm.has_program:
                self.system.switcher.call(self.system.main_thread, token_tick)
            now += TICK_MS
        busy = model.cycles - start_cycles
        available = int(duration_ms * 1000 * CLOCK_MHZ)
        return IoTReport(
            duration_ms=duration_ms,
            busy_cycles=busy,
            available_cycles=available,
            packets_received=self.pipeline.stats.packets_delivered,
            js_ticks=self.vm.stats.ticks,
            js_objects_allocated=self.vm.stats.objects_allocated,
            gc_passes=self.vm.stats.gc_passes,
            revocation_passes=self.system.allocator.stats.revocation_passes,
            led_final=self.vm.leds[:],
        )
