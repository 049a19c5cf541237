"""The end-to-end compartmentalized IoT application (paper section 7.2.3)."""

from .app import CLOCK_MHZ, TICK_MS, IoTApplication, IoTReport
from .firewall import Firewall, FirewallStats
from .jsvm import JavaScriptVM, VMError, VMStats, led_animation_bytecode
from .loadgen import NetLoadGen, drive
from .mqtt import MQTTClient, MQTTError, MQTTStats
from .packets import (
    FRAME_HEADER_BYTES,
    CloudSource,
    FramingError,
    Message,
    checksum16,
    frame,
    unframe,
    validate_frame,
)
from .sessions import (
    BoundedQueue,
    NetPipeline,
    NetPipelineStats,
    SessionError,
    SessionState,
    session_key,
)
from .tls import TLSError, TLSSession, TLSStats

__all__ = [
    "BoundedQueue",
    "CLOCK_MHZ",
    "CloudSource",
    "FRAME_HEADER_BYTES",
    "Firewall",
    "FirewallStats",
    "FramingError",
    "IoTApplication",
    "IoTReport",
    "JavaScriptVM",
    "MQTTClient",
    "MQTTError",
    "MQTTStats",
    "Message",
    "NetLoadGen",
    "NetPipeline",
    "NetPipelineStats",
    "SessionError",
    "SessionState",
    "TICK_MS",
    "TLSError",
    "TLSSession",
    "TLSStats",
    "VMError",
    "VMStats",
    "checksum16",
    "drive",
    "frame",
    "led_animation_bytecode",
    "session_key",
    "unframe",
    "validate_frame",
]
