"""Seeded multi-connection load generator for the scaled pipeline.

Plays the cloud side of thousands of concurrent sessions against a
:class:`~repro.iot.sessions.NetPipeline`, netperf-style: each
connection is assigned a traffic shape at construction —

* **request/response** (``rr``): one small message per round (16–48
  byte payload), the telemetry-poll/RPC pattern;
* **streaming**: a burst of fixed 64-byte payloads per round, the
  bulk-transfer pattern (the seed app's bytecode download uses the
  same chunk size).

Every frame is sealed by a per-connection cloud-side
:class:`~repro.iot.tls.TLSSession` holding the same derived key as the
device side (``session_key(conn_id)``), with the frame sequence number
as the record nonce — exactly the seed application's wire discipline.

Fault injection mirrors what real links do *without* killing the
stream, because the seed's sequencing only advances on an exact match:

* **corrupt**: a copy of the next frame with one body byte flipped is
  sent first (guaranteed checksum failure → one ``dropped_corrupt``),
  followed by the clean frame;
* **reorder**: two consecutive frames swap on the wire and the
  overtaken one is retransmitted — ``[f2, f1, f2]`` — costing one
  ``dropped_out_of_order`` while still delivering both.

All randomness (shape assignment, payload sizes, injection points,
cross-connection interleaving) comes from one ``random.Random(seed)``,
so a given configuration reproduces its wire byte stream exactly.

:func:`run_point` is one self-checked sweep point (one receive
discipline at one connection count) and :func:`net_sweep` assembles
the committed ``BENCH_net.json`` from them: per point the
per-compartment cycle buckets, crossing overhead, queue high-watermarks
and latency quantiles; per connection count the copy/zero-copy ratios.
``per_packet_stack_cycles`` excludes the cipher work (byte-identical
in both disciplines by construction), so its ratio isolates the
data-movement path that narrowing optimises.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.artifact import Inputs, parallel_map

from .packets import FRAME_HEADER_BYTES, frame
from .sessions import NetPipeline, session_key
from .tls import TLSSession

#: Streaming-shape payload size (the seed's bytecode chunk size).
STREAM_PAYLOAD_BYTES = 64

#: Document version of ``BENCH_net.json``.
NET_BENCH_VERSION = 1

#: The committed connection-count sweep (the last point is the scale
#: the at-scale claim is gated on).
DEFAULT_CONNS = (1, 32, 256, 2048)

#: Traffic rounds per point, by connection count: enough packets at
#: every scale to reach steady state without letting the big points
#: dominate the runtime.  Unlisted counts fall back to 4.
DEFAULT_ROUNDS = {1: 16, 32: 8, 256: 4, 2048: 2}

#: One seed for every sweep point; a point's stream is a pure function
#: of (mode, connections, rounds, seed).
SEED = 20260807

#: Fault-injection rates: low enough that drops stay a small correction
#: to throughput, high enough that both drop paths are exercised at
#: every sweep point.
CORRUPT_RATE = 0.02
REORDER_RATE = 0.02


class NetLoadGen:
    """Deterministic traffic for a set of connection ids."""

    def __init__(
        self,
        conn_ids,
        seed: int = SEED,
        stream_fraction: float = 0.5,
        stream_burst: int = 4,
        corrupt_rate: float = 0.0,
        reorder_rate: float = 0.0,
    ) -> None:
        self.conn_ids = sorted(conn_ids)
        self._rng = random.Random(seed)
        self.stream_burst = stream_burst
        self.corrupt_rate = corrupt_rate
        self.reorder_rate = reorder_rate

        self._tls: Dict[int, TLSSession] = {}
        self._seq: Dict[int, int] = {}
        self.shapes: Dict[int, str] = {}
        # Shapes draw from the rng in sorted connection order, so the
        # assignment is a pure function of (conn_ids, seed).
        for conn_id in self.conn_ids:
            tls = TLSSession(session_key(conn_id))
            tls.handshake()  # cloud side: costs the device nothing
            self._tls[conn_id] = tls
            self._seq[conn_id] = 1
            self.shapes[conn_id] = (
                "stream"
                if self._rng.random() < stream_fraction
                else "rr"
            )

        self.frames_emitted = 0
        self.expected_delivered = 0
        self.expected_payload_bytes = 0
        self.injected_corrupt = 0
        self.injected_reorder = 0

    # ------------------------------------------------------------------
    # Wire building
    # ------------------------------------------------------------------

    def _payload(self, conn_id: int, round_index: int, msg: int,
                 size: int) -> bytes:
        stamp = f"c{conn_id:05d}r{round_index:04d}m{msg:02d}".encode("ascii")
        if len(stamp) >= size:
            return stamp[:size]
        return stamp + b"." * (size - len(stamp))

    def _wire(self, conn_id: int, body: bytes) -> bytes:
        sequence = self._seq[conn_id]
        self._seq[conn_id] += 1
        record, _ = self._tls[conn_id].seal_record(body, sequence)
        return frame(sequence, record)

    def _conn_round(self, conn_id: int, round_index: int) -> List[bytes]:
        """The clean frames one connection emits this round."""
        wires: List[bytes] = []
        if self.shapes[conn_id] == "rr":
            size = self._rng.randrange(16, 49)
            body = b"PUB:device/rpc:" + self._payload(
                conn_id, round_index, 0, size
            )
            self.expected_payload_bytes += size
            wires.append(self._wire(conn_id, body))
        else:
            for msg in range(self.stream_burst):
                body = b"PUB:device/stream:" + self._payload(
                    conn_id, round_index, msg, STREAM_PAYLOAD_BYTES
                )
                self.expected_payload_bytes += STREAM_PAYLOAD_BYTES
                wires.append(self._wire(conn_id, body))
        self.expected_delivered += len(wires)
        return wires

    def _inject(self, wires: List[bytes]) -> List[bytes]:
        """Apply corrupt/reorder faults to one connection's round."""
        out = list(wires)
        if out and self.corrupt_rate and self._rng.random() < self.corrupt_rate:
            victim = out[0]
            flip = self._rng.randrange(FRAME_HEADER_BYTES, len(victim))
            corrupted = (
                victim[:flip]
                + bytes([victim[flip] ^ 0xFF])
                + victim[flip + 1 :]
            )
            out.insert(0, corrupted)
            self.injected_corrupt += 1
        if (
            len(out) >= 2
            and self.reorder_rate
            and self._rng.random() < self.reorder_rate
        ):
            # Swap the last two frames and retransmit the overtaken
            # one: [f1, f2] becomes [f2, f1, f2].
            first, second = out[-2], out[-1]
            out[-2:] = [second, first, second]
            self.injected_reorder += 1
        return out

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def frames_for_round(self, round_index: int) -> List[Tuple[int, bytes]]:
        """All (conn_id, wire) pairs for one round, interleaved.

        Per-connection frame order is preserved (it must be — the
        receiver sequences per session); the *cross*-connection
        interleave is a seeded shuffle, so the pipeline sees sessions
        genuinely mixed rather than drained one at a time.
        """
        per_conn: List[List[Tuple[int, bytes]]] = []
        for conn_id in self.conn_ids:
            wires = self._inject(self._conn_round(conn_id, round_index))
            per_conn.append([(conn_id, wire) for wire in wires])
        merged: List[Tuple[int, bytes]] = []
        while per_conn:
            queue = per_conn[self._rng.randrange(len(per_conn))]
            merged.append(queue.pop(0))
            if not queue:
                per_conn.remove(queue)
        self.frames_emitted += len(merged)
        return merged


def drive(
    pipeline: NetPipeline,
    gen: NetLoadGen,
    rounds: int,
    max_retries: int = 64,
) -> None:
    """Push ``rounds`` of generated traffic through the pipeline.

    When the ingress ring is full the submit is refused and counted
    (``dropped_backpressure``); the driver then pumps the pipeline to
    free ring slots and retransmits, modelling a flow-controlled
    sender.  Losing the frame instead is not an option the protocol
    survives: the receiver's per-session sequencing would stall and
    drop everything after the gap.
    """
    for round_index in range(rounds):
        for conn_id, wire in gen.frames_for_round(round_index):
            for _ in range(max_retries):
                if pipeline.submit(conn_id, wire):
                    break
                pipeline.pump()
            else:
                raise RuntimeError("ingress ring wedged despite pumping")
        pipeline.pump()
    pipeline.drain()


class DeliveryMismatch(Exception):
    """A sweep point whose pipeline disagreed with its generator."""


def run_point(zero_copy: bool, connections: int, rounds: int) -> dict:
    """One (mode, connections) sweep point, self-checked.

    The pipeline must deliver exactly the messages and payload bytes
    the generator emitted, and drop exactly the corrupt and reordered
    frames it injected — a benchmark of a broken stack is not a
    benchmark.
    """
    pipeline = NetPipeline(zero_copy=zero_copy)
    conn_ids = range(1, connections + 1)
    pipeline.establish_many(conn_ids)
    gen = NetLoadGen(
        conn_ids,
        seed=SEED,
        corrupt_rate=CORRUPT_RATE,
        reorder_rate=REORDER_RATE,
    )
    drive(pipeline, gen, rounds=rounds)

    report = pipeline.report()
    counters = report["counters"]
    mode = report["mode"]
    for name, got, want in (
        ("delivered messages", counters["packets_delivered"],
         gen.expected_delivered),
        ("payload bytes", counters["payload_bytes_delivered"],
         gen.expected_payload_bytes),
        ("corrupt drops", counters["dropped_corrupt"], gen.injected_corrupt),
        ("out-of-order drops", counters["dropped_out_of_order"],
         gen.injected_reorder),
    ):
        if got != want:
            raise DeliveryMismatch(
                f"{mode} @ {connections} connections: {name} {got}, "
                f"generator expected {want}"
            )

    return {
        "mode": mode,
        "connections": connections,
        "rounds": rounds,
        "frames_emitted": gen.frames_emitted,
        "counters": counters,
        "queues": report["queues"],
        "latency": report["latency"],
        "steady_cycles": report["steady_cycles"],
        "stack_cycles": report["stack_cycles"],
        "per_packet_cycles": report["per_packet_cycles"],
        "per_packet_stack_cycles": report["per_packet_stack_cycles"],
        "crossing_cycles_per_packet": report["crossing_cycles_per_packet"],
    }


def _point(task: "Tuple[bool, int, int]") -> dict:
    return run_point(*task)


def _comparison(points: "List[dict]") -> "List[dict]":
    """Per connection count: what the copying baseline costs extra."""
    by_key = {(p["mode"], p["connections"]): p for p in points}
    rows = []
    for connections in sorted({p["connections"] for p in points}):
        zero = by_key.get(("zerocopy", connections))
        copy = by_key.get(("copy", connections))
        if zero is None or copy is None:
            continue
        rows.append(
            {
                "connections": connections,
                "copy_per_packet_stack_cycles": copy[
                    "per_packet_stack_cycles"
                ],
                "zerocopy_per_packet_stack_cycles": zero[
                    "per_packet_stack_cycles"
                ],
                "stack_cycles_ratio": round(
                    copy["per_packet_stack_cycles"]
                    / zero["per_packet_stack_cycles"],
                    4,
                ),
                "total_cycles_ratio": round(
                    copy["per_packet_cycles"] / zero["per_packet_cycles"], 4
                ),
                "allocs_per_packet_copy": round(
                    copy["counters"]["allocs"]
                    / copy["counters"]["packets_delivered"],
                    4,
                ),
                "allocs_per_packet_zerocopy": round(
                    zero["counters"]["allocs"]
                    / zero["counters"]["packets_delivered"],
                    4,
                ),
            }
        )
    return rows


def sweep_document(
    conns=DEFAULT_CONNS, rounds=None, jobs: int = 1
) -> dict:
    """A sweep document over ``conns``; byte-identical for any ``jobs``."""
    rounds = rounds or DEFAULT_ROUNDS
    tasks = [
        (zero_copy, connections, rounds.get(connections, 4))
        for connections in sorted(conns)
        for zero_copy in (False, True)
    ]
    points = parallel_map(_point, tasks, jobs)
    return {
        "version": NET_BENCH_VERSION,
        "config": {
            "connections": sorted(conns),
            "rounds": {str(c): rounds.get(c, 4) for c in sorted(conns)},
            "seed": SEED,
            "corrupt_rate": CORRUPT_RATE,
            "reorder_rate": REORDER_RATE,
        },
        "sweep": points,
        "comparison": _comparison(points),
    }


def net_sweep(inputs: Inputs) -> dict:
    """The committed ``BENCH_net.json``: the default sweep."""
    return sweep_document(jobs=inputs.jobs)
