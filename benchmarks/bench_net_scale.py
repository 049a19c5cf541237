"""E7 — Zero-copy capability narrowing at scale (paper section 7.2.3).

The paper's receive discipline keeps every packet in a single heap
allocation and hands each compartment a ``csetbounds``-narrowed view
of the same buffer.  The alternative — the only *safe* one without
narrowing, since sharing driver memory would expose neighbouring
packets — is to copy at every compartment boundary.

This benchmark drives both disciplines over the identical compartment
topology (driver → firewall → TCP/IP → TLS → MQTT) with seeded
multi-session traffic and measures what narrowing buys as concurrency
rises: per-packet stack cycles (cipher work excluded — it is
byte-identical in both by construction), allocator traffic, and the
batching-driven collapse of compartment-crossing overhead.

Every point runs through :func:`repro.iot.loadgen.run_point`, which
checks delivered messages, payload bytes and both drop counts against
the generator.  The committed full sweep (to 2048 sessions) lives in
``BENCH_net.json`` (``make refresh NAME=net``); this module reproduces
the shape at a CI-friendly scale and asserts it.
"""

from repro.analysis.reporting import format_table
from repro.iot.loadgen import run_point
from conftest import emit

CONNS = (4, 64, 512)
ROUNDS = {4: 8, 64: 4, 512: 2}


def test_net_scale(benchmark):
    def run():
        points = {}
        for connections in CONNS:
            for zero_copy in (False, True):
                points[(connections, zero_copy)] = run_point(
                    zero_copy, connections, ROUNDS[connections]
                )
        return points

    points = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for connections in CONNS:
        copy = points[(connections, False)]
        zero = points[(connections, True)]
        ratio = (
            copy["per_packet_stack_cycles"]
            / zero["per_packet_stack_cycles"]
        )
        rows.append(
            (
                connections,
                f"{copy['per_packet_stack_cycles']:.0f}",
                f"{zero['per_packet_stack_cycles']:.0f}",
                f"{ratio:.2f}x",
                f"{copy['counters']['allocs'] / copy['counters']['packets_delivered']:.1f}",
                f"{zero['counters']['allocs'] / zero['counters']['packets_delivered']:.1f}",
                f"{zero['crossing_cycles_per_packet']:.0f}",
            )
        )
    emit(
        "Section 7.2.3 at scale: zero-copy narrowing vs per-layer copies",
        format_table(
            [
                "sessions",
                "copy stack/pkt",
                "zerocopy stack/pkt",
                "speedup",
                "allocs/pkt copy",
                "allocs/pkt zc",
                "crossing cyc/pkt",
            ],
            rows,
        ),
    )

    p99_rows = []
    for connections in CONNS:
        zero = points[(connections, True)]
        p99_rows.append(
            (
                connections,
                zero["latency"]["p50"],
                zero["latency"]["p99"],
                zero["queues"]["ingress"]["high_watermark"],
            )
        )
    emit(
        "Zero-copy per-packet latency (driver edge -> app dispatch)",
        format_table(
            ["sessions", "p50 cycles", "p99 cycles", "ingress hwm"], p99_rows
        ),
    )

    # The claims, at every scale: copying costs materially more stack
    # cycles, and one allocation per packet vs several.
    for connections in CONNS:
        copy = points[(connections, False)]
        zero = points[(connections, True)]
        assert (
            copy["per_packet_stack_cycles"]
            > 1.8 * zero["per_packet_stack_cycles"]
        )
        assert (
            zero["counters"]["allocs"]
            == zero["counters"]["packets_in"]
            - zero["counters"]["dropped_backpressure"]
        )
        assert copy["counters"]["allocs"] > 3 * zero["counters"]["allocs"]

    # Batching: crossing overhead per packet collapses as concurrency
    # keeps the stage queues full.
    small = points[(CONNS[0], True)]["crossing_cycles_per_packet"]
    large = points[(CONNS[-1], True)]["crossing_cycles_per_packet"]
    assert large < small / 2
