"""Host speed sampled inside the measured process, while it runs.

On a shared host the speed of the same single-threaded Python code
changes by up to 2x from one second to the next, and the changes of a
core follow neither the other core nor a reference loop timed a second
earlier.  So the regeneration process measures the host's speed itself,
at the moments it runs: an interval timer interrupts the workload every
``INTERVAL_S`` seconds, and the signal handler times one of two fixed
pure-Python probes, alternately:

* ``compute``: slot attributes, list and dict indexing and bytearray
  word packing on a few KiB of state, the interpreter work of the
  simulator;
* ``chase``: dependent loads through a pseudo-random permutation of
  ``CHASE_NODES`` list slots and ints (about 10 MiB), the object-heavy
  memory traffic of the network stack and the allocator model.

Neither touches ``repro``, so no change to the program can move them,
and neither allocates tracked objects, so neither runs the collector.
``scale()`` turns host seconds into seconds on the reference host (where
the probes take ``COMPUTE_REF_S`` and ``CHASE_REF_S``): the weighted
geometric mean of the two probes' ratios.  The handler's own time is
counted in ``paused_s`` and is subtracted from every time the process
reports.
"""

from __future__ import annotations

import resource
import signal
import statistics
import sys
import time

INTERVAL_S = 0.04
COMPUTE_STEPS = 1000
CHASE_NODES = 1 << 18
CHASE_HOPS = 2000
#: Probe seconds on the reference host.
COMPUTE_REF_S = 1.6e-3
CHASE_REF_S = 0.8e-3
#: Weight of the compute probe in the scale's weighted geometric mean.
#: Fitted on consecutive processes of every workload (2-vCPU Xeon
#: guest): 0.75 gave the lowest normalised spread on all four together.
COMPUTE_WEIGHT = 0.75


class _ComputeState:
    __slots__ = ("regs", "mem", "table", "acc")

    def __init__(self) -> None:
        self.regs = [0] * 32
        self.mem = bytearray(4096)
        self.table = {i: (i * 7) & 31 for i in range(64)}
        self.acc = 0

    def step(self, i: int) -> None:
        regs = self.regs
        r = self.table[i & 63]
        value = (regs[r] + i) & 0xFFFFFFFF
        regs[(r + 1) & 31] = value
        addr = (i * 4) & 4092
        self.mem[addr:addr + 4] = value.to_bytes(4, "little")
        other = (addr + 8) & 4092
        self.acc ^= int.from_bytes(self.mem[other:other + 4], "little")


def _status_kib(field: str) -> "int | None":
    """A ``/proc/self/status`` memory field in KiB; None off Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def peak_rss_kib() -> int:
    """Peak resident memory of this process, in KiB.

    ``VmHWM`` where there is one: ``ru_maxrss`` survives ``exec`` on
    Linux, so a child started from a larger parent would report the
    parent's size.
    """
    peak = _status_kib("VmHWM")
    if peak is not None:
        return peak
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # macOS reports bytes.
    return peak // 1024 if sys.platform == "darwin" else peak


def _rss_kib() -> int:
    rss = _status_kib("VmRSS")
    return peak_rss_kib() if rss is None else rss


class HostSpeedSampler:
    """Times the two probes on SIGALRM until ``stop``."""

    def __init__(self) -> None:
        started = time.perf_counter()
        before = _rss_kib()
        self._compute = _ComputeState()
        # One cycle through every node (a full-period LCG modulo 2^18).
        self._chase = [(i * 1_103_515_245 + 12_345) % CHASE_NODES
                       for i in range(CHASE_NODES)]
        self._cursor = 0
        #: KiB of resident memory the probes' state adds.
        self.own_rss_kib = _rss_kib() - before
        self.compute_s = []
        self.chase_s = []
        #: Seconds spent in the sampler: building it, then its handler.
        self.paused_s = time.perf_counter() - started

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        if len(self.compute_s) <= len(self.chase_s):
            step = self._compute.step
            for i in range(COMPUTE_STEPS):
                step(i)
            self.compute_s.append(time.perf_counter() - start)
        else:
            chase = self._chase
            i = self._cursor
            for _ in range(CHASE_HOPS):
                i = chase[i]
            self._cursor = i
            self.chase_s.append(time.perf_counter() - start)
        self.paused_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> "tuple[int, int]":
        """The sample counts so far, to take a scale up to this point."""
        return len(self.compute_s), len(self.chase_s)

    def scale(self, upto: "tuple[int, int] | None" = None) -> float:
        """Reference-host seconds per host second.

        Over every sample so far, or over those before ``upto`` (a
        ``mark``) when each probe has a sample there.
        """
        compute_s, chase_s = self.compute_s, self.chase_s
        if upto is not None and min(upto) > 0:
            compute_s, chase_s = compute_s[:upto[0]], chase_s[:upto[1]]
        if not compute_s or not chase_s:
            return 1.0
        compute = COMPUTE_REF_S / statistics.fmean(compute_s)
        chase = CHASE_REF_S / statistics.fmean(chase_s)
        return compute ** COMPUTE_WEIGHT * chase ** (1 - COMPUTE_WEIGHT)
