"""How fast the host runs Python, sampled while a repetition runs.

The benchmark's machine shares its processors with other tenants whose
load changes the speed of every instruction, in phases from a few
milliseconds to several minutes long: the same serial repetition reads
up to 1.8 times slower in one phase than in another. CPU time moves
with wall time, so the phases are not steal time, and timing the
process's CPU does not remove them.

A :class:`Sampler` runs a fixed slice of pure-Python work, none of it
the program's code, from a ``SIGPROF`` handler after every
:data:`INTERVAL_S` of processor time, in the repetition's process and in
every process it forks, and counts the slices and the time they took.
A process that waits takes no samples, so a campaign's parent does not
compete with its busy pool workers. Between two readings a
:class:`Phase` gives the wall time and the host's slowness over it: the
slices' mean time as a share of :data:`REFERENCE_SLICE_S`, so 1.0 on the
reference host and 1.5 on a host, or in a phase, that takes half as
long again. Dividing a phase's time by its slowness gives reference
seconds: the time the work would take on the reference host. A change
to the program moves reference times as it moves wall times. The
slices take about 2% of the processor time, on every commit alike.

Sampled inside the repetition, the slices follow the fast phases that
a sample taken between repetitions misses. Over four minutes of 1.1 s
serial serving runs on the benchmark's 2-vCPU host, the spread of the
runs (quartile distance over median) was 21% in wall time and 9% in
reference time; the medians of ten consecutive runs varied 1.46-fold in
wall time and 1.15-fold in reference time.
"""

from __future__ import annotations

import gc
import mmap
import os
import signal
import struct
import time
from typing import NamedTuple, Optional

INTERVAL_S = 0.025
#: One slice's median time on the reference host, a 2-vCPU Xeon VM at
#: 2.0 GHz running Python 3.11.
REFERENCE_SLICE_S = 0.00058
#: Processes that can take samples: the repetition and what it forks.
_SLOTS = 64
#: Per process: seconds in slices, slices.
_TOTALS = struct.Struct("dq")


class _Record:
    __slots__ = ("serial", "flags")

    def __init__(self, serial: int, flags: int):
        self.serial = serial
        self.flags = flags

    def key(self):
        return self.serial, self.flags & 7


def _slice(rounds: int = 300) -> int:
    """Object, dict, string and bytes work on a cache-resident set."""
    table = {}
    out = []
    for index in range(rounds):
        key = _Record(index, index * 7).key()
        table[key] = table.get(key, 0) + 1
        name = f"h{index % 97}.example.net"
        out.append(struct.pack("!HH", index & 0xFFFF, len(name))
                   + name.encode())
        if len(out) > 64:
            out.sort(key=len)
            del out[:32]
    return len(table)


class Reading(NamedTuple):
    clock: float
    kernel_s: float
    slices: int


class Phase(NamedTuple):
    wall_s: float
    #: The host's slowness over the phase; None when no slice ran.
    slowness: Optional[float]


class Sampler:
    """Samples in this process from :meth:`start` to :meth:`stop`, and
    in every process forked meanwhile until it ends."""

    def __init__(self):
        # Shared with forked processes; each writes only its own slot.
        self._totals = mmap.mmap(-1, _SLOTS * _TOTALS.size)
        self._offset = 0
        self._forked = 0
        self._running = False
        os.register_at_fork(before=self._before_fork,
                            after_in_child=self._after_fork_in_child)

    def _before_fork(self) -> None:
        self._forked += 1

    def _after_fork_in_child(self) -> None:
        # The child inherits the handler but not the timer.
        self._running = self._running and self._forked < _SLOTS
        if self._running:
            self._offset = self._forked * _TOTALS.size
            self._arm()

    def _tick(self, signum, frame) -> None:
        # A collection inside the slice would time the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        _slice()
        elapsed = time.perf_counter() - started
        kernel_s, slices = _TOTALS.unpack_from(self._totals, self._offset)
        _TOTALS.pack_into(self._totals, self._offset, kernel_s + elapsed,
                          slices + 1)
        if enabled:
            gc.enable()

    def _arm(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        self._running = True
        self._arm()

    def stop(self) -> None:
        """Stop sampling here and in processes forked from now on."""
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0)

    def reading(self) -> Reading:
        kernel_s = slices = 0
        for process_s, process_slices in _TOTALS.iter_unpack(self._totals):
            kernel_s += process_s
            slices += process_slices
        return Reading(time.perf_counter(), kernel_s, slices)


def phase(first: Reading, last: Reading) -> Phase:
    kernel_s = last.kernel_s - first.kernel_s
    slices = last.slices - first.slices
    slowness = (kernel_s / slices / REFERENCE_SLICE_S) if slices else None
    return Phase(last.clock - first.clock, slowness)
