"""Host-speed calibration beside the measured operations.

On a shared 2-vCPU host a neighbour can slow this machine 1.3-2x for
minutes at a time, mostly without steal time, while simulated results
stay bit-identical.  Raw wall times then move with the host, not the code.

The benchmark therefore runs a fixed piece of pure-Python reference work
beside its timed operations, for a fixed share of the time they take, and
divides each phase's times by that phase's *slowdown*: the mean CPU time
of one reference call divided by ``REFERENCE_S``, its time on a calm host,
and by the share of the phase's CPU time that was not stolen.  The host's
speed moves by 10-15% from one few-second stretch to the next, so the
reference must sample the same stretches as the operations it corrects:
between short in-process operations, and during long ones that run in
child processes.  Times are thus reported in calm-host seconds.  The
reference work lives here, not in ``src/``: a change to the simulator
moves the figures and never the reference.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from array import array
from statistics import fmean
from typing import Dict, Iterator, List, Optional

REFERENCE_S = 0.015
"""CPU seconds of one ``reference_work()`` call on a calm host (a 2-vCPU
x86_64 VM at 2.0 GHz, Python 3.11): the unit the slowdown is measured in."""

SHARE = 0.2
"""Reference seconds per second of timed in-process operation."""

BACKGROUND_SHARE = 0.2
"""Share of one CPU the background sampler takes while child processes
run: their workers lose a little CPU, the same on every run.  At 0.1 the
sampler's own noise (about 30 calls per cold campaign) was larger than
the campaign's; 0.2 halved the spread of the corrected cold figures."""

MIN_SAMPLES = 8
"""Reference calls a phase needs before its slowdown is trusted."""

_EXPECTED = (3538, 4462, 4194659264, 172281)


class _Set:
    __slots__ = ("tags", "dirty")

    def __init__(self) -> None:
        self.tags: List[int] = []
        self.dirty: Dict[int, bool] = {}


class _Cache:
    """A tiny LRU set-associative cache: the attribute, list and dict
    traffic of the simulator's own inner loops, with none of its code."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [_Set() for _ in range(sets)]
        self.ways = ways
        self.hits = 0
        self.misses = 0

    def access(self, addr: int, write: bool) -> None:
        s = self.sets[addr % len(self.sets)]
        tag = addr // len(self.sets)
        tags = s.tags
        if tag in tags:
            tags.remove(tag)
            tags.append(tag)
            self.hits += 1
        else:
            self.misses += 1
            if len(tags) >= self.ways:
                s.dirty.pop(tags.pop(0), None)
            tags.append(tag)
        if write:
            s.dirty[tag] = True


def _table() -> array:
    """4 MiB of 64-bit words: larger than the caches a core has to itself,
    so a neighbour that thrashes the shared cache slows the walk."""
    global _TABLE
    if _TABLE is None:
        _TABLE = array("q", range(1 << 19))
    return _TABLE


def _document() -> str:
    """A fixed JSON text shaped like a batch of simulation results."""
    global _DOCUMENT
    if _DOCUMENT is None:
        _DOCUMENT = json.dumps([
            {
                "workload": f"w{i}", "design": ("base", "dice", "scc")[i % 3],
                "cycles": i * 7919, "l4_hit_rate": i / 600.0,
                "per_core_ipc": [i / 97.0] * 8, "index": [i, i + 1, i + 2],
            }
            for i in range(600)
        ])
    return _DOCUMENT


_TABLE = None
_DOCUMENT = None


def reference_work() -> tuple:
    """The fixed reference work, in three parts of about equal time: a
    small cache model (interpreter, attribute and list traffic), a random
    walk over ``_table()`` (memory) and a JSON round trip (parsing and
    allocation).  Returns a checksum of all three."""
    cache = _Cache(256, 8)
    x = 12345
    for i in range(8_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (x >> 8) % 6000 if x & 3 else i % 512
        cache.access(addr, x & 16 == 0)
    table, total = _table(), 0
    mask = len(table) - 1
    for _ in range(16_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[x & mask]
    records = json.loads(_document())
    return cache.hits, cache.misses, total, len(json.dumps(records))


def steal_ticks() -> Optional[int]:
    """Cumulative steal ticks of all CPUs from ``/proc/stat`` (None if absent)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


class HostSpeed:
    """Samples the host's speed with ``reference_work()`` calls, recorded
    under the current ``phase`` as thread CPU seconds (so a call that waits
    for a CPU still measures how fast the CPU ran it).  CPU time leaves out
    the time the hypervisor stole from this VM, which the measured walls
    include, so each phase's slowdown is also divided by the share of its
    CPU time that was not stolen.

    Two ways to sample, both in proportion to the time being measured:

    - ``timed(seconds)`` after an in-process operation owes ``SHARE``
      reference seconds per timed second and pays them in whole calls,
      between operations, so they never compete with the simulator;
    - ``background()`` around operations that run in child processes
      samples on a thread *while* they run, ``BACKGROUND_SHARE`` of the
      time, so the reference sees the same stretch of host time as the
      operations.
    """

    def __init__(
        self, share: float = SHARE, background_share: float = BACKGROUND_SHARE
    ) -> None:
        self.share = share
        self.background_share = background_share
        self.phase = "run"
        self.samples: Dict[str, List[float]] = {}
        self._owed = 0.0
        self._lock = threading.Lock()
        self._spans: Dict[str, List[float]] = {}  # phase -> [wall s, steal ticks]
        self._span_start = (time.perf_counter(), steal_ticks())

    def _close_span(self) -> None:
        """Add the wall and steal since the last call to the current phase."""
        now = (time.perf_counter(), steal_ticks())
        (wall, steal), self._span_start = self._span_start, now
        span = self._spans.setdefault(self.phase, [0.0, 0.0])
        span[0] += now[0] - wall
        if steal is not None and now[1] is not None:
            span[1] += now[1] - steal

    def steal_share(self, phase: str) -> float:
        """Share of the CPU time the VM had during ``phase`` that was stolen."""
        if phase == self.phase:
            self._close_span()
        wall, steal = self._spans.get(phase, (0.0, 0.0))
        capacity = wall * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
        return min(0.9, steal / capacity) if capacity > 0 else 0.0

    def enter(self, phase: str) -> None:
        """Settle the current phase if it has begun, then record later
        reference calls under ``phase``; nothing owed carries over."""
        if self.samples.get(self.phase):
            self.settle()
        self._close_span()
        self.phase = phase
        self._owed = 0.0

    def timed(self, seconds: float) -> None:
        """Record that an operation took ``seconds``; pay what is owed."""
        self._owed += self.share * seconds
        while self._owed > 0.0:
            self._owed -= self._sample()

    @contextlib.contextmanager
    def background(self) -> Iterator[None]:
        """Sample on a thread for the duration of the block, idling
        ``1 / background_share - 1`` times as long as each call took."""
        stop = threading.Event()

        def sample() -> None:
            while not stop.is_set():
                stop.wait(self._sample() * (1.0 / self.background_share - 1.0))

        thread = threading.Thread(target=sample, name="hostspeed", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def _sample(self) -> float:
        """One reference call; returns its wall seconds."""
        started, cpu = time.perf_counter(), time.thread_time()
        answer = reference_work()
        cpu, wall = time.thread_time() - cpu, time.perf_counter() - started
        if answer != _EXPECTED:
            raise RuntimeError(f"reference work answered {answer}, not {_EXPECTED}")
        with self._lock:
            self.samples.setdefault(self.phase, []).append(cpu)
        return wall

    def slowdown(self, phase: Optional[str] = None) -> float:
        """How many times slower than calm the host ran during ``phase``,
        or over the whole run."""
        self.settle()
        phases = list(self.samples) if phase is None else [phase]
        calls = sum(len(self.samples.get(p, [])) for p in phases)
        if calls < MIN_SAMPLES:
            raise ValueError(f"{calls} reference calls in phase {phase!r}")
        return self._slowdown(phases)

    def _slowdown(self, phases: List[str]) -> float:
        samples = [t for p in phases for t in self.samples.get(p, [])]
        stolen = fmean(self.steal_share(p) for p in phases)
        return fmean(samples) / REFERENCE_S / (1.0 - stolen)

    def settle(self) -> None:
        """Top the current phase up to ``MIN_SAMPLES`` reference calls."""
        while len(self.samples.get(self.phase, [])) < MIN_SAMPLES:
            self._sample()

    def record(self) -> Dict[str, float]:
        """Each phase's slowdown, the stolen share of its CPU time, and how
        many reference calls measured it."""
        out: Dict[str, float] = {}
        for phase, samples in list(self.samples.items()):
            out[f"slowdown_{phase}"] = self._slowdown([phase])
            out[f"steal_share_{phase}"] = self.steal_share(phase)
            out[f"reference_calls_{phase}"] = len(samples)
        return out
