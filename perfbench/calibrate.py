"""Host clock for the benchmark, corrected for the machine's own speed.

On a shared virtual machine the same serve of the same trace can take
1.6 s in one minute and 4.8 s a few minutes later: other tenants slow
the vCPU down without that showing as steal time, so neither wall time
nor process CPU time (which track each other here) is steady enough to
gate on.  The benchmark therefore times a fixed reference loop next to
every timed piece of work and scales each timing by how fast the loop
ran at that moment:

    calibrated = measured * REFERENCE_S / reference loop time

The loop is the benchmark's own code, not the simulator's, so a change
to the simulator moves the measured time and not the reference.  It
does the kinds of work the simulator does: integer arithmetic in the
interpreter loop; small objects, dicts, a binary heap and sorting; and
a walk through a 10 MB object graph that waits on memory.  The collector
is off while it runs, so its timing does not depend on what else is
alive.  ``REFERENCE_S`` is the loop's median time on a 2-vCPU x86 VM,
which makes a calibrated figure read as seconds on that machine at that
speed.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

clock = time.process_time

# Median time of one reference loop on a 2-vCPU x86 VM.
REFERENCE_S = 0.030


class _Job:
    __slots__ = ("jid", "size", "done", "tags")

    def __init__(self, jid: int, size: int) -> None:
        self.jid = jid
        self.size = size
        self.done = 0
        self.tags: dict = {}


class _Node:
    __slots__ = ("nxt", "val")


_CHAIN_LEN = 100_000
_chain: list[_Node] = []
_table: dict[int, int] = {}


def _build_chain() -> None:
    """A random cycle through 100k objects plus a dict of as many keys:
    about 10 MB, more than a core's own caches hold, so walking it
    waits on memory the way the simulator's object graphs do."""
    rng = random.Random(3)
    order = list(range(_CHAIN_LEN))
    rng.shuffle(order)
    _chain.extend(_Node() for _ in range(_CHAIN_LEN))
    for i, here in enumerate(order):
        _chain[here].nxt = order[(i + 1) % _CHAIN_LEN]
        _chain[here].val = i
    _table.update((i * 7919, i) for i in range(_CHAIN_LEN))


def reference_loop(jobs: int = 2000, steps: int = 20_000) -> float:
    """A fixed piece of interpreter work; returns its process CPU seconds.

    Three parts: integer arithmetic; a small event loop over a binary heap
    of fresh objects and dicts; a walk along the memory-bound chain."""
    if not _chain:
        _build_chain()
    gc_was_on = gc.isenabled()
    gc.disable()
    start = clock()
    x = 0
    for i in range(60_000):
        x += i * i % 7
    rng = random.Random(7)
    heap: list = []
    live: dict = {}
    log: list = []
    seq = 0
    for i in range(jobs):
        job = _Job(i, rng.randrange(1, 50))
        live[i] = job
        heapq.heappush(heap, (rng.random(), seq, job))
        seq += 1
        if len(heap) > 64:
            t, _, job = heapq.heappop(heap)
            job.done += 1
            job.tags[t] = (job.size, job.done)
            if job.done < 3:
                heapq.heappush(heap, (t + job.size * 0.01, seq, job))
                seq += 1
            else:
                log.append(sorted(job.tags.items()))
                del live[job.jid]
    here = 0
    for _ in range(steps):
        node = _chain[here]
        x += _table[node.val * 7919]
        here = node.nxt
    elapsed = clock() - start
    if gc_was_on:
        gc.enable()
    return elapsed


class Meter:
    """Times work between runs of the reference loop.

    Each timing is scaled by the mean of the loop's time just before it
    and just after it; the next timing reuses the "after" reading as its
    own "before"."""

    def __init__(self) -> None:
        self._before = reference_loop()
        self.readings = [self._before]

    def time(self, work):
        """Runs ``work()``; returns (calibrated s, measured s, result)."""
        start = clock()
        result = work()
        measured = clock() - start
        after = reference_loop()
        self.readings.append(after)
        scale = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return measured * scale, measured, result
